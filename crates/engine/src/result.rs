//! Mining results and work counters.

use fm_plan::ExecutionPlan;
use fm_telemetry::Log2Histogram;
use std::ops::AddAssign;
use std::time::Duration;

/// Instrumentation counters accumulated by the software engines.
///
/// These are the software analogues of the hardware event counters in the
/// simulator, and back the motivation analysis of §III (set operations
/// dominate; frequent comparisons cause branch mispredictions).
///
/// # Dispatch-tier invariant
///
/// The three dispatch counters — [`merge_dispatches`], [`gallop_dispatches`]
/// and [`probe_dispatches`] — are charged *only* by the
/// dispatcher behind [`setops::intersect`](crate::setops::intersect) and
/// [`setops::difference`](crate::setops::difference), at the one site that
/// also charges [`setop_invocations`]: one of each per dispatched op. So
/// for any span of work routed through the dispatcher:
///
/// ```text
/// merge_dispatches + gallop_dispatches + probe_dispatches == setop_invocations
/// ```
///
/// This holds globally for the default plan-driven executor, where every
/// kernel invocation goes through the dispatcher. It does *not* hold for
/// `paper_faithful` mode, the simulator's PE models, or the
/// pattern-oblivious baseline, which call the reference merges directly:
/// there the dispatch counters stay zero while `setop_invocations`
/// advances. The invariant holds by construction and is pinned by a unit
/// test in `setops`.
///
/// [`merge_dispatches`]: WorkCounters::merge_dispatches
/// [`gallop_dispatches`]: WorkCounters::gallop_dispatches
/// [`probe_dispatches`]: WorkCounters::probe_dispatches
/// [`setop_invocations`]: WorkCounters::setop_invocations
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkCounters {
    /// Merge-loop iterations across all set intersections/differences
    /// (each is one SIU/SDU cycle in hardware).
    pub setop_iterations: u64,
    /// Number of set-operation invocations.
    pub setop_invocations: u64,
    /// Element comparisons (branch proxy for the §III VTune study).
    pub comparisons: u64,
    /// Candidate vertices tested against bounds/constraints.
    pub candidates_checked: u64,
    /// Embedding extensions performed (search-tree edges walked).
    pub extensions: u64,
    /// Candidate-generation ops dispatched to the merge kernel by the
    /// dispatcher. Zero in `paper_faithful` mode, where every op
    /// runs the fixed merge datapath without a dispatch decision.
    pub merge_dispatches: u64,
    /// Candidate-generation ops dispatched to galloping (binary search).
    pub gallop_dispatches: u64,
    /// Candidate-generation ops dispatched to a hub-bitmap probe kernel
    /// (the third dispatch tier; see the dispatch-tier invariant in the
    /// type docs — the three dispatch counters partition
    /// [`setop_invocations`](Self::setop_invocations) in adaptive mode).
    pub probe_dispatches: u64,
    /// Always 0, outside [`words`](Self::words): the vectorized kernel tier
    /// it counted is gone. Read only by `benchmark/`
    /// (`engine.simd_dispatches`); goes when that line is retired.
    pub simd_dispatches: u64,
    /// Always 0, outside [`words`](Self::words). Read only by `benchmark/`
    /// (`engine.reuse_hits`); goes when that line is retired.
    pub reuse_hits: u64,
    /// Always 0, outside [`words`](Self::words). Read only by `benchmark/`
    /// (`engine.reuse_misses`); goes when that line is retired.
    pub reuse_misses: u64,
    /// Always 0, outside [`words`](Self::words). Read only by `benchmark/`
    /// (`engine.reuse_bytes_hwm`); goes when that line is retired.
    pub reuse_bytes_hwm: u64,
}

impl WorkCounters {
    /// How many words [`words`](Self::words) has.
    pub const WORDS: usize = 8;

    /// Every counter, in the order a checkpoint body and `serve`'s work
    /// digest store them (so a change here is a `CKPT_VERSION` bump): the
    /// one statement of the word list, which `-`, `+=` and both
    /// serializers walk. All eight are flows — none is a high-water
    /// mark — so both operators are component-wise.
    pub fn words_mut(&mut self) -> [&mut u64; Self::WORDS] {
        [
            &mut self.setop_iterations,
            &mut self.setop_invocations,
            &mut self.comparisons,
            &mut self.candidates_checked,
            &mut self.extensions,
            &mut self.merge_dispatches,
            &mut self.gallop_dispatches,
            &mut self.probe_dispatches,
        ]
    }

    /// The values of [`words_mut`](Self::words_mut), in the same order.
    pub fn words(mut self) -> [u64; Self::WORDS] {
        self.words_mut().map(|w| *w)
    }
}

impl std::ops::Sub for WorkCounters {
    type Output = WorkCounters;
    /// Component-wise difference; used for per-depth telemetry deltas.
    /// Counters are monotonic within a worker, so `after - before` never
    /// underflows.
    fn sub(mut self, o: WorkCounters) -> WorkCounters {
        for (a, b) in self.words_mut().into_iter().zip(o.words()) {
            *a -= b;
        }
        self
    }
}

impl AddAssign for WorkCounters {
    fn add_assign(&mut self, o: WorkCounters) {
        for (a, b) in self.words_mut().into_iter().zip(o.words()) {
            *a += b;
        }
    }
}

/// How a mining run ended.
///
/// Variants are ordered by severity; the parallel driver combines the
/// statuses of concurrent workers with `max`, so an explicit cancellation
/// is never downgraded to a deadline report and a stop reason is never
/// masked by a mere degradation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum RunStatus {
    /// Every start vertex was mined; counts are total.
    #[default]
    Complete,
    /// One or more start-vertex tasks exhausted their retries and were
    /// quarantined; counts are exact over the surviving start vertices,
    /// every fault attempt is listed in [`MiningResult::faults`], and the
    /// abandoned roots in [`MiningResult::quarantined`]. A task that
    /// faulted but succeeded on a retry does *not* degrade the run.
    Degraded,
    /// The set-operation budget ran out before the job drained.
    BudgetExhausted,
    /// The wall-clock deadline passed before the job drained.
    DeadlineExceeded,
    /// The job's [`CancelToken`](crate::CancelToken) was cancelled.
    Cancelled,
}

impl RunStatus {
    /// Whether the run mined every start vertex without faults.
    pub fn is_complete(&self) -> bool {
        *self == RunStatus::Complete
    }

    /// Whether counts cover only a subset of start vertices (any early
    /// stop or degradation).
    pub fn is_partial(&self) -> bool {
        !self.is_complete()
    }

    /// Stable name for progress lines, heartbeats, and metric labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunStatus::Complete => "Complete",
            RunStatus::Degraded => "Degraded",
            RunStatus::BudgetExhausted => "BudgetExhausted",
            RunStatus::DeadlineExceeded => "DeadlineExceeded",
            RunStatus::Cancelled => "Cancelled",
        }
    }
}

/// One isolated start-vertex failure: the search root whose task panicked,
/// which attempt it was, and the panic payload (stringified).
///
/// With retries enabled ([`EngineConfig::max_retries`](crate::EngineConfig::max_retries))
/// a single start vertex can contribute several `Fault` records — one per
/// failed attempt — before either succeeding (the run stays
/// [`Complete`](RunStatus::Complete)) or landing in
/// [`MiningResult::quarantined`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fault {
    /// Start vertex whose task panicked.
    pub vid: u32,
    /// Zero-based attempt index (0 = first try, 1 = first retry, …).
    pub attempt: u32,
    /// The panic message, or a placeholder for non-string payloads.
    pub payload: String,
}

/// One task flagged by the straggler detector: its elapsed wall-clock time
/// reached [`STRAGGLER_RATIO`] times the median task time of the run (and
/// [`STRAGGLER_MIN_TASK`]).
///
/// Purely observational — a straggler still completed and its counts are
/// included. This is the hook for future work-splitting: the roster names
/// exactly the subtrees whose serial grain limits the parallel tail.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Straggler {
    /// Start vertex of the slow task.
    pub vid: u32,
    /// Wall-clock time of the task (all retry attempts included).
    pub elapsed: Duration,
    /// Median task time of the whole run, for scale: the upper bound of
    /// the power-of-two histogram bucket that holds it, so at most twice
    /// the exact median. While that bound stays at or below 1.25 ms
    /// ([`STRAGGLER_MIN_TASK`] / [`STRAGGLER_RATIO`]) the floor alone sets
    /// the threshold, and the roster is the one the exact median gives.
    pub median: Duration,
}

/// Task times of a run in constant memory: a [`Log2Histogram`] of every
/// task, for the median, and the slowest tasks of at least
/// [`STRAGGLER_MIN_TASK`], at most [`MAX_STRAGGLERS`] of them. Each stint
/// fills its own and merges it into the run's once.
#[derive(Clone, Debug, Default)]
pub(crate) struct TaskTimes {
    hist: Log2Histogram,
    /// `(vid, nanoseconds)`, in no order.
    slowest: Vec<(u32, u64)>,
}

impl TaskTimes {
    pub(crate) fn record(&mut self, vid: u32, nanos: u64) {
        self.hist.record(nanos);
        if nanos >= MIN_TASK_NANOS {
            self.keep(vid, nanos);
        }
    }

    pub(crate) fn merge(&mut self, other: TaskTimes) {
        self.hist.merge(&other.hist);
        for (vid, nanos) in other.slowest {
            self.keep(vid, nanos);
        }
    }

    /// Keeps the [`MAX_STRAGGLERS`] first tasks in roster order: slowest
    /// first, ties by vid.
    fn keep(&mut self, vid: u32, nanos: u64) {
        let rank = |&(vid, nanos): &(u32, u64)| (std::cmp::Reverse(nanos), vid);
        if self.slowest.len() < MAX_STRAGGLERS {
            self.slowest.push((vid, nanos));
        } else if let Some(last) = self.slowest.iter_mut().max_by_key(|t| rank(t)) {
            if rank(&(vid, nanos)) < rank(last) {
                *last = (vid, nanos);
            }
        }
    }

    /// The roster: every kept task (so of at least [`STRAGGLER_MIN_TASK`])
    /// of at least [`STRAGGLER_RATIO`] times the median bucket's bound,
    /// slowest first, ties by vid.
    pub(crate) fn stragglers(self) -> Vec<Straggler> {
        let Some(median) = self.median_bound() else { return Vec::new() };
        let threshold = median.saturating_mul(u64::from(STRAGGLER_RATIO));
        let median = Duration::from_nanos(median);
        let mut out: Vec<Straggler> = self
            .slowest
            .into_iter()
            .filter(|&(_, nanos)| nanos >= threshold)
            .map(|(vid, nanos)| Straggler { vid, elapsed: Duration::from_nanos(nanos), median })
            .collect();
        out.sort_unstable_by(|a, b| b.elapsed.cmp(&a.elapsed).then(a.vid.cmp(&b.vid)));
        out
    }

    /// The inclusive upper bound of the bucket holding task
    /// `count / 2` in time order; `None` before any task.
    fn median_bound(&self) -> Option<u64> {
        if self.hist.is_empty() {
            return None;
        }
        let middle = self.hist.count / 2;
        let mut seen = 0;
        let bucket = self.hist.buckets.iter().position(|&n| {
            seen += n;
            seen > middle
        })?;
        Some(Log2Histogram::bucket_le(bucket))
    }
}

/// [`STRAGGLER_MIN_TASK`] in the histogram's unit (10⁷ fits a `u64`).
const MIN_TASK_NANOS: u64 = STRAGGLER_MIN_TASK.as_nanos() as u64;

/// Upper bound on the straggler roster in one [`MiningResult`].
pub const MAX_STRAGGLERS: usize = 32;

/// A pool-run task is a straggler when it takes at least this many times
/// the run's median task.
pub const STRAGGLER_RATIO: u32 = 8;

/// Noise floor for straggler detection: tasks faster than this are never
/// flagged, however small the median — microsecond-scale jitter on tiny
/// inputs would otherwise flood the report.
pub const STRAGGLER_MIN_TASK: Duration = Duration::from_millis(10);

/// The outcome of a mining run: one raw match count per plan pattern, plus
/// work counters, plus the job-control verdict.
///
/// For partial runs ([`RunStatus::is_partial`]) the counts are *exact over
/// the completed start vertices*: re-running only [`completed`] roots
/// sequentially reproduces `counts` bit-for-bit. On a fully
/// [`Complete`](RunStatus::Complete) run `completed` is left empty (it
/// would be every vertex) to keep the common case allocation-free.
///
/// [`completed`]: MiningResult::completed
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MiningResult {
    /// Raw matches found per pattern (in plan pattern order).
    pub counts: Vec<u64>,
    /// Aggregated work counters.
    pub work: WorkCounters,
    /// How the run ended.
    pub status: RunStatus,
    /// Start vertices whose subtrees completed, ascending. Empty on a
    /// fault-free complete run (meaning: all of them).
    pub completed: Vec<u32>,
    /// Every isolated task panic, one record per attempt (a retried-then-
    /// successful task leaves its failed attempts here). On a resumed run
    /// this includes the fault history carried over from the checkpoint.
    pub faults: Vec<Fault>,
    /// Start vertices abandoned after exhausting
    /// [`EngineConfig::max_retries`](crate::EngineConfig::max_retries);
    /// one record per vertex (its final attempt). Non-empty iff the run is
    /// [`Degraded`](RunStatus::Degraded) (or a harsher stop masked it).
    pub quarantined: Vec<Fault>,
    /// Tasks that ran far slower than the run's median task (observability
    /// for load-imbalance / future work-splitting; see [`Straggler`]).
    /// Slowest first, at most [`MAX_STRAGGLERS`] entries.
    pub stragglers: Vec<Straggler>,
    /// First *fatal* periodic-checkpoint write failure, if any: the sink
    /// retries transient write errors with capped backoff and only gives
    /// up (surfacing here) after exhausting its attempts. The run itself
    /// is unaffected (mining never stops because durability did), but a
    /// resume may replay more work than the interval promised.
    pub checkpoint_error: Option<String>,
    /// Total failed checkpoint-write attempts, including transient
    /// failures that a later retry recovered from — a non-zero count with
    /// `checkpoint_error == None` means durability degraded transiently
    /// but recovered.
    pub checkpoint_failures: u64,
    /// Merged telemetry (depth-resolved metrics, histograms, spans) when
    /// the run was observed via
    /// [`TelemetryOptions`](crate::TelemetryOptions); `None` — costing one
    /// null check — on ordinary runs, which keeps telemetry-off results
    /// bit-identical to the pre-telemetry engine. Boxed so the common
    /// `None` case does not widen every result.
    pub telemetry: Option<Box<fm_telemetry::TelemetryShard>>,
}

impl MiningResult {
    /// Creates an empty result sized for `patterns` patterns.
    pub fn empty(patterns: usize) -> Self {
        MiningResult { counts: vec![0; patterns], ..MiningResult::default() }
    }

    /// Unique embedding counts: raw counts divided by |Aut(P)| when the
    /// plan does not break symmetry (AutoMine mode), raw counts otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a raw count is not divisible by the automorphism count.
    /// On a complete run that would indicate an engine bug (and is
    /// asserted in tests); on a partial AutoMine-mode run non-divisible
    /// counts are *expected* (an embedding's |Aut| copies are split across
    /// start vertices) — use [`try_unique_counts`](Self::try_unique_counts)
    /// when the run may be partial.
    pub fn unique_counts(&self, plan: &ExecutionPlan) -> Vec<u64> {
        self.try_unique_counts(plan).expect("raw count must be a multiple of |Aut|")
    }

    /// Like [`unique_counts`](Self::unique_counts), returning `None`
    /// instead of panicking when a raw count does not divide |Aut(P)| —
    /// the signature partial results have under non-symmetry plans, where
    /// per-start-vertex truncation cuts through automorphism classes.
    pub fn try_unique_counts(&self, plan: &ExecutionPlan) -> Option<Vec<u64>> {
        self.counts
            .iter()
            .zip(&plan.patterns)
            .map(|(&c, meta)| {
                if plan.symmetry {
                    Some(c)
                } else {
                    let auts = meta.automorphisms as u64;
                    (c % auts == 0).then(|| c / auts)
                }
            })
            .collect()
    }

    /// Total raw matches across patterns.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(tasks: impl IntoIterator<Item = (u32, u64)>) -> TaskTimes {
        let mut t = TaskTimes::default();
        for (vid, nanos) in tasks {
            t.record(vid, nanos);
        }
        t
    }

    #[test]
    fn straggler_detection_flags_outliers_deterministically() {
        let ms = Duration::from_millis;
        let nanos = |m: u64| m * 1_000_000;
        let run = [(0, nanos(10)), (1, nanos(11)), (2, nanos(9)), (3, nanos(200)), (4, nanos(10))];
        let out = times(run).stragglers();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vid, 3);
        assert_eq!(out[0].elapsed, ms(200));
        // The median is its bucket's bound: 10 ms lies in [2^23, 2^24) ns.
        assert_eq!(out[0].median, Duration::from_nanos((1 << 24) - 1));
        assert!(TaskTimes::default().stragglers().is_empty());
        // The floor suppresses timer noise: nothing below it is flagged,
        // however small the median. Here the median is about 1 µs, so the
        // ratio alone would flag the 3 ms task.
        let tiny = (0..99).map(|v| (v, 1_000)).chain([(99, nanos(3))]);
        assert!(times(tiny).stragglers().is_empty());
        // Slowest-first ordering with vid tiebreak, capped at MAX_STRAGGLERS.
        let many = (0..190).map(|v| (v, nanos(1))).chain((190..230).map(|v| (v, nanos(100))));
        let out = times(many).stragglers();
        assert_eq!(out.len(), MAX_STRAGGLERS);
        assert!(out.windows(2).all(|w| w[0].elapsed >= w[1].elapsed));
        assert_eq!(out[0].vid, 190);
        assert_eq!(out.last().map(|s| s.vid), Some(190 + MAX_STRAGGLERS as u32 - 1));
    }

    #[test]
    fn merged_stints_report_what_one_stint_reports() {
        let nanos = |m: u64| m * 1_000_000;
        // Every fifth task is slow, more of them than the roster holds, with
        // ties on duration.
        let slow = |v: u32| if v.is_multiple_of(5) { 20 + u64::from(v % 17) } else { 1 };
        let run: Vec<(u32, u64)> = (0..300).map(|v| (v, nanos(slow(v)))).collect();
        let whole = times(run.iter().copied()).stragglers();
        let mut merged = TaskTimes::default();
        for stint in run.chunks(37) {
            merged.merge(times(stint.iter().copied()));
        }
        assert_eq!(merged.stragglers(), whole);
        assert_eq!(whole.len(), MAX_STRAGGLERS);
    }
}
