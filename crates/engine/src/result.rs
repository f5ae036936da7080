//! Mining results and work counters.

use fm_plan::ExecutionPlan;
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
/// The four dispatch counters — [`merge_dispatches`], [`gallop_dispatches`],
/// [`probe_dispatches`] and [`simd_dispatches`] — are charged *only* by the
/// dispatcher behind [`setops::intersect`](crate::setops::intersect) and
/// [`setops::difference`](crate::setops::difference), at the one site that
/// also charges [`setop_invocations`]: one of each per dispatched op. So
/// for any span of work routed through the dispatcher:
///
/// ```text
/// merge_dispatches + gallop_dispatches + probe_dispatches
///     + simd_dispatches == setop_invocations
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
/// [`simd_dispatches`]: WorkCounters::simd_dispatches
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
    /// type docs — the four dispatch counters partition
    /// [`setop_invocations`](Self::setop_invocations) in adaptive mode).
    pub probe_dispatches: u64,
    /// Candidate-generation ops dispatched to the vectorized (SSE2/AVX2)
    /// kernels — the fourth dispatch tier, which *replaces* the merge
    /// tier when [`EngineConfig::simd_active`](crate::EngineConfig::simd_active):
    /// a scalar run's `merge_dispatches` equals the same run's
    /// `simd_dispatches` under SIMD, with every other counter
    /// bit-identical.
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
    pub const WORDS: usize = 9;

    /// Every counter, in the order a checkpoint body and `serve`'s work
    /// digest store them (so a change here is a `CKPT_VERSION` bump): the
    /// one statement of the word list, which `-`, `+=` and both
    /// serializers walk. All nine are flows — none is a high-water
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
            &mut self.simd_dispatches,
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
/// exceeded [`EngineConfig::straggler_ratio`](crate::EngineConfig::straggler_ratio)
/// times the median task time of the run.
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
    /// Median task time of the whole run, for scale.
    pub median: Duration,
}

/// Flags tasks whose elapsed time (`(vid, nanoseconds)`) is at least
/// `ratio`× the run's median task time (and at least `min_task`, filtering
/// timer noise on microsecond-scale tasks). Returns the stragglers sorted
/// slowest-first, capped at [`MAX_STRAGGLERS`] entries so the report stays
/// bounded on pathological inputs. Reorders `times`.
pub(crate) fn detect_stragglers(
    times: &mut [(u32, u64)],
    ratio: u32,
    min_task: Duration,
) -> Vec<Straggler> {
    if ratio == 0 || times.is_empty() {
        return Vec::new();
    }
    let (_, &mut (_, median), _) =
        times.select_nth_unstable_by_key(times.len() / 2, |&(_, nanos)| nanos);
    let min_task = u64::try_from(min_task.as_nanos()).unwrap_or(u64::MAX);
    let threshold = median.saturating_mul(u64::from(ratio)).max(min_task);
    let median = Duration::from_nanos(median);
    let mut out: Vec<Straggler> = times
        .iter()
        .filter(|&&(_, nanos)| nanos >= threshold && nanos > 0)
        .map(|&(vid, nanos)| Straggler { vid, elapsed: Duration::from_nanos(nanos), median })
        .collect();
    // Ties on duration keep the report deterministic by vid order.
    out.sort_unstable_by(|a, b| b.elapsed.cmp(&a.elapsed).then(a.vid.cmp(&b.vid)));
    out.truncate(MAX_STRAGGLERS);
    out
}

/// Upper bound on the straggler roster in one [`MiningResult`].
pub const MAX_STRAGGLERS: usize = 32;

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
    /// failures that a later retry recovered from. Merging sums this, so
    /// the count survives even when only the first error *message* is
    /// kept — a non-zero count with `checkpoint_error == None` means
    /// durability degraded transiently but recovered.
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

    /// Merges another result into this one (used by the parallel driver).
    /// Counts and work add; statuses combine by severity. The `completed`
    /// list is kept sorted and deduplicated — workers own disjoint start
    /// vertices, so a duplicate would mean double-counted work (asserted
    /// in debug builds) — and fault/quarantine ordering is canonicalized
    /// to `(vid, attempt)` so merged reports are bit-identical across
    /// thread counts and worker interleavings.
    pub fn merge(&mut self, other: &MiningResult) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.checked_add(*o).expect(crate::executor::COUNT_OVERFLOW);
        }
        self.work += other.work;
        self.status = self.status.max(other.status);
        self.completed.extend_from_slice(&other.completed);
        self.completed.sort_unstable();
        let before = self.completed.len();
        self.completed.dedup();
        debug_assert_eq!(
            before,
            self.completed.len(),
            "workers must complete disjoint start-vertex sets"
        );
        self.faults.extend_from_slice(&other.faults);
        self.faults.sort_unstable_by_key(|f| (f.vid, f.attempt));
        self.quarantined.extend_from_slice(&other.quarantined);
        self.quarantined.sort_unstable_by_key(|f| (f.vid, f.attempt));
        self.stragglers.extend_from_slice(&other.stragglers);
        // Keep the first error message, but never lose the *count*: every
        // shard's failed attempts accumulate, so a merged result with one
        // message still reports how many writes failed in total.
        self.checkpoint_failures += other.checkpoint_failures;
        if self.checkpoint_error.is_none() {
            self.checkpoint_error = other.checkpoint_error.clone();
        }
        // Telemetry shards merge commutatively (element-wise sums plus
        // canonical span ordering), preserving this method's
        // order-independence guarantee.
        if let Some(other_shard) = &other.telemetry {
            match &mut self.telemetry {
                Some(shard) => shard.merge(other_shard),
                None => self.telemetry = Some(other_shard.clone()),
            }
        }
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

    #[test]
    fn merge_adds_counts_and_work() {
        let mut a = MiningResult {
            counts: vec![1, 2],
            work: WorkCounters { comparisons: 5, ..Default::default() },
            ..Default::default()
        };
        let b = MiningResult {
            counts: vec![10, 20],
            work: WorkCounters { comparisons: 7, setop_iterations: 3, ..Default::default() },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.counts, vec![11, 22]);
        assert_eq!(a.work.comparisons, 12);
        assert_eq!(a.work.setop_iterations, 3);
        assert_eq!(a.total(), 33);
        assert!(a.status.is_complete());
    }

    #[test]
    fn merge_combines_status_by_severity() {
        let mut a = MiningResult { status: RunStatus::Degraded, ..MiningResult::empty(1) };
        let b = MiningResult { status: RunStatus::DeadlineExceeded, ..MiningResult::empty(1) };
        a.merge(&b);
        assert_eq!(a.status, RunStatus::DeadlineExceeded);
        // A lower-severity merge does not downgrade.
        a.merge(&MiningResult::empty(1));
        assert_eq!(a.status, RunStatus::DeadlineExceeded);
        assert!(a.status.is_partial());
    }

    #[test]
    fn merge_combines_completed_and_faults() {
        let mut a = MiningResult {
            completed: vec![0, 2],
            faults: vec![Fault { vid: 1, attempt: 0, payload: "boom".into() }],
            ..MiningResult::empty(1)
        };
        let b = MiningResult { completed: vec![3], ..MiningResult::empty(1) };
        a.merge(&b);
        assert_eq!(a.completed, vec![0, 2, 3]);
        assert_eq!(a.faults.len(), 1);
        assert_eq!(a.faults[0].vid, 1);
    }

    /// ISSUE satellite: the merged completed list is sorted and the fault
    /// roster is in canonical `(vid, attempt)` order regardless of the
    /// order workers happened to report in, so resumed-run outputs are
    /// stable across thread counts.
    #[test]
    fn merge_is_deterministic_across_worker_orderings() {
        let w1 = MiningResult {
            completed: vec![5, 9],
            faults: vec![
                Fault { vid: 7, attempt: 1, payload: "b".into() },
                Fault { vid: 7, attempt: 0, payload: "a".into() },
            ],
            ..MiningResult::empty(1)
        };
        let w2 = MiningResult {
            completed: vec![1, 3],
            faults: vec![Fault { vid: 2, attempt: 0, payload: "c".into() }],
            quarantined: vec![Fault { vid: 2, attempt: 2, payload: "c".into() }],
            ..MiningResult::empty(1)
        };
        let mut ab = MiningResult::empty(1);
        ab.merge(&w1);
        ab.merge(&w2);
        let mut ba = MiningResult::empty(1);
        ba.merge(&w2);
        ba.merge(&w1);
        assert_eq!(ab, ba);
        assert_eq!(ab.completed, vec![1, 3, 5, 9]);
        let order: Vec<(u32, u32)> = ab.faults.iter().map(|f| (f.vid, f.attempt)).collect();
        assert_eq!(order, vec![(2, 0), (7, 0), (7, 1)]);
        assert_eq!(ab.quarantined.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disjoint")]
    fn merge_rejects_overlapping_completed_sets_in_debug() {
        let mut a = MiningResult { completed: vec![4], ..MiningResult::empty(1) };
        let b = MiningResult { completed: vec![4], ..MiningResult::empty(1) };
        a.merge(&b);
    }

    #[test]
    fn straggler_detection_flags_outliers_deterministically() {
        let ms = Duration::from_millis;
        let nanos = |m: u64| m * 1_000_000;
        let mut times =
            vec![(0, nanos(10)), (1, nanos(11)), (2, nanos(9)), (3, nanos(200)), (4, nanos(10))];
        let out = detect_stragglers(&mut times, 8, Duration::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vid, 3);
        assert_eq!(out[0].elapsed, ms(200));
        assert_eq!(out[0].median, ms(10));
        // Ratio 0 disables detection entirely.
        assert!(detect_stragglers(&mut times, 0, Duration::ZERO).is_empty());
        // The floor suppresses timer noise: everything below min_task is
        // ignored even when the ratio would flag it.
        let mut tiny = vec![(0, nanos(1)), (1, nanos(1)), (2, nanos(3))];
        assert!(detect_stragglers(&mut tiny, 2, ms(50)).is_empty());
        // Slowest-first ordering with vid tiebreak, capped at MAX_STRAGGLERS.
        let mut many: Vec<(u32, u64)> = (0..190).map(|v| (v, nanos(1))).collect();
        many.extend((190..230).map(|v| (v, nanos(100))));
        let out = detect_stragglers(&mut many, 4, Duration::ZERO);
        assert_eq!(out.len(), MAX_STRAGGLERS);
        assert!(out.windows(2).all(|w| w[0].elapsed >= w[1].elapsed));
        assert_eq!(out[0].vid, 190);
    }

    #[test]
    fn merge_combines_telemetry_shards_commutatively() {
        let shard = |iters: u64| {
            let mut s = fm_telemetry::TelemetryShard::new();
            fm_telemetry::shard::charge_depth(&mut s.depth_setop_iterations, 1, iters);
            s.frontier_sizes.record(iters);
            Some(Box::new(s))
        };
        let a = MiningResult { telemetry: shard(3), ..MiningResult::empty(1) };
        let b = MiningResult { telemetry: shard(11), ..MiningResult::empty(1) };
        let mut ab = MiningResult::empty(1);
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = MiningResult::empty(1);
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        let shard = ab.telemetry.expect("merged shard");
        assert_eq!(shard.depth_setop_iterations, vec![0, 14]);
        assert_eq!(shard.frontier_sizes.count, 2);
        // Merging a telemetry-free result leaves the shard untouched.
        let mut with = MiningResult { telemetry: Some(shard), ..MiningResult::empty(1) };
        with.merge(&MiningResult::empty(1));
        assert!(with.telemetry.is_some());
    }

    /// ISSUE satellite: merging used to keep only the first
    /// `checkpoint_error` with no trace that later shards also failed;
    /// the failure count now aggregates alongside the first message.
    #[test]
    fn merge_aggregates_checkpoint_failures_with_first_message() {
        let mut a = MiningResult {
            checkpoint_error: Some("disk full".into()),
            checkpoint_failures: 3,
            ..MiningResult::empty(1)
        };
        let b = MiningResult {
            checkpoint_error: Some("permission denied".into()),
            checkpoint_failures: 2,
            ..MiningResult::empty(1)
        };
        a.merge(&b);
        assert_eq!(a.checkpoint_error.as_deref(), Some("disk full"));
        assert_eq!(a.checkpoint_failures, 5);
        // Transient-only shards (count without a message) still surface.
        let mut c = MiningResult::empty(1);
        c.merge(&MiningResult { checkpoint_failures: 4, ..MiningResult::empty(1) });
        assert_eq!(c.checkpoint_failures, 4);
        assert!(c.checkpoint_error.is_none());
    }

    #[test]
    fn merge_grows_count_vector() {
        let mut a = MiningResult::empty(1);
        let b = MiningResult { counts: vec![1, 2, 3], ..Default::default() };
        a.merge(&b);
        assert_eq!(a.counts, vec![1, 2, 3]);
    }
}
