//! The mining job builder.

use fm_engine::{
    Budget, CancelToken, Checkpoint, CheckpointConfig, CheckpointError, EngineConfig, MineOptions,
    MiningResult, RunStatus, TelemetryOptions,
};
use fm_graph::CsrGraph;
use fm_pattern::Pattern;
use fm_plan::{compile_multi, CompileOptions, ExecutionPlan};
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Error from assembling or running a mining job.
#[derive(Debug, PartialEq, Eq)]
pub enum MineError {
    /// No pattern was supplied.
    NoPatterns,
    /// Vertex-induced multi-pattern jobs need patterns of one size
    /// (k-motif counting); mixed sizes are ambiguous.
    MixedInducedSizes,
    /// A partial run's raw counts cannot be normalized into unique counts:
    /// with symmetry breaking disabled each embedding is found |Aut(P)|
    /// times, and an early stop can cut through an automorphism class.
    /// Retry with symmetry breaking on, or without a budget. A motif
    /// census ([`crate::apps::motif_census`]) reports any run that did not
    /// complete this way.
    PartialUnnormalizable {
        /// How the run actually stopped.
        status: RunStatus,
    },
    /// A motif census's containment solve left 64-bit range at `motif`:
    /// its edge-induced count is smaller than what the motifs above it
    /// account for, or a product overflowed. Exact counts never do either.
    CensusOverflow {
        /// The motif whose induced count could not be solved for.
        motif: String,
    },
    /// A resume checkpoint could not be loaded, or records a different
    /// graph/plan/config than this job (the engine refuses to produce a
    /// silently wrong count — see [`fm_engine::Checkpoint::validate`]).
    Checkpoint(CheckpointError),
}

impl fmt::Display for MineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MineError::NoPatterns => write!(f, "mining job has no patterns"),
            MineError::MixedInducedSizes => {
                write!(f, "vertex-induced jobs require patterns of a single size")
            }
            MineError::PartialUnnormalizable { status } => {
                write!(f, "partial run ({status:?}) cannot be normalized into unique counts")
            }
            MineError::CensusOverflow { motif } => {
                write!(f, "motif census: the containment solve for {motif} leaves 64-bit range")
            }
            MineError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MineError {}

/// One pattern's result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatternCount {
    /// Human-readable pattern name.
    pub name: String,
    /// Unique embeddings found.
    pub count: u64,
}

impl PatternCount {
    /// Names each of `plan`'s patterns with its unique count, in plan
    /// order. The counts are the engine's
    /// [`try_unique_counts`](MiningResult::try_unique_counts), or a
    /// simulator's raw counts under a symmetry-breaking plan (every plan
    /// [`Miner::plan`] compiles with its default options), where raw and
    /// unique agree.
    pub fn named(plan: &ExecutionPlan, counts: impl IntoIterator<Item = u64>) -> Vec<PatternCount> {
        plan.patterns
            .iter()
            .zip(counts)
            .map(|(meta, count)| PatternCount { name: meta.name.clone(), count })
            .collect()
    }
}

/// The result of a mining job: the engine's [`MiningResult`] as it
/// returned it, plus what that lacks.
#[derive(Clone, Debug)]
pub struct MiningOutcome {
    /// The engine's result: raw counts, work counters, how the run ended
    /// ([`RunStatus`]; anything but `Complete` means the counts are exact
    /// over [`completed`](MiningResult::completed) only), the fault,
    /// quarantine and straggler rosters, checkpoint-write failures and
    /// the telemetry shard.
    pub result: MiningResult,
    /// Per-pattern names and unique counts, in pattern order.
    pub per_pattern: Vec<PatternCount>,
    /// Host wall-clock time of the run: the baseline measurement the
    /// paper compares against.
    pub elapsed: Duration,
}

impl MiningOutcome {
    /// Unique embedding counts, in pattern order.
    pub fn counts(&self) -> Vec<u64> {
        self.per_pattern.iter().map(|p| p.count).collect()
    }

    /// Count of the first (or only) pattern.
    pub fn count(&self) -> u64 {
        self.per_pattern.first().map_or(0, |p| p.count)
    }
}

/// Builder for mining jobs on the software engine (the paper's
/// GraphZero-model CPU baseline). The accelerator takes the same plan:
/// hand [`plan`](Miner::plan) to [`fm_sim::simulate`].
///
/// # Examples
///
/// 3-motif counting, on the engine and on the accelerator:
///
/// ```
/// use flexminer::{Miner, SimConfig};
/// use fm_graph::generators;
/// use fm_pattern::motifs;
///
/// let g = generators::erdos_renyi(60, 0.15, 3);
/// let job = Miner::new(&g).patterns(motifs::motifs(3)).induced(true);
/// let outcome = job.run()?;
/// assert_eq!(outcome.per_pattern.len(), 2); // wedge + triangle
/// let report = fm_sim::simulate(&g, &job.plan()?, &SimConfig::default());
/// assert_eq!(report.counts, outcome.counts());
/// # Ok::<(), flexminer::MineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Miner<'g> {
    graph: &'g CsrGraph,
    patterns: Vec<Pattern>,
    options: CompileOptions,
    config: EngineConfig,
    /// Cancellation, checkpointing and telemetry; `resume` stays `None`
    /// here and is filled from [`Miner::resume_from`]'s path by `run`.
    control: MineOptions,
    resume: Option<PathBuf>,
}

impl<'g> Miner<'g> {
    /// Starts a mining job on `graph` (one thread, edge-induced, symmetry
    /// breaking on, unlimited budget).
    pub fn new(graph: &'g CsrGraph) -> Miner<'g> {
        Miner {
            graph,
            patterns: Vec::new(),
            options: CompileOptions::default(),
            config: EngineConfig::default(),
            control: MineOptions::default(),
            resume: None,
        }
    }

    /// Adds a pattern to mine.
    #[must_use]
    pub fn pattern(mut self, p: Pattern) -> Self {
        self.patterns.push(p);
        self
    }

    /// Adds every pattern from an iterator (multi-pattern mining, §V-B).
    #[must_use]
    pub fn patterns<I: IntoIterator<Item = Pattern>>(mut self, iter: I) -> Self {
        self.patterns.extend(iter);
        self
    }

    /// Selects vertex-induced (`true`) or edge-induced (`false`, default)
    /// matching.
    #[must_use]
    pub fn induced(mut self, induced: bool) -> Self {
        self.options.induced = induced;
        self
    }

    /// Toggles symmetry breaking. Disabling models AutoMine's larger
    /// search space; counts remain unique (normalized by |Aut(P)|).
    #[must_use]
    pub fn symmetry(mut self, symmetry: bool) -> Self {
        self.options.symmetry = symmetry;
        if !symmetry {
            self.options.orientation = false;
        }
        self
    }

    /// Sets the engine configuration: threads, [`Budget`], retries, the
    /// hub index's budget and the mode ([`EngineConfig::paper_faithful`]).
    /// The budget is the job's one budget: a deadline or set-op cap set
    /// here stops the run as [`run_with_deadline`](Self::run_with_deadline)'s
    /// deadline does.
    #[must_use]
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the engine's worker threads, keeping the rest of its
    /// configuration.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.config.threads = n;
        self
    }

    /// Writes periodic durable [`Checkpoint`] snapshots to `path`. The
    /// default cadence — every 256 completed start-vertex tasks or 10
    /// seconds, whichever fires first — can be changed with
    /// [`checkpoint_interval`](Self::checkpoint_interval). Snapshots are
    /// written atomically (temp file + fsync + rename), so an interrupted
    /// job can always [`resume_from`](Self::resume_from) the last one.
    #[must_use]
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.control.checkpoint = Some(CheckpointConfig::new(path));
        self
    }

    /// Adjusts the checkpoint cadence set by
    /// [`checkpoint_to`](Self::checkpoint_to): write after `every_tasks`
    /// completed tasks (`None`/0 disables the count trigger) and/or after
    /// `every_wall` of wall-clock time (`None` disables). No-op unless a
    /// checkpoint path is set.
    #[must_use]
    pub fn checkpoint_interval(
        mut self,
        every_tasks: Option<u64>,
        every_wall: Option<Duration>,
    ) -> Self {
        if let Some(ckpt) = &mut self.control.checkpoint {
            ckpt.every_tasks = every_tasks.unwrap_or(0);
            ckpt.every_wall = every_wall;
        }
        self
    }

    /// Resumes from the checkpoint file at `path`: already-completed start
    /// vertices are skipped and their contribution seeded from the
    /// snapshot, so the final counts are bit-identical to an uninterrupted
    /// run. The snapshot must record the same graph, plan, and
    /// count-relevant engine knobs — a mismatch fails with
    /// [`MineError::Checkpoint`], never a wrong count. Combine with
    /// [`checkpoint_to`](Self::checkpoint_to) (typically the same path) so
    /// the resumed run keeps checkpointing.
    #[must_use]
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Enables telemetry collection (see [`TelemetryOptions`]): depth/tier
    /// metrics and histograms, Chrome trace spans, and/or live progress
    /// reporting. The default (all off)
    /// keeps the run bit-identical to an uninstrumented one; the merged
    /// shard is returned in the outcome's
    /// [`result.telemetry`](MiningResult::telemetry).
    #[must_use]
    pub fn telemetry(mut self, options: TelemetryOptions) -> Self {
        self.control.telemetry = options;
        self
    }

    /// Attaches a cancellation handle. Keep a clone of the token; calling
    /// [`CancelToken::cancel`] from any thread stops the job at its next
    /// start-vertex boundary with exact partial counts.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.control.cancel = Some(token);
        self
    }

    /// Compiles and returns the execution plan for inspection (the IR that
    /// would be loaded into the hardware; printable in Listing-1 style).
    ///
    /// # Errors
    ///
    /// Same validation as [`run`](Self::run).
    pub fn plan(&self) -> Result<ExecutionPlan, MineError> {
        self.validate()?;
        // Single-pattern jobs go through `compile`, so cliques get the
        // orientation special case (§V-C).
        if self.patterns.len() == 1 {
            Ok(fm_plan::compile(&self.patterns[0], self.options))
        } else {
            Ok(compile_multi(&self.patterns, self.options))
        }
    }

    fn validate(&self) -> Result<(), MineError> {
        if self.patterns.is_empty() {
            return Err(MineError::NoPatterns);
        }
        if self.options.induced && self.patterns.len() > 1 {
            let k = self.patterns[0].size();
            if self.patterns.iter().any(|p| p.size() != k) {
                return Err(MineError::MixedInducedSizes);
            }
        }
        Ok(())
    }

    /// Runs the job.
    ///
    /// A run stopped early by a deadline, budget, cancellation, or an
    /// isolated task panic still returns `Ok`: the outcome's
    /// [`result.status`](MiningResult::status) reports how it ended and
    /// the counts are exact over
    /// [`result.completed`](MiningResult::completed).
    ///
    /// # Errors
    ///
    /// Returns [`MineError::NoPatterns`] for an empty job,
    /// [`MineError::MixedInducedSizes`] for invalid induced jobs,
    /// [`MineError::Checkpoint`] for a resume snapshot that cannot be
    /// loaded or does not match, and [`MineError::PartialUnnormalizable`]
    /// when a partial non-symmetry run cannot be normalized into unique
    /// counts.
    pub fn run(&self) -> Result<MiningOutcome, MineError> {
        let plan = self.plan()?;
        let start = std::time::Instant::now();
        // Resume snapshots load here; cancellation, recovery and telemetry
        // then ride together through `mine_with` (the engine's
        // fully-general entry point — identical to `mine` when all are
        // off).
        let resume = self
            .resume
            .as_deref()
            .map(Checkpoint::load)
            .transpose()
            .map_err(MineError::Checkpoint)?;
        let opts = MineOptions { resume, ..self.control.clone() };
        let result = fm_engine::mine_with(self.graph, &plan, &self.config, opts)
            .map_err(MineError::Checkpoint)?;
        let elapsed = start.elapsed();
        let unique = result
            .try_unique_counts(&plan)
            .ok_or(MineError::PartialUnnormalizable { status: result.status })?;
        Ok(MiningOutcome { per_pattern: PatternCount::named(&plan, unique), result, elapsed })
    }

    /// Runs the job with a wall-clock deadline of `timeout` from *now*,
    /// anchored into the configuration's [`Budget`] at the call instead
    /// of at builder time. A deadline the configuration already holds
    /// stays if it is the earlier one.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_deadline(&self, timeout: Duration) -> Result<MiningOutcome, MineError> {
        let mut job = self.clone();
        let budget = &mut job.config.budget;
        budget.deadline = match (budget.deadline, Budget::with_timeout(timeout).deadline) {
            (Some(held), Some(now)) => Some(held.min(now)),
            (held, now) => held.or(now),
        };
        job.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::generators;
    use fm_sim::{simulate, SimConfig};

    #[test]
    fn empty_job_is_rejected() {
        let g = generators::complete(3);
        assert_eq!(Miner::new(&g).run().unwrap_err(), MineError::NoPatterns);
    }

    #[test]
    fn mixed_induced_sizes_are_rejected() {
        let g = generators::complete(4);
        let err = Miner::new(&g)
            .pattern(Pattern::triangle())
            .pattern(Pattern::k_clique(4))
            .induced(true)
            .run()
            .unwrap_err();
        assert_eq!(err, MineError::MixedInducedSizes);
        // Edge-induced multi-pattern jobs of mixed sizes are fine.
        assert!(Miner::new(&g)
            .pattern(Pattern::triangle())
            .pattern(Pattern::k_clique(4))
            .run()
            .is_ok());
    }

    #[test]
    fn backends_agree_and_report_their_extras() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 2);
        let job = Miner::new(&g).pattern(Pattern::diamond());
        let sw = job.run().unwrap();
        let hw = simulate(&g, &job.plan().unwrap(), &SimConfig::default());
        let par = job.clone().threads(4).run().unwrap();
        assert_eq!(sw.counts(), hw.counts);
        assert_eq!(sw.counts(), par.counts());
        assert!(sw.result.work.setop_invocations > 0);
        assert!(hw.cycles > 0 && hw.watchdog.is_none());
    }

    #[test]
    fn hub_index_preserves_counts_and_is_inert_on_accelerator() {
        let g = generators::attach_hubs(&generators::powerlaw_cluster(150, 4, 0.5, 8), 3, 90, 5);
        // The diamond intersects against v1's adjacency at every (v0, v1);
        // the joined 4-cycle dispatches no set op for a hub to serve.
        let job = Miner::new(&g).pattern(Pattern::diamond());
        let sw = |hub_memory_budget| {
            let cfg = EngineConfig { hub_memory_budget, ..EngineConfig::default() };
            job.clone().config(cfg).run().unwrap()
        };
        let (on, off) = (sw(1 << 22), sw(0));
        assert_eq!(on.counts(), off.counts());
        assert!(on.result.work.probe_dispatches > 0, "hubs of degree 90 must probe");
        assert_eq!(off.result.work.probe_dispatches, 0);
        // The accelerator has no probe port.
        let hw = simulate(&g, &job.plan().unwrap(), &SimConfig::default());
        assert_eq!(hw.counts, on.counts());
    }

    /// The outcome is the engine's result, unedited: a budget-stopped
    /// triangle and a complete 4-cycle read the same through `Miner::run`
    /// as through `mine_with` on the same configuration.
    #[test]
    fn the_facade_drops_nothing() {
        let g = generators::powerlaw_cluster(200, 4, 0.5, 3);
        let stopped = EngineConfig {
            budget: Budget::with_max_setop_iterations(300),
            ..EngineConfig::default()
        };
        for (pattern, cfg, status) in [
            (Pattern::triangle(), stopped, RunStatus::BudgetExhausted),
            (Pattern::cycle(4), EngineConfig::default(), RunStatus::Complete),
        ] {
            // `threads` keeps the rest of the configuration, budget too.
            let job = Miner::new(&g).pattern(pattern).config(cfg).threads(1);
            let outcome = job.run().unwrap();
            let plan = job.plan().unwrap();
            let engine = fm_engine::mine_with(&g, &plan, &cfg, MineOptions::default()).unwrap();
            let (got, want) = (&outcome.result, &engine);
            assert_eq!(got.status, status);
            assert_eq!(got.counts, want.counts);
            assert_eq!(got.work, want.work);
            assert_eq!(got.status, want.status);
            assert_eq!(got.completed, want.completed);
            assert_eq!(got.faults, want.faults);
            assert_eq!(got.quarantined, want.quarantined);
            assert_eq!(Some(outcome.counts()), want.try_unique_counts(&plan));
        }
    }

    #[test]
    fn symmetry_toggle_preserves_unique_counts() {
        let g = generators::erdos_renyi(50, 0.2, 9);
        let with = Miner::new(&g).pattern(Pattern::triangle()).run().unwrap();
        let without = Miner::new(&g).pattern(Pattern::triangle()).symmetry(false).run().unwrap();
        assert_eq!(with.counts(), without.counts());
    }

    #[test]
    fn plan_is_inspectable() {
        let g = generators::complete(4);
        let plan = Miner::new(&g).pattern(Pattern::cycle(4)).plan().unwrap();
        let text = plan.to_string();
        assert!(text.contains("pruneBy"));
    }

    #[test]
    fn outcome_accessors() {
        let g = generators::complete(5);
        let job = Miner::new(&g).pattern(Pattern::triangle());
        let outcome = job.run().unwrap();
        assert_eq!(outcome.count(), 10);
        assert_eq!(outcome.per_pattern[0].name, "triangle");
        assert_eq!(outcome.counts(), vec![10]);
        assert!(outcome.result.status.is_complete());
        assert_eq!(outcome.result.status, RunStatus::Complete);
        assert!(outcome.result.faults.is_empty());
        assert!(outcome.result.completed.is_empty());
        // The accelerator's report names nothing: the plan does.
        let plan = job.plan().unwrap();
        let report = simulate(&g, &plan, &SimConfig::default());
        assert_eq!(PatternCount::named(&plan, report.counts), outcome.per_pattern);
    }

    #[test]
    fn zero_deadline_reports_deadline_exceeded() {
        let g = generators::powerlaw_cluster(200, 4, 0.5, 6);
        let full = Miner::new(&g).pattern(Pattern::triangle()).run().unwrap();
        for threads in [1, 4] {
            let partial = Miner::new(&g)
                .pattern(Pattern::triangle())
                .threads(threads)
                .run_with_deadline(Duration::ZERO)
                .unwrap();
            assert_eq!(partial.result.status, RunStatus::DeadlineExceeded);
            assert!(!partial.result.status.is_complete());
            assert!(partial.count() <= full.count());
        }
    }

    /// `run_with_deadline` keeps whichever deadline comes first: its own or
    /// the one the configuration already holds.
    #[test]
    fn the_earlier_deadline_holds() {
        let g = generators::powerlaw_cluster(200, 4, 0.5, 6);
        let job = Miner::new(&g).pattern(Pattern::triangle());
        let (now, later) = (Duration::ZERO, Duration::from_secs(600));
        let run = |held, timeout| {
            let cfg =
                EngineConfig { budget: Budget::with_timeout(held), ..EngineConfig::default() };
            job.clone().config(cfg).run_with_deadline(timeout).unwrap().result.status
        };
        assert_eq!(run(now, later), RunStatus::DeadlineExceeded);
        assert_eq!(run(later, now), RunStatus::DeadlineExceeded);
        assert_eq!(run(later, later), RunStatus::Complete);
    }

    #[test]
    fn cancelled_token_stops_the_job() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 4);
        let token = fm_engine::CancelToken::new();
        token.cancel();
        let outcome =
            Miner::new(&g).pattern(Pattern::triangle()).cancel_token(token).run().unwrap();
        assert_eq!(outcome.result.status, RunStatus::Cancelled);
        assert_eq!(outcome.count(), 0);
        assert!(outcome.result.completed.is_empty());
    }
}
