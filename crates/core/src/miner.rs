//! The mining job builder.

use fm_engine::{
    Budget, CancelToken, Checkpoint, CheckpointConfig, CheckpointError, EngineConfig, Fault,
    MineOptions, MiningResult, RunStatus, Straggler, TelemetryOptions, WorkCounters,
};
use fm_graph::CsrGraph;
use fm_pattern::Pattern;
use fm_plan::{compile_multi, CompileOptions, ExecutionPlan};
use fm_sim::{simulate, SimConfig, SimReport, WatchdogDump};
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Combines two budgets: each limit is the tighter of the pair.
fn merge_budgets(a: Budget, b: Budget) -> Budget {
    fn tighter<T: Ord>(x: Option<T>, y: Option<T>) -> Option<T> {
        match (x, y) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }
    Budget {
        deadline: tighter(a.deadline, b.deadline),
        max_setop_iterations: tighter(a.max_setop_iterations, b.max_setop_iterations),
    }
}

/// Where a mining job executes.
#[derive(Clone, PartialEq, Debug)]
pub enum Backend {
    /// The plan-driven software engine (the paper's GraphZero-model CPU
    /// baseline) with the given configuration.
    Software(EngineConfig),
    /// The cycle-level FlexMiner accelerator simulator.
    Accelerator(SimConfig),
}

impl Backend {
    /// Software engine with `threads` worker threads.
    pub fn software(threads: usize) -> Backend {
        Backend::Software(EngineConfig::with_threads(threads))
    }

    /// Accelerator simulator with the paper's default configuration
    /// (20 PEs, 8 kB c-map, 32 kB private caches, 4 MB shared cache).
    pub fn accelerator() -> Backend {
        Backend::Accelerator(SimConfig::default())
    }
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Software(EngineConfig::default())
    }
}

/// Error from assembling or running a mining job.
#[derive(Debug, PartialEq, Eq)]
pub enum MineError {
    /// No pattern was supplied.
    NoPatterns,
    /// Vertex-induced multi-pattern jobs need patterns of one size
    /// (k-motif counting); mixed sizes are ambiguous.
    MixedInducedSizes,
    /// A deadline, budget, cancel token, checkpoint path, or resume
    /// snapshot was supplied for the accelerator backend, whose only
    /// supported control is the watchdog cycle cap
    /// ([`SimConfig::watchdog_cycles`]).
    ControlUnsupported,
    /// The accelerator watchdog tripped before the simulation drained;
    /// per-PE FSM state is attached for diagnosis.
    WatchdogTripped(Box<WatchdogDump>),
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
            MineError::ControlUnsupported => {
                write!(
                    f,
                    "the accelerator backend does not support deadlines, budgets, \
                     cancellation, or checkpoint/resume; use the watchdog cycle cap instead"
                )
            }
            MineError::WatchdogTripped(dump) => {
                write!(
                    f,
                    "accelerator watchdog tripped at {} cycles with {} PE(s) still working",
                    dump.cap,
                    dump.stuck_pes().count()
                )
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

/// The result of a mining job.
#[derive(Clone, Debug)]
pub struct MiningOutcome {
    per_pattern: Vec<PatternCount>,
    work: Option<WorkCounters>,
    sim: Option<SimReport>,
    elapsed: Duration,
    status: RunStatus,
    completed: Vec<u32>,
    faults: Vec<Fault>,
    quarantined: Vec<Fault>,
    stragglers: Vec<Straggler>,
    checkpoint_error: Option<String>,
    checkpoint_failures: u64,
    telemetry: Option<Box<fm_telemetry::TelemetryShard>>,
}

impl MiningOutcome {
    /// How the run ended. Anything but [`RunStatus::Complete`] means the
    /// counts are exact over a subset of start vertices only.
    pub fn status(&self) -> RunStatus {
        self.status
    }

    /// Whether every start vertex was mined without faults.
    pub fn is_complete(&self) -> bool {
        self.status.is_complete()
    }

    /// Start vertices whose subtrees completed, ascending. Empty on a
    /// fault-free complete run (meaning: all of them).
    pub fn completed_start_vertices(&self) -> &[u32] {
        &self.completed
    }

    /// Every isolated task panic, one record per attempt (software backend
    /// only). Non-empty on a *complete* run only when a transient fault
    /// healed on a retry (see [`EngineConfig::max_retries`]).
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Start vertices abandoned after exhausting the retry budget
    /// (software backend only). Non-empty iff the run is
    /// [`RunStatus::Degraded`] (or a harsher stop masked it).
    pub fn quarantined(&self) -> &[Fault] {
        &self.quarantined
    }

    /// Tasks that ran far slower than the run's median task — the
    /// load-imbalance observability report (software backend only; see
    /// [`fm_engine::Straggler`]).
    pub fn stragglers(&self) -> &[Straggler] {
        &self.stragglers
    }

    /// Last periodic checkpoint-write failure, if any. Mining never stops
    /// because durability did, but a resume may replay more work than the
    /// configured interval promised.
    pub fn checkpoint_error(&self) -> Option<&str> {
        self.checkpoint_error.as_deref()
    }

    /// Total checkpoint-write attempts that failed over the run, counting
    /// every retry of the capped-backoff write path — non-zero even when
    /// a later retry succeeded and [`checkpoint_error`](Self::checkpoint_error)
    /// is clear.
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures
    }

    /// Unique embedding counts, in pattern order.
    pub fn counts(&self) -> Vec<u64> {
        self.per_pattern.iter().map(|p| p.count).collect()
    }

    /// Count of the first (or only) pattern.
    pub fn count(&self) -> u64 {
        self.per_pattern.first().map_or(0, |p| p.count)
    }

    /// Per-pattern names and counts.
    pub fn per_pattern(&self) -> &[PatternCount] {
        &self.per_pattern
    }

    /// Software work counters (software backend only).
    pub fn work(&self) -> Option<&WorkCounters> {
        self.work.as_ref()
    }

    /// The accelerator simulation report (accelerator backend only).
    pub fn sim_report(&self) -> Option<&SimReport> {
        self.sim.as_ref()
    }

    /// The merged telemetry shard (software backend with
    /// [`Miner::telemetry`] enabled only): depth-resolved work metrics,
    /// task/frontier histograms, and trace spans.
    pub fn telemetry(&self) -> Option<&fm_telemetry::TelemetryShard> {
        self.telemetry.as_deref()
    }

    /// Host wall-clock time of the run. For the software backend this is
    /// the baseline measurement the paper compares against; for the
    /// accelerator backend prefer
    /// [`SimReport::seconds`](fm_sim::SimReport::seconds) (simulated time).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

/// Builder for mining jobs.
///
/// # Examples
///
/// 3-motif counting on the accelerator:
///
/// ```
/// use flexminer::{Backend, Miner};
/// use fm_graph::generators;
/// use fm_pattern::motifs;
///
/// let g = generators::erdos_renyi(60, 0.15, 3);
/// let outcome = Miner::new(&g)
///     .patterns(motifs::motifs(3))
///     .induced(true)
///     .backend(Backend::accelerator())
///     .run()?;
/// assert_eq!(outcome.per_pattern().len(), 2); // wedge + triangle
/// # Ok::<(), flexminer::MineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Miner<'g> {
    graph: &'g CsrGraph,
    patterns: Vec<Pattern>,
    options: CompileOptions,
    backend: Backend,
    budget: Budget,
    cancel: Option<CancelToken>,
    checkpoint: Option<CheckpointConfig>,
    resume: Option<PathBuf>,
    telemetry: TelemetryOptions,
}

impl<'g> Miner<'g> {
    /// Starts a mining job on `graph` (software backend, one thread,
    /// edge-induced, symmetry breaking on, unlimited budget).
    pub fn new(graph: &'g CsrGraph) -> Miner<'g> {
        Miner {
            graph,
            patterns: Vec::new(),
            options: CompileOptions::default(),
            backend: Backend::default(),
            budget: Budget::unlimited(),
            cancel: None,
            checkpoint: None,
            resume: None,
            telemetry: TelemetryOptions::default(),
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

    /// Selects the execution backend.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the software backend's worker threads, keeping the rest of
    /// its configuration. No-op for the accelerator backend, whose
    /// parallelism is [`SimConfig::num_pes`].
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        if let Backend::Software(cfg) = &mut self.backend {
            cfg.threads = n;
        }
        self
    }

    /// Writes periodic durable [`Checkpoint`](fm_engine::Checkpoint)
    /// snapshots to `path` (software backend only; the accelerator backend
    /// rejects it with [`MineError::ControlUnsupported`]). The default
    /// cadence — every 256 completed start-vertex tasks or 10 seconds,
    /// whichever fires first — can be changed with
    /// [`checkpoint_interval`](Self::checkpoint_interval). Snapshots are
    /// written atomically (temp file + fsync + rename), so an interrupted
    /// job can always [`resume_from`](Self::resume_from) the last one.
    #[must_use]
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(CheckpointConfig::new(path));
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
        if let Some(ckpt) = &mut self.checkpoint {
            ckpt.every_tasks = every_tasks.unwrap_or(0);
            ckpt.every_wall = every_wall;
        }
        self
    }

    /// Resumes from the checkpoint file at `path` (software backend only):
    /// already-completed start vertices are skipped and their contribution
    /// seeded from the snapshot, so the final counts are bit-identical to
    /// an uninterrupted run. The snapshot must record the same graph,
    /// plan, and count-relevant engine knobs — a mismatch fails with
    /// [`MineError::Checkpoint`], never a wrong count. Combine with
    /// [`checkpoint_to`](Self::checkpoint_to) (typically the same path) so
    /// the resumed run keeps checkpointing.
    #[must_use]
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Enables telemetry collection on the software backend (see
    /// [`TelemetryOptions`]): depth/tier metrics and histograms, Chrome
    /// trace spans, and/or live progress reporting. The default (all off)
    /// keeps the run bit-identical to an uninstrumented one; the merged
    /// shard is returned via [`MiningOutcome::telemetry`]. No-op for the
    /// accelerator backend, whose observability lives in
    /// [`SimReport`] (set [`SimConfig::timeline_every`] for timelines).
    #[must_use]
    pub fn telemetry(mut self, options: TelemetryOptions) -> Self {
        self.telemetry = options;
        self
    }

    /// Applies a resource [`Budget`] (software backend only). Limits
    /// combine with any already set — each takes the tighter value — so a
    /// budget on the job and one on the `EngineConfig` both hold.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = merge_budgets(self.budget, budget);
        self
    }

    /// Attaches a cancellation handle (software backend only). Keep a
    /// clone of the token; calling [`CancelToken::cancel`] from any thread
    /// stops the job at its next start-vertex boundary with exact partial
    /// counts.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
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
    /// [`status`](MiningOutcome::status) reports how it ended and the
    /// counts are exact over
    /// [`completed_start_vertices`](MiningOutcome::completed_start_vertices).
    ///
    /// # Errors
    ///
    /// Returns [`MineError::NoPatterns`] for an empty job,
    /// [`MineError::MixedInducedSizes`] for invalid induced jobs,
    /// [`MineError::ControlUnsupported`] when a budget or cancel token is
    /// combined with the accelerator backend,
    /// [`MineError::WatchdogTripped`] when the accelerator watchdog fires,
    /// and [`MineError::PartialUnnormalizable`] when a partial
    /// non-symmetry run cannot be normalized into unique counts.
    pub fn run(&self) -> Result<MiningOutcome, MineError> {
        let plan = self.plan()?;
        let start = std::time::Instant::now();
        let (result, work, sim): (MiningResult, Option<WorkCounters>, Option<SimReport>) =
            match &self.backend {
                Backend::Software(cfg) => {
                    let mut cfg = *cfg;
                    cfg.budget = merge_budgets(cfg.budget, self.budget);
                    // One funnel for every software job: resume snapshots
                    // load here, then cancellation, recovery and telemetry
                    // ride together through `mine_with` (the engine's
                    // fully-general entry point — identical to `mine` when
                    // all are off).
                    let resume = self
                        .resume
                        .as_deref()
                        .map(Checkpoint::load)
                        .transpose()
                        .map_err(MineError::Checkpoint)?;
                    let opts = MineOptions {
                        cancel: self.cancel.clone(),
                        checkpoint: self.checkpoint.clone(),
                        resume,
                        telemetry: self.telemetry.clone(),
                    };
                    let result = fm_engine::mine_with(self.graph, &plan, &cfg, opts)
                        .map_err(MineError::Checkpoint)?;
                    let work = result.work;
                    (result, Some(work), None)
                }
                Backend::Accelerator(cfg) => {
                    if self.budget.is_limited()
                        || self.cancel.is_some()
                        || self.checkpoint.is_some()
                        || self.resume.is_some()
                    {
                        return Err(MineError::ControlUnsupported);
                    }
                    let report = simulate(self.graph, &plan, cfg);
                    if let Some(dump) = &report.watchdog {
                        return Err(MineError::WatchdogTripped(Box::new(dump.clone())));
                    }
                    let result =
                        MiningResult { counts: report.counts.clone(), ..Default::default() };
                    (result, None, Some(report))
                }
            };
        let elapsed = start.elapsed();
        let raw = result
            .try_unique_counts(&plan)
            .ok_or(MineError::PartialUnnormalizable { status: result.status })?;
        let per_pattern = plan
            .patterns
            .iter()
            .zip(raw)
            .map(|(meta, count)| PatternCount { name: meta.name.clone(), count })
            .collect();
        Ok(MiningOutcome {
            per_pattern,
            work,
            sim,
            elapsed,
            status: result.status,
            completed: result.completed,
            faults: result.faults,
            quarantined: result.quarantined,
            stragglers: result.stragglers,
            checkpoint_error: result.checkpoint_error,
            checkpoint_failures: result.checkpoint_failures,
            telemetry: result.telemetry,
        })
    }

    /// Runs the job with a wall-clock deadline of `timeout` from *now*.
    ///
    /// Equivalent to `self.clone().budget(Budget::with_timeout(timeout)).run()`,
    /// with the deadline anchored at the call instead of at builder time.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_deadline(&self, timeout: Duration) -> Result<MiningOutcome, MineError> {
        let mut job = self.clone();
        job.budget = merge_budgets(job.budget, Budget::with_timeout(timeout));
        job.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::generators;

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
        let sw = job.clone().run().unwrap();
        let hw = job.clone().backend(Backend::accelerator()).run().unwrap();
        let par = job.clone().threads(4).run().unwrap();
        assert_eq!(sw.counts(), hw.counts());
        assert_eq!(sw.counts(), par.counts());
        assert!(sw.work().is_some() && sw.sim_report().is_none());
        assert!(hw.work().is_none() && hw.sim_report().is_some());
    }

    #[test]
    fn hub_index_preserves_counts_and_is_inert_on_accelerator() {
        let g = generators::attach_hubs(&generators::powerlaw_cluster(150, 4, 0.5, 8), 3, 90, 5);
        // The diamond intersects against v1's adjacency at every (v0, v1);
        // the joined 4-cycle dispatches no set op for a hub to serve.
        let job = Miner::new(&g).pattern(Pattern::diamond());
        let sw = |hub_memory_budget| {
            let cfg = EngineConfig { hub_memory_budget, ..EngineConfig::default() };
            job.clone().backend(Backend::Software(cfg)).run().unwrap()
        };
        let (on, off) = (sw(1 << 22), sw(0));
        assert_eq!(on.counts(), off.counts());
        assert!(on.work().unwrap().probe_dispatches > 0, "hubs of degree 90 must probe");
        assert_eq!(off.work().unwrap().probe_dispatches, 0);
        // The accelerator backend has no probe port.
        let hw = job.backend(Backend::accelerator()).run().unwrap();
        assert_eq!(hw.counts(), on.counts());
    }

    #[test]
    fn threads_keeps_the_backend_it_is_given() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 2);
        let job = Miner::new(&g).pattern(Pattern::triangle());
        let hw = job.clone().backend(Backend::accelerator()).threads(2).run().unwrap();
        assert!(hw.sim_report().is_some(), "threads must not swap in the software engine");
        let budget = Budget::with_max_setop_iterations(1);
        let cfg = EngineConfig { budget, ..EngineConfig::default() };
        let sw = job.backend(Backend::Software(cfg)).threads(2).run().unwrap();
        assert_eq!(sw.status(), fm_engine::RunStatus::BudgetExhausted);
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
        let outcome = Miner::new(&g).pattern(Pattern::triangle()).run().unwrap();
        assert_eq!(outcome.count(), 10);
        assert_eq!(outcome.per_pattern()[0].name, "triangle");
        assert_eq!(outcome.counts(), vec![10]);
        assert!(outcome.is_complete());
        assert_eq!(outcome.status(), fm_engine::RunStatus::Complete);
        assert!(outcome.faults().is_empty());
        assert!(outcome.completed_start_vertices().is_empty());
    }

    #[test]
    fn merged_budgets_take_the_tighter_limit() {
        let a = Budget::with_max_setop_iterations(100);
        let b = Budget::with_max_setop_iterations(7);
        assert_eq!(merge_budgets(a, b).max_setop_iterations, Some(7));
        assert_eq!(merge_budgets(b, Budget::unlimited()).max_setop_iterations, Some(7));
        let t = Budget::with_timeout(Duration::from_secs(1));
        let merged = merge_budgets(t, b);
        assert_eq!(merged.deadline, t.deadline);
        assert_eq!(merged.max_setop_iterations, Some(7));
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
            assert_eq!(partial.status(), fm_engine::RunStatus::DeadlineExceeded);
            assert!(!partial.is_complete());
            assert!(partial.count() <= full.count());
        }
    }

    #[test]
    fn cancelled_token_stops_the_job() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 4);
        let token = fm_engine::CancelToken::new();
        token.cancel();
        let outcome =
            Miner::new(&g).pattern(Pattern::triangle()).cancel_token(token).run().unwrap();
        assert_eq!(outcome.status(), fm_engine::RunStatus::Cancelled);
        assert_eq!(outcome.count(), 0);
        assert!(outcome.completed_start_vertices().is_empty());
    }

    #[test]
    fn accelerator_rejects_software_job_control() {
        let g = generators::complete(4);
        let job = Miner::new(&g)
            .pattern(Pattern::triangle())
            .backend(Backend::accelerator())
            .budget(Budget::with_timeout(Duration::from_secs(60)));
        assert_eq!(job.run().unwrap_err(), MineError::ControlUnsupported);
        let token = fm_engine::CancelToken::new();
        let job = Miner::new(&g)
            .pattern(Pattern::triangle())
            .backend(Backend::accelerator())
            .cancel_token(token);
        assert_eq!(job.run().unwrap_err(), MineError::ControlUnsupported);
    }

    #[test]
    fn accelerator_watchdog_trip_is_a_structured_error() {
        let g = generators::powerlaw_cluster(300, 5, 0.5, 17);
        let cfg = fm_sim::SimConfig { watchdog_cycles: 1, num_pes: 1, ..Default::default() };
        let err = Miner::new(&g)
            .pattern(Pattern::k_clique(4))
            .backend(Backend::Accelerator(cfg))
            .run()
            .unwrap_err();
        match err {
            MineError::WatchdogTripped(dump) => {
                assert_eq!(dump.cap, 1);
                assert!(dump.stuck_pes().count() > 0);
            }
            other => panic!("expected WatchdogTripped, got {other:?}"),
        }
    }
}
