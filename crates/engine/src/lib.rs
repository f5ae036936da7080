//! # fm-engine
//!
//! Software GPM engines for the FlexMiner (ISCA 2021) reproduction — the
//! CPU baselines the paper compares against, all driven by the same
//! [`fm_plan::ExecutionPlan`] IR that configures the hardware simulator.
//!
//! Engines provided:
//!
//! * **GraphZero model** — plan with symmetry breaking + frontier-list
//!   memoization, merge-based set intersection/difference ([`setops`]),
//!   a DFS loop over a frame stack ([`executor`]), one task per start
//!   vertex handed to whichever worker is idle ([`stream`], driven by a
//!   thread pool in [`parallel`]). This is the paper's CPU baseline
//!   (§VII-A).
//! * **AutoMine model** — the same executor on a plan compiled without
//!   symmetry bounds ([`fm_plan::CompileOptions::automine`]); each
//!   embedding is found |Aut(P)| times, modelling AutoMine's larger search
//!   space.
//! * **Pattern-oblivious model** ([`oblivious`]) — ESU-style enumeration of
//!   all connected k-subgraphs plus explicit isomorphism tests, the search
//!   strategy of Gramer \[90\] (§III).
//!
//! There is one candidate generator: the plan's frontier-memoization hints
//! are always honored, and connectivity is answered by set operations — a
//! scalar merge, galloping, or a probe of the hub bitmaps, the engine's one
//! auxiliary index. The c-map of §VI is the accelerator's; its functional
//! store lives in `fm-sim`.
//!
//! All engines report [`WorkCounters`] (set-operation iterations,
//! comparisons, dispatch tiers) used by the motivation study (Fig. 7 and
//! the branch-misprediction discussion of §III).
//!
//! # Examples
//!
//! ```
//! use fm_engine::{mine, EngineConfig};
//! use fm_graph::generators;
//! use fm_pattern::Pattern;
//! use fm_plan::{compile, CompileOptions};
//!
//! let g = generators::complete(5);
//! let plan = compile(&Pattern::triangle(), CompileOptions::default());
//! let result = mine(&g, &plan, &EngineConfig::default());
//! assert_eq!(result.counts, vec![10]); // C(5,3) triangles in K5
//! ```

pub mod checkpoint;
pub mod control;
pub mod executor;
#[cfg(any(test, feature = "failpoints"))]
pub mod failpoint;
pub mod oblivious;
pub mod parallel;
pub mod result;
pub mod setops;
pub mod stream;
pub mod telemetry;

/// Reports a named failpoint hit in instrumented builds (`cfg(test)` or
/// the `failpoints` feature); expands to nothing that runs otherwise, so
/// release hot paths carry no trace of the harness.
macro_rules! fail_point {
    ($cfg:expr, $site:expr, $ctx:expr) => {
        #[cfg(any(test, feature = "failpoints"))]
        crate::failpoint::hit($cfg.failpoint_scope, $site, $ctx);
        // A function that takes the config for its sites alone still uses it.
        #[cfg(not(any(test, feature = "failpoints")))]
        let _ = &$cfg;
    };
}
pub(crate) use fail_point;

pub use checkpoint::{
    config_fingerprint, plan_fingerprint, Checkpoint, CheckpointConfig, CheckpointError,
    CompletedSet, GraphFingerprint,
};
pub use control::{Budget, CancelToken};
pub use executor::{count_program, prepare, Executor, PreparedGraph};
pub use parallel::{mine, mine_prepared, mine_prepared_observed, mine_with, MineOptions};
pub use result::{Fault, MiningResult, RunStatus, Straggler, WorkCounters};
pub use stream::{JobCore, Stint};
pub use telemetry::{ProgressOptions, TelemetryOptions};

/// Configuration of the software mining engines.
///
/// # Supported knob matrix
///
/// This is the single normative statement of how the mode knobs compose:
///
/// | knob                | default | `paper_faithful()` | composition |
/// |---------------------|---------|--------------------|-------------|
/// | `gallop_ratio`      | 16      | ignored            | any value; `0` is the documented sentinel that disables galloping entirely (every skew dispatches merge) — tests rely on it to force specific tiers |
/// | `hub_memory_budget` | 8 MiB   | ignored (no probes)| `0` is the one off switch of the hub index; otherwise [`PreparedGraph`] builds it only for a program that dispatches a set op, and drops it when no vertex reaches `hub_degree_threshold` within the budget |
/// | `max_retries`       | 0       | same               | count-irrelevant (a retried task contributes exactly once); excluded from the checkpoint config fingerprint, so a resume may change it |
///
/// `paper_faithful` pins candidate generation to unbounded merges and
/// ignores `gallop_ratio` and the hub knobs entirely (no dispatcher runs,
/// so the dispatch counters stay zero), keeping its work counters
/// bit-identical to the recorded figure artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EngineConfig {
    /// Worker threads (1 = run on the calling thread).
    pub threads: usize,
    /// Reproduce the paper's exact work-counter semantics: full unbounded
    /// SIU/SDU merges for `Extend`/`ExtendDiff`/merge-pipeline candidate
    /// generation (the merge FSM of Fig. 9 has no bound port) and no
    /// galloping. The simulator cross-checks and the Fig. 7/13 binaries
    /// run in this mode so recorded artifacts stay comparable; the default
    /// mode pushes symmetry bounds into candidate generation and may
    /// dispatch to galloping, producing identical counts with less set-op
    /// work.
    pub paper_faithful: bool,
    /// Adaptive set-intersection dispatch: switch from the merge kernel to
    /// galloping (binary search) when `|small| * gallop_ratio <= |large|`.
    /// `0` disables galloping; ignored under
    /// [`paper_faithful`](Self::paper_faithful).
    pub gallop_ratio: usize,
    /// Minimum degree for a vertex to be indexed as a hub. See
    /// [`fm_graph::HubBitmaps::build`] for the selection policy.
    pub hub_degree_threshold: usize,
    /// Hard cap, in bytes, on the footprint (rows plus the per-vertex row
    /// map) of the hub-bitmap index the adaptive dispatcher probes as its
    /// third tier after merge and galloping. The index silently shrinks —
    /// possibly to empty — rather than failing when the budget is tight;
    /// `0` turns it off. Ignored under
    /// [`paper_faithful`](Self::paper_faithful): the Fig. 9 merge FSM has
    /// no probe port.
    pub hub_memory_budget: usize,
    /// Wall-clock deadline and set-op iteration cap for the run, polled
    /// between and inside tasks. Unlimited by default; see
    /// [`Budget`] and [`MiningResult::status`](result::MiningResult::status)
    /// for the partial-result semantics when a limit fires.
    pub budget: Budget,
    /// How many times a faulted start-vertex task is retried (in the same
    /// worker, immediately) before being quarantined. `0` — the default —
    /// quarantines on the first fault, preserving the PR 2 semantics.
    /// [`RunStatus::Degraded`] now means "non-empty quarantine after
    /// retries": a task that faults but succeeds on a retry does *not*
    /// degrade the run (the fault is still recorded in
    /// [`MiningResult::faults`](result::MiningResult::faults)).
    pub max_retries: u32,
    /// Test plumbing, absent from default builds: the fault-injection
    /// scope this run belongs to (see [`failpoint::guard`]). `0` — the
    /// default — is never armed. Excluded from the checkpoint config
    /// fingerprint, so a faulted run resumes under a healthy config.
    #[cfg(any(test, feature = "failpoints"))]
    pub failpoint_scope: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            paper_faithful: false,
            gallop_ratio: 16,
            // The dispatcher only probes rows at least as long as the
            // streamed side, so the threshold bounds index size rather
            // than gating profitability: 32 ≈ the smallest row whose
            // merge savings outweigh its bitset's cache residency on our
            // generated inputs. Rows are admitted in descending degree,
            // so a small index keeps the rows probes hit: measured on
            // the benchmark's 100 k-vertex power-law graph 8 MiB is as
            // fast as any smaller index and 51 MB of resident memory
            // lighter than 64 MiB, and it holds every row of the
            // 6 k-vertex Mi stand-in (EXPERIMENTS.md "ISSUE 19").
            hub_degree_threshold: 32,
            hub_memory_budget: 8 << 20,
            budget: Budget::unlimited(),
            max_retries: 0,
            #[cfg(any(test, feature = "failpoints"))]
            failpoint_scope: 0,
        }
    }
}

impl EngineConfig {
    /// Convenience: the default configuration with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig { threads, ..Self::default() }
    }

    /// The configuration reproducing the paper's work-counter semantics
    /// (see [`paper_faithful`](Self::paper_faithful)).
    pub fn paper_faithful() -> Self {
        EngineConfig { paper_faithful: true, ..Self::default() }
    }
}
