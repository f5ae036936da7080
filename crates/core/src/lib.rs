//! # flexminer
//!
//! The public facade of the FlexMiner (ISCA 2021) reproduction: one
//! builder-style API over the whole software/hardware co-designed system.
//!
//! FlexMiner's promise is that the user "only needs to specify the
//! pattern(s) of interest, same as state-of-the-art software GPM
//! frameworks" (§I). Accordingly, a mining job here is: a data graph, one
//! or more patterns and an induced/edge-induced mode, compiled into one
//! [`ExecutionPlan`]. That plan configures both engines: [`Miner`] runs it
//! on the multithreaded software engine (the GraphZero-model CPU
//! baseline), and [`fm_sim::simulate`] on the cycle-level accelerator
//! simulator. Everything else (pattern analysis, matching/symmetry
//! orders, execution-plan compilation, c-map hints, k-clique orientation)
//! happens automatically.
//!
//! ```text
//! pattern(s) ──► fm-pattern analysis ──► fm-plan compiler ──► ExecutionPlan
//!                                                               │
//!                     ┌─────────────────────────────────────────┤
//!                     ▼                                         ▼
//!        fm-engine (software CPU baseline)        fm-sim (FlexMiner accelerator)
//! ```
//!
//! # Examples
//!
//! Count triangles with the software engine and on the simulated
//! accelerator, from the same plan, and check they agree:
//!
//! ```
//! use flexminer::{Miner, Pattern, SimConfig};
//! use fm_graph::generators;
//!
//! let g = generators::powerlaw_cluster(200, 4, 0.5, 1);
//! let job = Miner::new(&g).pattern(Pattern::triangle());
//! let sw = job.run()?;
//! let report = flexminer::sim::simulate(&g, &job.plan()?, &SimConfig::default());
//! assert_eq!(sw.counts(), report.counts);
//! assert!(report.cycles > 0);
//! # Ok::<(), flexminer::MineError>(())
//! ```
//!
//! Convenience entry points for the paper's four applications (TC, k-CL,
//! SL, k-MC) live in [`apps`].

pub mod apps;
pub mod graphspec;
pub mod miner;
pub mod report;
pub mod serve;

// Whole-subsystem re-exports, so downstream users need only the
// `flexminer` dependency: `flexminer::graph::generators`, etc.
pub use fm_engine as engine;
pub use fm_graph as graph;
pub use fm_jobs as jobs;
pub use fm_pattern as pattern;
pub use fm_plan as plan;
pub use fm_sim as sim;
pub use fm_telemetry as telemetry;

pub use fm_engine::{
    Budget, CancelToken, Checkpoint, CheckpointConfig, CheckpointError, EngineConfig, Fault,
    GraphFingerprint, ProgressOptions, RunStatus, Straggler, TelemetryOptions,
};
pub use fm_graph::{CsrGraph, GraphBuilder, GraphError, VertexId};
pub use fm_pattern::{motifs, Pattern, PatternError};
pub use fm_plan::{CompileOptions, ExecutionPlan};
pub use fm_sim::{PeFsmState, SimConfig, SimReport, TimelineSample, WatchdogDump, FSM_STATE_NAMES};
pub use miner::{MineError, Miner, MiningOutcome, PatternCount};
