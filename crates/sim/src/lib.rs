//! # fm-sim
//!
//! Cycle-level simulator of the FlexMiner accelerator (ISCA 2021).
//!
//! The simulated machine follows Fig. 8 of the paper: a scheduler hands
//! start-vertex tasks to a pool of processing elements (PEs); each PE is an
//! iterative DFS state machine (Fig. 10) with
//!
//! * a **pruner** that streams candidate vertices, checks symmetry-order
//!   vid bounds, and resolves connectivity constraints through the c-map;
//! * a banked linear-probing **c-map** scratchpad (§VI) with bulk
//!   stack-disciplined insert/invalidate, compiler-directed insertion
//!   filters, dynamic occupancy estimation and an SIU/SDU fallback on
//!   overflow;
//! * specialized **SIU/SDU** set intersection/difference units costing one
//!   merge-loop iteration per cycle (Fig. 9);
//! * a private cache holding edge-list data and memoized **frontier
//!   lists**, spilling to the shared cache on eviction;
//! * a **reducer** accumulating per-pattern match counts.
//!
//! The memory system is a shared, banked, non-inclusive L2 behind a NoC
//! (hop latency + serialization + per-request traffic counters — our
//! BookSim substitute) and a multi-channel DDR4 model with per-bank row
//! buffers (our DRAMsim3 substitute). See `DESIGN.md` §4 for the
//! substitution rationale.
//!
//! Timing fidelity: PEs execute micro-actions with exact cycle costs
//! (1 candidate/cycle pruning, 1 merge-iteration/cycle SIU, banked c-map
//! probe costs, cache/NoC/DRAM latencies with queueing); PEs are advanced
//! in bounded epochs, so cross-PE contention is resolved with at most one
//! epoch of skew. Functional results are bit-identical to the software
//! engines — asserted by the cross-engine test suite.
//!
//! # Examples
//!
//! ```
//! use fm_graph::generators;
//! use fm_pattern::Pattern;
//! use fm_plan::{compile, CompileOptions};
//! use fm_sim::{simulate, SimConfig};
//!
//! let g = generators::complete(6);
//! let plan = compile(&Pattern::triangle(), CompileOptions::default());
//! let report = simulate(&g, &plan, &SimConfig::default());
//! assert_eq!(report.counts, vec![20]); // C(6,3)
//! assert!(report.cycles > 0);
//! ```

pub mod addr;
pub mod cache;
pub mod cmap;
pub mod config;
pub mod dram;
pub mod energy;
pub mod machine;
pub mod mem;
pub mod pe;
pub mod queue;
pub mod stats;

pub use config::SimConfig;
pub use energy::EnergyBreakdown;
pub use machine::simulate;
pub use stats::{PeFsmState, SimReport, TimelineSample, WatchdogDump, FSM_STATE_NAMES};
