//! # fm-jobs — preemptible multi-job supervision
//!
//! The engine's [`fm_engine::JobCore`] turns one mining run into a
//! preemptible stream of start-vertex stints; this crate schedules many
//! such cores over one worker pool:
//!
//! - **Admission control** ([`Supervisor::submit`]): a bounded job table;
//!   saturation sheds with an explicit [`JobOutcome::Rejected`] instead of
//!   unbounded queueing. Graph memory is not the supervisor's to count: a
//!   job arrives holding its graph, and `flexminer serve`'s graph cache
//!   charges what it holds against the memory budget.
//! - **Priority preemption**: a strictly higher-priority arrival pauses
//!   the lowest-priority running job into an in-memory checkpoint; the
//!   victim later resumes bit-identically.
//! - **Retry** is the engine's: a faulted start-vertex task runs again in
//!   place up to [`fm_engine::EngineConfig::max_retries`] times before it
//!   is quarantined. The supervisor keeps no retry loop and no timer.
//! - **Graceful drain** ([`Supervisor::shutdown`]): SIGTERM (see
//!   [`signal`]) or a protocol `shutdown` pauses every job at a stint
//!   boundary and spools durable checkpoints, so a restarted process
//!   resumes every job bit-for-bit.
//!
//! - **Durable job journal** ([`journal`]): a CRC-framed append-only log
//!   of submissions and outcomes with torn-tail truncation recovery, so
//!   `flexminer serve` survives `kill -9` — finished jobs answer `wait`
//!   from the recorded outcome and unresolved jobs are re-run (or resumed
//!   from a drained checkpoint, whose record is how a drain comes back)
//!   to the same bit-identical counts.
//!
//! The [`jsonl`] module carries the dependency-free wire codec used by
//! `flexminer serve`. Everything here is plain `std` plus the workspace
//! crates — no external dependencies.

pub mod journal;
pub mod jsonl;
pub mod observe;
mod outcome;
pub mod signal;
mod supervisor;

pub use observe::JobObserver;
pub use outcome::{JobHandle, JobOutcome};
pub use supervisor::{DrainedJob, JobSpec, Supervisor, SupervisorConfig, SupervisorStats};
