//! # fm-telemetry
//!
//! Observability core for the FlexMiner reproduction. Everything the
//! engine, the accelerator simulator, the CLI, and the bench harness emit
//! about a run — spans, depth-resolved work histograms, live progress,
//! machine-readable reports — funnels through this crate so there is one
//! JSON writer, one Prometheus text encoder, and one Chrome `trace_event`
//! exporter for the whole workspace.
//!
//! Design rules (see `DESIGN.md` §9):
//!
//! * **Zero cost when off.** Nothing here is instantiated unless a caller
//!   opts in; the mining hot path carries at most an `Option` check.
//! * **Shard, then merge.** Per-worker [`TelemetryShard`]s are collected
//!   without locks and merged commutatively, so results are independent of
//!   worker interleaving (pinned by a property test).
//! * **No dependencies.** The workspace builds offline; every JSON
//!   document in the workspace, here and in the crates above, is written
//!   through [`json`]'s one writer.

pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod shard;
pub mod trace;

pub use event::{EventBus, EventRing, JobEvent, Subscription, DEFAULT_RECORDER_CAPACITY};
pub use hist::Log2Histogram;
pub use metrics::{Metric, MetricKind, MetricsDoc};
pub use progress::{parse_cadence, LogLevel, ProgressCadence, ProgressSnapshot};
pub use shard::TelemetryShard;
pub use trace::{
    chrome_trace_json, CounterEvent, Span, SpanRing, TraceClock, DEFAULT_SPAN_CAPACITY,
};
