//! Engine-side telemetry: run options and per-worker collection.
//!
//! Everything here is opt-in and zero-cost when off, following the same
//! discipline as the failpoint harness and straggler timing: the default
//! [`TelemetryOptions`] puts a single `None` on the executor hot path, so
//! telemetry-disabled runs stay bit-identical (counts *and*
//! [`WorkCounters`](crate::WorkCounters)) with no locks or allocations
//! added — pinned by `tests/faithful_regression.rs` and the
//! `ablation_telemetry` overhead gate.
//!
//! When enabled, each worker owns a private [`Collector`] (depth/tier
//! metric shard plus span ring); collectors never share state, and their
//! shards merge commutatively into
//! [`MiningResult::telemetry`](crate::MiningResult::telemetry) at join
//! time. Telemetry knobs are deliberately *excluded* from
//! [`config_fingerprint`](crate::config_fingerprint): toggling
//! observability never invalidates a checkpoint, so a resumed run may turn
//! tracing on or off freely.

use fm_telemetry::shard::charge_depth;
use fm_telemetry::{ProgressCadence, Span, SpanRing, TelemetryShard, TraceClock};
use std::path::PathBuf;
use std::time::Duration;

use crate::result::WorkCounters;

/// Live progress reporting options (see
/// [`TelemetryOptions::progress`]). Reports are emitted from task
/// boundaries — the engine's control-plane quantum — so a report can lag
/// by at most one running task.
#[derive(Clone, Debug)]
pub struct ProgressOptions {
    /// Report every N tasks or every N seconds.
    pub cadence: ProgressCadence,
    /// Append one JSON object per report to this file (JSONL heartbeat).
    pub heartbeat: Option<PathBuf>,
}

impl ProgressOptions {
    /// Progress every `n` completed tasks, no heartbeat file.
    pub fn every_tasks(n: u64) -> ProgressOptions {
        ProgressOptions { cadence: ProgressCadence::Tasks(n.max(1)), heartbeat: None }
    }

    /// Progress every `wall` of wall-clock time, no heartbeat file.
    pub fn every_wall(wall: Duration) -> ProgressOptions {
        ProgressOptions { cadence: ProgressCadence::Wall(wall), heartbeat: None }
    }
}

/// Observability options for one mining run, threaded through
/// [`mine_with`](crate::mine_with) /
/// [`mine_prepared_observed`](crate::mine_prepared_observed). The default
/// disables everything.
#[derive(Clone, Debug, Default)]
pub struct TelemetryOptions {
    /// Collect depth- and tier-resolved set-op metrics plus task-time and
    /// frontier-size histograms into the result's [`TelemetryShard`].
    pub metrics: bool,
    /// Collect spans (mine / start-vertex-task / checkpoint-write, plus
    /// prepare at the entry points) on this clock. One clock per run; the
    /// caller keeps a copy to close its own spans on the same time base.
    pub trace: Option<TraceClock>,
    /// Live progress reporting to stderr (and optionally a heartbeat
    /// file).
    pub progress: Option<ProgressOptions>,
}

impl TelemetryOptions {
    /// Whether any collection is requested.
    pub fn enabled(&self) -> bool {
        self.metrics || self.trace.is_some() || self.progress.is_some()
    }
}

/// One stint's private telemetry state, boxed behind an `Option` in the
/// executor so disabled runs pay one pointer-null check.
pub(crate) struct Collector {
    pub(crate) shard: TelemetryShard,
    pub(crate) ring: SpanRing,
    pub(crate) clock: Option<TraceClock>,
    pub(crate) metrics: bool,
    pub(crate) tid: u32,
}

impl Collector {
    /// One stint's collector: metrics if asked, task spans on `clock` if
    /// given (at most `ring` of them), reporting as trace lane `tid`.
    pub(crate) fn new(
        metrics: bool,
        clock: Option<TraceClock>,
        tid: u32,
        ring: usize,
    ) -> Box<Collector> {
        Box::new(Collector {
            shard: TelemetryShard::new(),
            ring: SpanRing::new(if clock.is_some() { ring } else { 0 }),
            clock,
            metrics,
            tid,
        })
    }

    /// Charges the work-counter delta of one candidate-generation step to
    /// the depth-resolved shard (set-op iterations/invocations, dispatch
    /// tiers). The executor calls this, and
    /// [`record_frontier`](Self::record_frontier), only with `metrics` on.
    #[inline]
    pub(crate) fn charge_setops(
        &mut self,
        depth: usize,
        before: WorkCounters,
        after: WorkCounters,
    ) {
        let w = after - before;
        charge_depth(&mut self.shard.depth_setop_iterations, depth, w.setop_iterations);
        charge_depth(&mut self.shard.depth_setop_invocations, depth, w.setop_invocations);
        charge_depth(&mut self.shard.depth_merge, depth, w.merge_dispatches);
        charge_depth(&mut self.shard.depth_gallop, depth, w.gallop_dispatches);
        charge_depth(&mut self.shard.depth_probe, depth, w.probe_dispatches);
        charge_depth(&mut self.shard.depth_simd, depth, w.simd_dispatches);
    }

    /// Records a materialized frontier's size.
    #[inline]
    pub(crate) fn record_frontier(&mut self, len: usize) {
        self.shard.frontier_sizes.record(len as u64);
    }

    /// Records one finished start-vertex task: wall time into the
    /// histogram, and (when tracing) a `start-vertex-task` span.
    pub(crate) fn record_task(&mut self, vid: u32, span_start_us: Option<u64>, elapsed: Duration) {
        if self.metrics {
            self.shard.task_micros.record(elapsed.as_micros() as u64);
        }
        if let (Some(clock), Some(start)) = (&self.clock, span_start_us) {
            self.ring.push(Span::close(
                clock,
                "start-vertex-task",
                "engine",
                start,
                self.tid,
                Some(("vid", vid as u64)),
            ));
        }
    }

    /// Ends the stint: merges its metrics into the job's shard and hands
    /// back the span ring for the job to retain or count as dropped.
    pub(crate) fn finish_into(self, job: &mut TelemetryShard) -> SpanRing {
        job.merge(&self.shard);
        self.ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_disable_everything() {
        assert!(!TelemetryOptions::default().enabled());
    }

    #[test]
    fn metrics_only_collector_skips_span_buffer() {
        let mut c = Collector::new(true, None, 1, 16);
        c.record_task(7, None, Duration::from_micros(300));
        let mut shard = TelemetryShard::new();
        assert!(c.finish_into(&mut shard).is_empty());
        assert_eq!(shard.task_micros.count, 1);
    }

    #[test]
    fn charge_setops_buckets_the_delta_by_depth() {
        let mut c = Collector::new(true, None, 0, 16);
        let before = WorkCounters::default();
        let after = WorkCounters {
            setop_iterations: 10,
            setop_invocations: 3,
            gallop_dispatches: 2,
            simd_dispatches: 1,
            ..Default::default()
        };
        c.charge_setops(2, before, after);
        let mut shard = TelemetryShard::new();
        c.finish_into(&mut shard);
        assert_eq!(shard.depth_setop_iterations, vec![0, 0, 10]);
        assert_eq!(shard.depth_gallop, vec![0, 0, 2]);
        assert_eq!(shard.depth_simd, vec![0, 0, 1]);
        assert!(shard.depth_merge.is_empty());
    }

    #[test]
    fn tracing_collector_records_task_spans() {
        let clock = TraceClock::start();
        let mut c = Collector::new(false, Some(clock), 3, 16);
        c.record_task(9, Some(clock.now_us()), Duration::from_micros(5));
        let mut shard = TelemetryShard::new();
        let spans = c.finish_into(&mut shard).drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "start-vertex-task");
        assert_eq!(spans[0].tid, 3);
        assert_eq!(spans[0].arg, Some(("vid", 9)));
        // Metrics were off: no histogram samples.
        assert_eq!(shard.task_micros.count, 0);
    }
}
