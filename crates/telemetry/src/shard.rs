//! Per-worker telemetry shards and their commutative merge.
//!
//! Each mining worker accumulates depth-resolved work counters, log2
//! histograms, and a span buffer privately (no locks, no cross-worker
//! traffic). At join time the shards are merged into one
//! [`TelemetryShard`] carried on the mining result. Merging is
//! commutative and associative — element-wise addition for counters and
//! histograms, concatenate-then-sort for spans — so the merged shard is
//! identical however the workers are interleaved or joined. A property
//! test pins this across thread counts {1, 4, 7}.

use crate::hist::Log2Histogram;
use crate::trace::Span;

/// Aggregated telemetry for one run (or one worker, pre-merge).
///
/// Depth-indexed vectors are indexed by embedding depth (the DFS level of
/// the plan node charging the work) and grow on demand; merging resizes
/// to the longer of the two.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TelemetryShard {
    /// Set-op merge-loop iterations charged at each depth.
    pub depth_setop_iterations: Vec<u64>,
    /// Set-op kernel invocations at each depth.
    pub depth_setop_invocations: Vec<u64>,
    /// Adaptive dispatches resolved to the merge tier, per depth.
    pub depth_merge: Vec<u64>,
    /// Adaptive dispatches resolved to the gallop tier, per depth.
    pub depth_gallop: Vec<u64>,
    /// Adaptive dispatches resolved to the hub-bitmap probe tier, per depth.
    pub depth_probe: Vec<u64>,
    /// Adaptive dispatches resolved to the SIMD tier, per depth.
    pub depth_simd: Vec<u64>,
    /// Sizes of materialized frontiers (log2 buckets).
    pub frontier_sizes: Log2Histogram,
    /// Start-vertex task wall times in microseconds (log2 buckets).
    pub task_micros: Log2Histogram,
    /// Collected spans, kept in the canonical [`Span`] sort order.
    pub spans: Vec<Span>,
    /// Spans dropped by full rings.
    pub dropped_spans: u64,
    /// Progress/heartbeat reports skipped because the emitter lock was
    /// contended at report time (each skip is one missing line in the
    /// heartbeat JSONL, so a non-zero value explains gaps there).
    pub progress_dropped: u64,
    /// Heartbeat-file failures: the open that disabled the sink plus every
    /// failed write. Non-zero means the heartbeat JSONL is incomplete for
    /// reasons other than contention (disk full, permissions, ...).
    pub heartbeat_errors: u64,
}

fn add_resized(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from.iter()) {
        *a += b;
    }
}

/// Adds `delta` into `v[depth]`, growing the vector on demand.
#[inline]
pub fn charge_depth(v: &mut Vec<u64>, depth: usize, delta: u64) {
    if delta == 0 {
        return;
    }
    if v.len() <= depth {
        v.resize(depth + 1, 0);
    }
    v[depth] += delta;
}

impl TelemetryShard {
    /// An empty shard.
    pub fn new() -> TelemetryShard {
        TelemetryShard::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self == &TelemetryShard::default()
    }

    /// Appends spans drained from a worker ring.
    pub fn absorb_spans(&mut self, spans: Vec<Span>, dropped: u64) {
        self.spans.extend(spans);
        self.spans.sort_unstable();
        self.dropped_spans += dropped;
    }

    /// Merges another shard into this one. Commutative: `a.merge(b)` and
    /// `b.merge(a)` produce equal shards.
    pub fn merge(&mut self, other: &TelemetryShard) {
        add_resized(&mut self.depth_setop_iterations, &other.depth_setop_iterations);
        add_resized(&mut self.depth_setop_invocations, &other.depth_setop_invocations);
        add_resized(&mut self.depth_merge, &other.depth_merge);
        add_resized(&mut self.depth_gallop, &other.depth_gallop);
        add_resized(&mut self.depth_probe, &other.depth_probe);
        add_resized(&mut self.depth_simd, &other.depth_simd);
        self.frontier_sizes.merge(&other.frontier_sizes);
        self.task_micros.merge(&other.task_micros);
        self.spans.extend(other.spans.iter().copied());
        self.spans.sort_unstable();
        self.dropped_spans += other.dropped_spans;
        self.progress_dropped += other.progress_dropped;
        self.heartbeat_errors += other.heartbeat_errors;
    }

    /// The deepest depth with any charged set-op work, plus one.
    pub fn depth_len(&self) -> usize {
        [
            self.depth_setop_iterations.len(),
            self.depth_setop_invocations.len(),
            self.depth_merge.len(),
            self.depth_gallop.len(),
            self.depth_probe.len(),
            self.depth_simd.len(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(seed: u64, tid: u32) -> TelemetryShard {
        let mut s = TelemetryShard::new();
        charge_depth(&mut s.depth_setop_iterations, 2, seed + 5);
        charge_depth(&mut s.depth_merge, 1, seed);
        charge_depth(&mut s.depth_probe, 3, 1);
        s.frontier_sizes.record(seed);
        s.task_micros.record(seed * 100);
        s.absorb_spans(
            vec![Span {
                ts_us: seed,
                dur_us: 1,
                tid,
                name: "start-vertex-task",
                cat: "engine",
                arg: None,
            }],
            seed % 2,
        );
        s
    }

    #[test]
    fn merge_is_commutative() {
        let (a, b, c) = (shard(3, 0), shard(10, 1), shard(7, 2));
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, cba);
        assert_eq!(abc.depth_setop_iterations[2], 3 + 10 + 7 + 15);
        assert_eq!(abc.spans.len(), 3);
        assert_eq!(abc.dropped_spans, 2);
        assert_eq!(abc.depth_len(), 4);
    }

    #[test]
    fn charge_depth_grows_on_demand() {
        let mut v = Vec::new();
        charge_depth(&mut v, 3, 0); // zero delta must not allocate
        assert!(v.is_empty());
        charge_depth(&mut v, 3, 2);
        assert_eq!(v, vec![0, 0, 0, 2]);
        charge_depth(&mut v, 0, 1);
        assert_eq!(v, vec![1, 0, 0, 2]);
    }

    #[test]
    fn empty_shard_reports_empty() {
        assert!(TelemetryShard::new().is_empty());
        assert!(!shard(1, 0).is_empty());
    }
}
