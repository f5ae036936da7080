//! Simulation statistics and reports.

use crate::config::FREQ_GHZ;

/// Names of the coarse PE FSM occupancy classes, indexed like
/// [`PeStats::occupancy`]: `Idle` covers scheduler hand-off between
/// tasks, `Extending` covers embedding pushes and backtracking, and
/// `IteratingEdges` covers candidate streaming — core builds (SIU/SDU
/// merges, c-map probes) and the memory stalls they incur (Fig. 10's
/// edge-iteration states).
pub const FSM_STATE_NAMES: [&str; 3] = ["Idle", "Extending", "IteratingEdges"];

/// Occupancy-class index for [`FSM_STATE_NAMES`].
pub(crate) const FSM_IDLE: usize = 0;
/// Occupancy-class index for [`FSM_STATE_NAMES`].
pub(crate) const FSM_EXTENDING: usize = 1;
/// Occupancy-class index for [`FSM_STATE_NAMES`].
pub(crate) const FSM_ITERATING: usize = 2;

/// Per-PE event counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PeStats {
    /// Tasks received from the scheduler.
    pub tasks: u64,
    /// Embedding extensions (search-tree edges walked).
    pub extensions: u64,
    /// Candidate vertices streamed through the pruner.
    pub candidates: u64,
    /// SIU/SDU invocations (fallback or plain merge ops).
    pub siu_invocations: u64,
    /// SIU/SDU merge-loop iterations (= SIU busy cycles).
    pub siu_cycles: u64,
    /// c-map queries.
    pub cmap_reads: u64,
    /// c-map insertions.
    pub cmap_writes: u64,
    /// c-map invalidations during backtracking.
    pub cmap_invalidations: u64,
    /// Levels that could not be memoized (occupancy estimate exceeded the
    /// threshold, or depth beyond the value width).
    pub cmap_overflows: u64,
    /// Private-cache accesses.
    pub l1_accesses: u64,
    /// Private-cache misses (each becomes a NoC request).
    pub l1_misses: u64,
    /// Requests this PE sent onto the NoC (misses + writebacks).
    pub noc_requests: u64,
    /// Dirty private-cache lines written back through the NoC.
    pub writebacks: u64,
    /// Cycles this PE spent busy (non-idle).
    pub busy_cycles: u64,
    /// `busy_cycles` partitioned by the coarse FSM state that was charged
    /// (see [`FSM_STATE_NAMES`]): `occupancy.iter().sum() == busy_cycles`.
    pub occupancy: [u64; 3],
}

impl PeStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &PeStats) {
        self.tasks += other.tasks;
        self.extensions += other.extensions;
        self.candidates += other.candidates;
        self.siu_invocations += other.siu_invocations;
        self.siu_cycles += other.siu_cycles;
        self.cmap_reads += other.cmap_reads;
        self.cmap_writes += other.cmap_writes;
        self.cmap_invalidations += other.cmap_invalidations;
        self.cmap_overflows += other.cmap_overflows;
        self.l1_accesses += other.l1_accesses;
        self.l1_misses += other.l1_misses;
        self.noc_requests += other.noc_requests;
        self.writebacks += other.writebacks;
        self.busy_cycles += other.busy_cycles;
        for (s, o) in self.occupancy.iter_mut().zip(&other.occupancy) {
            *s += o;
        }
    }
}

/// Snapshot of one PE's DFS finite state machine (Fig. 10), captured when
/// the watchdog trips.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeFsmState {
    /// PE index.
    pub pe: usize,
    /// The PE's local clock at capture time.
    pub cycle: u64,
    /// Whether this PE had already drained the task queue.
    pub done: bool,
    /// Frames on the FSM's explicit DFS stack.
    pub stack_depth: usize,
    /// Human-readable rendering of the top stack frame (`None` when idle
    /// between tasks).
    pub top_frame: Option<String>,
    /// The partial embedding held at capture time.
    pub embedding: Vec<u32>,
    /// Tasks this PE had claimed from the scheduler.
    pub tasks_claimed: u64,
}

/// Diagnostic dump produced when the watchdog cycle cap trips
/// ([`SimConfig::watchdog_cycles`](crate::SimConfig::watchdog_cycles)).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WatchdogDump {
    /// Cycle cap in effect when the watchdog fired.
    pub cap: u64,
    /// One FSM snapshot per PE, in PE order.
    pub pes: Vec<PeFsmState>,
}

impl WatchdogDump {
    /// The PEs still working when the watchdog fired.
    pub fn stuck_pes(&self) -> impl Iterator<Item = &PeFsmState> {
        self.pes.iter().filter(|p| !p.done)
    }
}

/// One point of the machine-wide timeline, sampled every
/// [`timeline_every`](crate::SimConfig::timeline_every) cycles (at epoch
/// granularity). All counter fields are cumulative up to `cycle`, so
/// hit-rate *series* come from deltas between consecutive samples and
/// hit-rate *totals* from the last sample alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TimelineSample {
    /// Simulated clock at the sample (an epoch boundary).
    pub cycle: u64,
    /// Cumulative shared-cache accesses.
    pub l2_accesses: u64,
    /// Cumulative shared-cache misses.
    pub l2_misses: u64,
    /// Cumulative c-map queries across all PEs.
    pub cmap_reads: u64,
    /// Cumulative c-map insertions across all PEs.
    pub cmap_writes: u64,
    /// Cumulative busy cycles across all PEs (utilization =
    /// `busy_cycles / (cycle * num_pes)`).
    pub busy_cycles: u64,
    /// PEs that had drained the task queue by this sample.
    pub done_pes: usize,
}

/// The result of one accelerator simulation.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SimReport {
    /// Total execution time in PE cycles (completion of the last PE).
    pub cycles: u64,
    /// Raw match counts per plan pattern.
    pub counts: Vec<u64>,
    /// Aggregated PE counters.
    pub totals: PeStats,
    /// Per-PE completion times (for load-balance analysis).
    pub pe_finish_cycles: Vec<u64>,
    /// Per-PE FSM-state occupancy (busy cycles by [`FSM_STATE_NAMES`]
    /// class), in PE order. Always collected — the attribution is three
    /// counter adds per charge, and keeping it unconditional keeps reports
    /// comparable across telemetry settings.
    pub pe_occupancy: Vec<[u64; 3]>,
    /// Machine timeline, sampled every
    /// [`timeline_every`](crate::SimConfig::timeline_every) cycles; empty
    /// when sampling is off (the default).
    pub timeline: Vec<TimelineSample>,
    /// Shared-cache accesses.
    pub l2_accesses: u64,
    /// Shared-cache misses.
    pub l2_misses: u64,
    /// Shared-cache dirty evictions.
    pub l2_writebacks: u64,
    /// DRAM accesses (reads + writes).
    pub dram_accesses: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// Present iff the watchdog cycle cap tripped. A tripped report's
    /// `counts` are partial (whatever the PEs had reduced so far) and must
    /// not be treated as totals.
    pub watchdog: Option<WatchdogDump>,
}

impl SimReport {
    /// Execution time in seconds at the PE clock ([`FREQ_GHZ`]).
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (FREQ_GHZ * 1e9)
    }

    /// NoC traffic: memory requests sent from the PEs to the NoC (the
    /// metric of Fig. 16).
    pub fn noc_traffic(&self) -> u64 {
        self.totals.noc_requests
    }

    /// L2 miss rate in [0, 1].
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }

    /// c-map read ratio (reads / (reads + writes)), as quoted in §VII-C.
    pub fn cmap_read_ratio(&self) -> f64 {
        let total = self.totals.cmap_reads + self.totals.cmap_writes;
        if total == 0 {
            0.0
        } else {
            self.totals.cmap_reads as f64 / total as f64
        }
    }

    /// Load imbalance: slowest PE finish time over mean finish time.
    pub fn imbalance(&self) -> f64 {
        if self.pe_finish_cycles.is_empty() {
            return 1.0;
        }
        let max = *self.pe_finish_cycles.iter().max().expect("nonempty") as f64;
        let mean =
            self.pe_finish_cycles.iter().sum::<u64>() as f64 / self.pe_finish_cycles.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = PeStats { tasks: 1, extensions: 10, ..Default::default() };
        let b = PeStats { tasks: 2, extensions: 5, noc_requests: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.tasks, 3);
        assert_eq!(a.extensions, 15);
        assert_eq!(a.noc_requests, 7);
    }

    #[test]
    fn derived_metrics() {
        let report = SimReport {
            cycles: 1_300_000,
            l2_accesses: 100,
            l2_misses: 25,
            pe_finish_cycles: vec![100, 100, 200],
            totals: PeStats { cmap_reads: 90, cmap_writes: 10, ..Default::default() },
            ..Default::default()
        };
        assert!((report.l2_miss_rate() - 0.25).abs() < 1e-12);
        assert!((report.cmap_read_ratio() - 0.9).abs() < 1e-12);
        assert!((report.imbalance() - 1.5).abs() < 1e-12);
        assert!((report.seconds() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SimReport::default();
        assert_eq!(r.l2_miss_rate(), 0.0);
        assert_eq!(r.cmap_read_ratio(), 0.0);
        assert_eq!(r.imbalance(), 1.0);
    }
}
