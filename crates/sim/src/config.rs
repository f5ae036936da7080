//! Simulator configuration.
//!
//! Defaults follow the paper's evaluated configuration (§VII-A): 1.3 GHz
//! PEs, 32 kB private cache, 8 kB c-map scratchpad, 4 MB shared cache, and
//! 64 GB of DDR4-2666 DRAM over four channels. All latencies are expressed
//! in PE clock cycles (1 cycle ≈ 0.77 ns at 1.3 GHz).

use crate::cache::SetAssocCache;

/// DRAM timing model parameters (DRAMsim3 substitute).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DramConfig {
    /// Independent channels (paper: four channels of DDR4-2666).
    pub channels: usize,
    /// Banks per channel with private row buffers.
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes (determines hit/miss behaviour of
    /// streaming accesses).
    pub row_bytes: u64,
    /// Access latency on a row-buffer hit, in PE cycles (~20 ns).
    pub row_hit_cycles: u64,
    /// Access latency on a row-buffer miss (precharge + activate + CAS,
    /// ~45 ns).
    pub row_miss_cycles: u64,
    /// Channel occupancy per 64 B burst, in PE cycles. DDR4-2666 moves
    /// 64 B in ~3 ns ≈ 4 cycles at 1.3 GHz — this is the per-channel
    /// bandwidth limit.
    pub burst_cycles: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 4,
            banks_per_channel: 16,
            row_bytes: 4096,
            row_hit_cycles: 26,
            row_miss_cycles: 59,
            burst_cycles: 4,
        }
    }
}

/// Full accelerator configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimConfig {
    /// Number of processing elements (the paper sweeps 1–64; default 20).
    pub num_pes: usize,
    /// PE clock frequency in GHz, used only to convert cycles to seconds.
    pub freq_ghz: f64,
    /// c-map scratchpad capacity in bytes (0 disables the c-map; the paper
    /// sweeps 1 kB–16 kB and picks 8 kB).
    pub cmap_bytes: usize,
    /// c-map banks probed in parallel (§VI-A prototypes m = 4).
    pub cmap_banks: usize,
    /// Bytes per c-map entry: 4 B key + 1 B value (§VI-A).
    pub cmap_entry_bytes: usize,
    /// Bits in the c-map value: connectivity is tracked for DFS levels
    /// `< cmap_value_bits`; deeper levels fall back to SIU/SDU (§VII-D).
    pub cmap_value_bits: usize,
    /// Occupancy threshold above which insertion is refused and the level
    /// falls back to SIU/SDU ("keep its occupancy below 75%").
    pub cmap_occupancy_threshold: f64,
    /// Private (L1) cache capacity in bytes (paper: 32 kB).
    pub l1_bytes: usize,
    /// Private cache associativity.
    pub l1_assoc: usize,
    /// Cache line size in bytes (a power of two, as the set counts and
    /// `l2_banks` must be: see [`validate`](Self::validate)).
    pub line_bytes: usize,
    /// Shared (L2) cache capacity in bytes (paper: 4 MB).
    pub l2_bytes: usize,
    /// Shared cache associativity.
    pub l2_assoc: usize,
    /// Shared cache banks (independent service queues).
    pub l2_banks: usize,
    /// Shared cache access latency in cycles (tag + data, excluding NoC).
    pub l2_latency: u64,
    /// Shared cache bank occupancy per access (service rate limit).
    pub l2_occupancy: u64,
    /// Fixed SIU/SDU invocation overhead in cycles: loading the two list
    /// descriptors (base address + length) and filling the merge pipeline
    /// of Fig. 9 before the first compare retires.
    pub siu_setup_cycles: u64,
    /// Per-hop NoC latency in cycles.
    pub noc_hop_latency: u64,
    /// NoC serialization cycles per 64 B response (flit count).
    pub noc_serialization: u64,
    /// DRAM model.
    pub dram: DramConfig,
    /// Start vertices per scheduler task (paper: one vertex per task).
    pub task_chunk: u32,
    /// Cycles to dispatch a task to an idle PE.
    pub sched_latency: u64,
    /// Epoch length for PE interleaving (bounds cross-PE contention skew).
    pub epoch: u64,
    /// Honor frontier-memoization hints (paper: always on; ablation knob).
    pub frontier_memo: bool,
    /// Watchdog cycle cap: if the simulated clock reaches this value before
    /// every PE drains, the simulation stops and dumps per-PE FSM state
    /// into [`SimReport::watchdog`](crate::SimReport::watchdog) instead of
    /// hanging the host. `0` (the default) disables the watchdog; counts in
    /// a tripped report are partial and must not be normalized.
    pub watchdog_cycles: u64,
    /// Timeline sampling interval in cycles: every `timeline_every` cycles
    /// the machine appends a [`TimelineSample`](crate::TimelineSample)
    /// (cache and c-map hit-rate counters, PE busy/done state) to
    /// [`SimReport::timeline`](crate::SimReport::timeline). Samples are
    /// taken at epoch boundaries, so the effective resolution is
    /// `max(timeline_every, epoch)`. `0` (the default) disables sampling;
    /// sampling never changes counts, cycles, or any other counter.
    pub timeline_every: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_pes: 20,
            freq_ghz: 1.3,
            cmap_bytes: 8 * 1024,
            cmap_banks: 4,
            cmap_entry_bytes: 5,
            cmap_value_bits: 8,
            cmap_occupancy_threshold: 0.75,
            l1_bytes: 32 * 1024,
            l1_assoc: 4,
            line_bytes: 64,
            l2_bytes: 4 * 1024 * 1024,
            l2_assoc: 16,
            l2_banks: 8,
            l2_latency: 20,
            l2_occupancy: 2,
            siu_setup_cycles: 8,
            noc_hop_latency: 1,
            noc_serialization: 4,
            dram: DramConfig::default(),
            task_chunk: 1,
            sched_latency: 16,
            epoch: 4096,
            frontier_memo: true,
            watchdog_cycles: 0,
            timeline_every: 0,
        }
    }
}

impl SimConfig {
    /// The default configuration with `n` PEs.
    pub fn with_pes(n: usize) -> Self {
        SimConfig { num_pes: n, ..Self::default() }
    }

    /// The default configuration with the given c-map capacity in bytes
    /// (0 = no c-map, `usize::MAX` = the paper's "cmap-unlimited").
    pub fn with_cmap_bytes(bytes: usize) -> Self {
        SimConfig { cmap_bytes: bytes, ..Self::default() }
    }

    /// Whether the c-map hardware is present.
    pub fn cmap_enabled(&self) -> bool {
        self.cmap_bytes > 0
    }

    /// c-map capacity in entries.
    pub fn cmap_entries(&self) -> usize {
        if self.cmap_bytes == usize::MAX {
            usize::MAX
        } else {
            self.cmap_bytes / self.cmap_entry_bytes
        }
    }

    /// Checks the cache geometry: the simulator indexes lines, sets and L2
    /// banks with shifts and masks, so the line size, the set count of
    /// each cache and the L2 bank count must be powers of two. Every
    /// geometry the paper evaluates is; [`simulate`](crate::simulate)
    /// refuses the others here instead of deep inside construction.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() {
            return Err(format!("line_bytes = {} is not a power of two", self.line_bytes));
        }
        for (name, bytes, assoc) in
            [("l1", self.l1_bytes, self.l1_assoc), ("l2", self.l2_bytes, self.l2_assoc)]
        {
            let sets = SetAssocCache::sets_for(bytes, assoc, self.line_bytes);
            if !sets.is_power_of_two() {
                return Err(format!(
                    "{name}_bytes = {bytes} with {name}_assoc = {assoc} and {} B lines gives \
                     {sets} sets, not a power of two",
                    self.line_bytes
                ));
            }
        }
        if !self.l2_banks.max(1).is_power_of_two() {
            return Err(format!("l2_banks = {} is not a power of two", self.l2_banks));
        }
        Ok(())
    }

    /// Converts a cycle count to seconds at the configured frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Mesh dimension used for NoC hop counts (PEs placed on a square
    /// grid with the shared cache at the origin corner).
    pub fn mesh_dim(&self) -> usize {
        (self.num_pes as f64).sqrt().ceil() as usize
    }

    /// Round-trip NoC latency for PE `pe` (request + response hops plus
    /// response serialization).
    pub fn noc_round_trip(&self, pe: usize) -> u64 {
        let dim = self.mesh_dim().max(1);
        let hops = (pe % dim + pe / dim + 1) as u64;
        2 * hops * self.noc_hop_latency + self.noc_serialization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let c = SimConfig::default();
        assert_eq!(c.num_pes, 20);
        assert!((c.freq_ghz - 1.3).abs() < 1e-9);
        assert_eq!(c.cmap_bytes, 8 * 1024);
        assert_eq!(c.cmap_entries(), 8 * 1024 / 5);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l2_bytes, 4 * 1024 * 1024);
        assert_eq!(c.dram.channels, 4);
        assert!(c.cmap_enabled());
        assert_eq!(c.watchdog_cycles, 0); // watchdog off by default
        assert_eq!(c.timeline_every, 0); // timeline sampling off by default
    }

    #[test]
    fn cmap_disable_and_unlimited() {
        assert!(!SimConfig::with_cmap_bytes(0).cmap_enabled());
        assert_eq!(SimConfig::with_cmap_bytes(usize::MAX).cmap_entries(), usize::MAX);
    }

    #[test]
    fn only_power_of_two_geometry_validates() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        // The suites' small caches: one set, eight sets, a single bank.
        for (l1_bytes, l2_bytes, l2_banks) in [(64, 128, 8), (256, 1024, 8), (2048, 4 << 20, 1)] {
            let cfg = SimConfig { l1_bytes, l2_bytes, l2_banks, ..Default::default() };
            assert_eq!(cfg.validate(), Ok(()));
        }
        let refused = |cfg: SimConfig| cfg.validate().expect_err("odd geometry");
        assert_eq!(
            refused(SimConfig { line_bytes: 48, ..Default::default() }),
            "line_bytes = 48 is not a power of two"
        );
        assert_eq!(
            refused(SimConfig { line_bytes: 0, ..Default::default() }),
            "line_bytes = 0 is not a power of two"
        );
        assert_eq!(
            refused(SimConfig { l1_bytes: 48 << 10, ..Default::default() }),
            "l1_bytes = 49152 with l1_assoc = 4 and 64 B lines gives 192 sets, not a power of two"
        );
        assert_eq!(
            refused(SimConfig { l2_assoc: 12, ..Default::default() }),
            "l2_bytes = 4194304 with l2_assoc = 12 and 64 B lines gives 5461 sets, \
             not a power of two"
        );
        assert_eq!(
            refused(SimConfig { l2_banks: 6, ..Default::default() }),
            "l2_banks = 6 is not a power of two"
        );
    }

    #[test]
    fn cycle_conversion() {
        let c = SimConfig::default();
        let s = c.cycles_to_seconds(1_300_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noc_latency_grows_with_pe_index() {
        let c = SimConfig::with_pes(16);
        assert!(c.noc_round_trip(15) > c.noc_round_trip(0));
        assert_eq!(c.mesh_dim(), 4);
    }
}
