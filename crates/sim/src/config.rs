//! Simulator configuration.
//!
//! The simulator models one machine, the paper's evaluated accelerator
//! (§VII-A): 1.3 GHz PEs, 32 kB private cache, 8 kB c-map scratchpad, 4 MB
//! shared cache, and 64 GB of DDR4-2666 DRAM over four channels. What the
//! paper never varies is a constant below; [`SimConfig`] holds only what
//! an experiment sweeps (PE count, c-map size and organization, cache
//! capacities) or what a run observes (watchdog, timeline). All latencies
//! are expressed in PE clock cycles (1 cycle ≈ 0.77 ns at 1.3 GHz).

use crate::cache::SetAssocCache;

// ---- The machine: PEs, c-map, caches, NoC, scheduler ----

/// PE clock frequency in GHz, used only to convert cycles to seconds.
pub const FREQ_GHZ: f64 = 1.3;
/// Bytes per c-map entry: 4 B key + 1 B value (§VI-A).
pub const CMAP_ENTRY_BYTES: usize = 5;
/// Cache line size in bytes. Lines, sets and L2 banks are indexed with
/// shifts and masks ([`LINE_SHIFT`]).
pub const LINE_BYTES: usize = 64;
/// `log2(LINE_BYTES)`.
pub const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();
const _: () = assert!(LINE_BYTES.is_power_of_two(), "lines are indexed with a shift");
/// Private (L1) cache associativity.
pub const L1_ASSOC: usize = 4;
/// Shared (L2) cache associativity.
pub const L2_ASSOC: usize = 16;
/// Shared cache access latency in cycles (tag + data, excluding NoC).
pub const L2_LATENCY: u64 = 20;
/// Shared cache bank occupancy per access (service rate limit).
pub const L2_OCCUPANCY: u64 = 2;
/// Fixed SIU/SDU invocation overhead in cycles: loading the two list
/// descriptors (base address + length) and filling the merge pipeline of
/// Fig. 9 before the first compare retires.
pub const SIU_SETUP_CYCLES: u64 = 8;
/// Per-hop NoC latency in cycles.
pub const NOC_HOP_LATENCY: u64 = 1;
/// NoC serialization cycles per 64 B response (flit count).
pub const NOC_SERIALIZATION: u64 = 4;
/// Most PEs a [`SimConfig`] may ask for: four times the 64 of the paper's
/// largest machine (Fig. 15). Each PE holds its own private cache and
/// c-map state on the host, so the count is bounded before anything is
/// built ([`SimConfig::validate`]).
pub const MAX_PES: usize = 256;
/// Cycles to dispatch a task — one start vertex, as in the paper — to an
/// idle PE.
pub const SCHED_LATENCY: u64 = 16;

// ---- DRAM (DRAMsim3 substitute): four channels of DDR4-2666 ----

/// Independent DRAM channels.
pub const DRAM_CHANNELS: usize = 4;
/// Banks per channel, each with a private row buffer.
pub const DRAM_BANKS_PER_CHANNEL: usize = 16;
/// Row-buffer size in bytes (determines hit/miss behaviour of streaming
/// accesses).
pub const DRAM_ROW_BYTES: u64 = 4096;
/// Access latency on a row-buffer hit, in PE cycles (~20 ns).
pub const DRAM_ROW_HIT_CYCLES: u64 = 26;
/// Access latency on a row-buffer miss (precharge + activate + CAS,
/// ~45 ns).
pub const DRAM_ROW_MISS_CYCLES: u64 = 59;
/// Channel occupancy per 64 B burst, in PE cycles. DDR4-2666 moves 64 B in
/// ~3 ns ≈ 4 cycles at 1.3 GHz — this is the per-channel bandwidth limit.
pub const DRAM_BURST_CYCLES: u64 = 4;

// ---- Energy per event (`energy.rs`), representative 15 nm figures ----
//
// Small-SRAM accesses a few pJ, a 32 kB cache access ~10 pJ, a 4 MB cache
// access ~50 pJ, DRAM ~10 nJ per 64 B access (DDR4 is commonly quoted
// near 15–20 pJ/bit ⇒ ~8–10 nJ per line plus IO).

/// One datapath/pruner cycle of a PE (ALU + registers + control), in pJ.
pub const PE_CYCLE_PJ: f64 = 1.2;
/// One SIU/SDU merge iteration (two comparators + muxes), in pJ.
pub const SIU_ITERATION_PJ: f64 = 0.6;
/// One c-map access (5 B-entry banked SRAM probe), in pJ.
pub const CMAP_ACCESS_PJ: f64 = 2.0;
/// One private (32 kB) cache access, in pJ.
pub const L1_ACCESS_PJ: f64 = 10.0;
/// One shared (4 MB) cache access, in pJ.
pub const L2_ACCESS_PJ: f64 = 50.0;
/// One NoC flit-hop, in pJ.
pub const NOC_HOP_PJ: f64 = 4.0;
/// One 64 B DRAM access, in pJ.
pub const DRAM_ACCESS_PJ: f64 = 10_000.0;
/// Static (leakage) power per PE, in milliwatts.
pub const PE_LEAKAGE_MW: f64 = 0.5;

/// What an experiment varies on the machine; every other parameter is a
/// constant of this module.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimConfig {
    /// Number of processing elements, 1 to [`MAX_PES`] (the paper sweeps
    /// 1–64; default 20).
    pub num_pes: usize,
    /// c-map scratchpad capacity in bytes (0 disables the c-map; the paper
    /// sweeps 1 kB–16 kB and picks 8 kB).
    pub cmap_bytes: usize,
    /// c-map banks probed in parallel (§VI-A prototypes m = 4).
    pub cmap_banks: usize,
    /// Bits in the c-map value: connectivity is tracked for DFS levels
    /// `< cmap_value_bits`; deeper levels fall back to SIU/SDU (§VII-D).
    pub cmap_value_bits: usize,
    /// Occupancy threshold above which insertion is refused and the level
    /// falls back to SIU/SDU ("keep its occupancy below 75%").
    pub cmap_occupancy_threshold: f64,
    /// Private (L1) cache capacity in bytes (paper: 32 kB).
    pub l1_bytes: usize,
    /// Shared (L2) cache capacity in bytes (paper: 4 MB).
    pub l2_bytes: usize,
    /// Shared cache banks (independent service queues).
    pub l2_banks: usize,
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
            cmap_bytes: 8 * 1024,
            cmap_banks: 4,
            cmap_value_bits: 8,
            cmap_occupancy_threshold: 0.75,
            l1_bytes: 32 * 1024,
            l2_bytes: 4 * 1024 * 1024,
            l2_banks: 8,
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
            self.cmap_bytes / CMAP_ENTRY_BYTES
        }
    }

    /// Checks the machine before anything is built: the PE count must lie
    /// in `1..=`[`MAX_PES`], and, since the simulator indexes sets and L2
    /// banks with shifts and masks, the set count of each cache and the L2
    /// bank count must be powers of two. Every machine the paper
    /// evaluates passes; [`simulate`](crate::simulate) refuses the others
    /// here instead of deep inside construction.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_PES).contains(&self.num_pes) {
            return Err(format!("num_pes = {} is outside 1..={MAX_PES}", self.num_pes));
        }
        for (name, bytes, assoc) in
            [("l1", self.l1_bytes, L1_ASSOC), ("l2", self.l2_bytes, L2_ASSOC)]
        {
            let sets = SetAssocCache::sets_for(bytes, assoc);
            if !sets.is_power_of_two() {
                return Err(format!(
                    "{name}_bytes = {bytes} with {name}_assoc = {assoc} and {LINE_BYTES} B lines \
                     gives {sets} sets, not a power of two"
                ));
            }
        }
        if !self.l2_banks.max(1).is_power_of_two() {
            return Err(format!("l2_banks = {} is not a power of two", self.l2_banks));
        }
        Ok(())
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
        2 * hops * NOC_HOP_LATENCY + NOC_SERIALIZATION
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let c = SimConfig::default();
        assert_eq!(c.num_pes, 20);
        assert_eq!(FREQ_GHZ, 1.3);
        assert_eq!(c.cmap_bytes, 8 * 1024);
        assert_eq!(c.cmap_entries(), 8 * 1024 / 5);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l2_bytes, 4 * 1024 * 1024);
        assert_eq!((LINE_BYTES, 1 << LINE_SHIFT), (64, 64));
        assert_eq!((L1_ASSOC, L2_ASSOC), (4, 16));
        assert_eq!(DRAM_CHANNELS, 4);
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
            refused(SimConfig { l1_bytes: 48 << 10, ..Default::default() }),
            "l1_bytes = 49152 with l1_assoc = 4 and 64 B lines gives 192 sets, not a power of two"
        );
        assert_eq!(
            refused(SimConfig { l2_banks: 6, ..Default::default() }),
            "l2_banks = 6 is not a power of two"
        );
    }

    #[test]
    fn pe_count_is_bounded() {
        for num_pes in [1, 20, 64, MAX_PES] {
            assert_eq!(SimConfig::with_pes(num_pes).validate(), Ok(()));
        }
        for num_pes in [0, MAX_PES + 1, usize::MAX] {
            assert_eq!(
                SimConfig::with_pes(num_pes).validate(),
                Err(format!("num_pes = {num_pes} is outside 1..=256"))
            );
        }
    }

    #[test]
    fn cycle_conversion() {
        let report = crate::SimReport { cycles: 1_300_000_000, ..Default::default() };
        assert!((report.seconds() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noc_latency_grows_with_pe_index() {
        let c = SimConfig::with_pes(16);
        assert!(c.noc_round_trip(15) > c.noc_round_trip(0));
        assert_eq!(c.mesh_dim(), 4);
    }
}
