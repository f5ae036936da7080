//! Energy estimation for a simulated run.
//!
//! The paper motivates FlexMiner partly by energy efficiency (§I: GPM
//! accelerators "improve GPM's performance and energy-efficiency") and
//! reports 15 nm ASIC synthesis results for the PE. This module turns the
//! simulator's event counts into an energy estimate using per-event
//! constants representative of a ~15 nm node — the standard
//! counters×constants methodology of architecture papers (CACTI-style for
//! SRAM, DRAM energy per access from DDR4 datasheets).
//!
//! Absolute joules are indicative only; the model's value is *relative*
//! comparisons across configurations (e.g. how much dynamic energy the
//! c-map saves by eliminating SIU iterations and cache traffic).

use crate::config::{
    SimConfig, CMAP_ACCESS_PJ, DRAM_ACCESS_PJ, L1_ACCESS_PJ, L2_ACCESS_PJ, NOC_HOP_PJ, PE_CYCLE_PJ,
    PE_LEAKAGE_MW, SIU_ITERATION_PJ,
};
use crate::stats::SimReport;

/// An energy breakdown in millijoules.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct EnergyBreakdown {
    /// PE datapath (busy cycles).
    pub pe_mj: f64,
    /// SIU/SDU merge work.
    pub siu_mj: f64,
    /// c-map reads, writes and invalidations.
    pub cmap_mj: f64,
    /// Private cache accesses.
    pub l1_mj: f64,
    /// Shared cache accesses.
    pub l2_mj: f64,
    /// NoC traversal.
    pub noc_mj: f64,
    /// DRAM accesses.
    pub dram_mj: f64,
    /// Leakage over the run's wall-clock.
    pub static_mj: f64,
}

impl EnergyBreakdown {
    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.pe_mj
            + self.siu_mj
            + self.cmap_mj
            + self.l1_mj
            + self.l2_mj
            + self.noc_mj
            + self.dram_mj
            + self.static_mj
    }
}

/// Estimates the energy of a finished simulation from its event counts
/// and the per-event constants of [`crate::config`].
pub fn estimate(report: &SimReport, cfg: &SimConfig) -> EnergyBreakdown {
    let pj = |count: u64, per: f64| count as f64 * per * 1e-9; // pJ → mJ
    let cmap_accesses =
        report.totals.cmap_reads + report.totals.cmap_writes + report.totals.cmap_invalidations;
    let avg_hops = (cfg.mesh_dim() as f64).max(1.0);
    EnergyBreakdown {
        pe_mj: pj(report.totals.busy_cycles, PE_CYCLE_PJ),
        siu_mj: pj(report.totals.siu_cycles, SIU_ITERATION_PJ),
        cmap_mj: pj(cmap_accesses, CMAP_ACCESS_PJ),
        l1_mj: pj(report.totals.l1_accesses, L1_ACCESS_PJ),
        l2_mj: pj(report.l2_accesses, L2_ACCESS_PJ),
        noc_mj: pj(report.noc_traffic(), NOC_HOP_PJ * avg_hops * 2.0),
        dram_mj: pj(report.dram_accesses, DRAM_ACCESS_PJ),
        static_mj: PE_LEAKAGE_MW * cfg.num_pes as f64 * report.seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::simulate;
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, CompileOptions};

    fn run(cmap_bytes: usize) -> (EnergyBreakdown, SimConfig) {
        let g = generators::powerlaw_cluster(400, 6, 0.5, 3);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let cfg = SimConfig { num_pes: 4, cmap_bytes, ..Default::default() };
        let report = simulate(&g, &plan, &cfg);
        (estimate(&report, &cfg), cfg)
    }

    #[test]
    fn energy_is_positive_and_summable() {
        let (e, _) = run(8 * 1024);
        assert!(e.total_mj() > 0.0);
        assert!(e.pe_mj > 0.0);
        assert!(e.cmap_mj > 0.0);
        let manual =
            e.pe_mj + e.siu_mj + e.cmap_mj + e.l1_mj + e.l2_mj + e.noc_mj + e.dram_mj + e.static_mj;
        assert!((e.total_mj() - manual).abs() < 1e-12);
    }

    #[test]
    fn no_cmap_run_spends_no_cmap_energy() {
        let (e, _) = run(0);
        assert_eq!(e.cmap_mj, 0.0);
        assert!(e.siu_mj > 0.0);
    }

    #[test]
    fn cmap_trades_siu_energy_for_cmap_energy() {
        let (with, _) = run(8 * 1024);
        let (without, _) = run(0);
        assert!(with.siu_mj < without.siu_mj);
        assert!(with.cmap_mj > without.cmap_mj);
    }
}
