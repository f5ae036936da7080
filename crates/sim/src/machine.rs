//! Top-level accelerator simulation: scheduler + PE pool + shared memory.

use crate::addr::AddressMap;
use crate::config::SimConfig;
use crate::mem::MemorySystem;
use crate::pe::Pe;
use crate::stats::{SimReport, TimelineSample, WatchdogDump};
use fm_engine::executor::prepare_graph;
use fm_graph::CsrGraph;
use fm_plan::lowering::{lower, LowerOptions};
use fm_plan::ExecutionPlan;

/// The dynamic task scheduler (Fig. 8): hands out chunks of start vertices
/// to idle PEs. "The scheduler dynamically assigns tasks to available idle
/// PEs."
///
/// Start vertices are issued in descending-degree order: power-law inputs
/// concentrate their work in a few heavy subtrees, and issuing those first
/// lets the long tail of light tasks fill the remaining PEs (longest-
/// processing-time-first list scheduling).
pub(crate) struct Scheduler {
    order: Vec<u32>,
    next: usize,
    chunk: usize,
}

impl Scheduler {
    fn new(g: &CsrGraph, chunk: u32) -> Scheduler {
        let mut order: Vec<u32> = (0..g.num_vertices() as u32).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(g.degree(fm_graph::VertexId(v))));
        Scheduler { order, next: 0, chunk: chunk.max(1) as usize }
    }

    /// Returns the next batch of start vertices (empty = drained).
    pub(crate) fn next_task(&mut self) -> Option<&[u32]> {
        if self.next >= self.order.len() {
            return None;
        }
        let lo = self.next;
        let hi = (lo + self.chunk).min(self.order.len());
        self.next = hi;
        Some(&self.order[lo..hi])
    }
}

/// Simulates the FlexMiner accelerator executing `plan` over `graph`.
///
/// The graph is prepared per the plan (degree orientation for k-clique
/// plans), laid out in accelerator memory, and mined to completion.
/// Functional results (`counts`) are exact and identical to the software
/// engines; timing and traffic figures come from the cycle-level models.
///
/// # Examples
///
/// ```
/// use fm_graph::generators;
/// use fm_pattern::Pattern;
/// use fm_plan::{compile, CompileOptions};
/// use fm_sim::{simulate, SimConfig};
///
/// let g = generators::complete_bipartite(3, 3);
/// let plan = compile(&Pattern::cycle(4), CompileOptions::default());
/// let report = simulate(&g, &plan, &SimConfig::with_pes(4));
/// assert_eq!(report.counts, vec![9]); // C(3,2)² four-cycles
/// ```
///
/// # Panics
///
/// Panics if `cfg` fails [`SimConfig::validate`] (a line size, cache set
/// count or L2 bank count that is not a power of two).
pub fn simulate(graph: &CsrGraph, plan: &ExecutionPlan, cfg: &SimConfig) -> SimReport {
    if let Err(e) = cfg.validate() {
        panic!("unsupported SimConfig: {e}");
    }
    let prepared = prepare_graph(graph, plan);
    let g: &CsrGraph = &prepared;
    let map = AddressMap::for_graph(g);
    // `bounded_pushdown` stays off: the SIU merge FSM (Fig. 9) has no
    // bound port, so the cycle model must charge full unbounded merges to
    // stay comparable with the paper's numbers and the faithful engine.
    let prog =
        lower(plan, LowerOptions { frontier_memo: cfg.frontier_memo, bounded_pushdown: false });
    let mut shared = MemorySystem::new(cfg);
    let mut sched = Scheduler::new(g, cfg.task_chunk);
    let mut pes: Vec<Pe> =
        (0..cfg.num_pes.max(1)).map(|i| Pe::new(i, cfg, prog.depth, plan.patterns.len())).collect();

    let mut watchdog: Option<WatchdogDump> = None;
    let mut timeline: Vec<TimelineSample> = Vec::new();
    let mut next_sample = cfg.timeline_every;
    let mut deadline = cfg.epoch.max(1);
    loop {
        let mut all_done = true;
        for pe in &mut pes {
            pe.run_until(deadline, g, &map, &prog, &mut shared, &mut sched, cfg);
            all_done &= pe.done;
        }
        shared.end_epoch(cfg.epoch.max(1));
        // Timeline sampling at epoch granularity: cumulative counters at
        // this boundary; pure observation, never perturbs the run.
        if cfg.timeline_every > 0 && deadline >= next_sample {
            timeline.push(TimelineSample {
                cycle: deadline,
                l2_accesses: shared.l2_accesses,
                l2_misses: shared.l2_misses,
                cmap_reads: pes.iter().map(|p| p.stats.cmap_reads).sum(),
                cmap_writes: pes.iter().map(|p| p.stats.cmap_writes).sum(),
                busy_cycles: pes.iter().map(|p| p.stats.busy_cycles).sum(),
                done_pes: pes.iter().filter(|p| p.done).count(),
            });
            next_sample = deadline + cfg.timeline_every;
        }
        if all_done {
            break;
        }
        // Watchdog (checked at epoch granularity): a modelling bug that
        // wedges a PE's FSM would otherwise spin this loop forever. Dump
        // every PE's state for diagnosis instead of hanging the host.
        if cfg.watchdog_cycles > 0 && deadline >= cfg.watchdog_cycles {
            watchdog = Some(WatchdogDump {
                cap: cfg.watchdog_cycles,
                pes: pes.iter().map(Pe::fsm_state).collect(),
            });
            break;
        }
        deadline += cfg.epoch.max(1);
    }

    let tripped = watchdog.is_some();
    let mut report = SimReport {
        cycles: if tripped {
            pes.iter().map(|p| p.now).max().unwrap_or(0)
        } else {
            pes.iter().map(|p| p.finish).max().unwrap_or(0)
        },
        watchdog,
        timeline,
        counts: vec![0; plan.patterns.len()],
        pe_finish_cycles: pes.iter().map(|p| p.finish).collect(),
        pe_occupancy: pes.iter().map(|p| p.stats.occupancy).collect(),
        l2_accesses: shared.l2_accesses,
        l2_misses: shared.l2_misses,
        l2_writebacks: shared.l2_writebacks,
        dram_accesses: shared.dram.accesses,
        dram_row_hits: shared.dram.row_hits,
        ..Default::default()
    };
    for pe in &pes {
        for (total, c) in report.counts.iter_mut().zip(&pe.counts) {
            *total += c;
        }
        report.totals.merge(&pe.stats);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_engine::{mine, EngineConfig};
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, compile_multi, CompileOptions};

    fn engine_counts(g: &CsrGraph, plan: &ExecutionPlan) -> Vec<u64> {
        // Cross-checks run the engine in paper-faithful mode, the software
        // twin of the simulated datapath (counts are mode-independent, but
        // faithful keeps the comparison apples-to-apples).
        mine(g, plan, &EngineConfig::paper_faithful()).counts
    }

    #[test]
    #[should_panic(expected = "unsupported SimConfig: line_bytes = 48 is not a power of two")]
    fn odd_geometry_is_refused_at_entry() {
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let cfg = SimConfig { line_bytes: 48, ..Default::default() };
        simulate(&generators::complete(4), &plan, &cfg);
    }

    #[test]
    fn counts_match_engine_across_patterns() {
        let g = generators::powerlaw_cluster(200, 4, 0.5, 42);
        for pattern in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::diamond(),
            Pattern::tailed_triangle(),
            Pattern::k_clique(4),
            Pattern::house(),
        ] {
            let plan = compile(&pattern, CompileOptions::default());
            let report = simulate(&g, &plan, &SimConfig::with_pes(4));
            assert_eq!(report.counts, engine_counts(&g, &plan), "pattern {pattern}");
        }
    }

    #[test]
    fn counts_match_engine_for_motifs() {
        let g = generators::erdos_renyi(80, 0.12, 9);
        let plan = compile_multi(&fm_pattern::motifs::motifs(3), CompileOptions::induced());
        let report = simulate(&g, &plan, &SimConfig::with_pes(8));
        assert_eq!(report.counts, engine_counts(&g, &plan));
    }

    #[test]
    fn pe_count_does_not_change_counts_but_reduces_cycles() {
        let g = generators::powerlaw_cluster(400, 5, 0.5, 7);
        let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
        let one = simulate(&g, &plan, &SimConfig::with_pes(1));
        let sixteen = simulate(&g, &plan, &SimConfig::with_pes(16));
        assert_eq!(one.counts, sixteen.counts);
        assert!(
            sixteen.cycles * 4 < one.cycles,
            "16 PEs should be >4x faster: {} vs {}",
            sixteen.cycles,
            one.cycles
        );
    }

    #[test]
    fn cmap_sizes_do_not_change_counts() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 5);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let reference = engine_counts(&g, &plan);
        for bytes in [0, 64, 1024, 8 * 1024, usize::MAX] {
            let mut cfg = SimConfig::with_cmap_bytes(bytes);
            cfg.num_pes = 2;
            let report = simulate(&g, &plan, &cfg);
            assert_eq!(report.counts, reference, "cmap_bytes = {bytes}");
        }
    }

    /// A configuration where the c-map's memory savings are visible at
    /// test scale: a dense graph whose working set exceeds a deliberately
    /// small private cache, so SIU fallbacks re-fetch edge lists from the
    /// shared level (the regime of the paper's full-size datasets, scaled
    /// down with the cache).
    fn cmap_sensitive_config(cmap_bytes: usize) -> SimConfig {
        SimConfig { num_pes: 4, cmap_bytes, l1_bytes: 2048, ..Default::default() }
    }

    #[test]
    fn cmap_reduces_cycles_for_four_cycle() {
        let g = generators::powerlaw_cluster(600, 12, 0.6, 11);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let without = simulate(&g, &plan, &cmap_sensitive_config(0));
        let with = simulate(&g, &plan, &cmap_sensitive_config(8 * 1024));
        assert!(with.cycles < without.cycles, "{} vs {}", with.cycles, without.cycles);
        assert!(with.totals.cmap_reads > 0);
        assert_eq!(without.totals.cmap_reads, 0);
    }

    #[test]
    fn cmap_reduces_noc_traffic_for_four_cycle() {
        // Fig. 16: for 4-cycle the c-map cuts edgelist re-fetches.
        let g = generators::powerlaw_cluster(600, 12, 0.6, 11);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let without = simulate(&g, &plan, &cmap_sensitive_config(0));
        let with = simulate(&g, &plan, &cmap_sensitive_config(8 * 1024));
        assert!(
            with.noc_traffic() < without.noc_traffic(),
            "{} vs {}",
            with.noc_traffic(),
            without.noc_traffic()
        );
    }

    #[test]
    fn tiny_caches_only_slow_things_down() {
        let g = generators::powerlaw_cluster(120, 4, 0.5, 19);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let normal = simulate(&g, &plan, &SimConfig::with_pes(2));
        let mut tiny = SimConfig::with_pes(2);
        tiny.l1_bytes = 256;
        tiny.l2_bytes = 1024;
        let constrained = simulate(&g, &plan, &tiny);
        assert_eq!(normal.counts, constrained.counts);
        assert!(constrained.cycles > normal.cycles);
        assert!(constrained.dram_accesses > normal.dram_accesses);
    }

    #[test]
    fn report_statistics_are_consistent() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 3);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let cfg = SimConfig::with_pes(4);
        let r = simulate(&g, &plan, &cfg);
        assert!(r.cycles > 0);
        assert_eq!(r.pe_finish_cycles.len(), 4);
        assert!(r.totals.extensions > 0);
        // Every L1 miss and writeback goes over the NoC.
        assert_eq!(r.noc_traffic(), r.totals.l1_misses + r.totals.writebacks);
        // The c-map sees heavy read reuse on 4-cycle (§VII-C quotes >85%).
        assert!(r.cmap_read_ratio() > 0.5, "read ratio {}", r.cmap_read_ratio());
        assert!(r.seconds(&cfg) > 0.0);
        assert!(r.imbalance() >= 1.0);
    }

    #[test]
    fn occupancy_partitions_busy_cycles() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 3);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let r = simulate(&g, &plan, &SimConfig::with_pes(4));
        assert_eq!(r.pe_occupancy.len(), 4);
        // Per PE the occupancy classes exactly partition its busy cycles;
        // aggregated, they partition the machine total.
        let machine: u64 = r.pe_occupancy.iter().flatten().sum();
        assert_eq!(machine, r.totals.busy_cycles);
        assert_eq!(r.totals.occupancy.iter().sum::<u64>(), r.totals.busy_cycles);
        // A real run exercises every class: scheduler hand-offs (Idle),
        // embedding pushes (Extending), candidate streaming (Iterating).
        for class in 0..3 {
            assert!(
                r.pe_occupancy.iter().any(|occ| occ[class] > 0),
                "class {} never charged",
                crate::stats::FSM_STATE_NAMES[class]
            );
        }
    }

    #[test]
    fn timeline_sampling_observes_without_perturbing() {
        let g = generators::powerlaw_cluster(200, 4, 0.5, 7);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let plain = simulate(&g, &plan, &SimConfig::with_pes(3));
        assert!(plain.timeline.is_empty());
        let mut cfg = SimConfig::with_pes(3);
        cfg.timeline_every = cfg.epoch;
        let sampled = simulate(&g, &plan, &cfg);
        // Observation only: identical counts, cycles, and counters.
        assert_eq!(sampled.counts, plain.counts);
        assert_eq!(sampled.cycles, plain.cycles);
        assert_eq!(sampled.totals, plain.totals);
        assert!(!sampled.timeline.is_empty());
        // Samples are strictly ordered and cumulative (monotone counters).
        for pair in sampled.timeline.windows(2) {
            assert!(pair[0].cycle < pair[1].cycle);
            assert!(pair[0].l2_accesses <= pair[1].l2_accesses);
            assert!(pair[0].busy_cycles <= pair[1].busy_cycles);
            assert!(pair[0].done_pes <= pair[1].done_pes);
        }
        let last = sampled.timeline.last().unwrap();
        assert_eq!(last.l2_accesses, sampled.l2_accesses);
        assert_eq!(last.done_pes, 3);
    }

    #[test]
    fn simulation_is_deterministic() {
        let g = generators::powerlaw_cluster(100, 4, 0.4, 2);
        let plan = compile(&Pattern::diamond(), CompileOptions::default());
        let a = simulate(&g, &plan, &SimConfig::with_pes(3));
        let b = simulate(&g, &plan, &SimConfig::with_pes(3));
        assert_eq!(a, b);
    }

    #[test]
    fn watchdog_trips_and_dumps_fsm_state() {
        let g = generators::powerlaw_cluster(300, 5, 0.5, 21);
        let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
        let mut cfg = SimConfig::with_pes(2);
        let full = simulate(&g, &plan, &cfg);
        assert!(full.watchdog.is_none());
        // Cap the clock well below the full run: the simulation must stop
        // at the cap instead of draining, and report every PE's FSM.
        cfg.watchdog_cycles = full.cycles / 4;
        cfg.epoch = 256;
        let tripped = simulate(&g, &plan, &cfg);
        let dump = tripped.watchdog.as_ref().expect("watchdog should trip");
        assert_eq!(dump.cap, cfg.watchdog_cycles);
        assert_eq!(dump.pes.len(), 2);
        assert!(dump.stuck_pes().count() > 0);
        for pe in dump.stuck_pes() {
            // A working (non-done) PE is inside a task: its FSM stack is
            // non-empty and the top frame renders for diagnosis.
            assert!(pe.stack_depth > 0);
            assert!(pe.top_frame.is_some());
            assert!(!pe.embedding.is_empty());
        }
        assert!(tripped.cycles < full.cycles);
        // Partial counts never exceed the full run's.
        for (partial, total) in tripped.counts.iter().zip(&full.counts) {
            assert!(partial <= total);
        }
    }

    #[test]
    fn generous_watchdog_does_not_perturb_the_run() {
        let g = generators::powerlaw_cluster(120, 4, 0.5, 8);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let unbounded = simulate(&g, &plan, &SimConfig::with_pes(3));
        let mut cfg = SimConfig::with_pes(3);
        cfg.watchdog_cycles = unbounded.cycles * 10;
        let guarded = simulate(&g, &plan, &cfg);
        assert!(guarded.watchdog.is_none());
        assert_eq!(guarded.counts, unbounded.counts);
        assert_eq!(guarded.cycles, unbounded.cycles);
    }

    #[test]
    fn empty_graph_terminates() {
        let g = fm_graph::GraphBuilder::new().vertices(3).build().unwrap();
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let r = simulate(&g, &plan, &SimConfig::with_pes(2));
        assert_eq!(r.counts, vec![0]);
    }
}
