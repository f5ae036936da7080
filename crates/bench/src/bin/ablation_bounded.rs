//! Bounded-merge pushdown + adaptive-gallop ablation.
//!
//! Compares the paper-faithful engine (full unbounded SIU/SDU merges, the
//! mode every figure binary times) against the software-only optimizations:
//! symmetry bounds pushed into candidate generation (`bounded`), and
//! bounded generation plus adaptive merge-vs-gallop dispatch
//! (`bounded+gallop`). Counts are asserted identical in every mode; only
//! the work counters and wall-clock move.
//!
//! Expected shape: bound-constrained patterns (diamond, the 3-motifs)
//! shed set-op iterations from the pushdown itself; oriented clique plans
//! have no runtime bounds (the degree DAG subsumes them), so their
//! iteration savings come from galloping skewed intersections instead.
//! The 4-cycle's row is neither: outside `paper_faithful` a count-only
//! run mines it by the pair join (DESIGN.md §6f), and its `bounded` and
//! `gallop` cells are that sweep's streamed elements.

use fm_bench::datasets::{dataset, DatasetKey};
use fm_bench::harness::{fmt_secs, fmt_x, time_engine_with, BenchArgs, Table};
use fm_bench::workloads::{workload, WorkloadKey};
use fm_engine::EngineConfig;

fn main() {
    let args = BenchArgs::parse();
    let d = dataset(DatasetKey::Mi, args.quick);

    let faithful = EngineConfig { threads: args.threads, ..EngineConfig::paper_faithful() };
    // Hub-bitmap probes are pinned off in every mode here so the columns
    // isolate the pushdown and gallop tiers; the probe tier has its own
    // ablation (`ablation_bitmap`).
    let bounded = EngineConfig {
        threads: args.threads,
        gallop_ratio: 0,
        hub_memory_budget: 0,
        ..EngineConfig::default()
    };
    let adaptive =
        EngineConfig { threads: args.threads, hub_memory_budget: 0, ..EngineConfig::default() };

    let mut table = Table::new(
        "ablation_bounded",
        "bounded-merge pushdown and adaptive gallop on Mi (set-op iterations vs the paper-faithful engine)",
        &[
            "workload",
            "iters-faithful",
            "iters-bounded",
            "iters-gallop",
            "iter-reduction",
            "t-faithful",
            "t-gallop",
            "speedup",
        ],
    );
    for key in WorkloadKey::all() {
        let w = workload(key);
        let plan = w.plan();
        let (t_faithful, base) = time_engine_with(&d.graph, &plan, &faithful);
        let (_, mid) = time_engine_with(&d.graph, &plan, &bounded);
        let (t_adaptive, opt) = time_engine_with(&d.graph, &plan, &adaptive);
        assert_eq!(base.counts, mid.counts, "{}: bounded changed counts", w.key.label());
        assert_eq!(base.counts, opt.counts, "{}: gallop changed counts", w.key.label());
        assert!(
            mid.work.setop_iterations <= base.work.setop_iterations,
            "{}: pushdown added iterations",
            w.key.label()
        );
        table.push(vec![
            w.key.label().to_string(),
            base.work.setop_iterations.to_string(),
            mid.work.setop_iterations.to_string(),
            opt.work.setop_iterations.to_string(),
            fmt_x(base.work.setop_iterations as f64 / opt.work.setop_iterations.max(1) as f64),
            fmt_secs(t_faithful),
            fmt_secs(t_adaptive),
            fmt_x(t_faithful / t_adaptive.max(1e-12)),
        ]);
    }
    table.note(format!(
        "dataset {} ({} vertices), counts identical across modes",
        d.key.label(),
        d.graph.num_vertices()
    ));
    table.note("cliques run on the oriented DAG (no runtime bounds), so their reduction comes from galloping alone");
    table.note("SL-4cycle's non-faithful cells are the pair join's sweep, not a pushed-down merge");
    table.emit(&args.out).expect("write ablation_bounded");
}
