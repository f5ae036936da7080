//! Intersection-reuse tier ablation (`BENCH_reuse`).
//!
//! Compares the adaptive engine with the reuse tier disabled against the
//! same engine serving plan-proven sibling-invariant prefixes from the
//! per-worker `ReuseArena` bitmap cache, on the hub-heavy Mi stand-in.
//! Both configurations pin the gallop and hub-bitmap probe tiers off
//! (`gallop_ratio == 0`, `hub_bitmap: false`) so every dispatch the
//! reuse tier intercepts would otherwise land on a bounded merge — the
//! measured iteration delta is the hoisting alone. Counts and
//! `RunStatus` are asserted bit-identical, and the five-tier dispatch
//! partition is asserted on the reuse run.
//!
//! Expected shape: SL-4cycle hoists a single-level prefix (its deepest
//! op re-intersects `N(emb[1])` for every sibling), and SL-diamond and
//! 3-MC hoist their memoized frontiers — all three replace their
//! dominant frontier∩adjacency merges with O(|adjacency|) bitmap
//! probes. TC is too shallow to have a hoistable prefix, and the
//! oriented clique plans keep short DAG adjacency lists below the
//! profitability floor, so they serve as the control group.

use fm_bench::datasets::{dataset, DatasetKey};
use fm_bench::harness::{fmt_secs, fmt_x, time_engine_with, BenchArgs, Table};
use fm_bench::workloads::{workload, WorkloadKey};
use fm_engine::EngineConfig;

fn main() {
    let args = BenchArgs::parse();
    let d = dataset(DatasetKey::Mi, args.quick);

    let off = EngineConfig {
        threads: args.threads,
        hub_bitmap: false,
        gallop_ratio: 0,
        reuse: false,
        ..EngineConfig::default()
    };
    let on = EngineConfig { reuse: true, ..off };

    let mut table = Table::new(
        "BENCH_reuse",
        "intersection reuse on Mi (set-op iterations vs the same engine re-deriving every sibling's intersection)",
        &[
            "workload",
            "iters-off",
            "iters-on",
            "iter-reduction",
            "reuse-hits",
            "misses",
            "builds",
            "arena-hwm",
            "t-off",
            "t-on",
            "speedup",
        ],
    );
    let mut sl_mc_wins = 0usize;
    for key in WorkloadKey::all() {
        let w = workload(key);
        let plan = w.plan();
        let (t_off, base) = time_engine_with(&d.graph, &plan, &off);
        let (t_on, reused) = time_engine_with(&d.graph, &plan, &on);
        assert_eq!(base.counts, reused.counts, "{}: reuse tier changed counts", w.key.label());
        assert_eq!(base.status, reused.status, "{}: reuse tier changed status", w.key.label());
        assert!(
            reused.work.setop_iterations <= base.work.setop_iterations,
            "{}: reuse tier added iterations",
            w.key.label()
        );
        // The reuse tier never changes what is enumerated, only how the
        // candidate sets are derived.
        assert_eq!(base.work.extensions, reused.work.extensions, "{}", w.key.label());
        // Five-tier partition: reuse hits take the invocation slot the
        // adaptive dispatcher would otherwise have charged.
        let wk = &reused.work;
        assert_eq!(
            wk.merge_dispatches
                + wk.gallop_dispatches
                + wk.probe_dispatches
                + wk.simd_dispatches
                + wk.reuse_hits,
            wk.setop_invocations,
            "{}: dispatch tiers must partition invocations",
            w.key.label()
        );
        let reduction =
            base.work.setop_iterations as f64 / reused.work.setop_iterations.max(1) as f64;
        if matches!(key, WorkloadKey::Sl4Cycle | WorkloadKey::SlDiamond | WorkloadKey::Mc3)
            && reduction >= 1.3
        {
            sl_mc_wins += 1;
        }
        table.push(vec![
            w.key.label().to_string(),
            base.work.setop_iterations.to_string(),
            reused.work.setop_iterations.to_string(),
            fmt_x(reduction),
            wk.reuse_hits.to_string(),
            wk.reuse_misses.to_string(),
            wk.prefix_builds.to_string(),
            wk.reuse_bytes_hwm.to_string(),
            fmt_secs(t_off),
            fmt_secs(t_on),
            fmt_x(t_off / t_on.max(1e-12)),
        ]);
    }
    // Iteration gate (full runs only: the scaled-down quick datasets sit
    // near the profitability floor, so CI smoke checks parity + emission).
    if !args.quick {
        assert!(
            sl_mc_wins >= 2,
            "acceptance: expected >=1.3x fewer set-op iterations on >=2 of SL-4cycle/SL-diamond/3-MC, got {sl_mc_wins}"
        );
    }
    table.note(format!(
        "dataset {} ({} vertices), counts and status identical with the tier on and off",
        d.key.label(),
        d.graph.num_vertices()
    ));
    table.note("both configs pin gallop_ratio=0 and hub_bitmap=off so every intercepted dispatch would otherwise be a bounded merge");
    table.note("arena-hwm is the peak reuse-arena bytes over any single start-vertex task; prefix builds charge no set-op iterations (auxiliary index construction)");
    table.emit(&args.out).expect("write BENCH_reuse");
}
