//! Hub-bitmap probe-tier ablation (`BENCH_bitmap`).
//!
//! Compares the adaptive engine with the degree-thresholded hub-bitmap
//! index disabled (merge/gallop dispatch only) against the full
//! three-tier dispatcher (merge/gallop/probe) on the hub-heavy Mi
//! stand-in. Counts are asserted identical; only set-op iterations,
//! dispatch mix, and wall-clock move. The index is built once in
//! `prepare` and shared across workers, so build time is excluded from
//! the per-workload timings — matching how the engine amortizes it
//! across patterns in production runs.
//!
//! Expected shape: workloads that intersect candidate frontiers against
//! hub adjacency (SL-diamond, 3-MC) convert their largest merges into
//! O(|frontier|) probes. TC and the cliques run on the degree-oriented
//! DAG, which caps every out-degree and strips the hubs, so they stay on
//! merge/gallop and serve as the control group — and so does SL-4cycle,
//! which a count-only run mines by a pair join that dispatches no set op
//! for the index to serve (its row reads the same sweep twice).

use fm_bench::datasets::{dataset, DatasetKey};
use fm_bench::harness::{fmt_secs, fmt_x, time_engine_with, BenchArgs, Table};
use fm_bench::workloads::{workload, WorkloadKey};
use fm_engine::EngineConfig;

fn main() {
    let args = BenchArgs::parse();
    let d = dataset(DatasetKey::Mi, args.quick);

    let off = EngineConfig { threads: args.threads, hub_bitmap: false, ..EngineConfig::default() };
    let on = EngineConfig { threads: args.threads, hub_bitmap: true, ..EngineConfig::default() };

    let mut table = Table::new(
        "BENCH_bitmap",
        "hub-bitmap probe tier on Mi (set-op iterations and dispatch mix vs the merge/gallop engine)",
        &[
            "workload",
            "iters-off",
            "iters-on",
            "iter-reduction",
            "merge",
            "gallop",
            "probe",
            "t-off",
            "t-on",
            "speedup",
        ],
    );
    let mut best_reduction = 0.0f64;
    for key in WorkloadKey::all() {
        let w = workload(key);
        let plan = w.plan();
        let (t_off, base) = time_engine_with(&d.graph, &plan, &off);
        let (t_on, probed) = time_engine_with(&d.graph, &plan, &on);
        assert_eq!(base.counts, probed.counts, "{}: probe tier changed counts", w.key.label());
        assert!(
            probed.work.setop_iterations <= base.work.setop_iterations,
            "{}: probe tier added iterations",
            w.key.label()
        );
        let reduction =
            base.work.setop_iterations as f64 / probed.work.setop_iterations.max(1) as f64;
        if matches!(key, WorkloadKey::SlDiamond | WorkloadKey::Mc3) {
            best_reduction = best_reduction.max(reduction);
        }
        table.push(vec![
            w.key.label().to_string(),
            base.work.setop_iterations.to_string(),
            probed.work.setop_iterations.to_string(),
            fmt_x(reduction),
            probed.work.merge_dispatches.to_string(),
            probed.work.gallop_dispatches.to_string(),
            probed.work.probe_dispatches.to_string(),
            fmt_secs(t_off),
            fmt_secs(t_on),
            fmt_x(t_off / t_on.max(1e-12)),
        ]);
    }
    assert!(
        best_reduction >= 1.3,
        "acceptance: expected >=1.3x iteration reduction on SL-diamond or 3-MC, got {best_reduction:.2}x"
    );
    table.note(format!(
        "dataset {} ({} vertices), counts identical with the index on and off",
        d.key.label(),
        d.graph.num_vertices()
    ));
    table.note("dispatch columns are the index-on run; figure binaries never enable hub_bitmap");
    table.note("TC/cliques run on the degree-oriented DAG (hubs stripped) and the joined SL-4cycle dispatches no set op, so probes concentrate in SL-diamond and 3-MC");
    table.emit(&args.out).expect("write BENCH_bitmap");
}
