//! Fig. 13: FlexMiner (without c-map) vs 20-thread GraphZero.
//!
//! The paper's headline no-c-map comparison: FlexMiner with 10/20/40 PEs
//! against the 20-thread CPU baseline, average speedups 1.56× / 2.93× /
//! 5.15×. We time our GraphZero-model engine on the host and convert
//! simulated cycles at 1.3 GHz — the same cross-domain comparison the
//! paper makes. Shape targets: more PEs → more speedup; memory-bound TC
//! on the large sparse graphs benefits least (the paper's TC on Pa/Yo
//! even loses).

use fm_bench::datasets::dataset;
use fm_bench::harness::{fmt_secs, fmt_x, geomean, time_engine, BenchArgs, Table};
use fm_bench::workloads::{workload, WorkloadKey};
use fm_sim::{simulate, SimConfig};

fn main() {
    let args = BenchArgs::parse();
    let mut table = Table::new(
        "fig13",
        "FlexMiner (no c-map) speedup over GraphZero (software baseline)",
        &["app", "graph", "baseline-1core", "10PE", "20PE", "40PE", "40PE-vs-ideal20T"],
    );
    let pe_configs = [10usize, 20, 40];
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); pe_configs.len()];
    for wk in WorkloadKey::all() {
        let w = workload(wk);
        let plan = w.plan();
        for key in wk.fig13_datasets() {
            let d = dataset(key, args.quick);
            let (base_secs, base) = time_engine(&d.graph, &plan, args.threads);
            let mut row =
                vec![wk.label().to_string(), key.label().to_string(), fmt_secs(base_secs)];
            let mut last = 0.0;
            for (i, &pes) in pe_configs.iter().enumerate() {
                let cfg = SimConfig { num_pes: pes, cmap_bytes: 0, ..Default::default() };
                let report = simulate(&d.graph, &plan, &cfg);
                assert_eq!(report.counts, base.counts, "sim/engine mismatch");
                let x = base_secs / report.seconds();
                speedups[i].push(x);
                last = x;
                row.push(fmt_x(x));
            }
            // Conservative rescaling for single-core hosts: assume the
            // software baseline would scale perfectly to 20 threads.
            row.push(fmt_x(last / 20.0));
            table.push(row);
        }
    }
    for (i, &pes) in pe_configs.iter().enumerate() {
        table.note(format!(
            "{pes}-PE geomean speedup: {} (paper averages: 10PE 1.56x, 20PE 2.93x, 40PE 5.15x)",
            fmt_x(geomean(&speedups[i]))
        ));
    }
    table.note(format!(
        "baseline: software engine, {} threads, host wall-clock (this host: {} hardware threads)",
        args.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    table.note("the -vs-ideal20T column divides by 20, assuming a perfectly-scaling 20-thread baseline (a lower bound for the speedup on single-core hosts)");
    table.emit(&args.out).expect("write fig13");
}
