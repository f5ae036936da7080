//! §VII-D (large graphs): TC on the Or (orkut) stand-in.
//!
//! "We evaluate a larger graph Or with TC (3-clique). Our simulation shows
//! that 20-PE FlexMiner achieves 2.5× speedup over GraphZero-20T."

use fm_bench::datasets::{dataset, DatasetKey};
use fm_bench::harness::{fmt_secs, fmt_x, time_engine, BenchArgs, Table};
use fm_bench::workloads::{workload, WorkloadKey};
use fm_sim::{simulate, SimConfig};

fn main() {
    let args = BenchArgs::parse();
    let d = dataset(DatasetKey::Or, args.quick);
    let w = workload(WorkloadKey::Tc);
    let plan = w.plan();
    let (base_secs, base) = time_engine(&d.graph, &plan, args.threads);
    let cfg = SimConfig { num_pes: 20, ..Default::default() };
    let report = simulate(&d.graph, &plan, &cfg);
    assert_eq!(report.counts, base.counts);

    let mut table = Table::new(
        "large_graph",
        "TC on the Or stand-in: 20-PE FlexMiner vs GraphZero",
        &["metric", "value"],
    );
    table.push(vec!["triangles".into(), report.counts[0].to_string()]);
    table.push(vec![format!("GraphZero-{}T wall time", args.threads), fmt_secs(base_secs)]);
    table.push(vec!["FlexMiner 20-PE simulated time".into(), fmt_secs(report.seconds())]);
    table.push(vec!["speedup (1-core baseline)".into(), fmt_x(base_secs / report.seconds())]);
    table.push(vec!["speedup vs ideal 20T".into(), fmt_x(base_secs / 20.0 / report.seconds())]);
    table.push(vec!["L2 miss rate".into(), format!("{:.1}%", 100.0 * report.l2_miss_rate())]);
    table.note("paper: 2.5x speedup for 20-PE FlexMiner over GraphZero-20T on Or");
    table.emit(&args.out).expect("write large_graph");
}
