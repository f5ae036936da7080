//! §VII-D (large patterns): k-CL for k ∈ [5, 9] on the Pa stand-in.
//!
//! "20-PE FlexMiner outperforms GraphZero by 1.7× to 1.9×. For a pattern
//! of size k, c-map needs 32 bits for the key and k−2 bits for the value
//! [...] FlexMiner can fully benefit from c-map for patterns within
//! 10-vertex."

use fm_bench::datasets::{dataset, DatasetKey};
use fm_bench::harness::{fmt_secs, fmt_x, time_engine, BenchArgs, Table};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};
use fm_sim::{simulate, SimConfig};

fn main() {
    let args = BenchArgs::parse();
    let d = dataset(DatasetKey::Pa, args.quick);
    let mut table = Table::new(
        "large_patterns",
        "k-CL on the Pa stand-in, 20-PE FlexMiner vs GraphZero",
        &["k", "cliques", "baseline", "sim", "speedup", "vs-ideal20T", "cmap-fallbacks"],
    );
    for k in 5..=9 {
        let plan = compile(&Pattern::k_clique(k), CompileOptions::default());
        let (base_secs, base) = time_engine(&d.graph, &plan, args.threads);
        let cfg = SimConfig { num_pes: 20, ..Default::default() };
        let report = simulate(&d.graph, &plan, &cfg);
        assert_eq!(report.counts, base.counts, "k = {k}");
        table.push(vec![
            k.to_string(),
            report.counts[0].to_string(),
            fmt_secs(base_secs),
            fmt_secs(report.seconds()),
            fmt_x(base_secs / report.seconds()),
            fmt_x(base_secs / 20.0 / report.seconds()),
            report.totals.cmap_overflows.to_string(),
        ]);
    }
    table.note("paper: 1.7x–1.9x over GraphZero for k in [5, 9]");
    table.note("beyond the 8-bit c-map value width, deep levels fall back to SIU/SDU (§VII-D)");
    table.emit(&args.out).expect("write large_patterns");
}
