//! Fig. 15: PE scaling 1 → 64 with the default 8 kB c-map.
//!
//! Shape targets from the paper: near-linear scaling with PE count; TC on
//! As (the smallest dataset) scales worst because there are too few tasks;
//! 4-CL on As scales better than TC on As (more compute per task); at 64
//! PEs FlexMiner averages 10.6× over 20-thread GraphZero.

use fm_bench::datasets::dataset;
use fm_bench::datasets::DatasetKey;
use fm_bench::harness::{fmt_x, geomean, time_engine, BenchArgs, Table};
use fm_bench::workloads::{workload, WorkloadKey};
use fm_sim::{simulate, SimConfig};

fn main() {
    let args = BenchArgs::parse();
    let pes = [1usize, 2, 4, 8, 16, 32, 64];
    let mut headers = vec!["app".to_string(), "graph".to_string()];
    headers.extend(pes.iter().map(|p| format!("{p}PE")));
    headers.push("64PE-vs-GZ".to_string());
    headers.push("vs-ideal20T".to_string());
    let mut table = Table::new(
        "fig15",
        "PE scaling with 8kB c-map (normalized to 1 PE) and 64-PE speedup over GraphZero",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let apps = [WorkloadKey::Tc, WorkloadKey::Cl4, WorkloadKey::Sl4Cycle];
    let graphs = [DatasetKey::As, DatasetKey::Mi, DatasetKey::Pa];
    let mut final_speedups = Vec::new();
    let mut scaling_as_tc = 0.0;
    let mut scaling_as_cl4 = 0.0;
    for wk in apps {
        let w = workload(wk);
        let plan = w.plan();
        for key in graphs {
            let d = dataset(key, args.quick);
            let (base_secs, _) = time_engine(&d.graph, &plan, args.threads);
            let mut row = vec![wk.label().to_string(), key.label().to_string()];
            let mut one_pe_cycles = 0u64;
            let mut last = 0.0;
            for (i, &n) in pes.iter().enumerate() {
                let cfg = SimConfig { num_pes: n, ..Default::default() };
                let report = simulate(&d.graph, &plan, &cfg);
                if i == 0 {
                    one_pe_cycles = report.cycles;
                }
                let scale = one_pe_cycles as f64 / report.cycles as f64;
                last = scale;
                row.push(fmt_x(scale));
                if n == 64 {
                    let x = base_secs / report.seconds();
                    final_speedups.push(x);
                    row.push(fmt_x(x));
                    row.push(fmt_x(x / 20.0));
                }
            }
            if key == DatasetKey::As && wk == WorkloadKey::Tc {
                scaling_as_tc = last;
            }
            if key == DatasetKey::As && wk == WorkloadKey::Cl4 {
                scaling_as_cl4 = last;
            }
            table.push(row);
        }
    }
    table.note(format!(
        "64-PE geomean speedup over GraphZero-{}T: {} raw, {} vs an ideal 20-thread baseline (paper: 10.60x average)",
        args.threads,
        fmt_x(geomean(&final_speedups)),
        fmt_x(geomean(&final_speedups) / 20.0)
    ));
    table.note(format!(
        "this host has {} hardware thread(s); the ideal-20T column divides by 20 as a lower bound",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    table.note(format!(
        "As scaling at 64 PE — TC {} vs 4-CL {} (paper: TC on As scales worst; 4-CL on As better)",
        fmt_x(scaling_as_tc),
        fmt_x(scaling_as_cl4)
    ));
    table.emit(&args.out).expect("write fig15");
}
