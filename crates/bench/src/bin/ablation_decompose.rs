//! §VII-E decomposition: where does the 40-PE (no c-map) speedup come
//! from?
//!
//! "The performance speedup of 40-PE without c-map over CPU baseline is
//! attributed to PE specialization (3.04×) and multithreading (1.76×).
//! The adoption of c-map with a tiny 8kB scratchpad further improves the
//! performance by 1.36×."
//!
//! Decomposition used here (factors multiply to the total):
//!   specialization  = T_cpu(1T)  / T_sim(1PE)
//!   multithreading  = (T_sim(1PE)/T_sim(40PE)) / (T_cpu(1T)/T_cpu(20T))
//!   total(no c-map) = T_cpu(20T) / T_sim(40PE)
//!   c-map factor    = T_sim(40PE, no c-map) / T_sim(40PE, 8kB)

use fm_bench::datasets::dataset;
use fm_bench::harness::{fmt_x, geomean, time_engine, BenchArgs, Table};
use fm_bench::workloads::{workload, WorkloadKey};
use fm_sim::{simulate, SimConfig};

fn main() {
    let args = BenchArgs::parse();
    let mut table = Table::new(
        "ablation_decompose",
        "Speedup decomposition: specialization x multithreading x c-map",
        &["app", "graph", "specialization", "multithreading", "total-no-cmap", "cmap-factor"],
    );
    let cases = [
        (WorkloadKey::Tc, fm_bench::datasets::DatasetKey::Mi),
        (WorkloadKey::Cl4, fm_bench::datasets::DatasetKey::As),
        (WorkloadKey::Sl4Cycle, fm_bench::datasets::DatasetKey::Pa),
        (WorkloadKey::SlDiamond, fm_bench::datasets::DatasetKey::Mi),
    ];
    let mut specs = Vec::new();
    let mut threadings = Vec::new();
    let mut cmaps = Vec::new();
    for (wk, dk) in cases {
        let w = workload(wk);
        let plan = w.plan();
        let d = dataset(dk, args.quick);
        let (cpu1, _) = time_engine(&d.graph, &plan, 1);
        let (cpu20, _) = time_engine(&d.graph, &plan, args.threads);
        let sim = |pes: usize, cmap: usize| {
            let cfg = SimConfig { num_pes: pes, cmap_bytes: cmap, ..Default::default() };
            let r = simulate(&d.graph, &plan, &cfg);
            r.seconds()
        };
        let sim1 = sim(1, 0);
        let sim40 = sim(40, 0);
        let sim40_cmap = sim(40, 8 * 1024);
        let specialization = cpu1 / sim1;
        let multithreading = (sim1 / sim40) / (cpu1 / cpu20);
        let total = cpu20 / sim40;
        let cmap_factor = sim40 / sim40_cmap;
        specs.push(specialization);
        threadings.push(multithreading);
        cmaps.push(cmap_factor);
        table.push(vec![
            wk.label().to_string(),
            dk.label().to_string(),
            fmt_x(specialization),
            fmt_x(multithreading),
            fmt_x(total),
            fmt_x(cmap_factor),
        ]);
    }
    table.note(format!(
        "geomeans — specialization {}, multithreading {}, c-map {} (paper: 3.04x, 1.76x, 1.36x)",
        fmt_x(geomean(&specs)),
        fmt_x(geomean(&threadings)),
        fmt_x(geomean(&cmaps))
    ));
    table.note(format!("CPU baseline threads: {}", args.threads));
    table.emit(&args.out).expect("write ablation_decompose");
}
