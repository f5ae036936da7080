//! SIMD set-op kernel-tier ablation (`BENCH_simd`).
//!
//! Compares the adaptive engine running every merge-tier dispatch on the
//! scalar kernels against the same engine routed to the vectorized
//! (SSE2/AVX2) kernels with per-block range summaries, on the hub-heavy
//! Mi stand-in. Both configurations disable the gallop tier (the
//! `gallop_ratio == 0` sentinel) and the hub-bitmap probe tier, so every
//! adaptive dispatch lands on the kernel under test and the measured
//! delta is the kernel swap alone. Counts, `RunStatus`, and every work
//! counter are asserted bit-identical — the SIMD tier only relabels
//! merge dispatches — so the rows differ in wall clock and nothing else.
//!
//! Expected shape: the frontier∩adjacency merges of SL-diamond and 3-MC
//! dominate their runtime and vectorize well (8 comparisons per AVX2
//! block pair plus block skipping on skewed operands); TC and the cliques
//! run on the oriented DAG with short adjacency lists, where the vector
//! prologue has less to amortize. SL-4cycle is a second control: a
//! count-only run mines it by a pair join that dispatches no set op, so
//! its row times the same sweep twice. 3-MC's gain shrank from 1.34x to
//! about 1.25x when its wedge leaf stopped materializing and scanning a
//! difference (less of the run is kernel time), which leaves SL-diamond
//! as the one row that clears the gate's 1.3x on its own.

use fm_bench::datasets::{dataset, DatasetKey};
use fm_bench::harness::{fmt_secs, fmt_x, time_engine_with, BenchArgs, Table};
use fm_bench::workloads::{workload, WorkloadKey};
use fm_engine::{simd, EngineConfig, WorkCounters};

fn main() {
    let args = BenchArgs::parse();
    let d = dataset(DatasetKey::Mi, args.quick);

    let scalar = EngineConfig {
        threads: args.threads,
        hub_bitmap: false,
        gallop_ratio: 0,
        simd: false,
        ..EngineConfig::default()
    };
    let vector = EngineConfig { simd: true, ..scalar };

    let mut table = Table::new(
        "BENCH_simd",
        "SIMD set-op kernel tier on Mi (vector vs scalar merge kernels, gallop and probe tiers disabled in both)",
        &[
            "workload",
            "setop-iters",
            "simd-dispatches",
            "t-scalar",
            "t-simd",
            "speedup",
        ],
    );
    let mut sl_mc_wins = 0usize;
    for key in WorkloadKey::all() {
        let w = workload(key);
        let plan = w.plan();
        let (t_scalar, base) = time_engine_with(&d.graph, &plan, &scalar);
        let (t_simd, vectored) = time_engine_with(&d.graph, &plan, &vector);
        assert_eq!(base.counts, vectored.counts, "{}: SIMD tier changed counts", w.key.label());
        assert_eq!(base.status, vectored.status, "{}: SIMD tier changed status", w.key.label());
        // Bit-parity: the vector run's counters are the scalar run's with
        // merge dispatches relabeled as SIMD dispatches, nothing else.
        let expect = if simd::runtime_available() {
            WorkCounters {
                merge_dispatches: 0,
                simd_dispatches: base.work.merge_dispatches,
                ..base.work
            }
        } else {
            base.work
        };
        assert_eq!(expect, vectored.work, "{}: SIMD tier changed charged work", w.key.label());
        let speedup = t_scalar / t_simd.max(1e-12);
        if matches!(key, WorkloadKey::SlDiamond | WorkloadKey::Mc3) && speedup >= 1.3 {
            sl_mc_wins += 1;
        }
        table.push(vec![
            w.key.label().to_string(),
            vectored.work.setop_iterations.to_string(),
            vectored.work.simd_dispatches.to_string(),
            fmt_secs(t_scalar),
            fmt_secs(t_simd),
            fmt_x(speedup),
        ]);
    }
    table.note(format!(
        "dataset {} ({} vertices), ISA tier {}; counts, status, and charged work bit-identical (merge dispatches relabeled simd)",
        d.key.label(),
        d.graph.num_vertices(),
        simd::isa(),
    ));
    table.note("both configs pin gallop_ratio=0 and hub_bitmap=off so every dispatch exercises the kernel under test");
    table.note(
        "setop-iters equal in both runs by charging parity; speedup is pure kernel throughput",
    );
    table.emit(&args.out).expect("write BENCH_simd");
    // Timing gate (full runs only: quick datasets are too small for
    // stable wall-clock ratios, so CI smoke checks parity + emission),
    // after the table so that a miss still shows its rows.
    if !args.quick && simd::runtime_available() {
        assert!(
            sl_mc_wins >= 1,
            "acceptance: expected >=1.3x set-op wall clock on SL-diamond or 3-MC"
        );
    }
}
