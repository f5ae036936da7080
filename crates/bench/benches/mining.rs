//! End-to-end mining microbenchmarks: the software engine across patterns
//! and modes, and the simulator's wall-clock cost per simulated cycle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fm_engine::{mine, EngineConfig};
use fm_graph::generators;
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};
use fm_sim::{simulate, SimConfig};

fn bench_engine_patterns(c: &mut Criterion) {
    let g = generators::powerlaw_cluster(2000, 6, 0.5, 7);
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    for (name, p) in [
        ("tc", Pattern::triangle()),
        ("4cl", Pattern::k_clique(4)),
        ("4cycle", Pattern::cycle(4)),
        ("diamond", Pattern::diamond()),
    ] {
        let plan = compile(&p, CompileOptions::default());
        // Faithful = the paper's GraphZero-equivalent datapath; the other
        // groups ablate the software-only candidate-generation
        // optimizations against it one tier at a time: bound pushdown,
        // +galloping, +hub-bitmap probes (the full default config). Every
        // non-faithful group counts the 4-cycle by the same pair join —
        // no set op is dispatched for a tier to change — so
        // `faithful/4cycle` is the one group that still enumerates it.
        group.bench_with_input(BenchmarkId::new("faithful", name), &plan, |b, plan| {
            b.iter(|| mine(&g, plan, &EngineConfig::paper_faithful()).counts)
        });
        group.bench_with_input(BenchmarkId::new("bounded", name), &plan, |b, plan| {
            b.iter(|| {
                mine(
                    &g,
                    plan,
                    &EngineConfig { gallop_ratio: 0, hub_bitmap: false, ..Default::default() },
                )
                .counts
            })
        });
        group.bench_with_input(BenchmarkId::new("bounded-gallop", name), &plan, |b, plan| {
            b.iter(|| {
                mine(&g, plan, &EngineConfig { hub_bitmap: false, ..Default::default() }).counts
            })
        });
        group.bench_with_input(BenchmarkId::new("bitmap", name), &plan, |b, plan| {
            b.iter(|| mine(&g, plan, &EngineConfig::default()).counts)
        });
    }
    // AutoMine mode: the symmetry-breaking ablation.
    let auto = compile(&Pattern::triangle(), CompileOptions::automine());
    group.bench_function("automine/tc", |b| {
        b.iter(|| mine(&g, &auto, &EngineConfig::default()).counts)
    });
    group.finish();
}

fn bench_simulator_overhead(c: &mut Criterion) {
    // Host nanoseconds per simulated PE action — the simulator's own
    // performance, which bounds feasible experiment sizes.
    let g = generators::powerlaw_cluster(800, 5, 0.5, 9);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for &pes in &[1usize, 8] {
        group.bench_with_input(BenchmarkId::new("tc-800v", pes), &pes, |b, &pes| {
            b.iter(|| simulate(&g, &plan, &SimConfig::with_pes(pes)).cycles)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_patterns, bench_simulator_overhead);
criterion_main!(benches);
