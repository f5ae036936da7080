//! Microbenchmark of the accelerator model's c-map: the hardware timing
//! model's probe-cost behaviour under load, over its |V|-indexed host store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fm_sim::cmap::HwCmap;
use rand::{Rng, SeedableRng};

/// Vertices the keys are drawn from: a 1M-vertex graph.
const UNIVERSE: u32 = 1 << 20;

fn keys(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..UNIVERSE)).collect()
}

fn bench_hw_model_costs(c: &mut Criterion) {
    // The hardware model's functional+timing accesses at different loads
    // (cost model evaluation, not silicon timing).
    let mut group = c.benchmark_group("hw-cmap-model");
    for &fill in &[200usize, 1200] {
        group.bench_with_input(BenchmarkId::new("probe", fill), &fill, |b, &fill| {
            // The 8kB configuration.
            let mut m = HwCmap::new(1638, 4, UNIVERSE as usize);
            for k in keys(fill, 3) {
                m.insert(k, 0);
            }
            let qs = keys(4096, 4);
            b.iter(|| {
                let mut total = 0u64;
                for &q in &qs {
                    let (bits, cost) = m.query(q);
                    total += bits as u64 + cost;
                }
                total
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hw_model_costs);
criterion_main!(benches);
