//! Microbenchmarks of the accelerator model's connectivity maps: the two
//! functional layouts (hash vs the |V|-sized vector of [15, 21]) and the
//! hardware timing model's probe-cost behaviour under load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fm_graph::VertexId;
use fm_sim::cmap::{ConnectivityMap, HashCmap, HwCmap, VectorCmap};
use rand::{Rng, SeedableRng};

fn keys(n: usize, universe: u32, seed: u64) -> Vec<u32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..universe)).collect()
}

fn bench_software_cmaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("software-cmap");
    // A realistic working set: one level-bulk of 1k neighbors over a 1M
    // vertex universe, queried 8x each (the read-dominated 4-cycle regime).
    let bulk = keys(1024, 1 << 20, 1);
    let queries = keys(8 * 1024, 1 << 20, 2);
    group.bench_function("hash-insert-query-remove", |b| {
        let mut m = HashCmap::new();
        b.iter(|| {
            for &k in &bulk {
                m.insert(VertexId(k), 1);
            }
            let mut hits = 0u64;
            for &q in &queries {
                hits += m.query(VertexId(q));
            }
            for &k in &bulk {
                m.remove(VertexId(k), 1);
            }
            hits
        });
    });
    group.bench_function("vector-insert-query-remove", |b| {
        // The prior-work layout pays a |V|-sized allocation up front (done
        // here once) and O(1) accesses after.
        let mut m = VectorCmap::new(1 << 20);
        b.iter(|| {
            for &k in &bulk {
                m.insert(VertexId(k), 1);
            }
            let mut hits = 0u64;
            for &q in &queries {
                hits += m.query(VertexId(q));
            }
            for &k in &bulk {
                m.remove(VertexId(k), 1);
            }
            hits
        });
    });
    group.finish();
}

fn bench_hw_model_costs(c: &mut Criterion) {
    // The hardware model's functional+timing accesses at different loads
    // (cost model evaluation, not silicon timing).
    let mut group = c.benchmark_group("hw-cmap-model");
    for &fill in &[200usize, 1200] {
        group.bench_with_input(BenchmarkId::new("probe", fill), &fill, |b, &fill| {
            let mut m = HwCmap::new(1638, 4); // the 8kB configuration
            for k in keys(fill, 1 << 20, 3) {
                m.insert(k, 0);
            }
            let qs = keys(4096, 1 << 20, 4);
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

criterion_group!(benches, bench_software_cmaps, bench_hw_model_costs);
criterion_main!(benches);
