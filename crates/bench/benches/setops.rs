//! Microbenchmarks of the set-operation kernels (the SIU/SDU's software
//! twins): merge intersection/difference vs galloping, and the effect of
//! vid-bounded early exit. These are the operations §III identifies as the
//! dominant cost of software GPM. The merge rows time the reference
//! walking merges; the galloping and bounded rows go through
//! `setops::intersect` with the arguments that force their kernel (a gallop
//! ratio of 1 gallops any shape, 0 keeps the scalar merge).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fm_engine::result::WorkCounters;
use fm_engine::setops;
use fm_graph::VertexId;
use rand::{Rng, SeedableRng};

fn sorted_list(len: usize, universe: u32, seed: u64) -> Vec<VertexId> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
    v.sort_unstable();
    v.dedup();
    v.into_iter().map(VertexId).collect()
}

fn bench_intersections(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection");
    for &len in &[64usize, 1024, 16 * 1024] {
        let a = sorted_list(len, 4 * len as u32, 1);
        let b = sorted_list(len, 4 * len as u32, 2);
        group.throughput(Throughput::Elements((a.len() + b.len()) as u64));
        group.bench_with_input(BenchmarkId::new("merge", len), &len, |bench, _| {
            let mut out = Vec::with_capacity(len);
            let mut w = WorkCounters::default();
            bench.iter(|| {
                out.clear();
                setops::intersect_into(&a, &b, &mut out, &mut w);
                out.len()
            });
        });
        group.bench_with_input(BenchmarkId::new("galloping", len), &len, |bench, _| {
            let mut out = Vec::with_capacity(len);
            let mut w = WorkCounters::default();
            bench.iter(|| {
                out.clear();
                setops::intersect(&a, &b, None, 1, None, None, &mut out, &mut w);
                out.len()
            });
        });
        group.bench_with_input(BenchmarkId::new("merge-bounded-median", len), &len, |bench, _| {
            let mut out = Vec::with_capacity(len);
            let mut w = WorkCounters::default();
            let bound = Some(a[a.len() / 2]);
            bench.iter(|| {
                out.clear();
                setops::intersect(&a, &b, bound, 0, None, None, &mut out, &mut w);
                out.len()
            });
        });
    }
    group.finish();
}

fn bench_asymmetric(c: &mut Criterion) {
    // The hub case: a tiny list against a huge one — where galloping shines
    // and the merge-based SIU pays |a| + |b|.
    let mut group = c.benchmark_group("asymmetric-intersection");
    let small = sorted_list(32, 1 << 20, 3);
    let large = sorted_list(64 * 1024, 1 << 20, 4);
    group.bench_function("merge-32-vs-64k", |bench| {
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        bench.iter(|| {
            out.clear();
            setops::intersect_into(&small, &large, &mut out, &mut w);
            out.len()
        });
    });
    group.bench_function("galloping-32-vs-64k", |bench| {
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        bench.iter(|| {
            out.clear();
            setops::intersect(&small, &large, None, 1, None, None, &mut out, &mut w);
            out.len()
        });
    });
    group.finish();
}

fn bench_difference(c: &mut Criterion) {
    let a = sorted_list(8192, 32 * 1024, 5);
    let b = sorted_list(8192, 32 * 1024, 6);
    c.bench_function("difference-8k", |bench| {
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        bench.iter(|| {
            out.clear();
            setops::difference_into(&a, &b, &mut out, &mut w);
            out.len()
        });
    });
}

criterion_group!(benches, bench_intersections, bench_asymmetric, bench_difference);
criterion_main!(benches);
