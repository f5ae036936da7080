//! Differential property tests for the SIMD set-op kernel tier: every
//! cell of the dispatcher's op × sink × bound table must be bit-identical
//! between the merge tier and the SIMD tier that replaces it — same
//! output lists, same bounded truncation, and the same `WorkCounters`
//! (the closed-form charging reproduces the scalar walk exactly) — and
//! agree with the two reference walking merges and a `BTreeSet`, over
//! adversarial operands: empty sides, identical lists, disjoint lists,
//! bounds of 0 and past-the-end, and lengths straddling the 4/8-lane
//! vector-width tails. End to end, flipping `EngineConfig::simd` must be
//! invisible to mining results across threads, c-map, and hub modes
//! except for the merge→simd dispatch relabeling.
//!
//! Also built as an `fm-engine` test target, so CI's scalar-fallback step
//! (`--no-default-features`) runs the same table against the engine
//! without the vector kernels.

use fm_engine::setops::{self, Count, Sink};
use fm_engine::{mine, simd, EngineConfig, WorkCounters};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Sorted-dedup vertex list from raw fuzz input.
fn sorted(mut raw: Vec<u32>) -> Vec<VertexId> {
    raw.sort_unstable();
    raw.dedup();
    raw.into_iter().map(VertexId).collect()
}

/// Packs the [`fm_graph::BlockSummaries`]-layout row for `b`: one
/// `last << 32 | first` word per 64-neighbor block.
fn blocks_of(b: &[VertexId]) -> Vec<u64> {
    b.chunks(64).map(|c| (u64::from(c[c.len() - 1].0) << 32) | u64::from(c[0].0)).collect()
}

/// Operand pairs biased toward the adversarial shapes: `b` is either
/// independent fuzz, a copy of `a` (all-equal), a strided subset, or
/// shifted fully disjoint. Lengths run 0..160, straddling both the SSE2
/// 4-lane and AVX2 8-lane block boundaries and their scalar tails.
fn arb_pair() -> impl Strategy<Value = (Vec<VertexId>, Vec<VertexId>)> {
    (prop::collection::vec(0u32..600, 0..160), prop::collection::vec(0u32..600, 0..160), 0u8..4)
        .prop_map(|(a_raw, b_raw, mode)| {
            let a = sorted(a_raw);
            let b = match mode {
                0 => sorted(b_raw),
                1 => a.clone(),
                2 => a.iter().copied().step_by(3).collect(),
                _ => a.iter().map(|&x| VertexId(x.0 + 601)).collect(),
            };
            (a, b)
        })
}

/// The op axis of the table.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Intersect,
    Difference,
}

/// One merge-tier dispatch (no gallop, no hub) into `out`: the scalar
/// merge, or with `simd` the tier that replaces it.
fn merge_tier<S: Sink>(
    op: Op,
    (a, b): (&[VertexId], &[VertexId]),
    bound: Option<VertexId>,
    simd: Option<&[u64]>,
    out: S,
) -> (S, WorkCounters) {
    let mut w = WorkCounters::default();
    let out = match op {
        Op::Intersect => setops::intersect(a, b, bound, 0, None, simd, out, &mut w),
        Op::Difference => setops::difference(a, b, bound, None, simd, out, &mut w),
    };
    (out, w)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Kernel-level differential over the op × sink × bound table: the
    /// SIMD tier agrees with the merge tier on outputs AND charged work,
    /// with and without block summaries, for unbounded and bounded (0,
    /// interior, past-the-end) forms; the counting sink charges what the
    /// list sink does; and the unbounded merge tier is the reference
    /// walking merge.
    #[test]
    fn simd_wrappers_are_bit_identical_to_scalar_kernels(
        (a, b) in arb_pair(),
        bound_pick in 0u8..4,
    ) {
        let blocks_full = blocks_of(&b);
        let bound = match bound_pick {
            0 => VertexId(0),
            1 => VertexId(a.get(a.len() / 2).map_or(300, |x| x.0)),
            2 => VertexId(b.get(b.len() / 2).map_or(17, |x| x.0 + 1)),
            _ => VertexId(u32::MAX),
        };
        let in_b: BTreeSet<VertexId> = b.iter().copied().collect();
        for op in [Op::Intersect, Op::Difference] {
            for bound in [None, Some(bound)] {
                let mut so = Vec::new();
                let (_, ws) = merge_tier(op, (&a, &b), bound, None, &mut so);
                let expect: Vec<VertexId> = a
                    .iter()
                    .filter(|x| bound.is_none_or(|bd| **x < bd))
                    .filter(|x| in_b.contains(*x) == (op == Op::Intersect))
                    .copied()
                    .collect();
                prop_assert_eq!(&so, &expect, "{:?} bound={:?}", op, bound);
                if bound.is_none() {
                    let (mut out, mut w) = (Vec::new(), WorkCounters::default());
                    match op {
                        Op::Intersect => setops::intersect_into(&a, &b, &mut out, &mut w),
                        Op::Difference => setops::difference_into(&a, &b, &mut out, &mut w),
                    }
                    let walked = WorkCounters { merge_dispatches: 1, ..w };
                    prop_assert_eq!((&out, walked), (&so, ws), "{:?} vs the walking merge", op);
                }
                let (n, wn) = merge_tier(op, (&a, &b), bound, None, Count(0));
                prop_assert_eq!((n.0, wn), (so.len() as u64, ws), "scalar count {:?}", op);
                let relabeled = WorkCounters { merge_dispatches: 0, simd_dispatches: 1, ..ws };
                for blocks in [&[][..], &blocks_full[..]] {
                    let ctx = format!("{op:?} |a|={} |b|={} bound={bound:?} blocks={}",
                        a.len(), b.len(), !blocks.is_empty());
                    let mut vo = Vec::new();
                    let (_, wv) = merge_tier(op, (&a, &b), bound, Some(blocks), &mut vo);
                    prop_assert_eq!(&so, &vo, "output {}", &ctx);
                    prop_assert_eq!(relabeled, wv, "charges {}", &ctx);
                    let (n, wn) = merge_tier(op, (&a, &b), bound, Some(blocks), Count(0));
                    prop_assert_eq!((n.0, wn), (vo.len() as u64, wv), "count {}", &ctx);
                }
            }
        }
    }
}

/// Random graphs mixing skewed (hub-bearing) and uniform shapes, as in
/// the hub-bitmap differential suite.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    let hubbed =
        (20u32..60, 2u32..=4, 10u32..40, any::<u64>()).prop_map(|(n, m, hub_deg, seed)| {
            let base = generators::powerlaw_cluster(n as usize, m as usize, 0.5, seed);
            let deg = (hub_deg as usize).min(base.num_vertices());
            generators::attach_hubs(&base, 2, deg, seed ^ 0x9e37)
        });
    let er = (10u32..50, 1u32..=4, any::<u64>())
        .prop_map(|(n, p10, seed)| generators::erdos_renyi(n as usize, p10 as f64 / 10.0, seed));
    (any::<bool>(), hubbed, er).prop_map(|(pick, h, e)| if pick { h } else { e })
}

/// `r_off`'s counters with its merge dispatches relabeled as SIMD — what
/// an otherwise-identical SIMD run must report.
fn relabeled(off: WorkCounters) -> WorkCounters {
    WorkCounters {
        merge_dispatches: 0,
        simd_dispatches: off.merge_dispatches + off.simd_dispatches,
        ..off
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// End-to-end differential: `simd` on/off is result-invisible across
    /// patterns × threads {1,4} × hub — identical counts, status,
    /// and every work counter except the merge→simd relabeling.
    #[test]
    fn simd_toggle_is_result_invisible(
        g in arb_graph(),
        hub in any::<bool>(),
    ) {
        for pattern in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::diamond(),
            Pattern::k_clique(4),
        ] {
            let plan = compile(&pattern, CompileOptions::default());
            for threads in [1usize, 4] {
                let on = EngineConfig {
                    threads,
                    hub_bitmap: hub,
                    hub_degree_threshold: 4,
                    simd: true,
                    ..EngineConfig::default()
                };
                let off = EngineConfig { simd: false, ..on };
                let r_on = mine(&g, &plan, &on);
                let r_off = mine(&g, &plan, &off);
                let ctx = format!("{pattern} threads={threads} hub={hub}");
                prop_assert_eq!(&r_on.counts, &r_off.counts, "counts: {}", &ctx);
                prop_assert_eq!(r_on.status, r_off.status, "status: {}", &ctx);
                prop_assert_eq!(r_off.work.simd_dispatches, 0, "simd off must never dispatch");
                if simd::runtime_available() {
                    prop_assert_eq!(r_on.work, relabeled(r_off.work), "work: {}", &ctx);
                } else {
                    prop_assert_eq!(r_on.work, r_off.work, "work (fallback): {}", &ctx);
                }
            }
        }
    }
}
