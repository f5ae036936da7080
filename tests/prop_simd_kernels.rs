//! What is left of the vectorized kernel tier: the checks that outlived it.
//!
//! The engine once had a fourth dispatch tier of SSE2/AVX2 merges beside
//! the scalar merge. It is gone (DESIGN.md §6b, "tried and removed"), and
//! these two properties now guard what it left behind:
//!
//! - **The merge tier is the walking merge.** Every cell of the
//!   dispatcher's op × sink × bound table on the merge tier agrees with the
//!   two reference walking merges and a `BTreeSet` — same output lists,
//!   same bounded truncation, and, unbounded, the same `WorkCounters` —
//!   over adversarial operands: empty sides, identical lists, disjoint
//!   lists, and bounds of 0 and past the end.
//! - **The frozen word stays frozen.** End to end, on arbitrary graphs ×
//!   threads × hub index, `WorkCounters::simd_dispatches` stays 0 (the
//!   benchmark still reads it), the three remaining tiers partition
//!   `setop_invocations`, and the counts are `paper_faithful`'s.

use fm_engine::setops::{self, Count, Sink};
use fm_engine::{mine, EngineConfig, WorkCounters};
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

/// Operand pairs biased toward the adversarial shapes: `b` is either
/// independent fuzz, a copy of `a` (all-equal), a strided subset, or
/// shifted fully disjoint. Lengths run 0..160.
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

/// One merge-tier dispatch (no gallop, no hub) into `out`.
fn merge_tier<S: Sink>(
    op: Op,
    (a, b): (&[VertexId], &[VertexId]),
    bound: Option<VertexId>,
    out: S,
) -> (S, WorkCounters) {
    let mut w = WorkCounters::default();
    let out = match op {
        Op::Intersect => setops::intersect(a, b, bound, 0, None, out, &mut w),
        Op::Difference => setops::difference(a, b, bound, None, out, &mut w),
    };
    (out, w)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Kernel-level table over op × sink × bound on the merge tier:
    /// outputs against a `BTreeSet` for unbounded and bounded (0, interior,
    /// past-the-end) forms; the counting sink charges what the list sink
    /// does; and the unbounded merge tier is the reference walking merge,
    /// output and charges both.
    #[test]
    fn simd_wrappers_are_bit_identical_to_scalar_kernels(
        (a, b) in arb_pair(),
        bound_pick in 0u8..4,
    ) {
        let bound = match bound_pick {
            0 => VertexId(0),
            1 => VertexId(a.get(a.len() / 2).map_or(300, |x| x.0)),
            2 => VertexId(b.get(b.len() / 2).map_or(17, |x| x.0 + 1)),
            _ => VertexId(u32::MAX),
        };
        let in_b: BTreeSet<VertexId> = b.iter().copied().collect();
        for op in [Op::Intersect, Op::Difference] {
            for bound in [None, Some(bound)] {
                let ctx = format!("{op:?} |a|={} |b|={} bound={bound:?}", a.len(), b.len());
                let mut so = Vec::new();
                let (_, ws) = merge_tier(op, (&a, &b), bound, &mut so);
                let expect: Vec<VertexId> = a
                    .iter()
                    .filter(|x| bound.is_none_or(|bd| **x < bd))
                    .filter(|x| in_b.contains(*x) == (op == Op::Intersect))
                    .copied()
                    .collect();
                prop_assert_eq!(&so, &expect, "output {}", &ctx);
                let one_merge = WorkCounters { setop_invocations: 1, merge_dispatches: 1, ..ws };
                prop_assert_eq!(ws, one_merge, "one merge dispatch {}", &ctx);
                if bound.is_none() {
                    let (mut out, mut w) = (Vec::new(), WorkCounters::default());
                    match op {
                        Op::Intersect => setops::intersect_into(&a, &b, &mut out, &mut w),
                        Op::Difference => setops::difference_into(&a, &b, &mut out, &mut w),
                    }
                    let walked = WorkCounters { merge_dispatches: 1, ..w };
                    prop_assert_eq!((&out, walked), (&so, ws), "the walking merge {}", &ctx);
                }
                let (n, wn) = merge_tier(op, (&a, &b), bound, Count(0));
                prop_assert_eq!((n.0, wn), (so.len() as u64, ws), "count {}", &ctx);
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// End to end across patterns × threads {1, 4} × hub: no dispatch is
    /// charged to the frozen `simd_dispatches` word, the three tiers
    /// partition `setop_invocations`, and the counts and status are
    /// `paper_faithful`'s.
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
            let faithful = mine(&g, &plan, &EngineConfig::paper_faithful());
            for threads in [1usize, 4] {
                let cfg = EngineConfig {
                    threads,
                    hub_memory_budget: if hub { 8 << 20 } else { 0 },
                    hub_degree_threshold: 4,
                    ..EngineConfig::default()
                };
                let r = mine(&g, &plan, &cfg);
                let ctx = format!("{pattern} threads={threads} hub={hub}");
                prop_assert_eq!(&r.counts, &faithful.counts, "counts: {}", &ctx);
                prop_assert_eq!(r.status, faithful.status, "status: {}", &ctx);
                prop_assert_eq!(r.work.simd_dispatches, 0, "the frozen word moved: {}", &ctx);
                let w = r.work;
                let tiers = w.merge_dispatches + w.gallop_dispatches + w.probe_dispatches;
                prop_assert_eq!(tiers, w.setop_invocations, "three tiers partition: {}", &ctx);
            }
        }
    }
}
