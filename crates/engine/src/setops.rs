//! Set operations on sorted adjacency lists: two reference merges and one
//! kernel shape.
//!
//! "SIU/SDU uses the well-known merge-based algorithm [39, 42] and its
//! hardware structure is shown in Fig. 9. Our specialized SIU and SDU
//! perform one loop iteration (the while loop in Fig. 9) per cycle" (§IV-A).
//! [`intersect_into`] and [`difference_into`] are that loop, charging
//! [`WorkCounters`] as they walk: `setop_iterations` equals the SIU/SDU
//! cycle count charged by the hardware model, and the software baselines
//! pay for the same loop in CPU comparisons/branches (§III). They are what
//! `paper_faithful` and the simulator's SIU run, and what every other path
//! here is tested against.
//!
//! The default engine's [`intersect`] and [`difference`] are one dispatcher
//! over one shape, *op × sink × bound × membership*:
//!
//! * **op**: keep the elements of `a` found in `b`, or the ones not found —
//!   Fig. 9's one loop with two output conditions (`KEEP`).
//! * **sink** ([`Sink`]): kept elements, each with its position in `a`, are
//!   appended to a list or only counted ([`Count`]). The sink never changes
//!   a charge.
//! * **bound**: an exclusive vid upper bound from the symmetry order; sorted
//!   lists let a kernel stop at the first element that reaches it (the
//!   paper's bounded `pruneBy`, pushed into the loop).
//! * **membership**: "is `x` in `b`" is answered by merging against `b`,
//!   galloping (binary search) into it, or probing its hub bitmap row —
//!   picked per operation and recorded in one tier counter.
//!
//! The charging rule, stated once: every kernel charges one
//! `setop_iterations` per loop iteration and one `comparisons` per executed
//! compare — bound checks and a probe's word test included — so a probe over
//! `|a|` elements and a merge that advances `|a| + |b|` cursors are priced in
//! the same unit, as they walk.

use crate::result::WorkCounters;
use fm_graph::{HubRow, VertexId};
use std::cmp::Ordering;

/// Intersection of two strictly-ascending slices, appended to `out`.
///
/// One merge-loop iteration is charged per advance of either cursor.
pub fn intersect_into(
    a: &[VertexId],
    b: &[VertexId],
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        work.setop_iterations += 1;
        work.comparisons += 1;
        match a[i].cmp(&b[j]) {
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
        }
    }
}

/// Difference `a \ b` of two strictly-ascending slices, appended to `out`.
///
/// One iteration per minuend element plus one per subtrahend advance; the
/// push-only tail after the subtrahend runs out compares nothing.
pub fn difference_into(
    a: &[VertexId],
    b: &[VertexId],
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        work.setop_iterations += 1;
        if j >= b.len() {
            out.push(a[i]);
            i += 1;
            continue;
        }
        work.comparisons += 1;
        match a[i].cmp(&b[j]) {
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => j += 1,
        }
    }
}

/// The sorted prefix of `s` strictly below `bound`, located by binary
/// search. Charges the search's comparisons (⌊log₂|s|⌋ + 1) to `work`; an
/// empty slice charges zero — `partition_point` compares nothing on it.
pub fn bounded_prefix<'a>(
    s: &'a [VertexId],
    bound: VertexId,
    work: &mut WorkCounters,
) -> &'a [VertexId] {
    if !s.is_empty() {
        work.comparisons += s.len().ilog2() as u64 + 1;
    }
    &s[..s.partition_point(|&x| x < bound)]
}

/// Where a kernel's kept elements go — the output port of Fig. 9. Every
/// kernel is generic over it, so a counting run shares the materializing
/// run's loop and charges and only skips the write. Kernels take the sink
/// by value and hand it back: a borrowed list costs one pointer, and a
/// [`Count`] stays in a register while the loop runs.
pub trait Sink {
    /// Takes the next kept element (ascending), `a[at]`.
    fn push(&mut self, at: usize, v: VertexId);
}

impl Sink for &mut Vec<VertexId> {
    #[inline]
    fn push(&mut self, _: usize, v: VertexId) {
        Vec::push(self, v);
    }
}

/// The sink that only counts (triangle-count style leaves).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Count(pub u64);

impl Sink for Count {
    #[inline]
    fn push(&mut self, _: usize, _: VertexId) {
        self.0 += 1;
    }
}

/// The scalar merge: [`intersect_into`] (`KEEP`) or [`difference_into`]
/// with the bound pushed into the loop and the counters kept in locals,
/// stored once on exit. A bounded iteration charges one comparison when the
/// minuend's bound check trips, two when an intersection's second check (on
/// `b`) does, and the merge compare on top when it survives — a difference
/// never bounds `b`, whose cursor must run on for the charges to come out.
#[inline(always)]
fn merge<const KEEP: bool, S: Sink>(
    a: &[VertexId],
    b: &[VertexId],
    bound: Option<VertexId>,
    mut out: S,
    work: &mut WorkCounters,
) -> S {
    let (mut i, mut j) = (0, 0);
    let (mut iterations, mut comparisons) = (0u64, 0u64);
    while i < a.len() && (!KEEP || j < b.len()) {
        iterations += 1;
        if let Some(bound) = bound {
            comparisons += 1;
            if a[i] >= bound {
                break;
            }
            if KEEP {
                comparisons += 1;
                if b[j] >= bound {
                    break;
                }
            }
        }
        let order = if KEEP || j < b.len() {
            comparisons += 1;
            a[i].cmp(&b[j])
        } else {
            Ordering::Less // the subtrahend ran out: the push-only tail
        };
        if order == (if KEEP { Ordering::Equal } else { Ordering::Less }) {
            out.push(i, a[i]);
        }
        i += usize::from(order != Ordering::Greater);
        j += usize::from(order != Ordering::Less);
    }
    work.setop_iterations += iterations;
    work.comparisons += comparisons;
    out
}

/// Galloping (binary-search) intersection, for `|a| ≪ |b|`: one iteration
/// per searched element of the shorter side, ⌊log₂⌋ + 1 comparisons per
/// search over what is left of the longer one. `paper_faithful` and the
/// hardware model never gallop ("we use the same merge-based algorithm as
/// that is used in GraphZero to make fair comparison", §VII-B).
#[inline]
fn gallop<S: Sink>(a: &[VertexId], b: &[VertexId], mut out: S, work: &mut WorkCounters) -> S {
    let a_small = a.len() <= b.len();
    let (small, large) = if a_small { (a, b) } else { (b, a) };
    let (mut iterations, mut comparisons) = (0u64, 0u64);
    let mut lo = 0usize;
    for (i, &x) in small.iter().enumerate() {
        if lo >= large.len() {
            break;
        }
        iterations += 1;
        comparisons += u64::from((large.len() - lo).ilog2()) + 1;
        match large[lo..].binary_search(&x) {
            Ok(pos) => {
                out.push(if a_small { i } else { lo + pos }, x);
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
    }
    work.setop_iterations += iterations;
    work.comparisons += comparisons;
    out
}

/// Streams `a` and probes each element in `b`'s hub bitmap row, keeping the
/// hits (`KEEP`) or the misses: one iteration per streamed element, one
/// comparison for the word test and — bounded — one for the bound check, the
/// element that trips it included. O(|a|), independent of the hub's degree.
#[inline]
fn probe<const KEEP: bool, S: Sink>(
    a: &[VertexId],
    row: HubRow<'_>,
    bound: Option<VertexId>,
    mut out: S,
    work: &mut WorkCounters,
) -> S {
    let (mut iterations, mut comparisons) = (0u64, 0u64);
    for (i, &x) in a.iter().enumerate() {
        iterations += 1;
        if let Some(bound) = bound {
            comparisons += 1;
            if x >= bound {
                break;
            }
        }
        comparisons += 1;
        if row.contains(x) == KEEP {
            out.push(i, x);
        }
    }
    work.setop_iterations += iterations;
    work.comparisons += comparisons;
    out
}

/// One set operation of the default engine — `a ∩ b` (`KEEP`) or `a \ b`
/// below `bound` into `out` — and the one site that charges
/// `setop_invocations` and a tier counter for the kernels behind it, one of
/// each per call: the three tier counters partition `setop_invocations` over
/// any span of dispatched work by construction, and `paper_faithful` runs,
/// which call the reference merges instead, keep them at zero.
///
/// The three-tier rule: probe wins whenever `b` is an indexed hub and — for
/// an intersection — at least as long as `a`: the probe streams exactly
/// `|a|` elements while a merge advances at least `min(|a|,|b|) = |a|`
/// cursors (a difference's merge always streams all of `a`), so the probe
/// is never charged more iterations than an *unbounded* merge — a bounded
/// intersection can stop sooner, on `b`'s first element past the bound
/// (ROADMAP, open items) — and each probed element costs one
/// comparison against galloping's ⌈log₂|b|⌉. A hub *shorter* than `a` can be
/// exhausted early, so the size rule applies instead: gallop once one side
/// is `gallop_ratio` times the other (`0`: never; and never for a
/// difference, whose merge already touches each minuend element once) —
/// the bound then truncates both inputs up front via [`bounded_prefix`],
/// which charges the two searches — else merge. The merge of operands with
/// no hub row that do not gallop — all of a flat graph's short lists —
/// runs right here, inlined into the caller's loop; the other tiers are
/// one call away ([`tiered`]).
#[inline(always)]
fn dispatch<const KEEP: bool, S: Sink>(
    a: &[VertexId],
    b: &[VertexId],
    bound: Option<VertexId>,
    gallop_ratio: usize,
    hub: Option<HubRow<'_>>,
    out: S,
    work: &mut WorkCounters,
) -> S {
    let (small, large) = if a.len() <= b.len() { (a.len(), b.len()) } else { (b.len(), a.len()) };
    let gallops = KEEP && gallop_ratio > 0 && small.saturating_mul(gallop_ratio) <= large;
    work.setop_invocations += 1;
    match hub {
        None if !gallops => {
            work.merge_dispatches += 1;
            merge::<KEEP, S>(a, b, bound, out, work)
        }
        _ => tiered::<KEEP, S>(a, b, bound, gallops, hub, out, work),
    }
}

/// The tiers past the inline merge: a probe, a gallop, or the merge of an
/// operand longer than the hub row it could have probed.
#[inline(never)]
fn tiered<const KEEP: bool, S: Sink>(
    a: &[VertexId],
    b: &[VertexId],
    bound: Option<VertexId>,
    gallops: bool,
    hub: Option<HubRow<'_>>,
    out: S,
    work: &mut WorkCounters,
) -> S {
    match hub {
        Some(row) if !KEEP || b.len() >= a.len() => {
            work.probe_dispatches += 1;
            probe::<KEEP, S>(a, row, bound, out, work)
        }
        _ if gallops => {
            work.gallop_dispatches += 1;
            match bound {
                Some(bd) => {
                    gallop(bounded_prefix(a, bd, work), bounded_prefix(b, bd, work), out, work)
                }
                None => gallop(a, b, out, work),
            }
        }
        _ => {
            work.merge_dispatches += 1;
            merge::<KEEP, S>(a, b, bound, out, work)
        }
    }
}

/// `a ∩ b` below `bound` into `out` — `&mut` a list, or a [`Count`] — which
/// is handed back: galloping when one input is at least `gallop_ratio` times
/// smaller than the other (`0` disables it), a bitmap probe when `hub`
/// carries `b`'s bitset row and `|b| ≥ |a|`, else the merge. Output and
/// counts are identical across tiers.
#[inline]
pub fn intersect<S: Sink>(
    a: &[VertexId],
    b: &[VertexId],
    bound: Option<VertexId>,
    gallop_ratio: usize,
    hub: Option<HubRow<'_>>,
    out: S,
    work: &mut WorkCounters,
) -> S {
    dispatch::<true, S>(a, b, bound, gallop_ratio, hub, out, work)
}

/// `a \ b` below `bound` into `out`, which is handed back: a probe whenever
/// `hub` carries `b`'s bitset row, else the merge.
#[inline]
pub fn difference<S: Sink>(
    a: &[VertexId],
    b: &[VertexId],
    bound: Option<VertexId>,
    hub: Option<HubRow<'_>>,
    out: S,
    work: &mut WorkCounters,
) -> S {
    dispatch::<false, S>(a, b, bound, 0, hub, out, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use Op::{Difference, Intersect};

    /// The op axis of the table.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        Intersect,
        Difference,
    }

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    /// One dispatch of `op` through its public entry point.
    fn set_op<S: Sink>(
        op: Op,
        (a, b): (&[VertexId], &[VertexId]),
        bound: Option<VertexId>,
        gallop_ratio: usize,
        hub: Option<HubRow<'_>>,
        out: S,
        work: &mut WorkCounters,
    ) -> S {
        match op {
            Intersect => intersect(a, b, bound, gallop_ratio, hub, out, work),
            Difference => difference(a, b, bound, hub, out, work),
        }
    }

    /// One dispatch into a fresh list: what it kept and what it charged.
    fn list(
        op: Op,
        operands: (&[VertexId], &[VertexId]),
        bound: Option<VertexId>,
        gallop_ratio: usize,
        hub: Option<HubRow<'_>>,
    ) -> (Vec<VertexId>, WorkCounters) {
        let (mut out, mut w) = (Vec::new(), WorkCounters::default());
        set_op(op, operands, bound, gallop_ratio, hub, &mut out, &mut w);
        (out, w)
    }

    /// The same dispatch into the counting sink.
    fn count(
        op: Op,
        operands: (&[VertexId], &[VertexId]),
        bound: Option<VertexId>,
        gallop_ratio: usize,
        hub: Option<HubRow<'_>>,
    ) -> (u64, WorkCounters) {
        let mut w = WorkCounters::default();
        let Count(n) = set_op(op, operands, bound, gallop_ratio, hub, Count(0), &mut w);
        (n, w)
    }

    /// A sink that keeps the positions in `a` a kernel hands over.
    struct At(Vec<usize>);

    impl Sink for &mut At {
        fn push(&mut self, at: usize, _: VertexId) {
            self.0.push(at);
        }
    }

    /// A reference walking merge into a fresh list.
    fn walk(op: Op, a: &[VertexId], b: &[VertexId]) -> (Vec<VertexId>, WorkCounters) {
        let (mut out, mut w) = (Vec::new(), WorkCounters::default());
        match op {
            Intersect => intersect_into(a, b, &mut out, &mut w),
            Difference => difference_into(a, b, &mut out, &mut w),
        }
        (out, w)
    }

    /// The membership axis of the table, forced through the dispatcher's own
    /// arguments: ratio 0 keeps the merge tier, ratio 1 gallops any shape, a
    /// hub row probes (an intersection only when `|b| >= |a|`).
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum How {
        Merge,
        Gallop,
        Probe,
    }

    /// `s`'s elements below `bound`.
    fn below(s: &[VertexId], bound: Option<VertexId>) -> &[VertexId] {
        &s[..bound.map_or(s.len(), |bd| s.partition_point(|&x| x < bd))]
    }

    /// One cell of the op × sink × bound × membership table on one operand
    /// pair: the list sink against a `BTreeSet`, the counting sink against
    /// the list sink (same count, same charges), each kept element's
    /// position in `a` as the kernel hands it over, exactly one tier counter
    /// and one invocation, and the charges against the reference walking
    /// merges by the one charging rule. `row` must be `b`'s hub row.
    fn check_cell(
        op: Op,
        bound: Option<VertexId>,
        how: How,
        (a, b): (&[VertexId], &[VertexId]),
        row: Option<HubRow<'_>>,
    ) {
        let ctx = format!("{op:?} {how:?} bound={bound:?} |a|={} |b|={}", a.len(), b.len());
        let (ratio, hub) = match how {
            How::Merge => (0, None),
            How::Gallop => (1, None),
            How::Probe => (0, Some(row.expect("a probe cell needs b's hub row"))),
        };
        let (out, w) = list(op, (a, b), bound, ratio, hub);
        let (n, wc) = count(op, (a, b), bound, ratio, hub);
        assert_eq!(n, out.len() as u64, "count sink: {ctx}");
        assert_eq!(wc, w, "the sink never changes a charge: {ctx}");
        let mut at = At(Vec::new());
        set_op(op, (a, b), bound, ratio, hub, &mut at, &mut WorkCounters::default());
        let kept: Vec<VertexId> = at.0.iter().map(|&i| a[i]).collect();
        assert_eq!(kept, out, "positions in a: {ctx}");

        let in_b: BTreeSet<_> = b.iter().copied().collect();
        let keep = |x: &&VertexId| in_b.contains(*x) == (op == Intersect);
        let expect: Vec<VertexId> = below(a, bound).iter().filter(keep).copied().collect();
        assert_eq!(out, expect, "output: {ctx}");

        let tiers = [w.merge_dispatches, w.gallop_dispatches, w.probe_dispatches];
        let forced = [How::Merge, How::Gallop, How::Probe].map(|h| u64::from(h == how));
        assert_eq!((w.setop_invocations, tiers), (1, forced), "one tier, one invocation: {ctx}");

        let (a_p, b_p) = (below(a, bound), below(b, bound));
        let charged = (w.setop_iterations, w.comparisons);
        match how {
            // Nothing cut: the walking merge's charges, plus the bound
            // checks every iteration executes. Cut: the walk over the
            // prefixes (a difference keeps all of `b`), plus at most one
            // iteration in which a check trips after one or two comparisons.
            How::Merge => {
                let (_, walked) = walk(op, a_p, if op == Intersect { b_p } else { b });
                let checks = if bound.is_none() { 0 } else { 1 + u64::from(op == Intersect) };
                let base = walked.comparisons + checks * walked.setop_iterations;
                let trip = w.setop_iterations - walked.setop_iterations;
                let trip_comparisons = w.comparisons - base;
                assert!(trip <= 1 && trip_comparisons <= checks * trip, "bound trip: {ctx}");
                assert_eq!(trip_comparisons == 0, trip == 0, "a trip compares: {ctx}");
                if a_p.len() == a.len() && (op == Difference || b_p.len() == b.len()) {
                    assert_eq!(trip, 0, "nothing cut, nothing trips: {ctx}");
                }
            }
            // The unbounded gallop over the prefixes plus the two searches
            // that found them.
            How::Gallop => {
                let (_, inner) = count(op, (a_p, b_p), None, 1, None);
                let mut searches = WorkCounters::default();
                if let Some(bd) = bound {
                    bounded_prefix(a, bd, &mut searches);
                    bounded_prefix(b, bd, &mut searches);
                }
                assert!(inner.setop_iterations <= a_p.len().min(b_p.len()) as u64, "{ctx}");
                let expect = (inner.setop_iterations, inner.comparisons + searches.comparisons);
                assert_eq!(charged, expect, "gallop × bound: {ctx}");
            }
            // One iteration per streamed element, the tripping one included.
            How::Probe => {
                let tripped = u64::from(a_p.len() < a.len());
                let streamed = a_p.len() as u64 + tripped;
                let word_tests = a_p.len() as u64;
                let expect = if bound.is_some() { streamed + word_tests } else { word_tests };
                assert_eq!(charged, (streamed, expect), "probe: {ctx}");
            }
        }
    }

    /// Every cell the dispatcher can be forced into for one operand pair.
    fn check_all_cells(
        (a, b): (&[VertexId], &[VertexId]),
        bounds: &[Option<VertexId>],
        row: Option<HubRow<'_>>,
    ) {
        for op in [Intersect, Difference] {
            for &bound in bounds {
                for how in [How::Merge, How::Gallop, How::Probe] {
                    let unforceable = match how {
                        How::Gallop => op == Difference,
                        How::Probe => row.is_none() || (op == Intersect && b.len() < a.len()),
                        _ => false,
                    };
                    if unforceable {
                        continue;
                    }
                    check_cell(op, bound, how, (a, b), row);
                }
            }
        }
    }

    /// A star-with-rim graph whose center (vertex 0) is the only hub, for
    /// probe-kernel tests: 0 is adjacent to every odd vertex in 1..=n.
    fn hub_fixture(n: u32) -> fm_graph::HubBitmaps {
        let mut b = fm_graph::GraphBuilder::new();
        for w in (1..=n).step_by(2) {
            b = b.edge(0, w);
        }
        let g = b.build().unwrap();
        fm_graph::HubBitmaps::build(&g, 2, 1 << 20)
    }

    /// The fixture hub's adjacency: the odd vertices in `1..=n`.
    fn odds(n: u32) -> Vec<VertexId> {
        (1..=n).step_by(2).map(VertexId).collect()
    }

    /// Deterministic sorted-dedup list generator for the parity fixtures:
    /// length and gap distribution vary with the seed so the table covers
    /// disjoint, interleaved, and nested operand shapes.
    fn gen_list(seed: u64, len: usize, max_gap: u32) -> Vec<VertexId> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = (state >> 59) as u32;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(VertexId(next));
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            next += 1 + (state >> 33) as u32 % max_gap.max(1);
        }
        out
    }

    /// The three dispatch-tier counters partition `setop_invocations`
    /// across any mix of dispatches — the invariant documented on
    /// [`WorkCounters`], which holds by construction: `dispatch` bumps one
    /// of each at one site.
    #[test]
    fn dispatch_tiers_partition_setop_invocations() {
        let small = v(&[3, 5]);
        let large = odds(399);
        // A hub index whose row 0 covers `large`, so the probe tier is
        // reachable.
        let idx = hub_fixture(399);
        let row = idx.row(VertexId(0)).expect("vertex 0 is a hub");

        let mut w = WorkCounters::default();
        let mut out = Vec::new();
        // Probe tier: hub row present and |b| >= |a|.
        set_op(Intersect, (&small, &large), None, 16, Some(row), &mut out, &mut w);
        // Gallop tier: heavily skewed sizes, no hub.
        set_op(Intersect, (&small, &large), None, 16, None, &mut out, &mut w);
        // Merge tier: balanced sizes (with a bound, which charges extra
        // comparisons but no extra invocation).
        set_op(Intersect, (&small, &small), Some(VertexId(4)), 16, None, &mut out, &mut w);
        // The counting sink and the difference uphold the same rule.
        set_op(Intersect, (&small, &large), None, 16, None, Count(0), &mut w);
        set_op(Difference, (&small, &large), None, 16, Some(row), &mut out, &mut w);
        set_op(Difference, (&small, &small), None, 16, None, Count(0), &mut w);

        assert_eq!(w.setop_invocations, 6);
        assert_eq!(
            w.merge_dispatches + w.gallop_dispatches + w.probe_dispatches,
            w.setop_invocations
        );
        assert_eq!(w.probe_dispatches, 2);
        assert_eq!(w.gallop_dispatches, 2);
        assert_eq!(w.merge_dispatches, 2);
        assert_eq!(w.simd_dispatches, 0, "a frozen word no tier charges");
    }

    #[test]
    fn intersect_matches_btreeset() {
        let a = v(&[1, 3, 5, 7, 9]);
        let b = v(&[2, 3, 4, 7, 10]);
        let (out, w) = walk(Intersect, &a, &b);
        assert_eq!(out, v(&[3, 7]));
        assert!(w.setop_iterations > 0);
        assert_eq!(w.setop_invocations, 1);
        check_all_cells((&a, &b), &[None], None);
    }

    #[test]
    fn bounded_intersection_stops_early() {
        let a = v(&[1, 3, 5, 7, 9]);
        let (out, w) = list(Intersect, (&a, &a), Some(VertexId(6)), 0, None);
        assert_eq!(out, v(&[1, 3, 5]));
        // Early exit: at most 4 iterations for 3 results + the bound check.
        assert!(w.setop_iterations <= 4);
    }

    #[test]
    fn bounded_intersection_charges_executed_comparisons() {
        let bounded = |a: &[u32], b: &[u32], bound| {
            list(Intersect, (&v(a), &v(b)), Some(VertexId(bound)), 0, None)
        };
        // First element already at the bound: the loop runs one iteration
        // and executes exactly one comparison before breaking.
        let (out, w) = bounded(&[5, 6], &[1, 5], 3);
        assert!(out.is_empty());
        assert_eq!((w.setop_iterations, w.comparisons), (1, 1));
        // Second bound check breaks: two comparisons.
        let (_, w) = bounded(&[1, 2], &[4, 5], 3);
        assert_eq!((w.setop_iterations, w.comparisons), (1, 2));
        // A surviving iteration costs both bound checks plus the merge
        // compare.
        let (out, w) = bounded(&[1], &[1], 9);
        assert_eq!(out, v(&[1]));
        assert_eq!(w.comparisons, 3);
    }

    /// Both ways a bound can end the merge's walk: the minuend's prefix ends
    /// first (one comparison in the tripping iteration), or `b`'s does (two).
    #[test]
    fn bounded_merge_charges_both_trip_cases() {
        let evens: Vec<VertexId> = (0..16).step_by(2).chain([100]).map(VertexId).collect();
        let dense: Vec<VertexId> = (0..16).chain([200]).map(VertexId).collect();
        let bound = Some(VertexId(50));
        // Either way the prefixes' walk advances 15 cursors past 8 matches.
        for (a, b, trip_comparisons) in [(&evens, &dense, 1), (&dense, &evens, 2)] {
            let (n, w) = count(Intersect, (a, b), bound, 0, None);
            assert_eq!(n, 8);
            assert_eq!((w.setop_iterations, w.comparisons), (16, 3 * 15 + trip_comparisons));
            check_cell(Intersect, bound, How::Merge, (a, b), None);
        }
        // A difference bounds only its minuend: one trip case, one comparison.
        let (n, w) = count(Difference, (&dense, &evens), bound, 0, None);
        assert_eq!(n, 8);
        assert_eq!((w.setop_iterations, w.comparisons), (16 + 1, 2 * 16 + 1));
        check_cell(Difference, bound, How::Merge, (&dense, &evens), None);
    }

    #[test]
    fn bounded_difference_matches_filtered_difference() {
        let a = v(&[1, 2, 3, 4, 5, 8, 9]);
        let b = v(&[2, 4, 6]);
        let (mut full, _) = walk(Difference, &a, &b);
        let (bounded, _) = list(Difference, (&a, &b), Some(VertexId(6)), 0, None);
        full.retain(|&x| x < VertexId(6));
        assert_eq!(bounded, full);
        // Unreachable bound degenerates to the plain difference.
        let (unbounded, _) = list(Difference, (&a, &b), Some(VertexId(100)), 0, None);
        assert_eq!(unbounded, v(&[1, 3, 5, 8, 9]));
    }

    #[test]
    fn bounded_prefix_cuts_at_bound() {
        let a = v(&[1, 3, 5, 7]);
        let mut w = WorkCounters::default();
        assert_eq!(bounded_prefix(&a, VertexId(5), &mut w), &v(&[1, 3])[..]);
        assert_eq!(bounded_prefix(&a, VertexId(0), &mut w), &[][..]);
        assert_eq!(bounded_prefix(&a, VertexId(99), &mut w), &a[..]);
        assert!(w.comparisons > 0);
    }

    #[test]
    fn adaptive_dispatch_output_is_kernel_independent() {
        let small = v(&[3, 40, 77, 120]);
        let large: Vec<VertexId> = (0..200).filter(|x| x % 3 == 0).map(VertexId).collect();
        for bound in [None, Some(VertexId(80))] {
            // ratio 0 forces the merge kernel; a tiny ratio forces gallop.
            let (merged, _) = list(Intersect, (&small, &large), bound, 0, None);
            let (galloped, _) = list(Intersect, (&small, &large), bound, 1, None);
            assert_eq!(merged, galloped, "bound {bound:?}");
        }
        // Skew within the ratio dispatches to galloping (|small| iters);
        // beyond it the merge kernel runs (≈|a|+|b| iters).
        let one = v(&[50]);
        let big: Vec<VertexId> = (0..100).map(VertexId).collect();
        let (out, w) = list(Intersect, (&one, &big), None, 16, None);
        assert_eq!(out, one);
        assert_eq!(w.setop_iterations, 1, "galloped: one probe for the single element");
        assert_eq!((w.merge_dispatches, w.gallop_dispatches, w.probe_dispatches), (0, 1, 0));
        let (out, w) = list(Intersect, (&one, &big), None, 200, None);
        assert_eq!(out, one);
        assert!(w.setop_iterations > 10, "ratio not met: merge kernel runs");
        assert_eq!((w.merge_dispatches, w.gallop_dispatches, w.probe_dispatches), (1, 0, 0));
    }

    #[test]
    fn probe_kernels_agree_with_merge_kernels() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let adj = odds(99);
        let a: Vec<VertexId> = (0..80).filter(|x| x % 3 == 0).map(VertexId).collect();

        let (merged, _) = walk(Intersect, &a, &adj);
        let (probed, pw) = list(Intersect, (&a, &adj), None, 0, Some(row));
        assert_eq!(probed, merged);
        // Probe cost is exactly |a| iterations, one comparison each.
        assert_eq!(pw.setop_iterations, a.len() as u64);
        assert_eq!(pw.comparisons, a.len() as u64);
        let (n, _) = count(Intersect, (&a, &adj), None, 0, Some(row));
        assert_eq!(n, merged.len() as u64);

        let (merged, _) = walk(Difference, &a, &adj);
        let (probed, _) = list(Difference, (&a, &adj), None, 0, Some(row));
        assert_eq!(probed, merged);
    }

    #[test]
    fn bounded_probe_kernels_respect_bound() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let adj = odds(99);
        let a: Vec<VertexId> = (1..50).map(VertexId).collect();
        let bd = Some(VertexId(20));

        let (out, w) = list(Intersect, (&a, &adj), bd, 0, Some(row));
        let expect: Vec<VertexId> = (1..20).step_by(2).map(VertexId).collect();
        assert_eq!(out, expect);
        // 19 surviving elements plus the element that trips the bound.
        assert_eq!(w.setop_iterations, 20);
        // probe × bounded × count: the same walk without the write.
        let (n, w2) = count(Intersect, (&a, &adj), bd, 0, Some(row));
        assert_eq!(n, expect.len() as u64, "count sink disagrees");
        assert_eq!(w2, w);

        let (out, _) = list(Difference, (&a, &adj), bd, 0, Some(row));
        let expect: Vec<VertexId> = (2..20).step_by(2).map(VertexId).collect();
        assert_eq!(out, expect);
        check_all_cells((&a, &adj), &[bd], Some(row));
    }

    #[test]
    fn adaptive_probe_tier_requires_hub_at_least_as_long() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let adj = odds(99);
        // |a| <= |adj|: the probe tier fires.
        let a: Vec<VertexId> = (0..30).map(VertexId).collect();
        let (out, w) = list(Intersect, (&a, &adj), None, 16, Some(row));
        assert_eq!(w.probe_dispatches, 1);
        assert_eq!(w.setop_iterations, a.len() as u64);
        let expect: Vec<VertexId> = (1..30).step_by(2).map(VertexId).collect();
        assert_eq!(out, expect);
        // |a| > |adj|: falls back to the size rule even with a hub row.
        let long: Vec<VertexId> = (0..200).map(VertexId).collect();
        let (_, w) = list(Intersect, (&long, &adj), None, 16, Some(row));
        assert_eq!(w.probe_dispatches, 0);
        assert_eq!(w.merge_dispatches + w.gallop_dispatches, 1);
    }

    #[test]
    fn adaptive_count_matches_adaptive_into_work() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let adj = odds(99);
        let a: Vec<VertexId> = (0..50).filter(|x| x % 4 != 0).map(VertexId).collect();
        for op in [Intersect, Difference] {
            for hub in [None, Some(row)] {
                for bound in [None, Some(VertexId(33))] {
                    for ratio in [0, 2, 16] {
                        let (out, wi) = list(op, (&a, &adj), bound, ratio, hub);
                        let (n, wc) = count(op, (&a, &adj), bound, ratio, hub);
                        let ctx = format!("{op:?} hub {} ratio {ratio}", hub.is_some());
                        assert_eq!(n, out.len() as u64, "{ctx} bound {bound:?}");
                        assert_eq!(wi, wc, "work parity: {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_difference_probes_iff_hub() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let adj = odds(99);
        let a: Vec<VertexId> = (0..40).map(VertexId).collect();
        for bound in [None, Some(VertexId(25))] {
            // A difference never gallops, whatever the skew allows.
            let (merged, w) = list(Difference, (&a, &adj), bound, 1, None);
            assert_eq!((w.merge_dispatches, w.probe_dispatches), (1, 0));
            let (probed, w) = list(Difference, (&a, &adj), bound, 1, Some(row));
            assert_eq!((w.merge_dispatches, w.probe_dispatches), (0, 1));
            assert_eq!(probed, merged, "bound {bound:?}");
        }
    }

    #[test]
    fn difference_matches_btreeset() {
        let a = v(&[1, 2, 3, 4, 5]);
        let b = v(&[2, 4, 6]);
        assert_eq!(walk(Difference, &a, &b).0, v(&[1, 3, 5]));
        check_all_cells((&a, &b), &[None], None);
    }

    #[test]
    fn difference_with_empty_subtrahend_copies() {
        let a = v(&[1, 2, 3]);
        assert_eq!(walk(Difference, &a, &[]).0, a);
        check_all_cells((&a, &[]), &[None, Some(VertexId(3))], None);
    }

    #[test]
    fn count_agrees_with_materialized() {
        let a = v(&[0, 2, 4, 6, 8, 10]);
        let b = v(&[3, 4, 5, 6, 7]);
        let (out, w) = walk(Intersect, &a, &b);
        let (n, wc) = count(Intersect, (&a, &b), None, 0, None);
        assert_eq!(n, out.len() as u64);
        assert_eq!((wc.setop_iterations, wc.comparisons), (w.setop_iterations, w.comparisons));
    }

    #[test]
    fn galloping_agrees_with_merge() {
        let a = v(&[5, 100, 250]);
        let b: Vec<VertexId> = (0..300).map(VertexId).collect();
        let (galloped, w) = list(Intersect, (&a, &b), None, 1, None);
        assert_eq!(galloped, walk(Intersect, &a, &b).0);
        assert_eq!(w.gallop_dispatches, 1);
        // gallop × bound: both operands are cut first, and both searches
        // are charged.
        check_cell(Intersect, Some(VertexId(120)), How::Gallop, (&a, &b), None);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(walk(Intersect, &[], &v(&[1])).0.is_empty());
        let bounds = [None, Some(VertexId(10))];
        check_all_cells((&v(&[1]), &[]), &bounds, None);
        check_all_cells((&[], &v(&[1])), &bounds, None);
        check_all_cells((&[], &[]), &bounds, None);
    }

    /// The merge tier against the walking merges and a `BTreeSet` — outputs
    /// AND `WorkCounters`, both sinks — across operand shapes from empty to
    /// 130 elements, under every bound form.
    #[test]
    fn merge_tier_holds_across_operand_shapes() {
        let lens = [0usize, 1, 2, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 130];
        for (ai, &al) in lens.iter().enumerate() {
            for (bi, &bl) in lens.iter().enumerate() {
                let a = gen_list(ai as u64 + 3, al, 7);
                let b = gen_list(bi as u64 * 5 + 1, bl, 5);
                let mut bounds = vec![None, Some(VertexId(0)), Some(VertexId(u32::MAX))];
                bounds.extend(a.get(a.len() / 2).copied().map(Some));
                bounds.extend(b.get(b.len() / 2).copied().map(Some));
                for op in [Intersect, Difference] {
                    for &bound in &bounds {
                        check_cell(op, bound, How::Merge, (&a, &b), None);
                    }
                }
            }
        }
    }

    /// The counting sink charges iterations and comparisons identically to
    /// the list sink — one shared sweep over every cell of the table,
    /// including the probe tier's.
    #[test]
    fn count_twins_share_charging_with_materializing_kernels() {
        let idx = hub_fixture(399);
        let row = idx.row(VertexId(0)).unwrap();
        let adj = odds(399);
        for (seed, len, gap) in [(2, 0, 3), (4, 17, 5), (6, 33, 2), (8, 5, 9), (10, 150, 2)] {
            let a = gen_list(seed, len, gap);
            let bounds = [None, Some(VertexId(a.last().map_or(7, |x| x.0 / 2 + 1)))];
            check_all_cells((&a, &adj), &bounds, Some(row));
            check_all_cells((&a, &gen_list(seed + 7, 40, 3)), &bounds, None);
            check_all_cells((&a, &[]), &bounds, None);
        }
    }

    /// [`bounded_prefix`] charges the binary-search cost only when a search
    /// actually runs — an empty slice costs nothing, a one-element slice
    /// costs exactly one comparison.
    #[test]
    fn bounded_prefix_charges_nothing_for_empty_slices() {
        let mut w = WorkCounters::default();
        assert!(bounded_prefix(&[], VertexId(5), &mut w).is_empty());
        assert_eq!(w.comparisons, 0, "empty slice: no search, no charge");
        assert!(bounded_prefix(&v(&[3]), VertexId(5), &mut w).len() == 1);
        assert_eq!(w.comparisons, 1, "singleton: one probe");
    }

    /// `gallop_ratio == 0` is the documented sentinel that disables the
    /// gallop tier outright — even pathologically skewed operands stay on
    /// the merge tier.
    #[test]
    fn gallop_ratio_zero_is_a_disable_sentinel() {
        let one = v(&[901]);
        let big: Vec<VertexId> = (0..1000).map(VertexId).collect();
        let (out, w) = list(Intersect, (&one, &big), None, 0, None);
        assert_eq!(out, one);
        assert_eq!((w.gallop_dispatches, w.merge_dispatches), (0, 1));
        // Any non-zero ratio met by the skew re-enables galloping.
        let (_, w) = list(Intersect, (&one, &big), None, 1, None);
        assert_eq!(w.gallop_dispatches, 1);
    }
}
