//! Merge-based set operations on sorted adjacency lists.
//!
//! "SIU/SDU uses the well-known merge-based algorithm [39, 42] and its
//! hardware structure is shown in Fig. 9. Our specialized SIU and SDU
//! perform one loop iteration (the while loop in Fig. 9) per cycle" (§IV-A).
//! The `iterations` counter below therefore equals the SIU/SDU cycle count
//! charged by the hardware model, and the software baselines pay for the
//! same loop in CPU comparisons/branches (§III).

//! Beyond the merge kernels, this module provides galloping (binary
//! search), hub-bitmap *probe*, and vectorized *SIMD* kernels, plus the
//! adaptive dispatchers ([`intersect_adaptive_into`],
//! [`intersect_adaptive_count`], [`difference_adaptive_into`]) that pick
//! a kernel per operation from operand sizes, hub membership, and the
//! engine's SIMD state. Probe kernels charge one `setop_iterations` per
//! probed element, so the ablation columns stay comparable across
//! kernels: a probe over `|a|` elements and a merge that advances
//! `|a| + |b|` cursors are priced in the same unit.
//!
//! The SIMD tier ([`intersect_simd_into`] and friends) wraps the
//! uncharged vector kernels of [`crate::simd`] and charges
//! [`WorkCounters`] in *closed form*: the scalar merge's exit state —
//! and with it the exact `setop_iterations`/`comparisons` it would have
//! charged — is a function of the operand data alone, recovered with a
//! few binary searches. The tier is therefore bit-parity with the scalar
//! path on every counter; only `simd_dispatches` (instead of
//! `merge_dispatches`) and wall-clock differ.

use crate::result::WorkCounters;
use fm_graph::{HubRow, VertexId};

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
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
}

/// Like [`intersect_into`], but stops once elements reach `bound`
/// (exclusive). The symmetry-order vid upper bounds let merges terminate
/// early on sorted lists — a pruning the paper's bounded `pruneBy`
/// exploits.
pub fn intersect_bounded_into(
    a: &[VertexId],
    b: &[VertexId],
    bound: VertexId,
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        work.setop_iterations += 1;
        // Comparisons are charged as executed: one when the first bound
        // check short-circuits, two when the second does, and a third for
        // the merge compare of a surviving iteration.
        work.comparisons += 1;
        if a[i] >= bound {
            break;
        }
        work.comparisons += 1;
        if b[j] >= bound {
            break;
        }
        work.comparisons += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
}

/// Difference `a \ b` of two strictly-ascending slices, appended to `out`.
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
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
        }
    }
}

/// Like [`difference_into`], but stops once minuend elements reach `bound`
/// (exclusive) — the SDU counterpart of [`intersect_bounded_into`] for
/// bounded-build candidate generation.
pub fn difference_bounded_into(
    a: &[VertexId],
    b: &[VertexId],
    bound: VertexId,
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        work.setop_iterations += 1;
        work.comparisons += 1;
        if a[i] >= bound {
            break;
        }
        if j >= b.len() {
            out.push(a[i]);
            i += 1;
            continue;
        }
        work.comparisons += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
        }
    }
}

/// Counts `|a ∩ b|` without materializing (used by triangle-count style
/// leaves and microbenchmarks).
pub fn intersect_count(a: &[VertexId], b: &[VertexId], work: &mut WorkCounters) -> u64 {
    work.setop_invocations += 1;
    let (mut i, mut j) = (0, 0);
    let mut n = 0;
    while i < a.len() && j < b.len() {
        work.setop_iterations += 1;
        work.comparisons += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    n
}

/// Galloping (binary-search) intersection: preferable when `|a| ≪ |b|`.
/// The default engine's gallop tier (`choose_tier` routes here once one
/// side is `gallop_ratio` times the other). The `paper_faithful` engine
/// and the hardware model never call it: they keep the merge algorithm to
/// match GraphZero and the SIU ("we use the same merge-based algorithm as
/// that is used in GraphZero to make fair comparison", §VII-B).
pub fn intersect_galloping_into(
    a: &[VertexId],
    b: &[VertexId],
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut lo = 0usize;
    for &x in small {
        work.setop_iterations += 1;
        match large[lo..].binary_search(&x) {
            Ok(pos) => {
                work.comparisons += (large.len() - lo).max(1).ilog2() as u64 + 1;
                out.push(x);
                lo += pos + 1;
            }
            Err(pos) => {
                work.comparisons += (large.len() - lo).max(1).ilog2() as u64 + 1;
                lo += pos;
            }
        }
        if lo >= large.len() {
            break;
        }
    }
}

/// The sorted prefix of `s` strictly below `bound`, located by binary
/// search. Charges the probe's comparisons (≈⌈log₂|s|⌉) to `work`; an
/// empty slice charges zero — `partition_point` executes no comparison
/// on it. (Charging one anyway was the same executed-vs-formula
/// over-charging bug class PR 1 fixed in `intersect_bounded_into`.)
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

/// Counting twin of [`intersect_bounded_into`]: identical iteration and
/// comparison charging, no materialization.
pub fn intersect_bounded_count(
    a: &[VertexId],
    b: &[VertexId],
    bound: VertexId,
    work: &mut WorkCounters,
) -> u64 {
    work.setop_invocations += 1;
    let (mut i, mut j) = (0, 0);
    let mut n = 0;
    while i < a.len() && j < b.len() {
        work.setop_iterations += 1;
        work.comparisons += 1;
        if a[i] >= bound {
            break;
        }
        work.comparisons += 1;
        if b[j] >= bound {
            break;
        }
        work.comparisons += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    n
}

/// Counting twin of [`intersect_galloping_into`]: identical iteration and
/// comparison charging, no materialization.
pub fn intersect_galloping_count(a: &[VertexId], b: &[VertexId], work: &mut WorkCounters) -> u64 {
    work.setop_invocations += 1;
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut lo = 0usize;
    let mut n = 0;
    for &x in small {
        work.setop_iterations += 1;
        match large[lo..].binary_search(&x) {
            Ok(pos) => {
                work.comparisons += (large.len() - lo).max(1).ilog2() as u64 + 1;
                n += 1;
                lo += pos + 1;
            }
            Err(pos) => {
                work.comparisons += (large.len() - lo).max(1).ilog2() as u64 + 1;
                lo += pos;
            }
        }
        if lo >= large.len() {
            break;
        }
    }
    n
}

/// Intersection of `a` with a hub's adjacency bitset: streams `a` and
/// probes each element. One iteration and one comparison (the word test)
/// per probed element — O(|a|), independent of the hub's degree.
pub fn intersect_probe_into(
    a: &[VertexId],
    hub: HubRow<'_>,
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    for &x in a {
        work.setop_iterations += 1;
        work.comparisons += 1;
        if hub.contains(x) {
            out.push(x);
        }
    }
}

/// Like [`intersect_probe_into`], stopping once streamed elements reach
/// `bound` (exclusive). The bound check is charged as an executed
/// comparison, mirroring [`intersect_bounded_into`].
pub fn intersect_probe_bounded_into(
    a: &[VertexId],
    hub: HubRow<'_>,
    bound: VertexId,
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    for &x in a {
        work.setop_iterations += 1;
        work.comparisons += 1;
        if x >= bound {
            break;
        }
        work.comparisons += 1;
        if hub.contains(x) {
            out.push(x);
        }
    }
}

/// Counting twin of [`intersect_probe_into`].
pub fn intersect_probe_count(a: &[VertexId], hub: HubRow<'_>, work: &mut WorkCounters) -> u64 {
    work.setop_invocations += 1;
    let mut n = 0;
    for &x in a {
        work.setop_iterations += 1;
        work.comparisons += 1;
        if hub.contains(x) {
            n += 1;
        }
    }
    n
}

/// Counting twin of [`intersect_probe_bounded_into`].
pub fn intersect_probe_bounded_count(
    a: &[VertexId],
    hub: HubRow<'_>,
    bound: VertexId,
    work: &mut WorkCounters,
) -> u64 {
    work.setop_invocations += 1;
    let mut n = 0;
    for &x in a {
        work.setop_iterations += 1;
        work.comparisons += 1;
        if x >= bound {
            break;
        }
        work.comparisons += 1;
        if hub.contains(x) {
            n += 1;
        }
    }
    n
}

/// Difference `a \ N(hub)` via bitmap probes: streams `a`, keeping the
/// elements whose probe misses.
pub fn difference_probe_into(
    a: &[VertexId],
    hub: HubRow<'_>,
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    for &x in a {
        work.setop_iterations += 1;
        work.comparisons += 1;
        if !hub.contains(x) {
            out.push(x);
        }
    }
}

/// Like [`difference_probe_into`], stopping once minuend elements reach
/// `bound` (exclusive).
pub fn difference_probe_bounded_into(
    a: &[VertexId],
    hub: HubRow<'_>,
    bound: VertexId,
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    for &x in a {
        work.setop_iterations += 1;
        work.comparisons += 1;
        if x >= bound {
            break;
        }
        work.comparisons += 1;
        if !hub.contains(x) {
            out.push(x);
        }
    }
}

// ---------------------------------------------------------------------
// SIMD tier: vectorized kernels with closed-form scalar-parity charging.
//
// The scalar merge kernels above charge counters *as they walk*; the
// vector kernels of `crate::simd` do not walk element-by-element, so the
// wrappers below recover the scalar walk's exit state after the fact and
// charge the exact totals the scalar kernel would have. Each derivation
// is pinned by `scalar_charging_parity_is_closed_form` below and the
// differential property test `tests/prop_simd_kernels.rs`.
// ---------------------------------------------------------------------

/// Elements of `s` that are `<= t` — the resting point of a merge cursor
/// that stopped at the first element past `t`.
#[inline]
fn cursor_at(s: &[VertexId], t: VertexId) -> u64 {
    s.partition_point(|&x| x <= t) as u64
}

/// Charges what [`intersect_into`]/[`intersect_count`] would have: with
/// either side empty the loop never runs; otherwise it exits when one
/// cursor passes `t = min(a_last, b_last)`, having advanced
/// `i_f + j_f - m` times (matches advance both cursors at once), one
/// comparison per iteration.
fn charge_intersect_exit(a: &[VertexId], b: &[VertexId], m: u64, work: &mut WorkCounters) {
    let (Some(&a_last), Some(&b_last)) = (a.last(), b.last()) else { return };
    let t = a_last.min(b_last);
    let s = cursor_at(a, t) + cursor_at(b, t) - m;
    work.setop_iterations += s;
    work.comparisons += s;
}

/// Charges what [`intersect_bounded_into`]/[`intersect_bounded_count`]
/// would have. The bounded loop is the unbounded merge over the
/// below-`bound` prefixes (`a_p`/`b_p` long) — three comparisons per
/// surviving iteration — plus, unless a side ran out entirely, one extra
/// iteration in which a bound check trips: after one comparison when the
/// minuend prefix ended, after two when the other side's did.
fn charge_intersect_bounded_exit(
    a: &[VertexId],
    b: &[VertexId],
    a_p: usize,
    b_p: usize,
    m: u64,
    work: &mut WorkCounters,
) {
    let (ap, bp) = (&a[..a_p], &b[..b_p]);
    let (i_f, j_f) = match (ap.last(), bp.last()) {
        (Some(&al), Some(&bl)) => {
            let t = al.min(bl);
            (cursor_at(ap, t), cursor_at(bp, t))
        }
        _ => (0, 0),
    };
    let s = i_f + j_f - m;
    let (extra_iter, extra_comp) = if i_f as usize == a.len() || j_f as usize == b.len() {
        (0, 0) // a real side exhausted: the loop condition ends the walk
    } else if i_f as usize == a_p {
        (1, 1) // next minuend element trips the first bound check
    } else {
        (1, 2) // minuend survives; the subtrahend trips the second check
    };
    work.setop_iterations += s + extra_iter;
    work.comparisons += 3 * s + extra_comp;
}

/// Charges what [`difference_into`] would have: one iteration per minuend
/// element plus one per subtrahend advance (`j_f = |{y ∈ b : y ≤ a_last}|`,
/// matches advance both at once), and one comparison per iteration
/// *except* the push-only tail after the subtrahend is exhausted.
fn charge_difference_exit(a: &[VertexId], b: &[VertexId], m: u64, work: &mut WorkCounters) {
    let Some(&a_last) = a.last() else { return };
    let j_f = if b.is_empty() { 0 } else { cursor_at(b, a_last) };
    let s = a.len() as u64 + j_f - m;
    let uncompared = if b.is_empty() {
        a.len() as u64
    } else if j_f == b.len() as u64 {
        a.len() as u64 - cursor_at(a, b[b.len() - 1])
    } else {
        0
    };
    work.setop_iterations += s;
    work.comparisons += s - uncompared;
}

/// Charges what [`difference_bounded_into`] would have: the unbounded
/// difference walk over the below-`bound` minuend prefix against the
/// *full* subtrahend — every iteration pays the bound check, surviving
/// iterations with a live subtrahend cursor pay the merge compare too —
/// plus one trip iteration (one comparison) when the bound cut anything.
fn charge_difference_bounded_exit(
    a: &[VertexId],
    b: &[VertexId],
    a_p: usize,
    m: u64,
    work: &mut WorkCounters,
) {
    let ap = &a[..a_p];
    let trip = u64::from(a_p < a.len());
    let Some(&ap_last) = ap.last() else {
        work.setop_iterations += trip;
        work.comparisons += trip;
        return;
    };
    let j_f = if b.is_empty() { 0 } else { cursor_at(b, ap_last) };
    let s = a_p as u64 + j_f - m;
    let uncompared = if b.is_empty() {
        a_p as u64
    } else if j_f == b.len() as u64 {
        a_p as u64 - cursor_at(ap, b[b.len() - 1])
    } else {
        0
    };
    work.setop_iterations += s + trip;
    work.comparisons += 2 * s - uncompared + trip;
}

/// SIMD twin of [`intersect_into`]: vector kernel, scalar-parity charges.
/// `b_blocks` is `b`'s [`fm_graph::BlockSummaries`] row (empty: no
/// skipping).
pub fn intersect_simd_into(
    a: &[VertexId],
    b: &[VertexId],
    b_blocks: &[u64],
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    let before = out.len();
    crate::simd::intersect_raw(a, b, b_blocks, out);
    charge_intersect_exit(a, b, (out.len() - before) as u64, work);
}

/// SIMD twin of [`intersect_bounded_into`]. The bound is applied by
/// truncating both operands up front (uncharged, exactly like the scalar
/// kernel's bound checks are not merge comparisons); the subtrahend's
/// block summaries stay valid for its prefix — a full block's packed
/// maximum only over-approximates the truncated block's, which skips
/// less, never wrongly.
pub fn intersect_simd_bounded_into(
    a: &[VertexId],
    b: &[VertexId],
    bound: VertexId,
    b_blocks: &[u64],
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    let a_p = a.partition_point(|&x| x < bound);
    let b_p = b.partition_point(|&x| x < bound);
    let before = out.len();
    crate::simd::intersect_raw(&a[..a_p], &b[..b_p], b_blocks, out);
    charge_intersect_bounded_exit(a, b, a_p, b_p, (out.len() - before) as u64, work);
}

/// SIMD twin of [`intersect_count`].
pub fn intersect_simd_count(
    a: &[VertexId],
    b: &[VertexId],
    b_blocks: &[u64],
    work: &mut WorkCounters,
) -> u64 {
    work.setop_invocations += 1;
    let m = crate::simd::intersect_count_raw(a, b, b_blocks);
    charge_intersect_exit(a, b, m, work);
    m
}

/// SIMD twin of [`intersect_bounded_count`].
pub fn intersect_simd_bounded_count(
    a: &[VertexId],
    b: &[VertexId],
    bound: VertexId,
    b_blocks: &[u64],
    work: &mut WorkCounters,
) -> u64 {
    work.setop_invocations += 1;
    let a_p = a.partition_point(|&x| x < bound);
    let b_p = b.partition_point(|&x| x < bound);
    let m = crate::simd::intersect_count_raw(&a[..a_p], &b[..b_p], b_blocks);
    charge_intersect_bounded_exit(a, b, a_p, b_p, m, work);
    m
}

/// SIMD twin of [`difference_into`].
pub fn difference_simd_into(
    a: &[VertexId],
    b: &[VertexId],
    b_blocks: &[u64],
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    let before = out.len();
    crate::simd::difference_raw(a, b, b_blocks, out);
    let m = (a.len() - (out.len() - before)) as u64;
    charge_difference_exit(a, b, m, work);
}

/// SIMD twin of [`difference_bounded_into`]. Only the minuend is
/// truncated: the scalar kernel's subtrahend cursor runs over the full
/// list, and the charging formula depends on where it rests.
pub fn difference_simd_bounded_into(
    a: &[VertexId],
    b: &[VertexId],
    bound: VertexId,
    b_blocks: &[u64],
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    work.setop_invocations += 1;
    let a_p = a.partition_point(|&x| x < bound);
    let before = out.len();
    crate::simd::difference_raw(&a[..a_p], b, b_blocks, out);
    let m = (a_p - (out.len() - before)) as u64;
    charge_difference_bounded_exit(a, b, a_p, m, work);
}

/// The kernel tier an adaptive dispatcher picked for one set operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tier {
    /// The scalar merge, or in its place the vector kernels ([`merge_tier`]).
    Merge,
    Gallop,
    Probe,
}

/// The shared four-tier dispatch rule. Probe wins whenever `b` is an
/// indexed hub and at least as long as `a`: the probe streams exactly
/// `|a|` elements while a merge advances at least `min(|a|,|b|) = |a|`
/// cursors, so the probe is never charged more iterations, and each probed
/// element costs one comparison against galloping's ⌈log₂|b|⌉. For a hub
/// *shorter* than `a` the plain kernels can exhaust `b` early, so the
/// size-based merge/gallop rule applies instead. SIMD *replaces* the merge
/// tier wholesale when enabled ([`merge_tier`]: the vector kernels are the
/// same merge, wider), which keeps the probe/gallop routing — and every
/// charged counter — identical between scalar and SIMD runs: a scalar
/// run's `merge_dispatches` equals the SIMD run's `simd_dispatches`.
fn choose_tier(a_len: usize, b_len: usize, gallop_ratio: usize, hub: bool) -> Tier {
    if hub && b_len >= a_len {
        return Tier::Probe;
    }
    let (small, large) = if a_len <= b_len { (a_len, b_len) } else { (b_len, a_len) };
    if gallop_ratio > 0 && small.saturating_mul(gallop_ratio) <= large {
        Tier::Gallop
    } else {
        Tier::Merge
    }
}

/// Charges a merge-tier dispatch to the SIMD tier that replaces it
/// (`simd`) or to the merge tier, and says whether a vector kernel should
/// run it: on the SIMD tier, when both operands fill a vector. Shorter ones
/// would fall through to the vector kernels' scalar tail and then be
/// charged in closed form, a few binary searches later; the scalar merge
/// charges as it walks — same output, same counters — so the SIMD tier
/// runs that for them.
#[inline]
fn merge_tier(simd: bool, a_len: usize, b_len: usize, work: &mut WorkCounters) -> bool {
    if simd {
        work.simd_dispatches += 1;
        a_len.min(b_len) >= crate::simd::LANES
    } else {
        work.merge_dispatches += 1;
        false
    }
}

/// Sum of the dispatch-tier counters plus the invocation counter, captured
/// before a dispatcher call to verify the dispatch-tier invariant (see the
/// note on [`WorkCounters`]).
#[cfg(debug_assertions)]
fn dispatch_snapshot(work: &WorkCounters) -> (u64, u64) {
    (
        work.merge_dispatches
            + work.gallop_dispatches
            + work.probe_dispatches
            + work.simd_dispatches,
        work.setop_invocations,
    )
}

/// Debug-checks the dispatch-tier invariant around one dispatcher call:
/// exactly one tier counter moved, and exactly one kernel invocation was
/// charged — so `merge + gallop + probe + simd == setop_invocations` over
/// any span of dispatcher-routed work.
#[cfg(debug_assertions)]
fn assert_dispatched_once(before: (u64, u64), work: &WorkCounters) {
    let (dispatches, invocations) = dispatch_snapshot(work);
    debug_assert_eq!(dispatches - before.0, 1, "adaptive dispatch must pick exactly one tier");
    debug_assert_eq!(
        invocations - before.1,
        1,
        "adaptive dispatch must invoke exactly one kernel (the dispatch \
         counters must partition setop_invocations)"
    );
}

/// Adaptive intersection dispatch: a bounded (or plain) merge by default,
/// switching to galloping when one input is at least `gallop_ratio` times
/// smaller than the other (`0` disables galloping), to a bitmap probe
/// when `hub` carries `b`'s bitset row and `|b| ≥ |a|` (see `choose_tier`
/// for why that makes the probe never worse on charged iterations), and
/// to the vectorized kernels in place of the scalar merge when the run's
/// configuration activated them
/// ([`EngineConfig::simd_active`](crate::EngineConfig::simd_active)):
/// `simd` is then `b`'s per-64-element summary row for block skipping
/// (empty: none indexed, or `b` fits one block), and `None` keeps the scalar
/// merge. For the galloping path a vid bound is applied by
/// truncating both inputs up front via [`bounded_prefix`]. Output,
/// counts, and charged work are identical across all tiers that replace
/// each other; the chosen tier is recorded in the dispatch counters, so
/// `paper_faithful` runs — which never call a dispatcher — keep them at
/// zero.
#[allow(clippy::too_many_arguments)]
pub fn intersect_adaptive_into(
    a: &[VertexId],
    b: &[VertexId],
    bound: Option<VertexId>,
    gallop_ratio: usize,
    hub: Option<HubRow<'_>>,
    simd: Option<&[u64]>,
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    #[cfg(debug_assertions)]
    let snap = dispatch_snapshot(work);
    let blocks = simd.unwrap_or(&[]);
    match choose_tier(a.len(), b.len(), gallop_ratio, hub.is_some()) {
        Tier::Probe => {
            work.probe_dispatches += 1;
            let row = hub.expect("probe tier requires a hub row");
            match bound {
                Some(bd) => intersect_probe_bounded_into(a, row, bd, out, work),
                None => intersect_probe_into(a, row, out, work),
            }
        }
        Tier::Gallop => {
            work.gallop_dispatches += 1;
            let (a, b) = match bound {
                Some(bd) => (bounded_prefix(a, bd, work), bounded_prefix(b, bd, work)),
                None => (a, b),
            };
            intersect_galloping_into(a, b, out, work);
        }
        Tier::Merge => match (merge_tier(simd.is_some(), a.len(), b.len(), work), bound) {
            (true, Some(bd)) => intersect_simd_bounded_into(a, b, bd, blocks, out, work),
            (true, None) => intersect_simd_into(a, b, blocks, out, work),
            (false, Some(bd)) => intersect_bounded_into(a, b, bd, out, work),
            (false, None) => intersect_into(a, b, out, work),
        },
    }
    #[cfg(debug_assertions)]
    assert_dispatched_once(snap, work);
}

/// Counting twin of [`intersect_adaptive_into`]: same tier rule, same
/// charging, no materialization — the TC-style count-only hot path.
pub fn intersect_adaptive_count(
    a: &[VertexId],
    b: &[VertexId],
    bound: Option<VertexId>,
    gallop_ratio: usize,
    hub: Option<HubRow<'_>>,
    simd: Option<&[u64]>,
    work: &mut WorkCounters,
) -> u64 {
    #[cfg(debug_assertions)]
    let snap = dispatch_snapshot(work);
    let blocks = simd.unwrap_or(&[]);
    let found = match choose_tier(a.len(), b.len(), gallop_ratio, hub.is_some()) {
        Tier::Probe => {
            work.probe_dispatches += 1;
            let row = hub.expect("probe tier requires a hub row");
            match bound {
                Some(bd) => intersect_probe_bounded_count(a, row, bd, work),
                None => intersect_probe_count(a, row, work),
            }
        }
        Tier::Gallop => {
            work.gallop_dispatches += 1;
            let (a, b) = match bound {
                Some(bd) => (bounded_prefix(a, bd, work), bounded_prefix(b, bd, work)),
                None => (a, b),
            };
            intersect_galloping_count(a, b, work)
        }
        Tier::Merge => match (merge_tier(simd.is_some(), a.len(), b.len(), work), bound) {
            (true, Some(bd)) => intersect_simd_bounded_count(a, b, bd, blocks, work),
            (true, None) => intersect_simd_count(a, b, blocks, work),
            (false, Some(bd)) => intersect_bounded_count(a, b, bd, work),
            (false, None) => intersect_count(a, b, work),
        },
    };
    #[cfg(debug_assertions)]
    assert_dispatched_once(snap, work);
    found
}

/// Adaptive difference dispatch: probes whenever the subtrahend is an
/// indexed hub (the probe streams `|a|` elements; the merge streams `|a|`
/// minuend elements *plus* subtrahend cursor advances, so the probe is
/// never charged more), a bounded (or plain) merge otherwise — vectorized
/// in place of the scalar merge when `simd` is `Some`. Galloping does not
/// apply: the merge already touches each minuend element once.
pub fn difference_adaptive_into(
    a: &[VertexId],
    b: &[VertexId],
    bound: Option<VertexId>,
    hub: Option<HubRow<'_>>,
    simd: Option<&[u64]>,
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    #[cfg(debug_assertions)]
    let snap = dispatch_snapshot(work);
    match hub {
        Some(row) => {
            work.probe_dispatches += 1;
            match bound {
                Some(bd) => difference_probe_bounded_into(a, row, bd, out, work),
                None => difference_probe_into(a, row, out, work),
            }
        }
        None => {
            let blocks = simd.unwrap_or(&[]);
            match (merge_tier(simd.is_some(), a.len(), b.len(), work), bound) {
                (true, Some(bd)) => difference_simd_bounded_into(a, b, bd, blocks, out, work),
                (true, None) => difference_simd_into(a, b, blocks, out, work),
                (false, Some(bd)) => difference_bounded_into(a, b, bd, out, work),
                (false, None) => difference_into(a, b, out, work),
            }
        }
    }
    #[cfg(debug_assertions)]
    assert_dispatched_once(snap, work);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    /// The four dispatch-tier counters partition `setop_invocations`
    /// across any mix of adaptive dispatches — the invariant documented
    /// on [`WorkCounters`] and debug-asserted inside each dispatcher.
    #[test]
    fn dispatch_tiers_partition_setop_invocations() {
        let small = v(&[3, 5]);
        let large: Vec<VertexId> = (1..=399).step_by(2).map(VertexId).collect();
        // A hub index whose row 0 covers `large`, so the probe tier is
        // reachable.
        let idx = hub_fixture(399);
        let row = idx.row(VertexId(0)).expect("vertex 0 is a hub");

        let mut w = WorkCounters::default();
        let mut out = Vec::new();
        // Probe tier: hub row present and |b| >= |a|.
        intersect_adaptive_into(&small, &large, None, 16, Some(row), None, &mut out, &mut w);
        // Gallop tier: heavily skewed sizes, no hub.
        intersect_adaptive_into(&small, &large, None, 16, None, None, &mut out, &mut w);
        // Merge tier: balanced sizes (with a bound, which charges extra
        // comparisons via bounded_prefix but no extra invocation).
        intersect_adaptive_into(
            &small,
            &small,
            Some(VertexId(4)),
            16,
            None,
            None,
            &mut out,
            &mut w,
        );
        // Count-only and difference dispatchers uphold the same rule.
        intersect_adaptive_count(&small, &large, None, 16, None, None, &mut w);
        difference_adaptive_into(&small, &large, None, Some(row), None, &mut out, &mut w);
        difference_adaptive_into(&small, &small, None, None, None, &mut out, &mut w);
        // SIMD replaces the merge tier (and only it) when enabled.
        intersect_adaptive_into(&small, &small, None, 16, None, Some(&[]), &mut out, &mut w);
        difference_adaptive_into(&small, &small, None, None, Some(&[]), &mut out, &mut w);
        intersect_adaptive_into(&small, &large, None, 16, Some(row), Some(&[]), &mut out, &mut w);
        intersect_adaptive_into(&small, &large, None, 16, None, Some(&[]), &mut out, &mut w);

        assert_eq!(w.setop_invocations, 10);
        assert_eq!(
            w.merge_dispatches + w.gallop_dispatches + w.probe_dispatches + w.simd_dispatches,
            w.setop_invocations
        );
        assert_eq!(w.probe_dispatches, 3, "probe outranks simd");
        assert_eq!(w.gallop_dispatches, 3, "gallop outranks simd");
        assert_eq!(w.merge_dispatches, 2);
        assert_eq!(w.simd_dispatches, 2);
    }

    #[test]
    fn intersect_matches_btreeset() {
        let a = v(&[1, 3, 5, 7, 9]);
        let b = v(&[2, 3, 4, 7, 10]);
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_into(&a, &b, &mut out, &mut w);
        assert_eq!(out, v(&[3, 7]));
        assert!(w.setop_iterations > 0);
        assert_eq!(w.setop_invocations, 1);
    }

    #[test]
    fn bounded_intersection_stops_early() {
        let a = v(&[1, 3, 5, 7, 9]);
        let b = v(&[1, 3, 5, 7, 9]);
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_bounded_into(&a, &b, VertexId(6), &mut out, &mut w);
        assert_eq!(out, v(&[1, 3, 5]));
        // Early exit: at most 4 iterations for 3 results + the bound check.
        assert!(w.setop_iterations <= 4);
    }

    #[test]
    fn bounded_intersection_charges_executed_comparisons() {
        // First element already at the bound: the loop runs one iteration
        // and executes exactly one comparison before breaking.
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_bounded_into(&v(&[5, 6]), &v(&[1, 5]), VertexId(3), &mut out, &mut w);
        assert!(out.is_empty());
        assert_eq!(w.setop_iterations, 1);
        assert_eq!(w.comparisons, 1);
        // Second bound check breaks: two comparisons.
        let mut w = WorkCounters::default();
        intersect_bounded_into(&v(&[1, 2]), &v(&[4, 5]), VertexId(3), &mut out, &mut w);
        assert_eq!(w.comparisons, 2);
        // A surviving iteration costs both bound checks plus the merge
        // compare.
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_bounded_into(&v(&[1]), &v(&[1]), VertexId(9), &mut out, &mut w);
        assert_eq!(out, v(&[1]));
        assert_eq!(w.comparisons, 3);
    }

    #[test]
    fn bounded_difference_matches_filtered_difference() {
        let a = v(&[1, 2, 3, 4, 5, 8, 9]);
        let b = v(&[2, 4, 6]);
        let mut full = Vec::new();
        let mut bounded = Vec::new();
        let mut w = WorkCounters::default();
        difference_into(&a, &b, &mut full, &mut w);
        difference_bounded_into(&a, &b, VertexId(6), &mut bounded, &mut w);
        full.retain(|&x| x < VertexId(6));
        assert_eq!(bounded, full);
        // Unreachable bound degenerates to the plain difference.
        let mut unbounded = Vec::new();
        difference_bounded_into(&a, &b, VertexId(100), &mut unbounded, &mut w);
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
            let mut merge_out = Vec::new();
            let mut gallop_out = Vec::new();
            let mut w = WorkCounters::default();
            // ratio 0 forces the merge kernel; a tiny ratio forces gallop.
            intersect_adaptive_into(&small, &large, bound, 0, None, None, &mut merge_out, &mut w);
            intersect_adaptive_into(&small, &large, bound, 1, None, None, &mut gallop_out, &mut w);
            assert_eq!(merge_out, gallop_out, "bound {bound:?}");
        }
        // Skew within the ratio dispatches to galloping (|small| iters);
        // beyond it the merge kernel runs (≈|a|+|b| iters).
        let one = v(&[50]);
        let big: Vec<VertexId> = (0..100).map(VertexId).collect();
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_adaptive_into(&one, &big, None, 16, None, None, &mut out, &mut w);
        assert_eq!(out, one);
        assert_eq!(w.setop_iterations, 1, "galloped: one probe for the single element");
        assert_eq!((w.merge_dispatches, w.gallop_dispatches, w.probe_dispatches), (0, 1, 0));
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_adaptive_into(&one, &big, None, 200, None, None, &mut out, &mut w);
        assert_eq!(out, one);
        assert!(w.setop_iterations > 10, "ratio not met: merge kernel runs");
        assert_eq!((w.merge_dispatches, w.gallop_dispatches, w.probe_dispatches), (1, 0, 0));
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

    #[test]
    fn probe_kernels_agree_with_merge_kernels() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let adj: Vec<VertexId> = (1..=99).step_by(2).map(VertexId).collect();
        let a: Vec<VertexId> = (0..80).filter(|x| x % 3 == 0).map(VertexId).collect();
        let mut w = WorkCounters::default();

        let mut merged = Vec::new();
        intersect_into(&a, &adj, &mut merged, &mut w);
        let mut probed = Vec::new();
        let mut pw = WorkCounters::default();
        intersect_probe_into(&a, row, &mut probed, &mut pw);
        assert_eq!(probed, merged);
        // Probe cost is exactly |a| iterations, one comparison each.
        assert_eq!(pw.setop_iterations, a.len() as u64);
        assert_eq!(pw.comparisons, a.len() as u64);
        assert_eq!(intersect_probe_count(&a, row, &mut w), merged.len() as u64);

        let mut merged = Vec::new();
        difference_into(&a, &adj, &mut merged, &mut w);
        let mut probed = Vec::new();
        difference_probe_into(&a, row, &mut probed, &mut w);
        assert_eq!(probed, merged);
    }

    #[test]
    fn bounded_probe_kernels_respect_bound() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let a: Vec<VertexId> = (1..60).map(VertexId).collect();
        let bd = VertexId(20);
        let mut w = WorkCounters::default();

        let mut out = Vec::new();
        intersect_probe_bounded_into(&a, row, bd, &mut out, &mut w);
        let expect: Vec<VertexId> = (1..20).step_by(2).map(VertexId).collect();
        assert_eq!(out, expect);
        // 19 surviving elements plus the element that trips the bound.
        assert_eq!(w.setop_iterations, 20);
        let mut w2 = WorkCounters::default();
        assert_eq!(
            intersect_probe_bounded_count(&a, row, bd, &mut w2),
            expect.len() as u64,
            "count twin disagrees"
        );
        assert_eq!(w2.setop_iterations, w.setop_iterations);
        assert_eq!(w2.comparisons, w.comparisons);

        let mut out = Vec::new();
        difference_probe_bounded_into(&a, row, bd, &mut out, &mut w);
        let expect: Vec<VertexId> = (2..20).step_by(2).map(VertexId).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn adaptive_probe_tier_requires_hub_at_least_as_long() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let adj: Vec<VertexId> = (1..=99).step_by(2).map(VertexId).collect();
        // |a| <= |adj|: the probe tier fires.
        let a: Vec<VertexId> = (0..30).map(VertexId).collect();
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_adaptive_into(&a, &adj, None, 16, Some(row), None, &mut out, &mut w);
        assert_eq!(w.probe_dispatches, 1);
        assert_eq!(w.setop_iterations, a.len() as u64);
        let expect: Vec<VertexId> = (1..30).step_by(2).map(VertexId).collect();
        assert_eq!(out, expect);
        // |a| > |adj|: falls back to the size rule even with a hub row.
        let long: Vec<VertexId> = (0..200).map(VertexId).collect();
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_adaptive_into(&long, &adj, None, 16, Some(row), None, &mut out, &mut w);
        assert_eq!(w.probe_dispatches, 0);
        assert_eq!(w.merge_dispatches + w.gallop_dispatches, 1);
    }

    #[test]
    fn adaptive_count_matches_adaptive_into_work() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let adj: Vec<VertexId> = (1..=99).step_by(2).map(VertexId).collect();
        let a: Vec<VertexId> = (0..50).filter(|x| x % 4 != 0).map(VertexId).collect();
        for hub in [None, Some(row)] {
            for bound in [None, Some(VertexId(33))] {
                for ratio in [0, 2, 16] {
                    for simd in [None, Some(&[][..])] {
                        let mut out = Vec::new();
                        let mut wi = WorkCounters::default();
                        intersect_adaptive_into(
                            &a, &adj, bound, ratio, hub, simd, &mut out, &mut wi,
                        );
                        let mut wc = WorkCounters::default();
                        let n =
                            intersect_adaptive_count(&a, &adj, bound, ratio, hub, simd, &mut wc);
                        assert_eq!(n, out.len() as u64, "hub {} bound {bound:?}", hub.is_some());
                        assert_eq!(wi, wc, "work parity: hub {} ratio {ratio}", hub.is_some());
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_difference_probes_iff_hub() {
        let idx = hub_fixture(99);
        let row = idx.row(VertexId(0)).unwrap();
        let adj: Vec<VertexId> = (1..=99).step_by(2).map(VertexId).collect();
        let a: Vec<VertexId> = (0..40).map(VertexId).collect();
        for bound in [None, Some(VertexId(25))] {
            let mut merged = Vec::new();
            let mut w = WorkCounters::default();
            difference_adaptive_into(&a, &adj, bound, None, None, &mut merged, &mut w);
            assert_eq!((w.merge_dispatches, w.probe_dispatches), (1, 0));
            let mut probed = Vec::new();
            let mut w = WorkCounters::default();
            difference_adaptive_into(&a, &adj, bound, Some(row), None, &mut probed, &mut w);
            assert_eq!((w.merge_dispatches, w.probe_dispatches), (0, 1));
            assert_eq!(probed, merged, "bound {bound:?}");
        }
    }

    #[test]
    fn difference_matches_btreeset() {
        let a = v(&[1, 2, 3, 4, 5]);
        let b = v(&[2, 4, 6]);
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        difference_into(&a, &b, &mut out, &mut w);
        assert_eq!(out, v(&[1, 3, 5]));
    }

    #[test]
    fn difference_with_empty_subtrahend_copies() {
        let a = v(&[1, 2, 3]);
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        difference_into(&a, &[], &mut out, &mut w);
        assert_eq!(out, a);
    }

    #[test]
    fn count_agrees_with_materialized() {
        let a = v(&[0, 2, 4, 6, 8, 10]);
        let b = v(&[3, 4, 5, 6, 7]);
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_into(&a, &b, &mut out, &mut w);
        assert_eq!(intersect_count(&a, &b, &mut w), out.len() as u64);
    }

    #[test]
    fn galloping_agrees_with_merge() {
        let a = v(&[5, 100, 250]);
        let b: Vec<VertexId> = (0..300).map(VertexId).collect();
        let mut merge_out = Vec::new();
        let mut gallop_out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_into(&a, &b, &mut merge_out, &mut w);
        intersect_galloping_into(&a, &b, &mut gallop_out, &mut w);
        assert_eq!(merge_out, gallop_out);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_into(&[], &v(&[1]), &mut out, &mut w);
        assert!(out.is_empty());
        intersect_bounded_into(&v(&[1]), &[], VertexId(10), &mut out, &mut w);
        assert!(out.is_empty());
        assert_eq!(intersect_count(&[], &[], &mut w), 0);
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

    /// Packs a [`fm_graph::BlockSummaries`]-layout row for `b`.
    fn blocks_of(b: &[VertexId]) -> Vec<u64> {
        b.chunks(64).map(|c| (u64::from(c[c.len() - 1].0) << 32) | u64::from(c[0].0)).collect()
    }

    /// ISSUE tentpole: the closed-form charging of every `*_simd_*`
    /// wrapper reproduces the scalar kernel's counters bit-for-bit —
    /// outputs AND `WorkCounters` — across operand shapes that straddle
    /// vector-width tails, with and without block summaries.
    #[test]
    fn scalar_charging_parity_is_closed_form() {
        let lens = [0usize, 1, 2, 5, 31, 32, 33, 63, 64, 65, 100, 130];
        for (ai, &al) in lens.iter().enumerate() {
            for (bi, &bl) in lens.iter().enumerate() {
                let a = gen_list(ai as u64 + 3, al, 7);
                let b = gen_list(bi as u64 * 5 + 1, bl, 5);
                let full_blocks = blocks_of(&b);
                let mut bounds = vec![VertexId(0), VertexId(u32::MAX)];
                if !a.is_empty() {
                    bounds.push(a[a.len() / 2]);
                }
                if !b.is_empty() {
                    bounds.push(b[b.len() / 2]);
                }
                for blocks in [&[][..], &full_blocks[..]] {
                    let ctx = format!("|a|={al} |b|={bl} blocks={}", !blocks.is_empty());
                    let (mut so, mut vo) = (Vec::new(), Vec::new());
                    let mut ws = WorkCounters::default();
                    let mut wv = WorkCounters::default();
                    intersect_into(&a, &b, &mut so, &mut ws);
                    intersect_simd_into(&a, &b, blocks, &mut vo, &mut wv);
                    assert_eq!(so, vo, "intersect {ctx}");
                    assert_eq!(ws, wv, "intersect charges {ctx}");
                    assert_eq!(intersect_count(&a, &b, &mut ws), so.len() as u64);
                    assert_eq!(intersect_simd_count(&a, &b, blocks, &mut wv), vo.len() as u64);
                    assert_eq!(ws, wv, "intersect_count charges {ctx}");

                    let (mut so, mut vo) = (Vec::new(), Vec::new());
                    let mut ws = WorkCounters::default();
                    let mut wv = WorkCounters::default();
                    difference_into(&a, &b, &mut so, &mut ws);
                    difference_simd_into(&a, &b, blocks, &mut vo, &mut wv);
                    assert_eq!(so, vo, "difference {ctx}");
                    assert_eq!(ws, wv, "difference charges {ctx}");

                    for &bound in &bounds {
                        let ctx = format!("{ctx} bound={}", bound.0);
                        let (mut so, mut vo) = (Vec::new(), Vec::new());
                        let mut ws = WorkCounters::default();
                        let mut wv = WorkCounters::default();
                        intersect_bounded_into(&a, &b, bound, &mut so, &mut ws);
                        intersect_simd_bounded_into(&a, &b, bound, blocks, &mut vo, &mut wv);
                        assert_eq!(so, vo, "bounded intersect {ctx}");
                        assert_eq!(ws, wv, "bounded intersect charges {ctx}");
                        assert_eq!(
                            intersect_bounded_count(&a, &b, bound, &mut ws),
                            so.len() as u64
                        );
                        assert_eq!(
                            intersect_simd_bounded_count(&a, &b, bound, blocks, &mut wv),
                            vo.len() as u64
                        );
                        assert_eq!(ws, wv, "bounded count charges {ctx}");

                        let (mut so, mut vo) = (Vec::new(), Vec::new());
                        let mut ws = WorkCounters::default();
                        let mut wv = WorkCounters::default();
                        difference_bounded_into(&a, &b, bound, &mut so, &mut ws);
                        difference_simd_bounded_into(&a, &b, bound, blocks, &mut vo, &mut wv);
                        assert_eq!(so, vo, "bounded difference {ctx}");
                        assert_eq!(ws, wv, "bounded difference charges {ctx}");
                    }
                }
            }
        }
    }

    /// ISSUE satellite: counting twins charge iterations and comparisons
    /// identically to their materializing kernels — one shared sweep over
    /// every kernel family, including the four probe-tier variants.
    #[test]
    fn count_twins_share_charging_with_materializing_kernels() {
        let idx = hub_fixture(399);
        let row = idx.row(VertexId(0)).unwrap();
        let fixtures = [
            (gen_list(2, 0, 3), gen_list(9, 40, 3)),
            (gen_list(4, 17, 5), gen_list(11, 0, 3)),
            (gen_list(6, 33, 2), gen_list(13, 33, 4)),
            (gen_list(8, 5, 9), gen_list(15, 120, 2)),
        ];
        for (a, b) in &fixtures {
            let bound = VertexId(a.last().map_or(7, |x| x.0 / 2 + 1));
            let mut out = Vec::new();
            let mut wi = WorkCounters::default();
            let mut wc = WorkCounters::default();
            intersect_into(a, b, &mut out, &mut wi);
            assert_eq!(intersect_count(a, b, &mut wc), out.len() as u64);
            assert_eq!(wi, wc, "intersect twins");

            let mut out = Vec::new();
            let mut wi = WorkCounters::default();
            let mut wc = WorkCounters::default();
            intersect_bounded_into(a, b, bound, &mut out, &mut wi);
            assert_eq!(intersect_bounded_count(a, b, bound, &mut wc), out.len() as u64);
            assert_eq!(wi, wc, "bounded twins");

            let mut out = Vec::new();
            let mut wi = WorkCounters::default();
            let mut wc = WorkCounters::default();
            intersect_galloping_into(a, b, &mut out, &mut wi);
            assert_eq!(intersect_galloping_count(a, b, &mut wc), out.len() as u64);
            assert_eq!(wi, wc, "galloping twins");

            let mut out = Vec::new();
            let mut wi = WorkCounters::default();
            let mut wc = WorkCounters::default();
            intersect_probe_into(a, row, &mut out, &mut wi);
            assert_eq!(intersect_probe_count(a, row, &mut wc), out.len() as u64);
            assert_eq!(wi, wc, "probe twins");

            let mut out = Vec::new();
            let mut wi = WorkCounters::default();
            let mut wc = WorkCounters::default();
            intersect_probe_bounded_into(a, row, bound, &mut out, &mut wi);
            assert_eq!(intersect_probe_bounded_count(a, row, bound, &mut wc), out.len() as u64);
            assert_eq!(wi, wc, "bounded probe twins");
        }
    }

    /// ISSUE satellite (PR 1 bug class): [`bounded_prefix`] charges the
    /// binary-search cost only when a search actually runs — an empty
    /// slice costs nothing, a one-element slice costs exactly one
    /// comparison.
    #[test]
    fn bounded_prefix_charges_nothing_for_empty_slices() {
        let mut w = WorkCounters::default();
        assert!(bounded_prefix(&[], VertexId(5), &mut w).is_empty());
        assert_eq!(w.comparisons, 0, "empty slice: no search, no charge");
        assert!(bounded_prefix(&v(&[3]), VertexId(5), &mut w).len() == 1);
        assert_eq!(w.comparisons, 1, "singleton: one probe");
    }

    /// ISSUE satellite: `gallop_ratio == 0` is the documented sentinel
    /// that disables the gallop tier outright — even pathologically skewed
    /// operands stay on the merge (or SIMD) tier.
    #[test]
    fn gallop_ratio_zero_is_a_disable_sentinel() {
        let one = v(&[901]);
        let big: Vec<VertexId> = (0..1000).map(VertexId).collect();
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        intersect_adaptive_into(&one, &big, None, 0, None, None, &mut out, &mut w);
        assert_eq!(out, one);
        assert_eq!((w.gallop_dispatches, w.merge_dispatches), (0, 1));
        let mut w = WorkCounters::default();
        intersect_adaptive_into(&one, &big, None, 0, None, Some(&[]), &mut out, &mut w);
        assert_eq!((w.gallop_dispatches, w.simd_dispatches), (0, 1));
        // Any non-zero ratio met by the skew re-enables galloping.
        let mut w = WorkCounters::default();
        intersect_adaptive_into(&one, &big, None, 1, None, None, &mut out, &mut w);
        assert_eq!(w.gallop_dispatches, 1);
    }

    /// Runs identical inputs through the adaptive dispatchers with SIMD
    /// off and on: every counter matches except the merge→simd dispatch
    /// relabeling, so telemetry partitions carry over unchanged.
    #[test]
    fn simd_tier_relabels_merge_dispatches_only() {
        let a = gen_list(21, 70, 3);
        let b = gen_list(22, 90, 4);
        let blocks = blocks_of(&b);
        for bound in [None, Some(VertexId(120))] {
            let (mut off_out, mut on_out) = (Vec::new(), Vec::new());
            let mut off = WorkCounters::default();
            let mut on = WorkCounters::default();
            intersect_adaptive_into(&a, &b, bound, 16, None, None, &mut off_out, &mut off);
            intersect_adaptive_into(&a, &b, bound, 16, None, Some(&blocks), &mut on_out, &mut on);
            difference_adaptive_into(&a, &b, bound, None, None, &mut off_out, &mut off);
            difference_adaptive_into(&a, &b, bound, None, Some(&blocks), &mut on_out, &mut on);
            assert_eq!(off_out, on_out, "bound {bound:?}");
            assert_eq!(off.merge_dispatches, on.simd_dispatches);
            assert_eq!(on.merge_dispatches, 0);
            let relabeled =
                WorkCounters { merge_dispatches: 0, simd_dispatches: off.merge_dispatches, ..off };
            assert_eq!(relabeled, on, "bound {bound:?}");
        }
    }
}
