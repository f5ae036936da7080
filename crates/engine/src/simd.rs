//! Vectorized set-operation kernels (the SIMD dispatch tier).
//!
//! These are the *data paths* of the fourth adaptive dispatch tier:
//! block-wise intersection and difference over strictly-ascending `u32`
//! id lists using SSE2/AVX2 all-pairs compares, in the style of the
//! vectorized GPM intersection kernels of IntersectX (arXiv 2012.10848)
//! and G²Miner (arXiv 2112.09761). Each loop round loads one
//! vector-width block from each operand, compares all lane pairs (one
//! `cmpeq` per rotation of the `b` block), emits the matched `a` lanes
//! from the movemask, and retires whichever block's maximum is smaller
//! — the classic shuffling block merge. An optional per-64-neighbor
//! block summary index ([`fm_graph::BlockSummaries`]) lets the loop
//! skip whole 64-element runs of the larger operand whose id range
//! falls below the current minuend element, one word load per skipped
//! block.
//!
//! The kernels here are **uncharged**: they only feed a
//! [`Sink`] — a list or a count, one loop for both.
//! [`WorkCounters`](crate::result::WorkCounters) charging lives with the
//! dispatcher in [`setops`](crate::setops), which reproduces the scalar
//! merge's counters exactly in closed form from the operand data
//! (bit-parity: same `setop_iterations` and `comparisons` the scalar
//! merge would have charged, so telemetry partitions and budget
//! accounting are invariant under the tier swap).
//!
//! Compiled under the (default) `simd` cargo feature on `x86_64` only;
//! everywhere else the entry points fall back to scalar merges, so the
//! dispatcher and its differential tests are portable. AVX2 (8 lanes)
//! is selected over SSE2 (4 lanes, the `x86_64` baseline) by runtime
//! CPU detection, never by compile-time `-C target-feature` alone.

use crate::setops::Sink;
use fm_graph::VertexId;

/// Whether the vectorized kernels are compiled in and runnable on this
/// host. SSE2 is the `x86_64` baseline, so compiled-in implies runnable;
/// AVX2 vs SSE2 selection happens per call via cached CPU detection.
#[inline]
pub fn runtime_available() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64"))
}

/// The instruction set the kernels will actually use on this host:
/// `"avx2"`, `"sse2"`, or `"scalar"` (feature off or non-x86_64).
pub fn isa() -> &'static str {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        "scalar"
    }
}

/// The widest vector the kernels load (AVX2): with fewer elements on either
/// side no vector round runs and an operation is all scalar tail.
pub(crate) const LANES: usize = 8;

/// `a ∩ b` into `out`, which is handed back. `b_blocks` is `b`'s
/// per-64-element summary row (possibly empty: no skipping).
/// Output-identical to
/// [`setops::intersect_into`](crate::setops::intersect_into).
pub(crate) fn intersect_raw<S: Sink>(
    a: &[VertexId],
    b: &[VertexId],
    b_blocks: &[u64],
    out: S,
) -> S {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    // SAFETY: each kernel runs only after its instruction set was detected
    // (SSE2 is the `x86_64` baseline).
    unsafe {
        if is_x86_feature_detected!("avx2") {
            x86::intersect_avx2(a, b, b_blocks, out)
        } else {
            x86::intersect_sse2(a, b, b_blocks, out)
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = b_blocks;
        tail::intersect(a, b, out)
    }
}

/// `a \ b` into `out`, which is handed back. Output-identical to
/// [`setops::difference_into`](crate::setops::difference_into).
pub(crate) fn difference_raw<S: Sink>(
    a: &[VertexId],
    b: &[VertexId],
    b_blocks: &[u64],
    out: S,
) -> S {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    // SAFETY: as in `intersect_raw`.
    unsafe {
        if is_x86_feature_detected!("avx2") {
            x86::difference_avx2(a, b, b_blocks, out)
        } else {
            x86::difference_sse2(a, b, b_blocks, out)
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = b_blocks;
        tail::difference(a, b, 0, out)
    }
}

/// Scalar tails shared by the vector kernels (and the whole fallback path
/// when the vector kernels are compiled out). Uncharged, like everything
/// in this module.
mod tail {
    use super::Sink;
    use fm_graph::VertexId;

    pub(super) fn intersect<S: Sink>(a: &[VertexId], b: &[VertexId], mut out: S) -> S {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
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
        out
    }

    /// Difference tail carrying the vector loop's per-lane `matched` mask
    /// for the unretired `a` block at the cut point: lane `t` of the
    /// remaining minuend is suppressed if its bit is set, *or* if the
    /// rescan from the current subtrahend cursor finds its match (the
    /// matching element may sit before or at the cursor, never both
    /// emit).
    pub(super) fn difference<S: Sink>(
        a: &[VertexId],
        b: &[VertexId],
        matched: u32,
        mut out: S,
    ) -> S {
        let mut j = 0usize;
        for (t, &x) in a.iter().enumerate() {
            while j < b.len() && b[j] < x {
                j += 1;
            }
            let hit_now = j < b.len() && b[j] == x;
            if hit_now {
                j += 1;
            }
            let pre = t < 32 && matched & (1 << t) != 0;
            if !(hit_now || pre) {
                out.push(x);
            }
        }
        out
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::{tail, Sink};
    use fm_graph::VertexId;
    use std::arch::x86_64::*;

    /// Reinterprets an id slice for vector loads.
    #[inline]
    fn u32s(s: &[VertexId]) -> &[u32] {
        // SAFETY: `VertexId` is `#[repr(transparent)]` over `u32`.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u32>(), s.len()) }
    }

    /// Advances the subtrahend/`b` cursor over whole 64-element blocks
    /// whose summarized maximum is below `x` (the current `a` minimum);
    /// every skipped element is smaller than everything left in `a`, so
    /// the vector loop would have discarded those blocks compare by
    /// compare. No-op without summaries. Never moves backwards; clamped
    /// to `b_len`.
    #[inline]
    fn skip_blocks(x: u32, b_len: usize, blocks: &[u64], j: usize) -> usize {
        if blocks.is_empty() {
            return j;
        }
        let mut k = j >> 6;
        while k < blocks.len() && (k << 6) < b_len && ((blocks[k] >> 32) as u32) < x {
            k += 1;
        }
        (k << 6).clamp(j, b_len)
    }

    /// All-pairs equality of the 8 `u32` lanes at `pa` against the 8 at
    /// `pb`: bit `l` of the result is set iff `pa[l]` equals some `pb`
    /// lane (7 single-lane rotations of the `b` block, one `cmpeq` each).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eq8(pa: *const u32, pb: *const u32) -> u32 {
        let rot = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
        let va = _mm256_loadu_si256(pa.cast());
        let vb = _mm256_loadu_si256(pb.cast());
        let mut eq = _mm256_cmpeq_epi32(va, vb);
        let mut r = vb;
        for _ in 0..7 {
            r = _mm256_permutevar8x32_epi32(r, rot);
            eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, r));
        }
        _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32
    }

    /// 4-lane twin of [`eq8`] (SSE2: in-register shuffles).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn eq4(pa: *const u32, pb: *const u32) -> u32 {
        let va = _mm_loadu_si128(pa.cast());
        let vb = _mm_loadu_si128(pb.cast());
        let r1 = _mm_shuffle_epi32(vb, 0b00_11_10_01); // rotate by 1 lane
        let r2 = _mm_shuffle_epi32(vb, 0b01_00_11_10); // by 2
        let r3 = _mm_shuffle_epi32(vb, 0b10_01_00_11); // by 3
        let eq = _mm_or_si128(
            _mm_or_si128(_mm_cmpeq_epi32(va, vb), _mm_cmpeq_epi32(va, r1)),
            _mm_or_si128(_mm_cmpeq_epi32(va, r2), _mm_cmpeq_epi32(va, r3)),
        );
        _mm_movemask_ps(_mm_castsi128_ps(eq)) as u32
    }

    /// The shared block-merge intersection loop. Retirement rule: the
    /// block with the smaller maximum cannot match anything further and
    /// advances (both advance on equal maxima). Matches are emitted in
    /// ascending order and each at most once: an `a` lane's bit can only
    /// set against one `b` block (ids are strictly ascending on both
    /// sides), and a retired lane never re-enters. Evaluates to the
    /// `(i, j)` cut for the scalar tail.
    macro_rules! intersect_loop {
        ($a:ident, $b:ident, $blocks:ident, $w:literal, $eq:ident, $on_mask:expr) => {{
            let av = u32s($a);
            let bv = u32s($b);
            let (mut i, mut j) = (0usize, 0usize);
            while i + $w <= av.len() && j + $w <= bv.len() {
                j = skip_blocks(av[i], bv.len(), $blocks, j);
                if j + $w > bv.len() {
                    break;
                }
                let amax = av[i + $w - 1];
                let bmax = bv[j + $w - 1];
                if amax < bv[j] {
                    i += $w;
                    continue;
                }
                if bmax < av[i] {
                    j += $w;
                    continue;
                }
                let m = $eq(av.as_ptr().add(i), bv.as_ptr().add(j));
                #[allow(clippy::redundant_closure_call)]
                ($on_mask)(i, m);
                if amax <= bmax {
                    i += $w;
                }
                if bmax <= amax {
                    j += $w;
                }
            }
            (i, j)
        }};
    }

    /// The shared block-merge difference loop: like `intersect_loop!`,
    /// but an `a` block accumulates its `matched` lane mask until it
    /// retires, at which point the *unmatched* lanes are emitted (they
    /// can no longer match: everything left in `b` exceeds the block
    /// maximum). Evaluates to `(i, j, matched)`; a non-zero mask at the
    /// cut belongs to the unretired block at `i` and is handed to the
    /// scalar tail.
    macro_rules! difference_loop {
        ($a:ident, $b:ident, $blocks:ident, $w:literal, $eq:ident, $emit:expr) => {{
            let av = u32s($a);
            let bv = u32s($b);
            let (mut i, mut j) = (0usize, 0usize);
            let mut matched: u32 = 0;
            while i + $w <= av.len() && j + $w <= bv.len() {
                j = skip_blocks(av[i], bv.len(), $blocks, j);
                if j + $w > bv.len() {
                    break;
                }
                let amax = av[i + $w - 1];
                let bmax = bv[j + $w - 1];
                if amax < bv[j] {
                    for l in 0..$w {
                        if matched & (1 << l) == 0 {
                            #[allow(clippy::redundant_closure_call)]
                            ($emit)(i + l);
                        }
                    }
                    matched = 0;
                    i += $w;
                    continue;
                }
                if bmax < av[i] {
                    j += $w;
                    continue;
                }
                matched |= $eq(av.as_ptr().add(i), bv.as_ptr().add(j));
                if amax <= bmax {
                    for l in 0..$w {
                        if matched & (1 << l) == 0 {
                            #[allow(clippy::redundant_closure_call)]
                            ($emit)(i + l);
                        }
                    }
                    matched = 0;
                    i += $w;
                }
                if bmax <= amax {
                    j += $w;
                }
            }
            (i, j, matched)
        }};
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn intersect_avx2<S: Sink>(
        a: &[VertexId],
        b: &[VertexId],
        blocks: &[u64],
        mut out: S,
    ) -> S {
        let (i, j) = intersect_loop!(a, b, blocks, 8, eq8, |base: usize, m: u32| {
            out.push_lanes(a, base, m)
        });
        tail::intersect(&a[i..], &b[j..], out)
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn intersect_sse2<S: Sink>(
        a: &[VertexId],
        b: &[VertexId],
        blocks: &[u64],
        mut out: S,
    ) -> S {
        let (i, j) = intersect_loop!(a, b, blocks, 4, eq4, |base: usize, m: u32| {
            out.push_lanes(a, base, m)
        });
        tail::intersect(&a[i..], &b[j..], out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn difference_avx2<S: Sink>(
        a: &[VertexId],
        b: &[VertexId],
        blocks: &[u64],
        mut out: S,
    ) -> S {
        let (i, j, matched) = difference_loop!(a, b, blocks, 8, eq8, |idx: usize| out.push(a[idx]));
        tail::difference(&a[i..], &b[j..], matched, out)
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn difference_sse2<S: Sink>(
        a: &[VertexId],
        b: &[VertexId],
        blocks: &[u64],
        mut out: S,
    ) -> S {
        let (i, j, matched) = difference_loop!(a, b, blocks, 4, eq4, |idx: usize| out.push(a[idx]));
        tail::difference(&a[i..], &b[j..], matched, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random ascending id list (LCG; no external
    /// RNG so the fixtures are stable across platforms).
    fn list(seed: u64, len: usize, stride: u64) -> Vec<VertexId> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut cur = 0u64;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                cur += 1 + (s >> 33) % stride;
                VertexId(cur as u32)
            })
            .collect()
    }

    /// `b`'s summary row, built the same way `BlockSummaries` packs it.
    fn summaries(b: &[VertexId]) -> Vec<u64> {
        b.chunks(64).map(|c| (u64::from(c[c.len() - 1].0) << 32) | u64::from(c[0].0)).collect()
    }

    fn reference_intersect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
        a.iter().filter(|x| b.binary_search(x).is_ok()).copied().collect()
    }

    fn reference_difference(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
        a.iter().filter(|x| b.binary_search(x).is_err()).copied().collect()
    }

    /// Exhaustive-ish agreement across lengths straddling both vector
    /// widths (0..=9, 63..=65, 127..=129) and both skip-index states.
    #[test]
    fn raw_kernels_agree_with_reference() {
        let lens: Vec<usize> = (0..=9).chain(63..=65).chain(127..=129).collect();
        for &la in &lens {
            for &lb in &lens {
                let a = list(la as u64 + 1, la, 7);
                let b = list(lb as u64 + 1000, lb, 5);
                let blocks = summaries(&b);
                for blk in [&[] as &[u64], &blocks[..]] {
                    let mut got = Vec::new();
                    intersect_raw(&a, &b, blk, &mut got);
                    assert_eq!(got, reference_intersect(&a, &b), "∩ {la}x{lb}");
                    let n = intersect_raw(&a, &b, blk, crate::setops::Count(0));
                    assert_eq!(n.0, got.len() as u64, "|∩| {la}x{lb}");
                    let mut got = Vec::new();
                    difference_raw(&a, &b, blk, &mut got);
                    assert_eq!(got, reference_difference(&a, &b), "\\ {la}x{lb}");
                }
            }
        }
    }

    /// Heavy-overlap and all-equal inputs exercise the all-pairs match
    /// masks (every lane set) and the dual-advance rule.
    #[test]
    fn identical_and_dense_inputs() {
        for len in [1usize, 4, 8, 12, 64, 100] {
            let a = list(7, len, 2);
            let blocks = summaries(&a);
            let mut got = Vec::new();
            intersect_raw(&a, &a, &blocks, &mut got);
            assert_eq!(got, a, "self-intersection len {len}");
            let mut got = Vec::new();
            difference_raw(&a, &a, &blocks, &mut got);
            assert!(got.is_empty(), "self-difference len {len}");
        }
    }

    /// Extreme skew plus a skip index: the summaries must not change the
    /// output, only the work the loop does.
    #[test]
    fn block_skipping_preserves_output() {
        let a: Vec<VertexId> = vec![VertexId(5), VertexId(100_000), VertexId(900_000)];
        let b: Vec<VertexId> = (0..200_000).map(|x| VertexId(x * 4)).collect();
        let blocks = summaries(&b);
        let mut plain = Vec::new();
        intersect_raw(&a, &b, &[], &mut plain);
        let mut skipped = Vec::new();
        intersect_raw(&a, &b, &blocks, &mut skipped);
        assert_eq!(plain, skipped);
        assert_eq!(plain, reference_intersect(&a, &b));
        let mut plain = Vec::new();
        difference_raw(&a, &b, &[], &mut plain);
        let mut skipped = Vec::new();
        difference_raw(&a, &b, &blocks, &mut skipped);
        assert_eq!(plain, skipped);
    }

    #[test]
    fn isa_reports_a_known_tier() {
        assert!(["avx2", "sse2", "scalar"].contains(&isa()));
        // On x86_64 with the feature on, the kernels must be available.
        if cfg!(all(feature = "simd", target_arch = "x86_64")) {
            assert!(runtime_available());
            assert_ne!(isa(), "scalar");
        }
    }
}
