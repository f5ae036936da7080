//! Test helpers shared by the property suites: arbitrary connected
//! patterns, and the containment coefficients that turn an induced census
//! into edge-induced counts. Included by path from `fm-plan`'s tests too.

#![allow(dead_code)] // each suite uses its own subset

use fm_pattern::Pattern;
use proptest::prelude::*;
use std::ops::RangeInclusive;

/// A connected pattern on `sizes` vertices: the path `0 – 1 – … – n−1`,
/// which keeps it connected, plus every other edge a random word selects.
pub fn arb_connected_pattern(sizes: RangeInclusive<usize>) -> impl Strategy<Value = Pattern> {
    (sizes, any::<u64>()).prop_map(|(n, bits)| {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let mut b = 0;
        for u in 0..n {
            for v in (u + 1)..n {
                if (bits >> (b % 64)) & 1 == 1 {
                    edges.push((u, v));
                }
                b += 1;
            }
        }
        Pattern::from_edges(n, &edges).expect("connected")
    })
}

/// Visits every permutation of `items[at..]`, in place.
pub fn permutations(items: &mut Vec<usize>, at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        return visit(items);
    }
    for i in at..items.len() {
        items.swap(at, i);
        permutations(items, at + 1, visit);
        items.swap(at, i);
    }
}

/// How many subgraphs of `h` (on all its vertices) are copies of `p`: the
/// vertex bijections that keep `p`'s edges, up to `p`'s own symmetries.
pub fn copies(p: &Pattern, h: &Pattern) -> u64 {
    assert_eq!(p.size(), h.size());
    let mut maps = 0u64;
    permutations(&mut (0..p.size()).collect(), 0, &mut |to| {
        maps += u64::from(p.edges().iter().all(|&(u, v)| h.has_edge(to[u], to[v])));
    });
    maps / p.automorphism_count() as u64
}
