//! Property-based tests for pattern analysis.

use fm_pattern::{analysis, motifs, symmetry, Pattern};
use proptest::prelude::*;

/// Random connected patterns on up to 6 vertices.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (2usize..=6, any::<u64>()).prop_map(|(n, bits)| {
        // Spanning path guarantees connectivity; extra edges from bits.
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
        Pattern::from_edges(n, &edges).expect("spanning path keeps it connected")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// |Aut(P)| divides n! (Lagrange).
    #[test]
    fn automorphism_count_divides_factorial(p in arb_pattern()) {
        let n = p.size();
        let fact: usize = (1..=n).product();
        prop_assert_eq!(fact % p.automorphism_count(), 0);
    }

    /// The stabilizer chain agrees with the listed group: each orbit is
    /// what the automorphisms fixing the earlier positions do to `u`, so
    /// |Aut| and the symmetry order (both read off the orbits) agree too.
    #[test]
    fn stabilizer_orbits_agree_with_the_listed_group(p in arb_pattern()) {
        let auts = p.automorphisms();
        prop_assert_eq!(p.automorphism_count(), auts.len());
        for (u, orbit) in p.stabilizer_orbits().into_iter().enumerate() {
            let mut listed: Vec<usize> = auts
                .iter()
                .filter(|phi| (0..u).all(|w| phi[w] == w))
                .map(|phi| phi[u])
                .collect();
            listed.sort_unstable();
            listed.dedup();
            prop_assert_eq!(orbit, listed);
        }
    }

    /// Canonical codes are invariant under relabelling.
    #[test]
    fn canonical_code_is_relabel_invariant(p in arb_pattern(), seed in any::<u64>()) {
        let n = p.size();
        // Deterministic permutation from the seed.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            perm.swap(i, (s as usize) % (i + 1));
        }
        let q = p.relabel(&perm);
        prop_assert_eq!(p.canonical_code(), q.canonical_code());
        prop_assert!(p.is_isomorphic(&q));
    }

    /// The analyzed matching order is a connected permutation and the
    /// relabelled pattern preserves the edge count.
    #[test]
    fn analysis_is_well_formed(p in arb_pattern()) {
        let a = analysis::analyze(&p);
        prop_assert_eq!(a.pattern.edge_count(), p.edge_count());
        let mut seen = vec![false; p.size()];
        for (i, &u) in a.order.iter().enumerate() {
            prop_assert!(!seen[u]);
            seen[u] = true;
            if i > 0 {
                prop_assert!(!a.connected_ancestors[i].is_empty());
            }
        }
    }

    /// Symmetry pairs are a strict partial order compatible with matching
    /// positions (earlier < later), with |satisfying labellings| = n!/|Aut|.
    #[test]
    fn symmetry_pairs_are_consistent(p in arb_pattern()) {
        let a = analysis::analyze(&p);
        for pair in &a.symmetry {
            prop_assert!(pair.earlier < pair.later);
            prop_assert!(pair.later < p.size());
        }
        // Exhaustive check on small sizes.
        let n = p.size();
        let mut count = 0usize;
        let mut ids: Vec<u32> = (0..n as u32).collect();
        permute(&mut ids, 0, &mut |lab| {
            if symmetry::satisfies(&a.symmetry, lab) {
                count += 1;
            }
        });
        let fact: usize = (1..=n).product();
        prop_assert_eq!(count, fact / a.pattern.automorphism_count());
    }

    /// Every top matching order achieves the same constraint-count score
    /// and analysis stays deterministic.
    #[test]
    fn top_orders_are_equivalent(p in arb_pattern()) {
        let orders = analysis::top_matching_orders(&p);
        prop_assert!(!orders.is_empty());
        let best = analysis::analyze(&p);
        prop_assert_eq!(&orders[0], &best.order);
        prop_assert_eq!(analysis::analyze(&p), best);
    }
}

fn permute<F: FnMut(&[u32])>(items: &mut Vec<u32>, at: usize, f: &mut F) {
    if at == items.len() {
        f(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, f);
        items.swap(at, i);
    }
}

#[test]
fn motif_sets_are_closed_under_analysis() {
    for k in 3..=5 {
        for m in motifs::motifs(k) {
            let a = analysis::analyze(&m);
            assert!(a.pattern.is_isomorphic(&m));
        }
    }
}
