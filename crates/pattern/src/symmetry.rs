//! Symmetry-order generation (symmetry breaking).
//!
//! §II-B of the paper: "To avoid repetitive enumeration, only one
//! \[automorphism\], known as the canonical one, is kept \[...\]. A well
//! established approach for symmetry breaking is to define a partial order,
//! known as a symmetry order, for candidate vertices and add only those
//! subgraphs that satisfy the symmetry order."
//!
//! We implement the Grochow–Kellis construction used by GraphZero \[57\]:
//! repeatedly pick the first pattern position moved by the remaining
//! automorphism group, constrain it against its orbit, and descend into the
//! stabilizer. The result is a set of `v_later < v_earlier` data-vertex-id
//! constraints such that **exactly one labelling per automorphism class**
//! satisfies all of them — verified by the `unique_representative_per_class`
//! test below and by the cross-engine count tests in the workspace.

use crate::pattern::Pattern;
use std::collections::BTreeSet;

/// One symmetry-order constraint: the data vertex matched at position
/// `later` must have a smaller id than the one matched at position
/// `earlier` (paper notation: `v_earlier > v_later`).
///
/// `earlier < later` always holds, so at DFS depth `later` the constraint is
/// a *vid upper bound* — exactly the `pruneBy` bound of the paper's IR
/// (Listing 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SymmetryPair {
    /// Matching-order position whose data vertex must be larger.
    pub earlier: usize,
    /// Matching-order position whose data vertex must be smaller.
    pub later: usize,
}

/// Computes the symmetry order of a pattern whose vertices are already
/// labelled in matching order (position i = i-th matched vertex).
///
/// Returns the transitive reduction of the constraint set, matching the
/// minimal orders the paper shows (e.g. `{v0>v1, v1>v2, v0>v3}` for the
/// 4-cycle).
///
/// # Examples
///
/// ```
/// use fm_pattern::{symmetry, Pattern, SymmetryPair};
///
/// // Triangle: total order v0 > v1 > v2.
/// let pairs = symmetry::symmetry_pairs(&Pattern::triangle());
/// assert_eq!(pairs, vec![
///     SymmetryPair { earlier: 0, later: 1 },
///     SymmetryPair { earlier: 1, later: 2 },
/// ]);
/// ```
pub fn symmetry_pairs(p: &Pattern) -> Vec<SymmetryPair> {
    let mut auts = p.automorphisms();
    let mut pairs: Vec<SymmetryPair> = Vec::new();
    while auts.len() > 1 {
        let a = (0..p.size())
            .find(|&u| auts.iter().any(|phi| phi[u] != u))
            .expect("a non-identity group moves some vertex");
        let orbit: BTreeSet<usize> = auts.iter().map(|phi| phi[a]).collect();
        for &b in &orbit {
            if b != a {
                debug_assert!(b > a, "orbit members of the first moved position come later");
                pairs.push(SymmetryPair { earlier: a, later: b });
            }
        }
        auts.retain(|phi| phi[a] == a);
    }
    transitive_reduction(p.size(), pairs)
}

/// Removes constraints implied by transitivity (`a > b` and `b > c` imply
/// `a > c`), yielding the minimal partial order.
fn transitive_reduction(n: usize, pairs: Vec<SymmetryPair>) -> Vec<SymmetryPair> {
    // reach[a][b] = true if a > b is derivable.
    let mut direct = vec![vec![false; n]; n];
    for &SymmetryPair { earlier, later } in &pairs {
        direct[earlier][later] = true;
    }
    let mut reach = direct.clone();
    for k in 0..n {
        let row_k = reach[k].clone();
        for row in &mut reach {
            if row[k] {
                for (ri, &rk) in row.iter_mut().zip(&row_k) {
                    *ri |= rk;
                }
            }
        }
    }
    let mut out: Vec<SymmetryPair> = Vec::new();
    for &pair in &pairs {
        let SymmetryPair { earlier: a, later: b } = pair;
        // Keep a>b unless some intermediate m gives a>m and m>b.
        let implied = (0..n).any(|m| m != a && m != b && reach[a][m] && reach[m][b]);
        if !implied && !out.contains(&pair) {
            out.push(pair);
        }
    }
    out
}

/// Checks whether an assignment of (distinct) data ids to pattern positions
/// satisfies every constraint. Used by engines operating on complete
/// embeddings; the incremental per-depth check lives in the plan IR.
pub fn satisfies(pairs: &[SymmetryPair], ids: &[u32]) -> bool {
    pairs.iter().all(|p| ids[p.later] < ids[p.earlier])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(earlier: usize, later: usize) -> SymmetryPair {
        SymmetryPair { earlier, later }
    }

    #[test]
    fn clique_gets_total_order() {
        let pairs = symmetry_pairs(&Pattern::k_clique(4));
        assert_eq!(pairs, vec![pair(0, 1), pair(1, 2), pair(2, 3)]);
    }

    #[test]
    fn four_cycle_matches_paper_up_to_equivalence() {
        // Pattern relabelled in the paper's matching order: edges
        // u0-u1, u0-u2, u1-u3, u2-u3.
        let p = Pattern::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let pairs = symmetry_pairs(&p);
        // The paper's order {v0>v1, v1>v2, v0>v3}; transitive reduction of
        // the GK output gives exactly this set.
        assert_eq!(pairs, vec![pair(0, 1), pair(0, 3), pair(1, 2)]);
    }

    #[test]
    fn wedge_constrains_only_the_leaves() {
        let pairs = symmetry_pairs(&Pattern::wedge());
        assert_eq!(pairs, vec![pair(1, 2)]);
    }

    #[test]
    fn asymmetric_pattern_needs_no_constraints() {
        // A path of 4 with an extra pendant making it rigid:
        // 0-1-2-3 plus 1-4 gives Aut of order... the spider at 1 with legs
        // of length 1 (vertex 0), 1 (vertex 4) and 2 (2-3): swapping the two
        // length-1 legs is the only symmetry.
        let p = Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4)]).unwrap();
        let pairs = symmetry_pairs(&p);
        assert_eq!(pairs, vec![pair(0, 4)]);
    }

    /// The defining property: over all ways to injectively label the pattern
    /// with distinct ids, exactly one labelling per automorphism class
    /// satisfies the constraints.
    #[test]
    fn unique_representative_per_class() {
        for p in [
            Pattern::triangle(),
            Pattern::wedge(),
            Pattern::cycle(4),
            Pattern::cycle(5),
            Pattern::diamond(),
            Pattern::tailed_triangle(),
            Pattern::k_clique(4),
            Pattern::star(3),
            Pattern::path(4),
            Pattern::house(),
        ] {
            let pairs = symmetry_pairs(&p);
            let n = p.size();
            let auts = p.automorphisms();
            // Enumerate all permutations of ids 0..n as labellings.
            let mut satisfying = 0usize;
            let mut ids: Vec<u32> = (0..n as u32).collect();
            permute_u32(&mut ids, 0, &mut |lab| {
                if satisfies(&pairs, lab) {
                    satisfying += 1;
                }
            });
            let total = (1..=n).product::<usize>();
            assert_eq!(
                satisfying,
                total / auts.len(),
                "pattern {p}: want one representative per class"
            );
        }
    }

    fn permute_u32<F: FnMut(&[u32])>(items: &mut Vec<u32>, at: usize, f: &mut F) {
        if at == items.len() {
            f(items);
            return;
        }
        for i in at..items.len() {
            items.swap(at, i);
            permute_u32(items, at + 1, f);
            items.swap(at, i);
        }
    }

    #[test]
    fn transitive_reduction_removes_implied_pairs() {
        let pairs = transitive_reduction(3, vec![pair(0, 1), pair(1, 2), pair(0, 2)]);
        assert_eq!(pairs, vec![pair(0, 1), pair(1, 2)]);
    }

    #[test]
    fn satisfies_checks_all_pairs() {
        let pairs = vec![pair(0, 1), pair(1, 2)];
        assert!(satisfies(&pairs, &[5, 3, 1]));
        assert!(!satisfies(&pairs, &[5, 3, 4]));
    }
}
