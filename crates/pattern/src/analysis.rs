//! Matching-order selection and full pattern analysis.
//!
//! §II-B of the paper: "To generate a matching order, the pattern analyzer
//! first enumerates all the possible matching orders of P, and uses a set of
//! rules to pick one that is likely to perform well in practice \[49\]." The
//! key rule, illustrated with the diamond in Fig. 5, is to *match dense
//! substructures first*: an order that finds a triangle before extending is
//! better than one that finds a wedge first, because far fewer triangles
//! than wedges survive in sparse graphs.

use crate::depthset::DepthSet;
use crate::pattern::Pattern;
use crate::symmetry::{self, SymmetryPair};

/// A pattern together with its matching order, connected-ancestor sets and
/// symmetry order — everything the FlexMiner compiler needs to emit an
/// execution plan.
///
/// The contained [`pattern`](Self::pattern) is *relabelled* so that vertex
/// `i` is the vertex matched at DFS depth `i`; [`order`](Self::order) maps
/// positions back to the caller's original labels.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnalyzedPattern {
    /// The pattern relabelled into matching order.
    pub pattern: Pattern,
    /// `order[i]` = original label of the vertex matched at depth `i`.
    pub order: Vec<usize>,
    /// `connected_ancestors[i]` = set of depths `< i` whose matched vertex
    /// must be adjacent to the vertex matched at depth `i` (the `CA(u_i)`
    /// sets of §II-B).
    pub connected_ancestors: Vec<DepthSet>,
    /// Symmetry-order constraints (`v_later < v_earlier`).
    pub symmetry: Vec<SymmetryPair>,
}

impl AnalyzedPattern {
    /// Pattern size k.
    pub fn size(&self) -> usize {
        self.pattern.size()
    }
}

/// Analyzes a pattern: picks the best matching order, relabels, and derives
/// connected-ancestor sets and the symmetry order.
///
/// For patterns of at most 8 vertices every *connected* order (each vertex
/// after the first adjacent to an earlier one) is enumerated and scored; for
/// larger patterns a greedy order is used. Ties are broken deterministically
/// so plans are stable across runs.
///
/// # Examples
///
/// ```
/// use fm_pattern::{analysis, Pattern};
///
/// let a = analysis::analyze(&Pattern::cycle(4));
/// // 4-cycle: v1 and v2 both extend from v0; v3 joins v1 and v2
/// // (the matching order of Fig. 4 / Listing 1).
/// let ca: Vec<Vec<usize>> =
///     a.connected_ancestors.iter().map(|s| s.iter().collect()).collect();
/// assert_eq!(ca, vec![vec![], vec![0], vec![0], vec![1, 2]]);
/// ```
pub fn analyze(p: &Pattern) -> AnalyzedPattern {
    let order = best_matching_order(p);
    analyze_with_order(p, &order)
}

/// Analyzes a pattern with a caller-supplied matching order (original
/// labels, first-matched first). Useful for reproducing the paper's exact
/// plans and for testing order-quality effects.
///
/// # Panics
///
/// Panics if `order` is not a connected permutation of the pattern's
/// vertices.
pub fn analyze_with_order(p: &Pattern, order: &[usize]) -> AnalyzedPattern {
    assert!(is_connected_order(p, order), "matching order must be a connected permutation");
    let pattern = p.relabel(order);
    let connected_ancestors = ancestor_sets(&pattern);
    let symmetry = symmetry::symmetry_pairs(&pattern);
    AnalyzedPattern { pattern, order: order.to_vec(), connected_ancestors, symmetry }
}

/// `CA(i)` per depth for a pattern already labelled in matching order.
fn ancestor_sets(p: &Pattern) -> Vec<DepthSet> {
    (0..p.size()).map(|i| DepthSet::from_depths(p.neighbors(i).iter().filter(|&j| j < i))).collect()
}

fn is_connected_order(p: &Pattern, order: &[usize]) -> bool {
    if order.len() != p.size() {
        return false;
    }
    let mut seen = DepthSet::new();
    for (i, &u) in order.iter().enumerate() {
        if u >= p.size() || seen.contains(u) {
            return false;
        }
        if i > 0 && p.neighbors(u).intersection(seen).is_empty() {
            return false;
        }
        seen.insert(u);
    }
    true
}

/// Score of an order: the per-depth connected-ancestor counts. Compared
/// lexicographically, larger is better — more constraints earlier means
/// more pruning earlier (the triangle-first rule of Fig. 5).
fn order_score(p: &Pattern, order: &[usize]) -> Vec<usize> {
    let mut seen = DepthSet::new();
    let mut score = Vec::with_capacity(order.len());
    for &u in order {
        score.push(p.neighbors(u).intersection(seen).len());
        seen.insert(u);
    }
    score
}

/// Secondary score: per-depth connected-ancestor bitmasks of the relabelled
/// pattern. Compared lexicographically, *smaller* is better — extending
/// from shallower ancestors maximizes frontier-list and c-map reuse, since
/// shallow embedding vertices change least often during the DFS. This is
/// what makes the analyzer choose the paper's 4-cycle order
/// (`CA = {{},{0},{0},{1,2}}`, Listing 1) over the equally-constrained
/// chain order.
fn order_ancestor_bits(p: &Pattern, order: &[usize]) -> Vec<u64> {
    let mut pos = vec![usize::MAX; p.size()];
    for (i, &u) in order.iter().enumerate() {
        pos[u] = i;
    }
    order
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            DepthSet::from_depths(p.neighbors(u).iter().map(|w| pos[w]).filter(|&j| j < i)).bits()
        })
        .collect()
}

/// Picks the best matching order for `p` (original labels).
pub fn best_matching_order(p: &Pattern) -> Vec<usize> {
    if p.size() <= 8 {
        best_order_exhaustive(p)
    } else {
        greedy_order(p)
    }
}

/// All matching orders achieving the maximal constraint-count score,
/// sorted by the same deterministic tie-break as [`analyze`] (best first).
///
/// Multi-pattern compilation uses this to pick, per pattern, the tied order
/// that maximizes dependency-chain sharing with the other patterns (§V-B of
/// the paper: "we merge multiple chains using a dependency tree whenever
/// possible").
///
/// For patterns larger than 8 vertices only the greedy order is returned.
pub fn top_matching_orders(p: &Pattern) -> Vec<Vec<usize>> {
    if p.size() > 8 {
        return vec![greedy_order(p)];
    }
    let mut all: Vec<(OrderKey, Vec<usize>)> = Vec::new();
    let mut order: Vec<usize> = Vec::with_capacity(p.size());
    let mut seen = DepthSet::new();
    collect_orders(p, &mut order, &mut seen, &mut all);
    let best_score =
        all.iter().map(|(k, _)| k.0.clone()).max().expect("connected pattern has an order");
    let mut top: Vec<(OrderKey, Vec<usize>)> =
        all.into_iter().filter(|(k, _)| k.0 == best_score).collect();
    top.sort_by(|a, b| b.0.cmp(&a.0));
    top.into_iter().map(|(_, o)| o).collect()
}

fn collect_orders(
    p: &Pattern,
    order: &mut Vec<usize>,
    seen: &mut DepthSet,
    out: &mut Vec<(OrderKey, Vec<usize>)>,
) {
    let n = p.size();
    if order.len() == n {
        let key: OrderKey = (
            order_score(p, order),
            std::cmp::Reverse(order_ancestor_bits(p, order)),
            std::cmp::Reverse(order.clone()),
        );
        out.push((key, order.clone()));
        return;
    }
    for u in 0..n {
        if seen.contains(u) {
            continue;
        }
        if !order.is_empty() && p.neighbors(u).intersection(*seen).is_empty() {
            continue;
        }
        order.push(u);
        seen.insert(u);
        collect_orders(p, order, seen, out);
        seen.remove(u);
        order.pop();
    }
}

type OrderKey = (Vec<usize>, std::cmp::Reverse<Vec<u64>>, std::cmp::Reverse<Vec<usize>>);

fn best_order_exhaustive(p: &Pattern) -> Vec<usize> {
    let n = p.size();
    let mut best: Option<(OrderKey, Vec<usize>)> = None;
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut seen = DepthSet::new();
    fn rec(
        p: &Pattern,
        order: &mut Vec<usize>,
        seen: &mut DepthSet,
        best: &mut Option<(OrderKey, Vec<usize>)>,
    ) {
        let n = p.size();
        if order.len() == n {
            // Maximize constraint counts, then prefer shallow ancestors,
            // then the lexicographically smallest order, for determinism.
            let key: OrderKey = (
                order_score(p, order),
                std::cmp::Reverse(order_ancestor_bits(p, order)),
                std::cmp::Reverse(order.clone()),
            );
            let better = match best {
                None => true,
                Some((bk, _)) => key > *bk,
            };
            if better {
                *best = Some((key, order.clone()));
            }
            return;
        }
        for u in 0..n {
            if seen.contains(u) {
                continue;
            }
            if !order.is_empty() && p.neighbors(u).intersection(*seen).is_empty() {
                continue;
            }
            order.push(u);
            seen.insert(u);
            rec(p, order, seen, best);
            seen.remove(u);
            order.pop();
        }
    }
    rec(p, &mut order, &mut seen, &mut best);
    best.expect("a connected pattern always has a connected order").1
}

/// Greedy fallback for large patterns: start at a max-degree vertex, then
/// repeatedly take the unmatched vertex with the most already-matched
/// neighbors (max constraints), tie-breaking by degree then label.
fn greedy_order(p: &Pattern) -> Vec<usize> {
    let n = p.size();
    let start = (0..n).max_by_key(|&u| (p.degree(u), std::cmp::Reverse(u))).expect("nonempty");
    let mut order = vec![start];
    let mut seen = DepthSet::from_depths([start]);
    while order.len() < n {
        let next = (0..n)
            .filter(|&u| !seen.contains(u) && !p.neighbors(u).intersection(seen).is_empty())
            .max_by_key(|&u| {
                (p.neighbors(u).intersection(seen).len(), p.degree(u), std::cmp::Reverse(u))
            })
            .expect("connected pattern always has an extendable vertex");
        order.push(next);
        seen.insert(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ca_sizes(a: &AnalyzedPattern) -> Vec<usize> {
        a.connected_ancestors.iter().map(|s| s.len()).collect()
    }

    #[test]
    fn diamond_picks_triangle_first() {
        // Fig. 5: the triangle-first order dominates the wedge-first one.
        let a = analyze(&Pattern::diamond());
        assert_eq!(ca_sizes(&a), vec![0, 1, 2, 2]);
    }

    #[test]
    fn clique_order_is_fully_constrained() {
        let a = analyze(&Pattern::k_clique(5));
        assert_eq!(ca_sizes(&a), vec![0, 1, 2, 3, 4]);
        // Total symmetry order for cliques.
        assert_eq!(a.symmetry.len(), 4);
    }

    #[test]
    fn four_cycle_matches_listing_one() {
        let a = analyze(&Pattern::cycle(4));
        let ca: Vec<Vec<usize>> =
            a.connected_ancestors.iter().map(|s| s.iter().collect()).collect();
        assert_eq!(ca, vec![vec![], vec![0], vec![0], vec![1, 2]]);
        // Symmetry order equivalent to {v0>v1, v1>v2, v0>v3}.
        use crate::symmetry::SymmetryPair as SP;
        assert_eq!(
            a.symmetry,
            vec![
                SP { earlier: 0, later: 1 },
                SP { earlier: 0, later: 3 },
                SP { earlier: 1, later: 2 }
            ]
        );
    }

    #[test]
    fn tailed_triangle_matches_figure_11c() {
        let a = analyze(&Pattern::tailed_triangle());
        // Triangle first, tail last: CA sizes [0, 1, 2, 1].
        assert_eq!(ca_sizes(&a), vec![0, 1, 2, 1]);
        // Exactly one constraint between the two interchangeable triangle
        // vertices (Fig. 11c shows v1<v0; our shallow-ancestor tie-break
        // attaches the tail to v0, making v1 and v2 the interchangeable
        // pair — the equivalent order v2<v1).
        assert_eq!(a.symmetry.len(), 1);
        assert_eq!((a.symmetry[0].earlier, a.symmetry[0].later), (1, 2));
        // The tail extends from the shallowest possible ancestor.
        assert_eq!(a.connected_ancestors[3].iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn analyzed_pattern_is_isomorphic_to_input() {
        for p in [Pattern::house(), Pattern::diamond(), Pattern::cycle(5), Pattern::star(4)] {
            let a = analyze(&p);
            assert!(a.pattern.is_isomorphic(&p));
            // order is a permutation.
            let mut sorted = a.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..p.size()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_noninitial_vertex_has_an_ancestor() {
        for p in [Pattern::house(), Pattern::path(5), Pattern::star(4), Pattern::cycle(6)] {
            let a = analyze(&p);
            for (i, ca) in a.connected_ancestors.iter().enumerate() {
                if i == 0 {
                    assert!(ca.is_empty());
                } else {
                    assert!(!ca.is_empty(), "depth {i} of {p} must connect to an ancestor");
                }
            }
        }
    }

    #[test]
    fn analyze_with_order_respects_caller_order() {
        // Force the wedge-first diamond order and confirm the weaker score.
        let p = Pattern::diamond();
        // Original diamond labels: 0-1 shared edge, 2 and 3 joined to both.
        // Wedge-first: match 2, then 0, then 3 (0 and 3 adjacent? yes), ...
        let a = analyze_with_order(&p, &[2, 0, 3, 1]);
        assert_eq!(ca_sizes(&a)[..2], [0, 1]);
        assert!(ca_sizes(&a) < vec![0, 1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "connected permutation")]
    fn analyze_with_disconnected_order_panics() {
        // For a path 0-1-2-3, [0, 2, ...] is not a connected order.
        let _ = analyze_with_order(&Pattern::path(4), &[0, 2, 1, 3]);
    }

    #[test]
    fn greedy_order_used_for_large_patterns_is_connected() {
        let p = Pattern::k_clique(9);
        let order = best_matching_order(&p);
        assert!(is_connected_order(&p, &order));
        let a = analyze(&p);
        assert_eq!(ca_sizes(&a), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn top_orders_all_share_the_best_score() {
        let p = Pattern::diamond();
        let orders = top_matching_orders(&p);
        assert!(!orders.is_empty());
        let best = order_score(&p, &orders[0]);
        for o in &orders {
            assert!(is_connected_order(&p, o));
            assert_eq!(order_score(&p, o), best);
        }
        // The analyze() winner is the first entry.
        assert_eq!(orders[0], analyze(&p).order);
    }

    #[test]
    fn top_orders_include_both_tail_attachments() {
        // Tailed triangle: tail can attach to either interchangeable
        // triangle vertex; both appear among the top orders, which is what
        // lets multi-pattern compilation merge with the diamond (Listing 2).
        let orders = top_matching_orders(&Pattern::tailed_triangle());
        assert!(orders.len() >= 2);
    }

    #[test]
    fn analysis_is_deterministic() {
        for p in [Pattern::cycle(4), Pattern::diamond(), Pattern::house()] {
            assert_eq!(analyze(&p), analyze(&p));
        }
    }
}
