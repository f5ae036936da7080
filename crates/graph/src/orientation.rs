//! Degree-based DAG orientation for k-clique mining.
//!
//! §V-C of the paper: "the compiler does special optimization when detecting
//! k-clique at pattern analysis, since symmetry breaking can be done by the
//! orientation technique, i.e., converting the undirected data graph G into
//! a directed acyclic graph (DAG). [...] A commonly used approach is to
//! enforce the vertex with smaller degree points to the vertex with larger
//! degree. Vertex ID is used when there is a tie."

use crate::csr::CsrGraph;
use crate::vertex::VertexId;

/// Converts a symmetric graph into a DAG by keeping, for each undirected
/// edge `{u, v}`, only the direction from the "smaller" endpoint to the
/// "larger" endpoint under the total order `(degree, id)`.
///
/// After orientation no symmetry-order checking is needed at runtime for
/// clique patterns: every k-clique appears exactly once as a directed path
/// through monotonically increasing `(degree, id)` ranks. The maximum
/// out-degree of the result is bounded by the graph degeneracy-ish
/// `O(sqrt(|E|))` for real-world graphs, which is what makes clique mining
/// cheap.
///
/// The output is a `CsrGraph` that is *not* symmetric.
///
/// # Examples
///
/// ```
/// use fm_graph::{generators, orient_by_degree};
///
/// let g = generators::complete(4);
/// let dag = orient_by_degree(&g);
/// // Each of the 6 undirected edges keeps exactly one direction.
/// assert_eq!(dag.num_directed_edges(), 6);
/// ```
pub fn orient_by_degree(g: &CsrGraph) -> CsrGraph {
    // One compact array: ranking a neighbour is one load, and its packed
    // rank `(degree << 32) | id` orders as the pair does, in one compare.
    let degree: Vec<u32> = g.offsets().windows(2).map(|w| (w[1] - w[0]) as u32).collect();
    let rank = |v: VertexId| u64::from(degree[v.index()]) << 32 | u64::from(v.0);
    let mut offsets = Vec::with_capacity(degree.len() + 1);
    offsets.push(0);
    // Every neighbour is written and only a kept one advances the cursor,
    // so the rank test is an add, not a branch; a dropped neighbour is
    // overwritten by the next (the spare slot takes the last one). Rows
    // stay sorted by id: the kept ones keep their relative order.
    let mut neighbors = vec![VertexId(0); g.num_undirected_edges() + 1];
    let mut kept = 0;
    for u in g.vertices() {
        let rank_u = rank(u);
        for &v in g.neighbors(u) {
            neighbors[kept] = v;
            kept += usize::from(rank_u < rank(v));
        }
        offsets.push(kept);
    }
    neighbors.truncate(kept);
    // A subsequence of each valid row is a valid row.
    CsrGraph::from_valid_parts(offsets, neighbors)
}

/// Renumbers the vertices of a symmetric graph by the orientation's total
/// order `(degree, id)`, ascending: new id `i` is the `i`-th vertex in that
/// order. Returns the renumbered graph, its rows sorted, and `labels`, where
/// `labels[new]` is the input id.
///
/// Degrees are non-decreasing in the new ids, so on the result the
/// orientation's order is the id order: [`orient_by_degree`] keeps `u → v`
/// exactly when `v > u`, and every symmetry bound `v < u` of a plan is a
/// degree bound. Any total order is a valid symmetry order, so every plan
/// counts the same on the result as on the input; what moves is which
/// vertices a bounded extension or a pair join expands — low-degree ones.
///
/// # Examples
///
/// ```
/// use fm_graph::{generators, rank_order, VertexId};
///
/// // A star's hub has the largest degree, so it takes the last id.
/// let (ranked, labels) = rank_order(&generators::star(3));
/// assert_eq!(labels, [VertexId(1), VertexId(2), VertexId(3), VertexId(0)]);
/// assert_eq!(ranked.degree(VertexId(3)), 3);
/// ```
pub fn rank_order(g: &CsrGraph) -> (CsrGraph, Vec<VertexId>) {
    debug_assert!(g.is_symmetric(), "rank_order renumbers symmetric graphs");
    let n = g.num_vertices();
    let degree = |v: usize| g.offsets()[v + 1] - g.offsets()[v];
    // Counting sort by degree, visiting ids ascending: stable, so ties
    // keep their id order. `next[d]` is the next new id of degree `d`.
    let mut next = vec![0usize; (0..n).map(degree).max().map_or(1, |d| d + 2)];
    for v in 0..n {
        next[degree(v) + 1] += 1;
    }
    for d in 1..next.len() {
        next[d] += next[d - 1];
    }
    let mut labels = vec![VertexId(0); n];
    let mut rank = vec![0u32; n];
    for v in 0..n {
        let slot = &mut next[degree(v)];
        labels[*slot] = VertexId(v as u32);
        rank[v] = *slot as u32;
        *slot += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    for &v in &labels {
        offsets.push(offsets[offsets.len() - 1] + degree(v.index()));
    }
    // `u` is in `v`'s row exactly when `v` is in `u`'s, so appending each
    // vertex, new ids ascending, to the rows of its neighbours fills every
    // row in ascending order: no row is sorted afterwards.
    let mut cursor = offsets[..n].to_vec();
    let mut neighbors = vec![VertexId(0); g.num_directed_edges()];
    for (new, &v) in labels.iter().enumerate() {
        for &u in g.neighbors(v) {
            let at = &mut cursor[rank[u.index()] as usize];
            neighbors[*at] = VertexId(new as u32);
            *at += 1;
        }
    }
    (CsrGraph::from_valid_parts(offsets, neighbors), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    /// Checks acyclicity by verifying all edges increase the (degree, id)
    /// rank — a topological order by construction.
    fn is_acyclic_by_rank(g: &CsrGraph, dag: &CsrGraph) -> bool {
        dag.edges().all(|(u, v)| (g.degree(u), u) < (g.degree(v), v))
    }

    #[test]
    fn keeps_each_undirected_edge_once() {
        let g = generators::erdos_renyi(60, 0.2, 3);
        let dag = orient_by_degree(&g);
        assert_eq!(dag.num_directed_edges(), g.num_undirected_edges());
    }

    #[test]
    fn result_is_acyclic() {
        let g = generators::preferential_attachment(150, 3, 11);
        let dag = orient_by_degree(&g);
        assert!(is_acyclic_by_rank(&g, &dag));
    }

    #[test]
    fn ties_break_by_vertex_id() {
        // A triangle: all degrees equal, so orientation must follow ids.
        let g = generators::complete(3);
        let dag = orient_by_degree(&g);
        assert!(dag.has_edge(VertexId(0), VertexId(1)));
        assert!(dag.has_edge(VertexId(0), VertexId(2)));
        assert!(dag.has_edge(VertexId(1), VertexId(2)));
        assert!(!dag.has_edge(VertexId(1), VertexId(0)));
    }

    #[test]
    fn low_degree_points_to_high_degree() {
        // Star: leaves (degree 1) must point at the hub (degree 3).
        let g = generators::star(3);
        let dag = orient_by_degree(&g);
        for leaf in 1..=3u32 {
            assert!(dag.has_edge(VertexId(leaf), VertexId(0)));
        }
        assert_eq!(dag.degree(VertexId(0)), 0);
    }

    #[test]
    fn out_degree_is_bounded_on_star_like_graphs() {
        // The hub of a big star has out-degree 0 after orientation, so the
        // max out-degree collapses from n to 1.
        let g = generators::star(500);
        let dag = orient_by_degree(&g);
        assert_eq!(dag.max_degree(), 1);
    }

    #[test]
    fn adjacency_stays_sorted() {
        let g = GraphBuilder::new().edge(5, 1).edge(5, 9).edge(5, 3).edge(1, 9).build().unwrap();
        let dag = orient_by_degree(&g);
        for v in dag.vertices() {
            let ns = dag.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The packed, branch-free pass writes the arrays the `(degree, id)`
    /// filter writes, ties and hubs included.
    #[test]
    fn packed_ranks_keep_what_the_pair_order_keeps() {
        let graphs = [
            generators::powerlaw_cluster(300, 4, 0.5, 5),
            generators::caveman(20, 6, 30, 2),
            generators::complete(9),
            generators::star(40),
            GraphBuilder::new().vertices(4).build().unwrap(),
        ];
        for g in &graphs {
            let dag = orient_by_degree(g);
            let mut offsets = vec![0];
            let mut neighbors = Vec::new();
            for u in g.vertices() {
                let rank_u = (g.degree(u), u);
                neighbors.extend(g.neighbors(u).iter().filter(|&&v| rank_u < (g.degree(v), v)));
                offsets.push(neighbors.len());
            }
            assert_eq!(dag.offsets(), &offsets[..]);
            assert_eq!(dag.neighbor_array(), &neighbors[..]);
        }
    }

    /// The definition: sort the vertices by `(degree, id)`, rename every
    /// neighbour, sort every row.
    fn rank_order_oracle(g: &CsrGraph) -> (CsrGraph, Vec<VertexId>) {
        let mut labels: Vec<VertexId> = g.vertices().collect();
        labels.sort_by_key(|&v| (g.degree(v), v));
        let mut rank = vec![0; g.num_vertices()];
        for (new, v) in labels.iter().enumerate() {
            rank[v.index()] = new as u32;
        }
        let mut offsets = vec![0];
        let mut neighbors = Vec::new();
        for &v in &labels {
            let mut row: Vec<VertexId> =
                g.neighbors(v).iter().map(|u| VertexId(rank[u.index()])).collect();
            row.sort_unstable();
            neighbors.extend(row);
            offsets.push(neighbors.len());
        }
        (CsrGraph::from_parts(offsets, neighbors).expect("a valid graph"), labels)
    }

    /// What a renumbering by rank must be, whatever computes it: a
    /// permutation under which degrees never fall, rows stay sorted and
    /// every edge is an input edge and the other way round.
    fn assert_ranked(g: &CsrGraph, ranked: &CsrGraph, labels: &[VertexId]) {
        let n = g.num_vertices();
        assert_eq!((ranked.num_vertices(), labels.len()), (n, n));
        let mut seen = vec![false; n];
        for v in labels {
            assert!(!std::mem::replace(&mut seen[v.index()], true), "{v:?} labelled twice");
        }
        let rank: Vec<_> =
            ranked.vertices().map(|v| (ranked.degree(v), labels[v.index()])).collect();
        assert!(rank.windows(2).all(|w| w[0] < w[1]), "not in (degree, id) order");
        for v in ranked.vertices() {
            assert!(ranked.neighbors(v).windows(2).all(|w| w[0] < w[1]), "row {v:?} unsorted");
            assert_eq!(ranked.degree(v), g.degree(labels[v.index()]));
        }
        assert_eq!(ranked.num_directed_edges(), g.num_directed_edges());
        assert!(ranked.edges().all(|(u, v)| g.has_edge(labels[u.index()], labels[v.index()])));
    }

    #[test]
    fn rank_order_renumbers_every_generator_by_degree_then_id() {
        let graphs = [
            generators::powerlaw_cluster(400, 4, 0.5, 5),
            generators::preferential_attachment(300, 3, 2),
            generators::erdos_renyi(200, 0.05, 9),
            generators::complete(9),
            generators::caveman(20, 6, 30, 2),
            // A hub at id 0 and isolated vertices.
            generators::star(40),
            GraphBuilder::new().vertices(4).build().unwrap(),
            CsrGraph::default(),
        ];
        for g in &graphs {
            let (ranked, labels) = rank_order(g);
            assert_ranked(g, &ranked, &labels);
            assert_eq!((ranked, labels), rank_order_oracle(g));
        }
        // Equal degrees keep their id order: ranking a regular graph is the
        // identity.
        let k9 = generators::complete(9);
        assert_eq!(rank_order(&k9), (k9.clone(), k9.vertices().collect()));
        // Ranking a ranked graph changes nothing.
        let (ranked, _) = rank_order(&graphs[0]);
        assert_eq!(rank_order(&ranked).0, ranked);
    }

    proptest::proptest! {
        #[test]
        fn rank_order_equals_its_oracle(
            edges in proptest::prop::collection::vec((0u32..50, 0u32..50), 0..300),
            isolated in 0usize..8,
        ) {
            // Ids past 49 are isolated.
            let built = GraphBuilder::new().edges(edges).vertices(50 + isolated).build();
            let g = built.expect("a valid graph");
            let (ranked, labels) = rank_order(&g);
            assert_ranked(&g, &ranked, &labels);
            proptest::prop_assert_eq!((ranked, labels), rank_order_oracle(&g));
        }
    }
}
