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
}
