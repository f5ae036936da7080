//! Degree-based DAG orientation for k-clique mining.
//!
//! §V-C of the paper: "the compiler does special optimization when detecting
//! k-clique at pattern analysis, since symmetry breaking can be done by the
//! orientation technique, i.e., converting the undirected data graph G into
//! a directed acyclic graph (DAG). [...] A commonly used approach is to
//! enforce the vertex with smaller degree points to the vertex with larger
//! degree. Vertex ID is used when there is a tie."

use crate::csr::CsrGraph;

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
    // One compact array: ranking a neighbour is one load, not two offsets.
    let degree: Vec<u32> = g.offsets().windows(2).map(|w| (w[1] - w[0]) as u32).collect();
    let mut offsets = Vec::with_capacity(degree.len() + 1);
    offsets.push(0);
    let mut neighbors = Vec::with_capacity(g.num_undirected_edges());
    for u in g.vertices() {
        let rank_u = (degree[u.index()], u);
        // Adjacency stays sorted by id; the filter preserves relative order.
        neighbors
            .extend(g.neighbors(u).iter().copied().filter(|&v| rank_u < (degree[v.index()], v)));
        offsets.push(neighbors.len());
    }
    // A subsequence of each valid row is a valid row.
    CsrGraph::from_valid_parts(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;
    use crate::vertex::VertexId;

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
}
