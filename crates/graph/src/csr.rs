//! Compressed-sparse-row graph representation.

use crate::error::GraphError;
use crate::vertex::VertexId;

/// An immutable graph in compressed-sparse-row (CSR) format.
///
/// This is the representation FlexMiner streams from memory (§VII-A of the
/// paper: "We represent the input graphs in the compressed sparse row (CSR)
/// format. The neighbor list of each vertex is sorted by ascending vertex
/// ID."). All mining engines and the hardware simulator operate on this
/// type.
///
/// Invariants (established by [`CsrGraph::from_parts`] and by
/// [`GraphBuilder`](crate::GraphBuilder)):
///
/// * `offsets.len() == num_vertices + 1`, monotonically non-decreasing,
///   `offsets[0] == 0`, `offsets[n] == neighbors.len()`;
/// * every adjacency slice is strictly ascending (sorted, duplicate-free);
/// * no self loops.
///
/// Symmetry is *not* an invariant of the type — the DAG produced by
/// [`orient_by_degree`](crate::orient_by_degree) is also a `CsrGraph` — but
/// [`CsrGraph::is_symmetric`] reports it and the builder always produces
/// symmetric graphs.
///
/// # Examples
///
/// ```
/// use fm_graph::{generators, VertexId};
///
/// let g = generators::complete(4);
/// assert_eq!(g.degree(VertexId(0)), 3);
/// assert_eq!(g.neighbors(VertexId(2)), &[VertexId(0), VertexId(1), VertexId(3)]);
/// assert!(g.is_symmetric());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
}

impl Default for CsrGraph {
    /// The empty graph (no vertices), equal to
    /// `GraphBuilder::new().build()`: `offsets` always holds
    /// `num_vertices() + 1` entries, so it starts as `[0]`, not empty.
    fn default() -> Self {
        CsrGraph { offsets: vec![0], neighbors: Vec::new() }
    }
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays, validating all invariants.
    ///
    /// Prefer [`GraphBuilder`](crate::GraphBuilder) unless the arrays are
    /// already in CSR form (an orientation pass, a counting-sort ingest).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the offsets are malformed, an adjacency
    /// list is unsorted or contains duplicates, a neighbor id is out of
    /// range, or a self loop is present.
    pub fn from_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Result<Self, GraphError> {
        Self::validate(&offsets, &neighbors)?;
        Ok(CsrGraph { offsets, neighbors })
    }

    /// [`from_parts`](Self::from_parts) for arrays that are valid by
    /// construction; the invariants are only re-checked in debug builds.
    pub(crate) fn from_valid_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        debug_assert!(Self::validate(&offsets, &neighbors).is_ok());
        CsrGraph { offsets, neighbors }
    }

    fn validate(offsets: &[usize], neighbors: &[VertexId]) -> Result<(), GraphError> {
        if offsets.is_empty() {
            return Err(GraphError::MalformedOffsets("offsets array is empty".into()));
        }
        if offsets[0] != 0 {
            return Err(GraphError::MalformedOffsets("offsets[0] must be 0".into()));
        }
        if *offsets.last().expect("nonempty") != neighbors.len() {
            return Err(GraphError::MalformedOffsets(
                "last offset must equal the neighbor array length".into(),
            ));
        }
        let n = offsets.len() - 1;
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyVertices(n));
        }
        for w in offsets.windows(2) {
            if w[0] > w[1] {
                return Err(GraphError::MalformedOffsets("offsets must be non-decreasing".into()));
            }
        }
        for v in 0..n {
            let list = &neighbors[offsets[v]..offsets[v + 1]];
            for (i, &u) in list.iter().enumerate() {
                if u.index() >= n {
                    return Err(GraphError::NeighborOutOfRange { vertex: v as u32, neighbor: u.0 });
                }
                if u.index() == v {
                    return Err(GraphError::SelfLoop(v as u32));
                }
                if i > 0 && list[i - 1] >= u {
                    return Err(GraphError::UnsortedAdjacency(v as u32));
                }
            }
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (adjacency entries). For a symmetric graph
    /// this is twice the undirected edge count.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of undirected edges, assuming the graph is symmetric.
    ///
    /// For an oriented DAG (where each undirected edge appears once) use
    /// [`num_directed_edges`](Self::num_directed_edges) instead.
    #[inline]
    pub fn num_undirected_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree (adjacency-list length) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// The sorted adjacency list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Byte offset of the start of `v`'s adjacency list within the neighbor
    /// array, as laid out in accelerator memory (4 bytes per entry).
    ///
    /// The hardware simulator uses this to derive cache-line addresses for
    /// edge-list reads.
    #[inline]
    pub fn adjacency_byte_offset(&self, v: VertexId) -> usize {
        self.offsets[v.index()] * 4
    }

    /// Whether the edge `(u, v)` exists, via binary search on `u`'s sorted
    /// adjacency list.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices()).map(|v| self.degree(VertexId(v as u32))).max().unwrap_or(0)
    }

    /// Average degree (directed edges / vertices; 0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_directed_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Whether every edge `(u, v)` has a reverse edge `(v, u)`.
    pub fn is_symmetric(&self) -> bool {
        self.vertices().all(|u| self.neighbors(u).iter().all(|&v| self.has_edge(v, u)))
    }

    /// Iterator over all vertex ids, in ascending order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterator over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterator over undirected edges, yielding each `(u, v)` with `u < v`
    /// exactly once. Only meaningful on symmetric graphs.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.edges().filter(|(u, v)| u < v)
    }

    /// Decomposes the graph into its raw CSR arrays.
    pub fn into_parts(self) -> (Vec<usize>, Vec<VertexId>) {
        (self.offsets, self.neighbors)
    }

    /// The raw offsets array (length `num_vertices + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw, concatenated neighbor array.
    pub fn neighbor_array(&self) -> &[VertexId] {
        &self.neighbors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn default_is_the_valid_empty_graph() {
        let g = CsrGraph::default();
        assert_eq!((g.num_vertices(), g.num_directed_edges()), (0, 0));
        assert_eq!(g, GraphBuilder::new().build().expect("empty graph builds"));
        assert_eq!(g, CsrGraph::from_parts(vec![0], Vec::new()).expect("valid"));
        assert!(g.is_symmetric());
        assert_eq!(g.vertices().count(), 0);
    }

    fn triangle_plus_tail() -> CsrGraph {
        GraphBuilder::new()
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(2, 3)
            .build()
            .expect("valid graph")
    }

    #[test]
    fn from_parts_accepts_valid_csr() {
        // 0 - 1 edge, symmetric.
        let g = CsrGraph::from_parts(vec![0, 1, 2], vec![VertexId(1), VertexId(0)]).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_undirected_edges(), 1);
        assert!(g.is_symmetric());
    }

    #[test]
    fn from_parts_rejects_bad_offsets() {
        assert!(matches!(
            CsrGraph::from_parts(vec![], vec![]),
            Err(GraphError::MalformedOffsets(_))
        ));
        assert!(matches!(
            CsrGraph::from_parts(vec![1, 1], vec![VertexId(0)]),
            Err(GraphError::MalformedOffsets(_))
        ));
        assert!(matches!(
            CsrGraph::from_parts(vec![0, 2, 1], vec![VertexId(0), VertexId(1)]),
            Err(GraphError::MalformedOffsets(_))
        ));
        assert!(matches!(
            CsrGraph::from_parts(vec![0, 0, 3], vec![VertexId(0)]),
            Err(GraphError::MalformedOffsets(_))
        ));
    }

    #[test]
    fn from_parts_rejects_self_loop() {
        let err = CsrGraph::from_parts(vec![0, 1], vec![VertexId(0)]).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop(0)));
    }

    #[test]
    fn from_parts_rejects_unsorted_or_duplicate_adjacency() {
        let err = CsrGraph::from_parts(
            vec![0, 2, 3, 4],
            vec![VertexId(2), VertexId(1), VertexId(0), VertexId(0)],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::UnsortedAdjacency(0)));

        let err = CsrGraph::from_parts(
            vec![0, 2, 3, 4],
            vec![VertexId(1), VertexId(1), VertexId(0), VertexId(0)],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::UnsortedAdjacency(0)));
    }

    #[test]
    fn from_parts_rejects_out_of_range_neighbor() {
        let err = CsrGraph::from_parts(vec![0, 1], vec![VertexId(5)]).unwrap_err();
        assert!(matches!(err, GraphError::NeighborOutOfRange { vertex: 0, neighbor: 5 }));
    }

    #[test]
    fn accessors_report_structure() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_directed_edges(), 8);
        assert_eq!(g.num_undirected_edges(), 4);
        assert_eq!(g.degree(VertexId(2)), 3);
        assert_eq!(g.degree(VertexId(3)), 1);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.neighbors(VertexId(2)), &[VertexId(0), VertexId(1), VertexId(3)]);
    }

    #[test]
    fn has_edge_matches_adjacency() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(3), VertexId(2)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
    }

    #[test]
    fn undirected_edges_yield_each_pair_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.undirected_edges().collect();
        assert_eq!(
            edges,
            vec![
                (VertexId(0), VertexId(1)),
                (VertexId(0), VertexId(2)),
                (VertexId(1), VertexId(2)),
                (VertexId(2), VertexId(3)),
            ]
        );
    }

    #[test]
    fn empty_graph_is_well_behaved() {
        let g = CsrGraph::from_parts(vec![0], vec![]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.is_symmetric());
    }

    #[test]
    fn adjacency_byte_offset_is_four_bytes_per_entry() {
        let g = triangle_plus_tail();
        assert_eq!(g.adjacency_byte_offset(VertexId(0)), 0);
        assert_eq!(g.adjacency_byte_offset(VertexId(1)), g.degree(VertexId(0)) * 4);
    }
}
