//! Incremental construction of simple, symmetric graphs.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::vertex::VertexId;

/// Builder for [`CsrGraph`] values.
///
/// The builder accepts an arbitrary multiset of undirected edges and
/// produces a *simple, symmetric* graph: self loops are rejected, duplicate
/// edges (in either direction) are collapsed, both directions of every edge
/// are materialized, and every adjacency list is sorted ascending — exactly
/// the input format the paper requires of its datasets (Table I).
///
/// # Examples
///
/// ```
/// use fm_graph::GraphBuilder;
///
/// // Duplicates and reversed duplicates collapse to a single edge.
/// let g = GraphBuilder::new()
///     .edge(0, 1)
///     .edge(1, 0)
///     .edge(0, 1)
///     .build()?;
/// assert_eq!(g.num_undirected_edges(), 1);
/// # Ok::<(), fm_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(u32, u32)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an undirected edge between `u` and `v` (self loops are dropped
    /// silently; see [`GraphBuilder::try_edge`] to treat them as errors).
    ///
    /// Returns `self` for chaining. Consuming-builder style is used because
    /// graph construction is typically a one-shot pipeline.
    #[must_use]
    pub fn edge(mut self, u: u32, v: u32) -> Self {
        self.push(u, v);
        self
    }

    /// [`edge`](Self::edge) for callers that hold the builder in place.
    pub(crate) fn push(&mut self, u: u32, v: u32) {
        if u != v {
            self.edges.push((u, v));
        }
    }

    /// Adds an undirected edge, failing on self loops.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v`.
    pub fn try_edge(mut self, u: u32, v: u32) -> Result<Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.edges.push((u, v));
        Ok(self)
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    #[must_use]
    pub fn edges<I: IntoIterator<Item = (u32, u32)>>(mut self, iter: I) -> Self {
        for (u, v) in iter {
            self.push(u, v);
        }
        self
    }

    /// Ensures the built graph has at least `n` vertices, even if the
    /// highest-numbered ones are isolated.
    #[must_use]
    pub fn vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Finalizes the builder into a validated [`CsrGraph`].
    ///
    /// A counting sort: every edge is scattered into both endpoints' rows,
    /// then each row is sorted only if it did not arrive strictly
    /// ascending. Edges supplied as `(u, v)`, `u < v`, in ascending order —
    /// what the generators and [`write_edge_list`](crate::io::write_edge_list)
    /// emit — fill every row in order, so the build is linear in the input.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyVertices`] if more than `u32::MAX`
    /// vertices would be required.
    pub fn build(self) -> Result<CsrGraph, GraphError> {
        let GraphBuilder { edges, min_vertices } = self;
        let n =
            edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0).max(min_vertices);
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyVertices(n));
        }

        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // `offsets[v]` is the write cursor of row `v` during the scatter and
        // ends as the row's end; shifting right by one restores the starts.
        let mut neighbors = vec![VertexId(0); edges.len() * 2];
        for (u, v) in edges {
            neighbors[offsets[u as usize]] = VertexId(v);
            offsets[u as usize] += 1;
            neighbors[offsets[v as usize]] = VertexId(u);
            offsets[v as usize] += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;

        let mut duplicates = false;
        for row in offsets.windows(2) {
            let row = &mut neighbors[row[0]..row[1]];
            if !row.is_sorted_by(|a, b| a < b) {
                row.sort_unstable();
                duplicates |= row.windows(2).any(|w| w[0] == w[1]);
            }
        }
        if duplicates {
            let mut len = 0;
            let mut start = 0;
            for v in 0..n {
                let end = offsets[v + 1];
                for i in start..end {
                    if i == start || neighbors[i] != neighbors[i - 1] {
                        neighbors[len] = neighbors[i];
                        len += 1;
                    }
                }
                start = end;
                offsets[v + 1] = len;
            }
            neighbors.truncate(len);
        }
        CsrGraph::from_parts(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_symmetric_simple_graph() {
        let g = GraphBuilder::new()
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(2, 1) // duplicate, reversed
            .build()
            .unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_undirected_edges(), 3);
        assert!(g.is_symmetric());
    }

    #[test]
    fn self_loops_are_dropped_by_edge() {
        let g = GraphBuilder::new().edge(0, 0).edge(0, 1).build().unwrap();
        assert_eq!(g.num_undirected_edges(), 1);
        assert!(!g.has_edge(VertexId(0), VertexId(0)));
    }

    #[test]
    fn try_edge_rejects_self_loops() {
        let err = GraphBuilder::new().try_edge(4, 4).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop(4)));
    }

    #[test]
    fn vertices_pads_isolated_vertices() {
        let g = GraphBuilder::new().edge(0, 1).vertices(5).build().unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(VertexId(4)), 0);
    }

    #[test]
    fn empty_builder_produces_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_directed_edges(), 0);
    }

    #[test]
    fn edges_iterator_form_matches_chained_form() {
        let a = GraphBuilder::new().edges([(0, 1), (1, 2)]).build().unwrap();
        let b = GraphBuilder::new().edge(0, 1).edge(1, 2).build().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = GraphBuilder::new().edge(5, 0).edge(5, 3).edge(5, 1).build().unwrap();
        let ns: Vec<u32> = g.neighbors(VertexId(5)).iter().map(|v| v.0).collect();
        assert_eq!(ns, vec![0, 1, 3]);
    }
}
