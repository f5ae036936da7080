//! Incremental construction of simple, symmetric graphs.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::vertex::VertexId;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;

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
    /// From 2¹⁷ edges on, every core fills its own range of rows.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyVertices`] if more than `u32::MAX`
    /// vertices would be required.
    pub fn build(self) -> Result<CsrGraph, GraphError> {
        let GraphBuilder { edges, min_vertices } = self;
        let n =
            edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0).max(min_vertices);
        assemble(std::slice::from_ref(&edges), n, assembly_workers(edges.len(), cores))
    }
}

/// Edge count below which [`assemble`] runs on the calling thread alone.
/// Timed on two cores (random lists of five edges per vertex, in order and
/// shuffled, medians of 41 alternating runs): a second worker takes
/// 1.10–1.71× the time at 2¹³–2¹⁵ edges, 0.99–1.18× at 2¹⁶, 0.91–1.06× at
/// 2¹⁷ and 0.73–0.96× at 2¹⁸–2¹⁹. The 73 k-edge Mi stand-in stays inline.
const INLINE_EDGES: usize = 1 << 17;

/// The cores this process may run on.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Workers [`assemble`] gets for `edges` edges: `workers()`, or only the
/// calling thread below [`INLINE_EDGES`].
pub(crate) fn assembly_workers(edges: usize, workers: impl FnOnce() -> usize) -> usize {
    if edges < INLINE_EDGES {
        1
    } else {
        workers()
    }
}

/// The CSR of the simple symmetric graph on `n` vertices whose edges are
/// `lists`, taken in order as if joined (without joining them), built by
/// `workers` threads: the calling thread and `workers − 1` scoped ones.
///
/// A counting sort. Each worker counts the degrees of its own range of
/// vertices; after one prefix sum each worker owns a range of rows holding
/// about the same number of entries, scans every list in order and keeps
/// only the endpoints in its range, so each row fills in input order
/// whatever the worker count, and `offsets[v]` itself is row `v`'s write
/// cursor. A row that did not arrive strictly ascending is sorted; a
/// worker whose rows held duplicates compacts its range, and only then are
/// the ranges moved together. Every id must be below `n`, and no edge may
/// be a self loop.
pub(crate) fn assemble(
    lists: &[Vec<(u32, u32)>],
    n: usize,
    workers: usize,
) -> Result<CsrGraph, GraphError> {
    if n > u32::MAX as usize {
        return Err(GraphError::TooManyVertices(n));
    }
    let workers = workers.clamp(1, n.max(1));
    let entries = 2 * lists.iter().map(Vec::len).sum::<usize>();

    // `offsets[v + 1]` counts row `v`'s entries.
    let mut offsets = vec![0usize; n + 1];
    let mut ranges = Vec::with_capacity(workers);
    let mut rest = &mut offsets[1..];
    for w in 0..workers {
        let (lo, hi) = (w * n / workers, (w + 1) * n / workers);
        let (mine, tail) = rest.split_at_mut(hi - lo);
        ranges.push((lo, mine));
        rest = tail;
    }
    on_every_part(ranges, |(lo, degrees)| {
        for list in lists {
            for &(u, v) in list {
                for x in [u, v] {
                    if let Some(d) = degrees.get_mut((x as usize).wrapping_sub(lo)) {
                        *d += 1;
                    }
                }
            }
        }
    });
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }

    // Row ranges of about `entries / workers` entries each; the last one
    // also takes the isolated vertices at the end.
    let mut bounds: Vec<usize> =
        (0..workers).map(|w| offsets.partition_point(|&o| o < w * entries / workers)).collect();
    bounds.push(n);
    let bases: Vec<usize> = bounds.iter().map(|&b| offsets[b]).collect();
    let mut neighbors = vec![VertexId(0); entries];
    let mut parts = Vec::with_capacity(workers);
    let (mut cursors, mut rows) = (&mut offsets[..n], neighbors.as_mut_slice());
    for w in 0..workers {
        let (mine, tail) = cursors.split_at_mut(bounds[w + 1] - bounds[w]);
        let (mine_rows, tail_rows) = rows.split_at_mut(bases[w + 1] - bases[w]);
        parts.push(Rows { lo: bounds[w], base: bases[w], cursors: mine, rows: mine_rows });
        (cursors, rows) = (tail, tail_rows);
    }
    let kept = on_every_part(parts, |part| part.fill(lists));

    // `offsets[v]` now ends row `v`. Close the gaps compaction left.
    if kept.iter().sum::<usize>() < entries {
        let mut at = 0;
        for w in 0..workers {
            let (base, len) = (bases[w], kept[w]);
            if at < base {
                neighbors.copy_within(base..base + len, at);
                for end in &mut offsets[bounds[w]..bounds[w + 1]] {
                    *end -= base - at;
                }
            }
            at += len;
        }
        neighbors.truncate(at);
    }
    // Shifting the ends right by one restores the starts.
    offsets.copy_within(0..n, 1);
    offsets[0] = 0;
    Ok(CsrGraph::from_valid_parts(offsets, neighbors))
}

/// Rows `lo..lo + cursors.len()` of a CSR under assembly: their write
/// cursors (starting at each row's start) and their entries, the first of
/// which sits at `base` in the whole neighbour array.
struct Rows<'a> {
    lo: usize,
    base: usize,
    cursors: &'a mut [usize],
    rows: &'a mut [VertexId],
}

impl Rows<'_> {
    /// Scatters every endpoint in its range, in list order; sorts each row
    /// that is not strictly ascending and, if one held a duplicate,
    /// compacts the range towards `base`. Leaves each cursor at its row's
    /// end and returns the entries kept.
    fn fill(self, lists: &[Vec<(u32, u32)>]) -> usize {
        let Rows { lo, base, cursors, rows } = self;
        for list in lists {
            for &(u, v) in list {
                for (x, y) in [(u, v), (v, u)] {
                    if let Some(at) = cursors.get_mut((x as usize).wrapping_sub(lo)) {
                        rows[*at - base] = VertexId(y);
                        *at += 1;
                    }
                }
            }
        }
        let mut duplicates = false;
        let mut start = 0;
        for &end in cursors.iter() {
            let row = &mut rows[start..end - base];
            if !row.is_sorted_by(|a, b| a < b) {
                row.sort_unstable();
                duplicates |= row.windows(2).any(|w| w[0] == w[1]);
            }
            start = end - base;
        }
        if !duplicates {
            return rows.len();
        }
        let (mut len, mut start) = (0, 0);
        for end in cursors.iter_mut() {
            let row_end = *end - base;
            for i in start..row_end {
                if i == start || rows[i] != rows[i - 1] {
                    rows[len] = rows[i];
                    len += 1;
                }
            }
            start = row_end;
            *end = base + len;
        }
        len
    }
}

/// Runs `f` on every part, the first on the calling thread and each other
/// on a scoped thread of its own; returns the results in part order. One
/// part starts no thread.
fn on_every_part<T: Send, R: Send>(parts: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else { return Vec::new() };
    if parts.len() == 0 {
        return vec![f(first)];
    }
    std::thread::scope(|s| {
        let f = &f;
        let others: Vec<_> = parts.map(|p| s.spawn(move || f(p))).collect();
        let mut out = vec![f(first)];
        out.extend(others.into_iter().map(|h| h.join().unwrap_or_else(|e| resume_unwind(e))));
        out
    })
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

    #[test]
    fn every_worker_count_assembles_the_same_graph() {
        // Duplicates, reversed duplicates and rows out of order everywhere;
        // then an ordered list whose only duplicate is in its last rows, so
        // some ranges compact and the ones before them do not.
        let mixed: Vec<(u32, u32)> =
            (0..3_000u32).map(|i| (i * 37 % 211, i * 101 % 199)).filter(|(u, v)| u != v).collect();
        let mut ordered: Vec<(u32, u32)> =
            (0..300u32).flat_map(|u| (u + 1..(u + 4).min(300)).map(move |v| (u, v))).collect();
        ordered.push((297, 298));
        for (edges, n) in [(mixed, 215), (ordered, 300)] {
            let want = assemble(std::slice::from_ref(&edges), n, 1).unwrap();
            assert!(want.is_symmetric());
            for workers in [2, 3, 4, 8] {
                for cut in [1, 7, 500, edges.len()] {
                    let lists: Vec<Vec<(u32, u32)>> =
                        edges.chunks(cut).map(<[_]>::to_vec).collect();
                    assert_eq!(assemble(&lists, n, workers).unwrap(), want, "{workers} {cut}");
                }
            }
        }
    }
}
