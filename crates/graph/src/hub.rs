//! Degree-thresholded hub bitmaps: an auxiliary adjacency index.
//!
//! FlexMiner's SIU/SDU pay one merge iteration per cycle, so every set
//! operation against a high-degree vertex streams its entire (huge)
//! adjacency list even when the other operand is tiny. Pattern-aware GPM
//! engines on GPUs (G²Miner) and auxiliary-structure systems (GraphMini)
//! sidestep this by answering membership in a hub's adjacency with a
//! bitmap probe instead of a merge. [`HubBitmaps`] is that structure: for
//! the top-k vertices by degree (thresholded, under a hard memory budget)
//! it materializes the adjacency as a fixed-width bitset over vertex ids.
//! A probe `w ∈ N(hub)` then costs one word load and one mask — O(1)
//! instead of a merge cursor advance per streamed element.
//!
//! The index is immutable and read-only after [`HubBitmaps::build`], so
//! mining drivers share one instance across worker threads (`Arc`) rather
//! than rebuilding it per executor.

use crate::csr::CsrGraph;
use crate::vertex::VertexId;

/// Sentinel in the per-vertex row map: not a hub.
const NOT_A_HUB: u32 = u32::MAX;

/// One hub's adjacency bitset, borrowed from a [`HubBitmaps`] index.
///
/// `contains` is the probe the engine's set-op kernels use; it is O(1)
/// and branch-free up to the final test.
#[derive(Clone, Copy, Debug)]
pub struct HubRow<'a> {
    words: &'a [u64],
}

impl HubRow<'_> {
    /// Whether `w` is a neighbor of the hub this row belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range for the indexed graph.
    #[inline]
    pub fn contains(&self, w: VertexId) -> bool {
        let i = w.index();
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }
}

/// A degree-thresholded bitmap index over a graph's hub adjacency lists.
///
/// Selection policy: every vertex with degree ≥ `degree_threshold` is a
/// hub *candidate*; candidates are ranked by descending degree (ties by
/// ascending vertex id, so the selection is deterministic) and admitted
/// while the index fits in `memory_budget` bytes. The budget is hard:
/// when it cannot hold another row — or even the per-vertex row map — the
/// index silently shrinks (possibly to empty) rather than failing, and
/// every lookup on an evicted vertex simply reports "not a hub" so callers
/// fall back to merge/gallop kernels.
///
/// Rows are fixed-width bitsets of `ceil(n/64)` words over the vertex-id
/// space of the indexed graph, including an oriented (DAG) graph — build
/// the index over the *prepared* graph the executors actually probe.
///
/// # Examples
///
/// ```
/// use fm_graph::{generators, HubBitmaps, VertexId};
///
/// let g = generators::star(64); // vertex 0 has degree 64
/// let idx = HubBitmaps::build(&g, 32, 1 << 20);
/// assert_eq!(idx.num_hubs(), 1);
/// let row = idx.row(VertexId(0)).expect("the star center is a hub");
/// assert!(row.contains(VertexId(5)));
/// assert!(idx.row(VertexId(1)).is_none()); // leaves are not hubs
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HubBitmaps {
    /// Words per row: `ceil(n / 64)`.
    words_per_row: usize,
    /// Concatenated rows, `num_hubs * words_per_row` words.
    rows: Vec<u64>,
    /// Per-vertex row index, [`NOT_A_HUB`] for non-hubs. Empty when the
    /// index is empty (zero hubs), keeping the no-hub case allocation-free.
    row_of: Vec<u32>,
    /// The degree threshold the index was built with.
    degree_threshold: usize,
}

impl HubBitmaps {
    /// Builds the index for `g`. See the type docs for the selection and
    /// budget policy. Building is O(n log n + Σ hub degrees) and never
    /// fails; an over-tight budget yields an empty index.
    pub fn build(g: &CsrGraph, degree_threshold: usize, memory_budget: usize) -> HubBitmaps {
        let n = g.num_vertices();
        let words_per_row = n.div_ceil(64);
        let row_bytes = words_per_row * 8;
        // The O(n) row map is part of the footprint; charge it up front.
        let map_bytes = n * std::mem::size_of::<u32>();
        let capacity = if row_bytes == 0 || memory_budget < map_bytes {
            0
        } else {
            (memory_budget - map_bytes) / row_bytes
        };
        // Clamp once and store the clamped value: `degree_threshold()`
        // must report the threshold the selection actually used, not the
        // raw argument (a threshold of 0 would otherwise claim every
        // isolated vertex is a hub).
        let threshold = degree_threshold.max(1);
        let empty = HubBitmaps { degree_threshold: threshold, ..HubBitmaps::default() };
        // A budget that cannot hold one row (a budget of 0 among them)
        // costs no degree scan.
        if capacity == 0 {
            return empty;
        }
        let mut hubs: Vec<u32> =
            (0..n as u32).filter(|&v| g.degree(VertexId(v)) >= threshold).collect();
        hubs.sort_by_key(|&v| (std::cmp::Reverse(g.degree(VertexId(v))), v));
        hubs.truncate(capacity);
        if hubs.is_empty() {
            return empty;
        }
        let mut row_of = vec![NOT_A_HUB; n];
        let mut rows = vec![0u64; hubs.len() * words_per_row];
        for (r, &h) in hubs.iter().enumerate() {
            row_of[h as usize] = r as u32;
            let row = &mut rows[r * words_per_row..(r + 1) * words_per_row];
            for &w in g.neighbors(VertexId(h)) {
                let i = w.index();
                row[i >> 6] |= 1 << (i & 63);
            }
        }
        HubBitmaps { words_per_row, rows, row_of, degree_threshold: threshold }
    }

    /// The bitset row for `v`, or `None` if `v` is not an indexed hub
    /// (below the threshold, evicted by the budget, or out of range).
    #[inline]
    pub fn row(&self, v: VertexId) -> Option<HubRow<'_>> {
        match self.row_of.get(v.index()) {
            Some(&r) if r != NOT_A_HUB => {
                let start = r as usize * self.words_per_row;
                Some(HubRow { words: &self.rows[start..start + self.words_per_row] })
            }
            _ => None,
        }
    }

    /// Number of indexed hubs.
    #[inline]
    pub fn num_hubs(&self) -> usize {
        self.rows.len().checked_div(self.words_per_row).unwrap_or(0)
    }

    /// Whether the index holds no hubs (probes can never dispatch).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The degree threshold the index was built with, after the build's
    /// clamp to at least 1 (a raw argument of 0 would select every
    /// vertex, including isolated ones).
    pub fn degree_threshold(&self) -> usize {
        self.degree_threshold
    }

    /// Resident bytes of the index (rows plus the per-vertex row map) —
    /// the quantity the build budget bounds.
    pub fn bytes(&self) -> usize {
        self.rows.len() * 8 + self.row_of.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn rows_agree_with_adjacency() {
        let g = generators::powerlaw_cluster(200, 5, 0.5, 3);
        let idx = HubBitmaps::build(&g, 8, 1 << 24);
        assert!(idx.num_hubs() > 0, "powerlaw graph must yield hubs at threshold 8");
        let mut probed = 0;
        for v in g.vertices() {
            if let Some(row) = idx.row(v) {
                assert!(g.degree(v) >= 8);
                for w in g.vertices() {
                    assert_eq!(row.contains(w), g.has_edge(v, w), "hub {v:?} vs {w:?}");
                }
                probed += 1;
            }
        }
        assert_eq!(probed, idx.num_hubs());
    }

    #[test]
    fn selection_is_top_k_by_degree() {
        let base = generators::powerlaw_cluster(150, 3, 0.4, 5);
        let g = generators::attach_hubs(&base, 4, 80, 9);
        // Budget sized for the map plus exactly two rows.
        let words = g.num_vertices().div_ceil(64);
        let budget = g.num_vertices() * 4 + 2 * words * 8;
        let idx = HubBitmaps::build(&g, 4, budget);
        assert_eq!(idx.num_hubs(), 2);
        // The survivors must be the two highest-degree vertices.
        let mut degs: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        for v in g.vertices() {
            if idx.row(v).is_some() {
                assert!(g.degree(v) >= degs[1], "{v:?} is not top-2 by degree");
            }
        }
    }

    #[test]
    fn budget_shrinks_silently_to_empty() {
        let g = generators::complete(64);
        // Too small for even the row map: empty, never an error.
        let idx = HubBitmaps::build(&g, 1, 16);
        assert!(idx.is_empty());
        assert_eq!(idx.num_hubs(), 0);
        assert!(idx.row(VertexId(0)).is_none());
        assert_eq!(idx.bytes(), 0);
        // Zero budget on an empty graph is fine too.
        let empty = CsrGraph::from_parts(vec![0], vec![]).unwrap();
        assert!(HubBitmaps::build(&empty, 1, 0).is_empty());
    }

    #[test]
    fn threshold_excludes_low_degree_vertices() {
        let g = generators::star(32);
        let idx = HubBitmaps::build(&g, 33, 1 << 20);
        assert!(idx.is_empty(), "no vertex reaches degree 33");
        let idx = HubBitmaps::build(&g, 32, 1 << 20);
        assert_eq!(idx.num_hubs(), 1);
        assert!(idx.bytes() > 0);
        assert_eq!(idx.degree_threshold(), 32);
    }

    #[test]
    fn zero_threshold_is_clamped_not_degenerate() {
        let g = generators::cycle(10);
        let idx = HubBitmaps::build(&g, 0, 1 << 20);
        // Threshold clamps to 1: every vertex of a cycle qualifies.
        assert_eq!(idx.num_hubs(), 10);
        // The stored threshold is the clamped one the selection used, not
        // the raw argument — on the populated and the empty path alike.
        assert_eq!(idx.degree_threshold(), 1);
        assert_eq!(HubBitmaps::build(&g, 0, 0).degree_threshold(), 1);
    }

    #[test]
    fn budget_of_exactly_the_row_map_holds_zero_rows() {
        let g = generators::complete(64);
        // map_bytes fits but leaves nothing for rows: capacity 0, empty.
        let map_bytes = g.num_vertices() * std::mem::size_of::<u32>();
        let idx = HubBitmaps::build(&g, 1, map_bytes);
        assert!(idx.is_empty());
        assert!(idx.row(VertexId(0)).is_none());
        // One row's worth more admits exactly one hub.
        let row_bytes = g.num_vertices().div_ceil(64) * 8;
        let idx = HubBitmaps::build(&g, 1, map_bytes + row_bytes);
        assert_eq!(idx.num_hubs(), 1);
    }

    #[test]
    fn single_hub_graph_indexes_only_the_hub() {
        // A star's center is the lone vertex at or above threshold 2.
        let g = generators::star(12);
        let idx = HubBitmaps::build(&g, 2, 1 << 20);
        assert_eq!(idx.num_hubs(), 1);
        let row = idx.row(VertexId(0)).expect("the center is the hub");
        for v in g.vertices().skip(1) {
            assert!(row.contains(v));
            assert!(idx.row(v).is_none(), "leaves are not hubs");
        }
        assert!(!row.contains(VertexId(0)), "no self-loop bit");
    }
}
