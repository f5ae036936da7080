//! Per-block adjacency range summaries, kept for the benchmark alone.
//!
//! [`BlockSummaries`] packs, for every 64-neighbor block of every adjacency
//! list longer than one block, the block's id range into a single `u64`
//! (`last << 32 | first`), so a kernel positioned at value `x` could skip
//! whole blocks while `block_last < x`. A list that fits one block gets no
//! words and reads as the empty row.
//!
//! It was the skip index of the engine's vectorized set-op tier. That tier
//! is gone (DESIGN.md §6b) and the engine builds no summaries; the type
//! stays, with no engine caller, because `benchmark/` still times
//! [`BlockSummaries::build`] and reports [`BlockSummaries::bytes`]
//! (`graph.block_build_ms`, `graph.block_bytes`). It goes when those lines
//! are retired.

use crate::csr::CsrGraph;
use crate::vertex::VertexId;

/// Neighbors covered by one summary word.
pub const BLOCK: usize = 64;

/// One packed `u64` range summary per 64-neighbor block of every
/// adjacency list longer than one block.
///
/// Word layout: `(last_id as u64) << 32 | first_id as u64`, where `first`/
/// `last` are the smallest and largest vertex ids in the block (adjacency
/// lists are sorted, so these are the block's first and last elements). A
/// trailing partial block is summarized over the elements it actually
/// holds.
///
/// # Examples
///
/// ```
/// use fm_graph::{generators, BlockSummaries, VertexId};
///
/// let g = generators::complete(130); // degree 129: three blocks per list
/// let idx = BlockSummaries::build(&g);
/// let words = idx.row(VertexId(0));
/// assert_eq!(words.len(), 3);
/// // Block 0 of vertex 0's list covers neighbors 1..=64.
/// assert_eq!(words[0] & 0xFFFF_FFFF, 1);
/// assert_eq!(words[0] >> 32, 64);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BlockSummaries {
    /// Per-vertex offsets into `words`, `n + 1` entries (CSR-style).
    offsets: Vec<usize>,
    /// Concatenated per-block summary words for every vertex.
    words: Vec<u64>,
}

#[inline]
fn pack(first: VertexId, last: VertexId) -> u64 {
    (u64::from(last.0) << 32) | u64::from(first.0)
}

impl BlockSummaries {
    /// Builds summaries for the adjacency lists of `g` that span more than
    /// one block. O(n + m) time, `ceil(degree / 64)` words per such vertex
    /// and none for the rest: a kernel skips *to* a later block, and a
    /// one-block list has none.
    pub fn build(g: &CsrGraph) -> BlockSummaries {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut words = Vec::new();
        for v in g.vertices() {
            let adj = g.neighbors(v);
            if adj.len() > BLOCK {
                words.extend(adj.chunks(BLOCK).map(|block| pack(block[0], block[block.len() - 1])));
            }
            offsets.push(words.len());
        }
        BlockSummaries { offsets, words }
    }

    /// The summary words for `v`'s adjacency list: one `u64` per
    /// 64-neighbor block, or the empty no-skip row when the list fits one
    /// block (and for out-of-range vertices).
    #[inline]
    pub fn row(&self, v: VertexId) -> &[u64] {
        let i = v.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.words[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Whether the index holds no summary words (no list spans more than
    /// one block).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Resident bytes of the index (words plus offsets).
    pub fn bytes(&self) -> usize {
        self.words.len() * 8 + self.offsets.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::generators;

    /// Unpacks a summary word for assertions.
    fn unpack(w: u64) -> (u32, u32) {
        ((w & 0xFFFF_FFFF) as u32, (w >> 32) as u32)
    }

    #[test]
    fn summaries_cover_every_block_exactly() {
        let g = generators::powerlaw_cluster(300, 6, 0.5, 11);
        let idx = BlockSummaries::build(&g);
        for v in g.vertices() {
            let adj = g.neighbors(v);
            let row = idx.row(v);
            let blocks = if adj.len() > BLOCK { adj.len().div_ceil(BLOCK) } else { 0 };
            assert_eq!(row.len(), blocks, "{v:?}");
            for (k, block) in adj.chunks(BLOCK).enumerate().take(blocks) {
                let (first, last) = unpack(row[k]);
                assert_eq!(first, block[0].0, "{v:?} block {k} first");
                assert_eq!(last, block[block.len() - 1].0, "{v:?} block {k} last");
                assert!(first <= last);
            }
        }
    }

    #[test]
    fn partial_trailing_block_uses_real_extent() {
        let g = generators::complete(70); // degree 69: one full + one 5-wide block
        let idx = BlockSummaries::build(&g);
        let row = idx.row(VertexId(0));
        assert_eq!(row.len(), 2);
        let (_, last0) = unpack(row[0]);
        let (first1, last1) = unpack(row[1]);
        assert!(last0 < first1, "blocks of a sorted list must be disjoint and ordered");
        assert_eq!(last1, 69, "partial block's last is the final neighbor");
    }

    #[test]
    fn isolated_and_out_of_range_vertices_have_empty_rows() {
        let g = generators::star(4); // every list fits one block
        let idx = BlockSummaries::build(&g);
        assert!(idx.is_empty());
        assert_eq!(idx.row(VertexId(0)), &[] as &[u64]);
        assert_eq!(idx.row(VertexId(999)), &[] as &[u64]);
        let empty = CsrGraph::from_parts(vec![0], vec![]).unwrap();
        let idx = BlockSummaries::build(&empty);
        assert!(idx.is_empty());
        assert!(idx.bytes() > 0, "offset scaffolding is still resident");
    }

    /// Rows of 0, 1, 64, 65 and 200 neighbours: words only where a list
    /// spans more than one block, and then one per block.
    #[test]
    fn only_rows_longer_than_one_block_store_words() {
        // Vertices 0..4 are the rows under test; their neighbours are
        // fresh vertices 10.., so no other row grows past one entry.
        let degrees = [0usize, 1, 64, 65, 200];
        let mut b = crate::GraphBuilder::new();
        let mut next = 10u32;
        for (v, &d) in degrees.iter().enumerate() {
            for _ in 0..d {
                b = b.edge(v as u32, next);
                next += 1;
            }
        }
        let g = b.vertices(10).build().unwrap();
        let idx = BlockSummaries::build(&g);
        for (v, &d) in degrees.iter().enumerate() {
            let v = VertexId(v as u32);
            assert_eq!(g.degree(v), d);
            let want = if d > BLOCK { d.div_ceil(BLOCK) } else { 0 };
            assert_eq!(idx.row(v).len(), want, "degree {d}");
        }
        let (first, last) = unpack(idx.row(VertexId(4))[3]);
        let adj = g.neighbors(VertexId(4));
        assert_eq!((first, last), (adj[192].0, adj[199].0), "trailing partial block");
        // 2 + 4 words, and the offsets of every vertex.
        assert_eq!(idx.bytes(), 6 * 8 + (g.num_vertices() + 1) * std::mem::size_of::<usize>());
    }
}
