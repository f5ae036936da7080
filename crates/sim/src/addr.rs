//! Accelerator address map.
//!
//! The simulator derives cache-line addresses from a flat layout of the
//! CSR arrays (as the paper stores them: "We represent the input graphs in
//! the compressed sparse row (CSR) format"), plus a per-PE virtual region
//! for materialized frontier lists (which live in the private cache and
//! spill to the shared cache on eviction, §IV-A).

use fm_graph::{CsrGraph, VertexId};

/// Byte layout of one graph in accelerator memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AddressMap {
    /// Base of the offsets array (8 B entries).
    pub offsets_base: u64,
    /// Base of the neighbor array (4 B entries).
    pub neighbors_base: u64,
}

/// Base of the per-PE frontier regions (disjoint from graph data).
const FRONTIER_BASE: u64 = 1 << 40;

impl AddressMap {
    /// Lays out `g` starting at address 0.
    pub fn for_graph(g: &CsrGraph) -> AddressMap {
        let offsets_bytes = (g.num_vertices() as u64 + 1) * 8;
        AddressMap { offsets_base: 0, neighbors_base: (offsets_bytes + 63) & !63 }
    }

    /// Address of the offsets entry for `v` (reading a degree touches this
    /// and the next entry, usually one line).
    pub fn offset_addr(&self, v: VertexId) -> u64 {
        self.offsets_base + v.index() as u64 * 8
    }

    /// Address range `(base, bytes)` of `v`'s adjacency list.
    pub fn adjacency_range(&self, g: &CsrGraph, v: VertexId) -> (u64, usize) {
        (self.neighbors_base + g.adjacency_byte_offset(v) as u64, g.degree(v) * 4)
    }

    /// Address range of PE `pe`'s frontier buffer for DFS depth `depth`,
    /// holding `len` vertex ids.
    pub fn frontier_range(pe: usize, depth: usize, len: usize) -> (u64, usize) {
        (FRONTIER_BASE + ((pe as u64) << 32) + ((depth as u64) << 26), len * 4)
    }
}

/// `log2(line_bytes)`: line numbers are taken with a shift, never a
/// division.
///
/// # Panics
///
/// Panics unless `line_bytes` is a power of two;
/// [`SimConfig::validate`](crate::SimConfig::validate) reports that for a
/// whole configuration before anything is built.
pub fn line_shift(line_bytes: usize) -> u32 {
    assert!(line_bytes.is_power_of_two(), "line size {line_bytes} B is not a power of two");
    line_bytes.trailing_zeros()
}

/// Splits a byte range into the addresses of the `1 << line_shift`-byte
/// cache lines it touches.
pub fn lines(base: u64, bytes: usize, line_shift: u32) -> impl Iterator<Item = u64> {
    let first = base >> line_shift;
    let last = if bytes == 0 { first } else { ((base + bytes as u64 - 1) >> line_shift) + 1 };
    (first..last).map(move |l| l << line_shift)
}

/// Line-interleaved placement over `ways` equal targets (cache sets, L2
/// banks): line `n` lands on target `n mod ways`, taken with a mask.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interleave {
    line_shift: u32,
    mask: u64,
}

impl Interleave {
    /// Placement of `line_bytes`-byte lines over `ways` targets.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` and `ways` are powers of two (see
    /// [`line_shift`]).
    pub fn new(line_bytes: usize, ways: usize) -> Interleave {
        assert!(ways.is_power_of_two(), "{ways} interleaved targets is not a power of two");
        Interleave { line_shift: line_shift(line_bytes), mask: ways as u64 - 1 }
    }

    /// The target holding the line at `addr`.
    #[inline]
    pub fn index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.mask) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::generators;

    #[test]
    fn layout_is_disjoint_and_aligned() {
        let g = generators::complete(10);
        let map = AddressMap::for_graph(&g);
        assert_eq!(map.neighbors_base % 64, 0);
        assert!(map.neighbors_base >= (g.num_vertices() as u64 + 1) * 8);
        let (adj_base, adj_bytes) = map.adjacency_range(&g, VertexId(9));
        assert!(adj_base >= map.neighbors_base);
        assert_eq!(adj_bytes, 9 * 4);
        let (fb, _) = AddressMap::frontier_range(3, 2, 10);
        assert!(fb > adj_base + adj_bytes as u64);
    }

    #[test]
    fn line_splitting() {
        let ls: Vec<u64> = lines(0, 64, 6).collect();
        assert_eq!(ls, vec![0]);
        let ls: Vec<u64> = lines(60, 8, 6).collect();
        assert_eq!(ls, vec![0, 64]);
        let ls: Vec<u64> = lines(128, 0, 6).collect();
        assert!(ls.is_empty());
        let ls: Vec<u64> = lines(0, 129, 6).collect();
        assert_eq!(ls, vec![0, 64, 128]);
    }

    /// Addresses from every region the simulator touches: low graph data,
    /// line edges, and the per-PE frontier regions above 2^40.
    fn sample_addresses() -> Vec<u64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let mut addrs = vec![0, 1, 63, 64, 65, 4095, 4096, u64::MAX >> 1];
        for _ in 0..2_000 {
            addrs.push(rng.gen_range(0..1u64 << 24));
            let (base, _) =
                AddressMap::frontier_range(rng.gen_range(0..64), rng.gen_range(0..16), 0);
            addrs.push(base + rng.gen_range(0..1u64 << 20));
        }
        addrs
    }

    #[test]
    fn interleave_equals_divide_and_modulo() {
        // Set and bank counts of every geometry the suites build: 1 set
        // for the 256 B L1, 8 for 2 kB, 128 for 32 kB, 4096 L2 sets, 1 and
        // 8 L2 banks.
        for line_bytes in [32usize, 64, 128] {
            for ways in [1usize, 2, 8, 16, 128, 4096] {
                let il = Interleave::new(line_bytes, ways);
                for &addr in &sample_addresses() {
                    let reference = ((addr / line_bytes as u64) % ways as u64) as usize;
                    assert_eq!(il.index(addr), reference, "{line_bytes} B lines, {ways} ways");
                }
            }
        }
    }

    #[test]
    fn shifted_line_splitting_equals_the_dividing_form() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for line_bytes in [32usize, 64, 128] {
            let lb = line_bytes as u64;
            for &base in &sample_addresses()[..500] {
                let bytes: usize =
                    [0, 1, 4, 16, 64, rng.gen_range(0..5_000)][rng.gen_range(0..6usize)];
                let first = base / lb;
                let last = if bytes == 0 { first } else { (base + bytes as u64 - 1) / lb + 1 };
                let reference: Vec<u64> = (first..last).map(|l| l * lb).collect();
                let got: Vec<u64> = lines(base, bytes, line_shift(line_bytes)).collect();
                assert_eq!(got, reference, "base {base} bytes {bytes} line {line_bytes}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "line size 48 B is not a power of two")]
    fn odd_line_size_is_refused() {
        line_shift(48);
    }

    #[test]
    #[should_panic(expected = "6 interleaved targets is not a power of two")]
    fn odd_target_count_is_refused() {
        Interleave::new(64, 6);
    }

    #[test]
    fn frontier_regions_are_disjoint_per_pe_and_depth() {
        let (a, _) = AddressMap::frontier_range(0, 0, 1000);
        let (b, _) = AddressMap::frontier_range(0, 1, 1000);
        let (c, _) = AddressMap::frontier_range(1, 0, 1000);
        assert!(b - a >= 1 << 26);
        assert!(c - a >= 1 << 32);
    }
}
