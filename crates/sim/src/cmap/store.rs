//! The functional connectivity maps (c-map) under the accelerator model.
//!
//! §II-C / §VI of the paper: a c-map is a key→bitset map recording, for
//! each vertex `w` seen near the current embedding, which embedding depths
//! `w` is connected to. It is built incrementally as vertices join the
//! embedding and unwound in stack order on backtracking. The c-map is the
//! accelerator's: the software engine (`fm-engine`) answers "is `w`
//! adjacent to an ancestor" with set operations and its hub bitmaps, and
//! has no c-map of its own.
//!
//! Two functional implementations are provided:
//!
//! * [`HashCmap`] — compact open-addressing map keyed by vertex id (the
//!   linear-probing scratchpad of §VI-A): the store whose contents the
//!   timed [`HwCmap`](super::HwCmap) holds;
//! * [`VectorCmap`] — the prior-work software layout ([15, 21]): a |V|-sized
//!   array, O(1) access but O(|V|) memory per worker. The paper's critique
//!   of this layout (§VI) motivates the hardware design; it stays as
//!   `HashCmap`'s differential-testing oracle and the third column of
//!   `benches/cmap.rs`.

use fm_graph::VertexId;

/// Common interface of the software connectivity maps.
///
/// The trait is sealed in spirit: it exists so the tests and the benchmark
/// can be generic over the two layouts.
pub trait ConnectivityMap {
    /// Sets bit `depth` for key `w` (inserting the entry if absent).
    fn insert(&mut self, w: VertexId, depth: usize);

    /// Clears bit `depth` for key `w`. Mirrors the paper's simplified
    /// deletion: the caller only ever removes keys it inserted at the same
    /// depth, in bulk, before any intervening lookup of those entries.
    fn remove(&mut self, w: VertexId, depth: usize);

    /// The connectivity bitset of `w` (0 if absent: "If the lookup key does
    /// not exist in the map, it means the vertex is not connected to any of
    /// the vertices in the current embedding").
    fn query(&self, w: VertexId) -> u64;

    /// Whether `w` is recorded as connected to depth `depth`.
    fn is_connected(&self, w: VertexId, depth: usize) -> bool {
        (self.query(w) >> depth) & 1 == 1
    }

    /// Number of live (nonzero) entries.
    fn len(&self) -> usize;

    /// Whether the map holds no live entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (end of a task: "when a task is completed, all
    /// entries in c-map are invalidated").
    fn clear(&mut self);
}

/// One slot of [`HashCmap`]'s table. A slot is live iff `bits != 0`: the
/// map never stores an all-zero bitset, so no key value is reserved as an
/// "empty" marker.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    key: u32,
    bits: u64,
}

/// Slots in a new [`HashCmap`]; a power of two.
const MIN_SLOTS: usize = 8;

/// Hash-backed c-map: the layout of the hardware scratchpad (§VI-A) — one
/// power-of-two table of key/bitset slots, a multiplicative hash for the
/// home slot, linear probing, and backward-shift deletion so the table
/// never carries tombstones. The table starts at 8 slots and doubles when
/// an insert would pass 7/8 load, so it holds at most 16/7 of the peak
/// number of live keys and never depends on the key universe.
///
/// A slot carries the full 64-bit bitset [`ConnectivityMap::query`] returns,
/// so the store records the same depths as [`VectorCmap`], its oracle.
///
/// `fm-sim`'s `HwCmap` wraps this same store and adds capacity, banks and
/// timing on top.
#[derive(Clone, Debug)]
pub struct HashCmap {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the home slot is the top bits of the
    /// multiplied key.
    shift: u32,
    live: usize,
}

impl Default for HashCmap {
    fn default() -> Self {
        HashCmap {
            slots: vec![Slot::default(); MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            live: 0,
        }
    }
}

impl HashCmap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn home(&self, key: u32) -> usize {
        // Fibonacci hashing: 2^64 / golden ratio, top bits taken.
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `key`, or the empty slot that ends its probe chain.
    #[inline]
    fn find(&self, key: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = &self.slots[i];
            if slot.bits == 0 || slot.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![Slot::default(); old.len() * 2];
        self.shift -= 1;
        for slot in old.into_iter().filter(|s| s.bits != 0) {
            let i = self.find(slot.key);
            self.slots[i] = slot;
        }
    }

    /// Empties slot `hole` and closes the gap: every later entry of the
    /// same cluster whose home lies at or before the hole moves back into
    /// it, so each surviving key stays reachable from its home slot.
    fn delete(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.slots[i];
            if slot.bits == 0 {
                break;
            }
            let from_home = i.wrapping_sub(self.home(slot.key)) & mask;
            if from_home >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = i;
            }
        }
        self.slots[hole].bits = 0;
        self.live -= 1;
    }
}

impl ConnectivityMap for HashCmap {
    #[inline]
    fn insert(&mut self, w: VertexId, depth: usize) {
        let mut i = self.find(w.0);
        if self.slots[i].bits == 0 {
            if (self.live + 1) * 8 > self.slots.len() * 7 {
                self.grow();
                i = self.find(w.0);
            }
            self.slots[i].key = w.0;
            self.live += 1;
        }
        self.slots[i].bits |= 1 << depth;
    }

    #[inline]
    fn remove(&mut self, w: VertexId, depth: usize) {
        let i = self.find(w.0);
        let slot = &mut self.slots[i];
        if slot.bits != 0 {
            slot.bits &= !(1 << depth);
            if slot.bits == 0 {
                self.delete(i);
            }
        }
    }

    #[inline]
    fn query(&self, w: VertexId) -> u64 {
        // An empty slot reads 0, which is also the answer for "absent".
        self.slots[self.find(w.0)].bits
    }

    fn len(&self) -> usize {
        self.live
    }

    fn clear(&mut self) {
        if self.live > 0 {
            self.slots.fill(Slot::default());
            self.live = 0;
        }
    }
}

/// |V|-sized vector c-map (the layout of [15, 21] the paper improves on).
#[derive(Clone, Debug)]
pub struct VectorCmap {
    bits: Vec<u64>,
    live: usize,
}

impl VectorCmap {
    /// Creates a map able to key any vertex of a graph with `num_vertices`
    /// vertices. Allocates `8 * num_vertices` bytes — the scaling problem
    /// §VI points out.
    pub fn new(num_vertices: usize) -> Self {
        VectorCmap { bits: vec![0; num_vertices], live: 0 }
    }
}

impl ConnectivityMap for VectorCmap {
    fn insert(&mut self, w: VertexId, depth: usize) {
        let slot = &mut self.bits[w.index()];
        if *slot == 0 {
            self.live += 1;
        }
        *slot |= 1 << depth;
    }

    fn remove(&mut self, w: VertexId, depth: usize) {
        let slot = &mut self.bits[w.index()];
        let had = *slot != 0;
        *slot &= !(1 << depth);
        if had && *slot == 0 {
            self.live -= 1;
        }
    }

    fn query(&self, w: VertexId) -> u64 {
        self.bits[w.index()]
    }

    fn len(&self) -> usize {
        self.live
    }

    fn clear(&mut self) {
        self.bits.fill(0);
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<M: ConnectivityMap>(mut m: M) {
        let w = VertexId(7);
        assert_eq!(m.query(w), 0);
        assert!(m.is_empty());
        m.insert(w, 0);
        m.insert(w, 2);
        assert_eq!(m.query(w), 0b101);
        assert!(m.is_connected(w, 0));
        assert!(!m.is_connected(w, 1));
        assert_eq!(m.len(), 1);
        m.insert(VertexId(9), 1);
        assert_eq!(m.len(), 2);
        // Stack-ordered unwind.
        m.remove(w, 2);
        assert_eq!(m.query(w), 0b001);
        m.remove(w, 0);
        assert_eq!(m.query(w), 0);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.query(VertexId(9)), 0);
    }

    #[test]
    fn hash_cmap_semantics() {
        exercise(HashCmap::new());
    }

    #[test]
    fn vector_cmap_semantics() {
        exercise(VectorCmap::new(16));
    }

    /// The live keys in table order, for asserting where entries sit.
    fn layout(m: &HashCmap) -> Vec<Option<u32>> {
        m.slots.iter().map(|s| (s.bits != 0).then_some(s.key)).collect()
    }

    /// The first `n` keys (ascending from `from`) whose home slot is `slot`.
    fn keys_homed_at(m: &HashCmap, slot: usize, from: u32, n: usize) -> Vec<u32> {
        (from..).filter(|&k| m.home(k) == slot).take(n).collect()
    }

    #[test]
    fn table_doubles_past_seven_eighths_and_tracks_live_keys_only() {
        let mut m = HashCmap::new();
        let mut sizes = Vec::new();
        for k in 0..1638u32 {
            m.insert(VertexId(k.wrapping_mul(7919)), 0);
            sizes.push(m.slots.len());
        }
        assert_eq!(sizes[..7], [8; 7], "seven keys fit the first table");
        assert_eq!(sizes[7], 16, "the eighth would pass 7/8");
        // The 8 kB hardware configuration filled to the brim: 2 048 slots.
        assert_eq!((m.len(), m.slots.len()), (1638, 2048));
        // Re-inserting present keys and setting further bits never grows.
        for k in 0..1638u32 {
            m.insert(VertexId(k.wrapping_mul(7919)), 1);
        }
        assert_eq!((m.len(), m.slots.len()), (1638, 2048));
    }

    #[test]
    fn probe_chain_wraps_the_table_end_and_survives_head_deletion() {
        let mut m = HashCmap::new();
        let last = m.slots.len() - 1;
        // Three keys that all want the last slot: the chain runs
        // last → 0 → 1, wrapping the table end.
        let chain = keys_homed_at(&m, last, 1, 3);
        for &k in &chain {
            m.insert(VertexId(k), 3);
        }
        let mut want = vec![None; m.slots.len()];
        (want[last], want[0], want[1]) = (Some(chain[0]), Some(chain[1]), Some(chain[2]));
        assert_eq!(layout(&m), want);
        // A key homed at slot 0 queues behind the wrapped chain.
        let zero = keys_homed_at(&m, 0, 1, 1)[0];
        m.insert(VertexId(zero), 1);
        assert_eq!(layout(&m)[2], Some(zero));
        // Deleting the head shifts the chain back across the table end;
        // `zero` may move to its home but never before it.
        m.remove(VertexId(chain[0]), 3);
        let mut want = vec![None; m.slots.len()];
        (want[last], want[0], want[1]) = (Some(chain[1]), Some(chain[2]), Some(zero));
        assert_eq!(layout(&m), want);
        assert_eq!(m.query(VertexId(chain[0])), 0);
        assert_eq!(m.query(VertexId(chain[1])), 1 << 3);
        assert_eq!(m.query(VertexId(chain[2])), 1 << 3);
        assert_eq!(m.query(VertexId(zero)), 1 << 1);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn clearing_one_of_two_bits_keeps_the_entry() {
        let mut m = HashCmap::new();
        for key in [0, u32::MAX - 1, u32::MAX] {
            m.insert(VertexId(key), 0);
            m.insert(VertexId(key), 5);
            m.remove(VertexId(key), 0);
            assert_eq!(m.query(VertexId(key)), 1 << 5);
            m.remove(VertexId(key), 0); // already clear: no effect
            m.remove(VertexId(key), 5);
            assert_eq!(m.query(VertexId(key)), 0);
        }
        m.remove(VertexId(42), 1); // never inserted: no effect
        assert!(m.is_empty());
    }

    proptest::proptest! {
        /// Random insert / query / remove sequences against a `BTreeMap`
        /// oracle. Keys come from a universe small enough to collide and
        /// revisit (plus 0 and `u32::MAX - 1`), and there are enough of
        /// them to double the 8-slot table three times, so chains wrap,
        /// heads of chains are deleted, and entries move on growth.
        #[test]
        fn store_matches_a_map_oracle(
            ops in proptest::prop::collection::vec((0u8..4, 0u32..56, 0usize..64), 0..400),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let key_of = |k: u32| match k {
                54 => 0,
                55 => u32::MAX - 1,
                k => k.wrapping_mul(0x0101_0101) | 1,
            };
            let mut m = HashCmap::new();
            let mut oracle = std::collections::BTreeMap::<u32, u64>::new();
            for (op, k, depth) in ops {
                let key = key_of(k);
                match op {
                    0 | 1 => {
                        m.insert(VertexId(key), depth);
                        *oracle.entry(key).or_insert(0) |= 1 << depth;
                    }
                    2 => {
                        m.remove(VertexId(key), depth);
                        if let Some(bits) = oracle.get_mut(&key) {
                            *bits &= !(1 << depth);
                            if *bits == 0 {
                                oracle.remove(&key);
                            }
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(m.query(VertexId(key)), oracle.get(&key).copied().unwrap_or(0));
                prop_assert_eq!(m.len(), oracle.len());
                prop_assert!(m.len() * 8 <= m.slots.len() * 7);
            }
            for k in 0..56 {
                let key = key_of(k);
                prop_assert_eq!(m.query(VertexId(key)), oracle.get(&key).copied().unwrap_or(0));
            }
            m.clear();
            prop_assert!(m.is_empty());
            prop_assert!(m.slots.iter().all(|s| s.bits == 0));
        }
    }

    #[test]
    fn implementations_agree_on_random_trace() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut h = HashCmap::new();
        let mut v = VectorCmap::new(64);
        // Random stack-disciplined trace: push level-bulks, pop them.
        let mut stack: Vec<Vec<(VertexId, usize)>> = Vec::new();
        for _ in 0..200 {
            if rng.gen_bool(0.6) || stack.is_empty() {
                let depth = stack.len();
                let bulk: Vec<(VertexId, usize)> = (0..rng.gen_range(0..6))
                    .map(|_| (VertexId(rng.gen_range(0..64)), depth))
                    .collect();
                for &(w, d) in &bulk {
                    h.insert(w, d);
                    v.insert(w, d);
                }
                stack.push(bulk);
            } else {
                let bulk = stack.pop().expect("nonempty");
                for &(w, d) in bulk.iter().rev() {
                    h.remove(w, d);
                    v.remove(w, d);
                }
            }
            for w in 0..64 {
                assert_eq!(h.query(VertexId(w)), v.query(VertexId(w)));
            }
        }
    }
}
