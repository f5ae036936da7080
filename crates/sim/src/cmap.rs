//! Hardware connectivity-map model (§VI).
//!
//! The hardware c-map is a banked, linear-probing hash scratchpad with
//! 5-byte entries (4 B key + 1 B connectivity bitset). This model is
//! functional-plus-timing: contents are exact, while access cost follows
//! the probe-length behaviour of linear probing divided across `m`
//! parallel banks — "we empirically observe that the map should be
//! properly sized to keep its occupancy below 75%, thus maintain a low
//! expected access latency. In our design, most accesses take only a
//! single cycle."
//!
//! The cost is a step function of occupancy alone, so [`HwCmap::new`]
//! evaluates the formula once into a short list of steps and every access
//! reads the current step: no floating point on the probe path. Since no
//! charged cycle depends on where an entry sits, the host keeps the
//! contents in the simplest layout there is: one 16-bit bitset per vertex
//! of the graph, indexed by vertex id, plus the live-entry count the cost
//! reads. That is 2 B × |V| per PE, allocated once when the PE is built
//! and not at all when the c-map is disabled; every insert, query and
//! invalidation is one indexed load or store.
//!
//! The hardware deletes with the paper's simplified invalidate-in-place
//! scheme, valid because (1) updates happen in level bulks and (2) only
//! present keys are ever deleted; an invalidation is charged one access
//! like any other.

use fm_pattern::MAX_PATTERN_VERTICES;

/// One vertex's connectivity bitset: bit `d` set iff the vertex is
/// adjacent to the embedding vertex at depth `d`.
type Bits = u16;

// Every probed depth is a pattern level, so one bit per pattern vertex
// covers every depth a plan can insert.
const _: () = assert!(Bits::BITS as usize >= MAX_PATTERN_VERTICES);

/// Load at or above which a probe is charged the flat saturated cost.
const SATURATED_LOAD: f64 = 0.99;

/// Load factor in [0, 1] with `occupancy` of `entries` slots live.
/// Unlimited capacity never loads up; zero capacity is permanently full.
fn load_factor(occupancy: usize, entries: usize) -> f64 {
    if entries == usize::MAX {
        0.0
    } else if entries == 0 {
        1.0
    } else {
        occupancy as f64 / entries as f64
    }
}

/// Expected probe cycles at a given occupancy: a single cycle in the
/// operating region, growing with linear-probing cluster length as the map
/// fills, mitigated by `banks` parallel banks.
fn probe_cycles(occupancy: usize, entries: usize, banks: usize) -> u64 {
    let load = load_factor(occupancy, entries);
    // Expected probes for linear probing ≈ (1 + 1/(1-load)) / 2,
    // served `banks` at a time.
    let probes = if load >= SATURATED_LOAD { 50.0 } else { (1.0 + 1.0 / (1.0 - load)) / 2.0 };
    (probes / banks as f64).ceil().max(1.0) as u64
}

/// First `n` in `(lo, hi]` satisfying `pred`, given `!pred(lo)`,
/// `pred(hi)` and `pred` monotone in between.
fn first_where(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// [`probe_cycles`] over every occupancy `0..=entries`, as ascending
/// `(first occupancy, cycles)` steps. Below [`SATURATED_LOAD`] the formula
/// never decreases with occupancy (every IEEE operation in it is
/// monotone), and from there on it is flat, so each step's start is found
/// by bisection instead of evaluating all `entries + 1` points.
fn cost_steps(entries: usize, banks: usize) -> Vec<(usize, u64)> {
    let cost = |occupancy| probe_cycles(occupancy, entries, banks);
    let mut steps = vec![(0, cost(0))];
    if entries == usize::MAX || entries == 0 {
        return steps;
    }
    let saturated = first_where(0, entries, |n| load_factor(n, entries) >= SATURATED_LOAD);
    let (mut from, mut cycles) = steps[0];
    while cost(saturated - 1) != cycles {
        from = first_where(from, saturated - 1, |n| cost(n) > cycles);
        cycles = cost(from);
        steps.push((from, cycles));
    }
    steps.push((saturated, cost(saturated)));
    steps
}

/// The per-PE c-map scratchpad.
#[derive(Clone, Debug)]
pub struct HwCmap {
    entries: usize,
    /// Connectivity bitset by vertex id; 0 is absent. Empty when the map
    /// has no capacity.
    bits: Vec<Bits>,
    /// Live (nonzero) entries of `bits`.
    live: usize,
    /// Access cost by occupancy, from [`cost_steps`].
    steps: Vec<(usize, u64)>,
    /// The step the current occupancy falls in.
    step: usize,
}

impl HwCmap {
    /// Creates an empty c-map with the given entry capacity and bank
    /// count, able to key the vertices `0..num_vertices`. A zero-capacity
    /// map allocates nothing.
    pub fn new(entries: usize, banks: usize, num_vertices: usize) -> HwCmap {
        HwCmap {
            entries,
            bits: if entries == 0 { Vec::new() } else { vec![0; num_vertices] },
            live: 0,
            steps: cost_steps(entries, banks.max(1)),
            step: 0,
        }
    }

    /// Current number of live entries.
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.entries
    }

    /// Load factor in [0, 1] (0 for unlimited capacity). A zero-capacity
    /// map is permanently saturated, matching
    /// [`would_overflow`](Self::would_overflow), which rejects every
    /// insertion into it.
    pub fn load(&self) -> f64 {
        load_factor(self.live, self.entries)
    }

    /// Whether inserting `additional` entries would push occupancy past
    /// `threshold` — the dynamic estimate of §VI-B ("we compute how each
    /// vertex extension influence the c-map memory footprint").
    pub fn would_overflow(&self, additional: usize, threshold: f64) -> bool {
        if self.entries == usize::MAX {
            return false;
        }
        (self.live + additional) as f64 > threshold * self.entries as f64
    }

    /// Expected probe cycles at the current occupancy (the module's
    /// `probe_cycles` model). Constant between an insertion and the next
    /// insertion or invalidation, so a stream of queries may read it once.
    #[inline]
    pub fn access_cycles(&self) -> u64 {
        self.steps[self.step].1
    }

    /// Re-seats `step` after the occupancy moved by one.
    #[inline]
    fn track_occupancy(&mut self) {
        let occupancy = self.live;
        if self.steps.get(self.step + 1).is_some_and(|next| occupancy >= next.0) {
            self.step += 1;
        } else if occupancy < self.steps[self.step].0 {
            self.step -= 1;
        }
    }

    /// Sets connectivity bit `depth` for key `w`, inserting the entry if
    /// absent. Returns the access cost in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not below the vertex count the map was built for,
    /// and in debug builds if capacity would be exceeded — callers must
    /// gate insertions with [`would_overflow`](Self::would_overflow).
    #[inline]
    pub fn insert(&mut self, w: u32, depth: usize) -> u64 {
        let cost = self.access_cycles();
        let slot = &mut self.bits[w as usize];
        let absent = *slot == 0;
        *slot |= 1 << depth;
        if absent {
            self.live += 1;
            self.track_occupancy();
            debug_assert!(self.entries == usize::MAX || self.live <= self.entries);
        }
        cost
    }

    /// Returns the connectivity bitset of `w` (0 when absent) and the
    /// access cost. A zero-capacity map holds no array and reads every key
    /// as absent: a level whose vertex has no (oriented) neighbors passes
    /// its overflow check with nothing inserted, and is then probed.
    #[inline]
    pub fn query(&self, w: u32) -> (u16, u64) {
        (self.bits.get(w as usize).map_or(0, |&b| b), self.access_cycles())
    }

    /// Clears bit `depth` of `w`, dropping the entry when it reaches zero
    /// (invalidate-in-place). Returns the access cost.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not below the vertex count the map was built for.
    #[inline]
    pub fn invalidate(&mut self, w: u32, depth: usize) -> u64 {
        let cost = self.access_cycles();
        let slot = &mut self.bits[w as usize];
        if *slot != 0 {
            *slot &= !(1 << depth);
            if *slot == 0 {
                self.live -= 1;
                self.track_occupancy();
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_invalidate_round_trip() {
        let mut m = HwCmap::new(1024, 4, 16);
        m.insert(7, 0);
        m.insert(7, 2);
        assert_eq!(m.query(7).0, 0b101);
        assert_eq!(m.occupancy(), 1);
        m.invalidate(7, 2);
        assert_eq!(m.query(7).0, 0b001);
        m.invalidate(7, 0);
        assert_eq!(m.query(7).0, 0);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn missing_key_reads_zero() {
        let m = HwCmap::new(16, 4, 100);
        assert_eq!(m.query(99), (0, 1));
    }

    #[test]
    fn overflow_estimate() {
        let m = HwCmap::new(100, 4, 0);
        assert!(!m.would_overflow(75, 0.75));
        assert!(m.would_overflow(76, 0.75));
        let unlimited = HwCmap::new(usize::MAX, 4, 0);
        assert!(!unlimited.would_overflow(1 << 30, 0.75));
    }

    #[test]
    fn zero_capacity_is_saturated_not_unlimited() {
        // A disabled c-map (`HwCmap::new(0, ..)`) must look full from every
        // angle: previously `load()` reported 0.0 (the unlimited-capacity
        // answer) while `would_overflow` rejected all insertions.
        let m = HwCmap::new(0, 4, 1 << 20);
        assert_eq!(m.load(), 1.0);
        assert!(m.would_overflow(1, 0.75));
        // It holds nothing, so it allocates nothing and reads every key 0.
        assert_eq!((m.bits.capacity(), m.query(5).0), (0, 0));
        let unlimited = HwCmap::new(usize::MAX, 4, 0);
        assert_eq!(unlimited.load(), 0.0);
        assert!(!unlimited.would_overflow(1, 0.75));
    }

    #[test]
    fn access_cost_grows_with_load() {
        let mut m = HwCmap::new(100, 1, 90);
        let low = m.access_cycles();
        for i in 0..90u32 {
            m.insert(i, 0);
        }
        let high = m.access_cycles();
        assert!(high > low, "{high} vs {low}");
        assert_eq!(low, 1);
    }

    #[test]
    fn banking_reduces_probe_cost() {
        let mut one = HwCmap::new(100, 1, 85);
        let mut four = HwCmap::new(100, 4, 85);
        for i in 0..85u32 {
            one.insert(i, 0);
            four.insert(i, 0);
        }
        assert!(four.access_cycles() <= one.access_cycles());
        assert_eq!(four.access_cycles(), 1);
    }

    /// The cost the step list gives for `occupancy`.
    fn tabulated(steps: &[(usize, u64)], occupancy: usize) -> u64 {
        steps[steps.partition_point(|s| s.0 <= occupancy) - 1].1
    }

    #[test]
    fn tabulated_cost_equals_the_formula_at_every_occupancy() {
        // 100 000 entries reach the dip just below the saturated branch
        // (50.5 expected probes at load 0.9899…, 50 from 0.99 on).
        for entries in [0, 1, 100, 1638, 100_000] {
            for banks in [1, 2, 4] {
                let steps = cost_steps(entries, banks);
                assert!(steps.windows(2).all(|w| w[0].0 < w[1].0), "{steps:?}");
                assert!(steps.len() <= 52, "{} steps", steps.len());
                for occupancy in 0..=entries {
                    assert_eq!(
                        tabulated(&steps, occupancy),
                        probe_cycles(occupancy, entries, banks),
                        "entries {entries} banks {banks} occupancy {occupancy}"
                    );
                }
            }
        }
        for banks in [1, 4] {
            let steps = cost_steps(usize::MAX, banks);
            for occupancy in [0, 1, 1638, 1 << 40, usize::MAX] {
                assert_eq!(tabulated(&steps, occupancy), 1);
                assert_eq!(probe_cycles(occupancy, usize::MAX, banks), 1);
            }
        }
    }

    #[test]
    fn tracked_cost_follows_occupancy_up_and_down() {
        for (entries, banks) in [(1, 1), (100, 1), (100, 4), (1638, 1), (1638, 4)] {
            // Keys scattered over a universe of 2 × entries + 1 vertices:
            // 7 919 is prime and divides none of them, so `key` is a
            // permutation of it.
            let universe = 2 * entries + 1;
            let mut m = HwCmap::new(entries, banks, universe);
            let key = |i: usize| (i * 7_919 % universe) as u32;
            for i in 0..entries {
                assert_eq!(m.insert(key(i), 0), probe_cycles(i, entries, banks));
                assert_eq!(m.insert(key(i), 1), probe_cycles(i + 1, entries, banks));
                assert_eq!(m.query(key(i)), (0b11, probe_cycles(i + 1, entries, banks)));
            }
            for i in (0..entries).rev() {
                assert_eq!(m.invalidate(key(i), 0), probe_cycles(i + 1, entries, banks));
                assert_eq!(m.invalidate(key(i), 1), probe_cycles(i + 1, entries, banks));
                assert_eq!(m.access_cycles(), probe_cycles(i, entries, banks));
            }
            assert_eq!(m.occupancy(), 0);
        }
    }

    #[test]
    fn unlimited_and_oversized_maps_cost_one_cycle_at_any_fill() {
        for entries in [usize::MAX, usize::MAX - 1, 1 << 40] {
            let mut m = HwCmap::new(entries, 4, 5_000);
            for k in 0..5_000 {
                assert_eq!(m.insert(k, 0), 1);
            }
            assert_eq!(m.occupancy(), 5_000);
            assert_eq!(m.query(4_999), (1, 1));
        }
    }

    #[test]
    fn clearing_one_of_two_bits_keeps_the_entry() {
        let universe = 1 << 20;
        let mut m = HwCmap::new(16, 4, universe as usize);
        for key in [0, universe - 2, universe - 1] {
            m.insert(key, 0);
            m.insert(key, 5);
            m.invalidate(key, 0);
            assert_eq!(m.query(key).0, 1 << 5);
            assert_eq!(m.occupancy(), 1);
            m.invalidate(key, 0); // already clear: no effect
            m.invalidate(key, 5);
            assert_eq!(m.query(key).0, 0);
        }
        m.invalidate(42, 1); // never inserted: no effect
        assert_eq!(m.occupancy(), 0);
    }

    proptest::proptest! {
        /// Random insert / query / invalidate sequences against a
        /// `BTreeMap` oracle, at every depth a 16-bit value holds. Keys come
        /// from a set small enough to collide and revisit, spread over a
        /// 2²⁰-vertex universe and including its ends, 0 and |V| − 1.
        #[test]
        fn store_matches_a_map_oracle(
            ops in proptest::prop::collection::vec(
                (0u8..4, 0u32..56, 0..MAX_PATTERN_VERTICES),
                0..400,
            ),
        ) {
            use proptest::prop_assert_eq;
            const UNIVERSE: u32 = 1 << 20;
            let key_of = |k: u32| match k {
                54 => 0,
                55 => UNIVERSE - 1,
                k => k.wrapping_mul(0x0101_0101) % UNIVERSE,
            };
            let mut m = HwCmap::new(usize::MAX, 4, UNIVERSE as usize);
            let mut oracle = std::collections::BTreeMap::<u32, u16>::new();
            for (op, k, depth) in ops {
                let key = key_of(k);
                match op {
                    0 | 1 => {
                        m.insert(key, depth);
                        *oracle.entry(key).or_insert(0) |= 1 << depth;
                    }
                    2 => {
                        m.invalidate(key, depth);
                        if let Some(bits) = oracle.get_mut(&key) {
                            *bits &= !(1 << depth);
                            if *bits == 0 {
                                oracle.remove(&key);
                            }
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(m.query(key).0, oracle.get(&key).copied().unwrap_or(0));
                prop_assert_eq!(m.occupancy(), oracle.len());
            }
            for k in 0..56 {
                let key = key_of(k);
                prop_assert_eq!(m.query(key).0, oracle.get(&key).copied().unwrap_or(0));
            }
            for (&key, &bits) in &oracle {
                for depth in (0..MAX_PATTERN_VERTICES).filter(|d| bits >> d & 1 == 1) {
                    m.invalidate(key, depth);
                }
            }
            prop_assert_eq!(m.occupancy(), 0);
            proptest::prop_assert!(m.bits.iter().all(|&b| b == 0));
        }
    }
}
