//! Hardware connectivity-map model (§VI).
//!
//! The hardware c-map is a banked, linear-probing hash scratchpad with
//! 5-byte entries (4 B key + 1 B connectivity bitset). This model is
//! functional-plus-timing: contents are exact (the open-addressing
//! [`HashCmap`] of [`store`]), while access cost follows the probe-length
//! behaviour of linear probing divided across `m` parallel banks — "we
//! empirically observe that the map should be properly sized to keep its
//! occupancy below 75%, thus maintain a low expected access latency. In our
//! design, most accesses take only a single cycle."
//!
//! The cost is a step function of occupancy alone, so [`HwCmap::new`]
//! evaluates the formula once into a short list of steps and every access
//! reads the current step: no floating point on the probe path. The host
//! table grows with the live entries, so it is bounded by the entry
//! capacity (8/7 of it, rounded up to a power of two), never by |V|.
//!
//! The hardware deletes with the paper's simplified invalidate-in-place
//! scheme, valid because (1) updates happen in level bulks and (2) only
//! present keys are ever deleted; an invalidation is charged one access
//! like any other. (The host store closes the gap by backward shift — a
//! host detail with no modelled cost.)

pub mod store;

use fm_graph::VertexId;
pub use store::{ConnectivityMap, HashCmap, VectorCmap};

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
    store: HashCmap,
    /// Access cost by occupancy, from [`cost_steps`].
    steps: Vec<(usize, u64)>,
    /// The step the current occupancy falls in.
    step: usize,
}

impl HwCmap {
    /// Creates an empty c-map with the given entry capacity and bank count.
    pub fn new(entries: usize, banks: usize) -> HwCmap {
        HwCmap {
            entries,
            store: HashCmap::new(),
            steps: cost_steps(entries, banks.max(1)),
            step: 0,
        }
    }

    /// Current number of live entries.
    pub fn occupancy(&self) -> usize {
        self.store.len()
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
        load_factor(self.store.len(), self.entries)
    }

    /// Whether inserting `additional` entries would push occupancy past
    /// `threshold` — the dynamic estimate of §VI-B ("we compute how each
    /// vertex extension influence the c-map memory footprint").
    pub fn would_overflow(&self, additional: usize, threshold: f64) -> bool {
        if self.entries == usize::MAX {
            return false;
        }
        (self.store.len() + additional) as f64 > threshold * self.entries as f64
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
        let occupancy = self.store.len();
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
    /// Panics in debug builds if capacity would be exceeded — callers must
    /// gate insertions with [`would_overflow`](Self::would_overflow).
    #[inline]
    pub fn insert(&mut self, w: u32, depth: usize) -> u64 {
        let cost = self.access_cycles();
        self.store.insert(VertexId(w), depth);
        self.track_occupancy();
        debug_assert!(self.entries == usize::MAX || self.store.len() <= self.entries);
        cost
    }

    /// Returns the connectivity bitset of `w` (0 when absent) and the
    /// access cost.
    #[inline]
    pub fn query(&self, w: u32) -> (u16, u64) {
        (self.store.query(VertexId(w)) as u16, self.access_cycles())
    }

    /// Clears bit `depth` of `w`, dropping the entry when it reaches zero
    /// (invalidate-in-place). Returns the access cost.
    #[inline]
    pub fn invalidate(&mut self, w: u32, depth: usize) -> u64 {
        let cost = self.access_cycles();
        self.store.remove(VertexId(w), depth);
        self.track_occupancy();
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_invalidate_round_trip() {
        let mut m = HwCmap::new(1024, 4);
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
        let m = HwCmap::new(16, 4);
        assert_eq!(m.query(99), (0, 1));
    }

    #[test]
    fn overflow_estimate() {
        let m = HwCmap::new(100, 4);
        assert!(!m.would_overflow(75, 0.75));
        assert!(m.would_overflow(76, 0.75));
        let unlimited = HwCmap::new(usize::MAX, 4);
        assert!(!unlimited.would_overflow(1 << 30, 0.75));
    }

    #[test]
    fn zero_capacity_is_saturated_not_unlimited() {
        // A disabled c-map (`HwCmap::new(0, _)`) must look full from every
        // angle: previously `load()` reported 0.0 (the unlimited-capacity
        // answer) while `would_overflow` rejected all insertions.
        let m = HwCmap::new(0, 4);
        assert_eq!(m.load(), 1.0);
        assert!(m.would_overflow(1, 0.75));
        let unlimited = HwCmap::new(usize::MAX, 4);
        assert_eq!(unlimited.load(), 0.0);
        assert!(!unlimited.would_overflow(1, 0.75));
    }

    #[test]
    fn access_cost_grows_with_load() {
        let mut m = HwCmap::new(100, 1);
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
        let mut one = HwCmap::new(100, 1);
        let mut four = HwCmap::new(100, 4);
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
            let mut m = HwCmap::new(entries, banks);
            let key = |i: usize| (i as u32).wrapping_mul(2_654_435_761);
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
            let mut m = HwCmap::new(entries, 4);
            for k in 0..5_000 {
                assert_eq!(m.insert(k, 0), 1);
            }
            assert_eq!(m.occupancy(), 5_000);
            assert_eq!(m.query(4_999), (1, 1));
        }
    }
}
