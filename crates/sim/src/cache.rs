//! Set-associative cache model with LRU replacement and dirty tracking.
//!
//! Used for both the per-PE private cache and the shared L2 ("a standard
//! cycle-accurate non-inclusive cache model for L2 cache", §VII-A). There
//! is no coherence machinery: "There is no cache coherency in FlexMiner
//! because each task is independent and there is no updates to shared
//! data" (§IV-A).

use crate::addr::Interleave;
use crate::config::LINE_BYTES;

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Whether the line was already present.
    pub hit: bool,
    /// A dirty line evicted to make room, if any (its address).
    pub writeback: Option<u64>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative, write-allocate, write-back cache.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    sets: Interleave,
    assoc: usize,
    ways: Vec<Way>,
    tick: u64,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` of [`LINE_BYTES`]-byte lines
    /// with the given associativity. Capacity is rounded down to a whole
    /// number of sets; a capacity smaller than one way still provides a
    /// single direct-mapped set (failure-injection configurations rely on
    /// this).
    ///
    /// # Panics
    ///
    /// Panics unless the resulting set count is a power of two (the set
    /// index is a shift and a mask).
    pub fn new(capacity_bytes: usize, assoc: usize) -> SetAssocCache {
        let assoc = assoc.max(1);
        let sets = Self::sets_for(capacity_bytes, assoc);
        SetAssocCache {
            sets: Interleave::new(sets),
            assoc,
            ways: vec![Way::default(); sets * assoc],
            tick: 0,
        }
    }

    /// Sets of a `capacity_bytes` cache: whole sets only, at least one.
    pub(crate) fn sets_for(capacity_bytes: usize, assoc: usize) -> usize {
        let assoc = assoc.max(1);
        ((capacity_bytes / LINE_BYTES).max(assoc) / assoc).max(1)
    }

    fn set_of(&self, line_addr: u64) -> usize {
        self.sets.index(line_addr)
    }

    /// Accesses `line_addr` (a line-aligned address). On a miss the line is
    /// installed; `write` marks it dirty.
    pub fn access(&mut self, line_addr: u64, write: bool) -> AccessResult {
        self.tick += 1;
        let set = self.set_of(line_addr);
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.assoc];
        // Hit?
        for way in ways.iter_mut() {
            if way.valid && way.tag == line_addr {
                way.lru = self.tick;
                if write {
                    way.dirty = true;
                }
                return AccessResult { hit: true, writeback: None };
            }
        }
        // Miss: pick invalid way or LRU victim.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("associativity >= 1");
        let evicted = ways[victim];
        let writeback = (evicted.valid && evicted.dirty).then_some(evicted.tag);
        ways[victim] = Way { tag: line_addr, valid: true, dirty: write, lru: self.tick };
        AccessResult { hit: false, writeback }
    }

    /// Whether `line_addr` is currently cached (no state change).
    pub fn contains(&self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        self.ways[set * self.assoc..(set + 1) * self.assoc]
            .iter()
            .any(|w| w.valid && w.tag == line_addr)
    }

    /// Number of sets (for tests).
    pub fn num_sets(&self) -> usize {
        self.ways.len() / self.assoc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = SetAssocCache::new(32 * 1024, 4);
        assert_eq!(c.num_sets(), 128);
        // Degenerate tiny cache still works.
        let t = SetAssocCache::new(64, 4);
        assert_eq!(t.num_sets(), 1);
    }

    #[test]
    fn set_index_equals_divide_and_modulo() {
        // (capacity, associativity) of every cache the suites build: the
        // default L1 and L2, fig16's 2 kB L1, and the failure-injection
        // sizes that collapse to one set.
        for (bytes, assoc) in
            [(32 << 10, 4), (4 << 20, 16), (2048, 4), (256, 4), (64, 4), (1024, 16), (128, 16)]
        {
            let c = SetAssocCache::new(bytes, assoc);
            let sets = c.num_sets();
            assert_eq!(sets, ((bytes / 64).max(assoc) / assoc).max(1));
            for line in (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20 << 6) {
                assert_eq!(c.set_of(line), ((line / 64) % sets as u64) as usize);
            }
        }
    }

    #[test]
    fn hit_after_install() {
        let mut c = SetAssocCache::new(1024, 2);
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.contains(0));
        assert!(!c.contains(64));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, map three conflicting lines to one set.
        let mut c = SetAssocCache::new(128, 2); // 1 set, 2 ways
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // refresh 0
        let r = c.access(128, false); // evicts 64
        assert!(!r.hit);
        assert!(c.contains(0) && c.contains(128) && !c.contains(64));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = SetAssocCache::new(128, 2);
        c.access(0, true); // dirty
        c.access(64, false);
        let r = c.access(128, false); // evicts dirty 0
        assert_eq!(r.writeback, Some(0));
        // Clean evictions stay silent.
        let r = c.access(192, false); // evicts clean 64
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = SetAssocCache::new(128, 2);
        c.access(0, false);
        c.access(0, true);
        c.access(64, false);
        let r = c.access(128, false);
        assert_eq!(r.writeback, Some(0));
    }
}
