//! Shared memory system: banked L2 + DRAM behind the NoC.

use crate::addr::Interleave;
use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::dram::Dram;
use crate::queue::ContendedQueue;

/// Outcome of one shared-memory request (an L1 miss arriving over the
/// NoC).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemService {
    /// Cycles from arrival at the L2 to data availability.
    pub latency: u64,
    /// Queueing + occupancy backpressure (what a streaming PE feels per
    /// line after the first).
    pub backpressure: u64,
}

/// Shared L2 and DRAM with aggregate statistics.
pub struct MemorySystem {
    l2: SetAssocCache,
    banks: Vec<ContendedQueue>,
    bank_of: Interleave,
    l2_latency: u64,
    /// The DRAM device (public for row-hit statistics).
    pub dram: Dram,
    /// Total L2 accesses (reads + writebacks).
    pub l2_accesses: u64,
    /// L2 read misses (→ DRAM accesses).
    pub l2_misses: u64,
    /// Dirty L2 evictions written to DRAM.
    pub l2_writebacks: u64,
}

impl MemorySystem {
    /// Creates an idle memory system per `cfg`.
    pub fn new(cfg: &SimConfig) -> MemorySystem {
        let l2_banks = cfg.l2_banks.max(1);
        MemorySystem {
            l2: SetAssocCache::new(cfg.l2_bytes, cfg.l2_assoc, cfg.line_bytes),
            banks: vec![ContendedQueue::new(cfg.l2_occupancy); l2_banks],
            bank_of: Interleave::new(cfg.line_bytes, l2_banks),
            l2_latency: cfg.l2_latency,
            dram: Dram::new(cfg.dram),
            l2_accesses: 0,
            l2_misses: 0,
            l2_writebacks: 0,
        }
    }

    /// Services a read miss for `line_addr`.
    pub fn read(&mut self, line_addr: u64) -> MemService {
        self.l2_accesses += 1;
        let bank = self.bank_of.index(line_addr);
        let queue_delay = self.banks[bank].book();
        let occupancy = self.banks[bank].occupancy();
        let result = self.l2.access(line_addr, false);
        if result.writeback.is_some() {
            // Dirty eviction (spilled frontier data) drains to DRAM.
            self.l2_writebacks += 1;
            let _ = self.dram.access(line_addr);
        }
        if result.hit {
            MemService {
                latency: queue_delay + self.l2_latency,
                backpressure: queue_delay + occupancy,
            }
        } else {
            self.l2_misses += 1;
            let d = self.dram.access(line_addr);
            MemService {
                latency: queue_delay + self.l2_latency + d.latency,
                backpressure: queue_delay + occupancy + d.backpressure,
            }
        }
    }

    /// Accepts a dirty line written back from a private cache (frontier
    /// spill, §IV-A: the frontier list "is written to the shared cache
    /// when evicted from the private cache").
    pub fn writeback(&mut self, line_addr: u64) {
        self.l2_accesses += 1;
        let bank = self.bank_of.index(line_addr);
        let _ = self.banks[bank].book();
        let result = self.l2.access(line_addr, true);
        if result.writeback.is_some() {
            self.l2_writebacks += 1;
            let _ = self.dram.access(line_addr);
        }
    }

    /// Closes a contention epoch of `epoch_cycles` on all queues.
    pub fn end_epoch(&mut self, epoch_cycles: u64) {
        for bank in &mut self.banks {
            bank.end_epoch(epoch_cycles);
        }
        self.dram.end_epoch(epoch_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_latency_ordering() {
        let cfg = SimConfig::default();
        let mut m = MemorySystem::new(&cfg);
        let miss = m.read(0);
        let hit = m.read(0);
        assert!(miss.latency > hit.latency);
        assert_eq!(hit.latency, cfg.l2_latency);
        assert_eq!(m.l2_accesses, 2);
        assert_eq!(m.l2_misses, 1);
        assert_eq!(m.dram.accesses, 1);
    }

    #[test]
    fn bank_index_equals_divide_and_modulo() {
        for l2_banks in [1usize, 8, 0] {
            let m = MemorySystem::new(&SimConfig { l2_banks, ..Default::default() });
            // No banks configured still means one service queue.
            let banks = l2_banks.max(1);
            assert_eq!(m.banks.len(), banks);
            for addr in (0..4_096u64).map(|i| i * 64 + (1 << 40) * (i % 3)) {
                assert_eq!(m.bank_of.index(addr), ((addr / 64) % banks as u64) as usize);
            }
        }
    }

    #[test]
    fn bank_saturation_queues() {
        let cfg = SimConfig::default();
        let mut m = MemorySystem::new(&cfg);
        for _ in 0..20_000 {
            let _ = m.read(0); // hammer bank 0 (hits after first)
        }
        m.end_epoch(cfg.epoch);
        let s = m.read(0);
        assert!(s.latency > cfg.l2_latency, "saturated bank must queue: {}", s.latency);
    }

    #[test]
    fn writebacks_count_and_land_in_l2() {
        let cfg = SimConfig::default();
        let mut m = MemorySystem::new(&cfg);
        m.writeback(0);
        assert_eq!(m.l2_accesses, 1);
        // Dirty data now lives in L2; reading it back is a hit.
        let s = m.read(0);
        assert_eq!(s.latency, cfg.l2_latency);
        assert_eq!(m.l2_misses, 0);
    }
}
