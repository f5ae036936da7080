//! Epoch-utilization contention model for shared resources.
//!
//! PEs are advanced round-robin in bounded epochs, so requests from
//! different PEs arrive at a shared resource out of global time order
//! within one epoch. Absolute `next_free` reservations would charge
//! phantom waits in that setting; instead, each resource books its
//! occupancy per epoch and serves requests with a queueing delay derived
//! from the previous epoch's utilization (an M/D/1-style `u/(1-u)` law).
//! The feedback is natural: as a resource saturates, its delays throttle
//! the PEs, whose request rate then stabilizes around the service
//! bandwidth — exactly the bandwidth-bound behaviour the paper's DRAM
//! integration exists to capture.

/// A contended, single-service-rate resource (an L2 bank, a DRAM channel).
#[derive(Clone, Debug)]
pub struct ContendedQueue {
    /// Service occupancy per request, in cycles.
    occupancy: u64,
    /// Occupancy cycles booked in the current epoch.
    booked: u64,
    /// Smoothed utilization from completed epochs, in [0, cap].
    util: f64,
    /// Utilization cap (keeps the delay law finite).
    cap: f64,
    /// Queueing delay per request at `util`, in cycles: fixed for a whole
    /// epoch, so [`end_epoch`](Self::end_epoch) computes it and
    /// [`book`](Self::book) only reads it.
    delay: u64,
}

impl ContendedQueue {
    /// Creates an idle queue with the given per-request occupancy.
    pub fn new(occupancy: u64) -> ContendedQueue {
        ContendedQueue { occupancy: occupancy.max(1), booked: 0, util: 0.0, cap: 0.96, delay: 0 }
    }

    /// Books one request and returns the modelled queueing delay in cycles.
    pub fn book(&mut self) -> u64 {
        self.booked += self.occupancy;
        self.delay
    }

    /// The per-request occupancy (service time excluding queueing).
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// Current smoothed utilization.
    pub fn utilization(&self) -> f64 {
        self.util
    }

    /// Closes an epoch of `epoch_cycles`, folding the booked occupancy
    /// into the smoothed utilization estimate.
    pub fn end_epoch(&mut self, epoch_cycles: u64) {
        let raw = self.booked as f64 / epoch_cycles.max(1) as f64;
        self.util = 0.5 * self.util + 0.5 * raw.min(self.cap);
        self.delay = (self.occupancy as f64 * self.util / (1.0 - self.util)).round() as u64;
        self.booked = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_has_no_delay() {
        let mut q = ContendedQueue::new(4);
        assert_eq!(q.book(), 0);
        assert_eq!(q.occupancy(), 4);
    }

    #[test]
    fn utilization_builds_delay() {
        let mut q = ContendedQueue::new(4);
        // Saturate: book 2000 occupancy cycles into a 1000-cycle epoch.
        for _ in 0..500 {
            q.book();
        }
        q.end_epoch(1000);
        assert!(q.utilization() > 0.4);
        let delayed = q.book();
        assert!(delayed > 0, "saturated resource must queue");
    }

    #[test]
    fn booked_delay_is_the_delay_law_at_the_epoch_utilization() {
        let mut q = ContendedQueue::new(4);
        for requests in [0u64, 100, 500, 230, 10_000, 0, 7] {
            for _ in 0..requests {
                q.book();
            }
            q.end_epoch(1000);
            let u = q.utilization();
            let law = (4.0 * u / (1.0 - u)).round() as u64;
            assert_eq!(q.book(), law);
            assert_eq!(q.book(), law, "constant within the epoch");
        }
    }

    #[test]
    fn utilization_decays_when_idle() {
        let mut q = ContendedQueue::new(4);
        for _ in 0..500 {
            q.book();
        }
        q.end_epoch(1000);
        let busy = q.utilization();
        q.end_epoch(1000);
        q.end_epoch(1000);
        assert!(q.utilization() < busy / 2.0);
    }

    #[test]
    fn utilization_is_capped() {
        let mut q = ContendedQueue::new(4);
        for _ in 0..100_000 {
            q.book();
        }
        q.end_epoch(10);
        assert!(q.utilization() <= 0.96);
        // Delay stays finite.
        assert!(q.book() < 1000);
    }
}
