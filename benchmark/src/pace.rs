//! How fast the machine is right now.
//!
//! The sandbox is a shared two-core VM whose speed shifts by tens of
//! percent for minutes at a time (a neighbour on the same core: CPU time
//! stretches with wall-clock, so it is not stolen time). Identical runs
//! minutes apart therefore differ by more than any bound worth having. A
//! short probe of fixed work, run right before and right after everything
//! that is timed, measures the slowdown of the moment; CPU-bound
//! wall-clock is reported divided by it, that is, in seconds of the quiet
//! machine. The probe shares no code with the program under test, so a
//! change to the program cannot move it.

use crate::inputs::THREADS;
use std::cmp::Ordering;
use std::hint::black_box;
use std::time::Instant;

/// Seconds a probe takes on the sandbox while it is quiet (the median of a
/// few hundred, `fm-benchmark probe --n 300`). Dividing by it keeps paced
/// times in seconds of that machine.
const QUIET_PROBE_S: f64 = 0.031;

const WORDS: usize = 1 << 21; // 8 MiB of u32, shared by the threads: past the L2.
const WINDOW: usize = 256;
const ROUNDS: usize = 12_000;

/// Times things between two probes of the machine's speed.
pub struct Pace {
    /// The probe's input: windows of ascending values with small random
    /// gaps, so that two windows share some of their elements. Empty when
    /// pacing is off.
    data: Vec<u32>,
}

fn xorshift(state: &mut u32) -> u32 {
    *state ^= *state << 13;
    *state ^= *state >> 17;
    *state ^= *state << 5;
    *state
}

impl Pace {
    pub fn new() -> Pace {
        let mut state = 0x9E37_79B9u32;
        let mut value = 0u32;
        let data = (0..WORDS)
            .map(|i| {
                if i % WINDOW == 0 {
                    value = 0;
                }
                value += 1 + (xorshift(&mut state) & 3);
                value
            })
            .collect();
        let pace = Pace { data };
        // The first probe of a process pays for thread start-up and a cold
        // core; run it now, so that no measurement does.
        pace.probe();
        pace
    }

    /// A pace that never probes and reports no slowdown, for runs whose
    /// times are read as shares of each other.
    pub fn off() -> Pace {
        Pace { data: Vec::new() }
    }

    /// Fixed work shaped like the program's: merge-intersections of sorted
    /// windows picked at pseudo-random offsets of a large array, on every
    /// worker thread at once. Returns the seconds it took.
    pub fn probe(&self) -> f64 {
        if self.data.is_empty() {
            return QUIET_PROBE_S;
        }
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let data = &self.data;
                scope.spawn(move || {
                    let mut state = 0x2545_F491u32.wrapping_add(t as u32);
                    let mut window = || {
                        let at = (xorshift(&mut state) as usize % (WORDS / WINDOW)) * WINDOW;
                        &data[at..at + WINDOW]
                    };
                    let mut common = 0u64;
                    for _ in 0..ROUNDS {
                        let (a, b) = (window(), window());
                        let (mut i, mut j) = (0, 0);
                        while i < WINDOW && j < WINDOW {
                            match a[i].cmp(&b[j]) {
                                Ordering::Less => i += 1,
                                Ordering::Greater => j += 1,
                                Ordering::Equal => {
                                    common += 1;
                                    i += 1;
                                    j += 1;
                                }
                            }
                        }
                    }
                    black_box(common);
                });
            }
        });
        start.elapsed().as_secs_f64()
    }

    /// Runs `f` and returns its value, the seconds it took, and how much
    /// slower than quiet the machine was around it (mean of the probes
    /// before and after, over the quiet probe).
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.probe();
        let start = Instant::now();
        let value = f();
        let raw = start.elapsed().as_secs_f64();
        let after = self.probe();
        (value, raw, (before + after) / 2.0 / QUIET_PROBE_S)
    }
}
