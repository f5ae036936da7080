//! Job control: cancellation, deadlines, and work budgets.
//!
//! Mining jobs on real inputs run for minutes to hours (§VII-D evaluates
//! graphs with billions of edges), so a production service needs a way to
//! stop a job without killing the process and to get *exact* partial
//! results back. The control plane here is deliberately coarse: state is
//! polled once per start-vertex task — the natural quantum of both the
//! software driver and the hardware scheduler (Fig. 8) — so the hot
//! per-candidate loops stay untouched.
//!
//! Three independent stop conditions are supported:
//!
//! * **Cancellation** — a [`CancelToken`] flipped from another thread;
//! * **Deadline** — a wall-clock [`Instant`] in [`Budget::deadline`];
//! * **Work budget** — a cap on cumulative set-operation iterations
//!   ([`Budget::max_setop_iterations`]), the engine's hardware-agnostic
//!   work unit (one SIU/SDU cycle per iteration). Unlike a wall-clock
//!   deadline the budget is machine-independent, which makes it the knob
//!   of choice for deterministic tests.
//!
//! Whichever fires first is reported as the run's
//! [`RunStatus`](crate::result::RunStatus); the start vertices finished
//! before the stop are recorded exactly, so a partial result is a complete
//! result over a known subset of the search roots.

use crate::telemetry::ProgressOptions;
use fm_telemetry::{ProgressCadence, ProgressSnapshot};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cheap, shareable cancellation handle.
///
/// Cloning shares the underlying flag; any clone can cancel the job and
/// every worker observes it at its next start-vertex boundary. Polling is
/// one relaxed atomic load.
///
/// # Examples
///
/// ```
/// use fm_engine::CancelToken;
///
/// let token = CancelToken::new();
/// let handle = token.clone();
/// assert!(!token.is_cancelled());
/// handle.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Resource limits for one mining run.
///
/// The default budget is unlimited, so existing callers are unaffected.
/// Budgets are part of [`EngineConfig`](crate::EngineConfig) and therefore
/// `Copy`; the deadline is an absolute [`Instant`] so that re-checking it
/// costs one clock read only when a deadline is actually set.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Budget {
    /// Wall-clock deadline. Polled at start-vertex granularity: the run
    /// stops before the *next* task once the deadline has passed, so a
    /// long-running subtree overshoots by at most one task.
    pub deadline: Option<Instant>,
    /// Cap on cumulative set-operation merge iterations across all
    /// workers. Workers publish their consumption at task boundaries, so
    /// the cap is enforced with the same one-task slack as the deadline.
    pub max_setop_iterations: Option<u64>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget { deadline: Instant::now().checked_add(timeout), ..Budget::default() }
    }

    /// A budget capped at `iters` set-operation iterations.
    pub fn with_max_setop_iterations(iters: u64) -> Budget {
        Budget { max_setop_iterations: Some(iters), ..Budget::default() }
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_setop_iterations.is_some()
    }
}

/// Shared live-progress state, off by default; like the stop conditions,
/// progress is observed at start-vertex granularity. Workers touch two
/// relaxed atomics per task; the report itself is emitted under a
/// `try_lock` that is simply skipped on contention, so no worker ever
/// blocks on reporting.
pub(crate) struct Progress {
    total: u64,
    done: AtomicU64,
    quarantined: AtomicU64,
    started: Instant,
    cadence: ProgressCadence,
    /// Microseconds (since `started`) of the last emitted report.
    last_emit_us: AtomicU64,
    /// Reports skipped because another worker held the emitter lock.
    /// Surfaced as `fm_progress_dropped` so gaps in the heartbeat JSONL
    /// are diagnosable instead of silent.
    dropped: AtomicU64,
    /// Heartbeat-sink failures: a failed open (which disables the sink)
    /// and every failed write. Surfaced as `fm_heartbeat_errors_total` so
    /// an incomplete heartbeat file is diagnosable from the exporters.
    heartbeat_errors: AtomicU64,
    emitter: Mutex<Emitter>,
}

struct Emitter {
    heartbeat: Option<std::fs::File>,
}

impl Progress {
    /// A reporter over `total` pending tasks.
    pub(crate) fn new(total: u64, opts: &ProgressOptions) -> Progress {
        let mut open_errors = 0;
        let heartbeat = opts.heartbeat.as_ref().and_then(|path| {
            match std::fs::OpenOptions::new().create(true).append(true).open(path) {
                Ok(f) => Some(f),
                Err(e) => {
                    eprintln!("[progress] cannot open heartbeat file {}: {e}", path.display());
                    open_errors = 1;
                    None
                }
            }
        });
        Progress {
            total,
            done: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            started: Instant::now(),
            cadence: opts.cadence,
            last_emit_us: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            heartbeat_errors: AtomicU64::new(open_errors),
            emitter: Mutex::new(Emitter { heartbeat }),
        }
    }

    /// Reports one finished task (`ok = false` means quarantined);
    /// `iters` is the run's set-op iteration total so far, for the
    /// throughput figure.
    pub(crate) fn task_done(&self, ok: bool, iters: u64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !ok {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
        let due = match self.cadence {
            ProgressCadence::Tasks(n) => done.is_multiple_of(n),
            ProgressCadence::Wall(every) => {
                let now_us = self.started.elapsed().as_micros() as u64;
                now_us.saturating_sub(self.last_emit_us.load(Ordering::Relaxed))
                    >= every.as_micros() as u64
            }
        };
        if due {
            self.emit(iters, None, None);
        }
    }

    /// Emits one report if the emitter lock is free; otherwise another
    /// worker is mid-report and this occurrence is dropped — and counted,
    /// so the skip is observable after the run. The end-of-run report
    /// carries the straggler count and status, unknowable mid-run.
    pub(crate) fn emit(&self, iters: u64, stragglers: Option<u64>, status: Option<&'static str>) {
        let Ok(mut em) = self.emitter.try_lock() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let elapsed_us = self.started.elapsed().as_micros() as u64;
        self.last_emit_us.store(elapsed_us, Ordering::Relaxed);
        let snap = ProgressSnapshot {
            elapsed_us,
            done: self.done.load(Ordering::Relaxed),
            total: self.total,
            setop_iterations: iters,
            quarantined: self.quarantined.load(Ordering::Relaxed),
            stragglers,
            status,
        };
        eprintln!("{}", snap.line());
        if let Some(f) = &mut em.heartbeat {
            if writeln!(f, "{}", snap.heartbeat_json()).is_err() {
                self.heartbeat_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Progress {
    /// How many reports were skipped on emitter-lock contention. Read
    /// after the workers have joined.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// How many heartbeat opens/writes failed (0 when no heartbeat sink
    /// was requested). Read after the workers have joined.
    pub(crate) fn heartbeat_errors(&self) -> u64 {
        self.heartbeat_errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
        b.cancel(); // idempotent
        assert!(b.is_cancelled());
    }

    #[test]
    fn default_budget_is_unlimited() {
        assert!(!Budget::default().is_limited());
        assert!(Budget::with_timeout(Duration::from_secs(1)).is_limited());
        assert!(Budget::with_max_setop_iterations(10).is_limited());
    }

    #[test]
    fn progress_counts_tasks_and_quarantines() {
        // Cadence far enough out that no report is emitted from this test.
        let p = Progress::new(4, &ProgressOptions::every_tasks(1 << 30));
        p.task_done(true, 7);
        p.task_done(false, 7);
        assert_eq!(p.total, 4);
        assert_eq!(p.done.load(Ordering::Relaxed), 2);
        assert_eq!(p.quarantined.load(Ordering::Relaxed), 1);
    }

    /// ISSUE satellite: a contended emitter no longer drops reports
    /// silently — each skip is counted and surfaced after the run.
    #[test]
    fn contended_progress_emits_are_counted_not_silent() {
        let p = Progress::new(4, &ProgressOptions::every_tasks(1 << 30));
        // Holding the emitter lock makes every emit contend, exactly as a
        // concurrent worker mid-report would.
        let _held = p.emitter.lock().expect("emitter lock");
        p.emit(0, None, None);
        p.emit(0, None, None);
        assert_eq!(p.dropped(), 2);
    }

    /// ISSUE 10 satellite: heartbeat-sink failures are counted, not
    /// swallowed — a heartbeat path that cannot be opened surfaces as one
    /// error on the reporter (and from there as `fm_heartbeat_errors_total`).
    #[test]
    fn unopenable_heartbeat_counts_an_error() {
        let opts = ProgressOptions {
            cadence: ProgressCadence::Tasks(1 << 30),
            // A directory is never openable as an append-mode file.
            heartbeat: Some(std::env::temp_dir()),
        };
        let p = Progress::new(4, &opts);
        assert_eq!(p.heartbeat_errors(), 1);
        // The run proceeds; emits simply skip the dead sink.
        p.emit(0, None, None);
        assert_eq!(p.heartbeat_errors(), 1);
    }
}
