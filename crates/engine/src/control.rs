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

/// Why a run stopped before draining every start vertex.
///
/// Ordered by severity so concurrent workers' observations merge with
/// `max` (explicit cancellation wins over a deadline, which wins over an
/// exhausted budget).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum StopKind {
    BudgetExhausted,
    DeadlineExceeded,
    Cancelled,
}

impl From<StopKind> for crate::result::RunStatus {
    fn from(kind: StopKind) -> Self {
        match kind {
            StopKind::BudgetExhausted => crate::result::RunStatus::BudgetExhausted,
            StopKind::DeadlineExceeded => crate::result::RunStatus::DeadlineExceeded,
            StopKind::Cancelled => crate::result::RunStatus::Cancelled,
        }
    }
}

/// Shared per-job stop state, polled by every worker at task boundaries.
pub(crate) struct Monitor<'t> {
    cancel: Option<&'t CancelToken>,
    deadline: Option<Instant>,
    max_iters: Option<u64>,
    /// Set-op iterations published by all workers so far.
    spent_iters: AtomicU64,
    /// Per-task elapsed times `(vid, nanoseconds)`, published in worker-sized
    /// batches for straggler detection. `None` when tracking is disabled
    /// (`straggler_ratio == 0`), so untracked runs take no per-task
    /// timestamps and no lock.
    task_times: Option<Mutex<Vec<(u32, u64)>>>,
    /// Live progress reporting, off (`None`) by default. Like the stop
    /// conditions, progress is observed at start-vertex granularity.
    progress: Option<Progress>,
    /// Whether `spend` must accumulate iteration counts (a budget cap is
    /// set, or progress wants a throughput figure).
    track_iters: bool,
}

/// Shared live-progress state. Workers touch two relaxed atomics per task;
/// the report itself is emitted under a `try_lock` that is simply skipped
/// on contention, so no worker ever blocks on reporting.
struct Progress {
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
    fn new(total: u64, opts: &ProgressOptions) -> Progress {
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

    fn task_done(&self, ok: bool, iters: u64) {
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
    /// so the skip is observable after the run.
    fn emit(&self, iters: u64, stragglers: Option<u64>, status: Option<&'static str>) {
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

impl<'t> Monitor<'t> {
    pub(crate) fn new(cancel: Option<&'t CancelToken>, budget: Budget) -> Monitor<'t> {
        Monitor {
            cancel,
            deadline: budget.deadline,
            max_iters: budget.max_setop_iterations,
            spent_iters: AtomicU64::new(0),
            task_times: None,
            progress: None,
            track_iters: budget.max_setop_iterations.is_some(),
        }
    }

    /// Turns on live progress reporting over `total` pending tasks (before
    /// the monitor is shared with workers). Iteration tracking is enabled
    /// as a side effect so reports can carry a set-op throughput figure.
    pub(crate) fn enable_progress(&mut self, total: u64, opts: &ProgressOptions) {
        self.progress = Some(Progress::new(total, opts));
        self.track_iters = true;
    }

    /// Reports one finished task (`ok = false` means quarantined) to the
    /// progress reporter, if one is on.
    pub(crate) fn task_finished(&self, ok: bool) {
        if let Some(p) = &self.progress {
            p.task_done(ok, self.spent_iters.load(Ordering::Relaxed));
        }
    }

    /// Emits the final progress report (with the end-of-run straggler
    /// count and status, which are unknowable mid-run).
    pub(crate) fn finish_progress(&self, stragglers: u64, status: &'static str) {
        if let Some(p) = &self.progress {
            p.emit(self.spent_iters.load(Ordering::Relaxed), Some(stragglers), Some(status));
        }
    }

    /// How many progress reports were skipped on emitter-lock contention
    /// (0 when progress is off). Read after the workers have joined.
    pub(crate) fn progress_dropped(&self) -> u64 {
        self.progress.as_ref().map_or(0, |p| p.dropped.load(Ordering::Relaxed))
    }

    /// How many heartbeat opens/writes failed (0 when progress is off or
    /// no heartbeat sink was requested). Read after the workers have
    /// joined.
    pub(crate) fn heartbeat_errors(&self) -> u64 {
        self.progress.as_ref().map_or(0, |p| p.heartbeat_errors.load(Ordering::Relaxed))
    }

    /// Turns on per-task elapsed-time tracking (before the monitor is
    /// shared with workers).
    pub(crate) fn enable_timing(&mut self) {
        self.task_times = Some(Mutex::new(Vec::new()));
    }

    /// Whether workers should time their tasks.
    pub(crate) fn timing_enabled(&self) -> bool {
        self.task_times.is_some()
    }

    /// Publishes one worker's batch of task times (one lock per worker,
    /// not per task).
    pub(crate) fn record_times(&self, times: Vec<(u32, u64)>) {
        if let Some(shared) = &self.task_times {
            shared.lock().expect("task-time lock poisoned").extend(times);
        }
    }

    /// Takes the accumulated task times (driver-side, after the join).
    pub(crate) fn take_times(&mut self) -> Vec<(u32, u64)> {
        self.task_times
            .take()
            .map(|m| m.into_inner().expect("task-time lock poisoned"))
            .unwrap_or_default()
    }

    /// Publishes `iters` newly consumed set-op iterations. Accumulated
    /// only when someone consumes the figure (a budget cap or a progress
    /// reporter), so unobserved runs skip the atomic entirely.
    pub(crate) fn spend(&self, iters: u64) {
        if self.track_iters && iters > 0 {
            self.spent_iters.fetch_add(iters, Ordering::Relaxed);
        }
    }

    /// Returns the stop condition in effect, if any. The deadline clock is
    /// read only when a deadline is set.
    pub(crate) fn should_stop(&self) -> Option<StopKind> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return Some(StopKind::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopKind::DeadlineExceeded);
        }
        if self.max_iters.is_some_and(|m| self.spent_iters.load(Ordering::Relaxed) >= m) {
            return Some(StopKind::BudgetExhausted);
        }
        None
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
    fn monitor_fires_in_severity_order() {
        let token = CancelToken::new();
        let budget = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            max_setop_iterations: Some(0),
        };
        let m = Monitor::new(Some(&token), budget);
        // Deadline outranks budget; cancellation outranks both.
        assert_eq!(m.should_stop(), Some(StopKind::DeadlineExceeded));
        token.cancel();
        assert_eq!(m.should_stop(), Some(StopKind::Cancelled));
    }

    #[test]
    fn monitor_budget_accounting() {
        let m = Monitor::new(None, Budget::with_max_setop_iterations(10));
        assert_eq!(m.should_stop(), None);
        m.spend(9);
        assert_eq!(m.should_stop(), None);
        m.spend(1);
        assert_eq!(m.should_stop(), Some(StopKind::BudgetExhausted));
    }

    #[test]
    fn unlimited_monitor_never_stops() {
        let m = Monitor::new(None, Budget::unlimited());
        m.spend(u64::MAX / 2);
        assert_eq!(m.should_stop(), None);
    }

    #[test]
    fn progress_tracking_enables_iteration_accounting() {
        let mut m = Monitor::new(None, Budget::unlimited());
        // No budget cap: iterations are normally not accumulated...
        m.spend(5);
        assert_eq!(m.spent_iters.load(Ordering::Relaxed), 0);
        // ...but enabling progress turns the accounting on (cadence far
        // enough out that no report is emitted from this test).
        m.enable_progress(4, &ProgressOptions::every_tasks(1 << 30));
        m.spend(7);
        assert_eq!(m.spent_iters.load(Ordering::Relaxed), 7);
        m.task_finished(true);
        m.task_finished(false);
        let p = m.progress.as_ref().expect("progress enabled");
        assert_eq!(p.total, 4);
        assert_eq!(p.done.load(Ordering::Relaxed), 2);
        assert_eq!(p.quarantined.load(Ordering::Relaxed), 1);
    }

    /// ISSUE satellite: a contended emitter no longer drops reports
    /// silently — each skip is counted and surfaced after the run.
    #[test]
    fn contended_progress_emits_are_counted_not_silent() {
        let mut m = Monitor::new(None, Budget::unlimited());
        m.enable_progress(4, &ProgressOptions::every_tasks(1 << 30));
        let p = m.progress.as_ref().expect("progress enabled");
        // Holding the emitter lock makes every emit contend, exactly as a
        // concurrent worker mid-report would.
        let _held = p.emitter.lock().expect("emitter lock");
        p.emit(0, None, None);
        p.emit(0, None, None);
        assert_eq!(m.progress_dropped(), 2);
    }

    /// ISSUE 10 satellite: heartbeat-sink failures are counted, not
    /// swallowed — a heartbeat path that cannot be opened surfaces as one
    /// error on the monitor (and from there as `fm_heartbeat_errors_total`).
    #[test]
    fn unopenable_heartbeat_counts_an_error() {
        let mut m = Monitor::new(None, Budget::unlimited());
        let opts = ProgressOptions {
            cadence: ProgressCadence::Tasks(1 << 30),
            // A directory is never openable as an append-mode file.
            heartbeat: Some(std::env::temp_dir()),
        };
        m.enable_progress(4, &opts);
        assert_eq!(m.heartbeat_errors(), 1);
        // The run proceeds; emits simply skip the dead sink.
        m.progress.as_ref().unwrap().emit(0, None, None);
        assert_eq!(m.heartbeat_errors(), 1);
    }

    #[test]
    fn stop_kind_severity_ordering() {
        assert!(StopKind::Cancelled > StopKind::DeadlineExceeded);
        assert!(StopKind::DeadlineExceeded > StopKind::BudgetExhausted);
    }
}
