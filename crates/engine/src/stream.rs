//! The task loop: one mining job as a queue of start-vertex tasks that
//! any thread can advance a stint at a time.
//!
//! "The searches starting from different vertices of G are mutually
//! independent tasks" (§I), handed to whichever PE is idle (§V). Here the
//! *job* is passive state ([`JobCore`]) and a worker advances it by
//! running a bounded stint of start-vertex tasks. There is one loop and
//! two ways to drive it: the `mine*` entry points
//! ([`parallel`](crate::parallel)) run `threads` scoped workers over a
//! core that borrows the caller's prepared graph, one unbounded stint
//! each; a multi-job supervisor (`fm-jobs`) owns cores that co-own their
//! graph and interleaves short stints of many jobs on one worker pool.
//! Because start-vertex tasks are mutually independent and
//! counts/aggregate [`WorkCounters`](crate::WorkCounters) are
//! schedule-independent, a job run either way — interleaved with others,
//! paused, resumed, or moved across processes through a [`Checkpoint`] —
//! produces results bit-identical to an uninterrupted run.
//!
//! Building blocks:
//!
//! * `TaskCursor` — the lock-free chunk claimer: check-then-advance
//!   CAS, so the cursor never overshoots and a drained queue reads
//!   exactly `len`.
//! * [`JobCore`] — one mining job as shareable state: the prepared graph
//!   (borrowed or co-owned), the pending queue, the accumulated
//!   [`Checkpoint`] snapshot, the stop state and the pause flag.
//!   [`run_stint`](JobCore::run_stint) is re-entrant: several workers may
//!   advance the same job concurrently, claiming disjoint chunks.
//!
//! # Invariants
//!
//! * Every claimed task either runs to its boundary — and its delta is in
//!   the snapshot when the stint that ran it returns (at once, while a
//!   durable checkpoint sink is attached) — or is returned to the
//!   scheduler untouched: unrun, or stopped inside and rolled back. A
//!   pause can never strand or double-run a start vertex.
//! * The snapshot only ever changes by whole tasks under one lock, so it
//!   is always a consistent {bitmap, counts, work, faults} tuple: taking
//!   it at any instant and resuming (in-process or from the serialized
//!   bytes) loses nothing and repeats nothing it records.
//! * Stop conditions (cancel, deadline, iteration budget — in that order
//!   of severity) are terminal; pause is not. A paused job resumes with
//!   [`resume_paused`](JobCore::resume_paused) once its active stints have
//!   yielded.
//! * A run nobody observes takes no lock and makes no allocation per
//!   task (the rollback copy lives in the stint's executor): deltas
//!   accumulate there too, and timing, spans, progress and per-task
//!   publication are each paid only by the run that asked for them.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointSink};
use crate::control::{CancelToken, Progress};
use crate::executor::{Executor, Held, PreparedGraph};
use crate::result::{Fault, MiningResult, RunStatus, TaskTimes};
use crate::telemetry::Collector;
use crate::EngineConfig;
use fm_graph::{CsrGraph, VertexId};
use fm_plan::ExecutionPlan;
use fm_telemetry::{Span, SpanRing, TelemetryShard, TraceClock, DEFAULT_SPAN_CAPACITY};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Lock-free chunk claimer over an indexed task list.
///
/// `claim` hands out disjoint `chunk`-sized index ranges with a
/// check-then-advance CAS loop: once the cursor reaches `len`, claimers
/// exit without pushing it further, so a drained cursor reads exactly
/// `len` — deterministic under any interleaving — instead of overshooting
/// by up to `threads * chunk`. [`JobCore`] schedules through it; the
/// thread-pool driver runs `JobCore` stints, so it has no cursor of its own.
pub(crate) struct TaskCursor {
    cursor: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl TaskCursor {
    /// A cursor over `len` tasks handed out `chunk` at a time (`chunk` is
    /// clamped to at least 1).
    pub fn new(len: usize, chunk: usize) -> TaskCursor {
        TaskCursor { cursor: AtomicUsize::new(0), len, chunk: chunk.max(1) }
    }

    /// Claims the next chunk of task indices, or `None` when the list is
    /// exhausted. Ranges from concurrent claimers are disjoint and their
    /// union covers `0..len` exactly.
    pub fn claim(&self) -> Option<Range<usize>> {
        loop {
            let cur = self.cursor.load(Ordering::Relaxed);
            if cur >= self.len {
                return None;
            }
            match self.cursor.compare_exchange_weak(
                cur,
                cur + self.chunk,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(cur..(cur + self.chunk).min(self.len)),
                Err(_) => continue,
            }
        }
    }

    /// How many task indices have been claimed so far (never exceeds the
    /// task count).
    pub fn claimed(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.len)
    }

    /// How many task indices remain unclaimed.
    pub fn remaining(&self) -> usize {
        self.len - self.claimed()
    }
}

/// Start vertices handed out per claim by the job's own cursors. A fine
/// grain: power-law inputs concentrate work in a few hub start-vertices,
/// and coarse chunks would serialize them.
const GRAIN: usize = 4;

/// [`JobCore::pause`]'s request: yield at the next task boundary.
const PAUSE: u8 = 1;
/// [`JobCore::pause_now`]'s: yield at the next poll, inside a task too.
const PAUSE_NOW: u8 = 2;

/// How one call to [`JobCore::run_stint`] ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stint {
    /// The stint ran to its task limit or the queue's end without
    /// interruption. `drained` is true when no pending task remains — the
    /// job is finished once its other active stints (if any) also return.
    Ran {
        /// Start-vertex tasks completed by this stint.
        tasks: u64,
        /// Whether the pending queue is now empty.
        drained: bool,
    },
    /// A pause request preempted the stint at a task boundary — or, under
    /// [`JobCore::pause_now`], inside a task, rolled back; unclaimed and
    /// unrun work was returned to the scheduler.
    Paused {
        /// Start-vertex tasks completed before yielding.
        tasks: u64,
    },
    /// A terminal stop condition (cancel, deadline, or iteration budget)
    /// ended the job. Further stints return this immediately.
    Stopped(RunStatus),
}

/// The scheduler state behind one job: the pending start vertices, the
/// shared claim cursor over them, and vids handed back by preempted stints.
struct Sched {
    pending: Arc<Vec<u32>>,
    cursor: Arc<TaskCursor>,
    /// Claimed-but-unrun vids returned by paused/stopped stints; folded
    /// back into `pending` on the next queue rebuild.
    leftover: Vec<u32>,
}

/// Metrics and span collection for one job, off unless a driver asks:
/// `serve` through [`JobCore::set_trace`] (one `TraceClock` origin per
/// session, so all jobs' spans merge onto one Perfetto timeline), the
/// `mine*` entry points through their
/// [`TelemetryOptions`](crate::TelemetryOptions). Each stint
/// collects into a private buffer and merges it here under one lock when
/// it ends, keeping the per-task path lock-free.
pub(crate) struct Observer {
    /// Collect depth/tier metrics and the task-time histogram.
    metrics: bool,
    /// Collect one span per stint on this clock.
    clock: Option<TraceClock>,
    /// Also collect one `start-vertex-task` span per task.
    task_spans: bool,
    /// Task spans one stint may buffer; the job retains this many per
    /// configured thread between harvests and counts the rest dropped.
    span_capacity: usize,
    collected: Mutex<Collected>,
}

#[derive(Default)]
struct Collected {
    shard: TelemetryShard,
    spans: Vec<Span>,
    dropped: u64,
}

impl Observer {
    pub(crate) fn new(
        metrics: bool,
        clock: Option<TraceClock>,
        task_spans: bool,
        span_capacity: usize,
    ) -> Observer {
        let task_spans = task_spans && clock.is_some();
        Observer { metrics, clock, task_spans, span_capacity, collected: Mutex::default() }
    }
}

/// One mining job as preemptible, shareable state.
///
/// A core holds a [prepared](crate::prepare) graph — [`new`](Self::new) /
/// [`resume`](Self::resume) prepare one they co-own, so the core is
/// `'static` and `Arc`-shareable; the `mine*` entry points hand in the
/// caller's by reference. Any number of worker threads then advance the
/// job with [`run_stint`](Self::run_stint); progress accumulates in an
/// in-memory [`Checkpoint`] that [`snapshot`](Self::snapshot) can
/// serialize at any task boundary.
pub struct JobCore<'g> {
    graph: PreparedGraph<'g>,
    plan: Held<'g, ExecutionPlan>,
    cfg: EngineConfig,
    sched: Mutex<Sched>,
    /// Accumulated progress: the same snapshot type the durable layer
    /// writes, changed only by whole tasks under this lock.
    snap: Mutex<Checkpoint>,
    /// Pause request: [`PAUSE`], observed at start-vertex boundaries, or
    /// [`PAUSE_NOW`], also inside a task.
    pause: AtomicU8,
    pub(crate) cancel: CancelToken,
    /// Set-op iterations published at task boundaries, for the iteration
    /// budget (a running task adds its own) and progress reports.
    pub(crate) spent_iters: AtomicU64,
    /// Terminal stop, once a stop condition has fired (max severity wins).
    stopped: Mutex<Option<RunStatus>>,
    /// Stints currently inside `run_stint`.
    active: AtomicUsize,
    /// Pair-join count maps (one `u32` per vertex, all zero) that finished
    /// stints left for later ones: at most one per concurrent stint, none
    /// for a plan without a join, none once the queue has drained.
    pair_maps: Mutex<Vec<Vec<u32>>>,
    /// Metrics and spans, off (`None`) by default so unobserved jobs pay
    /// one null check per stint.
    pub(crate) observer: Option<Observer>,
    /// Task times for straggler detection, merged once per stint, in
    /// constant memory. `None` — no per-task clock read, no lock — unless
    /// a driver reports stragglers.
    pub(crate) task_times: Option<Mutex<TaskTimes>>,
    /// Live progress reporting, off by default.
    pub(crate) progress: Option<Progress>,
    /// Durable checkpointing: while attached, every finished task is
    /// published at its own boundary and offered to the sink's cadence.
    pub(crate) sink: Option<CheckpointSink>,
}

impl JobCore<'static> {
    /// A fresh job mining `plan` over `graph` under `cfg`.
    pub fn new(graph: Arc<CsrGraph>, plan: Arc<ExecutionPlan>, cfg: EngineConfig) -> Self {
        let snap = Checkpoint::empty(&graph, &plan, &cfg, plan.patterns.len());
        let prepared = PreparedGraph::build(Held::Arc(graph), &plan, &cfg);
        JobCore::over(prepared, Held::Arc(plan), cfg, snap)
    }

    /// A job continuing from `snapshot` (see [`Checkpoint::resumable`]).
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the snapshot does not match this job's
    /// graph, plan, or count-relevant config.
    pub fn resume(
        graph: Arc<CsrGraph>,
        plan: Arc<ExecutionPlan>,
        cfg: EngineConfig,
        snapshot: Checkpoint,
    ) -> Result<Self, CheckpointError> {
        let snap = snapshot.resumable(&graph, &plan, &cfg)?;
        let prepared = PreparedGraph::build(Held::Arc(graph), &plan, &cfg);
        Ok(JobCore::over(prepared, Held::Arc(plan), cfg, snap))
    }
}

impl<'g> JobCore<'g> {
    /// A job over an already prepared graph, continuing from `snap` (empty
    /// for a fresh job): every start vertex `snap` does not record as
    /// completed is pending.
    pub(crate) fn over(
        graph: PreparedGraph<'g>,
        plan: Held<'g, ExecutionPlan>,
        cfg: EngineConfig,
        snap: Checkpoint,
    ) -> JobCore<'g> {
        let mut pending: Vec<u32> =
            (0..graph.num_vertices() as u32).filter(|&v| !snap.completed.contains(v)).collect();
        // Degree-descending: the hub subtrees dominate the critical path
        // on power-law inputs, so scheduling them first keeps them off the
        // tail of the dynamic schedule. Counts and aggregate work counters
        // are order-independent. Ties break by ascending vid (stable
        // sort), keeping the schedule deterministic; a single lane has no
        // tail to protect and keeps the ascending order.
        if cfg.threads > 1 {
            pending.sort_by_key(|&v| std::cmp::Reverse(graph.degree(VertexId(v))));
        }
        let cursor = Arc::new(TaskCursor::new(pending.len(), GRAIN));
        JobCore {
            graph,
            plan,
            cfg,
            sched: Mutex::new(Sched { pending: Arc::new(pending), cursor, leftover: Vec::new() }),
            snap: Mutex::new(snap),
            pause: AtomicU8::new(0),
            cancel: CancelToken::new(),
            spent_iters: AtomicU64::new(0),
            stopped: Mutex::new(None),
            active: AtomicUsize::new(0),
            pair_maps: Mutex::new(Vec::new()),
            observer: None,
            task_times: None,
            progress: None,
            sink: None,
        }
    }

    /// Turns on stint (and optionally per-task) span tracing on `clock`,
    /// before the core is shared. Pass the serve session's clock so this
    /// job's spans land on the same timeline as the supervisor's. The job
    /// retains at most [`DEFAULT_SPAN_CAPACITY`] spans per configured
    /// thread between [`take_spans`](Self::take_spans) calls and counts
    /// the rest dropped.
    pub fn set_trace(&mut self, clock: TraceClock, task_spans: bool) {
        let observer = Observer::new(false, Some(clock), task_spans, DEFAULT_SPAN_CAPACITY);
        self.observer = Some(observer);
    }

    /// Drains the collected spans: `(spans, dropped)`. Both reset, so the
    /// supervisor can harvest incrementally (per settle) or once at exit.
    pub fn take_spans(&self) -> (Vec<Span>, u64) {
        let Some(o) = &self.observer else { return (Vec::new(), 0) };
        let mut c = o.collected.lock().unwrap_or_else(|e| e.into_inner());
        (std::mem::take(&mut c.spans), std::mem::take(&mut c.dropped))
    }

    /// Takes everything collected so far as one shard (metrics, spans in
    /// canonical order, drop count); `None` when nothing is observed.
    pub(crate) fn take_telemetry(&self) -> Option<TelemetryShard> {
        let o = self.observer.as_ref()?;
        let mut c = o.collected.lock().unwrap_or_else(|e| e.into_inner());
        let Collected { mut shard, spans, dropped } = std::mem::take(&mut *c);
        shard.absorb_spans(spans, dropped);
        Some(shard)
    }

    /// The engine configuration this job runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// A clone of this job's cancellation token; cancelling it stops the
    /// job terminally at its next poll, inside a task if need be.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Requests preemption: every active stint yields at its next task
    /// boundary, returning unrun claims to the scheduler. Idempotent.
    pub fn pause(&self) {
        self.pause.fetch_max(PAUSE, Ordering::AcqRel);
    }

    /// [`pause`](Self::pause), but a running task also stops at its next
    /// poll and is rolled back to run whole after the resume: a drain's
    /// pause, which must not wait for a long subtree. A preemption uses
    /// `pause`, so a job preempted over and over still finishes the task
    /// it is in each time. Idempotent.
    pub fn pause_now(&self) {
        self.pause.fetch_max(PAUSE_NOW, Ordering::AcqRel);
    }

    /// Whether a pause is currently requested.
    pub fn is_paused(&self) -> bool {
        self.pause.load(Ordering::Acquire) != 0
    }

    /// Stints currently executing inside [`run_stint`](Self::run_stint).
    pub fn active_stints(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// The terminal stop status, once a stop condition has fired.
    pub fn stop_status(&self) -> Option<RunStatus> {
        *self.stopped.lock().expect("job stop lock poisoned")
    }

    /// Pending start vertices not yet claimed by any stint.
    pub fn remaining_tasks(&self) -> usize {
        let s = self.sched.lock().expect("job sched lock poisoned");
        s.cursor.remaining() + s.leftover.len()
    }

    /// Whether every start vertex has been run (completed or quarantined).
    pub fn is_drained(&self) -> bool {
        self.remaining_tasks() == 0
    }

    /// Completed start vertices published so far.
    pub fn completed_tasks(&self) -> usize {
        self.snap.lock().expect("job snapshot lock poisoned").completed.len()
    }

    /// Clears a pause and rebuilds the pending queue (returned leftovers
    /// plus the unclaimed tail) under a fresh cursor. Returns `false` —
    /// without touching anything — while stints are still active; the
    /// caller retries after they yield.
    pub fn resume_paused(&self) -> bool {
        if self.active.load(Ordering::Acquire) != 0 {
            return false;
        }
        // No stint is active, so the cursor is stable: pending becomes the
        // returned leftovers plus the unclaimed tail.
        let mut s = self.sched.lock().expect("job sched lock poisoned");
        let claimed = s.cursor.claimed();
        let mut pending: Vec<u32> = std::mem::take(&mut s.leftover);
        pending.extend_from_slice(&s.pending[claimed..]);
        s.cursor = Arc::new(TaskCursor::new(pending.len(), GRAIN));
        s.pending = Arc::new(pending);
        self.pause.store(0, Ordering::Release);
        true
    }

    /// How a stint ends here, if it must: paused, or stopped for good —
    /// cancellation over deadline over budget. `running` is `None` between
    /// tasks; inside one it is the set-op iterations the task has spent and
    /// not yet published, and only [`PAUSE_NOW`] pauses it. The deadline
    /// clock is read only when a deadline is set.
    fn halt(&self, running: Option<u64>) -> Option<Stint> {
        let budget = &self.cfg.budget;
        let pause = self.pause.load(Ordering::Acquire);
        let status = if pause == PAUSE_NOW || (pause == PAUSE && running.is_none()) {
            return Some(Stint::Paused { tasks: 0 });
        } else if self.cancel.is_cancelled() {
            RunStatus::Cancelled
        } else if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            RunStatus::DeadlineExceeded
        } else if budget
            .max_setop_iterations
            .is_some_and(|m| self.spent_iters.load(Ordering::Relaxed) + running.unwrap_or(0) >= m)
        {
            RunStatus::BudgetExhausted
        } else {
            return None;
        };
        Some(Stint::Stopped(self.record_stop(status)))
    }

    fn record_stop(&self, status: RunStatus) -> RunStatus {
        let mut s = self.stopped.lock().expect("job stop lock poisoned");
        let merged = s.map_or(status, |prev| prev.max(status));
        *s = Some(merged);
        merged
    }

    /// Records a panic that escaped a stint's per-task isolation and took
    /// its worker down. No start vertex is attributable, so the fault goes
    /// against the sentinel vid `u32::MAX` — and into quarantine, since
    /// nothing retried it, which is what degrades the job.
    pub(crate) fn record_escaped(&self, payload: String) {
        let fault = Fault { vid: u32::MAX, attempt: 0, payload };
        let mut snap = self.snap.lock().expect("job snapshot lock poisoned");
        snap.faults.push(fault.clone());
        snap.quarantined.push(fault);
    }

    /// Moves `ex`'s accumulated delta into the snapshot under its lock
    /// and, when a sink is attached, offers the result to its cadence.
    fn publish(&self, ex: &mut Executor<'_>) {
        let mut snap = self.snap.lock().expect("job snapshot lock poisoned");
        let tasks = ex.drain_into(&mut snap);
        if let Some(sink) = &self.sink {
            sink.published(tasks, &snap);
        }
    }

    /// Runs up to `max_tasks` start-vertex tasks (rounded up to the chunk
    /// grain) on the calling thread. Re-entrant: concurrent stints claim
    /// disjoint chunks of the same queue. Pause and stop conditions are
    /// observed at every task boundary and polled inside each (DESIGN.md
    /// §8); a halted stint returns its unrun claims — a task stopped
    /// inside, rolled back, among them — to the scheduler before yielding.
    pub fn run_stint(&self, max_tasks: u64) -> Stint {
        self.run_stint_as(max_tasks, 0)
    }

    /// [`run_stint`](Self::run_stint) on an explicit trace lane: when
    /// tracing is on, the stint span (and per-task spans, if enabled)
    /// carry `lane` as their Chrome `tid`, so a driver can give each
    /// worker thread its own timeline row.
    pub fn run_stint_as(&self, max_tasks: u64, lane: u32) -> Stint {
        if let Some(status) = self.stop_status() {
            return Stint::Stopped(status);
        }
        if self.is_paused() {
            return Stint::Paused { tasks: 0 };
        }
        let (pending, cursor) = {
            let s = self.sched.lock().expect("job sched lock poisoned");
            (Arc::clone(&s.pending), Arc::clone(&s.cursor))
        };
        let _active = ActiveGuard::enter(&self.active);
        let observer = self.observer.as_ref();
        let clock = observer.and_then(|o| o.clock);
        let task_clock = observer.filter(|o| o.task_spans).and_then(|o| o.clock);
        let stint_start = clock.map(|c| c.now_us());
        let mut ex = Executor::new(&self.graph, &self.plan, &self.cfg);
        if let Some(map) = self.pair_maps.lock().expect("pair-map lock poisoned").pop() {
            ex.adopt_pair_counts(map);
        }
        if let Some(o) = observer.filter(|o| o.metrics || o.task_spans) {
            // A stint can run its limit rounded up to the chunk grain.
            let most = max_tasks.saturating_add(GRAIN as u64);
            let ring = o.span_capacity.min(usize::try_from(most).unwrap_or(usize::MAX));
            ex.set_telemetry(Collector::new(o.metrics, task_clock, lane, ring));
        }
        let mut times = self.task_times.is_some().then(TaskTimes::default);
        // Inside a stint the end of one task is the start of the next, so
        // a task's time includes the bookkeeping between it and its
        // predecessor. Telemetry reads the clock after every task; the
        // straggler roster, once `TaskTimes` asks.
        let every_task = ex.telemetry().is_some();
        let mut boundary = (times.is_some() || every_task).then(Instant::now);
        let track_iters = self.cfg.budget.max_setop_iterations.is_some() || self.progress.is_some();
        let mut stop = |running| self.halt(Some(running));
        let mut ran = 0u64;
        let mut preempted = None;
        'stint: while ran < max_tasks {
            let Some(range) = cursor.claim() else { break };
            for idx in range.clone() {
                let v = pending[idx];
                let span_start = task_clock.map(|c| c.now_us());
                let before = (ex.work().setop_iterations, ex.work().extensions);
                let task = match self.halt(None) {
                    Some(halt) => Err(halt),
                    None => ex.run_vertex_until(VertexId(v), &mut stop),
                };
                let ok = match task {
                    Ok(ok) => ok,
                    Err(halt) => {
                        // Claimed but unrun — or stopped inside and rolled
                        // back: back to the scheduler, untouched.
                        preempted = Some(match halt {
                            Stint::Paused { .. } => Stint::Paused { tasks: ran },
                            stop => stop,
                        });
                        let unrun = &pending[idx..range.end];
                        self.sched.lock().expect("job sched lock poisoned").leftover.extend(unrun);
                        break 'stint;
                    }
                };
                let spent = ex.work().setop_iterations - before.0;
                let work = spent + ex.work().extensions - before.1;
                let due = times.as_mut().is_some_and(|t| t.task(v, work)) || every_task;
                if let Some(started) = boundary.filter(|_| due) {
                    let now = Instant::now();
                    let elapsed = now - started;
                    boundary = Some(now);
                    if let Some(times) = times.as_mut() {
                        times.share(elapsed.as_nanos() as u64);
                    }
                    if let Some(t) = ex.telemetry() {
                        t.record_task(v, span_start, elapsed);
                    }
                }
                if track_iters {
                    self.spent_iters.fetch_add(spent, Ordering::Relaxed);
                }
                if self.sink.is_some() {
                    self.publish(&mut ex);
                }
                if let Some(p) = &self.progress {
                    p.task_done(ok, self.spent_iters.load(Ordering::Relaxed));
                }
                ran += 1;
            }
        }
        self.publish(&mut ex);
        let (map, drained) = (ex.release_pair_counts(), self.is_drained());
        {
            let mut maps = self.pair_maps.lock().expect("pair-map lock poisoned");
            if drained {
                maps.clear(); // no stint will follow: a finished job holds no scratch
            } else if !map.is_empty() {
                maps.push(map);
            }
        }
        if let (Some(shared), Some(mut times)) = (&self.task_times, times) {
            times.share(boundary.map_or(0, |at| at.elapsed().as_nanos() as u64));
            shared.lock().expect("task-time lock poisoned").merge(times);
        }
        let stint =
            preempted.unwrap_or_else(|| Stint::Ran { tasks: ran, drained: self.is_drained() });
        if let Some(o) = observer {
            let stint_span = clock.zip(stint_start).map(|(clock, start)| {
                let (name, tasks) = match stint {
                    Stint::Ran { tasks, .. } => ("stint", tasks),
                    Stint::Paused { tasks } => ("stint-paused", tasks),
                    Stint::Stopped(_) => ("stint-stopped", 0),
                };
                Span::close(&clock, name, "job", start, lane, Some(("tasks", tasks)))
            });
            let mut c = o.collected.lock().unwrap_or_else(|e| e.into_inner());
            let mut ring = ex.take_telemetry().map(|t| t.finish_into(&mut c.shard));
            c.dropped += ring.as_ref().map_or(0, |r| r.dropped);
            let task_spans = ring.as_mut().map(SpanRing::drain).unwrap_or_default();
            let cap = o.span_capacity.saturating_mul(self.cfg.threads.max(1));
            for span in task_spans.into_iter().chain(stint_span) {
                if c.spans.len() < cap {
                    c.spans.push(span);
                } else {
                    c.dropped += 1;
                }
            }
        }
        stint
    }

    /// A serializable snapshot of the job's progress, valid at any task
    /// boundary. Feeding it to [`resume`](JobCore::resume) — in this
    /// process or after a restart — continues the job bit-identically.
    pub fn snapshot(&self) -> Checkpoint {
        self.snap.lock().expect("job snapshot lock poisoned").clone()
    }

    /// Writes the final durable snapshot through the attached sink (a
    /// no-op without one): `(fatal write error, failed write attempts)`.
    pub(crate) fn finish_sink(&self) -> (Option<String>, u64) {
        let snap = self.snap.lock().expect("job snapshot lock poisoned");
        self.sink.as_ref().map_or((None, 0), |sink| sink.finish(&snap))
    }

    /// The job's result over everything published so far: a drained,
    /// quarantine-free job is [`Complete`](RunStatus::Complete) with
    /// counts and [`WorkCounters`](crate::WorkCounters) bit-identical to
    /// an uninterrupted [`mine`](crate::mine) and an empty (redundant,
    /// possibly large) completed list; partial and degraded jobs carry
    /// their exact completed set. Fault rosters are sorted, so the report
    /// is deterministic regardless of worker interleaving.
    pub fn result(&self) -> MiningResult {
        let snap = self.snap.lock().expect("job snapshot lock poisoned");
        let mut r = MiningResult::empty(self.plan.patterns.len());
        r.counts = snap.counts.clone();
        r.work = snap.work;
        r.faults = snap.faults.clone();
        r.quarantined = snap.quarantined.clone();
        r.faults.sort_unstable_by_key(|f| (f.vid, f.attempt));
        r.quarantined.sort_unstable_by_key(|f| (f.vid, f.attempt));
        if !r.quarantined.is_empty() {
            r.status = RunStatus::Degraded;
        }
        if let Some(stop) = self.stop_status() {
            r.status = r.status.max(stop);
        }
        if r.status != RunStatus::Complete {
            r.completed = snap.completed.to_vids();
        }
        r
    }
}

/// RAII active-stint counter, decremented even when a task panic escapes
/// the executor's isolation (so a wedged pause can't deadlock a resume).
struct ActiveGuard<'a>(&'a AtomicUsize);

impl<'a> ActiveGuard<'a> {
    fn enter(counter: &'a AtomicUsize) -> ActiveGuard<'a> {
        counter.fetch_add(1, Ordering::AcqRel);
        ActiveGuard(counter)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Budget;
    use crate::parallel::mine;
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, CompileOptions};

    // Stint sizes and thread counts, pause/resume, snapshot → resume and
    // every stop condition against one reference:
    // `every_driver_agrees_with_the_reference` in tests/job_control.rs.

    fn drain(core: &JobCore<'_>, stint: u64, lane: u32) {
        loop {
            match core.run_stint_as(stint, lane) {
                Stint::Ran { drained: true, .. } => return,
                Stint::Ran { .. } => continue,
                other => panic!("unexpected stint outcome {other:?}"),
            }
        }
    }

    /// A job's stints are many and short, and a pair join's count map is
    /// one `u32` per vertex: the stints of one job pass a single zeroed
    /// map along instead of allocating one each; a plan without a join
    /// never has one, and a finished job keeps none.
    #[test]
    fn stints_of_one_job_share_the_pair_joins_count_map() {
        let g = Arc::new(generators::powerlaw_cluster(200, 4, 0.5, 5));
        let cfg = EngineConfig::default();
        for (pattern, maps) in [(Pattern::cycle(4), 1), (Pattern::house(), 0)] {
            let plan = Arc::new(compile(&pattern, CompileOptions::default()));
            let core = JobCore::new(Arc::clone(&g), Arc::clone(&plan), cfg);
            for _ in 0..3 {
                assert!(matches!(core.run_stint(3), Stint::Ran { drained: false, .. }));
                let left = core.pair_maps.lock().unwrap();
                assert_eq!(left.len(), maps, "{pattern}");
                assert!(left.iter().all(|m| m.len() == 200 && m.iter().all(|&c| c == 0)));
            }
            drain(&core, 3, 0);
            assert_eq!(core.result().counts, mine(&g, &plan, &cfg).counts);
            assert!(core.pair_maps.lock().unwrap().is_empty(), "a finished job keeps none");
        }
    }

    #[test]
    fn task_cursor_partitions_exactly_under_contention() {
        for chunk in [7, 1] {
            let cursor = TaskCursor::new(1000, chunk);
            let claimed: Vec<Range<usize>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            let mut mine = Vec::new();
                            while let Some(r) = cursor.claim() {
                                mine.push(r);
                            }
                            mine
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            let mut covered = vec![false; 1000];
            for r in claimed {
                for i in r {
                    assert!(!covered[i], "chunk {chunk}: index {i} claimed twice");
                    covered[i] = true;
                }
            }
            assert!(covered.into_iter().all(|c| c));
            assert_eq!(cursor.claimed(), 1000);
            assert_eq!(cursor.remaining(), 0);
        }
    }

    /// One stop evaluator: cancellation outranks an expired deadline,
    /// which outranks an exhausted budget, and whichever fires is terminal.
    #[test]
    fn stop_conditions_fire_in_severity_order_and_are_terminal() {
        let g = Arc::new(generators::erdos_renyi(40, 0.2, 5));
        let plan = Arc::new(compile(&Pattern::triangle(), CompileOptions::default()));
        let budget = Budget { deadline: Some(Instant::now()), max_setop_iterations: Some(0) };
        let cfg = EngineConfig { budget, ..Default::default() };
        let core = JobCore::new(Arc::clone(&g), Arc::clone(&plan), cfg);
        assert_eq!(core.run_stint(5), Stint::Stopped(RunStatus::DeadlineExceeded));
        let core = JobCore::new(g, plan, cfg);
        core.cancel_token().cancel();
        assert_eq!(core.run_stint(5), Stint::Stopped(RunStatus::Cancelled));
        assert_eq!(core.run_stint(5), Stint::Stopped(RunStatus::Cancelled));
        assert_eq!(core.result().status, RunStatus::Cancelled);
        assert_eq!(core.completed_tasks() + core.remaining_tasks(), 40);
    }

    /// ISSUE 10 tentpole: traced stints record stint and per-task spans
    /// on the caller's lane without perturbing counts or work.
    #[test]
    fn traced_stints_emit_spans_and_stay_bit_identical() {
        let g = Arc::new(generators::powerlaw_cluster(160, 4, 0.5, 53));
        let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
        let reference = mine(&g, &plan, &EngineConfig::default());
        let mut traced = JobCore::new(g, plan, EngineConfig::default());
        traced.set_trace(TraceClock::start(), true);
        drain(&traced, 16, 7);
        let r = traced.result();
        assert_eq!(r.counts, reference.counts);
        assert_eq!(r.work, reference.work);
        let (spans, dropped) = traced.take_spans();
        assert_eq!(dropped, 0);
        assert!(spans.iter().any(|s| s.name == "stint" && s.cat == "job" && s.tid == 7));
        assert!(spans.iter().any(|s| s.name == "start-vertex-task" && s.tid == 7));
        // Per-task spans count every completed task exactly once.
        let tasks = spans.iter().filter(|s| s.name == "start-vertex-task").count();
        assert_eq!(tasks, traced.completed_tasks());
        // The buffer is drained, not cloned.
        assert!(traced.take_spans().0.is_empty());
    }

    /// What a job retains between harvests is bounded, and the rest is
    /// counted, not silently lost.
    #[test]
    fn spans_beyond_the_job_capacity_are_counted_as_dropped() {
        let g = Arc::new(generators::powerlaw_cluster(160, 4, 0.5, 53));
        let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
        let mut traced = JobCore::new(g, plan, EngineConfig::default());
        traced.observer = Some(Observer::new(false, Some(TraceClock::start()), true, 50));
        drain(&traced, 16, 0);
        let (spans, dropped) = traced.take_spans();
        assert_eq!(spans.len(), 50);
        // 160 task spans plus one span per stint were offered.
        assert_eq!(dropped, 160 + 160 / 16 - 50);
    }

    /// ISSUE 10 satellite: two jobs sharing one `TraceClock` origin merge
    /// onto a single monotone timeline — sorting the union leaves every
    /// span's start at or after its predecessor's, which is exactly what
    /// lets one Chrome-trace export show both jobs' lanes aligned.
    #[test]
    fn shared_clock_spans_merge_monotone_across_jobs() {
        let clock = TraceClock::start();
        let mut cores = Vec::new();
        for seed in [61, 67] {
            let g = Arc::new(generators::powerlaw_cluster(120, 4, 0.5, seed));
            let plan = Arc::new(compile(&Pattern::triangle(), CompileOptions::default()));
            let mut core = JobCore::new(g, plan, EngineConfig::default());
            core.set_trace(clock, false);
            cores.push(core);
        }
        // Interleave stints of the two jobs, as supervisor workers would.
        let mut open = [true, true];
        while open.iter().any(|&o| o) {
            for (i, core) in cores.iter().enumerate() {
                if open[i] {
                    if let Stint::Ran { drained: true, .. } = core.run_stint_as(8, i as u32) {
                        open[i] = false;
                    }
                }
            }
        }
        let mut merged: Vec<Span> = Vec::new();
        for core in &cores {
            merged.extend(core.take_spans().0);
        }
        assert!(merged.len() >= 4, "both jobs must contribute spans");
        merged.sort_unstable();
        for pair in merged.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us, "merged timeline must be monotone");
        }
        // Both lanes survive the merge.
        assert!(merged.iter().any(|s| s.tid == 0));
        assert!(merged.iter().any(|s| s.tid == 1));
    }

    // The retry-and-heal path needs a real injected fault; it lives in
    // tests/failpoints.rs with the other fault-injection tests.
}
