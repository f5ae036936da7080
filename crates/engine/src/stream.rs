//! Preemptible task-stream mining: one job sliced into supervisor-sized
//! stints.
//!
//! The thread-per-job driver in [`parallel`](crate::parallel) owns its
//! workers for the whole run. A multi-job supervisor needs the opposite
//! shape: the *job* is passive state ([`JobCore`]) and any worker thread
//! can advance it by running a bounded stint of start-vertex tasks. Because
//! start-vertex tasks are mutually independent and counts/aggregate
//! [`WorkCounters`] are schedule-independent (the property the parallel
//! driver and the checkpoint/resume layer are already built on), a job
//! interleaved with others, paused, resumed, or moved across processes
//! through a [`Checkpoint`] produces results bit-identical to an
//! uninterrupted run.
//!
//! Building blocks:
//!
//! * [`TaskCursor`] — the lock-free chunk claimer shared with the parallel
//!   driver: check-then-advance CAS, so the cursor never overshoots and a
//!   drained queue reads exactly `len`.
//! * [`JobCore`] — one mining job as shareable state: the prepared graph
//!   (owned, so the core is `'static` and `Arc`-shareable), the pending
//!   queue, the accumulated [`Checkpoint`] snapshot, and the pause/cancel
//!   flags. [`run_stint`](JobCore::run_stint) is re-entrant: several
//!   supervisor workers may advance the same job concurrently, claiming
//!   disjoint chunks.
//!
//! # Preemption invariants
//!
//! * Every claimed task either runs to its boundary (and its delta is in
//!   the snapshot) or is returned to the scheduler untouched — a pause can
//!   never strand or double-run a start vertex.
//! * The snapshot is updated under one lock per finished task, so it is
//!   always a consistent {bitmap, counts, work, faults} tuple: pausing at
//!   any instant and resuming (in-process or from the serialized bytes)
//!   loses nothing and repeats nothing.
//! * Stop conditions (cancel, deadline, iteration budget) are terminal;
//!   pause is not. A paused job resumes with
//!   [`resume_paused`](JobCore::resume_paused) once its active stints have
//!   yielded.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::control::CancelToken;
use crate::executor::{prepare_graph, Executor};
use crate::result::{MiningResult, RunStatus, WorkCounters};
use crate::EngineConfig;
use fm_graph::{BlockSummaries, CsrGraph, HubBitmaps, VertexId};
use fm_plan::ExecutionPlan;
use fm_telemetry::{Span, SpanRing, TraceClock};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Lock-free chunk claimer over an indexed task list.
///
/// `claim` hands out disjoint `chunk`-sized index ranges with a
/// check-then-advance CAS loop: once the cursor reaches `len`, claimers
/// exit without pushing it further, so a drained cursor reads exactly
/// `len` — deterministic under any interleaving — instead of overshooting
/// by up to `threads * chunk`. Both the thread-pool driver and [`JobCore`]
/// schedule through this type.
pub struct TaskCursor {
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
    /// A pause request preempted the stint at a task boundary; unclaimed
    /// and unrun work was returned to the scheduler.
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

/// Optional stint tracing, enabled with [`JobCore::set_trace`]. The clock
/// is shared with the supervisor's own spans (ISSUE 10 satellite: one
/// `TraceClock` origin per serve session, so all jobs' spans merge onto
/// one Perfetto timeline). Spans are buffered per stint and flushed into
/// the shared ring under one lock per stint, keeping the per-task hot
/// path lock-free.
struct JobTrace {
    clock: TraceClock,
    ring: Mutex<SpanRing>,
    /// Emit one `start-vertex-task` span per task (in addition to the
    /// per-stint span).
    task_spans: bool,
}

/// One mining job as preemptible, `Arc`-shareable state.
///
/// Construction ([`new`](Self::new) / [`resume`](Self::resume)) does the
/// one-time preparation — orientation for k-clique plans, hub-bitmap and
/// block-summary indexes — exactly as [`prepare`](crate::executor::prepare)
/// would, but owned, so the core has no borrow tying it to a caller's
/// stack. Any number of worker threads then advance the job with
/// [`run_stint`](Self::run_stint); progress accumulates in an in-memory
/// [`Checkpoint`] that [`snapshot`](Self::snapshot) can serialize at any
/// task boundary.
pub struct JobCore {
    /// The input graph as supplied (fingerprinted by the snapshot).
    input: Arc<CsrGraph>,
    /// The degree-oriented DAG when the plan requires one; mining runs on
    /// this, while checkpoints fingerprint `input` (resume re-runs the
    /// same preparation).
    oriented: Option<Arc<CsrGraph>>,
    hubs: Option<Arc<HubBitmaps>>,
    blocks: Option<Arc<BlockSummaries>>,
    plan: Arc<ExecutionPlan>,
    cfg: EngineConfig,
    sched: Mutex<Sched>,
    /// Accumulated progress: the same snapshot type the durable layer
    /// writes, kept consistent under one lock per finished task.
    snap: Mutex<Checkpoint>,
    /// Preemption request; observed at start-vertex boundaries.
    pause: AtomicBool,
    cancel: CancelToken,
    /// Set-op iterations published at task boundaries, for the iteration
    /// budget (same one-task slack as the thread-pool driver's monitor).
    spent_iters: AtomicU64,
    /// Terminal stop, once a stop condition has fired (max severity wins).
    stopped: Mutex<Option<RunStatus>>,
    /// Stints currently inside `run_stint`.
    active: AtomicUsize,
    /// Stint/task span tracing, off (`None`) by default so untraced jobs
    /// pay one null check per stint.
    trace: Option<JobTrace>,
}

/// Estimated resident bytes of one CSR graph (offsets plus adjacency).
fn csr_bytes(g: &CsrGraph) -> u64 {
    (g.num_vertices() as u64 + 1) * 8 + g.num_directed_edges() as u64 * 4
}

impl JobCore {
    /// A fresh job mining `plan` over `graph` under `cfg`.
    pub fn new(graph: Arc<CsrGraph>, plan: Arc<ExecutionPlan>, cfg: EngineConfig) -> JobCore {
        let snap = Checkpoint::empty(&graph, &plan, &cfg, plan.patterns.len());
        JobCore::build(graph, plan, cfg, snap)
    }

    /// A job continuing from `snapshot`: completed start vertices are
    /// skipped with their contribution seeded from the snapshot, and
    /// previously quarantined vertices are re-attempted with their fault
    /// history carried forward — the same semantics as
    /// [`Recovery::resume`](crate::parallel::Recovery).
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
    ) -> Result<JobCore, CheckpointError> {
        snapshot.validate(&graph, &plan, &cfg)?;
        let snap = Checkpoint { quarantined: Vec::new(), ..snapshot };
        Ok(JobCore::build(graph, plan, cfg, snap))
    }

    fn build(
        input: Arc<CsrGraph>,
        plan: Arc<ExecutionPlan>,
        cfg: EngineConfig,
        snap: Checkpoint,
    ) -> JobCore {
        let oriented = match prepare_graph(&input, &plan) {
            Cow::Owned(g) => Some(Arc::new(g)),
            Cow::Borrowed(_) => None,
        };
        let mining = oriented.as_deref().unwrap_or(&input);
        let hubs = if cfg.hub_bitmap_active() {
            let idx = HubBitmaps::build(mining, cfg.hub_degree_threshold, cfg.hub_memory_budget);
            (!idx.is_empty()).then(|| Arc::new(idx))
        } else {
            None
        };
        let blocks = if cfg.simd_active() {
            let bl = BlockSummaries::build(mining);
            (!bl.is_empty()).then(|| Arc::new(bl))
        } else {
            None
        };
        let mut pending: Vec<u32> =
            (0..mining.num_vertices() as u32).filter(|&v| !snap.completed.contains(v)).collect();
        if cfg.degree_sched {
            pending.sort_by_key(|&v| std::cmp::Reverse(mining.degree(VertexId(v))));
        }
        let cursor = Arc::new(TaskCursor::new(pending.len(), cfg.chunk_size));
        JobCore {
            input,
            oriented,
            hubs,
            blocks,
            plan,
            cfg,
            sched: Mutex::new(Sched { pending: Arc::new(pending), cursor, leftover: Vec::new() }),
            snap: Mutex::new(snap),
            pause: AtomicBool::new(false),
            cancel: CancelToken::new(),
            spent_iters: AtomicU64::new(0),
            stopped: Mutex::new(None),
            active: AtomicUsize::new(0),
            trace: None,
        }
    }

    /// Turns on stint (and optionally per-task) span tracing on `clock`,
    /// before the core is shared. Pass the serve session's clock so this
    /// job's spans land on the same timeline as the supervisor's.
    pub fn set_trace(&mut self, clock: TraceClock, span_capacity: usize, task_spans: bool) {
        self.trace =
            Some(JobTrace { clock, ring: Mutex::new(SpanRing::new(span_capacity)), task_spans });
    }

    /// The trace clock this job records on, when tracing is enabled.
    pub fn trace_clock(&self) -> Option<TraceClock> {
        self.trace.as_ref().map(|t| t.clock)
    }

    /// Drains the collected spans: `(spans, dropped)`. Both reset, so the
    /// supervisor can harvest incrementally (per settle) or once at exit.
    pub fn take_spans(&self) -> (Vec<Span>, u64) {
        let Some(t) = &self.trace else { return (Vec::new(), 0) };
        let mut ring = t.ring.lock().unwrap_or_else(|e| e.into_inner());
        let spans = ring.drain();
        let dropped = std::mem::take(&mut ring.dropped);
        (spans, dropped)
    }

    fn mining_graph(&self) -> &CsrGraph {
        self.oriented.as_deref().unwrap_or(&self.input)
    }

    /// The input graph this job mines (as supplied, before orientation).
    pub fn input_graph(&self) -> &Arc<CsrGraph> {
        &self.input
    }

    /// The plan this job executes.
    pub fn plan(&self) -> &Arc<ExecutionPlan> {
        &self.plan
    }

    /// The engine configuration this job runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Estimated resident bytes of this job's graph data: the input CSR
    /// plus the oriented copy when the plan required one. Auxiliary
    /// indexes are bounded by [`EngineConfig::hub_memory_budget`] and the
    /// block-summary overhead (a few bits per adjacency block) and are not
    /// itemized here.
    pub fn memory_bytes(&self) -> u64 {
        csr_bytes(&self.input) + self.oriented.as_deref().map_or(0, csr_bytes)
    }

    /// A clone of this job's cancellation token; cancelling it stops the
    /// job terminally at the next task boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Requests preemption: every active stint yields at its next task
    /// boundary, returning unrun claims to the scheduler. Idempotent.
    pub fn pause(&self) {
        self.pause.store(true, Ordering::Release);
    }

    /// Whether a pause is currently requested.
    pub fn is_paused(&self) -> bool {
        self.pause.load(Ordering::Acquire)
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

    /// Completed start vertices so far.
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
        let mut s = self.sched.lock().expect("job sched lock poisoned");
        self.rebuild_queue(&mut s, &[]);
        self.pause.store(false, Ordering::Release);
        true
    }

    /// Moves every quarantined start vertex back onto the pending queue
    /// for another round of attempts (their fault history stays on the
    /// snapshot), returning how many were re-queued. A supervisor calls
    /// this between backoff-spaced attempts of a degraded job. No-op
    /// (returning 0) while stints are active.
    pub fn reattempt_quarantined(&self) -> usize {
        if self.active.load(Ordering::Acquire) != 0 {
            return 0;
        }
        let vids: Vec<u32> = {
            let mut snap = self.snap.lock().expect("job snapshot lock poisoned");
            std::mem::take(&mut snap.quarantined).into_iter().map(|f| f.vid).collect()
        };
        if vids.is_empty() {
            return 0;
        }
        let mut s = self.sched.lock().expect("job sched lock poisoned");
        self.rebuild_queue(&mut s, &vids);
        vids.len()
    }

    /// Rebuilds `pending` as leftovers + unclaimed tail + `extra`, with a
    /// fresh cursor. Caller holds the sched lock and has verified no stint
    /// is active (so the cursor is stable).
    fn rebuild_queue(&self, s: &mut Sched, extra: &[u32]) {
        let claimed = s.cursor.claimed();
        let mut pending: Vec<u32> = std::mem::take(&mut s.leftover);
        pending.extend_from_slice(&s.pending[claimed..]);
        pending.extend_from_slice(extra);
        s.cursor = Arc::new(TaskCursor::new(pending.len(), self.cfg.chunk_size));
        s.pending = Arc::new(pending);
    }

    /// Returns claimed-but-unrun vids to the scheduler (pause or stop hit
    /// mid-chunk), so no task is stranded.
    fn stash(&self, vids: &[u32]) {
        if !vids.is_empty() {
            self.sched.lock().expect("job sched lock poisoned").leftover.extend_from_slice(vids);
        }
    }

    /// The stop condition in effect, if any (severity order matches the
    /// thread-pool monitor: cancellation over deadline over budget).
    fn should_stop(&self) -> Option<RunStatus> {
        if self.cancel.is_cancelled() {
            return Some(RunStatus::Cancelled);
        }
        if self.cfg.budget.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(RunStatus::DeadlineExceeded);
        }
        if self
            .cfg
            .budget
            .max_setop_iterations
            .is_some_and(|m| self.spent_iters.load(Ordering::Relaxed) >= m)
        {
            return Some(RunStatus::BudgetExhausted);
        }
        None
    }

    fn record_stop(&self, status: RunStatus) -> RunStatus {
        let mut s = self.stopped.lock().expect("job stop lock poisoned");
        let merged = s.map_or(status, |prev| prev.max(status));
        *s = Some(merged);
        merged
    }

    /// Runs up to `max_tasks` start-vertex tasks (rounded up to the chunk
    /// grain) on the calling thread. Re-entrant: concurrent stints claim
    /// disjoint chunks of the same queue. Pause and stop conditions are
    /// observed at every task boundary; a preempted stint returns its
    /// unrun claims to the scheduler before yielding.
    pub fn run_stint(&self, max_tasks: u64) -> Stint {
        self.run_stint_as(max_tasks, 0)
    }

    /// [`run_stint`](Self::run_stint) on an explicit trace lane: when
    /// tracing is on, the stint span (and per-task spans, if enabled)
    /// carry `lane` as their Chrome `tid`, so a supervisor can give each
    /// worker thread its own timeline row.
    pub fn run_stint_as(&self, max_tasks: u64, lane: u32) -> Stint {
        let stint_start = self.trace.as_ref().map(|t| t.clock.now_us());
        let mut spans: Vec<Span> = Vec::new();
        let stint = self.stint_body(max_tasks, lane, &mut spans);
        if let (Some(t), Some(start)) = (&self.trace, stint_start) {
            let (name, tasks) = match stint {
                Stint::Ran { tasks, .. } => ("stint", tasks),
                Stint::Paused { tasks } => ("stint-paused", tasks),
                Stint::Stopped(_) => ("stint-stopped", 0),
            };
            spans.push(Span::close(&t.clock, name, "job", start, lane, Some(("tasks", tasks))));
            let mut ring = t.ring.lock().unwrap_or_else(|e| e.into_inner());
            for s in spans {
                ring.push(s);
            }
        }
        stint
    }

    /// The stint loop proper. Task spans (when enabled) are buffered in
    /// `spans` and flushed by the caller, so the per-task path takes no
    /// lock beyond the snapshot update it already does.
    fn stint_body(&self, max_tasks: u64, lane: u32, spans: &mut Vec<Span>) -> Stint {
        if let Some(status) = self.stop_status() {
            return Stint::Stopped(status);
        }
        if self.pause.load(Ordering::Acquire) {
            return Stint::Paused { tasks: 0 };
        }
        let (pending, cursor) = {
            let s = self.sched.lock().expect("job sched lock poisoned");
            (Arc::clone(&s.pending), Arc::clone(&s.cursor))
        };
        let _active = ActiveGuard::enter(&self.active);
        let mut ex = Executor::with_shared(
            self.mining_graph(),
            &self.plan,
            &self.cfg,
            self.hubs.clone(),
            self.blocks.clone(),
        );
        let track_iters = self.cfg.budget.max_setop_iterations.is_some();
        let task_trace = self.trace.as_ref().filter(|t| t.task_spans);
        let mut published = ex.setop_iterations_so_far();
        let mut ran = 0u64;
        while ran < max_tasks {
            let Some(range) = cursor.claim() else { break };
            for idx in range.clone() {
                if self.pause.load(Ordering::Acquire) {
                    self.stash(&pending[idx..range.end]);
                    return Stint::Paused { tasks: ran };
                }
                if let Some(status) = self.should_stop() {
                    self.stash(&pending[idx..range.end]);
                    return Stint::Stopped(self.record_stop(status));
                }
                let v = pending[idx];
                let task_start = task_trace.map(|t| t.clock.now_us());
                let before = TaskDelta::of(&ex);
                let ok = ex.run_vertex_isolated(VertexId(v));
                before.apply(self, &ex, v, ok);
                if let (Some(t), Some(start)) = (task_trace, task_start) {
                    spans.push(Span::close(
                        &t.clock,
                        "start-vertex-task",
                        "engine",
                        start,
                        lane,
                        Some(("vid", v as u64)),
                    ));
                }
                if track_iters {
                    let spent = ex.setop_iterations_so_far();
                    self.spent_iters.fetch_add(spent - published, Ordering::Relaxed);
                    published = spent;
                }
                ran += 1;
            }
        }
        Stint::Ran { tasks: ran, drained: self.is_drained() }
    }

    /// A serializable snapshot of the job's progress, valid at any task
    /// boundary. Feeding it to [`resume`](Self::resume) — in this process
    /// or after a restart — continues the job bit-identically.
    pub fn snapshot(&self) -> Checkpoint {
        self.snap.lock().expect("job snapshot lock poisoned").clone()
    }

    /// The job's result over everything run so far, in the same shape the
    /// thread-pool driver reports: a drained, quarantine-free job is
    /// [`Complete`](RunStatus::Complete) with counts and [`WorkCounters`]
    /// bit-identical to an uninterrupted [`mine`](crate::mine); partial
    /// and degraded jobs carry their exact completed set and sorted fault
    /// rosters.
    pub fn result(&self) -> MiningResult {
        let snap = self.snap.lock().expect("job snapshot lock poisoned");
        let mut r = MiningResult::empty(self.plan.patterns.len());
        r.counts = snap.counts.clone();
        r.work = snap.work;
        r.faults = snap.faults.clone();
        r.quarantined = snap.quarantined.clone();
        if !r.quarantined.is_empty() {
            r.status = RunStatus::Degraded;
        }
        if let Some(stop) = self.stop_status() {
            r.status = r.status.max(stop);
        }
        if r.status == RunStatus::Complete {
            r.completed = Vec::new();
        } else {
            r.completed = snap.completed.to_vids();
            r.faults.sort_unstable_by_key(|f| (f.vid, f.attempt));
            r.quarantined.sort_unstable_by_key(|f| (f.vid, f.attempt));
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

/// Pre-task executor counters; diffed after the task to publish exactly
/// one task's contribution into the job snapshot.
struct TaskDelta {
    counts: Vec<u64>,
    work: WorkCounters,
    faults: usize,
    quarantined: usize,
}

impl TaskDelta {
    fn of(ex: &Executor<'_>) -> TaskDelta {
        TaskDelta {
            counts: ex.counts_so_far().to_vec(),
            work: ex.work_so_far(),
            faults: ex.faults_so_far().len(),
            quarantined: ex.quarantined_so_far().len(),
        }
    }

    fn apply(self, core: &JobCore, ex: &Executor<'_>, vid: u32, completed: bool) {
        let mut snap = core.snap.lock().expect("job snapshot lock poisoned");
        if completed {
            snap.completed.insert(vid);
        }
        for (slot, (after, before)) in
            snap.counts.iter_mut().zip(ex.counts_so_far().iter().zip(&self.counts))
        {
            *slot += after - before;
        }
        snap.work += ex.work_so_far() - self.work;
        snap.faults.extend_from_slice(&ex.faults_so_far()[self.faults..]);
        if let Some(q) = ex.quarantined_so_far()[self.quarantined..].first() {
            snap.quarantined.push(q.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Budget;
    use crate::executor::{prepare_graph, Executor};
    use crate::parallel::mine;
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, CompileOptions};

    fn job(seed: u64, cfg: EngineConfig) -> (JobCore, MiningResult) {
        let g = Arc::new(generators::powerlaw_cluster(160, 4, 0.5, seed));
        let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
        let reference = mine(&g, &plan, &EngineConfig::default());
        (JobCore::new(g, plan, cfg), reference)
    }

    fn drain(core: &JobCore, stint: u64) -> u64 {
        let mut stints = 0;
        loop {
            stints += 1;
            match core.run_stint(stint) {
                Stint::Ran { drained: true, .. } => return stints,
                Stint::Ran { .. } => continue,
                other => panic!("unexpected stint outcome {other:?}"),
            }
        }
    }

    #[test]
    fn task_cursor_partitions_exactly_under_contention() {
        let cursor = TaskCursor::new(1000, 7);
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
                assert!(!covered[i], "index {i} claimed twice");
                covered[i] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
        assert_eq!(cursor.claimed(), 1000);
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn stinted_job_matches_uninterrupted_mine() {
        let (core, reference) = job(11, EngineConfig::default());
        let stints = drain(&core, 7);
        assert!(stints > 1, "test must actually slice the job");
        let r = core.result();
        assert_eq!(r.status, RunStatus::Complete);
        assert_eq!(r.counts, reference.counts);
        assert_eq!(r.work, reference.work);
        assert!(r.completed.is_empty());
    }

    #[test]
    fn concurrent_stints_share_one_job_bit_identically() {
        let (core, reference) = job(23, EngineConfig::default());
        let core = Arc::new(core);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let core = Arc::clone(&core);
                s.spawn(move || loop {
                    match core.run_stint(3) {
                        Stint::Ran { drained: true, .. } => break,
                        Stint::Ran { .. } => continue,
                        other => panic!("unexpected stint outcome {other:?}"),
                    }
                });
            }
        });
        let r = core.result();
        assert_eq!(r.status, RunStatus::Complete);
        assert_eq!(r.counts, reference.counts);
        assert_eq!(r.work, reference.work);
    }

    #[test]
    fn pause_snapshot_resume_is_bit_identical() {
        let (core, reference) = job(37, EngineConfig::default());
        match core.run_stint(20) {
            Stint::Ran { tasks: 20, drained: false } => {}
            other => panic!("unexpected stint outcome {other:?}"),
        }
        core.pause();
        assert_eq!(core.run_stint(20), Stint::Paused { tasks: 0 });
        // Path 1: in-process resume after the pause.
        assert!(core.resume_paused());
        // Path 2: serialize the snapshot and continue in a fresh core, as
        // a drained-and-restarted process would.
        let snapshot = Checkpoint::decode(&core.snapshot().encode()).unwrap();
        let resumed = JobCore::resume(
            Arc::clone(core.input_graph()),
            Arc::clone(core.plan()),
            *core.config(),
            snapshot,
        )
        .unwrap();
        drain(&core, 16);
        drain(&resumed, 16);
        for r in [core.result(), resumed.result()] {
            assert_eq!(r.status, RunStatus::Complete);
            assert_eq!(r.counts, reference.counts);
            assert_eq!(r.work, reference.work);
        }
    }

    #[test]
    fn pause_mid_chunk_strands_nothing() {
        let (core, reference) = job(41, EngineConfig { chunk_size: 32, ..Default::default() });
        // Pause before the stint starts a fresh claim: the stint claims a
        // 32-task chunk but must yield at the first boundary, returning
        // the untouched remainder.
        core.pause();
        assert_eq!(core.run_stint(100), Stint::Paused { tasks: 0 });
        assert!(core.resume_paused());
        let n = core.input_graph().num_vertices();
        assert_eq!(core.remaining_tasks() + core.completed_tasks(), n);
        drain(&core, 100);
        assert_eq!(core.result().counts, reference.counts);
    }

    #[test]
    fn budget_stop_is_terminal_with_exact_partial_counts() {
        let (_, reference) = job(17, EngineConfig::default());
        let budget = Budget::with_max_setop_iterations(reference.work.setop_iterations / 3);
        let (core, _) = job(17, EngineConfig { budget, ..Default::default() });
        let status = loop {
            match core.run_stint(5) {
                Stint::Ran { .. } => continue,
                Stint::Stopped(status) => break status,
                other => panic!("unexpected stint outcome {other:?}"),
            }
        };
        assert_eq!(status, RunStatus::BudgetExhausted);
        assert_eq!(core.run_stint(5), Stint::Stopped(RunStatus::BudgetExhausted));
        let r = core.result();
        assert_eq!(r.status, RunStatus::BudgetExhausted);
        assert!(!r.completed.is_empty());
        // Exactness: a sequential run over the reported completed set
        // reproduces the partial counts bit-for-bit.
        let g = core.input_graph();
        let prepared = prepare_graph(g, core.plan());
        let mut ex = Executor::new(&prepared, core.plan(), &EngineConfig::default());
        for &v in &r.completed {
            ex.run_vertex(VertexId(v));
        }
        assert_eq!(r.counts, ex.finish().counts);
    }

    #[test]
    fn cancel_token_stops_the_job() {
        let (core, _) = job(5, EngineConfig::default());
        core.run_stint(10);
        core.cancel_token().cancel();
        assert_eq!(core.run_stint(10), Stint::Stopped(RunStatus::Cancelled));
        assert_eq!(core.result().status, RunStatus::Cancelled);
    }

    /// ISSUE 10 tentpole: traced stints record stint and per-task spans
    /// on the caller's lane without perturbing counts or work.
    #[test]
    fn traced_stints_emit_spans_and_stay_bit_identical() {
        let (plain, reference) = job(53, EngineConfig::default());
        drain(&plain, 16);
        let g = Arc::clone(plain.input_graph());
        let plan = Arc::clone(plain.plan());
        let mut traced = JobCore::new(g, plan, EngineConfig::default());
        traced.set_trace(TraceClock::start(), 4096, true);
        loop {
            match traced.run_stint_as(16, 7) {
                Stint::Ran { drained: true, .. } => break,
                Stint::Ran { .. } => continue,
                other => panic!("unexpected stint outcome {other:?}"),
            }
        }
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
        // The ring is drained, not cloned.
        assert!(traced.take_spans().0.is_empty());
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
            core.set_trace(clock, 4096, false);
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

    // The quarantine-reattempt-and-heal path needs a real injected fault;
    // it lives in tests/failpoints.rs with the other fault-injection tests.
}
