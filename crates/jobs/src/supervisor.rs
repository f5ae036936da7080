//! Preemptible multi-job supervisor over [`fm_engine::JobCore`].
//!
//! One fixed worker pool interleaves any number of mining jobs at
//! start-vertex stint granularity. Because start-vertex tasks are mutually
//! independent and the engine's counts are schedule-independent, a job
//! produces bit-identical results no matter how its stints are woven
//! between other jobs, paused for a higher-priority arrival, or split
//! across a drain/restart — the chaos suite asserts exactly that.
//!
//! # Lifecycle
//!
//! ```text
//! submit ─▶ admission ──rejected──▶ Rejected { reason }   (immediate)
//!              │ admitted
//!              ▼
//!           Queued
//!              │ promote
//!              ▼
//!           Ready ──preempt──▶ Pausing ──▶ Parked
//!              │   ◀──── promote (resume_paused) ───┘
//!              │ stints drain the queue
//!              ▼
//!        Finished(result)      — or, at shutdown —      Drained { checkpoint }
//! ```
//!
//! # Invariants
//!
//! - Every submitted job resolves to **exactly one** terminal
//!   [`JobOutcome`]; a second resolution panics rather than masking a
//!   scheduler bug. An admitted job's outcome is delivered when the last
//!   holder of the job (its slot or a worker) drops it, after its engine
//!   state and its graph, so whoever the outcome wakes finds the graph
//!   released.
//! - Admission is checked before any expensive work: saturation returns
//!   an explicit [`JobOutcome::Rejected`] with the violated limit in the
//!   reason string — the supervisor never queues unboundedly. It keeps no
//!   account of graph memory: a job arrives holding its graph, and whoever
//!   loaded the graph decided whether it fits (in `flexminer serve`, the
//!   graph cache).
//! - There is one retry loop, the engine's: a faulted task runs again in
//!   place up to [`EngineConfig::max_retries`] times before it is
//!   quarantined, and a job with a quarantined task ends `Degraded`.
//! - No timer: workers wait on `work` and [`Supervisor::shutdown`] on
//!   `quiet`, neither with a timeout. Whatever can give a worker something
//!   to do notifies `work`, and every stint end that leaves its job with no
//!   active stint notifies `quiet`.

use crate::observe::{job_lane, JobObserver};
use crate::outcome::{JobHandle, JobOutcome, OutcomeCell};
use fm_engine::{Checkpoint, CheckpointError};
use fm_engine::{EngineConfig, JobCore, Stint};
use fm_graph::CsrGraph;
use fm_plan::ExecutionPlan;
use fm_telemetry::MetricsDoc;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Sizing knobs for a [`Supervisor`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Worker threads shared by all jobs.
    pub workers: usize,
    /// Maximum number of admitted-but-unresolved jobs; submissions beyond
    /// it are shed with [`JobOutcome::Rejected`].
    pub queue_capacity: usize,
    /// Maximum number of jobs holding a run slot at once (the rest wait
    /// queued, preserving priority order).
    pub max_running: usize,
    /// Start-vertex tasks per stint — the preemption latency unit.
    pub stint_tasks: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig { workers: 4, queue_capacity: 64, max_running: 4, stint_tasks: 64 }
    }
}

/// One mining job submission.
pub struct JobSpec {
    /// Display name, echoed in outcomes and drain reports.
    pub name: String,
    /// Higher runs first; a strictly higher-priority arrival preempts the
    /// lowest-priority running job when all run slots are taken.
    pub priority: i32,
    /// The id the job runs under — in its handle, events, spans and drain
    /// checkpoint name. `None` takes the next fresh id (see
    /// [`Supervisor::reserve_ids`]); `Some` is for a job that already has one,
    /// such as a recovered job, and must not be in use.
    pub id: Option<u64>,
    /// The data graph, held until the job resolves — also by a job whose
    /// plan mines an oriented copy of it.
    pub graph: Arc<CsrGraph>,
    pub plan: Arc<ExecutionPlan>,
    /// The job's engine configuration; its `max_retries` is how often a
    /// faulted task runs again before it is quarantined.
    pub config: EngineConfig,
    /// Resume from a drained checkpoint (validated against graph, plan,
    /// and config fingerprints at admission).
    pub resume: Option<Checkpoint>,
}

impl JobSpec {
    pub fn new(
        name: impl Into<String>,
        graph: Arc<CsrGraph>,
        plan: Arc<ExecutionPlan>,
        config: EngineConfig,
    ) -> JobSpec {
        JobSpec { name: name.into(), priority: 0, id: None, graph, plan, config, resume: None }
    }
}

/// A job drained to (at most) a checkpoint by [`Supervisor::shutdown`].
#[derive(Clone, Debug)]
pub struct DrainedJob {
    pub name: String,
    /// Durable snapshot path, when a spool directory was given and the
    /// atomic write succeeded.
    pub checkpoint: Option<PathBuf>,
    /// Why the checkpoint is missing despite a spool directory.
    pub error: Option<String>,
}

/// Counter/gauge snapshot (see [`Supervisor::metrics`] for the exported
/// form).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    pub submitted: u64,
    pub rejected: u64,
    pub preempted: u64,
    pub completed: u64,
    pub drained: u64,
    /// Admitted jobs waiting for a run slot (queued or parked).
    pub queued: u64,
    /// Jobs holding a run slot (running or winding down a preemption).
    pub running: u64,
    /// `queued` broken down by job priority, ascending by priority.
    pub queued_by_priority: Vec<(i32, u64)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Admitted and runnable; waiting for a slot.
    Queued,
    /// Holds a run slot; workers may claim stints.
    Ready,
    /// Preempted: pause requested, stints still yielding.
    Pausing,
    /// Paused with no active stints; needs `resume_paused` before Ready.
    Parked,
}

struct Job {
    id: u64,
    name: String,
    priority: i32,
    core: JobCore<'static>,
    /// The graph as submitted. An orienting plan's core mines its own
    /// copy and drops this one, so the job keeps it: whoever counts the
    /// holders of a graph (`serve`'s graph cache) sees every job on it.
    _graph: Arc<CsrGraph>,
    /// Declared last because fields drop in declaration order: the
    /// outcome reaches the handle after the core and the graph are gone.
    ending: Ending,
}

impl Job {
    /// Records the job's one outcome, delivered when the job is dropped.
    fn end(&self, outcome: JobOutcome) {
        let first = self.ending.outcome.set(outcome).is_ok();
        assert!(first, "job {} ended twice — supervisor state machine bug", self.id);
    }
}

/// A job's outcome on its way to the handle: set once when the job ends,
/// delivered by whichever thread drops the last `Arc<Job>`.
struct Ending {
    cell: Arc<OutcomeCell>,
    outcome: OnceLock<JobOutcome>,
}

impl Drop for Ending {
    fn drop(&mut self) {
        if let Some(outcome) = self.outcome.take() {
            self.cell.resolve(outcome);
        }
    }
}

struct Slot {
    job: Arc<Job>,
    phase: Phase,
    /// Observer clock stamp at admission (observer enabled only).
    submitted_us: Option<u64>,
    /// Set once on the first Queued→Ready hand-off; the queue-wait
    /// histogram and span are recorded then.
    first_ready_us: Option<u64>,
    /// Observer clock stamp when the pending preemption's pause was
    /// requested; consumed when the job parks.
    pause_us: Option<u64>,
}

#[derive(Default)]
struct State {
    slots: Vec<Slot>,
    draining: bool,
    /// The largest id a job has run under or [`Supervisor::reserve_ids`]
    /// reserved; a job submitted without an id takes the next.
    last_id: u64,
    /// The counters; [`Supervisor::stats`] fills in the gauges.
    stats: SupervisorStats,
}

struct Shared {
    cfg: SupervisorConfig,
    state: Mutex<State>,
    /// Workers wait here for runnable stints.
    work: Condvar,
    /// Shutdown waits here for in-flight stints to yield.
    quiet: Condvar,
    /// Lifecycle events, spans, and latency histograms; `None` keeps the
    /// scheduler entirely observation-free.
    obs: Option<Arc<JobObserver>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("supervisor state lock poisoned")
    }
}

/// Parks a job whose pause has taken hold: records the preemption latency
/// (pause request → parked) and the `parked` lifecycle event.
fn park(slot: &mut Slot, obs: Option<&JobObserver>) {
    slot.phase = Phase::Parked;
    let Some(obs) = obs else { return };
    if let Some(start) = slot.pause_us.take() {
        let now = obs.clock().now_us();
        obs.record_preempt(now.saturating_sub(start));
        obs.span("preempt", start, job_lane(slot.job.id), Some(("id", slot.job.id)));
    }
    obs.event(slot.job.id, "parked", String::new());
}

/// Records the queue-wait sample/span (first hand-off only) and the
/// `running`/`resumed` lifecycle event for a job granted a run slot.
fn note_ready(slot: &mut Slot, was_parked: bool, obs: Option<&JobObserver>) {
    let Some(obs) = obs else { return };
    if slot.first_ready_us.is_none() {
        let now = obs.clock().now_us();
        slot.first_ready_us = Some(now);
        if let Some(submitted) = slot.submitted_us {
            obs.record_queue_wait(now.saturating_sub(submitted));
            obs.span("queue-wait", submitted, job_lane(slot.job.id), Some(("id", slot.job.id)));
        }
    }
    obs.event(slot.job.id, if was_parked { "resumed" } else { "running" }, String::new());
}

/// Drive the phase machine forward: fill free run slots by priority, and
/// preempt (at most one victim per call) when a strictly higher-priority
/// job is waiting behind a full slot table.
fn promote(cfg: &SupervisorConfig, st: &mut State, obs: Option<&JobObserver>) {
    if st.draining {
        return;
    }
    let mut preempted = false;
    loop {
        let running =
            st.slots.iter().filter(|s| matches!(s.phase, Phase::Ready | Phase::Pausing)).count();
        let waiting = st
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.phase, Phase::Queued | Phase::Parked))
            .max_by_key(|(_, s)| (s.job.priority, Reverse(s.job.id)))
            .map(|(i, s)| (i, s.job.priority, s.phase));
        let Some((idx, priority, phase)) = waiting else { break };
        if running < cfg.max_running {
            if phase == Phase::Parked && !st.slots[idx].job.core.resume_paused() {
                // A stale stint is still winding down; the worker that
                // ends it will re-promote.
                break;
            }
            st.slots[idx].phase = Phase::Ready;
            note_ready(&mut st.slots[idx], phase == Phase::Parked, obs);
            continue;
        }
        // Slot table full: pause the lowest-priority running job if the
        // waiting one strictly outranks it. One victim per call bounds
        // the cascade; `Pausing` keeps holding the slot until parked, so
        // the waiting job stays queued until the hand-off completes.
        let victim = st
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase == Phase::Ready)
            .min_by_key(|(_, s)| (s.job.priority, Reverse(s.job.id)))
            .map(|(i, s)| (i, s.job.priority));
        match victim {
            Some((vidx, vpri)) if vpri < priority && !preempted => {
                let slot = &mut st.slots[vidx];
                slot.job.core.pause();
                slot.phase = Phase::Pausing;
                st.stats.preempted += 1;
                if let Some(obs) = obs {
                    slot.pause_us = Some(obs.clock().now_us());
                    obs.event(slot.job.id, "preempted", format!("by_priority={priority}"));
                }
                // With no stint in flight no worker is left to park it.
                if slot.job.core.active_stints() == 0 {
                    park(slot, obs);
                }
                preempted = true;
            }
            _ => break,
        }
    }
}

/// Highest-priority Ready job a worker can run a stint for right now.
fn pick(st: &State) -> Option<Arc<Job>> {
    if st.draining {
        return None;
    }
    st.slots
        .iter()
        .filter(|s| s.phase == Phase::Ready)
        .filter(|s| {
            let core = &s.job.core;
            let threads = core.config().threads.max(1);
            let active = core.active_stints();
            // Either real work remains, or the job is drained and idle
            // and needs one empty stint to reach `settle`.
            active < threads && (core.remaining_tasks() > 0 || active == 0)
        })
        .max_by_key(|s| (s.job.priority, Reverse(s.job.id)))
        .map(|s| Arc::clone(&s.job))
}

/// Ends `Finished` a job that ran dry or stopped, whose slot is already
/// out of the table.
fn finish(st: &mut State, obs: Option<&JobObserver>, job: &Job, submitted_us: Option<u64>) {
    st.stats.completed += 1;
    let result = job.core.result();
    if let Some(obs) = obs {
        if let Some(submitted) = submitted_us {
            obs.record_e2e(obs.clock().now_us().saturating_sub(submitted));
            obs.span("job", submitted, job_lane(job.id), Some(("id", job.id)));
        }
        let (spans, dropped) = job.core.take_spans();
        obs.absorb_spans(spans, dropped);
        obs.event(job.id, "finished", format!("status={:?}", result.status));
    }
    job.end(JobOutcome::Finished(result));
}

/// A job's queue ran dry (or it hit a terminal stop): take it out of the
/// table and end it. Idempotent — only slots still in a running phase
/// settle, so racing stints cannot end a job twice.
fn settle(st: &mut State, obs: Option<&JobObserver>, job: &Job) {
    let running = |s: &Slot| s.job.id == job.id && matches!(s.phase, Phase::Ready | Phase::Pausing);
    if let Some(pos) = st.slots.iter().position(running) {
        let slot = st.slots.remove(pos);
        finish(st, obs, job, slot.submitted_us);
    }
}

fn worker_loop(shared: Arc<Shared>, lane: u32) {
    let cfg = shared.cfg.clone();
    let obs = shared.obs.as_deref();
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                promote(&cfg, &mut st, obs);
                if let Some(job) = pick(&st) {
                    break job;
                }
                if st.draining && st.slots.iter().all(|s| s.job.core.active_stints() == 0) {
                    return;
                }
                st = shared.work.wait(st).expect("supervisor state lock poisoned");
            }
        };
        let stint_start = obs.map(|o| o.clock().now_us());
        let stint = job.core.run_stint_as(cfg.stint_tasks, lane);
        if let (Some(obs), Some(start)) = (obs, stint_start) {
            obs.record_stint(obs.clock().now_us().saturating_sub(start));
            if let Stint::Ran { tasks, .. } = stint {
                if tasks > 0 {
                    obs.event(
                        job.id,
                        "progress",
                        format!(
                            "done={} remaining={}",
                            job.core.completed_tasks(),
                            job.core.remaining_tasks()
                        ),
                    );
                }
            }
        }
        let mut st = shared.lock();
        // Sibling stints may still be in flight; the last one out (checked
        // under the state lock) settles a job that ran dry or stopped and
        // parks one whose pause has taken hold — whether or not its own
        // stint saw the pause flag. An ended job's outcome goes out when
        // the last of them drops it.
        if job.core.active_stints() == 0 {
            if matches!(stint, Stint::Ran { drained: true, .. } | Stint::Stopped(_)) {
                settle(&mut st, obs, &job);
            } else if let Some(slot) =
                st.slots.iter_mut().find(|s| s.job.id == job.id && s.phase == Phase::Pausing)
            {
                park(slot, obs);
            }
            shared.quiet.notify_all();
        }
        promote(&cfg, &mut st, obs);
        drop(st);
        shared.work.notify_all();
    }
}

/// Multi-job scheduler: one worker pool, admission control, priority
/// preemption, graceful drain. See the module docs for the lifecycle
/// diagram.
pub struct Supervisor {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Supervisor {
    pub fn new(cfg: SupervisorConfig) -> Supervisor {
        Supervisor::with_observer(cfg, None)
    }

    /// A supervisor wired to a [`JobObserver`]: lifecycle events, latency
    /// histograms, and lifecycle/engine spans on the observer's shared
    /// clock. `None` is exactly [`Supervisor::new`].
    pub fn with_observer(cfg: SupervisorConfig, obs: Option<Arc<JobObserver>>) -> Supervisor {
        let cfg = SupervisorConfig {
            workers: cfg.workers.max(1),
            max_running: cfg.max_running.max(1),
            stint_tasks: cfg.stint_tasks.max(1),
            ..cfg
        };
        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            quiet: Condvar::new(),
            obs,
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Engine stint spans report on lane `i + 1`; lane 0 is the
                // serve driver.
                std::thread::Builder::new()
                    .name(format!("fm-jobs-{i}"))
                    .spawn(move || worker_loop(shared, i as u32 + 1))
                    .expect("spawn supervisor worker")
            })
            .collect();
        Supervisor { shared, workers: Mutex::new(workers) }
    }

    /// Submit a job. Admission is decided immediately: a rejected job's
    /// handle already holds [`JobOutcome::Rejected`]. Admitted jobs build
    /// their [`JobCore`] (orientation, hub index) off the state lock.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let cfg = &self.shared.cfg;
        let obs = self.shared.obs.as_deref();
        let cell = Arc::new(OutcomeCell::default());
        let reject = |st: &mut State, id: u64, reason: String| {
            st.stats.rejected += 1;
            if let Some(obs) = obs {
                obs.event(id, "rejected", reason.clone());
            }
            cell.resolve(JobOutcome::Rejected { reason });
        };
        let (id, submitted_us) = {
            let mut st = self.shared.lock();
            st.stats.submitted += 1;
            let id = spec.id.unwrap_or(st.last_id + 1);
            st.last_id = st.last_id.max(id);
            if let Some(obs) = obs {
                obs.event(
                    id,
                    "submitted",
                    format!("name={} priority={}", spec.name, spec.priority),
                );
            }
            if st.draining {
                reject(&mut st, id, "supervisor is draining".to_string());
                return JobHandle { id, name: spec.name, cell };
            }
            if st.slots.len() >= cfg.queue_capacity {
                let reason = format!(
                    "queue full: {} jobs admitted (capacity {})",
                    st.slots.len(),
                    cfg.queue_capacity
                );
                reject(&mut st, id, reason);
                return JobHandle { id, name: spec.name, cell };
            }
            (id, obs.map(|o| o.clock().now_us()))
        };
        let JobSpec { name, priority, graph, plan, config, resume, .. } = spec;
        let built: Result<JobCore<'static>, CheckpointError> = match resume {
            None => Ok(JobCore::new(Arc::clone(&graph), plan, config)),
            Some(snapshot) => JobCore::resume(Arc::clone(&graph), plan, config, snapshot),
        };
        let mut st = self.shared.lock();
        match built {
            Err(e) => reject(&mut st, id, format!("resume checkpoint rejected: {e}")),
            Ok(mut core) => {
                if st.draining {
                    reject(&mut st, id, "supervisor is draining".to_string());
                } else {
                    if let Some(obs) = obs {
                        // Same clock origin as the serve driver, so engine
                        // stint spans and supervisor lifecycle spans share
                        // one Perfetto timeline.
                        core.set_trace(obs.clock(), obs.task_spans());
                        obs.event(id, "queued", String::new());
                    }
                    let job = Arc::new(Job {
                        id,
                        name: name.clone(),
                        priority,
                        core,
                        _graph: graph,
                        ending: Ending { cell: Arc::clone(&cell), outcome: OnceLock::new() },
                    });
                    st.slots.push(Slot {
                        job,
                        phase: Phase::Queued,
                        submitted_us,
                        first_ready_us: None,
                        pause_us: None,
                    });
                    promote(cfg, &mut st, obs);
                    drop(st);
                    self.shared.work.notify_all();
                }
            }
        }
        JobHandle { id, name, cell }
    }

    /// Makes every fresh id (a [`JobSpec::id`] of `None`) exceed `max_seen`:
    /// what a caller whose ids outlive the process (`serve`'s journal)
    /// does once, with the largest id it handed out before.
    pub fn reserve_ids(&self, max_seen: u64) {
        let mut st = self.shared.lock();
        st.last_id = st.last_id.max(max_seen);
    }

    /// Point-in-time counters and gauges.
    pub fn stats(&self) -> SupervisorStats {
        let st = self.shared.lock();
        let mut by_priority: BTreeMap<i32, u64> = BTreeMap::new();
        for s in &st.slots {
            if matches!(s.phase, Phase::Queued | Phase::Parked) {
                *by_priority.entry(s.job.priority).or_insert(0) += 1;
            }
        }
        let queued = by_priority.values().sum();
        let running =
            st.slots.iter().filter(|s| matches!(s.phase, Phase::Ready | Phase::Pausing)).count()
                as u64;
        SupervisorStats {
            queued,
            running,
            queued_by_priority: by_priority.into_iter().collect(),
            ..st.stats.clone()
        }
    }

    /// Supervisor gauges as a [`MetricsDoc`] (Prometheus and JSON
    /// renderings come for free).
    pub fn metrics(&self) -> MetricsDoc {
        let s = self.stats();
        let mut doc = MetricsDoc::new();
        doc.counter("fm_jobs_submitted_total", "Jobs submitted to the supervisor", s.submitted);
        doc.counter("fm_jobs_rejected_total", "Jobs shed by admission control", s.rejected);
        doc.counter(
            "fm_jobs_preempted_total",
            "Preemptions of running jobs by higher-priority arrivals",
            s.preempted,
        );
        doc.counter(
            "fm_jobs_completed_total",
            "Jobs resolved with a final mining result",
            s.completed,
        );
        doc.counter("fm_jobs_drained_total", "Jobs drained to checkpoints at shutdown", s.drained);
        doc.gauge("fm_jobs_queued", "Admitted jobs waiting for a run slot", s.queued as f64);
        doc.gauge("fm_jobs_running", "Jobs currently holding a run slot", s.running as f64);
        let keys: Vec<String> = s.queued_by_priority.iter().map(|(p, _)| p.to_string()).collect();
        let labels: Vec<[(&str, &str); 1]> = keys.iter().map(|p| [("priority", &p[..])]).collect();
        let rows: Vec<(&[(&str, &str)], f64)> = labels
            .iter()
            .zip(&s.queued_by_priority)
            .map(|(l, (_, n))| (&l[..], *n as f64))
            .collect();
        let help = "Admitted jobs waiting for a run slot, by job priority";
        doc.gauge_vec("fm_jobs_queued_by_priority", help, &rows);
        doc
    }

    /// Requests cancellation of an unresolved job: it stops at its next
    /// poll, inside a task if need be, and resolves `Finished` with
    /// [`RunStatus::Cancelled`](fm_engine::RunStatus::Cancelled) (exact
    /// partial counts). Returns false if no such job is pending.
    pub fn cancel(&self, id: u64) -> bool {
        let token = {
            let st = self.shared.lock();
            st.slots.iter().find(|s| s.job.id == id).map(|s| s.job.core.cancel_token())
        };
        match token {
            Some(token) => {
                token.cancel();
                if let Some(obs) = self.shared.obs.as_deref() {
                    obs.event(id, "cancel-requested", String::new());
                }
                self.shared.work.notify_all();
                true
            }
            None => false,
        }
    }

    /// Graceful drain: stop admitting, pause every job at its next poll
    /// ([`JobCore::pause_now`]: a running task is rolled back, to run
    /// whole after a resume), wait for in-flight stints to yield, then
    /// resolve every remaining job — `Finished` if it actually ran dry,
    /// otherwise `Drained` with a durable checkpoint in `spool` (when
    /// given). The worker pool is joined before this returns; a restarted
    /// process resubmits the returned checkpoints via [`JobSpec::resume`]
    /// and every job picks up bit-for-bit where it left off. Idempotent —
    /// a second call is a no-op returning an empty list.
    pub fn shutdown(&self, spool: Option<&Path>) -> Vec<DrainedJob> {
        {
            let mut st = self.shared.lock();
            st.draining = true;
            for slot in &st.slots {
                slot.job.core.pause_now();
            }
        }
        self.shared.work.notify_all();
        {
            let mut st = self.shared.lock();
            while st.slots.iter().any(|s| s.job.core.active_stints() > 0) {
                st = self.shared.quiet.wait(st).expect("supervisor state lock poisoned");
            }
        }
        self.shared.work.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("supervisor worker list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        let spool_ready = spool.map(|dir| {
            std::fs::create_dir_all(dir).map_err(|e| format!("create spool {}: {e}", dir.display()))
        });
        let obs = self.shared.obs.as_deref();
        let mut drained = Vec::new();
        let mut st = self.shared.lock();
        let slots = std::mem::take(&mut st.slots);
        for slot in slots {
            let job = slot.job;
            // The workers are joined: each job's outcome goes out as it is
            // dropped here.
            if job.core.is_drained() || job.core.stop_status().is_some() {
                finish(&mut st, obs, &job, slot.submitted_us);
                continue;
            }
            if let Some(obs) = obs {
                let (spans, dropped) = job.core.take_spans();
                obs.absorb_spans(spans, dropped);
            }
            let (path, error) = match (&spool_ready, spool) {
                (Some(Ok(())), Some(dir)) => {
                    let path = dir.join(format!("job-{}.ckpt", job.id));
                    match job.core.snapshot().write_atomic(&path) {
                        Ok(()) => (Some(path), None),
                        Err(e) => (None, Some(e.to_string())),
                    }
                }
                (Some(Err(e)), _) => (None, Some(e.clone())),
                _ => (None, None),
            };
            st.stats.drained += 1;
            if let Some(obs) = obs {
                let detail = match &path {
                    Some(p) => format!("checkpoint={}", p.display()),
                    None => String::new(),
                };
                obs.event(job.id, "drained", detail);
            }
            drained.push(DrainedJob { name: job.name.clone(), checkpoint: path.clone(), error });
            job.end(JobOutcome::Drained { checkpoint: path });
        }
        drained
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        let live = !self.workers.lock().map_or(true, |w| w.is_empty());
        if live {
            // Un-spooled drain: pending jobs resolve `Drained { None }`
            // rather than leaving waiters blocked forever.
            let _ = self.shutdown(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    fn handle() -> JobHandle {
        JobHandle { id: 7, name: "j".into(), cell: Arc::new(OutcomeCell::default()) }
    }

    #[test]
    fn wait_timeout_is_none_before_and_wakes_every_waiter_on_resolve() {
        let h = handle();
        assert!(!h.is_resolved());
        assert!(h.wait_timeout(Duration::ZERO).is_none());
        assert!(h.wait_timeout(Duration::from_millis(5)).is_none(), "a timeout is not an outcome");

        // Far longer than the test may take: a waiter that comes back only
        // at its timeout was not woken.
        let patience = Duration::from_secs(60);
        let started = Barrier::new(4);
        let waited: Vec<(Option<JobOutcome>, Duration)> = std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let (h, started) = (h.clone(), &started);
                    scope.spawn(move || {
                        started.wait();
                        let t0 = Instant::now();
                        (h.wait_timeout(patience), t0.elapsed())
                    })
                })
                .collect();
            started.wait();
            h.cell.resolve(JobOutcome::Rejected { reason: "from another thread".into() });
            waiters.into_iter().map(|w| w.join().expect("waiter panicked")).collect()
        });
        for (outcome, took) in waited {
            assert!(
                matches!(outcome, Some(JobOutcome::Rejected { .. })),
                "every clone sees the one outcome, got {outcome:?}"
            );
            assert!(took < patience / 2, "woken by the timeout, not the resolve: {took:?}");
        }
        assert!(h.is_resolved());
        assert!(h.wait_timeout(Duration::ZERO).is_some(), "already resolved: no wait at all");
    }
}
