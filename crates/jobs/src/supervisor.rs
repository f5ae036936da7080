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
//!           Queued ◀──────────────┐◀─ Backoff(due) ◀─┐
//!              │ promote           │                  │ degraded,
//!              ▼                   │ resume_paused    │ attempts left
//!           Ready ──preempt──▶ Pausing ──▶ Parked     │
//!              │ stints drain the queue               │
//!              ▼                                      │
//!           settle ───────────────────────────────────┘
//!              │ final
//!              ▼
//!        Finished(result)      — or, at shutdown —      Drained { checkpoint }
//! ```
//!
//! # Invariants
//!
//! - Every submitted job resolves to **exactly one** terminal
//!   [`JobOutcome`]; [`OutcomeCell::resolve`] panics on a second
//!   resolution rather than masking a scheduler bug.
//! - Admission is checked before any expensive work: saturation returns
//!   an explicit [`JobOutcome::Rejected`] with the violated limit in the
//!   reason string — the supervisor never queues unboundedly or OOMs on
//!   graph residency.
//! - Shared graphs (same `graph_key`) are charged against the memory
//!   budget once, matching their `Arc`-shared residency.

use crate::backoff::{fnv_mix, BackoffPolicy};
use crate::observe::{job_lane, JobObserver};
use fm_engine::{Checkpoint, CheckpointError};
use fm_engine::{EngineConfig, JobCore, MiningResult, RunStatus, Stint};
use fm_graph::CsrGraph;
use fm_plan::ExecutionPlan;
use fm_telemetry::MetricsDoc;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and policy knobs for a [`Supervisor`].
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
    /// Admission budget for resident graph memory (CSR estimate, shared
    /// graphs charged once).
    pub memory_budget_bytes: u64,
    /// Start-vertex tasks per stint — the preemption latency unit.
    pub stint_tasks: u64,
    /// Default attempt ceiling for degraded jobs (first run counts as
    /// attempt 1); [`JobSpec::max_attempts`] overrides per job.
    pub max_attempts: u32,
    /// Retry spacing for degraded jobs.
    pub backoff: BackoffPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            workers: 4,
            queue_capacity: 64,
            max_running: 4,
            memory_budget_bytes: 4 << 30,
            stint_tasks: 64,
            max_attempts: 3,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// One mining job submission.
pub struct JobSpec {
    /// Display name, echoed in outcomes and drain manifests.
    pub name: String,
    /// Higher runs first; a strictly higher-priority arrival preempts the
    /// lowest-priority running job when all run slots are taken.
    pub priority: i32,
    /// The data graph; `Arc`-shared submissions with equal `graph_key`
    /// are charged against the memory budget once.
    pub graph: Arc<CsrGraph>,
    /// Identity for memory accounting; 0 means "unique to this job".
    pub graph_key: u64,
    pub plan: Arc<ExecutionPlan>,
    pub config: EngineConfig,
    /// Per-job override of [`SupervisorConfig::max_attempts`].
    pub max_attempts: Option<u32>,
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
        JobSpec {
            name: name.into(),
            priority: 0,
            graph,
            graph_key: 0,
            plan,
            config,
            max_attempts: None,
            resume: None,
        }
    }
}

/// The single terminal outcome of a submitted job.
// `Finished` dwarfs the other variants, but one outcome exists per job
// (not per task) and boxing would tax every consumer of the common case.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job ran to a final [`MiningResult`] (any [`RunStatus`],
    /// including budget stops and cancellation).
    Finished(MiningResult),
    /// Admission control shed the job; `reason` names the violated limit.
    Rejected { reason: String },
    /// Shutdown drained the job mid-run; `checkpoint` is the durable
    /// snapshot when a spool directory was given and the write succeeded.
    Drained { checkpoint: Option<PathBuf> },
}

/// Write-once cell carrying a job's terminal outcome to its handle.
#[derive(Default)]
struct OutcomeCell {
    slot: Mutex<Option<JobOutcome>>,
    done: Condvar,
}

impl OutcomeCell {
    fn resolve(&self, outcome: JobOutcome) {
        let mut slot = self.slot.lock().expect("job outcome lock poisoned");
        assert!(slot.is_none(), "job resolved twice — supervisor state machine bug");
        *slot = Some(outcome);
        self.done.notify_all();
    }

    fn wait(&self) -> JobOutcome {
        let mut slot = self.slot.lock().expect("job outcome lock poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.done.wait(slot).expect("job outcome lock poisoned");
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        let slot = self.slot.lock().expect("job outcome lock poisoned");
        let (slot, _) = self
            .done
            .wait_timeout_while(slot, timeout, |s| s.is_none())
            .expect("job outcome lock poisoned");
        slot.clone()
    }

    fn try_get(&self) -> Option<JobOutcome> {
        self.slot.lock().expect("job outcome lock poisoned").clone()
    }

    fn is_resolved(&self) -> bool {
        self.slot.lock().expect("job outcome lock poisoned").is_some()
    }
}

/// Caller-side handle to a submitted job. Clones wait on the same outcome.
#[derive(Clone)]
pub struct JobHandle {
    id: u64,
    name: String,
    cell: Arc<OutcomeCell>,
}

impl JobHandle {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Block until the job resolves.
    pub fn wait(&self) -> JobOutcome {
        self.cell.wait()
    }

    /// Block until the job resolves or `timeout` passes, whichever is
    /// first: `None` means it is still unresolved. A resolution wakes the
    /// caller at once; the timeout only bounds how long it goes without
    /// looking at anything else (a termination latch, say).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        self.cell.wait_timeout(timeout)
    }

    /// The outcome if the job has already resolved.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.cell.try_get()
    }

    /// Whether the job has resolved — [`JobHandle::try_outcome`] without
    /// the copy of the outcome.
    pub fn is_resolved(&self) -> bool {
        self.cell.is_resolved()
    }
}

/// A job drained to (at most) a checkpoint by [`Supervisor::shutdown`].
#[derive(Clone, Debug)]
pub struct DrainedJob {
    pub id: u64,
    pub name: String,
    pub priority: i32,
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
    pub retries: u64,
    pub completed: u64,
    pub drained: u64,
    /// Admitted jobs waiting for a run slot (queued, parked, or backing
    /// off).
    pub queued: u64,
    /// Jobs holding a run slot (running or winding down a preemption).
    pub running: u64,
    pub memory_bytes: u64,
    pub memory_budget_bytes: u64,
    /// `queued` broken down by job priority, ascending by priority.
    pub queued_by_priority: Vec<(i32, u64)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Admitted and runnable; waiting for a slot.
    Queued,
    /// Holds a run slot; workers may claim stints.
    Ready,
    /// Preempted or draining: pause requested, stints still yielding.
    Pausing,
    /// Paused with no active stints; needs `resume_paused` before Ready.
    Parked,
    /// Degraded; retries at the instant.
    Backoff(Instant),
}

struct Job {
    id: u64,
    name: String,
    priority: i32,
    graph_key: u64,
    max_attempts: u32,
    core: JobCore<'static>,
    cell: Arc<OutcomeCell>,
}

struct Slot {
    job: Arc<Job>,
    phase: Phase,
    /// 1-based; the first run is attempt 1.
    attempts: u32,
    /// Observer clock stamp at admission (observer enabled only).
    submitted_us: Option<u64>,
    /// Set once on the first Queued→Ready hand-off; the queue-wait
    /// histogram and span are recorded then.
    first_ready_us: Option<u64>,
    /// Observer clock stamp when the pending preemption's pause was
    /// requested; consumed when the job parks.
    pause_us: Option<u64>,
}

struct Resident {
    bytes: u64,
    refs: usize,
}

#[derive(Default)]
struct Stats {
    submitted: u64,
    rejected: u64,
    preempted: u64,
    retries: u64,
    completed: u64,
    drained: u64,
}

struct State {
    slots: Vec<Slot>,
    resident: HashMap<u64, Resident>,
    mem_in_use: u64,
    draining: bool,
    next_id: u64,
    stats: Stats,
}

impl Default for State {
    fn default() -> State {
        State {
            slots: Vec::new(),
            resident: HashMap::new(),
            mem_in_use: 0,
            draining: false,
            next_id: 1,
            stats: Stats::default(),
        }
    }
}

struct Shared {
    cfg: SupervisorConfig,
    state: Mutex<State>,
    /// Workers wait here for runnable stints (or backoff deadlines).
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

/// CSR residency estimate matching `JobCore`'s accounting: offsets
/// (`u64`) plus neighbor ids (`u32`), doubled when the plan orients the
/// graph into a DAG copy.
fn estimate_bytes(spec: &JobSpec) -> u64 {
    let g = &spec.graph;
    let base = (g.num_vertices() as u64 + 1) * 8 + g.num_directed_edges() as u64 * 4;
    if spec.plan.orientation {
        base * 2
    } else {
        base
    }
}

fn release_memory(st: &mut State, graph_key: u64) {
    if let Some(r) = st.resident.get_mut(&graph_key) {
        r.refs -= 1;
        if r.refs == 0 {
            st.mem_in_use -= r.bytes;
            st.resident.remove(&graph_key);
        }
    }
}

/// Records the preemption latency (pause request → parked) and the
/// `parked` lifecycle event for a job that just parked.
fn note_parked(slot: &mut Slot, obs: Option<&JobObserver>) {
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

/// Drive the phase machine forward: wake due backoffs, fill free run
/// slots by priority, and preempt (at most one victim per call) when a
/// strictly higher-priority job is waiting behind a full slot table.
fn promote(cfg: &SupervisorConfig, st: &mut State, obs: Option<&JobObserver>) {
    if st.draining {
        return;
    }
    let now = Instant::now();
    for slot in &mut st.slots {
        if matches!(slot.phase, Phase::Backoff(at) if now >= at) {
            slot.phase = Phase::Queued;
        }
        // A victim paused between stints (or whose in-flight stint missed
        // the pause flag) has no worker left to report `Stint::Paused`;
        // park it here or it holds its run slot forever.
        if slot.phase == Phase::Pausing && slot.job.core.active_stints() == 0 {
            slot.phase = Phase::Parked;
            note_parked(slot, obs);
        }
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
                // parks it will re-promote.
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
                st.slots[vidx].job.core.pause();
                st.slots[vidx].phase = Phase::Pausing;
                st.stats.preempted += 1;
                if let Some(obs) = obs {
                    st.slots[vidx].pause_us = Some(obs.clock().now_us());
                    obs.event(
                        st.slots[vidx].job.id,
                        "preempted",
                        format!("by_priority={priority}"),
                    );
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

/// Earliest backoff deadline, for sizing worker waits.
fn next_deadline(st: &State) -> Option<Instant> {
    st.slots
        .iter()
        .filter_map(|s| match s.phase {
            Phase::Backoff(at) => Some(at),
            _ => None,
        })
        .min()
}

/// A job's queue ran dry (or it hit a terminal stop): either schedule a
/// backoff retry of its quarantined tasks or resolve it. Idempotent —
/// only slots still in a running phase settle, so racing stints cannot
/// double-resolve.
fn settle(cfg: &SupervisorConfig, shared: &Shared, st: &mut State, job: &Arc<Job>) {
    let obs = shared.obs.as_deref();
    let Some(pos) = st.slots.iter().position(|s| s.job.id == job.id) else { return };
    if !matches!(st.slots[pos].phase, Phase::Ready | Phase::Pausing) {
        return;
    }
    let attempts = st.slots[pos].attempts;
    let result = job.core.result();
    let retryable =
        result.status == RunStatus::Degraded && attempts < job.max_attempts && !st.draining;
    if retryable {
        // A preemption may have landed just as the queue drained; clear
        // the pause latch so the retry can run.
        if job.core.is_paused() {
            job.core.resume_paused();
        }
        if job.core.reattempt_quarantined() > 0 {
            st.slots[pos].attempts = attempts + 1;
            let delay = cfg.backoff.delay(attempts, fnv_mix(job.id, attempts as u64));
            st.slots[pos].phase = Phase::Backoff(Instant::now() + delay);
            st.stats.retries += 1;
            if let Some(obs) = obs {
                obs.event(
                    job.id,
                    "retry",
                    format!("attempt={} delay_ms={}", attempts + 1, delay.as_millis()),
                );
            }
            return;
        }
    }
    let submitted_us = st.slots[pos].submitted_us;
    st.slots.remove(pos);
    release_memory(st, job.graph_key);
    st.stats.completed += 1;
    if let Some(obs) = obs {
        if let Some(submitted) = submitted_us {
            let now = obs.clock().now_us();
            obs.record_e2e(now.saturating_sub(submitted));
            obs.span("job", submitted, job_lane(job.id), Some(("id", job.id)));
        }
        let (spans, dropped) = job.core.take_spans();
        obs.absorb_spans(spans, dropped);
        obs.event(job.id, "finished", format!("status={:?}", result.status));
    }
    job.cell.resolve(JobOutcome::Finished(result));
    shared.quiet.notify_all();
}

fn worker_loop(shared: Arc<Shared>, lane: u32) {
    let cfg = shared.cfg.clone();
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                promote(&cfg, &mut st, shared.obs.as_deref());
                if let Some(job) = pick(&st) {
                    break job;
                }
                if st.draining && st.slots.iter().all(|s| s.job.core.active_stints() == 0) {
                    shared.quiet.notify_all();
                    return;
                }
                let cap = Duration::from_millis(25);
                let wait = next_deadline(&st)
                    .map(|at| at.saturating_duration_since(Instant::now()))
                    .map_or(cap, |d| d.min(cap));
                let (guard, _) = shared
                    .work
                    .wait_timeout(st, wait.max(Duration::from_millis(1)))
                    .expect("supervisor state lock poisoned");
                st = guard;
            }
        };
        let obs = shared.obs.as_deref();
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
        match stint {
            Stint::Ran { drained: false, .. } => {}
            Stint::Ran { drained: true, .. } | Stint::Stopped(_) => {
                // Sibling stints may still be in flight; the last one out
                // settles (checked under the state lock).
                if job.core.active_stints() == 0 {
                    settle(&cfg, &shared, &mut st, &job);
                }
            }
            Stint::Paused { .. } => {
                if job.core.active_stints() == 0 {
                    if let Some(slot) = st.slots.iter_mut().find(|s| s.job.id == job.id) {
                        if matches!(slot.phase, Phase::Ready | Phase::Pausing) {
                            slot.phase = Phase::Parked;
                            note_parked(slot, shared.obs.as_deref());
                        }
                    }
                    shared.quiet.notify_all();
                }
            }
        }
        promote(&cfg, &mut st, shared.obs.as_deref());
        drop(st);
        shared.work.notify_all();
    }
}

/// Multi-job scheduler: one worker pool, admission control, priority
/// preemption, backoff retry, graceful drain. See the module docs for
/// the lifecycle diagram.
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
        let (id, key, submitted_us) = {
            let mut st = self.shared.lock();
            st.stats.submitted += 1;
            let id = st.next_id;
            st.next_id += 1;
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
            let bytes = estimate_bytes(&spec);
            let key = if spec.graph_key != 0 { spec.graph_key } else { (1 << 63) | id };
            let charge = if st.resident.contains_key(&key) { 0 } else { bytes };
            if st.mem_in_use.saturating_add(charge) > cfg.memory_budget_bytes {
                let reason = format!(
                    "memory budget exhausted: {} B resident + {} B requested > {} B budget",
                    st.mem_in_use, charge, cfg.memory_budget_bytes
                );
                reject(&mut st, id, reason);
                return JobHandle { id, name: spec.name, cell };
            }
            st.resident
                .entry(key)
                .and_modify(|r| r.refs += 1)
                .or_insert(Resident { bytes, refs: 1 });
            st.mem_in_use += charge;
            (id, key, obs.map(|o| o.clock().now_us()))
        };
        let JobSpec { name, priority, graph, plan, config, max_attempts, resume, .. } = spec;
        let built: Result<JobCore<'static>, CheckpointError> = match resume {
            None => Ok(JobCore::new(graph, plan, config)),
            Some(snapshot) => JobCore::resume(graph, plan, config, snapshot),
        };
        let mut st = self.shared.lock();
        match built {
            Err(e) => {
                release_memory(&mut st, key);
                reject(&mut st, id, format!("resume checkpoint rejected: {e}"));
            }
            Ok(mut core) => {
                if st.draining {
                    release_memory(&mut st, key);
                    reject(&mut st, id, "supervisor is draining".to_string());
                } else {
                    if let Some(obs) = obs {
                        // Same clock origin as the serve driver, so engine
                        // stint spans and supervisor lifecycle spans share
                        // one Perfetto timeline.
                        core.set_trace(
                            obs.clock(),
                            fm_telemetry::trace::DEFAULT_SPAN_CAPACITY,
                            obs.task_spans(),
                        );
                        obs.event(id, "queued", String::new());
                    }
                    let job = Arc::new(Job {
                        id,
                        name: name.clone(),
                        priority,
                        graph_key: key,
                        max_attempts: max_attempts.unwrap_or(cfg.max_attempts).max(1),
                        core,
                        cell: Arc::clone(&cell),
                    });
                    st.slots.push(Slot {
                        job,
                        phase: Phase::Queued,
                        attempts: 1,
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

    /// Reserve every id up to and including `max_seen`: the next submitted
    /// job gets an id strictly greater. Called by journal replay before
    /// resubmitting recovered jobs, so fresh handle ids never collide with
    /// ids already recorded in the journal.
    pub fn reserve_ids(&self, max_seen: u64) {
        let mut st = self.shared.lock();
        st.next_id = st.next_id.max(max_seen + 1);
    }

    /// Point-in-time counters and gauges.
    pub fn stats(&self) -> SupervisorStats {
        let st = self.shared.lock();
        let mut by_priority: BTreeMap<i32, u64> = BTreeMap::new();
        for s in &st.slots {
            if matches!(s.phase, Phase::Queued | Phase::Parked | Phase::Backoff(_)) {
                *by_priority.entry(s.job.priority).or_insert(0) += 1;
            }
        }
        let queued = by_priority.values().sum();
        let running =
            st.slots.iter().filter(|s| matches!(s.phase, Phase::Ready | Phase::Pausing)).count()
                as u64;
        SupervisorStats {
            submitted: st.stats.submitted,
            rejected: st.stats.rejected,
            preempted: st.stats.preempted,
            retries: st.stats.retries,
            completed: st.stats.completed,
            drained: st.stats.drained,
            queued,
            running,
            memory_bytes: st.mem_in_use,
            memory_budget_bytes: self.shared.cfg.memory_budget_bytes,
            queued_by_priority: by_priority.into_iter().collect(),
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
        doc.counter("fm_jobs_retries_total", "Backoff retries of degraded jobs", s.retries);
        doc.counter(
            "fm_jobs_completed_total",
            "Jobs resolved with a final mining result",
            s.completed,
        );
        doc.counter("fm_jobs_drained_total", "Jobs drained to checkpoints at shutdown", s.drained);
        doc.gauge("fm_jobs_queued", "Admitted jobs waiting for a run slot", s.queued as f64);
        doc.gauge("fm_jobs_running", "Jobs currently holding a run slot", s.running as f64);
        doc.gauge(
            "fm_jobs_memory_bytes",
            "Graph memory charged against the admission budget",
            s.memory_bytes as f64,
        );
        doc.gauge(
            "fm_jobs_memory_budget_bytes",
            "Admission-control memory budget",
            s.memory_budget_bytes as f64,
        );
        let prio_keys: Vec<String> =
            s.queued_by_priority.iter().map(|(p, _)| p.to_string()).collect();
        let prio_labels: Vec<[(&str, &str); 1]> =
            prio_keys.iter().map(|p| [("priority", p.as_str())]).collect();
        let prio_rows: Vec<(&[(&str, &str)], f64)> = prio_labels
            .iter()
            .zip(s.queued_by_priority.iter())
            .map(|(labels, (_, n))| (&labels[..], *n as f64))
            .collect();
        doc.gauge_vec(
            "fm_jobs_queued_by_priority",
            "Admitted jobs waiting for a run slot, by job priority",
            &prio_rows,
        );
        doc
    }

    /// Requests cancellation of an unresolved job: it stops at its next
    /// stint boundary and resolves `Finished` with
    /// [`RunStatus::Cancelled`] (exact partial counts). Returns false if
    /// no such job is pending.
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

    /// Graceful drain: stop admitting, pause every job at the next stint
    /// boundary, wait for in-flight stints to yield, then resolve every
    /// remaining job — `Finished` if it actually ran dry, otherwise
    /// `Drained` with a durable checkpoint in `spool` (when given). The
    /// worker pool is joined before this returns; a restarted process
    /// resubmits the returned checkpoints via [`JobSpec::resume`] and
    /// every job picks up bit-for-bit where it left off. Idempotent — a
    /// second call is a no-op returning an empty list.
    pub fn shutdown(&self, spool: Option<&Path>) -> Vec<DrainedJob> {
        {
            let mut st = self.shared.lock();
            st.draining = true;
            for slot in &st.slots {
                slot.job.core.pause();
            }
        }
        self.shared.work.notify_all();
        {
            let mut st = self.shared.lock();
            while st.slots.iter().any(|s| s.job.core.active_stints() > 0) {
                let (guard, _) = self
                    .shared
                    .quiet
                    .wait_timeout(st, Duration::from_millis(10))
                    .expect("supervisor state lock poisoned");
                st = guard;
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
            let submitted_us = slot.submitted_us;
            let job = slot.job;
            release_memory(&mut st, job.graph_key);
            if let Some(obs) = obs {
                let (spans, dropped) = job.core.take_spans();
                obs.absorb_spans(spans, dropped);
            }
            if job.core.is_drained() || job.core.stop_status().is_some() {
                st.stats.completed += 1;
                let result = job.core.result();
                if let Some(obs) = obs {
                    if let Some(submitted) = submitted_us {
                        obs.record_e2e(obs.clock().now_us().saturating_sub(submitted));
                        obs.span("job", submitted, job_lane(job.id), Some(("id", job.id)));
                    }
                    obs.event(job.id, "finished", format!("status={:?}", result.status));
                }
                job.cell.resolve(JobOutcome::Finished(result));
                continue;
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
            job.cell.resolve(JobOutcome::Drained { checkpoint: path.clone() });
            drained.push(DrainedJob {
                id: job.id,
                name: job.name.clone(),
                priority: job.priority,
                checkpoint: path,
                error,
            });
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
