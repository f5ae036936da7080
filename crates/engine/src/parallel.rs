//! Multithreaded mining driver.
//!
//! GPM's parallelism is embarrassing: "the searches starting from different
//! vertices of G are mutually independent tasks and can be done
//! concurrently" (§I). Exactly like the FlexMiner scheduler handing start
//! vertices to idle PEs, this driver hands chunks of start vertices to
//! worker threads through an atomic cursor — dynamic load balancing with no
//! synchronization on shared data (the graph is read-only).
//!
//! Robustness model: each start-vertex task runs inside its own panic
//! boundary ([`Executor::run_vertex_isolated`]) and every worker polls the
//! job's [`Monitor`] (cancellation, deadline, budget) once per task.
//! Whatever happens — a poisoned task, a deadline, an explicit cancel —
//! workers drain cleanly through the scoped join, and the merged
//! [`MiningResult`] reports exact counts for the start vertices actually
//! finished, tagged with the appropriate [`RunStatus`].

use crate::checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointError, CheckpointSink, CompletedSet,
};
use crate::control::{CancelToken, Monitor, StopKind};
use crate::executor::{payload_string, prepare, Executor, PreparedGraph};
use crate::result::{detect_stragglers, Fault, MiningResult, RunStatus, WorkCounters};
use crate::stream::TaskCursor;
use crate::telemetry::TelemetryOptions;
use crate::EngineConfig;
use fm_graph::{CsrGraph, VertexId};
use fm_plan::ExecutionPlan;
use fm_telemetry::Span;
use std::path::Path;
use std::time::Instant;

/// Mines `plan` over `graph` with the configured number of worker threads,
/// returning aggregated counts and work counters.
///
/// Graph preparation (k-clique orientation) happens once, up front.
///
/// # Examples
///
/// ```
/// use fm_engine::{mine, EngineConfig};
/// use fm_graph::generators;
/// use fm_pattern::Pattern;
/// use fm_plan::{compile, CompileOptions};
///
/// let g = generators::complete(10);
/// let plan = compile(&Pattern::k_clique(5), CompileOptions::default());
/// let result = mine(&g, &plan, &EngineConfig::with_threads(4));
/// assert_eq!(result.counts, vec![252]); // C(10,5)
/// ```
pub fn mine(graph: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig) -> MiningResult {
    mine_with_cancel(graph, plan, cfg, None)
}

/// Like [`mine`], with an optional [`CancelToken`] observed at
/// start-vertex granularity: any clone of the token stops the job at the
/// next task boundary and the result reports
/// [`RunStatus::Cancelled`](crate::RunStatus::Cancelled) with exact counts
/// for the start vertices already finished.
pub fn mine_with_cancel(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    cancel: Option<&CancelToken>,
) -> MiningResult {
    let prepared = prepare(graph, plan, cfg);
    mine_prepared_with_cancel(&prepared, plan, cfg, cancel)
}

/// Like [`mine`], but over a graph already prepared with
/// [`prepare`](crate::executor::prepare). Benchmarks use this to exclude
/// the one-time preprocessing (orientation and hub-index construction)
/// from timed regions (the paper: "the preprocessing time is usually less
/// than 1% of the execution time, and once converted, the graph can be
/// used for any k-CL").
pub fn mine_prepared(
    g: &PreparedGraph<'_>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> MiningResult {
    mine_prepared_with_cancel(g, plan, cfg, None)
}

/// The full-control driver: prepared graph, engine budget from `cfg`, and
/// an optional cancellation token. All other entry points funnel here.
/// Workers share the prepared graph's hub index by `Arc` handle — it is
/// never rebuilt per thread.
pub fn mine_prepared_with_cancel(
    g: &PreparedGraph<'_>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    cancel: Option<&CancelToken>,
) -> MiningResult {
    run_with_control(g, plan, cfg, cancel, None, None, None, &TelemetryOptions::default())
}

/// [`mine_prepared`] with telemetry collection: depth/tier metrics, spans,
/// and/or live progress per `telemetry`. With the default (disabled)
/// options this is exactly [`mine_prepared`] — the overhead-ablation bench
/// compares the two on the same prepared graph.
pub fn mine_prepared_observed(
    g: &PreparedGraph<'_>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    telemetry: &TelemetryOptions,
) -> MiningResult {
    run_with_control(g, plan, cfg, None, None, None, None, telemetry)
}

/// Durable-recovery options for [`mine_with_recovery`]: periodic
/// checkpointing, a snapshot to resume from, or both (a resumed run keeps
/// checkpointing, so a job can be interrupted any number of times).
#[derive(Default)]
pub struct Recovery {
    /// Write periodic [`Checkpoint`] snapshots per this cadence.
    pub checkpoint: Option<CheckpointConfig>,
    /// Continue from a previously written snapshot: its completed start
    /// vertices are skipped and their contribution seeded from the
    /// snapshot, so the final counts are bit-identical to an uninterrupted
    /// run. The snapshot must validate against the same graph, plan, and
    /// count-relevant config (see [`Checkpoint::validate`]). Previously
    /// quarantined vertices are *re-attempted* — a process restart is the
    /// classic cure for environmental faults — with their fault history
    /// carried forward.
    pub resume: Option<Checkpoint>,
}

/// [`mine`] with durable recovery: periodic checkpoint snapshots written
/// at start-vertex granularity and/or resumption from an earlier snapshot.
///
/// # Errors
///
/// [`CheckpointError`] if the resume snapshot does not match this job's
/// graph, plan, or count-relevant config — a structured refusal, never a
/// silently wrong count. Periodic *write* failures do not error the run:
/// mining continues, checkpointing stops, and the failure is reported in
/// [`MiningResult::checkpoint_error`].
pub fn mine_with_recovery(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    cancel: Option<&CancelToken>,
    recovery: Recovery,
) -> Result<MiningResult, CheckpointError> {
    mine_observed(graph, plan, cfg, cancel, recovery, &TelemetryOptions::default())
}

/// The fully-general entry point: [`mine_with_recovery`] plus telemetry.
/// All observability — depth/tier metrics, Chrome-trace spans (including
/// `prepare` and `checkpoint-write`), and live progress — is selected by
/// `telemetry`; the default options make this identical to
/// [`mine_with_recovery`], which is itself identical to [`mine`] with
/// default [`Recovery`]. Telemetry never changes counts or
/// [`WorkCounters`]; it only adds the [`MiningResult::telemetry`] shard.
///
/// # Errors
///
/// Same contract as [`mine_with_recovery`]: only resume validation and
/// snapshot loading error the run.
pub fn mine_observed(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    cancel: Option<&CancelToken>,
    recovery: Recovery,
    telemetry: &TelemetryOptions,
) -> Result<MiningResult, CheckpointError> {
    if let Some(snapshot) = &recovery.resume {
        snapshot.validate(graph, plan, cfg)?;
    }
    let prepare_start = telemetry.trace.map(|c| c.now_us());
    let prepared = prepare(graph, plan, cfg);
    let prepare_span = telemetry.trace.map(|clock| {
        let start = prepare_start.unwrap_or(0);
        Span::close(&clock, "prepare", "engine", start, 0, None)
    });
    let (seed, skip) = match recovery.resume {
        Some(snapshot) => {
            let seed = MiningResult {
                counts: snapshot.counts.clone(),
                work: snapshot.work,
                completed: snapshot.completed.to_vids(),
                // The snapshot's fault history (which already includes the
                // final attempt of every quarantined vertex) carries
                // forward; its quarantine list is dropped because those
                // vertices are about to be re-attempted.
                faults: snapshot.faults.clone(),
                ..MiningResult::empty(plan.patterns.len())
            };
            let skip = snapshot.completed.clone();
            let sink_seed = Checkpoint { quarantined: Vec::new(), ..snapshot };
            (Some((seed, sink_seed)), Some(skip))
        }
        None => (None, None),
    };
    let (seed, sink_seed) = match seed {
        Some((seed, sink_seed)) => (Some(seed), sink_seed),
        None => (None, Checkpoint::empty(graph, plan, cfg, plan.patterns.len())),
    };
    let sink =
        recovery.checkpoint.map(|ckpt| CheckpointSink::new(ckpt, sink_seed, telemetry.trace));
    let mut result = run_with_control(
        &prepared,
        plan,
        cfg,
        cancel,
        skip.as_ref(),
        sink.as_ref(),
        seed,
        telemetry,
    );
    if let Some(span) = prepare_span {
        result.telemetry.get_or_insert_with(Default::default).absorb_spans(vec![span], 0);
    }
    Ok(result)
}

/// Loads the checkpoint at `path`, validates it against this job, and
/// continues mining from it; `checkpoint` optionally keeps writing fresh
/// snapshots (typically to the same path), so interrupted runs chain.
///
/// # Errors
///
/// [`CheckpointError`] if the file cannot be read or parsed
/// ([`CheckpointError::Io`] / [`BadFormat`](CheckpointError::BadFormat))
/// or records a different graph/plan/config.
pub fn mine_resumed(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    cancel: Option<&CancelToken>,
    path: &Path,
    checkpoint: Option<CheckpointConfig>,
) -> Result<MiningResult, CheckpointError> {
    let snapshot = Checkpoint::load(path)?;
    mine_with_recovery(graph, plan, cfg, cancel, Recovery { checkpoint, resume: Some(snapshot) })
}

/// The shared driver under every entry point: schedules the pending start
/// vertices over the configured workers, polling control state and
/// (optionally) publishing per-task progress to a checkpoint sink.
///
/// `skip` lists the start vertices already covered by `seed` (a resumed
/// snapshot's contribution, merged into the final result).
///
/// Telemetry plumbing: each worker gets its own [`Collector`]
/// (worker `w` reports as trace tid `w + 1`; the driver is tid 0), so the
/// hot path never shares telemetry state across threads. Shards ride back
/// through [`MiningResult::merge`]; driver-side spans (`mine`,
/// `checkpoint-write`) are absorbed at the end.
///
/// [`Collector`]: crate::telemetry::Collector
#[allow(clippy::too_many_arguments)]
fn run_with_control(
    g: &PreparedGraph<'_>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    cancel: Option<&CancelToken>,
    skip: Option<&CompletedSet>,
    sink: Option<&CheckpointSink>,
    seed: Option<MiningResult>,
    telemetry: &TelemetryOptions,
) -> MiningResult {
    let n = g.num_vertices() as u32;
    let mine_start = telemetry.trace.map(|c| c.now_us());
    let mut monitor = Monitor::new(cancel, cfg.budget);
    if cfg.straggler_ratio > 0 {
        monitor.enable_timing();
    }
    if let Some(p) = &telemetry.progress {
        let total_tasks = (0..n).filter(|&v| !skip.is_some_and(|s| s.contains(v))).count() as u64;
        monitor.enable_progress(total_tasks, p);
    }
    let mut total = if cfg.threads <= 1 {
        let mut ex = Executor::with_shared(g.graph(), plan, cfg, g.hubs_arc(), g.blocks_arc());
        if let Some(c) = telemetry.collector(1) {
            ex.set_telemetry(c);
        }
        let mut times = monitor.timing_enabled().then(Vec::new);
        let stop = drive(
            &mut ex,
            &monitor,
            (0..n).filter(|&v| !skip.is_some_and(|s| s.contains(v))).map(VertexId),
            sink,
            times.as_mut(),
        );
        if let Some(times) = times {
            monitor.record_times(times);
        }
        finish_worker(ex, stop)
    } else {
        // Pending start vertices in schedule order. Degree-descending: the
        // hub subtrees dominate the critical path on power-law inputs, so
        // scheduling them first keeps them off the tail of the dynamic
        // schedule. Counts and aggregate work counters are
        // order-independent. Ties break by ascending vid (stable sort),
        // keeping the schedule deterministic.
        let mut pending: Vec<u32> =
            (0..n).filter(|&v| !skip.is_some_and(|s| s.contains(v))).collect();
        if cfg.degree_sched {
            pending.sort_by_key(|&v| std::cmp::Reverse(g.degree(VertexId(v))));
        }
        let pending = pending;
        let cursor = TaskCursor::new(pending.len(), cfg.chunk_size);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.threads)
                .map(|w| {
                    let cursor = &cursor;
                    let pending = pending.as_slice();
                    let monitor = &monitor;
                    scope.spawn(move || {
                        let mut ex = Executor::with_shared(
                            g.graph(),
                            plan,
                            cfg,
                            g.hubs_arc(),
                            g.blocks_arc(),
                        );
                        if let Some(c) = telemetry.collector(w as u32 + 1) {
                            ex.set_telemetry(c);
                        }
                        let mut times = monitor.timing_enabled().then(Vec::new);
                        let mut stop = None;
                        while stop.is_none() {
                            let Some(range) = cursor.claim() else { break };
                            let vids = pending[range].iter().map(|&v| VertexId(v));
                            stop = drive(&mut ex, monitor, vids, sink, times.as_mut());
                        }
                        if let Some(times) = times {
                            monitor.record_times(times);
                        }
                        finish_worker(ex, stop)
                    })
                })
                .collect();
            let mut total = MiningResult::empty(plan.patterns.len());
            for h in handles {
                match h.join() {
                    Ok(r) => total.merge(&r),
                    // Per-task panics are already isolated inside the
                    // worker; a panic escaping the worker loop itself (e.g.
                    // from an instrumented scheduling path) degrades the
                    // job instead of aborting it. No start vertex is
                    // attributable, so the fault is recorded against the
                    // sentinel vid u32::MAX — and quarantined, since
                    // nothing retried it.
                    Err(payload) => {
                        total.status = total.status.max(RunStatus::Degraded);
                        let fault =
                            Fault { vid: u32::MAX, attempt: 0, payload: payload_string(&*payload) };
                        total.faults.push(fault.clone());
                        total.quarantined.push(fault);
                    }
                }
            }
            total
        })
    };
    if let Some(seed) = seed {
        total.merge(&seed);
    }
    let mut times = monitor.take_times();
    total.stragglers = detect_stragglers(&mut times, cfg.straggler_ratio, cfg.straggler_min_task);
    if let Some(sink) = sink {
        let (err, failures) = sink.finish();
        total.checkpoint_failures += failures;
        if let Some(err) = err {
            total.checkpoint_error.get_or_insert(err);
        }
    }
    if let Some(clock) = telemetry.trace {
        let mut driver_spans = Vec::new();
        if let Some(sink) = sink {
            driver_spans.extend(sink.take_spans());
        }
        let start = mine_start.unwrap_or(0);
        driver_spans.push(Span::close(&clock, "mine", "engine", start, 0, None));
        total.telemetry.get_or_insert_with(Default::default).absorb_spans(driver_spans, 0);
    }
    let mut total = finalize(total);
    monitor.finish_progress(total.stragglers.len() as u64, total.status.as_str());
    // Progress reports skipped on emitter contention ride back on the
    // telemetry shard; runs without progress (dropped == 0) attach nothing,
    // keeping telemetry-off results bit-identical.
    let dropped = monitor.progress_dropped();
    if dropped > 0 {
        total.telemetry.get_or_insert_with(Default::default).progress_dropped += dropped;
    }
    let heartbeat_errors = monitor.heartbeat_errors();
    if heartbeat_errors > 0 {
        total.telemetry.get_or_insert_with(Default::default).heartbeat_errors += heartbeat_errors;
    }
    total
}

/// Runs `vids` through `ex` with per-task isolation and control polling,
/// optionally timing each task and publishing its delta to the checkpoint
/// sink. Returns the stop condition that ended the batch early, if any.
///
/// Timing reads the clock once per task boundary: inside a batch the end
/// of one task is the start of the next, so a task's time includes the
/// bookkeeping between it and its predecessor.
fn drive(
    ex: &mut Executor<'_>,
    monitor: &Monitor<'_>,
    vids: impl Iterator<Item = VertexId>,
    sink: Option<&CheckpointSink>,
    mut times: Option<&mut Vec<(u32, u64)>>,
) -> Option<StopKind> {
    let mut published = ex.setop_iterations_so_far();
    let telemetry_times = ex.telemetry_times_tasks();
    let telemetry_clock = ex.telemetry_clock();
    let mut boundary = (times.is_some() || telemetry_times).then(Instant::now);
    for v in vids {
        if let Some(kind) = monitor.should_stop() {
            return Some(kind);
        }
        let span_start = telemetry_clock.as_ref().map(|c| c.now_us());
        let snapshot = sink.map(|_| TaskSnapshot::of(ex));
        let ok = ex.run_vertex_isolated(v);
        if let Some(started) = boundary {
            let now = Instant::now();
            let elapsed = now - started;
            boundary = Some(now);
            if let Some(times) = times.as_mut() {
                times.push((v.0, elapsed.as_nanos() as u64));
            }
            if telemetry_times {
                ex.telemetry_task_finished(v.0, span_start, elapsed);
            }
        }
        if let (Some(sink), Some(snapshot)) = (sink, snapshot) {
            snapshot.publish(sink, ex, v.0, ok);
        }
        let spent = ex.setop_iterations_so_far();
        monitor.spend(spent - published);
        published = spent;
        monitor.task_finished(ok);
    }
    None
}

/// Pre-task counters, for publishing one task's delta to the checkpoint
/// sink. The counts vector is tiny (one slot per pattern), so cloning it
/// per task is cheap next to the subtree walk it brackets.
struct TaskSnapshot {
    counts: Vec<u64>,
    work: WorkCounters,
    faults: usize,
    quarantined: usize,
}

impl TaskSnapshot {
    fn of(ex: &Executor<'_>) -> TaskSnapshot {
        TaskSnapshot {
            counts: ex.counts_so_far().to_vec(),
            work: ex.work_so_far(),
            faults: ex.faults_so_far().len(),
            quarantined: ex.quarantined_so_far().len(),
        }
    }

    fn publish(self, sink: &CheckpointSink, ex: &Executor<'_>, vid: u32, completed: bool) {
        let counts_delta: Vec<u64> = ex
            .counts_so_far()
            .iter()
            .zip(&self.counts)
            .map(|(after, before)| after - before)
            .collect();
        let work_delta = ex.work_so_far() - self.work;
        let new_faults = &ex.faults_so_far()[self.faults..];
        let quarantined = ex.quarantined_so_far()[self.quarantined..].first();
        sink.publish_task(vid, completed, &counts_delta, work_delta, new_faults, quarantined);
    }
}

/// Converts one worker's executor into its partial result, applying the
/// stop reason (if any) over the fault-derived status.
fn finish_worker(ex: Executor<'_>, stop: Option<StopKind>) -> MiningResult {
    let mut result = ex.finish();
    if let Some(kind) = stop {
        result.status = result.status.max(kind.into());
    }
    result
}

/// Canonicalizes a merged result: a fault-free complete run drops the
/// (redundant, possibly large) completed list; partial runs sort it so the
/// report is deterministic regardless of worker interleaving.
fn finalize(mut total: MiningResult) -> MiningResult {
    if total.status == RunStatus::Complete {
        total.completed = Vec::new();
    } else {
        total.completed.sort_unstable();
        total.faults.sort_unstable_by_key(|a| (a.vid, a.attempt));
        total.quarantined.sort_unstable_by_key(|a| (a.vid, a.attempt));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Budget;
    use crate::executor::{mine_single_threaded, prepare_graph};
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, compile_multi, CompileOptions};

    #[test]
    fn parallel_counts_match_sequential() {
        let g = generators::powerlaw_cluster(200, 4, 0.5, 13);
        for pattern in [Pattern::triangle(), Pattern::cycle(4), Pattern::k_clique(4)] {
            let plan = compile(&pattern, CompileOptions::default());
            let seq = mine_single_threaded(&g, &plan, &EngineConfig::default());
            for threads in [2, 4, 7] {
                let par = mine(&g, &plan, &EngineConfig::with_threads(threads));
                assert_eq!(par.counts, seq.counts, "{pattern} with {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_work_counters_aggregate() {
        let g = generators::erdos_renyi(100, 0.15, 4);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let seq = mine_single_threaded(&g, &plan, &EngineConfig::default());
        let par = mine(&g, &plan, &EngineConfig::with_threads(3));
        // Work is partition-independent for fixed plans.
        assert_eq!(par.work.extensions, seq.work.extensions);
        assert_eq!(par.work.setop_iterations, seq.work.setop_iterations);
    }

    #[test]
    fn degree_scheduling_preserves_counts_and_work() {
        let g = generators::powerlaw_cluster(180, 4, 0.5, 3);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let on = mine(&g, &plan, &EngineConfig { threads: 4, ..Default::default() });
        let off = mine(
            &g,
            &plan,
            &EngineConfig { threads: 4, degree_sched: false, ..Default::default() },
        );
        assert_eq!(on.counts, off.counts);
        assert_eq!(on.work.setop_iterations, off.work.setop_iterations);
        assert_eq!(on.work.extensions, off.work.extensions);
    }

    #[test]
    fn tiny_chunks_are_correct() {
        let g = generators::erdos_renyi(60, 0.2, 8);
        let plan = compile_multi(
            &[Pattern::diamond(), Pattern::tailed_triangle()],
            CompileOptions::default(),
        );
        let seq = mine_single_threaded(&g, &plan, &EngineConfig::default());
        let par =
            mine(&g, &plan, &EngineConfig { threads: 5, chunk_size: 1, ..Default::default() });
        assert_eq!(par.counts, seq.counts);
    }

    #[test]
    fn more_threads_than_vertices_is_fine() {
        let g = generators::complete(4);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let par = mine(&g, &plan, &EngineConfig::with_threads(16));
        assert_eq!(par.counts, vec![4]);
    }

    #[test]
    fn complete_runs_are_tagged_complete_with_empty_completed_list() {
        let g = generators::erdos_renyi(50, 0.2, 1);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        for threads in [1, 4] {
            let r = mine(&g, &plan, &EngineConfig::with_threads(threads));
            assert_eq!(r.status, RunStatus::Complete);
            assert!(r.completed.is_empty());
            assert!(r.faults.is_empty());
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_work() {
        let g = generators::erdos_renyi(80, 0.2, 3);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let r = mine_with_cancel(&g, &plan, &EngineConfig::with_threads(threads), Some(&token));
            assert_eq!(r.status, RunStatus::Cancelled);
            assert_eq!(r.counts, vec![0]);
            assert!(r.completed.is_empty());
            assert_eq!(r.work.extensions, 0);
        }
    }

    #[test]
    fn zero_deadline_yields_deadline_exceeded_and_no_wrong_total() {
        let g = generators::powerlaw_cluster(120, 4, 0.5, 5);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        for threads in [1, 4, 7] {
            let cfg = EngineConfig {
                threads,
                budget: Budget::with_timeout(std::time::Duration::ZERO),
                ..Default::default()
            };
            let r = mine(&g, &plan, &cfg);
            assert_eq!(r.status, RunStatus::DeadlineExceeded, "{threads} threads");
            // A zero deadline fires before the first task on every worker.
            assert_eq!(r.counts, vec![0]);
            assert!(r.completed.is_empty());
        }
    }

    #[test]
    fn budget_yields_exact_partial_counts_over_completed_vids() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 17);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let full = mine(&g, &plan, &EngineConfig::default());
        for threads in [1, 4] {
            let cfg = EngineConfig {
                threads,
                budget: Budget::with_max_setop_iterations(full.work.setop_iterations / 3),
                ..Default::default()
            };
            let r = mine(&g, &plan, &cfg);
            assert_eq!(r.status, RunStatus::BudgetExhausted, "{threads} threads");
            assert!(r.completed.len() < g.num_vertices());
            // Exactness: a sequential run restricted to the reported
            // completed set reproduces the partial counts bit-for-bit.
            let prepared = prepare_graph(&g, &plan);
            let mut ex = Executor::new(&prepared, &plan, &EngineConfig::default());
            for &v in &r.completed {
                ex.run_vertex(VertexId(v));
            }
            assert_eq!(r.counts, ex.finish().counts, "{threads} threads");
        }
    }

    #[test]
    fn observed_run_is_bit_identical_and_carries_depth_shard() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 11);
        let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
        let telemetry = TelemetryOptions { metrics: true, ..Default::default() };
        for threads in [1, 4] {
            let cfg = EngineConfig::with_threads(threads);
            let prepared = prepare(&g, &plan, &cfg);
            let plain = mine_prepared(&prepared, &plan, &cfg);
            let observed = mine_prepared_observed(&prepared, &plan, &cfg, &telemetry);
            // Telemetry must not perturb results: counts AND work counters
            // are bit-identical, the only difference is the shard.
            assert_eq!(observed.counts, plain.counts, "{threads} threads");
            assert_eq!(observed.work, plain.work, "{threads} threads");
            assert!(plain.telemetry.is_none());
            let shard = observed.telemetry.as_deref().expect("metrics shard");
            // Every set-op iteration is charged to exactly one depth.
            let charged: u64 = shard.depth_setop_iterations.iter().sum();
            assert_eq!(charged, observed.work.setop_iterations, "{threads} threads");
            let invocations: u64 = shard.depth_setop_invocations.iter().sum();
            assert_eq!(invocations, observed.work.setop_invocations, "{threads} threads");
            assert!(shard.task_micros.count > 0);
        }
    }

    #[test]
    fn traced_run_emits_engine_spans() {
        let g = generators::erdos_renyi(60, 0.2, 5);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let telemetry = TelemetryOptions {
            trace: Some(fm_telemetry::TraceClock::start()),
            ..Default::default()
        };
        let r = mine_observed(
            &g,
            &plan,
            &EngineConfig::with_threads(2),
            None,
            Recovery::default(),
            &telemetry,
        )
        .unwrap();
        let shard = r.telemetry.as_deref().expect("trace shard");
        let names: Vec<&str> = shard.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"prepare"), "{names:?}");
        assert!(names.contains(&"mine"), "{names:?}");
        assert!(names.contains(&"start-vertex-task"), "{names:?}");
        // Driver spans carry tid 0; worker task spans tids >= 1.
        assert!(shard.spans.iter().any(|s| s.name == "start-vertex-task" && s.tid >= 1));
        // Tracing alone leaves metrics empty.
        assert!(shard.depth_setop_iterations.is_empty());
    }

    #[test]
    fn cancel_mid_run_drains_cleanly() {
        // A token cancelled by a worker-side failpoint-free mechanism: the
        // test cancels from the outside after the first completions by
        // budget-free polling; stopping is best-effort but the invariant
        // (counts == completed set's counts) must hold at any cut point.
        let g = generators::powerlaw_cluster(200, 4, 0.5, 29);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let token = CancelToken::new();
        token.cancel();
        let r = mine_with_cancel(&g, &plan, &EngineConfig::with_threads(4), Some(&token));
        assert_eq!(r.status, RunStatus::Cancelled);
        let prepared = prepare_graph(&g, &plan);
        let mut ex = Executor::new(&prepared, &plan, &EngineConfig::default());
        for &v in &r.completed {
            ex.run_vertex(VertexId(v));
        }
        assert_eq!(r.counts, ex.finish().counts);
    }
}
