//! The `mine*` entry points: one [`JobCore`] driven to the end by a
//! scoped thread pool.
//!
//! GPM's parallelism is embarrassing: "the searches starting from different
//! vertices of G are mutually independent tasks and can be done
//! concurrently" (§I). Exactly like the FlexMiner scheduler handing start
//! vertices to idle PEs, the workers here claim chunks of start vertices
//! through the core's atomic cursor — dynamic load balancing with no
//! synchronization on shared data (the graph is read-only). The task loop
//! itself — claiming, per-task panic isolation, stop conditions, delta
//! publication, timing — is [`JobCore::run_stint_as`]; this module only
//! builds a core over the caller's prepared graph, hangs the requested
//! observers on it, runs one unbounded stint per worker, and assembles
//! the report. Whatever happens — a poisoned task, a deadline, an
//! explicit cancel — workers drain cleanly through the scoped join, and
//! the [`MiningResult`] reports exact counts for the start vertices
//! actually finished, tagged with the appropriate [`RunStatus`](crate::RunStatus).

use crate::checkpoint::{Checkpoint, CheckpointConfig, CheckpointError, CheckpointSink};
use crate::control::{CancelToken, Progress};
use crate::executor::{payload_string, prepare, Held, PreparedGraph};
use crate::result::MiningResult;
use crate::stream::{JobCore, Observer};
use crate::telemetry::TelemetryOptions;
use crate::EngineConfig;
use fm_graph::CsrGraph;
use fm_plan::ExecutionPlan;
use fm_telemetry::{Span, DEFAULT_SPAN_CAPACITY};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Mines `plan` over `graph` with the configured number of worker threads,
/// returning aggregated counts and work counters.
///
/// Graph preparation (k-clique orientation, index construction) happens
/// once, up front.
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
    mine_prepared(&prepare(graph, plan, cfg), plan, cfg)
}

/// Like [`mine`], but over a graph already prepared with
/// [`prepare`]. Benchmarks use this to exclude
/// the one-time preprocessing (orientation and index construction)
/// from timed regions (the paper: "the preprocessing time is usually less
/// than 1% of the execution time, and once converted, the graph can be
/// used for any k-CL").
pub fn mine_prepared(
    g: &PreparedGraph<'_>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> MiningResult {
    mine_prepared_observed(g, plan, cfg, &TelemetryOptions::default())
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
    let snap = Checkpoint::unkeyed(g.num_vertices(), plan.patterns.len());
    let core = JobCore::over(g.reborrow(), Held::Ref(plan), *cfg, snap);
    run(core, None, None, telemetry, None)
}

/// Everything optional about a [`mine_with`] run. The default is a plain
/// [`mine`].
#[derive(Clone, Debug, Default)]
pub struct MineOptions {
    /// Polled like [`Budget::deadline`](crate::Budget::deadline): any clone
    /// of the token stops the job, inside a task if need be, and the result
    /// reports [`RunStatus::Cancelled`](crate::RunStatus::Cancelled) with
    /// exact counts for the start vertices already finished.
    pub cancel: Option<CancelToken>,
    /// Write periodic [`Checkpoint`] snapshots per this cadence, at
    /// start-vertex granularity, and a final one on exit. A resumed run
    /// that keeps checkpointing can be interrupted any number of times.
    pub checkpoint: Option<CheckpointConfig>,
    /// Continue from a previously written snapshot (typically
    /// [`Checkpoint::load`]ed): see [`Checkpoint::resumable`].
    pub resume: Option<Checkpoint>,
    /// Depth/tier metrics, Chrome-trace spans (including `prepare` and
    /// `checkpoint-write`) and live progress. Telemetry never changes
    /// counts or [`WorkCounters`](crate::WorkCounters); it only adds the
    /// [`MiningResult::telemetry`] shard.
    pub telemetry: TelemetryOptions,
}

/// The fully-general entry point: [`mine`] plus cancellation, durable
/// recovery and telemetry, each selected by `opts` and identical to
/// [`mine`] when left at its default.
///
/// # Errors
///
/// [`CheckpointError`] if the resume snapshot does not match this job's
/// graph, plan, or count-relevant config — a structured refusal, never a
/// silently wrong count. Periodic *write* failures do not error the run:
/// mining continues, checkpointing stops, and the failure is reported in
/// [`MiningResult::checkpoint_error`].
pub fn mine_with(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    opts: MineOptions,
) -> Result<MiningResult, CheckpointError> {
    let MineOptions { cancel, checkpoint, resume, telemetry } = opts;
    let snap = match resume {
        Some(snapshot) => snapshot.resumable(graph, plan, cfg)?,
        None if checkpoint.is_some() => Checkpoint::empty(graph, plan, cfg, plan.patterns.len()),
        None => Checkpoint::unkeyed(graph.num_vertices(), plan.patterns.len()),
    };
    let prepare_start = telemetry.trace.map(|c| c.now_us());
    let prepared = prepare(graph, plan, cfg);
    let prepare_span = telemetry
        .trace
        .zip(prepare_start)
        .map(|(clock, start)| Span::close(&clock, "prepare", "engine", start, 0, None));
    let core = JobCore::over(prepared, Held::Ref(plan), *cfg, snap);
    Ok(run(core, cancel, checkpoint, &telemetry, prepare_span))
}

/// Hangs the requested observers on `core`, runs it to the end on
/// `cfg.threads` workers and assembles the report.
///
/// Worker `w` runs as trace lane `w + 1` (the driver is lane 0) and keeps
/// its own telemetry collector, so the hot path never shares telemetry
/// state across threads; driver-side spans (`prepare`, `mine`,
/// `checkpoint-write`) are absorbed at the end.
fn run(
    mut core: JobCore<'_>,
    cancel: Option<CancelToken>,
    checkpoint: Option<CheckpointConfig>,
    telemetry: &TelemetryOptions,
    prepare_span: Option<Span>,
) -> MiningResult {
    let cfg = *core.config();
    let mine_start = telemetry.trace.map(|c| c.now_us());
    if let Some(token) = cancel {
        core.cancel = token;
    }
    core.task_times = Some(Mutex::default());
    if telemetry.metrics || telemetry.trace.is_some() {
        let observer =
            Observer::new(telemetry.metrics, telemetry.trace, true, DEFAULT_SPAN_CAPACITY);
        core.observer = Some(observer);
    }
    core.progress =
        telemetry.progress.as_ref().map(|p| Progress::new(core.remaining_tasks() as u64, p));
    core.sink = checkpoint.map(|c| CheckpointSink::new(c, telemetry.trace));
    // With no limit and nobody pausing, a stint ends only when the queue
    // is drained or a stop condition fired: one per worker is the run.
    if cfg.threads <= 1 {
        core.run_stint_as(u64::MAX, 1);
    } else {
        std::thread::scope(|scope| {
            let core = &core;
            let handles: Vec<_> = (0..cfg.threads)
                .map(|w| scope.spawn(move || core.run_stint_as(u64::MAX, w as u32 + 1)))
                .collect();
            for h in handles {
                // Per-task panics are already isolated inside the stint; a
                // panic escaping the loop itself (e.g. from an
                // instrumented scheduling path) degrades the job instead
                // of aborting it.
                if let Err(payload) = h.join() {
                    core.record_escaped(payload_string(&*payload));
                }
            }
        });
    }
    let mut total = core.result();
    if let Some(times) = core.task_times.take() {
        total.stragglers = times.into_inner().expect("task-time lock poisoned").stragglers();
    }
    (total.checkpoint_error, total.checkpoint_failures) = core.finish_sink();
    if let Some(mut shard) = core.take_telemetry() {
        if let Some(clock) = telemetry.trace {
            let mut driver_spans: Vec<Span> = prepare_span.into_iter().collect();
            driver_spans.extend(core.sink.iter().flat_map(CheckpointSink::take_spans));
            let start = mine_start.unwrap_or(0);
            driver_spans.push(Span::close(&clock, "mine", "engine", start, 0, None));
            shard.absorb_spans(driver_spans, 0);
        }
        total.telemetry = Some(Box::new(shard));
    }
    if let Some(p) = &core.progress {
        let iters = core.spent_iters.load(Ordering::Relaxed);
        p.emit(iters, Some(total.stragglers.len() as u64), Some(total.status.as_str()));
        // Reports skipped on emitter contention and heartbeat failures
        // ride back on the telemetry shard; runs that lost none attach
        // nothing, keeping telemetry-off results bit-identical.
        if p.dropped() > 0 || p.heartbeat_errors() > 0 {
            let shard = total.telemetry.get_or_insert_with(Default::default);
            shard.progress_dropped += p.dropped();
            shard.heartbeat_errors += p.heartbeat_errors();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, compile_multi, CompileOptions};

    // Thread counts, stint sizes, pause/resume and every stop condition
    // against one reference: `every_driver_agrees_with_the_reference` in
    // tests/job_control.rs. What stays here is what only the pool does.

    #[test]
    fn degree_scheduling_preserves_counts_and_work() {
        let g = generators::powerlaw_cluster(180, 4, 0.5, 3);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        // Four lanes take the start vertices hubs first; one lane keeps
        // the ascending order.
        let by_degree = mine(&g, &plan, &EngineConfig::with_threads(4));
        let ascending = mine(&g, &plan, &EngineConfig::with_threads(1));
        assert_eq!(by_degree.counts, ascending.counts);
        assert_eq!(by_degree.work.setop_iterations, ascending.work.setop_iterations);
        assert_eq!(by_degree.work.extensions, ascending.work.extensions);
    }

    #[test]
    fn tiny_chunks_are_correct() {
        let g = generators::erdos_renyi(60, 0.2, 8);
        let plan = compile_multi(
            &[Pattern::diamond(), Pattern::tailed_triangle()],
            CompileOptions::default(),
        );
        let seq = mine(&g, &plan, &EngineConfig::default());
        let par = mine(&g, &plan, &EngineConfig::with_threads(5));
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
        let opts = MineOptions { telemetry, ..Default::default() };
        let r = mine_with(&g, &plan, &EngineConfig::with_threads(2), opts).unwrap();
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
}
