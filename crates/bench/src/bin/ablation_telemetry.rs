//! Telemetry overhead ablation (`BENCH_telemetry`).
//!
//! Runs every workload twice on the Mi stand-in: once with telemetry off
//! (the default, bit-identical fast path) and once with full collection on
//! (depth/tier metrics, histograms, and span tracing — everything the CLI
//! enables for `--metrics-out --trace-out`). Counts and `WorkCounters` are
//! asserted bit-identical; the wall-clock ratios and their geomean are a
//! report, not a gate (a min-of-three ratio on a shared host moves by more
//! than the few percent a gate would hold it to).
//!
//! A second pass (`<workload>+serve` rows) runs the same workloads through
//! the preemptible [`JobCore`] stint driver — untraced versus serve-style
//! stint/task span tracing (`set_trace`, as `serve --trace-out` enables) —
//! and reports those ratios in the same geomean.

use fm_bench::datasets::{dataset, DatasetKey};
use fm_bench::harness::{fmt_secs, fmt_x, geomean, BenchArgs, Table};
use fm_bench::workloads::{workload, WorkloadKey};
use fm_engine::{
    mine_prepared, mine_prepared_observed, prepare, EngineConfig, JobCore, MiningResult,
    PreparedGraph, TelemetryOptions,
};
use fm_telemetry::TraceClock;
use std::sync::Arc;
use std::time::Instant;

/// Start-vertex tasks per stint in the serve-style pass: small enough to
/// cross the stint boundary (where the tracing branch lives) many times.
const STINT_TASKS: u64 = 256;

/// Min-of-3 timing, like `time_engine_with`, parameterized over the run.
fn time_min3(run: &mut dyn FnMut() -> MiningResult) -> (f64, MiningResult) {
    let start = Instant::now();
    let result = run();
    let mut best = start.elapsed().as_secs_f64();
    for _ in 0..2 {
        let start = Instant::now();
        let again = run();
        assert_eq!(again.counts, result.counts, "nondeterministic repeat");
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, result)
}

fn observed(
    prepared: &PreparedGraph<'_>,
    plan: &fm_plan::ExecutionPlan,
    cfg: &EngineConfig,
) -> MiningResult {
    let telemetry =
        TelemetryOptions { metrics: true, trace: Some(TraceClock::start()), ..Default::default() };
    mine_prepared_observed(prepared, plan, cfg, &telemetry)
}

/// Drives a fresh `JobCore` to completion through the stint loop, the way
/// a serve worker would, and returns its result.
fn run_job(core: &JobCore) -> MiningResult {
    while !core.is_drained() {
        core.run_stint(STINT_TASKS);
    }
    core.result()
}

fn main() {
    let args = BenchArgs::parse();
    let d = dataset(DatasetKey::Mi, args.quick);
    let cfg = EngineConfig { threads: args.threads, ..EngineConfig::default() };

    let mut table = Table::new(
        "BENCH_telemetry",
        "full telemetry collection overhead vs the zero-cost-off default (counts and work bit-identical)",
        &["workload", "t-off", "t-on", "overhead", "depth-levels", "spans"],
    );
    let mut ratios = Vec::new();
    for key in WorkloadKey::all() {
        let w = workload(key);
        let plan = w.plan();
        let prepared = prepare(&d.graph, &plan, &cfg);
        let (t_off, base) = time_min3(&mut || mine_prepared(&prepared, &plan, &cfg));
        let (t_on, traced) = time_min3(&mut || observed(&prepared, &plan, &cfg));
        assert_eq!(base.counts, traced.counts, "{}: telemetry changed counts", w.key.label());
        assert_eq!(base.work, traced.work, "{}: telemetry changed work counters", w.key.label());
        let shard = traced.telemetry.as_deref().expect("observed run returns a shard");
        assert_eq!(
            shard.depth_setop_iterations.iter().sum::<u64>(),
            traced.work.setop_iterations,
            "{}: depth series must partition the aggregate counter",
            w.key.label()
        );
        ratios.push(t_on / t_off.max(1e-12));
        table.push(vec![
            w.key.label().to_string(),
            fmt_secs(t_off),
            fmt_secs(t_on),
            fmt_x(t_on / t_off.max(1e-12)),
            shard.depth_setop_iterations.len().to_string(),
            shard.spans.len().to_string(),
        ]);

        // Serve-style pass: the same workload through the JobCore stint
        // driver, untraced vs serve tracing on one shared clock.
        let shared_graph = Arc::new(d.graph.clone());
        let shared_plan = Arc::new(plan.clone());
        let (t_job_off, job_base) = time_min3(&mut || {
            run_job(&JobCore::new(Arc::clone(&shared_graph), Arc::clone(&shared_plan), cfg))
        });
        let mut serve_spans = 0usize;
        let (t_job_on, job_traced) = time_min3(&mut || {
            let mut core = JobCore::new(Arc::clone(&shared_graph), Arc::clone(&shared_plan), cfg);
            core.set_trace(TraceClock::start(), true);
            let result = run_job(&core);
            let (spans, dropped) = core.take_spans();
            assert_eq!(dropped, 0, "{}: serve trace ring overflowed", w.key.label());
            serve_spans = spans.len();
            result
        });
        assert_eq!(
            job_base.counts,
            job_traced.counts,
            "{}: serve tracing changed counts",
            w.key.label()
        );
        assert_eq!(
            job_base.work,
            job_traced.work,
            "{}: serve tracing changed work counters",
            w.key.label()
        );
        assert_eq!(
            base.counts,
            job_base.counts,
            "{}: stint driver disagrees with the thread-pool driver",
            w.key.label()
        );
        ratios.push(t_job_on / t_job_off.max(1e-12));
        table.push(vec![
            format!("{}+serve", w.key.label()),
            fmt_secs(t_job_off),
            fmt_secs(t_job_on),
            fmt_x(t_job_on / t_job_off.max(1e-12)),
            "-".to_string(),
            serve_spans.to_string(),
        ]);
    }
    let overall = geomean(&ratios);
    table.note(format!("geomean overhead {} (a report, no gate)", fmt_x(overall)));
    table.note(format!("dataset {} ({} vertices)", d.key.label(), d.graph.num_vertices()));
    table.emit(&args.out).expect("write BENCH_telemetry");
}
