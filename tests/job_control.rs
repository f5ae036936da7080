//! Acceptance tests for the job-control layer: cancellation, deadlines,
//! budgets, and panic isolation, end to end through the `Miner` facade.
//!
//! The fault-injection harness (`fm_engine::failpoint`) is available here
//! because the root package's dev-dependencies enable the `failpoints`
//! feature; release builds never compile it.

use flexminer::{Budget, CancelToken, Miner, Pattern, RunStatus};
use fm_engine::failpoint::{self, Trigger};
use fm_engine::{
    mine, mine_with, prepare, Checkpoint, CheckpointConfig, EngineConfig, Executor, JobCore,
    MineOptions, MiningResult, Stint,
};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sequential reference: counts over every start vertex except `skip`.
fn counts_without(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig, skip: u32) -> Vec<u64> {
    let prepared = prepare(g, plan, cfg);
    let mut ex = Executor::new(&prepared, plan, cfg);
    for v in 0..prepared.num_vertices() as u32 {
        if v != skip {
            ex.run_vertex(VertexId(v));
        }
    }
    ex.finish().counts
}

/// ISSUE acceptance: a panic injected into one start-vertex task yields
/// `Degraded` with that vid in `faults`, all other counts intact, and no
/// hung or leaked worker threads (the test returning at all proves the
/// join-and-drain path works).
#[test]
fn injected_panic_degrades_without_losing_other_counts() {
    let g = generators::powerlaw_cluster(200, 4, 0.5, 9);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let poisoned = 7u32;
    for threads in [1, 4, 7] {
        let fp = failpoint::guard("start_vertex", Trigger::OnContext(poisoned as u64), "injected");
        let cfg = EngineConfig { threads, failpoint_scope: fp.scope(), ..Default::default() };
        let r = mine(&g, &plan, &cfg);
        assert_eq!(r.status, RunStatus::Degraded, "threads={threads}");
        assert_eq!(r.faults.len(), 1);
        assert_eq!(r.faults[0].vid, poisoned);
        assert!(r.faults[0].payload.contains("injected"));
        assert_eq!(r.counts, counts_without(&g, &plan, &cfg, poisoned), "threads={threads}");
        assert_eq!(r.completed.len(), g.num_vertices() - 1);
        assert!(!r.completed.contains(&poisoned));
    }
}

/// ISSUE acceptance: a deadline of zero yields `DeadlineExceeded` with
/// zero-or-partial counts and never a wrong total.
#[test]
fn zero_deadline_never_reports_a_wrong_total() {
    let g = generators::powerlaw_cluster(300, 4, 0.5, 10);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let full = mine(&g, &plan, &EngineConfig::default());
    for threads in [1, 4, 7] {
        let cfg = EngineConfig {
            threads,
            budget: Budget::with_timeout(Duration::ZERO),
            ..Default::default()
        };
        let r = mine(&g, &plan, &cfg);
        assert_eq!(r.status, RunStatus::DeadlineExceeded, "threads={threads}");
        assert!(r.counts[0] <= full.counts[0]);
        // Exactness: the partial count is reproduced by a sequential run
        // restricted to the recorded completed start vertices.
        let prepared = prepare(&g, &plan, &cfg);
        let mut ex = Executor::new(&prepared, &plan, &cfg);
        for &v in &r.completed {
            ex.run_vertex(VertexId(v));
        }
        assert_eq!(r.counts, ex.finish().counts, "threads={threads}");
    }
}

/// Cancelling from another thread mid-run drains cleanly with exact
/// partial counts, through the full `Miner` facade.
#[test]
fn cancel_from_another_thread_yields_exact_partial_counts() {
    let g = generators::powerlaw_cluster(2_000, 6, 0.5, 11);
    let token = CancelToken::new();
    let handle = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(2));
        handle.cancel();
    });
    let outcome = Miner::new(&g)
        .pattern(Pattern::k_clique(4))
        .threads(4)
        .cancel_token(token)
        .run()
        .expect("cancelled runs still return Ok with a status");
    canceller.join().unwrap();
    // The race decides how far the run got; either way the counts must be
    // exactly reproducible from the completed start-vertex set.
    let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
    if outcome.result.status.is_complete() {
        assert!(outcome.result.completed.is_empty());
    } else {
        assert_eq!(outcome.result.status, RunStatus::Cancelled);
        let cfg = EngineConfig::default();
        let prepared = prepare(&g, &plan, &cfg);
        let mut ex = Executor::new(&prepared, &plan, &cfg);
        for &v in &outcome.result.completed {
            ex.run_vertex(VertexId(v));
        }
        assert_eq!(outcome.counts(), ex.finish().counts);
    }
}

/// A set-operation budget stops the run with `BudgetExhausted` and the
/// same exactness guarantee, via the budget of the `Miner`'s configuration.
#[test]
fn setop_budget_stops_with_exact_partial_counts() {
    let g = generators::powerlaw_cluster(400, 5, 0.5, 12);
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let budget = Budget::with_max_setop_iterations(200);
    let outcome = Miner::new(&g)
        .pattern(Pattern::cycle(4))
        .config(EngineConfig { budget, ..EngineConfig::default() })
        .threads(4)
        .run()
        .unwrap();
    assert_eq!(outcome.result.status, RunStatus::BudgetExhausted);
    let cfg = EngineConfig::default();
    let prepared = prepare(&g, &plan, &cfg);
    let mut ex = Executor::new(&prepared, &plan, &cfg);
    for &v in &outcome.result.completed {
        ex.run_vertex(VertexId(v));
    }
    assert_eq!(outcome.counts(), ex.finish().counts);
}

/// Degraded and deadline statuses compose: a fault plus an expired
/// deadline reports the stop reason (higher severity) while still listing
/// the fault.
#[test]
fn fault_and_deadline_compose_by_severity() {
    let g = generators::powerlaw_cluster(150, 4, 0.5, 13);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    // Deadline zero stops before any task: no fault fires, severity is the
    // deadline's.
    let fp = failpoint::guard("start_vertex", Trigger::OnContext(0), "late fault");
    let cfg = EngineConfig {
        threads: 1,
        budget: Budget::with_timeout(Duration::ZERO),
        failpoint_scope: fp.scope(),
        ..Default::default()
    };
    let r = mine(&g, &plan, &cfg);
    assert_eq!(r.status, RunStatus::DeadlineExceeded);
    assert!(r.faults.is_empty());
}

/// `mine_with` with a pre-cancelled token does no work at all.
#[test]
fn pre_cancelled_job_returns_immediately_with_zero_counts() {
    let g = generators::powerlaw_cluster(500, 5, 0.5, 14);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let token = CancelToken::new();
    token.cancel();
    for threads in [1, 4] {
        let cfg = EngineConfig { threads, ..Default::default() };
        let opts = MineOptions { cancel: Some(token.clone()), ..Default::default() };
        let r = mine_with(&g, &plan, &cfg, opts).unwrap();
        assert_eq!(r.status, RunStatus::Cancelled);
        assert_eq!(r.counts, vec![0]);
        assert!(r.completed.is_empty());
        assert_eq!(r.work.extensions, 0);
    }
}

/// One stop condition, to be applied to the run a driver measures.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    Completion,
    /// An iteration budget of a third of the work the run has left.
    BudgetThird,
    PreCancelled,
    ZeroDeadline,
}

impl Scenario {
    /// The config the measured run executes under, given how many set-op
    /// iterations the job has left when it starts.
    fn cfg(self, threads: usize, iters_left: u64) -> EngineConfig {
        let budget = match self {
            Scenario::BudgetThird => Budget::with_max_setop_iterations(iters_left / 3),
            Scenario::ZeroDeadline => Budget::with_timeout(Duration::ZERO),
            Scenario::Completion | Scenario::PreCancelled => Budget::unlimited(),
        };
        EngineConfig { threads, budget, ..Default::default() }
    }

    fn cancel(self) -> Option<CancelToken> {
        matches!(self, Scenario::PreCancelled).then(|| {
            let token = CancelToken::new();
            token.cancel();
            token
        })
    }

    /// Applies the scenario's cancellation to a core about to run.
    fn arm(self, core: JobCore<'static>) -> JobCore<'static> {
        if self.cancel().is_some() {
            core.cancel_token().cancel();
        }
        core
    }

    fn status(self) -> RunStatus {
        match self {
            Scenario::Completion => RunStatus::Complete,
            Scenario::BudgetThird => RunStatus::BudgetExhausted,
            Scenario::PreCancelled => RunStatus::Cancelled,
            Scenario::ZeroDeadline => RunStatus::DeadlineExceeded,
        }
    }
}

/// The fixed inputs of the driver table and the uninterrupted reference.
struct Case {
    g: Arc<CsrGraph>,
    plan: Arc<ExecutionPlan>,
    reference: MiningResult,
}

impl Case {
    fn core(&self, cfg: EngineConfig, scenario: Scenario) -> JobCore<'static> {
        scenario.arm(JobCore::new(Arc::clone(&self.g), Arc::clone(&self.plan), cfg))
    }

    /// Stints on this thread until the job has published a third of its
    /// tasks: the uninterrupted first leg of the resume drivers.
    fn first_leg(&self) -> JobCore<'static> {
        let core = self.core(EngineConfig::default(), Scenario::Completion);
        while core.completed_tasks() < self.g.num_vertices() / 3 {
            assert!(matches!(core.run_stint(7), Stint::Ran { drained: false, .. }));
        }
        core
    }

    fn iters_left(&self, done: &Checkpoint) -> u64 {
        self.reference.work.setop_iterations - done.work.setop_iterations
    }
}

/// Stints of `size` from `threads` workers until the job stops yielding
/// work; once a stop has fired, every further stint must report it.
fn drain_by_stints(core: &JobCore<'_>, size: u64, threads: usize) {
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(
                || while matches!(core.run_stint(size), Stint::Ran { drained: false, .. }) {},
            );
        }
    });
    if let Some(status) = core.stop_status() {
        assert_eq!(core.run_stint(size), Stint::Stopped(status), "stop must be terminal");
    }
}

type Driver = Box<dyn Fn(&Case, Scenario) -> MiningResult>;

fn drivers() -> Vec<(String, Driver)> {
    let mut table: Vec<(String, Driver)> = Vec::new();
    for threads in [1usize, 4] {
        table.push((
            format!("pool, {threads} threads"),
            Box::new(move |case, scenario| {
                let cfg = scenario.cfg(threads, case.reference.work.setop_iterations);
                let opts = MineOptions { cancel: scenario.cancel(), ..Default::default() };
                mine_with(&case.g, &case.plan, &cfg, opts).unwrap()
            }),
        ));
    }
    for size in [1u64, 7, 64] {
        for threads in [1usize, 3] {
            table.push((
                format!("stints of {size}, {threads} threads"),
                Box::new(move |case, scenario| {
                    let cfg = scenario.cfg(threads, case.reference.work.setop_iterations);
                    let core = case.core(cfg, scenario);
                    drain_by_stints(&core, size, threads);
                    core.result()
                }),
            ));
        }
    }
    table.push((
        "pause + resume_paused mid-run".into(),
        Box::new(|case, scenario| {
            let n = case.g.num_vertices();
            let cfg = scenario.cfg(1, case.reference.work.setop_iterations);
            let core = case.core(cfg, scenario);
            while core.completed_tasks() < n / 3 && core.stop_status().is_none() {
                core.run_stint(7);
            }
            core.pause();
            // A stop outranks a pause; otherwise the stint yields at once,
            // and nothing claimed is stranded.
            match core.stop_status() {
                Some(status) => assert_eq!(core.run_stint(7), Stint::Stopped(status)),
                None => assert_eq!(core.run_stint(7), Stint::Paused { tasks: 0 }),
            }
            assert_eq!(core.remaining_tasks() + core.completed_tasks(), n);
            assert!(core.resume_paused());
            drain_by_stints(&core, 16, 1);
            core.result()
        }),
    ));
    table.push((
        "snapshot -> JobCore::resume".into(),
        Box::new(|case, scenario| {
            let snapshot = Checkpoint::decode(&case.first_leg().snapshot().encode()).unwrap();
            let cfg = scenario.cfg(1, case.iters_left(&snapshot));
            let resumed =
                JobCore::resume(Arc::clone(&case.g), Arc::clone(&case.plan), cfg, snapshot);
            let core = scenario.arm(resumed.unwrap());
            drain_by_stints(&core, 16, 1);
            core.result()
        }),
    ));
    table.push((
        "checkpoint file -> resume".into(),
        Box::new(|case, scenario| {
            static N: AtomicUsize = AtomicUsize::new(0);
            let n = N.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("fm-driver-table-{}-{n}.ckpt", std::process::id()));
            let ckpt = CheckpointConfig { path: path.clone(), every_tasks: 1, every_wall: None };
            // First leg: cut by a budget, the final snapshot written on exit.
            let cut_cfg = Scenario::BudgetThird.cfg(4, case.reference.work.setop_iterations);
            let opts = MineOptions { checkpoint: Some(ckpt), ..Default::default() };
            mine_with(&case.g, &case.plan, &cut_cfg, opts).unwrap();
            let snapshot = Checkpoint::load(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            let cfg = scenario.cfg(4, case.iters_left(&snapshot));
            let opts = MineOptions {
                cancel: scenario.cancel(),
                resume: Some(snapshot),
                ..Default::default()
            };
            mine_with(&case.g, &case.plan, &cfg, opts).unwrap()
        }),
    ));
    table
}

/// ISSUE 16: there is one task loop, and every way of driving it — the
/// thread pool, stints of any size from any number of workers, a pause and
/// in-process resume, a serialized snapshot, a checkpoint file — is held
/// to one reference under every stop condition. On completion counts,
/// `WorkCounters` and status equal the uninterrupted run's; stopped early,
/// the status is the stop's and the counts are exactly those of a
/// sequential re-run of the reported completed set.
#[test]
fn every_driver_agrees_with_the_reference() {
    let g = Arc::new(generators::powerlaw_cluster(160, 4, 0.5, 17));
    // An unoriented plan and an oriented one (whose snapshots fingerprint
    // the input graph while mining runs on the DAG).
    for pattern in [Pattern::cycle(4), Pattern::k_clique(4)] {
        let plan = Arc::new(compile(&pattern, CompileOptions::default()));
        let reference = mine(&g, &plan, &EngineConfig::default());
        assert_eq!(reference.status, RunStatus::Complete);
        let case = Case { g: Arc::clone(&g), plan, reference };
        for (name, driver) in drivers() {
            for scenario in [
                Scenario::Completion,
                Scenario::BudgetThird,
                Scenario::PreCancelled,
                Scenario::ZeroDeadline,
            ] {
                let ctx = format!("{pattern}: {name}, {scenario:?}");
                let r = driver(&case, scenario);
                assert_eq!(r.status, scenario.status(), "{ctx}");
                if r.status == RunStatus::Complete {
                    assert_eq!(r.counts, case.reference.counts, "{ctx}");
                    assert_eq!(r.work, case.reference.work, "{ctx}");
                    assert!(r.completed.is_empty(), "{ctx}");
                    continue;
                }
                assert!(r.completed.len() < g.num_vertices(), "{ctx}");
                assert!(r.completed.windows(2).all(|w| w[0] < w[1]), "{ctx}");
                let cfg = EngineConfig::default();
                let prepared = prepare(&g, &case.plan, &cfg);
                let mut ex = Executor::new(&prepared, &case.plan, &cfg);
                for &v in &r.completed {
                    ex.run_vertex(VertexId(v));
                }
                let replay = ex.finish();
                assert_eq!(r.counts, replay.counts, "{ctx}");
                assert_eq!(r.work, replay.work, "{ctx}");
            }
        }
    }
}
