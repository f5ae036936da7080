//! Acceptance tests for the job-control layer: cancellation, deadlines,
//! budgets, and panic isolation, end to end through the `Miner` facade.
//!
//! The fault-injection harness (`fm_engine::failpoint`) is available here
//! because the root package's dev-dependencies enable the `failpoints`
//! feature; release builds never compile it.

use flexminer::{Backend, Budget, CancelToken, Miner, Pattern, RunStatus};
use fm_engine::executor::prepare_graph;
use fm_engine::failpoint::{self, Trigger};
use fm_engine::{mine, mine_with_cancel, EngineConfig, Executor};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use std::time::Duration;

/// Sequential reference: counts over every start vertex except `skip`.
fn counts_without(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig, skip: u32) -> Vec<u64> {
    let prepared = prepare_graph(g, plan);
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
        let prepared = prepare_graph(&g, &plan);
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
    if outcome.is_complete() {
        assert!(outcome.completed_start_vertices().is_empty());
    } else {
        assert_eq!(outcome.status(), RunStatus::Cancelled);
        let prepared = prepare_graph(&g, &plan);
        let cfg = EngineConfig::default();
        let mut ex = Executor::new(&prepared, &plan, &cfg);
        for &v in outcome.completed_start_vertices() {
            ex.run_vertex(VertexId(v));
        }
        assert_eq!(outcome.counts(), ex.finish().counts);
    }
}

/// A set-operation budget stops the run with `BudgetExhausted` and the
/// same exactness guarantee, via the `Miner` budget builder.
#[test]
fn setop_budget_stops_with_exact_partial_counts() {
    let g = generators::powerlaw_cluster(400, 5, 0.5, 12);
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let outcome = Miner::new(&g)
        .pattern(Pattern::cycle(4))
        .threads(4)
        .budget(Budget::with_max_setop_iterations(200))
        .run()
        .unwrap();
    assert_eq!(outcome.status(), RunStatus::BudgetExhausted);
    let prepared = prepare_graph(&g, &plan);
    let cfg = EngineConfig::default();
    let mut ex = Executor::new(&prepared, &plan, &cfg);
    for &v in outcome.completed_start_vertices() {
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

/// Accelerator runs ignore software job control structurally: attaching a
/// budget is a structured error, not silent truncation.
#[test]
fn accelerator_backend_rejects_budgets() {
    let g = generators::complete(5);
    let err = Miner::new(&g)
        .pattern(Pattern::triangle())
        .backend(Backend::accelerator())
        .budget(Budget::with_max_setop_iterations(5))
        .run()
        .unwrap_err();
    assert_eq!(err, flexminer::MineError::ControlUnsupported);
}

/// `mine_with_cancel` with a pre-cancelled token does no work at all.
#[test]
fn pre_cancelled_job_returns_immediately_with_zero_counts() {
    let g = generators::powerlaw_cluster(500, 5, 0.5, 14);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let token = CancelToken::new();
    token.cancel();
    for threads in [1, 4] {
        let cfg = EngineConfig { threads, ..Default::default() };
        let r = mine_with_cancel(&g, &plan, &cfg, Some(&token));
        assert_eq!(r.status, RunStatus::Cancelled);
        assert_eq!(r.counts, vec![0]);
        assert!(r.completed.is_empty());
        assert_eq!(r.work.extensions, 0);
    }
}
