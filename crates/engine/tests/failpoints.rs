//! Fault-injection suite: every degradation path of the job-control layer
//! is exercised by deterministically firing panics at named executor
//! sites. Compiled only with `--features failpoints` (see CI's dedicated
//! job); the default test run skips this binary entirely.
#![cfg(feature = "failpoints")]

use fm_engine::failpoint::{self, Trigger};
use fm_engine::{
    mine, prepare, Budget, EngineConfig, Executor, JobCore, MiningResult, RunStatus, Stint,
};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use std::sync::Arc;

/// Sequential reference counts over every start vertex except `skip`.
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

fn assert_degraded_exactly(r: &MiningResult, poisoned: u32, expected_counts: &[u64]) {
    assert_eq!(r.status, RunStatus::Degraded);
    assert_eq!(r.faults.len(), 1, "faults: {:?}", r.faults);
    assert_eq!(r.faults[0].vid, poisoned);
    // With the default `max_retries = 0`, one failed attempt goes straight
    // to quarantine — and `Degraded` means exactly "quarantine non-empty".
    assert_eq!(r.quarantined.len(), 1);
    assert_eq!(r.quarantined[0].vid, poisoned);
    assert_eq!(r.counts, expected_counts);
    assert!(!r.completed.contains(&poisoned));
}

#[test]
fn poisoned_start_vertex_degrades_with_exact_remaining_counts() {
    let g = generators::powerlaw_cluster(150, 4, 0.5, 7);
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let poisoned = 3u32;
    for threads in [1, 4, 7] {
        let fp = failpoint::guard(
            "start_vertex",
            Trigger::OnContext(poisoned as u64),
            "injected task fault",
        );
        let cfg = EngineConfig { threads, failpoint_scope: fp.scope(), ..Default::default() };
        let r = mine(&g, &plan, &cfg);
        assert_degraded_exactly(&r, poisoned, &counts_without(&g, &plan, &cfg, poisoned));
        assert!(r.faults[0].payload.contains("injected task fault"));
        // Everything except the poisoned root completed.
        assert_eq!(r.completed.len(), g.num_vertices() - 1);
    }
}

#[test]
fn mid_subtree_faults_roll_back_partial_counts() {
    let g = generators::powerlaw_cluster(120, 4, 0.5, 11);
    // Sites deeper in the DFS fire after the task has already counted
    // some matches; isolation must roll those partial counts back — in a
    // plan that enumerates every level (house) and in one whose sites sit
    // around a pair join's sweep (4-cycle).
    for pattern in [Pattern::house(), Pattern::cycle(4)] {
        for site in ["frontier_alloc", "csr_read"] {
            let plan = compile(&pattern, CompileOptions::default());
            let poisoned = 5u32;
            let fp = failpoint::guard(site, Trigger::OnContext(poisoned as u64), "mid-subtree");
            let cfg =
                EngineConfig { threads: 4, failpoint_scope: fp.scope(), ..Default::default() };
            let r = mine(&g, &plan, &cfg);
            assert_degraded_exactly(&r, poisoned, &counts_without(&g, &plan, &cfg, poisoned));
        }
    }
}

#[test]
fn nth_hit_trigger_poisons_exactly_one_task_per_run() {
    let g = generators::erdos_renyi(60, 0.15, 3);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let fp = failpoint::guard("start_vertex", Trigger::OnNthHit(10), "nth fault");
    let cfg = EngineConfig { threads: 1, failpoint_scope: fp.scope(), ..Default::default() };
    let r = mine(&g, &plan, &cfg);
    assert_eq!(r.status, RunStatus::Degraded);
    assert_eq!(r.faults.len(), 1);
    // Single-threaded ascending schedule: the 10th task is vid 9.
    assert_eq!(r.faults[0].vid, 9);
    assert_eq!(r.counts, counts_without(&g, &plan, &cfg, 9));
}

/// A job core under `max_retries` runs a faulted task again in place: a
/// transient fault heals with counts and work bit-identical to an
/// unfaulted run, and a persistent one spends every attempt and
/// quarantines the last. Counts and work words were recorded before the
/// retry moved into the engine (the supervisor's backoff rounds).
#[test]
fn job_core_reattempts_quarantine_and_heals_bit_identically() {
    const COUNTS: [u64; 1] = [2418];
    const WORK: [u64; 8] = [6548, 0, 3643, 590, 2568, 0, 0, 0];
    let g = Arc::new(generators::powerlaw_cluster(150, 4, 0.5, 29));
    let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
    let reference = mine(&g, &plan, &EngineConfig::default());
    assert_eq!((reference.counts.as_slice(), reference.work.words()), (&COUNTS[..], WORK));
    let drain = |core: &JobCore| loop {
        match core.run_stint(9) {
            Stint::Ran { drained: true, .. } => break core.result(),
            Stint::Ran { .. } => continue,
            other => panic!("unexpected stint outcome {other:?}"),
        }
    };
    let roster = |faults: &[fm_engine::Fault]| -> Vec<(u32, u32)> {
        faults.iter().map(|f| (f.vid, f.attempt)).collect()
    };
    // One lane runs ascending, so the fourth task is vertex 3; its retry
    // is the fifth hit, which does not fire.
    let fp = failpoint::guard("start_vertex", Trigger::OnNthHit(4), "injected transient fault");
    let cfg = EngineConfig {
        threads: 1,
        max_retries: 1,
        failpoint_scope: fp.scope(),
        ..Default::default()
    };
    let healed = drain(&JobCore::new(Arc::clone(&g), Arc::clone(&plan), cfg));
    assert_eq!(healed.status, RunStatus::Complete);
    assert_eq!(healed.counts, COUNTS);
    assert_eq!(healed.work.words(), WORK);
    // The failed attempt stays on the fault history.
    assert_eq!(roster(&healed.faults), [(3, 0)]);
    assert!(healed.quarantined.is_empty());
    drop(fp);

    let fp = failpoint::guard("start_vertex", Trigger::OnContext(3), "injected persistent fault");
    let cfg = EngineConfig { max_retries: 2, failpoint_scope: fp.scope(), ..Default::default() };
    let spent = drain(&JobCore::new(Arc::clone(&g), Arc::clone(&plan), cfg));
    assert_eq!(spent.status, RunStatus::Degraded);
    assert_eq!(roster(&spent.faults), [(3, 0), (3, 1), (3, 2)]);
    assert_eq!(roster(&spent.quarantined), [(3, 2)]);
    assert_eq!(spent.counts, counts_without(&g, &plan, &cfg, 3));
}

/// A task that faults on its first attempt and is stopped inside its
/// second is rolled back whole, the first attempt's fault with it: the
/// resume runs the task again from attempt 0, and the roster holds one
/// record per attempt that faulted, not the cut's fault beside the
/// resume's own.
#[test]
fn a_task_stopped_after_a_faulted_attempt_keeps_no_fault_of_it() {
    let g = Arc::new(generators::complete(20));
    // No symmetry: vertex 0, the first task of one lane, is thousands of
    // dispatches long, so the budget stops it inside.
    let options = CompileOptions { symmetry: false, ..Default::default() };
    let plan = Arc::new(compile(&Pattern::k_clique(5), options));
    let reference = mine(&g, &plan, &EngineConfig::default());
    let roster = |faults: &[fm_engine::Fault]| -> Vec<(u32, u32)> {
        faults.iter().map(|f| (f.vid, f.attempt)).collect()
    };
    let first_attempt = || failpoint::guard("start_vertex", Trigger::OnNthHit(1), "first attempt");
    let fp = first_attempt();
    let cfg = EngineConfig {
        threads: 1,
        max_retries: 1,
        budget: Budget::with_max_setop_iterations(1),
        failpoint_scope: fp.scope(),
        ..Default::default()
    };
    let core = JobCore::new(Arc::clone(&g), Arc::clone(&plan), cfg);
    assert_eq!(core.run_stint(u64::MAX), Stint::Stopped(RunStatus::BudgetExhausted));
    let cut = core.result();
    assert_eq!((cut.counts, cut.completed), (vec![0], vec![]));
    assert_eq!(roster(&cut.faults), []);
    let fp = first_attempt();
    let cfg = EngineConfig { budget: Budget::unlimited(), failpoint_scope: fp.scope(), ..cfg };
    let resumed = JobCore::resume(g, plan, cfg, core.snapshot()).expect("same job");
    assert_eq!(resumed.run_stint(u64::MAX), Stint::Ran { tasks: 20, drained: true });
    let r = resumed.result();
    assert_eq!((r.status, r.counts), (RunStatus::Complete, reference.counts));
    assert_eq!(r.work, reference.work);
    assert_eq!(roster(&r.faults), [(0, 0)]);
}

#[test]
fn every_start_vertex_faulting_still_terminates() {
    let g = generators::erdos_renyi(40, 0.2, 5);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let fp = failpoint::guard("start_vertex", Trigger::Always, "total loss");
    let cfg = EngineConfig { threads: 4, failpoint_scope: fp.scope(), ..Default::default() };
    let r = mine(&g, &plan, &cfg);
    assert_eq!(r.status, RunStatus::Degraded);
    assert_eq!(r.faults.len(), g.num_vertices());
    assert_eq!(r.quarantined.len(), g.num_vertices());
    assert_eq!(r.counts, vec![0]);
    assert!(r.completed.is_empty());
    // Fault report is deterministic: sorted by vid.
    assert!(r.faults.windows(2).all(|w| w[0].vid < w[1].vid));
}
