//! Fault-injection chaos for the supervisor: transient executor faults
//! are retried in place by the engine (`EngineConfig::max_retries`), and
//! the healed result is bit-identical to an unfaulted run; a persistent
//! fault spends every attempt and quarantines the task. The literal
//! counts, work words and rosters were recorded when the supervisor still
//! re-ran quarantined tasks itself, in backoff-spaced rounds. Compiled
//! only with `--features failpoints`.
#![cfg(feature = "failpoints")]

use fm_engine::failpoint::{self, Trigger};
use fm_engine::{mine, EngineConfig, Fault, MiningResult, RunStatus};
use fm_graph::generators;
use fm_jobs::{JobOutcome, JobSpec, Supervisor, SupervisorConfig};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};
use std::sync::Arc;

fn one_lane() -> Supervisor {
    Supervisor::new(SupervisorConfig {
        workers: 1,
        max_running: 1,
        stint_tasks: 8,
        ..Default::default()
    })
}

fn finished(outcome: JobOutcome) -> MiningResult {
    match outcome {
        JobOutcome::Finished(r) => r,
        other => panic!("expected Finished, got {other:?}"),
    }
}

fn roster(faults: &[Fault]) -> Vec<(u32, u32)> {
    faults.iter().map(|f| (f.vid, f.attempt)).collect()
}

/// A transient fault (fires once, then never again) is retried in place
/// and the job heals to a result bit-identical with a clean run.
#[test]
fn transient_fault_heals_via_supervisor_backoff_retry() {
    let g = Arc::new(generators::powerlaw_cluster(150, 4, 0.5, 29));
    let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
    let cfg = EngineConfig { threads: 1, ..Default::default() };
    let reference = mine(&g, &plan, &cfg);
    assert_eq!(reference.status, RunStatus::Complete);

    let sup = one_lane();
    let fp = failpoint::guard("start_vertex", Trigger::OnNthHit(3), "transient chaos");
    let faulty = EngineConfig { max_retries: 2, failpoint_scope: fp.scope(), ..cfg };
    let r = finished(sup.submit(JobSpec::new("healing", g, plan, faulty)).wait());
    assert_eq!(r.status, RunStatus::Complete, "retry must heal the degradation");
    assert_eq!(r.counts, [2418]);
    assert_eq!(r.work.words(), [6548, 0, 3643, 590, 2568, 0, 0, 0]);
    assert_eq!((r.counts.clone(), r.work), (reference.counts, reference.work));
    // The failed attempt stays on the fault history.
    assert_eq!(roster(&r.faults), [(2, 0)]);
    assert!(r.quarantined.is_empty());
}

/// A persistent fault exhausts the attempt budget: the job resolves
/// `Finished` with `Degraded` status, the poisoned vertex quarantined,
/// and counts identical to an engine run under the same fault.
#[test]
fn persistent_fault_exhausts_attempts_and_resolves_degraded() {
    let g = Arc::new(generators::powerlaw_cluster(150, 4, 0.5, 31));
    let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
    let poisoned = 4u32;
    let fp =
        failpoint::guard("start_vertex", Trigger::OnContext(poisoned as u64), "persistent chaos");
    let cfg = EngineConfig { threads: 1, failpoint_scope: fp.scope(), ..Default::default() };
    let reference = mine(&g, &plan, &cfg);
    assert_eq!(reference.status, RunStatus::Degraded);

    // An attempt budget of K is K - 1 retries; every budget ends the same
    // way but for the length of the fault roster.
    for attempts in 1..=4u32 {
        let sup = one_lane();
        let cfg = EngineConfig { max_retries: attempts - 1, ..cfg };
        let r = finished(
            sup.submit(JobSpec::new("doomed", Arc::clone(&g), Arc::clone(&plan), cfg)).wait(),
        );
        assert_eq!(r.status, RunStatus::Degraded);
        assert_eq!(r.counts, [2203]);
        assert_eq!(r.work.words(), [6312, 0, 3618, 586, 2352, 0, 0, 0]);
        assert_eq!((r.counts.clone(), r.work), (reference.counts.clone(), reference.work));
        // Every failed attempt is on the fault roster, numbered in order,
        // and the quarantine names the last.
        let faults: Vec<(u32, u32)> = (0..attempts).map(|a| (poisoned, a)).collect();
        assert_eq!(roster(&r.faults), faults);
        assert_eq!(roster(&r.quarantined), [(poisoned, attempts - 1)]);
        assert!(r.faults.iter().all(|f| f.payload.contains("persistent chaos")));
    }
}

/// Chaos matrix: concurrent jobs with and without injected faults, over
/// mixed engine configs — every job resolves exactly once and healed
/// jobs match their clean references.
#[test]
fn concurrent_faulty_and_clean_jobs_all_resolve_exactly_once() {
    let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
    let sup = Supervisor::new(SupervisorConfig {
        workers: 4,
        max_running: 4,
        stint_tasks: 5,
        ..Default::default()
    });
    let cases: Vec<_> = [1usize, 2, 1, 2]
        .iter()
        .enumerate()
        .map(|(i, &threads)| {
            let hub_memory_budget = if i % 2 == 0 { 8 << 20 } else { 0 };
            let cfg = EngineConfig { threads, hub_memory_budget, ..Default::default() };
            let g = Arc::new(generators::powerlaw_cluster(120 + i * 15, 4, 0.5, 40 + i as u64));
            let reference = mine(&g, &plan, &cfg);
            (g, cfg, reference, i)
        })
        .collect();
    // One transient fault somewhere in the interleaving of the jobs, which
    // share its scope; whichever job's task eats it retries it and heals.
    let fp = failpoint::guard("start_vertex", Trigger::OnNthHit(17), "matrix chaos");
    let mut waits = Vec::new();
    for (g, cfg, reference, i) in cases {
        let faulty = EngineConfig { max_retries: 3, failpoint_scope: fp.scope(), ..cfg };
        let handle = sup.submit(JobSpec::new(format!("chaos-{i}"), g, Arc::clone(&plan), faulty));
        waits.push((handle, reference, i));
    }
    let mut faults = 0;
    for (handle, reference, i) in waits {
        let r = match handle.wait() {
            JobOutcome::Finished(r) => r,
            other => panic!("chaos-{i}: expected Finished, got {other:?}"),
        };
        assert_eq!(r.status, RunStatus::Complete, "chaos-{i} must heal");
        assert_eq!(r.counts, reference.counts, "chaos-{i}: counts diverged");
        assert_eq!(r.work, reference.work, "chaos-{i}: work diverged");
        faults += r.faults.len();
    }
    assert_eq!(faults, 1, "exactly one task ate the fault");
    let s = sup.stats();
    assert_eq!(s.submitted, 4);
    assert_eq!(s.completed, 4);
}
