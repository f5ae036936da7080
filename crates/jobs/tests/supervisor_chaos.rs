//! Supervisor chaos suite: N concurrent jobs across engine-config
//! combinations, admission-control shedding, priority preemption, and
//! drain/restart — every job must resolve to exactly one terminal
//! outcome, and every finished or resumed job must reproduce the counts
//! and aggregate work of an uninterrupted solo run bit-for-bit.

use fm_engine::{mine, Checkpoint, EngineConfig, MiningResult, RunStatus};
use fm_graph::{generators, CsrGraph};
use fm_jobs::{JobOutcome, JobSpec, Supervisor, SupervisorConfig};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use std::sync::Arc;
use std::time::Duration;

fn graph(n: usize, seed: u64) -> Arc<CsrGraph> {
    Arc::new(generators::powerlaw_cluster(n, 4, 0.5, seed))
}

fn cycle4() -> Arc<ExecutionPlan> {
    Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()))
}

/// A plan that enumerates every level: the job that is still running when
/// something interrupts it (the 4-cycle is counted by a pair join, several
/// times faster at any size).
fn house() -> Arc<ExecutionPlan> {
    Arc::new(compile(&Pattern::house(), CompileOptions::default()))
}

fn triangle() -> Arc<ExecutionPlan> {
    Arc::new(compile(&Pattern::triangle(), CompileOptions::default()))
}

/// Stragglers and telemetry legitimately differ between schedules; the
/// bit-identity contract covers counts, aggregate work, and status.
fn assert_same_mining(actual: &MiningResult, reference: &MiningResult, what: &str) {
    assert_eq!(actual.counts, reference.counts, "{what}: counts diverged");
    assert_eq!(actual.work, reference.work, "{what}: work counters diverged");
    assert_eq!(actual.status, reference.status, "{what}: status diverged");
}

fn finished(outcome: JobOutcome, what: &str) -> MiningResult {
    match outcome {
        JobOutcome::Finished(r) => r,
        other => panic!("{what}: expected Finished, got {other:?}"),
    }
}

/// The engine-config matrix (threads × gallop tier × hub index) interleaved
/// over one worker pool: every job's result matches its solo run.
#[test]
fn interleaved_jobs_match_solo_runs_bit_for_bit() {
    let sup = Supervisor::new(SupervisorConfig {
        workers: 4,
        max_running: 8,
        stint_tasks: 7,
        ..Default::default()
    });
    let mut waits = Vec::new();
    let mut case = 0u64;
    for threads in [1usize, 4] {
        for gallop_ratio in [0, 16] {
            for hub_bitmap in [false, true] {
                case += 1;
                let cfg = EngineConfig { threads, gallop_ratio, hub_bitmap, ..Default::default() };
                let g = graph(150 + case as usize * 10, case);
                let plan = if case.is_multiple_of(2) { cycle4() } else { triangle() };
                let reference = mine(&g, &plan, &cfg);
                assert_eq!(reference.status, RunStatus::Complete);
                let handle = sup.submit(JobSpec::new(format!("case-{case}"), g, plan, cfg));
                waits.push((handle, reference, case));
            }
        }
    }
    for (handle, reference, case) in waits {
        let r = finished(handle.wait(), &format!("case {case}"));
        assert_same_mining(&r, &reference, &format!("case {case}"));
    }
    let s = sup.stats();
    assert_eq!(s.submitted, 8);
    assert_eq!(s.completed, 8);
    assert_eq!(s.rejected, 0);
}

/// A full job table sheds new arrivals with an explicit reason instead of
/// queueing unboundedly; admitted jobs still finish.
#[test]
fn queue_saturation_sheds_with_explicit_rejection() {
    let sup = Supervisor::new(SupervisorConfig {
        workers: 2,
        max_running: 2,
        queue_capacity: 2,
        stint_tasks: 4,
    });
    let g = graph(1200, 3);
    let plan = cycle4();
    let cfg = EngineConfig { threads: 1, ..Default::default() };
    let a = sup.submit(JobSpec::new("a", Arc::clone(&g), Arc::clone(&plan), cfg));
    let b = sup.submit(JobSpec::new("b", Arc::clone(&g), Arc::clone(&plan), cfg));
    let c = sup.submit(JobSpec::new("c", Arc::clone(&g), Arc::clone(&plan), cfg));
    match c.try_outcome() {
        Some(JobOutcome::Rejected { reason }) => {
            assert!(reason.contains("queue full"), "reason: {reason}")
        }
        other => panic!("expected immediate rejection, got {other:?}"),
    }
    finished(a.wait(), "job a");
    finished(b.wait(), "job b");
    let s = sup.stats();
    assert_eq!((s.submitted, s.completed, s.rejected), (3, 2, 1));
}

/// A caller-supplied id is the one the job runs under; an unnamed job
/// takes the next id above every id seen, so the two never collide.
#[test]
fn a_supplied_id_is_kept_and_later_ids_step_past_it() {
    let sup = Supervisor::new(SupervisorConfig { workers: 1, ..Default::default() });
    let (g, plan, cfg) = (graph(100, 5), triangle(), EngineConfig::default());
    let spec = |id| JobSpec { id, ..JobSpec::new("j", Arc::clone(&g), Arc::clone(&plan), cfg) };
    let handles = [sup.submit(spec(None)), sup.submit(spec(Some(7))), sup.submit(spec(None))];
    assert_eq!(handles.iter().map(|h| h.id()).collect::<Vec<_>>(), [1, 7, 8]);
    for h in handles {
        finished(h.wait(), "job");
    }
}

/// A strictly higher-priority arrival preempts the running job; the
/// victim pauses at a stint boundary and later resumes to a result
/// bit-identical with its solo run.
#[test]
fn preemption_pauses_victim_and_both_finish_bit_identically() {
    let sup = Supervisor::new(SupervisorConfig {
        workers: 2,
        max_running: 1,
        stint_tasks: 2,
        ..Default::default()
    });
    let cfg = EngineConfig { threads: 2, ..Default::default() };
    let plan = house();
    let g_lo = graph(250, 7);
    let g_hi = graph(100, 8);
    let ref_lo = mine(&g_lo, &plan, &cfg);
    let ref_hi = mine(&g_hi, &plan, &cfg);
    let lo = sup.submit(JobSpec {
        priority: 0,
        ..JobSpec::new("lo", Arc::clone(&g_lo), Arc::clone(&plan), cfg)
    });
    // Wait until the low-priority job actually holds the run slot so the
    // arrival below must preempt rather than simply run first.
    while sup.stats().running == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let hi = sup.submit(JobSpec {
        priority: 10,
        ..JobSpec::new("hi", Arc::clone(&g_hi), Arc::clone(&plan), cfg)
    });
    assert_same_mining(&finished(hi.wait(), "hi"), &ref_hi, "hi");
    assert_same_mining(&finished(lo.wait(), "lo"), &ref_lo, "lo");
    assert!(sup.stats().preempted >= 1, "expected at least one preemption");
}

/// SIGTERM-style drain: shutdown pauses every job at a stint boundary and
/// spools durable checkpoints; a fresh supervisor (the "restarted
/// process") resumes each drained job to a bit-identical final result.
#[test]
fn shutdown_drains_to_checkpoints_and_restart_resumes_bit_for_bit() {
    let spool = std::env::temp_dir().join(format!("fm-jobs-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let cfg = EngineConfig { threads: 2, ..Default::default() };
    let plan = house();
    let jobs: Vec<(Arc<CsrGraph>, MiningResult)> = [9u64, 10]
        .iter()
        .map(|&seed| {
            let g = graph(150, seed);
            let reference = mine(&g, &plan, &cfg);
            (g, reference)
        })
        .collect();
    let sup = Supervisor::new(SupervisorConfig {
        workers: 2,
        max_running: 2,
        stint_tasks: 3,
        ..Default::default()
    });
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, (g, _))| {
            sup.submit(JobSpec::new(format!("job-{i}"), Arc::clone(g), Arc::clone(&plan), cfg))
        })
        .collect();
    // Let the jobs make some (possibly zero) progress, then pull the plug.
    std::thread::sleep(Duration::from_millis(25));
    let drained = sup.shutdown(Some(&spool));
    // Post-shutdown submissions are shed, not queued.
    let late = sup.submit(JobSpec::new("late", Arc::clone(&jobs[0].0), Arc::clone(&plan), cfg));
    match late.wait() {
        JobOutcome::Rejected { reason } => assert!(reason.contains("draining"), "{reason}"),
        other => panic!("expected rejection after shutdown, got {other:?}"),
    }
    let mut resumed = 0usize;
    for (handle, (g, reference)) in handles.iter().zip(&jobs) {
        match handle.try_outcome().expect("shutdown resolves every job") {
            JobOutcome::Finished(r) => assert_same_mining(&r, reference, handle.name()),
            JobOutcome::Drained { checkpoint } => {
                let path = checkpoint.expect("spooled drain must produce a checkpoint");
                let snapshot = Checkpoint::load(&path).expect("drained checkpoint loads");
                let sup2 = Supervisor::new(SupervisorConfig {
                    workers: 2,
                    stint_tasks: 5,
                    ..Default::default()
                });
                let again = sup2.submit(JobSpec {
                    resume: Some(snapshot),
                    ..JobSpec::new(handle.name(), Arc::clone(g), Arc::clone(&plan), cfg)
                });
                let r = finished(again.wait(), handle.name());
                assert_same_mining(&r, reference, handle.name());
                resumed += 1;
            }
            JobOutcome::Rejected { reason } => {
                panic!("{}: unexpectedly rejected: {reason}", handle.name())
            }
        }
    }
    assert_eq!(drained.len(), resumed, "the drain report covers exactly the drained jobs");
    for d in &drained {
        assert!(d.error.is_none(), "{}: spool error {:?}", d.name, d.error);
    }
    let s = sup.stats();
    assert_eq!(s.submitted, 3);
    assert_eq!(s.completed + s.drained + s.rejected, 3);
    let _ = std::fs::remove_dir_all(&spool);
}

/// A checkpoint from one graph refuses to resume a job on another graph:
/// the mismatch surfaces as an explicit rejection, not a wrong answer.
#[test]
fn resume_with_mismatched_checkpoint_is_rejected() {
    let plan = cycle4();
    let cfg = EngineConfig::default();
    let g = graph(200, 11);
    let other = graph(210, 12);
    let snapshot = Checkpoint::empty(&g, &plan, &cfg, plan.patterns.len());
    let sup = Supervisor::new(SupervisorConfig { workers: 1, ..Default::default() });
    let handle = sup
        .submit(JobSpec { resume: Some(snapshot), ..JobSpec::new("mismatch", other, plan, cfg) });
    match handle.wait() {
        JobOutcome::Rejected { reason } => {
            assert!(reason.contains("resume checkpoint rejected"), "{reason}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }
}

/// The gauge surface exported to both Prometheus and JSON renderings.
#[test]
fn metrics_doc_exports_supervisor_gauges() {
    let sup = Supervisor::new(SupervisorConfig { workers: 1, ..Default::default() });
    let prom = sup.metrics().to_prometheus();
    let json = sup.metrics().to_json();
    for name in [
        "fm_jobs_submitted_total",
        "fm_jobs_rejected_total",
        "fm_jobs_preempted_total",
        "fm_jobs_completed_total",
        "fm_jobs_drained_total",
        "fm_jobs_queued",
        "fm_jobs_running",
    ] {
        assert!(prom.contains(name), "missing {name} in Prometheus rendering");
        assert!(json.contains(name), "missing {name} in JSON rendering");
    }
}
