//! Arbitrary patterns against an oracle no plan produced.
//!
//! Every other engine suite draws its patterns from a fixed list. Here the
//! pattern is any connected graph on 3 to 6 vertices (the strategy
//! `fm-plan`'s compiler properties draw from), and the reference is the
//! pattern-oblivious ESU census of *induced* subgraphs
//! ([`oblivious::count_induced`]): a vertex-induced count is one entry of
//! it, an edge-induced count follows by the containment identity
//! `#P = Σ_H copies(P in H) · ind(H)`. Each drawn pattern is counted, and
//! must agree, under every setting that takes a different path through
//! the engine:
//!
//! - edge- and vertex-induced, with symmetry breaking on and off;
//! - count-only (closed forms, fused kernels) and `collect_matches`
//!   (every match entered);
//! - 1 and 3 threads, the hub index on and off;
//! - `JobCore` stints on one thread against the pool;
//! - a run stopped by its set-op budget, then resumed from its snapshot;
//! - the graph renumbered by degree rank ([`rank_order`]), on which every
//!   symmetry bound is a degree bound (`serve` mines orienting and
//!   pair-join plans on it).
//!
//! A task polls the budget, cancellation and the deadline inside itself.
//! A stopped task is rolled back and left off `completed`, so the resume
//! runs it again, whole; one left on `completed` would lose its count.
//! Small jobs stop between tasks more often than inside one, so
//! `a_stop_inside_a_task_resumes_to_the_exact_count` stops one inside the
//! first task of a large clique, by budget and by cancel, and resumes it
//! from its checkpoint file.

use fm_engine::{
    mine, mine_with, oblivious, prepare, Budget, CancelToken, Checkpoint, CheckpointConfig,
    EngineConfig, Executor, JobCore, MineOptions, MiningResult, RunStatus, Stint,
};
use fm_graph::{generators, rank_order, CsrGraph, VertexId};
use fm_pattern::motifs::{self, copies};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

mod common;
use common::arb_connected_pattern;

/// Small sparse graphs, so that the census of 6-vertex subgraphs stays
/// cheap in a debug build, with vertices of degree ≥ 4 for the hub index.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (any::<bool>(), 10u32..20, any::<u64>()).prop_map(|(er, n, seed)| {
        let n = n as usize;
        if er {
            generators::erdos_renyi(n, 0.2, seed)
        } else {
            generators::powerlaw_cluster(n, 2, 0.4, seed)
        }
    })
}

/// `(vertex-induced, edge-induced)` counts of `p` in `g`, from the census.
fn oracle(g: &CsrGraph, p: &Pattern) -> (u64, u64) {
    // Listing the 6-vertex shapes takes seconds in a debug build: once.
    static SHAPES: OnceLock<Vec<Vec<Pattern>>> = OnceLock::new();
    let shapes = &SHAPES.get_or_init(|| (3..=6).map(motifs::motifs).collect())[p.size() - 3];
    let census = oblivious::count_induced(g, shapes, 1).counts;
    let code = p.canonical_code();
    let at = shapes.iter().position(|h| h.canonical_code() == code).expect("a connected shape");
    let edge = shapes.iter().zip(&census).map(|(h, n)| copies(p, h) * n).sum();
    (census[at], edge)
}

/// The count under `cfg` with every match entered and recorded.
fn collected(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig) -> Vec<u64> {
    let prepared = prepare(g, plan, cfg);
    let mut ex = Executor::new(&prepared, plan, cfg);
    ex.collect_matches();
    for v in prepared.vertices() {
        ex.run_vertex(v);
    }
    let recorded = ex.matches().len() as u64;
    let r = ex.finish();
    assert_eq!(r.counts.iter().sum::<u64>(), recorded, "one record per match");
    r.unique_counts(plan)
}

/// Runs `core` in stints of three tasks on this thread until it ends.
fn drive(core: &JobCore<'_>) -> Stint {
    loop {
        match core.run_stint(3) {
            Stint::Ran { drained: false, .. } => {}
            end => return end,
        }
    }
}

/// Stops a job on half its work, resumes it from the encoded snapshot and
/// returns the resumed count.
fn stopped_and_resumed(
    g: &Arc<CsrGraph>,
    plan: &Arc<ExecutionPlan>,
    cfg: EngineConfig,
) -> Vec<u64> {
    let full = mine(g, plan, &cfg).work.setop_iterations;
    let cut = EngineConfig { budget: Budget::with_max_setop_iterations(full / 2), ..cfg };
    let core = JobCore::new(Arc::clone(g), Arc::clone(plan), cut);
    if full > 1 {
        assert_eq!(drive(&core), Stint::Stopped(RunStatus::BudgetExhausted));
    }
    let snapshot = Checkpoint::decode(&core.snapshot().encode()).expect("a snapshot round-trips");
    let rest = JobCore::resume(Arc::clone(g), Arc::clone(plan), cfg, snapshot).expect("same job");
    assert!(matches!(drive(&rest), Stint::Ran { drained: true, .. }));
    rest.result().unique_counts(plan)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_patterns_count_what_the_census_counts(
        g in arb_graph(),
        p in arb_connected_pattern(3..=6),
    ) {
        let (vertex_induced, edge_induced) = oracle(&g, &p);
        let ranked = rank_order(&g).0;
        let g = Arc::new(g);
        for (induced, symmetry) in [(false, true), (false, false), (true, true), (true, false)] {
            let options = CompileOptions { induced, symmetry, orientation: symmetry };
            let plan = Arc::new(compile(&p, options));
            let want = vec![if induced { vertex_induced } else { edge_induced }];
            let at = format!("{p} induced={induced} symmetry={symmetry}");
            for threads in [1, 3] {
                for hub_memory_budget in [0, 8 << 20] {
                    let cfg = EngineConfig {
                        threads,
                        hub_memory_budget,
                        hub_degree_threshold: 4,
                        ..EngineConfig::default()
                    };
                    let got = mine(&g, &plan, &cfg).unique_counts(&plan);
                    prop_assert_eq!(
                        &got, &want, "{} threads={} hub budget={}", at, threads, hub_memory_budget
                    );
                }
            }
            let cfg = EngineConfig { hub_degree_threshold: 4, ..EngineConfig::default() };
            let got = mine(&ranked, &plan, &cfg).unique_counts(&plan);
            prop_assert_eq!(&got, &want, "{} ranked", at);
            prop_assert_eq!(&collected(&g, &plan, &cfg), &want, "{} collected", at);
            let core = JobCore::new(Arc::clone(&g), Arc::clone(&plan), cfg);
            let drained = matches!(drive(&core), Stint::Ran { drained: true, .. });
            prop_assert!(drained, "{} stints", at);
            prop_assert_eq!(&core.result().unique_counts(&plan), &want, "{} stints", at);
            prop_assert_eq!(&stopped_and_resumed(&g, &plan, cfg), &want, "{} resumed", at);
        }
    }
}

/// Stops, and resumes, the job of `cfg` with `cancel` cancelled 20 ms in:
/// exact over what completed, with the stopped task off `completed` and
/// out of the checkpoint, and the resume exact. Returns the cut run.
fn cut_and_resume(
    g: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    cancel: Option<CancelToken>,
) -> MiningResult {
    let path = std::env::temp_dir().join(format!(
        "fm-ckpt-{}-{}.bin",
        std::process::id(),
        cancel.is_some()
    ));
    let stopper = cancel.clone().map(|token| {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    });
    let checkpoint = Some(CheckpointConfig::new(&path));
    let cut = mine_with(g, plan, cfg, MineOptions { cancel, checkpoint, ..MineOptions::default() })
        .expect("a fresh run");
    if let Some(stopper) = stopper {
        stopper.join().unwrap();
    }
    assert!(cut.faults.is_empty(), "a stop is not a fault: {:?}", cut.faults);
    let prepared = prepare(g, plan, cfg);
    let mut replay = Executor::new(&prepared, plan, cfg);
    // `completed` is empty on a fault-free complete run, meaning all of them.
    let completed = match cut.status {
        RunStatus::Complete if cut.completed.is_empty() => prepared.vertices().collect(),
        _ => cut.completed.iter().map(|&v| VertexId(v)).collect::<Vec<_>>(),
    };
    for v in completed {
        replay.run_vertex(v);
    }
    assert_eq!(replay.finish().counts, cut.counts, "exact over the completed tasks");
    let resume = Some(Checkpoint::load(&path).expect("the final snapshot"));
    let healthy = EngineConfig { budget: Budget::unlimited(), ..*cfg };
    let resumed = mine_with(g, plan, &healthy, MineOptions { resume, ..MineOptions::default() });
    let _ = std::fs::remove_file(&path);
    let resumed = resumed.expect("the same job");
    assert_eq!(resumed.status, RunStatus::Complete);
    assert_eq!(resumed.unique_counts(plan), vec![657_800]); // C(26, 7)
    cut
}

/// Stops inside the first task of a clique no run finishes early — the
/// 7-cliques of K₂₆ through start vertex 0 are C(25, 6) = 177 100 matches —
/// and resumes from the checkpoint. A one-iteration budget lets that task
/// start and stops it at its first poll, deterministically; a cancel from
/// another thread lands wherever the run is 20 ms in.
#[test]
fn a_stop_inside_a_task_resumes_to_the_exact_count() {
    let g = generators::complete(26);
    let plan = compile(&Pattern::k_clique(7), CompileOptions::default());
    let cfg = EngineConfig { budget: Budget::with_max_setop_iterations(1), ..Default::default() };
    let cut = cut_and_resume(&g, &plan, &cfg, None);
    assert_eq!(cut.status, RunStatus::BudgetExhausted);
    assert_eq!((cut.counts, cut.completed), (vec![0], vec![]), "nothing of the task is kept");
    let cut = cut_and_resume(&g, &plan, &EngineConfig::default(), Some(CancelToken::new()));
    // A host that runs the whole job in 20 ms has nothing left to resume.
    assert!(matches!(cut.status, RunStatus::Cancelled | RunStatus::Complete), "{:?}", cut.status);
}
