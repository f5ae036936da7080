//! The local clique graph (DESIGN.md §6f): an oriented k-clique plan,
//! k ≥ 4, counts each start vertex's `(k−1)`-cliques in `d` bit rows of
//! `⌈d/64⌉` words. Checked against the code it stands for:
//!
//! - **Per task, at the word boundaries.** On graphs built so that a start
//!   vertex's DAG row has exactly 0, k−2, 63, 64, 65 or 128 entries, for
//!   k = 4…7, and on arbitrary edge lists, each `run_vertex(v)` counts —
//!   and charges `extensions` — what an executor forced to enumerate
//!   (`collect_matches`) and a `paper_faithful` one do for that task.
//! - **Deterministic work.** 1 and 2 threads, observed or not, charge the
//!   same words; the dispatch words partition `setop_invocations` and the
//!   depth series partition the totals.
//! - **Stops and faults.** A budget stops a task inside the search, and a
//!   `csr_read` failpoint between two row builds rolls the task back to
//!   exactly nothing.

use fm_engine::failpoint::{self, Trigger};
use fm_engine::{
    count_program, mine, mine_prepared, mine_prepared_observed, prepare, Budget, EngineConfig,
    Executor, RunStatus, TelemetryOptions,
};
use fm_graph::{generators, CsrGraph, GraphBuilder, VertexId};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, CountRule, ExecutionPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A graph whose vertex 0 has exactly `width` out-neighbours on the
/// degree-oriented DAG: its neighbours `1..=width` are joined at random
/// with probability `p`, and each is topped up with degree-1 leaves to at
/// least `width` neighbours, so that every one of them ranks above vertex 0.
fn with_row(width: u32, p: f64, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut degree = vec![1u32; width as usize + 1];
    let mut b = GraphBuilder::new().vertices(1);
    for m in 1..=width {
        b = b.edge(0, m);
        for o in m + 1..=width {
            if rng.gen_bool(p) {
                b = b.edge(m, o);
                degree[m as usize] += 1;
                degree[o as usize] += 1;
            }
        }
    }
    let mut next = width + 1;
    for m in 1..=width {
        for _ in degree[m as usize]..width {
            b = b.edge(m, next);
            next += 1;
        }
    }
    b.build().expect("a simple graph")
}

/// Counts and `extensions` of `v`'s task alone under `cfg`, enumerating
/// every level when `walk`.
fn task(
    g: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    walk: bool,
    v: VertexId,
) -> (Vec<u64>, u64) {
    let prepared = prepare(g, plan, cfg);
    let mut ex = Executor::new(&prepared, plan, cfg);
    if walk {
        ex.collect_matches();
    }
    ex.run_vertex(v);
    let r = ex.finish();
    (r.counts, r.work.extensions)
}

/// Every per-task and whole-run property of the module docs, for `plan` on
/// `g`; the per-task ones for the start vertices `tasks` picks.
fn check(g: &CsrGraph, k: usize, tasks: impl Fn(VertexId) -> bool) -> Result<(), TestCaseError> {
    let plan = compile(&Pattern::k_clique(k), CompileOptions::default());
    let cfg = EngineConfig::default();
    let local = count_program(&plan, &cfg).nodes[1].count;
    prop_assert_eq!(local, CountRule::Clique { leaf: k - 1, k });
    let faithful = EngineConfig::paper_faithful();
    for v in g.vertices().filter(|&v| tasks(v)) {
        let fast = task(g, &plan, &cfg, false, v);
        prop_assert_eq!(&fast, &task(g, &plan, &cfg, true, v), "{}-clique, task {}", k, v.0);
        prop_assert_eq!(&fast, &task(g, &plan, &faithful, false, v), "{}-clique, task {}", k, v.0);
    }
    let prepared = prepare(g, &plan, &cfg);
    let plain = mine_prepared(&prepared, &plan, &cfg);
    let want = mine(g, &plan, &faithful);
    prop_assert_eq!(&plain.counts, &want.counts);
    prop_assert_eq!(plain.work.extensions, want.work.extensions);
    let w = plain.work;
    let tiers = w.merge_dispatches + w.gallop_dispatches + w.probe_dispatches;
    prop_assert_eq!(tiers, w.setop_invocations, "the dispatch words partition");
    let metrics = TelemetryOptions { metrics: true, ..Default::default() };
    for threads in [1usize, 2] {
        let cfg = EngineConfig { threads, ..cfg };
        prop_assert_eq!(mine_prepared(&prepared, &plan, &cfg).work, w, "threads={}", threads);
        let watched = mine_prepared_observed(&prepared, &plan, &cfg, &metrics);
        prop_assert_eq!(watched.work, w, "telemetry moved a counter");
        let shard = watched.telemetry.expect("metrics were on");
        let sum = |series: &[u64]| series.iter().sum::<u64>();
        for (series, word) in [
            (&shard.depth_setop_iterations, w.setop_iterations),
            (&shard.depth_setop_invocations, w.setop_invocations),
            (&shard.depth_merge, w.merge_dispatches),
            (&shard.depth_gallop, w.gallop_dispatches),
            (&shard.depth_probe, w.probe_dispatches),
        ] {
            prop_assert_eq!(sum(series), word, "a depth series lost work");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn rows_at_every_word_boundary_count_what_enumeration_counts(
        k in 4usize..=7,
        pick in 0usize..6,
        p in prop::sample::select(vec![0.15, 0.3]),
        seed in any::<u64>(),
    ) {
        let width = [0, k as u32 - 2, 63, 64, 65, 128][pick];
        let g = with_row(width, p, seed);
        let dag = prepare(&g, &compile(&Pattern::k_clique(k), CompileOptions::default()),
            &EngineConfig::default());
        prop_assert_eq!(dag.graph().degree(VertexId(0)), width as usize);
        // Leaves start no clique: the tasks worth checking one by one are
        // vertex 0 and its neighbours.
        check(&g, k, |v| v.0 <= width)?;
    }

    #[test]
    fn arbitrary_graphs_count_what_enumeration_counts(
        k in 4usize..=7,
        n in 8u32..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..300),
    ) {
        let g = GraphBuilder::new()
            .vertices(n as usize)
            .edges(edges.into_iter().map(|(u, v)| (u % n, v % n)))
            .build()
            .expect("a simple graph");
        check(&g, k, |_| true)?;
    }
}

/// No task of the 16-cliques of K₆₀ ends before a million iterations, so
/// only a budget polled inside the local search stops the first one; the
/// stopped task keeps nothing.
#[test]
fn a_budget_stops_the_search_inside_a_task() {
    let g = generators::complete(60);
    let plan = compile(&Pattern::k_clique(16), CompileOptions::default());
    let budget = Budget::with_max_setop_iterations(1_000_000);
    let r = mine(&g, &plan, &EngineConfig { budget, ..EngineConfig::default() });
    assert_eq!(r.status, RunStatus::BudgetExhausted);
    assert_eq!((r.counts, r.completed), (vec![0], vec![]));
    assert_eq!(r.work.extensions, 0, "the stopped task's work is rolled back");
}

/// The rows hit `csr_read` once each, after `v1`'s copy of `out(v0)`. Armed
/// on the third hit of a task — between the first and the second row
/// build — the fault must roll the task back to nothing: counts *and*
/// counters of a run that retries it later equal a clean run's.
#[test]
fn a_fault_between_two_row_builds_rolls_the_task_back() {
    let g = generators::powerlaw_cluster(300, 6, 0.5, 23);
    let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
    let clean_cfg = EngineConfig::default();
    let prepared = prepare(&g, &plan, &clean_cfg);
    let victim = prepared
        .vertices()
        .max_by_key(|&v| task(&g, &plan, &clean_cfg, false, v).0[0])
        .expect("a start vertex");
    assert!(task(&g, &plan, &clean_cfg, false, victim).0[0] > 0);
    assert!(prepared.graph().degree(victim) >= 2, "two rows to fault between");

    let fp = failpoint::guard("csr_read", Trigger::OnNthHit(3), "between two rows");
    let cfg = EngineConfig { failpoint_scope: fp.scope(), ..clean_cfg };
    let mut ex = Executor::new(&prepared, &plan, &cfg);
    assert!(!ex.run_vertex_isolated(victim), "the armed attempt must fault");
    for v in std::iter::once(victim).chain(prepared.vertices().filter(|&v| v != victim)) {
        assert!(ex.run_vertex_isolated(v), "the trigger fired once");
    }
    let r = ex.finish();
    let clean = mine(&g, &plan, &clean_cfg);
    assert_eq!(r.counts, clean.counts);
    assert_eq!(r.work, clean.work, "the rolled-back attempt left work behind");
    assert_eq!((r.faults.len(), r.quarantined.len()), (1, 1));
    assert_eq!(r.faults[0].vid, victim.0);
    assert!(r.faults[0].payload.contains("between two rows"), "{:?}", r.faults[0]);
}
