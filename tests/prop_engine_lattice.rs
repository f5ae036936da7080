//! The knob-lattice differential suite: every way of turning the engine's
//! knobs must be invisible to results. One property draws a graph (ER |
//! power-law | hub-attached power-law) and a point of the lattice
//! {`gallop_ratio` ∈ {0, 1, 16}, `hub_memory_budget` 0 (no index) / default /
//! tight} and walks threads {1, 3} under it, for every stock
//! pattern compiled edge-induced and vertex-induced, against two
//! references: `paper_faithful`, and the *plain* engine (bounded merges,
//! every dispatch knob off).
//!
//! - Unique counts equal the faithful engine's and, for vertex-induced
//!   plans, the pattern-oblivious ESU oracle's; every run is `Complete`.
//! - The dispatch knobs (`gallop_ratio`, `hub_memory_budget`, threads) choose
//!   *how* a candidate set is derived, never *which*: `extensions`,
//!   `candidates_checked` and `setop_invocations` equal the plain engine's,
//!   and the three tier counters partition the invocations.
//! - Bound pushdown only removes work: plain ≤ faithful `setop_iterations`;
//!   so do probes, where no gallop can undercut them (`gallop_ratio == 0`)
//!   and no bound can stop the merge they replace first (a plan without
//!   symmetry bounds: an unbounded merge walks at least the `|a|` steps a
//!   probe streams, a bounded intersection can stop sooner — ROADMAP, open
//!   items; `prop_hub_bitmap` holds every symmetry-off plan to the same).
//!   A pair join is no pushdown — one short and one long list: a merge can
//!   stop after one step, the sweep walks both — so a joined plan is held
//!   to its own ceiling: it never streams more than every core vertex's
//!   adjacency below the leaf's bound.
//! - Thread count moves no counter at all.
//!
//! Beside it: partial results under a tight iteration budget replay
//! exactly over their completed set, the default engine agrees with the
//! faithful one on a hub-heavy power-law graph and on a mesh, and the
//! default engine's counters on a fixed graph are pinned: the plans whose
//! leaves count as they did (triangle, 4-clique, 5-clique) to the numbers
//! PR 19's parent produced with its reuse tier switched off, the 4-cycle,
//! diamond and 3-motif census to what their closed forms charge.

use fm_engine::{
    count_program, mine, oblivious, prepare, Budget, EngineConfig, Executor, RunStatus,
    WorkCounters,
};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_pattern::{motifs, Pattern};
use fm_plan::{compile, compile_multi, CompileOptions, CountRule, ExecutionPlan};
use proptest::prelude::*;

/// ER, power-law, or a power-law body with two explicit hubs attached (so
/// the probe tier has rows to index).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (0u8..3, 20u32..60, 1u32..=4, any::<u64>()).prop_map(|(kind, n, k, seed)| {
        let (n, k) = (n as usize, k as usize);
        match kind {
            0 => generators::erdos_renyi(n, k as f64 / 10.0, seed),
            1 => generators::powerlaw_cluster(n, k + 1, (seed % 9 + 1) as f64 / 10.0, seed),
            _ => {
                let body = generators::powerlaw_cluster(n, k.max(2), 0.5, seed);
                generators::attach_hubs(&body, 2, (10 + seed as usize % 30).min(n), seed ^ 0x9e37)
            }
        }
    })
}

fn stock_patterns() -> Vec<Pattern> {
    vec![
        Pattern::triangle(),
        Pattern::wedge(),
        Pattern::path(4),
        Pattern::star(3),
        Pattern::cycle(4),
        Pattern::cycle(5),
        Pattern::diamond(),
        Pattern::tailed_triangle(),
        Pattern::house(),
        Pattern::k_clique(4),
        Pattern::k_clique(5),
    ]
}

/// The plain engine: bounded merges, every dispatch on the scalar merge
/// tier, one thread. The hub threshold is low so small graphs have rows
/// once the index has a budget.
fn plain() -> EngineConfig {
    EngineConfig {
        gallop_ratio: 0,
        hub_memory_budget: 0,
        hub_degree_threshold: 4,
        ..EngineConfig::default()
    }
}

/// `hub` 0 = no index, 1 = the default budget, 2 = a budget too tight for
/// more than a row or two (the index shrinks, possibly to nothing).
fn knobbed(base: EngineConfig, gallop_ratio: usize, hub: u8, threads: usize) -> EngineConfig {
    let hub_memory_budget = [0, EngineConfig::default().hub_memory_budget, 64][hub as usize];
    EngineConfig { gallop_ratio, hub_memory_budget, threads, ..base }
}

/// The counters a dispatch knob must not move.
fn search_words(w: &WorkCounters) -> [u64; 3] {
    [w.extensions, w.candidates_checked, w.setop_invocations]
}

/// Whether no op of `plan` carries a symmetry bound (the oriented clique
/// plans), so that every set operation it dispatches is unbounded.
fn unbounded(plan: &ExecutionPlan) -> bool {
    plan.root.iter().all(|n| n.op.upper_bounds.is_empty())
}

fn tiers(w: &WorkCounters) -> u64 {
    w.merge_dispatches + w.gallop_dispatches + w.probe_dispatches
}

/// The most the 4-cycle's pair join can stream: under every start vertex
/// `v0`, each vertex of X's core (`N(v0)` below `v0`) lists its neighbours
/// below the leaf's bound, which is `v0` again.
fn four_cycle_sweep_ceiling(g: &CsrGraph) -> u64 {
    let below = |v: VertexId, b: VertexId| g.neighbors(v).iter().filter(move |&&w| w < b);
    g.vertices().map(|v0| below(v0, v0).map(|&x| below(x, v0).count() as u64).sum::<u64>()).sum()
}

/// Replays `completed` sequentially under `cfg` — the exactness oracle for
/// a partial result.
fn replay(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig, completed: &[u32]) -> Vec<u64> {
    let prepared = prepare(g, plan, cfg);
    let mut ex = Executor::new(&prepared, plan, cfg);
    for &v in completed {
        ex.run_vertex(VertexId(v));
    }
    ex.finish().counts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn every_knob_is_result_invisible(
        g in arb_graph(),
        (gallop_pick, hub) in (0usize..3, 0u8..3),
    ) {
        let gallop_ratio = [0, 1, 16][gallop_pick];
        let base = plain();
        for pattern in stock_patterns() {
            for options in [CompileOptions::default(), CompileOptions::induced()] {
                let plan = compile(&pattern, options);
                let ctx = format!(
                    "{pattern} induced={} gallop={gallop_ratio} hub={hub}", plan.induced
                );
                let faithful = mine(&g, &plan, &EngineConfig::paper_faithful());
                let expected = faithful.unique_counts(&plan);
                // ESU pays k! per subgraph: the oracle stops at four vertices.
                if plan.induced && pattern.size() <= 4 {
                    let oracle = oblivious::count_induced(&g, std::slice::from_ref(&pattern), 1);
                    prop_assert_eq!(&expected, &oracle.counts, "oracle: {}", &ctx);
                }
                let plain = mine(&g, &plan, &base);
                prop_assert_eq!(&plain.unique_counts(&plan), &expected, "plain: {}", &ctx);
                prop_assert_eq!((faithful.status, plain.status), (RunStatus::Complete, RunStatus::Complete));
                prop_assert_eq!(tiers(&plain.work), plain.work.setop_invocations, "{}", &ctx);
                let joins = count_program(&plan, &base)
                    .nodes
                    .iter()
                    .any(|n| matches!(n.count, CountRule::PairJoin { .. }));
                if joins {
                    // The only stock plan that joins, and it builds X's
                    // core without a set op: every iteration is a bump.
                    prop_assert!(pattern == Pattern::cycle(4) && !plan.induced, "{}", &ctx);
                    prop_assert!(
                        plain.work.setop_iterations <= four_cycle_sweep_ceiling(&g),
                        "the sweep streamed more than its cores hold: {}", &ctx
                    );
                } else {
                    prop_assert!(
                        plain.work.setop_iterations <= faithful.work.setop_iterations,
                        "pushdown added merge work: {}", &ctx
                    );
                }
                let scalar = mine(&g, &plan, &knobbed(base, gallop_ratio, hub, 1)).work;
                for threads in [1, 3] {
                    let r = mine(&g, &plan, &knobbed(base, gallop_ratio, hub, threads));
                    let ctx = format!("{ctx} threads={threads}");
                    prop_assert_eq!(&r.unique_counts(&plan), &expected, "counts: {}", &ctx);
                    prop_assert_eq!(r.status, RunStatus::Complete, "status: {}", &ctx);
                    prop_assert_eq!(r.work, scalar, "thread parity: {}", &ctx);
                }
                prop_assert_eq!(search_words(&scalar), search_words(&plain.work), "{}", &ctx);
                prop_assert_eq!(tiers(&scalar), scalar.setop_invocations, "partition: {}", &ctx);
                if hub == 0 {
                    prop_assert_eq!(scalar.probe_dispatches, 0, "no index, no probes: {}", &ctx);
                }
                if gallop_ratio == 0 && unbounded(&plan) {
                    prop_assert!(
                        scalar.setop_iterations <= plain.work.setop_iterations,
                        "probe tier added iterations: {}", &ctx
                    );
                }
            }
        }
    }

    /// Under a third of the iterations a full run needs, every lattice
    /// point stops `BudgetExhausted` with counts that replay bit-for-bit
    /// over the completed set it reports.
    #[test]
    fn tight_budget_partials_replay_exactly(
        g in arb_graph(),
        hub in 0u8..3,
        gallop_pick in 0usize..3,
    ) {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        for threads in [1usize, 3] {
            let cfg = knobbed(plain(), [0, 1, 16][gallop_pick], hub, threads);
            let full = mine(&g, &plan, &cfg).work.setop_iterations;
            // Too cheap to cut strictly.
            if full < 9 {
                return Ok(());
            }
            let cfg = EngineConfig { budget: Budget::with_max_setop_iterations(full / 3), ..cfg };
            let r = mine(&g, &plan, &cfg);
            prop_assert_eq!(r.status, RunStatus::BudgetExhausted, "{:?}", cfg);
            prop_assert_eq!(&r.counts, &replay(&g, &plan, &cfg, &r.completed), "{:?}", cfg);
        }
    }
}

/// One hub-heavy power-law graph and one mesh, every stock pattern, 1 and
/// 3 threads: the default engine agrees with the faithful one, and the
/// probe tier is demonstrably engaged on the hub-heavy input.
#[test]
fn default_agrees_with_faithful_on_powerlaw_and_mesh() {
    let powerlaw =
        generators::attach_hubs(&generators::powerlaw_cluster(250, 4, 0.5, 7), 4, 120, 11);
    let mesh = generators::grid(16, 12);
    let mut probes_on_powerlaw = 0;
    for (name, g) in [("powerlaw", &powerlaw), ("mesh", &mesh)] {
        for pattern in stock_patterns() {
            let plan = compile(&pattern, CompileOptions::default());
            let faithful = mine(g, &plan, &EngineConfig::paper_faithful());
            for threads in [1usize, 3] {
                let r = mine(g, &plan, &EngineConfig::with_threads(threads));
                assert_eq!(r.counts, faithful.counts, "{name} {pattern} threads={threads}");
                assert_eq!(r.status, faithful.status, "{name} {pattern} threads={threads}");
                if name == "powerlaw" {
                    probes_on_powerlaw += r.work.probe_dispatches;
                }
            }
        }
    }
    assert!(probes_on_powerlaw > 0, "hub-heavy input must exercise the probe tier");
}

/// Unique counts and `WorkCounters::words()` on
/// `gen:powerlaw,n=2000,m=8,closure=0.4,seed=1` (1 and 3 threads agree).
/// The triangle and clique rows are PR 19's parent with
/// `EngineConfig { reuse: false, .. }` and have not moved since: deleting
/// that tier left the default engine exactly there, and so does deciding
/// their leaves' counting rule ahead of time. The 4-cycle (pair join),
/// diamond (binomial tail) and 3-motif (count-only difference) rows were
/// re-recorded when those rules landed; the counts never moved. Each row
/// carried a ninth word, the SIMD tier's dispatches, until that tier went;
/// they are on the merge tier here.
#[test]
fn default_engine_reproduces_the_parents_reuse_off_counters() {
    let g = generators::powerlaw_cluster(2000, 8, 0.4, 1);
    let single = |p: Pattern| compile(&p, CompileOptions::default());
    #[rustfmt::skip]
    let pins: [(ExecutionPlan, &[u64], [u64; WorkCounters::WORDS]); 6] = [
        (single(Pattern::triangle()), &[9920],
         [165975, 15964, 165979, 25884, 27884, 15739, 225, 0]),
        (single(Pattern::k_clique(4)), &[1993],
         [220648, 25884, 220720, 27877, 29877, 24930, 954, 0]),
        (single(Pattern::k_clique(5)), &[848],
         [225550, 27877, 225626, 28725, 30725, 26331, 1546, 0]),
        (single(Pattern::cycle(4)), &[118809],
         [465797, 0, 107104, 15964, 120809, 0, 0, 0]),
        (single(Pattern::diamond()), &[62590],
         [378179, 15964, 378179, 47332, 80554, 8268, 0, 7696]),
        (compile_multi(&motifs::motifs(3), CompileOptions::induced()), &[491869, 9920],
         [698710, 47892, 2187314, 549681, 551681, 30614, 541, 16737]),
    ];
    for (plan, counts, words) in pins {
        for threads in [1usize, 3] {
            let r = mine(&g, &plan, &EngineConfig::with_threads(threads));
            assert_eq!(r.unique_counts(&plan), counts, "{plan}");
            assert_eq!(r.work.words(), words, "{plan} threads={threads}");
        }
    }
}
