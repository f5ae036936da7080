//! Counting leaves (DESIGN.md §6f): the proof obligations, tested rather
//! than trusted. A count-only run replaces enumeration below some nodes by
//! a closed form — a pair join, a binomial tail, a counting kernel — and
//! the claim is stronger than "the totals agree":
//!
//! - **Per task.** After *each* `run_vertex(v)` the fused executor's
//!   counts equal the un-fused executor's (the same program with every
//!   node back on `Enumerate`, which is what `collect_matches` runs). That
//!   is what keeps partial results, checkpoints and drained `serve` jobs
//!   exact, and it is checked for every stock pattern, K₂,₃ and both motif
//!   censuses, compiled edge-induced, vertex-induced and AutoMine-style.
//! - **Deterministic work.** What the closed forms charge is a function
//!   of the job alone: equal across 1 and 3 threads, `JobCore` stints and
//!   the pool, telemetry on and off — and the depth series still
//!   partition the totals.
//! - **An oracle no plan produced.** Edge-induced counts of every 3- and
//!   4-vertex pattern follow from the ESU census of *induced* subgraphs by
//!   the containment identity `#P = Σ_H copies(P in H) · ind(H)`, with the
//!   coefficients brute-forced over vertex permutations.
//! - **Faults.** A panic between two bumps of the pair join's count map
//!   leaves the next task's count exact.
//! - **Declined plans are untouched.** The plans the pass declines charge,
//!   word for word, what the commit before it charged.
//! - **Indexes nobody reads are not built.** `prepare` skips the hub
//!   bitmaps for a program that calls no set-op kernel, and a run over the lean graph equals one over a fully
//!   indexed one, counter for counter.

use fm_engine::failpoint::{self, Trigger};
use fm_engine::{
    count_program, mine, mine_prepared, mine_prepared_observed, oblivious, prepare, EngineConfig,
    Executor, JobCore, RunStatus, Stint, TelemetryOptions, WorkCounters,
};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_pattern::{motifs, Pattern};
use fm_plan::{compile, compile_multi, CompileOptions, CountRule, ExecutionPlan};
use proptest::prelude::*;
use std::sync::Arc;

/// ER, power-law, or a power-law body with two explicit hubs attached —
/// the graphs `prop_engine_lattice.rs` draws.
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

fn k23() -> Pattern {
    Pattern::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).expect("K2,3")
}

/// Shapes whose plans reach what no stock plan does: a pair join two and
/// three levels down, under an `Extend` core, whose leaf must skip
/// vertices no bound of its own excludes, and whose X has an injectivity
/// filter; a tail that drops embedding vertices from its core by lookup.
fn beyond_stock() -> Vec<Pattern> {
    let shapes: [(usize, &[(usize, usize)]); 3] = [
        (5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),
        (6, &[(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3)]),
        (5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]),
    ];
    shapes.iter().map(|(n, edges)| Pattern::from_edges(*n, edges).expect("connected")).collect()
}

#[test]
fn the_shapes_beyond_stock_are_the_ones_advertised() {
    let decided = |p: &Pattern| {
        let plan = compile(p, CompileOptions::default());
        let prog = count_program(&plan, &EngineConfig::default());
        prog.nodes.iter().find(|n| n.count != CountRule::Enumerate).cloned().expect("a rule")
    };
    let shapes = beyond_stock();
    let (deep, deeper, tail) = (decided(&shapes[0]), decided(&shapes[1]), decided(&shapes[2]));
    assert!(matches!(deep.count, CountRule::PairJoin { .. }) && deep.depth == 2, "{deep:?}");
    assert_eq!(deep.frontier, fm_plan::FrontierHint::Extend);
    assert!(matches!(deeper.count, CountRule::PairJoin { .. }) && deeper.depth == 3, "{deeper:?}");
    assert!(!deeper.injectivity.is_empty(), "{deeper:?}");
    assert!(matches!(tail.count, CountRule::Tail { k: 2, .. }), "{tail:?}");
    assert!(!tail.injectivity.is_empty() && tail.upper_bounds.is_empty(), "{tail:?}");
}

/// The lattice suite's eleven stock patterns, K₂,₃, three shapes beyond
/// them and the 3- and 4-motif censuses, each compiled three ways.
fn plans() -> Vec<(String, ExecutionPlan)> {
    let singles = [
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
        k23(),
    ]
    .into_iter()
    .chain(beyond_stock())
    .collect::<Vec<_>>();
    let mut out = Vec::new();
    for (how, options) in [
        ("default", CompileOptions::default()),
        ("induced", CompileOptions::induced()),
        ("automine", CompileOptions::automine()),
    ] {
        for p in &singles {
            out.push((format!("{p} {how}"), compile(p, options)));
        }
        for k in [3, 4] {
            out.push((format!("motifs({k}) {how}"), compile_multi(&motifs::motifs(k), options)));
        }
    }
    out
}

fn joins(plan: &ExecutionPlan, cfg: &EngineConfig) -> bool {
    count_program(plan, cfg).nodes.iter().any(|n| matches!(n.count, CountRule::PairJoin { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn every_task_counts_what_enumeration_counts(g in arb_graph()) {
        let cfg = EngineConfig::default();
        for (ctx, plan) in plans() {
            let prepared = prepare(&g, &plan, &cfg);
            // One un-fused executor walks every task and keeps what it
            // found; a fresh fused one per task shows that task alone.
            let mut walker = Executor::new(&prepared, &plan, &cfg);
            walker.collect_matches();
            let mut total = vec![0u64; plan.patterns.len()];
            for v in prepared.vertices() {
                let seen = walker.matches().len();
                walker.run_vertex(v);
                let mut walked = vec![0u64; plan.patterns.len()];
                for (pi, _) in &walker.matches()[seen..] {
                    walked[*pi] += 1;
                }
                let mut fused = Executor::new(&prepared, &plan, &cfg);
                fused.run_vertex(v);
                let fused = fused.finish();
                prop_assert_eq!(&fused.counts, &walked, "start vertex {}: {}", v.0, &ctx);
                for (t, c) in total.iter_mut().zip(&walked) {
                    *t += c;
                }
            }
            let walked = walker.finish();
            prop_assert_eq!(&walked.counts, &total, "enumeration disagrees with itself: {}", &ctx);

            // One executor across all tasks (what `mine` runs): nothing a
            // closed form leaves behind may leak into the next task, and
            // what it charges does not depend on who ran it.
            let one = mine(&g, &plan, &cfg);
            prop_assert_eq!(&one.counts, &total, "one thread: {}", &ctx);
            prop_assert_eq!(one.status, RunStatus::Complete);
            let three = mine(&g, &plan, &EngineConfig { threads: 3, ..cfg });
            prop_assert_eq!(&three.counts, &total, "three threads: {}", &ctx);
            prop_assert_eq!(three.work, one.work, "threads moved a counter: {}", &ctx);

            let core = JobCore::new(Arc::new(g.clone()), Arc::new(plan.clone()), cfg);
            while matches!(core.run_stint(5), Stint::Ran { drained: false, .. }) {}
            let stinted = core.result();
            prop_assert_eq!(&stinted.counts, &total, "stints: {}", &ctx);
            prop_assert_eq!(stinted.work, one.work, "stints moved a counter: {}", &ctx);

            let metrics = TelemetryOptions { metrics: true, ..Default::default() };
            let watched = mine_prepared_observed(&prepared, &plan, &cfg, &metrics);
            prop_assert_eq!(&watched.counts, &total, "telemetry: {}", &ctx);
            prop_assert_eq!(watched.work, one.work, "telemetry moved a counter: {}", &ctx);
            let shard = watched.telemetry.expect("metrics were on");
            let sum = |series: &[u64]| series.iter().sum::<u64>();
            prop_assert_eq!(sum(&shard.depth_setop_iterations), one.work.setop_iterations, "{}", &ctx);
            prop_assert_eq!(sum(&shard.depth_setop_invocations), one.work.setop_invocations, "{}", &ctx);
            let tiers = one.work.merge_dispatches + one.work.gallop_dispatches
                + one.work.probe_dispatches;
            prop_assert_eq!(tiers, one.work.setop_invocations, "the sweep dispatched: {}", &ctx);
        }
    }

    /// The diamond's plan probes, so `prepare` under it indexes the same
    /// (unoriented) graph in full: running any other unoriented plan over
    /// that and over its own — possibly lean — prepare must agree on every
    /// count and every counter.
    #[test]
    fn a_lean_prepare_runs_what_a_fully_indexed_one_runs(g in arb_graph()) {
        let cfg = EngineConfig::default();
        let indexed = prepare(&g, &compile(&Pattern::diamond(), CompileOptions::default()), &cfg);
        for (name, plan) in plans().into_iter().filter(|(_, plan)| !plan.orientation) {
            let own = prepare(&g, &plan, &cfg);
            let (lean, full) = (mine_prepared(&own, &plan, &cfg), mine_prepared(&indexed, &plan, &cfg));
            prop_assert_eq!(&lean.counts, &full.counts, "{}", &name);
            prop_assert_eq!(lean.work, full.work, "{}", &name);
            if own.hubs().is_none() && indexed.hubs().is_some() {
                prop_assert_eq!(lean.work.setop_invocations, 0, "{} skipped an index it reads", &name);
            }
        }
    }

    /// `#P = Σ_H copies(P in H) · ind(H)` over the connected `H` on as many
    /// vertices: the right-hand side comes from ESU and brute force alone.
    #[test]
    fn edge_induced_counts_follow_from_the_induced_census(g in arb_graph()) {
        for k in [3, 4] {
            let shapes = motifs::motifs(k);
            let induced = oblivious::count_induced(&g, &shapes, 1).counts;
            for p in &shapes {
                let want: u64 = shapes.iter().zip(&induced).map(|(h, n)| copies(p, h) * n).sum();
                for options in [CompileOptions::default(), CompileOptions::automine()] {
                    let plan = compile(p, options);
                    let cfg = EngineConfig::with_threads(2);
                    let got = mine(&g, &plan, &cfg).unique_counts(&plan);
                    prop_assert_eq!(got, vec![want], "{} symmetry={}", p, plan.symmetry);
                }
            }
        }
    }
}

/// Under the default config the joined 4-cycle's prepare holds no hub index
/// and the plans that dispatch set ops still hold theirs, on a graph dense
/// enough that the index comes back non-empty even once oriented.
#[test]
fn prepare_builds_indexes_only_for_programs_that_probe_them() {
    let cfg = EngineConfig::default();
    let g = generators::powerlaw_cluster(120, 40, 0.5, 7);
    let cycle = compile(&Pattern::cycle(4), CompileOptions::default());
    assert!(joins(&cycle, &cfg));
    let lean = prepare(&g, &cycle, &cfg);
    assert!(lean.hubs().is_none(), "the join reads no index");
    let probing = [
        ("diamond", compile(&Pattern::diamond(), CompileOptions::default())),
        ("3-motif", compile_multi(&motifs::motifs(3), CompileOptions::induced())),
        ("4-clique", compile(&Pattern::k_clique(4), CompileOptions::default())),
        // No symmetry order, no join: this 4-cycle enumerates through merges.
        ("4-cycle --no-symmetry", compile(&Pattern::cycle(4), CompileOptions::automine())),
    ];
    for (name, plan) in &probing {
        let prepared = prepare(&g, plan, &cfg);
        assert!(prepared.hubs().is_some(), "{name} lost its hub bitmaps");
        let work = mine_prepared(&prepared, plan, &cfg).work;
        assert!(work.setop_invocations > 0 && work.probe_dispatches > 0, "{name}: {work:?}");
    }
    let joined = mine_prepared(&lean, &cycle, &cfg);
    assert_eq!(joined.work.setop_invocations, 0);
    // The unoriented plans above were prepared over the same graph in full.
    assert_eq!(
        joined.counts,
        mine_prepared(&prepare(&g, &probing[0].1, &cfg), &cycle, &cfg).counts
    );
}

/// Calls `visit` with every arrangement of `items[at..]` after the fixed
/// prefix `items[..at]`.
fn permutations(items: &mut Vec<usize>, at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        return visit(items);
    }
    for i in at..items.len() {
        items.swap(at, i);
        permutations(items, at + 1, visit);
        items.swap(at, i);
    }
}

/// How many subgraphs of `h` (on all its vertices) are copies of `p`: the
/// vertex bijections that keep `p`'s edges, up to `p`'s own symmetries.
fn copies(p: &Pattern, h: &Pattern) -> u64 {
    assert_eq!(p.size(), h.size());
    let mut maps = 0u64;
    permutations(&mut (0..p.size()).collect(), 0, &mut |to| {
        maps += u64::from(p.edges().iter().all(|&(u, v)| h.has_edge(to[u], to[v])));
    });
    maps / p.automorphism_count() as u64
}

#[test]
fn containment_coefficients_match_the_textbook() {
    let (c4, diamond, k4) = (Pattern::cycle(4), Pattern::diamond(), Pattern::k_clique(4));
    // #C₄ = ind(C₄) + ind(diamond) + 3·ind(K₄).
    assert_eq!((copies(&c4, &c4), copies(&c4, &diamond), copies(&c4, &k4)), (1, 1, 3));
    assert_eq!(copies(&c4, &Pattern::star(3)), 0);
    assert_eq!(copies(&Pattern::wedge(), &Pattern::triangle()), 3);
    assert_eq!(copies(&Pattern::path(4), &k4), 12);
    assert_eq!(copies(&diamond, &k4), 6);
}

/// The pair join's count map is dirty between its first bump and its last
/// undo. A panic there — the `csr_read` site fires before each survivor's
/// adjacency is streamed, so the third hit of a task lands after the first
/// survivor's bumps — must leave nothing behind: the retry of that task
/// and every task after it count exactly.
#[test]
fn a_panic_between_two_bumps_leaves_the_next_task_exact() {
    let g = generators::powerlaw_cluster(300, 5, 0.4, 23);
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let clean_cfg = EngineConfig::default();
    assert!(joins(&plan, &clean_cfg));
    let prepared = prepare(&g, &plan, &clean_cfg);
    let per_task = |cfg: &EngineConfig, v: VertexId| {
        let mut ex = Executor::new(&prepared, &plan, cfg);
        ex.run_vertex(v);
        ex.finish().counts[0]
    };
    // A start vertex whose join streams at least three survivors, the
    // first of which has something to bump, and whose 4-cycles are worth
    // losing.
    let below = |v: VertexId, b: VertexId| g.neighbors(v).iter().filter(move |&&x| x < b);
    let victim = g
        .vertices()
        .filter(|&v| below(v, v).count() >= 3)
        .filter(|&v| below(*below(v, v).next().expect("three of them"), v).count() > 0)
        .max_by_key(|&v| per_task(&clean_cfg, v))
        .expect("a vertex with three smaller neighbours");
    assert!(per_task(&clean_cfg, victim) > 0);

    let fp = failpoint::guard("csr_read", Trigger::OnNthHit(3), "between two bumps");
    let cfg = EngineConfig { failpoint_scope: fp.scope(), ..clean_cfg };
    let mut ex = Executor::new(&prepared, &plan, &cfg);
    // Hit 1 builds X's core, hit 2 precedes the first survivor's stream,
    // hit 3 the second's: the map holds the first survivor's bumps.
    assert!(!ex.run_vertex_isolated(victim), "the armed attempt must fault");
    let order: Vec<VertexId> =
        std::iter::once(victim).chain(g.vertices().filter(|&v| v != victim)).collect();
    let mut want = 0u64;
    for &v in &order {
        assert!(ex.run_vertex_isolated(v), "the trigger fired once");
        want += per_task(&clean_cfg, v);
    }
    let r = ex.finish();
    assert_eq!(r.counts, vec![want]);
    assert_eq!(r.counts, mine(&g, &plan, &clean_cfg).counts);
    assert_eq!(r.faults.len(), 1);
    assert_eq!((r.faults[0].vid, r.quarantined.len()), (victim.0, 1));
}

/// Recorded at the commit before the pass existed, on
/// `gen:powerlaw,n=2000,m=8,closure=0.4,seed=1`: unique counts and
/// `WorkCounters::words()` of four plans it declines — no twin (5-cycle,
/// house), a disconnection at the leaf (induced 4-cycle), no `Y < X` bound
/// (AutoMine 4-cycle). They must mine exactly as they did. (The commit
/// recorded a ninth word, the SIMD tier's dispatches; with the tier gone
/// they are on the merge tier.)
#[test]
fn declined_plans_charge_what_they_charged_before_the_pass() {
    let g = generators::powerlaw_cluster(2000, 8, 0.4, 1);
    #[rustfmt::skip]
    let pins: [(Pattern, CompileOptions, u64, [u64; WorkCounters::WORDS]); 4] = [
        (Pattern::cycle(5), CompileOptions::default(), 2729041,
         [31082193, 885460, 80830082, 3918106, 3688297, 306095, 470, 578895]),
        (Pattern::house(), CompileOptions::default(), 2971364,
         [32987711, 933056, 33009642, 4990107, 3936180, 144109, 323, 788624]),
        (Pattern::cycle(4), CompileOptions::induced(), 62198,
         [2521791, 107788, 7185128, 124074, 126074, 94722, 359, 12707]),
        (Pattern::cycle(4), CompileOptions::automine(), 118809,
         [39703247, 1043258, 40457029, 3100844, 2027658, 797188, 13326, 232744]),
    ];
    for (pattern, options, count, words) in pins {
        let plan = compile(&pattern, options);
        let cfg = EngineConfig::with_threads(3);
        let decided: Vec<CountRule> =
            count_program(&plan, &cfg).nodes.iter().map(|n| n.count).collect();
        let (leaf, inner) = decided.split_last().expect("a plan has nodes");
        assert!(inner.iter().all(|r| *r == CountRule::Enumerate), "{plan}{decided:?}");
        assert!(matches!(leaf, CountRule::Tail { k: 1, .. }), "{plan}{decided:?}");
        let r = mine(&g, &plan, &cfg);
        assert_eq!(r.unique_counts(&plan), vec![count], "{plan}");
        assert_eq!(r.work.words(), words, "{plan}");
    }
}
