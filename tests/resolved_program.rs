//! The resolved program and the fused last level (DESIGN.md §6g), checked
//! against the code they replaced rather than against themselves.
//!
//! - **Pins.** Unique counts and every [`WorkCounters`] word of the six
//!   stock requests and `motifs 4`, on a power-law and a caveman graph,
//!   under the default, `hub_memory_budget: 0` and `paper_faithful` configs,
//!   as the commit before the resolved program produced them (1 and 2
//!   threads agree): resolving the program once, fusing the last level,
//!   looking index rows up lazily and prefetching move no counter. (The
//!   rows carried four software-c-map words until that engine mode went;
//!   they were 0 in every row kept here. They carried a ninth word, the
//!   SIMD tier's dispatches, until that tier went: its dispatches are on
//!   the merge tier here, word for word the rows the parent recorded with
//!   the tier switched off.) The `default` and `no_hub` rows of the 4- and
//!   5-clique were re-recorded when those plans moved to the local clique
//!   graph (DESIGN.md §6f): their counts, `candidates_checked` and
//!   `extensions` are the enumeration's, and only the set-op words moved.
//! - **Per task.** On arbitrary patterns and graphs, after each
//!   `run_vertex(v)` the fused executor's counts equal those of one forced
//!   to enumerate (`collect_matches`), and an observed run reports the
//!   same counters as an unobserved one, its depth series partitioning
//!   them.
//! - **The lazy-row rule is exact.** A hub row exists only for a vertex of
//!   at least `degree_threshold()` neighbours (under a tight budget too),
//!   so skipping the lookup for shorter lists skips nothing.
//! - **Faults.** A `csr_read` failpoint that fires between two survivors
//!   of the fused loop rolls the task back to exactly nothing.

use fm_engine::failpoint::{self, Trigger};
use fm_engine::{
    count_program, mine, mine_prepared, mine_prepared_observed, prepare, EngineConfig, Executor,
    RunStatus, TelemetryOptions, WorkCounters,
};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_pattern::{motifs, Pattern};
use fm_plan::{compile, compile_multi, CompileOptions, CountRule, ExecutionPlan, Survivors};
use proptest::prelude::*;

/// The six stock requests of the benchmark's CLI workloads, plus `motifs 4`.
fn requests() -> Vec<(&'static str, ExecutionPlan)> {
    let single = |p: Pattern| compile(&p, CompileOptions::default());
    vec![
        ("triangle", single(Pattern::triangle())),
        ("4-clique", single(Pattern::k_clique(4))),
        ("5-clique", single(Pattern::k_clique(5))),
        ("4-cycle", single(Pattern::cycle(4))),
        ("diamond", single(Pattern::diamond())),
        ("motifs 3", compile_multi(&motifs::motifs(3), CompileOptions::induced())),
        ("motifs 4", compile_multi(&motifs::motifs(4), CompileOptions::induced())),
    ]
}

fn config(name: &str) -> EngineConfig {
    let d = EngineConfig::default();
    match name {
        "default" => d,
        "no_hub" => EngineConfig { hub_memory_budget: 0, ..d },
        "faithful" => EngineConfig::paper_faithful(),
        other => panic!("unknown config {other}"),
    }
}

/// `(request, config, unique counts, WorkCounters::words())`.
type Pin = (&'static str, &'static str, &'static [u64], [u64; WorkCounters::WORDS]);

/// Recorded at the parent commit on `powerlaw_cluster(2000, 8, 0.4, 7)`.
#[rustfmt::skip]
const POWERLAW: [Pin; 21] = [
    ("triangle", "default", &[10058],
     [166564, 15964, 166564, 26022, 28022, 15747, 217, 0]),
    ("triangle", "no_hub", &[10058],
     [166564, 15964, 166564, 26022, 28022, 15747, 217, 0]),
    ("triangle", "faithful", &[10058],
     [166564, 15964, 166564, 26022, 28022, 0, 0, 0]),
    ("4-clique", "default", &[1965],
     [168529, 15964, 166564, 27987, 29987, 15747, 217, 0]),
    ("4-clique", "no_hub", &[1965],
     [168529, 15964, 166564, 27987, 29987, 15747, 217, 0]),
    ("4-clique", "faithful", &[1965],
     [221937, 26022, 221937, 27987, 29987, 0, 0, 0]),
    ("5-clique", "default", &[674],
     [169203, 15964, 166564, 28661, 30661, 15747, 217, 0]),
    ("5-clique", "no_hub", &[674],
     [169203, 15964, 166564, 28661, 30661, 15747, 217, 0]),
    ("5-clique", "faithful", &[674],
     [227061, 27987, 227061, 28661, 30661, 0, 0, 0]),
    ("4-cycle", "default", &[124212],
     [470093, 0, 106685, 15964, 126212, 0, 0, 0]),
    ("4-cycle", "no_hub", &[124212],
     [470093, 0, 106685, 15964, 126212, 0, 0, 0]),
    ("4-cycle", "faithful", &[124212],
     [5426784, 55832, 5426784, 269417, 198008, 0, 0, 0]),
    ("diamond", "default", &[65880],
     [380962, 15964, 380962, 47751, 83844, 8483, 0, 7481]),
    ("diamond", "no_hub", &[65880],
     [890389, 15964, 923584, 47751, 83844, 15395, 569, 0]),
    ("diamond", "faithful", &[65880],
     [982866, 15964, 982866, 143805, 114018, 0, 0, 0]),
    ("motifs 3", "default", &[495751, 10058],
     [696212, 47892, 2185190, 553701, 555701, 31056, 636, 16200]),
    ("motifs 3", "no_hub", &[495751, 10058],
     [729944, 47892, 2409318, 553701, 555701, 39553, 8339, 0]),
    ("motifs 3", "faithful", &[495751, 10058],
     [3019336, 47892, 2948598, 596081, 555701, 0, 0, 0]),
    ("motifs 4", "default", &[13791218, 12754502, 1532594, 64227, 54090, 1965],
     [57114034, 1251867, 80638465, 29047260, 29033296, 841785, 3295, 406787]),
    ("motifs 4", "no_hub", &[13791218, 12754502, 1532594, 64227, 54090, 1965],
     [67983961, 1251867, 92956705, 29047260, 29033296, 1237912, 13955, 0]),
    ("motifs 4", "faithful", &[13791218, 12754502, 1532594, 64227, 54090, 1965],
     [126892626, 1251867, 122919810, 29722336, 29033296, 0, 0, 0]),
];

/// Recorded at the parent commit on `caveman(200, 11, 1000, 7)`.
#[rustfmt::skip]
const CAVEMAN: [Pin; 21] = [
    ("triangle", "default", &[33003],
     [72363, 11996, 72363, 44999, 47199, 10726, 1270, 0]),
    ("triangle", "no_hub", &[33003],
     [72363, 11996, 72363, 44999, 47199, 10726, 1270, 0]),
    ("triangle", "faithful", &[33003],
     [72363, 11996, 72363, 44999, 47199, 0, 0, 0]),
    ("4-clique", "default", &[66000],
     [138363, 11996, 72363, 110999, 113199, 10726, 1270, 0]),
    ("4-clique", "no_hub", &[66000],
     [138363, 11996, 72363, 110999, 113199, 10726, 1270, 0]),
    ("4-clique", "faithful", &[66000],
     [212186, 44999, 212186, 110999, 113199, 0, 0, 0]),
    ("5-clique", "default", &[92400],
     [230763, 11996, 72363, 203399, 205599, 10726, 1270, 0]),
    ("5-clique", "no_hub", &[92400],
     [230763, 11996, 72363, 203399, 205599, 10726, 1270, 0]),
    ("5-clique", "faithful", &[92400],
     [418511, 110999, 418511, 203399, 205599, 0, 0, 0]),
    ("4-cycle", "default", &[198055],
     [81189, 0, 62266, 11996, 200255, 0, 0, 0]),
    ("4-cycle", "no_hub", &[198055],
     [81189, 0, 62266, 11996, 200255, 0, 0, 0]),
    ("4-cycle", "faithful", &[198055],
     [499322, 38082, 499322, 300273, 250333, 0, 0, 0]),
    ("diamond", "default", &[396027],
     [151371, 11996, 151371, 113067, 410223, 11996, 0, 0]),
    ("diamond", "no_hub", &[396027],
     [151371, 11996, 151371, 113067, 410223, 11996, 0, 0]),
    ("diamond", "faithful", &[396027],
     [151371, 11996, 151371, 608103, 509232, 0, 0, 0]),
    ("motifs 3", "default", &[20863, 33003],
     [193077, 35988, 668811, 89854, 92054, 33780, 2208, 0]),
    ("motifs 3", "no_hub", &[20863, 33003],
     [193077, 35988, 668811, 89854, 92054, 33780, 2208, 0]),
    ("motifs 3", "faithful", &[20863, 33003],
     [467469, 35988, 454113, 126713, 92054, 0, 0, 0]),
    ("motifs 4", "default", &[9810, 128348, 89627, 28, 27, 66000],
     [4830404, 597000, 7420214, 520264, 510468, 596989, 11, 0]),
    ("motifs 4", "no_hub", &[9810, 128348, 89627, 28, 27, 66000],
     [4830404, 597000, 7420214, 520264, 510468, 596989, 11, 0]),
    ("motifs 4", "faithful", &[9810, 128348, 89627, 28, 27, 66000],
     [7155524, 597000, 7000343, 763320, 510468, 0, 0, 0]),
];

#[test]
fn counts_and_counters_are_the_parent_commits() {
    let graphs = [
        ("powerlaw", generators::powerlaw_cluster(2000, 8, 0.4, 7), &POWERLAW),
        ("caveman", generators::caveman(200, 11, 1000, 7), &CAVEMAN),
    ];
    let plans = requests();
    for (graph, g, pins) in &graphs {
        for &(request, cfg_name, counts, words) in pins.iter() {
            let plan = &plans.iter().find(|(name, _)| *name == request).expect("a stock request").1;
            for threads in [1usize, 2] {
                let r = mine(g, plan, &EngineConfig { threads, ..config(cfg_name) });
                let ctx = format!("{graph} {request} {cfg_name} threads={threads}");
                assert_eq!(r.status, RunStatus::Complete, "{ctx}");
                assert_eq!(r.unique_counts(plan), counts, "{ctx}");
                assert_eq!(r.work.words(), words, "{ctx}");
                assert_eq!(r.work.simd_dispatches, 0, "{ctx}");
            }
        }
    }
}

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

/// Whether a count-only run of `plan` under `cfg` has a fused level: a node
/// it enumerates whose children are all counting kernels.
fn fuses(plan: &ExecutionPlan, cfg: &EngineConfig) -> bool {
    let prog = count_program(plan, cfg);
    let kernel = |c: &usize| {
        matches!(
            prog.nodes[*c].count,
            CountRule::Tail { survivors: Survivors::Intersect | Survivors::Difference, .. }
        )
    };
    prog.nodes.iter().skip(1).any(|n| {
        n.count == CountRule::Enumerate && !n.children.is_empty() && n.children.iter().all(kernel)
    })
}

/// Single patterns compiled three ways and both motif censuses: plans that
/// fuse one leaf (triangle, cliques, diamond, tailed triangle), two (the
/// 3-motif census), some of several (4-motifs) and none (4-cycle, paths).
fn arb_pattern() -> impl Strategy<Value = (String, ExecutionPlan)> {
    let singles = [
        Pattern::triangle(),
        Pattern::wedge(),
        Pattern::path(4),
        Pattern::cycle(4),
        Pattern::cycle(5),
        Pattern::diamond(),
        Pattern::tailed_triangle(),
        Pattern::house(),
        Pattern::k_clique(4),
        Pattern::k_clique(5),
    ];
    let mut plans = Vec::new();
    for (how, options) in [
        ("default", CompileOptions::default()),
        ("induced", CompileOptions::induced()),
        ("automine", CompileOptions::automine()),
    ] {
        for p in &singles {
            plans.push((format!("{p} {how}"), compile(p, options)));
        }
        for k in [3, 4] {
            plans.push((format!("motifs({k}) {how}"), compile_multi(&motifs::motifs(k), options)));
        }
    }
    prop::sample::select(plans)
}

#[test]
fn the_stock_plans_fuse_where_the_design_says() {
    let cfg = EngineConfig::default();
    let plans = requests();
    let fused: Vec<&str> =
        plans.iter().filter(|(_, plan)| fuses(plan, &cfg)).map(|(name, _)| *name).collect();
    // The joined 4-cycle dispatches nothing, the oriented cliques from four
    // vertices count in their local graph; everything else ends in a
    // counting kernel one level below an enumerated node.
    assert_eq!(fused, ["triangle", "diamond", "motifs 3", "motifs 4"]);
    for (name, plan) in &plans {
        let local = count_program(plan, &cfg)
            .nodes
            .iter()
            .any(|n| matches!(n.count, CountRule::Clique { .. }));
        assert_eq!(local, name.ends_with("-clique"), "{name}");
    }
    // Nothing fuses where the leaves scan: `paper_faithful`.
    assert!(plans.iter().all(|(_, plan)| !fuses(plan, &EngineConfig::paper_faithful())));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn fused_tasks_count_what_enumerated_tasks_count(
        g in arb_graph(),
        (ctx, plan) in arb_pattern(),
    ) {
        let cfg = EngineConfig::default();
        let prepared = prepare(&g, &plan, &cfg);
        // One enumerating executor walks every task and keeps what it
        // found; a fresh fused one per task shows that task alone, and one
        // fused executor across all tasks (what `mine` runs) the total.
        let mut walker = Executor::new(&prepared, &plan, &cfg);
        walker.collect_matches();
        let mut fused = Executor::new(&prepared, &plan, &cfg);
        let mut total = vec![0u64; plan.patterns.len()];
        for v in prepared.vertices() {
            let seen = walker.matches().len();
            walker.run_vertex(v);
            let mut walked = vec![0u64; plan.patterns.len()];
            for (pi, _) in &walker.matches()[seen..] {
                walked[*pi] += 1;
                total[*pi] += 1;
            }
            fused.run_vertex(v);
            let mut alone = Executor::new(&prepared, &plan, &cfg);
            alone.run_vertex(v);
            prop_assert_eq!(&alone.finish().counts, &walked, "start vertex {}: {}", v.0, &ctx);
        }
        let fused = fused.finish();
        prop_assert_eq!(&fused.counts, &total, "{}", &ctx);
        prop_assert_eq!(&walker.finish().counts, &total, "{}", &ctx);

        // Observed or not, the same counters; the depth series partition them.
        let plain = mine_prepared(&prepared, &plan, &cfg);
        prop_assert_eq!(&plain.counts, &total, "{}", &ctx);
        prop_assert_eq!(plain.work, fused.work, "the pool moved a counter: {}", &ctx);
        let metrics = TelemetryOptions { metrics: true, ..Default::default() };
        for threads in [1usize, 2] {
            let cfg = EngineConfig { threads, ..cfg };
            let watched = mine_prepared_observed(&prepared, &plan, &cfg, &metrics);
            prop_assert_eq!(&watched.counts, &total, "observed: {}", &ctx);
            prop_assert_eq!(watched.work, plain.work, "telemetry moved a counter: {}", &ctx);
            let shard = watched.telemetry.expect("metrics were on");
            let sum = |series: &[u64]| series.iter().sum::<u64>();
            let w = plain.work;
            for (series, word) in [
                (&shard.depth_setop_iterations, w.setop_iterations),
                (&shard.depth_setop_invocations, w.setop_invocations),
                (&shard.depth_merge, w.merge_dispatches),
                (&shard.depth_gallop, w.gallop_dispatches),
                (&shard.depth_probe, w.probe_dispatches),
            ] {
                prop_assert_eq!(sum(series), word, "a depth series lost work: {}", &ctx);
            }
            let tiers = w.merge_dispatches + w.gallop_dispatches + w.probe_dispatches;
            prop_assert_eq!(tiers, w.setop_invocations, "three tiers partition: {}", &ctx);
        }
    }
}

/// The lookup the dispatcher skips for short lists would have found
/// nothing: no hub row below the index's own threshold, whatever the
/// budget kept.
#[test]
fn short_lists_have_no_rows_to_look_up() {
    let body = generators::powerlaw_cluster(600, 6, 0.5, 3);
    let g = generators::attach_hubs(&body, 6, 300, 5);
    // The diamond's plan dispatches set ops on the unoriented graph, so
    // its prepare holds the index over `g` itself.
    let plan = compile(&Pattern::diamond(), CompileOptions::default());
    let roomy = EngineConfig::default();
    // Room for the row map and three rows: the budget evicts hubs.
    let tight_budget = g.num_vertices() * 4 + 3 * g.num_vertices().div_ceil(64) * 8;
    let tight = EngineConfig { hub_memory_budget: tight_budget, ..roomy };
    let mut kept = Vec::new();
    for cfg in [roomy, tight] {
        let prepared = prepare(&g, &plan, &cfg);
        let hubs = prepared.hubs().expect("a hub-heavy graph indexes hubs");
        assert_eq!(hubs.degree_threshold(), cfg.hub_degree_threshold);
        for v in g.vertices() {
            if hubs.row(v).is_some() {
                assert!(g.degree(v) >= hubs.degree_threshold(), "{v:?} under {cfg:?}");
            }
        }
        kept.push(hubs.num_hubs());
    }
    assert!(kept[0] > 3 && kept[1] == 3, "the tight budget must evict: {kept:?}");
    // And the runs agree on everything but how many probes there were to make.
    let (a, b) = (mine(&g, &plan, &roomy), mine(&g, &plan, &tight));
    assert_eq!(a.counts, b.counts);
    assert!(a.work.probe_dispatches > b.work.probe_dispatches && b.work.probe_dispatches > 0);
}

/// The fused loop hits `csr_read` once per survivor, where `step` hit it
/// once per entered candidate. Armed on the third hit of a task — one for
/// `v1`'s core, one for the first survivor's kernel, the third between two
/// survivors, after the first has been credited — the fault must roll the
/// task back to nothing: counts *and* counters of a run that retries it
/// later equal a clean run's.
#[test]
fn a_fault_inside_the_fused_loop_rolls_the_task_back() {
    let g = generators::powerlaw_cluster(300, 5, 0.4, 23);
    for pattern in [Pattern::triangle(), Pattern::diamond()] {
        let plan = compile(&pattern, CompileOptions::default());
        let clean_cfg = EngineConfig::default();
        assert!(fuses(&plan, &clean_cfg), "{pattern}");
        let prepared = prepare(&g, &plan, &clean_cfg);
        let per_task = |v: VertexId| {
            let mut ex = Executor::new(&prepared, &plan, &clean_cfg);
            ex.run_vertex(v);
            ex.finish()
        };
        // A task that credits something before its third `csr_read`.
        let victim = prepared
            .vertices()
            .filter(|&v| per_task(v).work.setop_invocations >= 3)
            .max_by_key(|&v| per_task(v).counts[0])
            .expect("a start vertex with three survivors");
        assert!(per_task(victim).counts[0] > 0);

        let fp = failpoint::guard("csr_read", Trigger::OnNthHit(3), "between two survivors");
        let cfg = EngineConfig { failpoint_scope: fp.scope(), ..clean_cfg };
        let mut ex = Executor::new(&prepared, &plan, &cfg);
        assert!(!ex.run_vertex_isolated(victim), "the armed attempt must fault");
        for v in std::iter::once(victim).chain(prepared.vertices().filter(|&v| v != victim)) {
            assert!(ex.run_vertex_isolated(v), "the trigger fired once");
        }
        let r = ex.finish();
        let clean = mine(&g, &plan, &clean_cfg);
        assert_eq!(r.counts, clean.counts, "{pattern}");
        assert_eq!(r.work, clean.work, "{pattern}: the rolled-back attempt left work behind");
        assert_eq!((r.faults.len(), r.quarantined.len()), (1, 1), "{pattern}");
        assert_eq!(r.faults[0].vid, victim.0);
        assert!(r.faults[0].payload.contains("between two survivors"), "{:?}", r.faults[0]);
    }
}
