//! Cross-engine equivalence: every executor in the workspace must produce
//! identical counts for identical plans.
//!
//! This is the load-bearing correctness property of the reproduction: the
//! sequential software engine, the multithreaded engine, the
//! paper-faithful engine, the pattern-oblivious ESU oracle, and the
//! cycle-level hardware simulator (across c-map configurations, including forced
//! overflow) all count the same embeddings.

use fm_engine::{mine, oblivious, EngineConfig};
use fm_graph::{generators, CsrGraph};
use fm_pattern::{motifs, Pattern};
use fm_plan::{compile, compile_multi, CompileOptions, ExecutionPlan};
use fm_sim::{simulate, SimConfig};

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("powerlaw", generators::powerlaw_cluster(220, 4, 0.5, 11)),
        ("er-dense", generators::erdos_renyi(90, 0.25, 3)),
        ("bipartite", generators::complete_bipartite(12, 13)),
        ("grid", generators::grid(9, 8)),
        (
            "hubbed",
            generators::shuffle_ids(
                &generators::attach_hubs(&generators::powerlaw_cluster(150, 3, 0.4, 5), 3, 60, 8),
                2,
            ),
        ),
        ("caveman", generators::caveman(8, 9, 30, 4)),
    ]
}

fn patterns() -> Vec<Pattern> {
    vec![
        Pattern::triangle(),
        Pattern::wedge(),
        Pattern::cycle(4),
        Pattern::cycle(5),
        Pattern::diamond(),
        Pattern::tailed_triangle(),
        Pattern::k_clique(4),
        Pattern::k_clique(5),
        Pattern::path(4),
        Pattern::star(3),
        Pattern::house(),
    ]
}

fn all_executor_counts(g: &CsrGraph, plan: &ExecutionPlan) -> Vec<(String, Vec<u64>)> {
    let mut out = vec![
        ("engine-1t".into(), mine(g, plan, &EngineConfig::default()).counts),
        ("engine-4t".into(), mine(g, plan, &EngineConfig::with_threads(4)).counts),
        ("engine-faithful".into(), mine(g, plan, &EngineConfig::paper_faithful()).counts),
    ];
    for (name, cfg) in [
        ("sim-default", SimConfig::with_pes(4)),
        ("sim-nocmap", SimConfig { num_pes: 3, cmap_bytes: 0, ..Default::default() }),
        ("sim-tinycmap", SimConfig { num_pes: 2, cmap_bytes: 80, ..Default::default() }),
        ("sim-unlimited", SimConfig { num_pes: 5, cmap_bytes: usize::MAX, ..Default::default() }),
        ("sim-narrow-value", SimConfig { num_pes: 2, cmap_value_bits: 2, ..Default::default() }),
        ("sim-nomemo", SimConfig { num_pes: 2, frontier_memo: false, ..Default::default() }),
    ] {
        out.push((name.into(), simulate(g, plan, &cfg).counts));
    }
    out
}

#[test]
fn every_executor_agrees_on_every_pattern() {
    for (gname, g) in graphs() {
        for p in patterns() {
            let plan = compile(&p, CompileOptions::default());
            let results = all_executor_counts(&g, &plan);
            let reference = &results[0].1;
            for (ename, counts) in &results[1..] {
                assert_eq!(counts, reference, "{ename} disagrees on {p} over {gname}");
            }
        }
    }
}

#[test]
fn induced_motif_counting_agrees_with_esu_oracle() {
    for (gname, g) in graphs() {
        for k in [3usize, 4] {
            let ms = motifs::motifs(k);
            let plan = compile_multi(&ms, CompileOptions::induced());
            let results = all_executor_counts(&g, &plan);
            let oracle = oblivious::count_induced(&g, &ms, 1);
            for (ename, counts) in &results {
                assert_eq!(
                    counts, &oracle.counts,
                    "{ename} disagrees with ESU on {k}-motifs over {gname}"
                );
            }
        }
    }
}

#[test]
fn automine_mode_agrees_after_normalization() {
    for (gname, g) in graphs().into_iter().take(3) {
        for p in [Pattern::triangle(), Pattern::cycle(4), Pattern::diamond()] {
            let sym = compile(&p, CompileOptions::default());
            let auto = compile(&p, CompileOptions::automine());
            let a = mine(&g, &sym, &EngineConfig::default());
            let b = mine(&g, &auto, &EngineConfig::default());
            assert_eq!(
                a.unique_counts(&sym),
                b.unique_counts(&auto),
                "automine normalization diverges for {p} over {gname}"
            );
            let sim = simulate(&g, &auto, &SimConfig::with_pes(2));
            assert_eq!(sim.counts, b.counts, "sim automine diverges for {p} over {gname}");
        }
    }
}

#[test]
fn multi_pattern_plans_agree_with_individual_plans() {
    let g = generators::powerlaw_cluster(150, 4, 0.5, 21);
    let set = [Pattern::diamond(), Pattern::tailed_triangle(), Pattern::cycle(4)];
    let multi = compile_multi(&set, CompileOptions::default());
    let merged = mine(&g, &multi, &EngineConfig::default()).counts;
    let sim_merged = simulate(&g, &multi, &SimConfig::with_pes(3)).counts;
    assert_eq!(merged, sim_merged);
    for (i, p) in set.iter().enumerate() {
        let single = compile(p, CompileOptions::default());
        let alone = mine(&g, &single, &EngineConfig::default()).counts[0];
        assert_eq!(merged[i], alone, "pattern {p} diverges in the merged plan");
    }
}
