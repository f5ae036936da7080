//! Property-based invariants (proptest) across the whole stack.

use fm_engine::{mine, oblivious, EngineConfig};
use fm_graph::{generators, orient_by_degree, GraphBuilder, VertexId};
use fm_pattern::{analysis, motifs, Pattern};
use fm_plan::{compile, CompileOptions};
use fm_sim::{simulate, SimConfig};
use proptest::prelude::*;

/// Arbitrary small simple graphs as edge lists.
fn arb_graph(max_v: u32, max_e: usize) -> impl Strategy<Value = fm_graph::CsrGraph> {
    prop::collection::vec((0..max_v, 0..max_v), 0..max_e).prop_map(move |edges| {
        GraphBuilder::new().vertices(max_v as usize).edges(edges).build().expect("simple graph")
    })
}

/// Arbitrary small connected patterns.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop::sample::select(vec![
        Pattern::triangle(),
        Pattern::wedge(),
        Pattern::cycle(4),
        Pattern::diamond(),
        Pattern::tailed_triangle(),
        Pattern::k_clique(4),
        Pattern::path(4),
        Pattern::star(3),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Orientation keeps exactly one direction per edge and is acyclic.
    #[test]
    fn orientation_invariants(g in arb_graph(60, 200)) {
        let dag = orient_by_degree(&g);
        prop_assert_eq!(dag.num_directed_edges(), g.num_undirected_edges());
        for (u, v) in dag.edges() {
            prop_assert!((g.degree(u), u) < (g.degree(v), v));
            prop_assert!(!dag.has_edge(v, u));
        }
    }

    /// The engine count equals brute-force ESU-with-iso-check for
    /// vertex-induced mining.
    #[test]
    fn engine_matches_esu_for_induced_patterns(g in arb_graph(28, 90), p in arb_pattern()) {
        let plan = compile(&p, CompileOptions::induced());
        let aware = mine(&g, &plan, &EngineConfig::default());
        let oracle = oblivious::count_induced(&g, std::slice::from_ref(&p), 1);
        prop_assert_eq!(aware.counts, oracle.counts);
    }

    /// Symmetry breaking counts each embedding exactly once: the AutoMine
    /// (no-symmetry) raw count equals |Aut(P)| times the GraphZero count.
    #[test]
    fn symmetry_breaking_counts_each_embedding_once(g in arb_graph(26, 80), p in arb_pattern()) {
        let sym = compile(&p, CompileOptions::default());
        let auto = compile(&p, CompileOptions::automine());
        let a = mine(&g, &sym, &EngineConfig::default()).counts[0];
        let b = mine(&g, &auto, &EngineConfig::default()).counts[0];
        prop_assert_eq!(b, a * p.automorphism_count() as u64);
    }

    /// The simulator is functionally identical to the engine.
    #[test]
    fn simulator_matches_engine(g in arb_graph(30, 100), p in arb_pattern()) {
        let plan = compile(&p, CompileOptions::default());
        let sw = mine(&g, &plan, &EngineConfig::default());
        let hw = simulate(&g, &plan, &SimConfig { num_pes: 3, cmap_bytes: 256, ..Default::default() });
        prop_assert_eq!(sw.counts, hw.counts);
    }

    /// Analysis produces a pattern isomorphic to the input, with a valid
    /// connected matching order.
    #[test]
    fn analysis_invariants(p in arb_pattern()) {
        let a = analysis::analyze(&p);
        prop_assert!(a.pattern.is_isomorphic(&p));
        for (i, ca) in a.connected_ancestors.iter().enumerate() {
            if i > 0 {
                prop_assert!(!ca.is_empty());
            }
            for l in ca.iter() {
                prop_assert!(l < i);
                prop_assert!(a.pattern.has_edge(l, i));
            }
        }
    }

    /// Motif counts over all k-motifs partition the connected induced
    /// k-subgraph population (every subgraph is isomorphic to exactly one
    /// motif).
    #[test]
    fn motif_census_is_a_partition(g in arb_graph(22, 70)) {
        let ms = motifs::motifs(3);
        let census = oblivious::count_induced(&g, &ms, 1);
        // Count connected induced 3-subgraphs directly.
        let mut brute = 0u64;
        let n = g.num_vertices();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let (va, vb, vc) = (VertexId(a as u32), VertexId(b as u32), VertexId(c as u32));
                    let e = [g.has_edge(va, vb), g.has_edge(va, vc), g.has_edge(vb, vc)];
                    let edges = e.iter().filter(|&&x| x).count();
                    if edges >= 2 {
                        brute += 1;
                    }
                }
            }
        }
        prop_assert_eq!(census.counts.iter().sum::<u64>(), brute);
    }

    /// Graph IO round-trips.
    #[test]
    fn graph_io_round_trips(g in arb_graph(40, 150)) {
        let mut text = Vec::new();
        fm_graph::io::write_edge_list(&g, &mut text).expect("write");
        prop_assert_eq!(fm_graph::io::read_edge_list(text.as_slice()).expect("read"), g);
    }
}

#[test]
fn deterministic_generators_survive_shuffle_roundtrip_stats() {
    // Non-proptest sanity for shuffle: degree histograms invariant.
    let g = generators::powerlaw_cluster(300, 5, 0.5, 77);
    let s = generators::shuffle_ids(&g, 3);
    let mut a = fm_graph::stats::degree_histogram(&g);
    let mut b = fm_graph::stats::degree_histogram(&s);
    let len = a.len().max(b.len());
    a.resize(len, 0);
    b.resize(len, 0);
    assert_eq!(a, b);
}
