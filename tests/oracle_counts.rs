//! Closed-form count oracles on structured graphs.
//!
//! Every count below has a pencil-and-paper derivation, so a failure
//! pinpoints an algorithmic bug rather than a differential one.

use flexminer::apps;
use flexminer::{EngineConfig, Miner, Pattern, SimConfig};
use fm_graph::generators;

fn count(g: &fm_graph::CsrGraph, p: Pattern) -> u64 {
    Miner::new(g).pattern(p).run().expect("job is valid").count()
}

fn choose(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let mut r = 1u64;
    for i in 0..k {
        r = r * (n - i) / (i + 1);
    }
    r
}

#[test]
fn complete_graph_counts() {
    let g = generators::complete(9);
    assert_eq!(count(&g, Pattern::triangle()), choose(9, 3));
    assert_eq!(count(&g, Pattern::k_clique(4)), choose(9, 4));
    assert_eq!(count(&g, Pattern::k_clique(5)), choose(9, 5));
    // Wedges: 9 centers x C(8,2) pairs.
    assert_eq!(count(&g, Pattern::wedge()), 9 * choose(8, 2));
    // 4-cycles: 3 per 4-subset.
    assert_eq!(count(&g, Pattern::cycle(4)), 3 * choose(9, 4));
    // Diamonds: 6 per 4-subset (choose the missing edge).
    assert_eq!(count(&g, Pattern::diamond()), 6 * choose(9, 4));
    // Edge-induced tailed triangles: C(9,3) triangles x 3 attachment
    // vertices x 6 remaining tails.
    assert_eq!(count(&g, Pattern::tailed_triangle()), choose(9, 3) * 3 * 6);
}

#[test]
fn bipartite_counts() {
    let g = generators::complete_bipartite(5, 7);
    assert_eq!(count(&g, Pattern::triangle()), 0);
    assert_eq!(count(&g, Pattern::k_clique(4)), 0);
    assert_eq!(count(&g, Pattern::cycle(4)), choose(5, 2) * choose(7, 2));
    // Wedges centered on each side.
    assert_eq!(count(&g, Pattern::wedge()), 5 * choose(7, 2) + 7 * choose(5, 2));
    // 6-cycles: pick 3 on each side (ordered cyclically): C(5,3)*C(7,3)*3!*2!/2 = 6 per
    // unordered pair of triples... verified combinatorially: #C6 = C(5,3)*C(7,3)*6.
    assert_eq!(count(&g, Pattern::cycle(6)), choose(5, 3) * choose(7, 3) * 6);
}

#[test]
fn cycle_and_path_counts() {
    let c12 = generators::cycle(12);
    assert_eq!(count(&c12, Pattern::cycle(12)), 1);
    assert_eq!(count(&c12, Pattern::triangle()), 0);
    assert_eq!(count(&c12, Pattern::cycle(4)), 0);
    // Paths of 4 vertices in a 12-cycle: one per starting edge position.
    assert_eq!(count(&c12, Pattern::path(4)), 12);
    let p10 = generators::path(10);
    assert_eq!(count(&p10, Pattern::path(4)), 7);
    assert_eq!(count(&p10, Pattern::wedge()), 8);
}

#[test]
fn grid_counts() {
    let g = generators::grid(6, 5);
    assert_eq!(count(&g, Pattern::triangle()), 0);
    assert_eq!(count(&g, Pattern::cycle(4)), 5 * 4);
    // Stars of 3 leaves: one per vertex of degree >= 3 with C(d,3).
    let expected: u64 = g.vertices().map(|v| choose(g.degree(v) as u64, 3)).sum();
    assert_eq!(count(&g, Pattern::star(3)), expected);
}

#[test]
fn star_counts() {
    let g = generators::star(10);
    assert_eq!(count(&g, Pattern::wedge()), choose(10, 2));
    assert_eq!(count(&g, Pattern::star(3)), choose(10, 3));
    assert_eq!(count(&g, Pattern::triangle()), 0);
}

#[test]
fn caveman_clique_counts() {
    let g = generators::caveman(7, 8, 0, 3);
    for k in 3..=6 {
        assert_eq!(
            apps::k_clique_count(&g, k, EngineConfig::default()).expect("valid"),
            7 * choose(8, k as u64),
            "k = {k}"
        );
    }
}

#[test]
fn accelerator_matches_oracles_too() {
    let g = generators::complete_bipartite(4, 6);
    let plan = Miner::new(&g).pattern(Pattern::cycle(4)).plan().expect("valid");
    let report = fm_sim::simulate(&g, &plan, &SimConfig::default());
    assert_eq!(report.counts, vec![choose(4, 2) * choose(6, 2)]);
}

#[test]
fn motif_census_totals_match_subset_enumeration() {
    // Over any graph, the 3-motif census partitions all connected induced
    // 3-subsets: wedges + triangles = sum over v of C(deg(v),2) - 2*triangles...
    // Simpler invariant: wedge_count_edge_induced = induced_wedges + 3*triangles.
    let g = generators::powerlaw_cluster(120, 4, 0.6, 2);
    let census = apps::motif_census(&g, 3, EngineConfig::default()).expect("valid");
    let by_name: std::collections::HashMap<_, _> = census.into_iter().collect();
    let edge_induced_wedges = count(&g, Pattern::wedge());
    let triangles = count(&g, Pattern::triangle());
    assert_eq!(by_name["triangle"], triangles);
    assert_eq!(by_name["wedge"] + 3 * triangles, edge_induced_wedges);
}
