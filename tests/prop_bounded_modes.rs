//! Differential property tests for the bounded-merge pushdown and the
//! adaptive set-op dispatch: every optimized executor mode must report
//! byte-identical `unique_counts` to the paper-faithful executor on random
//! Erdős–Rényi and power-law graphs, across all stock patterns.

use fm_engine::{count_program, mine, EngineConfig, MiningResult};
use fm_graph::CsrGraph;
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, CountRule, ExecutionPlan};
use proptest::prelude::*;

/// Random graphs from both generator families the paper evaluates on:
/// uniform (Erdős–Rényi) and skewed (power-law with clustering).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    let er = (10u32..70, 1u32..=4, any::<u64>()).prop_map(|(n, p10, seed)| {
        fm_graph::generators::erdos_renyi(n as usize, p10 as f64 / 10.0, seed)
    });
    let pl = (10u32..70, 2u32..=5, 1u32..=9, any::<u64>()).prop_map(|(n, m, p10, seed)| {
        fm_graph::generators::powerlaw_cluster(n as usize, m as usize, p10 as f64 / 10.0, seed)
    });
    (any::<bool>(), er, pl).prop_map(|(pick_er, er, pl)| if pick_er { er } else { pl })
}

/// Every stock pattern, including the bound-heavy cycles and the oriented
/// clique plans.
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

fn run(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig) -> (Vec<u64>, MiningResult) {
    let result = mine(g, plan, cfg);
    (result.unique_counts(plan), result)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Bounded-build and adaptive-gallop candidate generation are
    /// count-preserving relative to the faithful executor, and the bound
    /// pushdown never adds set-op iterations. (A pair join is no pushdown:
    /// it charges its sweep where the faithful plan may stop a merge
    /// early; `prop_engine_lattice.rs` bounds it instead.)
    #[test]
    fn optimized_modes_match_faithful_unique_counts(g in arb_graph()) {
        for pattern in stock_patterns() {
            for options in [CompileOptions::default(), CompileOptions::induced()] {
                let plan = compile(&pattern, options);
                let faithful = EngineConfig::paper_faithful();
                let bounded = EngineConfig { gallop_ratio: 0, ..Default::default() };
                // Ratio 1 dispatches to galloping at the slightest skew,
                // exercising that kernel far more than the default 16.
                let adaptive = EngineConfig { gallop_ratio: 1, ..Default::default() };
                let (base, base_result) = run(&g, &plan, &faithful);
                let (bounded_counts, bounded_result) = run(&g, &plan, &bounded);
                let (adaptive_counts, _) = run(&g, &plan, &adaptive);
                prop_assert_eq!(&base, &bounded_counts, "bounded vs faithful: {}", pattern);
                prop_assert_eq!(&base, &adaptive_counts, "adaptive vs faithful: {}", pattern);
                let joined = count_program(&plan, &bounded)
                    .nodes
                    .iter()
                    .any(|n| matches!(n.count, CountRule::PairJoin { .. }));
                prop_assert!(
                    joined
                        || bounded_result.work.setop_iterations <= base_result.work.setop_iterations,
                    "pushdown added merge work: {}", pattern
                );
            }
        }
    }
}
