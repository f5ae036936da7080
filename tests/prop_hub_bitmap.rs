//! Differential property tests for the hub-bitmap probe tier: enabling
//! the index must be invisible to results — identical per-pattern counts
//! and identical `RunStatus` across all stock patterns, thread counts
//! and memory budgets — including under a tight `Budget`,
//! where each partial run must stay exact over its completed set. Where
//! no dispatch is bounded, the probe tier also never adds a set-op
//! iteration (see [`probes_add_no_iterations`]).

use fm_engine::{mine, prepare, Budget, EngineConfig, Executor, RunStatus};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use proptest::prelude::*;

/// Random graphs skewed enough to contain indexable hubs: power-law
/// bodies with a few explicit high-degree attachments, or uniform ER.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    let hubbed =
        (20u32..60, 2u32..=4, 10u32..40, any::<u64>()).prop_map(|(n, m, hub_deg, seed)| {
            let base = generators::powerlaw_cluster(n as usize, m as usize, 0.5, seed);
            let deg = (hub_deg as usize).min(base.num_vertices());
            generators::attach_hubs(&base, 2, deg, seed ^ 0x9e37)
        });
    let er = (10u32..50, 1u32..=4, any::<u64>())
        .prop_map(|(n, p10, seed)| generators::erdos_renyi(n as usize, p10 as f64 / 10.0, seed));
    (any::<bool>(), hubbed, er).prop_map(|(pick, h, e)| if pick { h } else { e })
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

/// A config pair with and without a hub index (a budget of 0 is the off
/// switch); the threshold is low so small random graphs actually exercise
/// the probe tier.
fn cfg_pair(threads: usize, hub_memory_budget: usize) -> [EngineConfig; 2] {
    let on = EngineConfig {
        threads,
        hub_degree_threshold: 4,
        hub_memory_budget,
        ..EngineConfig::default()
    };
    let off = EngineConfig { hub_memory_budget: 0, ..on };
    [on, off]
}

/// Whether no op of `plan` carries a symmetry bound, so that every set
/// operation it dispatches is unbounded: the oriented clique plans, and
/// anything compiled without symmetry breaking.
fn unbounded(plan: &ExecutionPlan) -> bool {
    plan.root.iter().all(|n| n.op.upper_bounds.is_empty())
}

/// "Probes only remove set-op iterations", where that is a theorem: an
/// *unbounded* merge runs one operand out, so it walks at least the `|a|`
/// steps a probe streams (`setops::dispatch`), and with `gallop_ratio: 0`
/// no gallop is there to undercut either. A *bounded* intersection merge
/// stops on whichever cursor passes the bound first, which can be sooner
/// than the probe's walk over `a` below it, so a bounded plan is held to
/// no such inequality (ROADMAP, open items). Returns the probes dispatched.
fn probes_add_no_iterations(
    g: &CsrGraph,
    plan: &ExecutionPlan,
    hub_memory_budget: usize,
) -> Result<u64, TestCaseError> {
    assert!(unbounded(plan), "the inequality is only claimed for unbounded plans");
    let [on, off] = cfg_pair(1, hub_memory_budget).map(|c| EngineConfig { gallop_ratio: 0, ..c });
    let (r_on, r_off) = (mine(g, plan, &on), mine(g, plan, &off));
    prop_assert_eq!(&r_on.counts, &r_off.counts);
    prop_assert!(
        r_on.work.setop_iterations <= r_off.work.setop_iterations,
        "probe tier added iterations: {} > {} over {} probes",
        r_on.work.setop_iterations,
        r_off.work.setop_iterations,
        r_on.work.probe_dispatches
    );
    Ok(r_on.work.probe_dispatches)
}

/// Replays `completed` sequentially under `cfg` and returns the counts —
/// the bit-for-bit exactness oracle for partial results.
fn replay(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig, completed: &[u32]) -> Vec<u64> {
    let prepared = prepare(g, plan, cfg);
    let mut ex = Executor::new(&prepared, plan, cfg);
    for &v in completed {
        ex.run_vertex(VertexId(v));
    }
    ex.finish().counts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The hub index on/off is result-invisible: identical counts and
    /// identical `RunStatus` for every stock pattern × threads {1,4},
    /// with both a roomy and an over-tight memory budget
    /// (the latter silently degrades to no index). Every plan without a
    /// bound — as compiled, or with symmetry breaking off — also gains no
    /// set-op iteration from the index.
    #[test]
    fn hub_bitmap_is_result_invisible(
        g in arb_graph(),
        tight_budget in any::<bool>(),
    ) {
        let mem = if tight_budget { 64 } else { 1 << 22 };
        for pattern in stock_patterns() {
            let plan = compile(&pattern, CompileOptions::default());
            for threads in [1usize, 4] {
                let [on, off] = cfg_pair(threads, mem);
                let r_on = mine(&g, &plan, &on);
                let r_off = mine(&g, &plan, &off);
                prop_assert_eq!(
                    &r_on.counts, &r_off.counts,
                    "{} threads={} mem={}", pattern, threads, mem
                );
                prop_assert_eq!(r_on.status, r_off.status, "{} threads={}", pattern, threads);
                prop_assert_eq!(r_on.status, RunStatus::Complete);
                prop_assert_eq!(r_off.work.probe_dispatches, 0, "index off must never probe");
            }
            let unsymmetric = CompileOptions { symmetry: false, ..CompileOptions::default() };
            for plan in [plan, compile(&pattern, unsymmetric)] {
                if unbounded(&plan) {
                    probes_add_no_iterations(&g, &plan, mem)?;
                }
            }
        }
    }

    /// Under a tight set-op budget both modes stop early with
    /// `BudgetExhausted`, and each run's partial counts replay bit-for-bit
    /// over its reported completed set.
    #[test]
    fn tight_budget_partials_stay_exact(g in arb_graph()) {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        for threads in [1usize, 4] {
            let [on, off] = cfg_pair(threads, 1 << 22);
            let full = mine(&g, &plan, &on);
            // Small graphs can be too cheap to exhaust deterministically;
            // only assert where a strict cut exists for both modes.
            if full.work.setop_iterations < 9 {
                return Ok(());
            }
            let budget = Budget::with_max_setop_iterations(full.work.setop_iterations / 3);
            for cfg in [on, off] {
                let cfg = EngineConfig { budget, ..cfg };
                let r = mine(&g, &plan, &cfg);
                prop_assert_eq!(
                    r.status, RunStatus::BudgetExhausted,
                    "threads={} hub budget={}", threads, cfg.hub_memory_budget
                );
                let replayed = replay(&g, &plan, &cfg, &r.completed);
                prop_assert_eq!(
                    &r.counts, &replayed,
                    "partial not exact: threads={} hub budget={}", threads, cfg.hub_memory_budget
                );
            }
        }
    }
}

/// The acceptance-criteria fixture: one power-law and one mesh-like graph,
/// every stock pattern, 1 and 4 threads, hub on/off — identical counts,
/// and the probe tier demonstrably engaged on the hub-heavy input.
#[test]
fn differential_equality_on_powerlaw_and_mesh() {
    let powerlaw =
        generators::attach_hubs(&generators::powerlaw_cluster(250, 4, 0.5, 7), 4, 120, 11);
    let mesh = generators::grid(16, 12);
    let mut probes_on_powerlaw = 0;
    for (name, g) in [("powerlaw", &powerlaw), ("mesh", &mesh)] {
        for pattern in stock_patterns() {
            let plan = compile(&pattern, CompileOptions::default());
            for threads in [1usize, 4] {
                let [on, off] = cfg_pair(threads, 1 << 24);
                let r_on = mine(g, &plan, &on);
                let r_off = mine(g, &plan, &off);
                assert_eq!(r_on.counts, r_off.counts, "{name} {pattern} threads={threads}");
                assert_eq!(r_on.status, r_off.status, "{name} {pattern} threads={threads}");
                assert_eq!(r_off.work.probe_dispatches, 0, "index off must never probe");
                if *name == *"powerlaw" {
                    probes_on_powerlaw += r_on.work.probe_dispatches;
                }
            }
        }
    }
    assert!(probes_on_powerlaw > 0, "hub-heavy input must exercise the probe tier");
}

/// The iteration inequality on a hub-heavy fixture, where it has probes to
/// speak about: every stock pattern compiled without symmetry bounds. A
/// tree (wedge, 4-path, 3-star) closes no edge, so it intersects nothing.
#[test]
fn probes_add_no_iterations_to_unbounded_plans() {
    let g = generators::attach_hubs(&generators::powerlaw_cluster(120, 3, 0.5, 7), 4, 60, 11);
    for pattern in stock_patterns() {
        let plan = compile(&pattern, CompileOptions { symmetry: false, ..Default::default() });
        let probes = probes_add_no_iterations(&g, &plan, 1 << 24)
            .unwrap_or_else(|e| panic!("{pattern}: {e}"));
        let tree = pattern.edge_count() + 1 == pattern.size();
        assert_eq!(probes == 0, tree, "{pattern}: {probes} probes");
    }
}
