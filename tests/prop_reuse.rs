//! Differential property tests for the intersection-reuse tier: serving
//! plan-proven sibling-invariant prefixes from the per-worker arena must
//! be invisible to results — identical per-pattern counts and identical
//! `RunStatus` across all stock patterns, thread counts, c-map modes,
//! hub-index modes, and SIMD modes — and invisible to every work counter
//! that describes *what* was enumerated rather than *how* candidate sets
//! were derived.
//!
//! What the tier is allowed to change, and what it is not:
//!
//! - `extensions`, `candidates_checked`, and the `cmap_*` family are
//!   asserted identical: reuse rewrites set-op dispatch, never the
//!   search tree.
//! - `setop_invocations` is asserted identical: every served dispatch
//!   charges exactly one invocation, like the kernel it replaces, and
//!   the five tier counters must partition it in both modes.
//! - `setop_iterations` and `comparisons` are deliberately *not*
//!   compared against the reuse-off run: a bitmap probe charges per
//!   streamed element while the adaptive dispatcher it displaced might
//!   have galloped or probed a hub row, so the sign of the delta depends
//!   on the operands. The invariant that matters — never more iterations
//!   than the paper-faithful engine — is pinned by
//!   `prop_bounded_modes.rs`.

use fm_engine::{mine, prepare, Budget, EngineConfig, Executor, RunStatus};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use proptest::prelude::*;

/// Random graphs from both evaluated families: skewed power-law bodies
/// (some with explicit hub attachments, so the hub and reuse tiers
/// compete for the same dispatches) and uniform ER.
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

/// A config pair differing only in `reuse`.
fn cfg_pair(threads: usize, use_cmap: bool, hub_bitmap: bool, simd: bool) -> [EngineConfig; 2] {
    let on = EngineConfig {
        threads,
        use_cmap,
        hub_bitmap,
        hub_degree_threshold: 4,
        simd,
        reuse: true,
        ..EngineConfig::default()
    };
    let off = EngineConfig { reuse: false, ..on };
    [on, off]
}

/// Asserts the result-invisibility contract between a reuse-on and a
/// reuse-off run of the same job.
fn assert_invisible(
    r_on: &fm_engine::MiningResult,
    r_off: &fm_engine::MiningResult,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&r_on.counts, &r_off.counts, "counts: {}", ctx);
    prop_assert_eq!(r_on.status, r_off.status, "status: {}", ctx);
    let (won, woff) = (&r_on.work, &r_off.work);
    prop_assert_eq!(won.extensions, woff.extensions, "extensions: {}", ctx);
    prop_assert_eq!(won.candidates_checked, woff.candidates_checked, "candidates: {}", ctx);
    prop_assert_eq!(won.cmap_inserts, woff.cmap_inserts, "cmap_inserts: {}", ctx);
    prop_assert_eq!(won.cmap_queries, woff.cmap_queries, "cmap_queries: {}", ctx);
    prop_assert_eq!(won.cmap_hits, woff.cmap_hits, "cmap_hits: {}", ctx);
    prop_assert_eq!(won.cmap_removes, woff.cmap_removes, "cmap_removes: {}", ctx);
    prop_assert_eq!(won.setop_invocations, woff.setop_invocations, "invocations: {}", ctx);
    for (tag, w) in [("on", won), ("off", woff)] {
        prop_assert_eq!(
            w.merge_dispatches
                + w.gallop_dispatches
                + w.probe_dispatches
                + w.simd_dispatches
                + w.reuse_hits,
            w.setop_invocations,
            "tier partition ({}): {}",
            tag,
            ctx
        );
    }
    prop_assert_eq!(woff.reuse_hits, 0, "off run must never hit: {}", ctx);
    prop_assert_eq!(woff.reuse_misses, 0, "off run must never miss: {}", ctx);
    prop_assert_eq!(woff.prefix_builds, 0, "off run must never build: {}", ctx);
    prop_assert_eq!(woff.reuse_bytes_hwm, 0, "off run must never account: {}", ctx);
    Ok(())
}

/// Replays `completed` sequentially under `cfg` and returns the counts —
/// the bit-for-bit exactness oracle for partial results. The reuse arena
/// resets at every start-vertex task, so a sequential replay matches any
/// parallel or stinted schedule exactly.
fn replay(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig, completed: &[u32]) -> Vec<u64> {
    let prepared = prepare(g, plan, cfg);
    let mut ex = Executor::new(&prepared, plan, cfg);
    for &v in completed {
        ex.run_vertex(VertexId(v));
    }
    ex.finish().counts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// reuse on/off is result-invisible for every stock pattern ×
    /// threads {1,4} × cmap × hub × simd.
    #[test]
    fn reuse_is_result_invisible(
        g in arb_graph(),
        use_cmap in any::<bool>(),
        hub_bitmap in any::<bool>(),
        simd in any::<bool>(),
    ) {
        for pattern in stock_patterns() {
            for options in [CompileOptions::default(), CompileOptions::induced()] {
                let plan = compile(&pattern, options);
                for threads in [1usize, 4] {
                    let [on, off] = cfg_pair(threads, use_cmap, hub_bitmap, simd);
                    let r_on = mine(&g, &plan, &on);
                    let r_off = mine(&g, &plan, &off);
                    let ctx = format!(
                        "{pattern} induced={} threads={threads} cmap={use_cmap} hub={hub_bitmap} simd={simd}",
                        plan.induced
                    );
                    assert_invisible(&r_on, &r_off, &ctx)?;
                    prop_assert_eq!(r_on.status, RunStatus::Complete);
                }
            }
        }
    }

    /// Under a tight set-op budget both modes stop early with
    /// `BudgetExhausted`, and each run's partial counts replay
    /// bit-for-bit over its reported completed set.
    #[test]
    fn tight_budget_partials_stay_exact(g in arb_graph(), use_cmap in any::<bool>()) {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        for threads in [1usize, 4] {
            let [on, off] = cfg_pair(threads, use_cmap, false, false);
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
                    "threads={} cmap={} reuse={}", threads, use_cmap, cfg.reuse
                );
                let replayed = replay(&g, &plan, &cfg, &r.completed);
                prop_assert_eq!(
                    &r.counts, &replayed,
                    "partial not exact: threads={} reuse={}", threads, cfg.reuse
                );
            }
        }
    }

    /// A zero-byte arena budget degrades to the reuse-off dispatcher
    /// exactly: identical counts *and* bit-identical `WorkCounters` —
    /// the tier is never consulted, so not even a miss is charged.
    #[test]
    fn zero_budget_degrades_to_plain_dispatch(g in arb_graph(), use_cmap in any::<bool>()) {
        for pattern in [Pattern::cycle(4), Pattern::diamond(), Pattern::house()] {
            let plan = compile(&pattern, CompileOptions::default());
            for threads in [1usize, 4] {
                let [on, off] = cfg_pair(threads, use_cmap, false, false);
                let zero = EngineConfig { reuse_memory_budget: 0, ..on };
                prop_assert!(!zero.reuse_active(), "a zero budget must deactivate the tier");
                let r_zero = mine(&g, &plan, &zero);
                let r_off = mine(&g, &plan, &off);
                prop_assert_eq!(&r_zero.counts, &r_off.counts, "{} threads={}", pattern, threads);
                prop_assert_eq!(
                    r_zero.work.clone(), r_off.work.clone(),
                    "zero budget must be bit-identical to reuse=false: {} threads={}",
                    pattern, threads
                );
            }
        }
    }
}

/// The acceptance-criteria fixture: one skewed and one mesh-like graph,
/// every stock pattern, 1 and 4 threads — identical counts, and the
/// reuse tier demonstrably engaged on the skewed input.
#[test]
fn differential_equality_on_powerlaw_and_mesh() {
    let powerlaw = generators::powerlaw_cluster(250, 4, 0.5, 7);
    let mesh = generators::grid(16, 12);
    let mut hits_on_powerlaw = 0;
    for (name, g) in [("powerlaw", &powerlaw), ("mesh", &mesh)] {
        for pattern in stock_patterns() {
            let plan = compile(&pattern, CompileOptions::default());
            for threads in [1usize, 4] {
                let [on, off] = cfg_pair(threads, false, false, false);
                let r_on = mine(g, &plan, &on);
                let r_off = mine(g, &plan, &off);
                assert_eq!(r_on.counts, r_off.counts, "{name} {pattern} threads={threads}");
                assert_eq!(r_on.status, r_off.status, "{name} {pattern} threads={threads}");
                assert_eq!(r_off.work.reuse_hits, 0, "tier off must never hit");
                if *name == *"powerlaw" {
                    hits_on_powerlaw += r_on.work.reuse_hits;
                }
            }
        }
    }
    assert!(hits_on_powerlaw > 0, "skewed input must exercise the reuse tier");
}
