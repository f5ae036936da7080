//! Property test for partial-result determinism (ISSUE satellite): for
//! any stop point, the partial counts equal a sequential run restricted to
//! the recorded completed start-vertex set — across threads ∈ {1, 4, 7}.
//!
//! The stop point is induced with a set-operation budget, the engine's
//! machine-independent work unit: sweeping the cap sweeps the cancel point
//! through the schedule, and the thread count varies which vids happen to
//! complete before the stop is observed.

use fm_engine::{mine, prepare, Budget, EngineConfig, RunStatus};
use fm_graph::{GraphBuilder, VertexId};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};
use proptest::prelude::*;

fn arb_graph(max_v: u32, max_e: usize) -> impl Strategy<Value = fm_graph::CsrGraph> {
    prop::collection::vec((0..max_v, 0..max_v), 0..max_e).prop_map(move |edges| {
        GraphBuilder::new().vertices(max_v as usize).edges(edges).build().expect("simple graph")
    })
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop::sample::select(vec![
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::diamond(),
        Pattern::k_clique(4),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Whatever subset of start vertices completes before the budget
    /// trips, the reported counts are *exactly* the counts of that subset:
    /// a fresh sequential executor fed only the completed vids reproduces
    /// them bit-for-bit, for every thread count.
    #[test]
    fn partial_counts_are_exact_over_the_completed_set(
        g in arb_graph(40, 140),
        p in arb_pattern(),
        budget in 0u64..600,
    ) {
        let plan = compile(&p, CompileOptions::default());
        let full = mine(&g, &plan, &EngineConfig::default());
        for threads in [1usize, 4, 7] {
            let cfg = EngineConfig {
                threads,
                budget: Budget::with_max_setop_iterations(budget),
                ..Default::default()
            };
            let r = mine(&g, &plan, &cfg);
            prop_assert!(r.counts[0] <= full.counts[0]);
            if r.status == RunStatus::Complete {
                // Complete runs leave `completed` empty (= all vertices)
                // and must match the unbounded reference.
                prop_assert_eq!(&r.counts, &full.counts);
                prop_assert!(r.completed.is_empty());
                continue;
            }
            prop_assert_eq!(r.status, RunStatus::BudgetExhausted);
            // The completed list is deterministic in form: sorted, unique,
            // in range.
            prop_assert!(r.completed.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(r.completed.iter().all(|&v| (v as usize) < g.num_vertices()));
            // Exactness: replay only the completed vids sequentially on the
            // same prepared graph.
            let prepared = prepare(&g, &plan, &cfg);
            let mut ex = fm_engine::Executor::new(&prepared, &plan, &cfg);
            for &v in &r.completed {
                ex.run_vertex(VertexId(v));
            }
            let replay = ex.finish();
            prop_assert_eq!(&r.counts, &replay.counts, "threads={}", threads);
        }
    }

    /// A zero budget (like a zero deadline) still returns a well-formed
    /// result: status set, counts zero-or-partial, nothing negative or
    /// fabricated.
    #[test]
    fn zero_budget_is_a_valid_stop_point(
        g in arb_graph(30, 90),
        p in arb_pattern(),
    ) {
        let plan = compile(&p, CompileOptions::default());
        for threads in [1usize, 4] {
            let cfg = EngineConfig {
                threads,
                budget: Budget::with_max_setop_iterations(0),
                ..Default::default()
            };
            let r = mine(&g, &plan, &cfg);
            if g.num_vertices() == 0 {
                prop_assert_eq!(r.status, RunStatus::Complete);
                continue;
            }
            // The budget is polled before every task, so at most the very
            // first claimed chunk per worker runs; the result must still
            // be exact over whatever completed.
            let prepared = prepare(&g, &plan, &cfg);
            let mut ex = fm_engine::Executor::new(&prepared, &plan, &cfg);
            for &v in &r.completed {
                ex.run_vertex(VertexId(v));
            }
            if r.status == RunStatus::BudgetExhausted {
                prop_assert_eq!(&r.counts, &ex.finish().counts);
            }
        }
    }
}
