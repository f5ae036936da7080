//! Property tests for the compiler and lowering.

use fm_pattern::{DepthSet, Pattern};
use fm_plan::lowering::{lower, LowerOptions};
use fm_plan::{compile, compile_multi, CompileOptions, Extender, FrontierHint};
use proptest::prelude::*;

#[path = "../../../tests/common/mod.rs"]
mod common;

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    common::arb_connected_pattern(2..=6)
}

fn arb_options() -> impl Strategy<Value = CompileOptions> {
    (any::<bool>(), any::<bool>()).prop_map(|(induced, symmetry)| CompileOptions {
        induced,
        symmetry,
        orientation: symmetry,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Structural well-formedness of every compiled plan.
    #[test]
    fn plans_are_well_formed(p in arb_pattern(), opts in arb_options()) {
        let plan = compile(&p, opts);
        prop_assert_eq!(plan.depth(), p.size());
        prop_assert_eq!(plan.patterns.len(), 1);
        let mut leaves = 0;
        for node in plan.root.iter() {
            let op = &node.op;
            let d = op.depth;
            // Extender and every constraint level precede the op's depth.
            match op.extender {
                Extender::Root => prop_assert_eq!(d, 0),
                Extender::Level(l) => prop_assert!(l < d),
            }
            for l in op.connected.iter().chain(op.disconnected.iter()) {
                prop_assert!(l < d);
            }
            for l in op.upper_bounds.iter() {
                prop_assert!(l < d);
            }
            // Connectivity and disconnection never overlap.
            prop_assert!(op.connected.intersection(op.disconnected).is_empty());
            if node.pattern_index.is_some() {
                leaves += 1;
                prop_assert_eq!(d + 1, p.size());
            }
            if let Some(l) = node.cmap_insert_bound {
                prop_assert!(node.cmap_insert);
                prop_assert!(l <= d);
            }
        }
        prop_assert_eq!(leaves, 1);
        if !opts.symmetry {
            prop_assert!(plan.root.iter().all(|n| n.op.upper_bounds.is_empty()));
            prop_assert!(!plan.orientation);
        }
        if !opts.induced {
            prop_assert!(plan.root.iter().all(|n| n.op.disconnected.is_empty()));
        }
    }

    /// Lowering preserves node count and depth, and every probe op's
    /// queried levels are covered by some ancestor's insert hint.
    #[test]
    fn lowering_probe_levels_are_insertable(p in arb_pattern(), opts in arb_options()) {
        let plan = compile(&p, opts);
        for memo in [true, false] {
            let prog = lower(&plan, LowerOptions { frontier_memo: memo, ..Default::default() });
            prop_assert_eq!(prog.nodes.len(), plan.node_count());
            prop_assert_eq!(prog.depth, plan.depth());
            // Walk root-to-leaf paths tracking insert-hinted depths.
            fn walk(
                prog: &fm_plan::lowering::Program,
                idx: usize,
                inserted: DepthSet,
            ) -> Result<(), TestCaseError> {
                let node = &prog.nodes[idx];
                let queried = node.queried_depths();
                prop_assert!(
                    queried.is_subset(inserted),
                    "node at depth {} queries {} but only {} are hinted",
                    node.depth,
                    queried,
                    inserted
                );
                let mut next = inserted;
                if node.cmap_insert {
                    next.insert(node.depth);
                }
                for &c in &node.children {
                    walk(prog, c, next)?;
                }
                Ok(())
            }
            walk(&prog, 0, DepthSet::new())?;
            // Frontier hints only survive when memoization is on.
            if !memo {
                prop_assert!(prog.nodes.iter().all(|n| n.frontier == FrontierHint::None));
            }
        }
    }

    /// Multi-pattern compilation places exactly one leaf per pattern and
    /// merged prefixes are genuinely identical ops.
    #[test]
    fn multi_pattern_merging_is_sound(a in arb_pattern(), b in arb_pattern()) {
        let plan = compile_multi(&[a.clone(), b.clone()], CompileOptions::default());
        let leaves: Vec<usize> = plan.root.iter().filter_map(|n| n.pattern_index).collect();
        prop_assert_eq!(leaves.len(), 2);
        prop_assert!(leaves.contains(&0) && leaves.contains(&1));
        // Total nodes never exceed the unmerged sum and never undercut the
        // deepest chain.
        prop_assert!(plan.node_count() <= a.size() + b.size());
        prop_assert!(plan.node_count() >= a.size().max(b.size()));
    }
}
