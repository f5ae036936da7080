//! Property tests: the reference merges and the dispatcher's kernels agree
//! with `BTreeSet` semantics.

use fm_engine::result::WorkCounters;
use fm_engine::setops::{self, Count};
use fm_graph::VertexId;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn sorted(v: Vec<u32>) -> Vec<VertexId> {
    let set: BTreeSet<u32> = v.into_iter().collect();
    set.into_iter().map(VertexId).collect()
}

proptest! {
    #[test]
    fn intersection_matches_btreeset(a in prop::collection::vec(0u32..500, 0..200),
                                     b in prop::collection::vec(0u32..500, 0..200)) {
        let (a, b) = (sorted(a), sorted(b));
        let sa: BTreeSet<_> = a.iter().copied().collect();
        let sb: BTreeSet<_> = b.iter().copied().collect();
        let expected: Vec<VertexId> = sa.intersection(&sb).copied().collect();
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        setops::intersect_into(&a, &b, &mut out, &mut w);
        prop_assert_eq!(&out, &expected);
        let Count(n) = setops::intersect(&a, &b, None, 0, None, Count(0), &mut w);
        prop_assert_eq!(n, expected.len() as u64);
        // Merge cost bound: at most |a| + |b| iterations.
        let mut w2 = WorkCounters::default();
        setops::intersect_into(&a, &b, &mut Vec::new(), &mut w2);
        prop_assert!(w2.setop_iterations <= (a.len() + b.len()) as u64);
    }

    #[test]
    fn galloping_matches_merge(a in prop::collection::vec(0u32..2000, 0..50),
                               b in prop::collection::vec(0u32..2000, 0..400)) {
        let (a, b) = (sorted(a), sorted(b));
        let mut merge = Vec::new();
        let mut gallop = Vec::new();
        let mut w = WorkCounters::default();
        setops::intersect_into(&a, &b, &mut merge, &mut w);
        // A ratio of 1 gallops any shape.
        setops::intersect(&a, &b, None, 1, None, &mut gallop, &mut w);
        prop_assert_eq!(w.gallop_dispatches, 1);
        prop_assert_eq!(merge, gallop);
    }

    #[test]
    fn bounded_equals_filtered_unbounded(a in prop::collection::vec(0u32..300, 0..150),
                                         b in prop::collection::vec(0u32..300, 0..150),
                                         bound in 0u32..300) {
        let (a, b) = (sorted(a), sorted(b));
        let mut full = Vec::new();
        let mut bounded = Vec::new();
        let mut w = WorkCounters::default();
        setops::intersect_into(&a, &b, &mut full, &mut w);
        let bd = Some(VertexId(bound));
        setops::intersect(&a, &b, bd, 0, None, &mut bounded, &mut w);
        let expected: Vec<VertexId> =
            full.into_iter().take_while(|&v| v < VertexId(bound)).collect();
        prop_assert_eq!(bounded, expected);
    }

    #[test]
    fn difference_matches_btreeset(a in prop::collection::vec(0u32..500, 0..200),
                                   b in prop::collection::vec(0u32..500, 0..200)) {
        let (a, b) = (sorted(a), sorted(b));
        let sa: BTreeSet<_> = a.iter().copied().collect();
        let sb: BTreeSet<_> = b.iter().copied().collect();
        let expected: Vec<VertexId> = sa.difference(&sb).copied().collect();
        let mut out = Vec::new();
        let mut w = WorkCounters::default();
        setops::difference_into(&a, &b, &mut out, &mut w);
        prop_assert_eq!(out, expected);
    }

    /// Algebraic identity: |a∩b| + |a\b| = |a|.
    #[test]
    fn partition_identity(a in prop::collection::vec(0u32..400, 0..200),
                          b in prop::collection::vec(0u32..400, 0..200)) {
        let (a, b) = (sorted(a), sorted(b));
        let mut inter = Vec::new();
        let mut diff = Vec::new();
        let mut w = WorkCounters::default();
        setops::intersect_into(&a, &b, &mut inter, &mut w);
        setops::difference_into(&a, &b, &mut diff, &mut w);
        prop_assert_eq!(inter.len() + diff.len(), a.len());
    }
}
