//! Test helpers shared by the property suites: arbitrary connected
//! patterns. Included by path from `fm-plan`'s tests too.

use fm_pattern::Pattern;
use proptest::prelude::*;
use std::ops::RangeInclusive;

/// A connected pattern on `sizes` vertices: the path `0 – 1 – … – n−1`,
/// which keeps it connected, plus every other edge a random word selects.
pub fn arb_connected_pattern(sizes: RangeInclusive<usize>) -> impl Strategy<Value = Pattern> {
    (sizes, any::<u64>()).prop_map(|(n, bits)| {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        let mut b = 0;
        for u in 0..n {
            for v in (u + 1)..n {
                if (bits >> (b % 64)) & 1 == 1 {
                    edges.push((u, v));
                }
                b += 1;
            }
        }
        Pattern::from_edges(n, &edges).expect("connected")
    })
}
