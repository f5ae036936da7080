//! Telemetry shard merge is order-independent: the depth-resolved series
//! and frontier histogram a run reports are a pure function of the work
//! performed, not of how tasks were interleaved across workers. Workers
//! charge private shards that merge by commutative addition, so any thread
//! count must report identical deterministic components (wall-clock parts
//! — task-time histograms and span timestamps — are exempt by design).

use flexminer::{Backend, EngineConfig, Miner, MiningOutcome, Pattern, TelemetryOptions};
use fm_graph::generators;
use proptest::prelude::*;

fn observed(g: &fm_graph::CsrGraph, pattern: Pattern, threads: usize) -> MiningOutcome {
    Miner::new(g)
        .pattern(pattern)
        .backend(Backend::Software(EngineConfig::with_threads(threads)))
        .telemetry(TelemetryOptions { metrics: true, ..Default::default() })
        .run()
        .expect("observed run")
}

/// The deterministic projection of a shard, for cross-thread comparison.
fn deterministic_parts(outcome: &MiningOutcome) -> (Vec<Vec<u64>>, [u64; 64], u64, u64) {
    let s = outcome.telemetry().expect("metrics were enabled");
    (
        vec![
            s.depth_setop_iterations.clone(),
            s.depth_setop_invocations.clone(),
            s.depth_merge.clone(),
            s.depth_gallop.clone(),
            s.depth_probe.clone(),
        ],
        s.frontier_sizes.buckets,
        s.frontier_sizes.count,
        s.frontier_sizes.sum,
    )
}

#[test]
fn shard_merge_is_thread_count_invariant() {
    let g = generators::powerlaw_cluster(220, 4, 0.5, 17);
    for pattern in [Pattern::k_clique(4), Pattern::cycle(4)] {
        let single = observed(&g, pattern.clone(), 1);
        let baseline = deterministic_parts(&single);
        for threads in [4, 7] {
            let multi = observed(&g, pattern.clone(), threads);
            assert_eq!(multi.counts(), single.counts(), "{threads} threads changed counts");
            assert_eq!(
                deterministic_parts(&multi),
                baseline,
                "{threads} threads changed the deterministic shard projection"
            );
        }
        // The depth series partition the aggregate counters exactly.
        let work = single.work().expect("software backend reports work");
        assert_eq!(baseline.0[0].iter().sum::<u64>(), work.setop_iterations);
        assert_eq!(baseline.0[1].iter().sum::<u64>(), work.setop_invocations);
        // And the three tier series partition the invocations.
        let tiers: u64 = baseline.0[2..5].iter().flatten().sum();
        assert_eq!(tiers, work.setop_invocations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Randomized graphs: any worker interleaving (1, 4, or 7 threads)
    /// merges to the same deterministic shard.
    #[test]
    fn shard_merge_order_independent_on_random_graphs(
        n in 40usize..140,
        m in 2usize..5,
        seed in 0u64..1000,
    ) {
        let g = generators::powerlaw_cluster(n, m, 0.5, seed);
        let single = observed(&g, Pattern::triangle(), 1);
        let baseline = deterministic_parts(&single);
        for threads in [4usize, 7] {
            let multi = observed(&g, Pattern::triangle(), threads);
            prop_assert_eq!(multi.counts(), single.counts());
            prop_assert_eq!(deterministic_parts(&multi), baseline.clone());
        }
    }
}
