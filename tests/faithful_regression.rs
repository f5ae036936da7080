//! Regression pin for `paper_faithful` mode: the hub-bitmap probe tier
//! (and the adaptive dispatcher generally) must be invisible to faithful
//! runs. Counts AND the full `WorkCounters` are pinned to golden values
//! recorded before the probe tier landed, and flipping every hub knob
//! under `paper_faithful` must change nothing — bit for bit.

use fm_engine::{mine, EngineConfig, MiningResult};
use fm_graph::{generators, CsrGraph};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};

fn fixture() -> CsrGraph {
    generators::shuffle_ids(
        &generators::attach_hubs(&generators::powerlaw_cluster(150, 3, 0.4, 5), 3, 60, 8),
        2,
    )
}

fn faithful(g: &CsrGraph, p: &Pattern, cfg: &EngineConfig) -> MiningResult {
    mine(g, &compile(p, CompileOptions::default()), cfg)
}

/// Golden (count, setop_iterations, setop_invocations, comparisons,
/// candidates_checked, extensions) per pattern, recorded from the
/// faithful executor before the hub-bitmap tier existed. The faithful
/// path must keep reproducing these exactly.
const GOLDEN: &[(&str, u64, u64, u64, u64, u64, u64)] = &[
    ("triangle", 526, 3178, 627, 3178, 1153, 1306),
    ("cycle4", 4658, 83012, 3595, 83012, 13238, 9033),
    ("kclique4", 143, 4209, 1153, 4209, 1296, 1449),
];

fn golden_patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("triangle", Pattern::triangle()),
        ("cycle4", Pattern::cycle(4)),
        ("kclique4", Pattern::k_clique(4)),
    ]
}

#[test]
fn paper_faithful_counters_match_golden_pin() {
    let g = fixture();
    for ((name, pattern), expect) in golden_patterns().into_iter().zip(GOLDEN) {
        assert_eq!(name, expect.0);
        let r = faithful(&g, &pattern, &EngineConfig::paper_faithful());
        let got = (
            name,
            r.counts[0],
            r.work.setop_iterations,
            r.work.setop_invocations,
            r.work.comparisons,
            r.work.candidates_checked,
            r.work.extensions,
        );
        assert_eq!(got, *expect, "faithful drift on {name}");
    }
}

/// Hub knobs are inert under `paper_faithful`: even a threshold that would
/// index every vertex leaves counts and every work counter bit-identical,
/// and the dispatch counters stay zero (faithful runs never reach a
/// dispatcher).
#[test]
fn paper_faithful_ignores_hub_knobs_bit_for_bit() {
    let g = fixture();
    for (name, pattern) in golden_patterns() {
        let base = faithful(&g, &pattern, &EngineConfig::paper_faithful());
        let knobs = EngineConfig {
            hub_bitmap: true,
            hub_degree_threshold: 1,
            hub_memory_budget: usize::MAX,
            gallop_ratio: 1,
            ..EngineConfig::paper_faithful()
        };
        let twiddled = faithful(&g, &pattern, &knobs);
        assert_eq!(base.counts, twiddled.counts, "{name}");
        assert_eq!(base.work, twiddled.work, "{name}: hub knobs leaked into faithful counters");
        assert_eq!(base.work.merge_dispatches, 0, "{name}");
        assert_eq!(base.work.gallop_dispatches, 0, "{name}");
        assert_eq!(base.work.probe_dispatches, 0, "{name}");
        assert_eq!(base.work.simd_dispatches, 0, "{name}");
        // The parallel driver must be just as inert.
        let parallel = mine(
            &g,
            &compile(&pattern, CompileOptions::default()),
            &EngineConfig { threads: 4, ..knobs },
        );
        assert_eq!(base.counts, parallel.counts, "{name} (4 threads)");
        assert_eq!(base.work, parallel.work, "{name} (4 threads)");
    }
}
