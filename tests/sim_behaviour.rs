//! Behavioural tests of the accelerator simulator: the trends the paper's
//! evaluation reports must hold on representative inputs.

use fm_graph::generators;
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};
use fm_sim::{simulate, SimConfig};

/// A hub-heavy input in the regime of the paper's datasets (scaled).
fn hubbed_graph() -> fm_graph::CsrGraph {
    let body = generators::powerlaw_cluster(2_500, 6, 0.5, 31);
    generators::shuffle_ids(&generators::attach_hubs(&body, 4, 400, 5), 17)
}

#[test]
fn more_pes_scale_throughput() {
    let g = hubbed_graph();
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let mut prev = u64::MAX;
    let mut one_pe = 0;
    for pes in [1usize, 4, 16] {
        let r = simulate(&g, &plan, &SimConfig::with_pes(pes));
        if pes == 1 {
            one_pe = r.cycles;
        }
        assert!(r.cycles < prev, "{pes} PEs must be faster");
        prev = r.cycles;
    }
    // 16 PEs should provide clearly super-4x scaling on this input.
    assert!(one_pe / prev >= 4, "scaling too weak: {}", one_pe as f64 / prev as f64);
}

#[test]
fn cmap_helps_four_cycle_and_not_kcl_traffic() {
    let g = hubbed_graph();
    let cy = compile(&Pattern::cycle(4), CompileOptions::default());
    let cl = compile(&Pattern::k_clique(4), CompileOptions::default());
    let cfg = |bytes| SimConfig { num_pes: 8, cmap_bytes: bytes, ..Default::default() };

    let cy_no = simulate(&g, &cy, &cfg(0));
    let cy_with = simulate(&g, &cy, &cfg(8 * 1024));
    assert_eq!(cy_no.counts, cy_with.counts);
    assert!(
        cy_with.cycles < cy_no.cycles,
        "4-cycle must benefit from the c-map: {} vs {}",
        cy_with.cycles,
        cy_no.cycles
    );

    let cl_no = simulate(&g, &cl, &cfg(0));
    let cl_with = simulate(&g, &cl, &cfg(8 * 1024));
    assert_eq!(cl_no.counts, cl_with.counts);
    // Fig. 16: k-CL NoC traffic stays (approximately) flat — the frontier
    // list already removed the redundant requests.
    let ratio = cl_with.noc_traffic() as f64 / cl_no.noc_traffic() as f64;
    assert!((0.9..=1.1).contains(&ratio), "k-CL NoC ratio {ratio}");

    // The 4-cycle gains more from the c-map than k-CL does (Fig. 14).
    let cy_gain = cy_no.cycles as f64 / cy_with.cycles as f64;
    let cl_gain = cl_no.cycles as f64 / cl_with.cycles as f64;
    assert!(cy_gain > cl_gain, "4-cycle gain {cy_gain} vs k-CL gain {cl_gain}");
}

#[test]
fn cmap_capacity_gradient_is_monotonic_enough() {
    // Bigger c-maps never hurt materially and the unlimited map bounds the
    // benefit (Fig. 14's shape).
    let g = hubbed_graph();
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let cycles: Vec<u64> = [1024usize, 4 * 1024, 16 * 1024, usize::MAX]
        .iter()
        .map(|&bytes| {
            simulate(&g, &plan, &SimConfig { num_pes: 8, cmap_bytes: bytes, ..Default::default() })
                .cycles
        })
        .collect();
    let unlimited = *cycles.last().expect("nonempty");
    for (i, &c) in cycles.iter().enumerate() {
        assert!(
            c as f64 >= unlimited as f64 * 0.999,
            "unlimited c-map must be the lower bound (size index {i})"
        );
    }
    // And small maps overflow more.
    let small =
        simulate(&g, &plan, &SimConfig { num_pes: 8, cmap_bytes: 1024, ..Default::default() });
    let big = simulate(
        &g,
        &plan,
        &SimConfig { num_pes: 8, cmap_bytes: usize::MAX, ..Default::default() },
    );
    assert!(small.totals.cmap_overflows > big.totals.cmap_overflows);
    assert_eq!(big.totals.cmap_overflows, 0);
}

#[test]
fn read_ratio_reflects_reuse() {
    // §VII-C: 4-cycle's c-map is read-dominated.
    let g = hubbed_graph();
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let r = simulate(&g, &plan, &SimConfig::with_pes(8));
    assert!(r.cmap_read_ratio() > 0.7, "read ratio {}", r.cmap_read_ratio());
}

#[test]
fn failure_injection_never_changes_counts() {
    let g = hubbed_graph();
    let plan = compile(&Pattern::diamond(), CompileOptions::default());
    let reference = simulate(&g, &plan, &SimConfig::with_pes(4)).counts;
    let harsh_configs = [
        // Degenerate caches.
        SimConfig { num_pes: 4, l1_bytes: 64, l2_bytes: 128, ..Default::default() },
        // One-entry c-map: permanent overflow.
        SimConfig { num_pes: 4, cmap_bytes: 5, ..Default::default() },
        // Zero-threshold c-map: every insertion refused.
        SimConfig { num_pes: 4, cmap_occupancy_threshold: 0.0, ..Default::default() },
        // A tiny epoch.
        SimConfig { num_pes: 4, epoch: 16, ..Default::default() },
        // Single bank everywhere.
        SimConfig { num_pes: 4, l2_banks: 1, cmap_banks: 1, ..Default::default() },
    ];
    for (i, cfg) in harsh_configs.iter().enumerate() {
        let r = simulate(&g, &plan, cfg);
        assert_eq!(r.counts, reference, "harsh config {i} changed counts");
    }
}

#[test]
fn value_width_fallback_is_transparent() {
    // Patterns deeper than the c-map value width still count correctly
    // (§VII-D's partial-c-map rule).
    let g = generators::caveman(10, 12, 60, 9);
    let plan = compile(&Pattern::k_clique(7), CompileOptions::default());
    let wide = simulate(&g, &plan, &SimConfig::with_pes(2));
    let narrow =
        simulate(&g, &plan, &SimConfig { num_pes: 2, cmap_value_bits: 3, ..Default::default() });
    assert_eq!(wide.counts, narrow.counts);
}
