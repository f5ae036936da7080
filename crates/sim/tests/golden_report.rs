//! Golden `SimReport`s: every simulated number the report carries, pinned
//! for the five single-pattern workloads on one small Mi-shaped graph
//! across c-map sizes and PE counts. The host-side data structures behind
//! the model (c-map store, cache indexing, queue delay) may change freely;
//! a single moved digit here means the *modelled* machine changed.
//!
//! The expected text lives in `golden/sim_report.txt`. On a mismatch the
//! actual rendering is written under `CARGO_TARGET_TMPDIR` so a deliberate
//! modelling change can be reviewed as a diff and copied over.

use fm_graph::{generators, CsrGraph};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};
use fm_sim::{simulate, SimConfig, SimReport};
use std::fmt::Write;

/// The recipe of the benchmark's `sim-mi` input (dense clustered body,
/// strong hubs, shuffled ids), scaled down to run in a debug build.
fn small_mi() -> CsrGraph {
    let body = generators::powerlaw_cluster(260, 7, 0.6, 2);
    let hubs = generators::attach_hubs(&body, 4, 90, 2 ^ 0xFF);
    generators::shuffle_ids(&hubs, 2 ^ 0x5A5A)
}

fn render(out: &mut String, r: &SimReport) {
    let t = &r.totals;
    writeln!(out, "  cycles {} counts {:?}", r.cycles, r.counts).unwrap();
    writeln!(out, "  pe_finish_cycles {:?}", r.pe_finish_cycles).unwrap();
    writeln!(out, "  pe_occupancy {:?}", r.pe_occupancy).unwrap();
    writeln!(
        out,
        "  tasks {} extensions {} candidates {} siu_invocations {} siu_cycles {}",
        t.tasks, t.extensions, t.candidates, t.siu_invocations, t.siu_cycles
    )
    .unwrap();
    writeln!(
        out,
        "  cmap_reads {} cmap_writes {} cmap_invalidations {} cmap_overflows {}",
        t.cmap_reads, t.cmap_writes, t.cmap_invalidations, t.cmap_overflows
    )
    .unwrap();
    writeln!(
        out,
        "  l1_accesses {} l1_misses {} noc_requests {} writebacks {} busy_cycles {} occupancy {:?}",
        t.l1_accesses, t.l1_misses, t.noc_requests, t.writebacks, t.busy_cycles, t.occupancy
    )
    .unwrap();
    writeln!(
        out,
        "  l2_accesses {} l2_misses {} l2_writebacks {} dram_accesses {} dram_row_hits {}",
        r.l2_accesses, r.l2_misses, r.l2_writebacks, r.dram_accesses, r.dram_row_hits
    )
    .unwrap();
    assert!(r.watchdog.is_none() && r.timeline.is_empty());
}

#[test]
fn sim_reports_match_golden() {
    let g = small_mi();
    let patterns = [
        ("triangle", Pattern::triangle()),
        ("4-clique", Pattern::k_clique(4)),
        ("5-clique", Pattern::k_clique(5)),
        ("4-cycle", Pattern::cycle(4)),
        ("diamond", Pattern::diamond()),
    ];
    let mut actual = String::new();
    for (name, pattern) in &patterns {
        let plan = compile(pattern, CompileOptions::default());
        for cmap_bytes in [0, 64, 8 * 1024, usize::MAX] {
            for num_pes in [1, 20] {
                let cfg = SimConfig { num_pes, cmap_bytes, ..Default::default() };
                let cmap = if cmap_bytes == usize::MAX {
                    "unlimited".to_string()
                } else {
                    cmap_bytes.to_string()
                };
                writeln!(actual, "{name} cmap_bytes={cmap} num_pes={num_pes}").unwrap();
                render(&mut actual, &simulate(&g, &plan, &cfg));
            }
        }
    }
    // Off the default operating point: a single-bank c-map (probe cost
    // above one cycle as it fills) and caches small enough to evict dirty
    // frontier lines through the L2 into DRAM.
    let extras = [
        (
            "single-bank",
            SimConfig { num_pes: 4, cmap_banks: 1, cmap_bytes: 64, ..Default::default() },
        ),
        (
            "single-bank",
            SimConfig { num_pes: 4, cmap_banks: 1, cmap_bytes: 1024, ..Default::default() },
        ),
        (
            "tiny-caches",
            SimConfig { num_pes: 4, l1_bytes: 256, l2_bytes: 1024, ..Default::default() },
        ),
        ("2kB-L1", SimConfig { num_pes: 4, l1_bytes: 2048, ..Default::default() }),
    ];
    for (name, pattern) in &patterns[1..] {
        let plan = compile(pattern, CompileOptions::default());
        for (label, cfg) in &extras {
            writeln!(actual, "{name} {label} cmap_bytes={}", cfg.cmap_bytes).unwrap();
            render(&mut actual, &simulate(&g, &plan, cfg));
        }
    }
    let expected = include_str!("golden/sim_report.txt");
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_report.actual.txt");
        std::fs::write(&path, &actual).expect("write actual rendering");
        let line = actual.lines().zip(expected.lines()).position(|(a, e)| a != e);
        panic!(
            "simulated statistics moved (first differing line: {:?}); actual rendering in {}",
            line.map(|l| l + 1),
            path.display()
        );
    }
}
