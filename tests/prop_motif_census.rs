//! The k-motif census against an oracle no plan produced.
//!
//! `apps::motif_census` takes two routes. By default it counts every
//! k-motif *edge-induced* and solves the containment identity
//! `edge(P) = Σ_H copies(P in H) · ind(H)` for the induced census; under
//! `paper_faithful` it runs one vertex-induced multi-pattern plan, the
//! plan the accelerator runs. Both must equal the pattern-oblivious ESU census
//! ([`oblivious::count_induced`]), at any thread count, and neither may
//! report a census that a lost task left partial.

use flexminer::apps::motif_census;
use flexminer::MineError;
use fm_engine::failpoint::{self, Trigger};
use fm_engine::{oblivious, EngineConfig, RunStatus};
use fm_graph::{generators, CsrGraph};
use fm_pattern::motifs;
use proptest::prelude::*;

/// ER, power-law, or a power-law body with two hubs attached: small
/// enough for the 4-vertex ESU census in a debug build.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (0u8..3, 12u32..40, any::<u64>()).prop_map(|(kind, n, seed)| {
        let n = n as usize;
        match kind {
            0 => generators::erdos_renyi(n, 0.2, seed),
            1 => generators::powerlaw_cluster(n, 3, 0.5, seed),
            _ => {
                let body = generators::powerlaw_cluster(n, 2, 0.4, seed);
                generators::attach_hubs(&body, 2, n / 2, seed ^ 0x9e37)
            }
        }
    })
}

/// The default config (the containment route) and `paper_faithful` (the
/// direct vertex-induced plan), each at `threads`.
fn configs(threads: usize) -> [EngineConfig; 2] {
    [
        EngineConfig::with_threads(threads),
        EngineConfig { threads, ..EngineConfig::paper_faithful() },
    ]
}

/// Checks the census of `g` under every config against ESU.
fn census_matches_esu(g: &CsrGraph, k: usize, threads: &[usize]) -> Result<(), TestCaseError> {
    let ms = motifs::motifs(k);
    let esu = oblivious::count_induced(g, &ms, 1).counts;
    let names: Vec<String> = ms.iter().map(motifs::motif_name).collect();
    for &t in threads {
        for cfg in configs(t) {
            let census = motif_census(g, k, cfg).expect("a complete run");
            let (got_names, got): (Vec<String>, Vec<u64>) = census.into_iter().unzip();
            prop_assert_eq!(&got_names, &names);
            prop_assert_eq!(&got, &esu, "k={} threads={} faithful={}", k, t, cfg.paper_faithful);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn the_census_is_the_esu_census(g in arb_graph()) {
        for k in [3, 4] {
            census_matches_esu(&g, k, &[1, 3])?;
        }
    }
}

/// Five vertices: 21 motifs, and rows of the solve that k ≤ 4 never reach.
#[test]
fn the_five_motif_census_is_the_esu_census() {
    let hubbed = generators::attach_hubs(&generators::powerlaw_cluster(24, 2, 0.5, 3), 1, 12, 5);
    for g in [generators::erdos_renyi(13, 0.45, 11), hubbed] {
        census_matches_esu(&g, 5, &[2]).unwrap();
    }
}

/// A quarantined task leaves every route's counts partial: the census is
/// an error, not a count, whatever the route.
#[test]
fn a_lost_task_makes_the_census_an_error() {
    let g = generators::powerlaw_cluster(200, 4, 0.5, 9);
    for k in [3, 4] {
        for cfg in configs(2) {
            let fp = failpoint::guard("start_vertex", Trigger::OnContext(0), "injected");
            let cfg = EngineConfig { failpoint_scope: fp.scope(), ..cfg };
            assert_eq!(
                motif_census(&g, k, cfg),
                Err(MineError::PartialUnnormalizable { status: RunStatus::Degraded }),
                "k={k} faithful={}",
                cfg.paper_faithful
            );
        }
    }
}
