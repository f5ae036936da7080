//! The paper's four GPM applications as one-call functions (§II-A).

use crate::miner::{MineError, Miner, MiningOutcome};
use fm_engine::{EngineConfig, RunStatus};
use fm_graph::CsrGraph;
use fm_pattern::{motifs, Pattern};

/// Triangle counting (TC): "counts the number of triangles in G".
///
/// # Examples
///
/// ```
/// use flexminer::{apps, EngineConfig};
/// use fm_graph::generators;
///
/// let g = generators::complete(6);
/// let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
/// assert_eq!(apps::triangle_count(&g, EngineConfig::with_threads(threads))?, 20);
/// # Ok::<(), flexminer::MineError>(())
/// ```
///
/// # Errors
///
/// Propagates [`MineError`] from the underlying job (never fails for this
/// fixed single-pattern job in practice).
pub fn triangle_count(g: &CsrGraph, cfg: EngineConfig) -> Result<u64, MineError> {
    Ok(Miner::new(g).pattern(Pattern::triangle()).config(cfg).run()?.count())
}

/// k-clique listing (k-CL): counts all k-cliques, using the degree-
/// orientation optimization (§V-C).
///
/// # Errors
///
/// Propagates [`MineError`]; panics upstream if `k` exceeds the pattern
/// size limit.
pub fn k_clique_count(g: &CsrGraph, k: usize, cfg: EngineConfig) -> Result<u64, MineError> {
    Ok(Miner::new(g).pattern(Pattern::k_clique(k)).config(cfg).run()?.count())
}

/// Subgraph listing (SL): counts edge-induced embeddings of an arbitrary
/// user pattern.
///
/// # Errors
///
/// Propagates [`MineError`].
pub fn subgraph_count(
    g: &CsrGraph,
    pattern: &Pattern,
    cfg: EngineConfig,
) -> Result<u64, MineError> {
    Ok(Miner::new(g).pattern(pattern.clone()).config(cfg).run()?.count())
}

/// k-motif counting (k-MC): counts vertex-induced occurrences of every
/// connected k-vertex pattern.
///
/// Returns `(motif name, count)` pairs in the deterministic motif order of
/// [`fm_pattern::motifs::motifs`].
///
/// The default engine counts each motif *edge-induced*, one job each,
/// where cliques run on the degree-oriented DAG and stars, tails and pair
/// joins by their closed forms. It then solves the containment identity
/// `edge(P) = Σ_H copies(P in H) · ind(H)` for the induced counts by
/// back-substitution ([`motifs::copies`]). Under
/// [`paper_faithful`](fm_engine::EngineConfig::paper_faithful) it runs the
/// paper's k-MC instead: one vertex-induced multi-pattern plan (§V-B), the
/// plan the accelerator runs.
///
/// # Errors
///
/// Propagates [`MineError`]. A run that stops early or loses a task is
/// [`MineError::PartialUnnormalizable`]: a partial census is not the
/// census of anything. A solve that leaves 64-bit range is
/// [`MineError::CensusOverflow`].
///
/// # Panics
///
/// Panics if `k == 0` or `k > 6` (motif enumeration limit).
pub fn motif_census(
    g: &CsrGraph,
    k: usize,
    cfg: EngineConfig,
) -> Result<Vec<(String, u64)>, MineError> {
    let ms = motifs::motifs(k);
    let complete = |outcome: MiningOutcome| match outcome.result.status {
        RunStatus::Complete => Ok(outcome),
        status => Err(MineError::PartialUnnormalizable { status }),
    };
    let counts = if cfg.paper_faithful {
        complete(Miner::new(g).patterns(ms.iter().cloned()).induced(true).config(cfg).run()?)?
            .counts()
    } else {
        let mut edge = Vec::with_capacity(ms.len());
        for p in &ms {
            edge.push(complete(Miner::new(g).pattern(p.clone()).config(cfg).run()?)?.count());
        }
        census_by_containment(&ms, &edge)?
    };
    Ok(ms.iter().map(motifs::motif_name).zip(counts).collect())
}

/// Solves `edge[i] = Σ_j copies(ms[i] in ms[j]) · ind[j]` for the induced
/// census `ind`. Over [`motifs::motifs`] order the matrix is unit
/// upper-triangular, so back-substitution from the clique down gives
/// `ind[i] = edge[i] − Σ_{j>i} copies[i][j] · ind[j]`, in checked
/// arithmetic: exact counts never leave `0..=u64::MAX` on the way.
fn census_by_containment(ms: &[Pattern], edge: &[u64]) -> Result<Vec<u64>, MineError> {
    let mut ind = vec![0u64; ms.len()];
    for i in (0..ms.len()).rev() {
        let mut n = Some(edge[i]);
        for j in i + 1..ms.len() {
            n = n.and_then(|n| n.checked_sub(motifs::copies(&ms[i], &ms[j]).checked_mul(ind[j])?));
        }
        ind[i] =
            n.ok_or_else(|| MineError::CensusOverflow { motif: motifs::motif_name(&ms[i]) })?;
    }
    Ok(ind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::generators;

    #[test]
    fn triangle_count_on_oracles() {
        let count = |g| triangle_count(&g, EngineConfig::default()).unwrap();
        assert_eq!(count(generators::complete(7)), 35);
        assert_eq!(count(generators::cycle(8)), 0);
        assert_eq!(count(generators::grid(4, 4)), 0);
    }

    #[test]
    fn clique_counts_on_complete_graph() {
        let g = generators::complete(9);
        let count = |k| k_clique_count(&g, k, EngineConfig::default()).unwrap();
        assert_eq!(count(4), 126); // C(9,4)
        assert_eq!(count(5), 126); // C(9,5)
    }

    #[test]
    fn subgraph_count_four_cycles_in_bipartite() {
        let g = generators::complete_bipartite(4, 4);
        let n = subgraph_count(&g, &Pattern::cycle(4), EngineConfig::default()).unwrap();
        assert_eq!(n, 36); // C(4,2)^2
    }

    #[test]
    fn motif_census_sums_to_subset_counts() {
        let g = generators::erdos_renyi(40, 0.3, 7);
        let census = motif_census(&g, 3, EngineConfig::default()).unwrap();
        assert_eq!(census.len(), 2);
        let by_name: std::collections::HashMap<_, _> = census.into_iter().collect();
        // Wedges + triangles as induced counts must match the oblivious
        // oracle.
        let oracle =
            fm_engine::oblivious::count_induced(&g, &[Pattern::wedge(), Pattern::triangle()], 1);
        assert_eq!(by_name["wedge"], oracle.counts[0]);
        assert_eq!(by_name["triangle"], oracle.counts[1]);
    }

    /// Counts that no graph has are an error, never a wrapped census.
    #[test]
    fn the_solve_rejects_counts_outside_64_bits() {
        let ms = motifs::motifs(3);
        let wedge = || Err(MineError::CensusOverflow { motif: "wedge".into() });
        // Three wedges per triangle, subtracted from fewer wedges.
        assert_eq!(census_by_containment(&ms, &[2, 1]), wedge());
        assert_eq!(census_by_containment(&ms, &[u64::MAX, u64::MAX]), wedge());
        assert_eq!(census_by_containment(&ms, &[u64::MAX, 5]), Ok(vec![u64::MAX - 15, 5]));
    }

    #[test]
    fn accelerator_backend_works_in_apps() {
        let g = generators::powerlaw_cluster(100, 4, 0.5, 4);
        let sw = triangle_count(&g, EngineConfig::default()).unwrap();
        let plan = Miner::new(&g).pattern(Pattern::triangle()).plan().unwrap();
        let hw = fm_sim::simulate(&g, &plan, &fm_sim::SimConfig::default());
        assert_eq!(hw.counts, vec![sw]);
    }
}
