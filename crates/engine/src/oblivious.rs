//! Pattern-oblivious baseline: enumerate-then-test.
//!
//! §III of the paper: "Gramer employs a pattern-oblivious search strategy.
//! [...] because of a lack of the matching order, Gramer requires expensive
//! isomorphism tests." This module models that strategy in software: the
//! ESU algorithm (Wernicke) enumerates every connected vertex-induced
//! k-subgraph exactly once, and each enumerated subgraph pays an explicit
//! isomorphism test against the target pattern set.
//!
//! Used to reproduce the Table II comparison: pattern-aware search
//! (GraphZero model) vs pattern-oblivious search (Gramer model) on
//! identical hardware, isolating the algorithmic gap the paper attributes
//! Gramer's weakness to.

use crate::result::MiningResult;
use fm_graph::{CsrGraph, VertexId};
use fm_pattern::Pattern;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts vertex-induced occurrences of each pattern in `patterns` (all of
/// the same size `k`) by exhaustive connected-subgraph enumeration plus
/// isomorphism testing.
///
/// Work accounting: `extensions` counts enumerated subgraphs and partial
/// extensions, `candidates_checked` counts isomorphism tests, and
/// `comparisons` counts the permutations explored by the canonical-code
/// computation (the "expensive isomorphism test" of §II).
///
/// # Panics
///
/// Panics if `patterns` is empty, sizes differ, or `k > 6` (the canonical
/// code is exponential in k).
pub fn count_induced(g: &CsrGraph, patterns: &[Pattern], threads: usize) -> MiningResult {
    assert!(!patterns.is_empty(), "need at least one pattern");
    let k = patterns[0].size();
    assert!(patterns.iter().all(|p| p.size() == k), "patterns must share one size");
    assert!(k <= 6, "oblivious engine limited to k <= 6");
    let code_to_index: HashMap<u64, usize> =
        patterns.iter().enumerate().map(|(i, p)| (p.canonical_code(), i)).collect();

    let n = g.num_vertices();
    if threads <= 1 {
        let mut worker = EsuWorker::new(g, k, &code_to_index, patterns.len());
        for v in 0..n as u32 {
            worker.run_root(VertexId(v));
        }
        return worker.result;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let code_to_index = &code_to_index;
                scope.spawn(move || {
                    let mut worker = EsuWorker::new(g, k, code_to_index, patterns.len());
                    loop {
                        let lo = cursor.fetch_add(64, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        for v in lo..(lo + 64).min(n) {
                            worker.run_root(VertexId(v as u32));
                        }
                    }
                    worker.result
                })
            })
            .collect();
        let mut total = MiningResult::empty(patterns.len());
        for h in handles {
            let part = h.join().expect("worker thread panicked");
            for (count, c) in total.counts.iter_mut().zip(part.counts) {
                *count += c;
            }
            total.work += part.work;
        }
        total
    })
}

struct EsuWorker<'a> {
    g: &'a CsrGraph,
    k: usize,
    code_to_index: &'a HashMap<u64, usize>,
    sub: Vec<VertexId>,
    /// Marker: vertex already in the subgraph or adjacent to it (exclusive
    /// neighborhood test of ESU).
    seen: Vec<bool>,
    result: MiningResult,
}

impl<'a> EsuWorker<'a> {
    fn new(
        g: &'a CsrGraph,
        k: usize,
        code_to_index: &'a HashMap<u64, usize>,
        patterns: usize,
    ) -> Self {
        EsuWorker {
            g,
            k,
            code_to_index,
            sub: Vec::with_capacity(k),
            seen: vec![false; g.num_vertices()],
            result: MiningResult::empty(patterns),
        }
    }

    fn run_root(&mut self, v: VertexId) {
        if self.k == 1 {
            self.classify_single();
            return;
        }
        self.sub.push(v);
        self.seen[v.index()] = true;
        let ext: Vec<VertexId> = self.g.neighbors(v).iter().copied().filter(|&u| u > v).collect();
        for &u in &ext {
            self.seen[u.index()] = true;
        }
        self.extend(v, ext);
        for &u in self.g.neighbors(v) {
            self.seen[u.index()] = false;
        }
        self.seen[v.index()] = false;
        self.sub.pop();
    }

    /// ESU extension step: `ext` holds candidates that are (a) greater than
    /// the root and (b) in the exclusive neighborhood of the current
    /// subgraph.
    fn extend(&mut self, root: VertexId, ext: Vec<VertexId>) {
        self.result.work.extensions += 1;
        if self.sub.len() == self.k {
            self.classify();
            return;
        }
        let mut remaining = ext;
        while let Some(w) = remaining.pop() {
            self.sub.push(w);
            // New extension candidates: exclusive neighbors of w.
            let mut next = remaining.clone();
            let mut newly_seen = Vec::new();
            for &u in self.g.neighbors(w) {
                if u > root && !self.seen[u.index()] {
                    next.push(u);
                    self.seen[u.index()] = true;
                    newly_seen.push(u);
                }
            }
            self.extend(root, next);
            for u in newly_seen {
                self.seen[u.index()] = false;
            }
            self.sub.pop();
        }
    }

    fn classify(&mut self) {
        self.result.work.candidates_checked += 1; // one isomorphism test
        let k = self.sub.len();
        let mut edges = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                if self.g.has_edge(self.sub[i], self.sub[j]) {
                    edges.push((i, j));
                }
            }
        }
        let induced = Pattern::from_edges(k, &edges).expect("ESU subgraphs are connected");
        // Canonical code explores k! labelings — the expensive test.
        self.result.work.comparisons += (1..=k as u64).product::<u64>();
        if let Some(&idx) = self.code_to_index.get(&induced.canonical_code()) {
            self.result.counts[idx] += 1;
        }
    }

    fn classify_single(&mut self) {
        self.result.work.candidates_checked += 1;
        let single = Pattern::from_edges(1, &[]).expect("single vertex");
        if let Some(&idx) = self.code_to_index.get(&single.canonical_code()) {
            self.result.counts[idx] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine;
    use crate::EngineConfig;
    use fm_graph::generators;
    use fm_plan::{compile, compile_multi, CompileOptions};

    #[test]
    fn triangles_match_pattern_aware_engine() {
        let g = generators::powerlaw_cluster(120, 4, 0.5, 3);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let aware = mine(&g, &plan, &EngineConfig::default());
        let oblivious = count_induced(&g, &[Pattern::triangle()], 1);
        assert_eq!(oblivious.counts, aware.counts);
        // The oblivious engine pays isomorphism tests the aware engine
        // never runs.
        assert!(oblivious.work.candidates_checked > 0);
    }

    #[test]
    fn motif_census_matches_plan_engine() {
        let g = generators::erdos_renyi(40, 0.25, 17);
        let motifs = fm_pattern::motifs::motifs(4);
        let plan = compile_multi(&motifs, CompileOptions::induced());
        let aware = mine(&g, &plan, &EngineConfig::default());
        let oblivious = count_induced(&g, &motifs, 1);
        assert_eq!(oblivious.counts, aware.counts);
    }

    #[test]
    fn parallel_oblivious_matches_sequential() {
        let g = generators::erdos_renyi(80, 0.15, 23);
        let motifs = fm_pattern::motifs::motifs(3);
        let seq = count_induced(&g, &motifs, 1);
        let par = count_induced(&g, &motifs, 4);
        assert_eq!(seq.counts, par.counts);
    }

    #[test]
    fn esu_enumerates_each_subgraph_once() {
        // K4 has exactly C(4,3) = 4 connected 3-subsets and C(4,4) = 1
        // 4-subset.
        let g = generators::complete(4);
        let r3 = count_induced(&g, &[Pattern::triangle()], 1);
        assert_eq!(r3.counts, vec![4]);
        let r4 = count_induced(&g, &[Pattern::k_clique(4)], 1);
        assert_eq!(r4.counts, vec![1]);
    }

    #[test]
    fn cliques_match_oriented_engine() {
        let g = generators::powerlaw_cluster(100, 5, 0.6, 31);
        let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
        let aware = mine(&g, &plan, &EngineConfig::default());
        let oblivious = count_induced(&g, &[Pattern::k_clique(4)], 1);
        assert_eq!(oblivious.counts, aware.counts);
    }

    #[test]
    #[should_panic(expected = "share one size")]
    fn mixed_sizes_are_rejected() {
        let g = generators::complete(3);
        let _ = count_induced(&g, &[Pattern::triangle(), Pattern::k_clique(4)], 1);
    }
}
