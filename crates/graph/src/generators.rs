//! Deterministic synthetic graph generators.
//!
//! Two roles in the reproduction:
//!
//! 1. **Oracles** — structured graphs with closed-form pattern counts
//!    (complete graphs, cycles, bipartite graphs, grids) used by the test
//!    suite to validate every mining engine.
//! 2. **Dataset stand-ins** — the paper evaluates on SNAP graphs we do not
//!    ship; the benchmark's workloads generate a hub-skewed
//!    [`powerlaw_cluster`] graph and a flat [`caveman`] graph, and the
//!    figure binaries build scaled power-law stand-ins with matched
//!    density regimes from [`powerlaw_cluster`] or
//!    [`preferential_attachment`] plus [`attach_hubs`] (see `DESIGN.md`
//!    §4).
//!
//! Most generators list their edges into a [`GraphBuilder`];
//! [`powerlaw_cluster`] and [`caveman`], which every benchmark CLI process
//! re-runs, write their CSR rows directly and produce the same bytes.
//!
//! All generators are deterministic given their arguments (including the
//! RNG seed), so experiments are exactly reproducible.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::vertex::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Complete graph `K_n`: every pair of distinct vertices is adjacent.
///
/// Oracle counts: `C(n,3)` triangles, `C(n,k)` k-cliques, `3·C(n,4)`
/// 4-cycles.
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new().vertices(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b = b.edge(u, v);
        }
    }
    b.build().expect("complete graph is always valid")
}

/// Complete bipartite graph `K_{a,b}`: parts `{0..a}` and `{a..a+b}`.
///
/// Oracle counts: zero triangles, `C(a,2)·C(b,2)` 4-cycles.
pub fn complete_bipartite(a: usize, b: usize) -> CsrGraph {
    let mut builder = GraphBuilder::new().vertices(a + b);
    for u in 0..a as u32 {
        for v in 0..b as u32 {
            builder = builder.edge(u, a as u32 + v);
        }
    }
    builder.build().expect("bipartite graph is always valid")
}

/// Simple cycle `C_n` (requires `n >= 3`).
///
/// Oracle counts: one n-cycle; zero triangles for `n > 3`.
///
/// # Panics
///
/// Panics if `n < 3` (a shorter "cycle" would be a multi-edge or loop).
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3, "a simple cycle needs at least 3 vertices");
    let mut b = GraphBuilder::new().vertices(n);
    for u in 0..n as u32 {
        b = b.edge(u, ((u as usize + 1) % n) as u32);
    }
    b.build().expect("cycle graph is always valid")
}

/// Simple path with `n` vertices and `n-1` edges.
pub fn path(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new().vertices(n);
    for u in 1..n as u32 {
        b = b.edge(u - 1, u);
    }
    b.build().expect("path graph is always valid")
}

/// Star `S_n`: vertex 0 connected to vertices `1..=n`.
///
/// Oracle counts: zero triangles, `C(n,2)` wedges centered at 0.
pub fn star(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new().vertices(n + 1);
    for v in 1..=n as u32 {
        b = b.edge(0, v);
    }
    b.build().expect("star graph is always valid")
}

/// 2-D grid graph with `w * h` vertices and 4-neighborhood edges.
///
/// Oracle counts: zero triangles, `(w-1)*(h-1)` 4-cycles.
pub fn grid(w: usize, h: usize) -> CsrGraph {
    let idx = |x: usize, y: usize| (y * w + x) as u32;
    let mut b = GraphBuilder::new().vertices(w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b = b.edge(idx(x, y), idx(x + 1, y));
            }
            if y + 1 < h {
                b = b.edge(idx(x, y), idx(x, y + 1));
            }
        }
    }
    b.build().expect("grid graph is always valid")
}

/// Erdős–Rényi `G(n, p)` random graph, deterministic for a given `seed`.
///
/// Sampling is done per vertex pair, so construction is `O(n²)`; intended
/// for test-scale graphs (thousands of vertices).
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new().vertices(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                b = b.edge(u, v);
            }
        }
    }
    b.build().expect("random simple graph is always valid")
}

/// Power-law random graph via preferential attachment (Barabási–Albert
/// style), deterministic for a given `seed`.
///
/// Starts from a clique of `m + 1` vertices; each new vertex attaches `m`
/// edges to existing vertices chosen proportionally to their current degree
/// (by sampling a uniform endpoint of a uniform existing edge). The result
/// has a heavy-tailed degree distribution with rare high-degree hubs —
/// the regime the paper's SNAP datasets live in ("high-degree vertices are
/// rare due to power-law distribution", §VII-C).
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(m >= 1, "each new vertex must attach at least one edge");
    assert!(n > m, "need at least m+1 vertices for the seed clique");
    let mut rng = StdRng::seed_from_u64(seed);
    // Flat endpoint list: each edge contributes both endpoints, so a uniform
    // draw from this list is a degree-proportional draw over vertices.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    let mut b = GraphBuilder::new().vertices(n);
    for u in 0..=(m as u32) {
        for v in (u + 1)..=(m as u32) {
            b = b.edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut targets = Vec::with_capacity(m);
    for u in (m as u32 + 1)..(n as u32) {
        targets.clear();
        // Rejection-sample m distinct degree-proportional targets.
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != u && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b = b.edge(u, t);
            endpoints.push(u);
            endpoints.push(t);
        }
    }
    b.build().expect("preferential attachment graph is always valid")
}

/// Power-law graph with added triadic closure, producing the higher
/// clustering (triangle density) of real social/citation networks.
///
/// Like [`preferential_attachment`], but with probability `closure` each
/// attachment after the first connects to a random neighbor of the previous
/// target instead (Holme–Kim style), which closes triangles.
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn powerlaw_cluster(n: usize, m: usize, closure: f64, seed: u64) -> CsrGraph {
    assert!(m >= 1, "each new vertex must attach at least one edge");
    assert!(n > m, "need at least m+1 vertices for the seed clique");
    let mut rng = StdRng::seed_from_u64(seed);
    // Two views of the edges added so far are drawn from, and neither is
    // stored as such. The endpoint log — both ends of every edge, the seed
    // clique's pairs first, then `(u, t)` for each target `t` of each later
    // vertex `u` — keeps only the targets: grown edge `k` starts at
    // `m + 1 + k / m`. A vertex's neighbours in the order their edges were
    // added are its own `m` targets (ascending in the seed clique, a block
    // of the log in draw order after it), then the later vertices that
    // attached to it, ascending: the first `m` in its slab, the rest in its
    // spill list.
    let clique: Vec<u32> =
        (0..=m as u32).flat_map(|u| (u + 1..=m as u32).flat_map(move |v| [u, v])).collect();
    let edges = clique.len() / 2 + m * (n - m - 1);
    // Sized for the neighbour array the log turns into.
    let mut log: Vec<u32> = Vec::with_capacity(2 * edges);
    let mut slab = vec![0u32; n * m];
    let mut attached = vec![0u32; n];
    let mut spill_of = vec![u32::MAX; n];
    let mut spill: Vec<Vec<u32>> = Vec::new();
    for u in (m as u32 + 1)..(n as u32) {
        // `u`'s own edges join both views only once all `m` are drawn.
        let block = log.len();
        let mut prev: Option<u32> = None;
        while log.len() - block < m {
            let candidate = match prev {
                Some(p) if rng.gen_bool(closure.clamp(0.0, 1.0)) => {
                    let p = p as usize;
                    let i = rng.gen_range(0..m + attached[p] as usize);
                    if i >= 2 * m {
                        spill[spill_of[p] as usize][i - 2 * m]
                    } else if i >= m {
                        slab[p * m + i - m]
                    } else if p <= m {
                        i as u32 + u32::from(i >= p)
                    } else {
                        log[(p - m - 1) * m + i]
                    }
                }
                _ => {
                    let i = rng.gen_range(0..clique.len() + 2 * block);
                    match i.checked_sub(clique.len()) {
                        None => clique[i],
                        Some(j) if j % 2 == 0 => (m + 1 + j / 2 / m) as u32,
                        Some(j) => log[j / 2],
                    }
                }
            };
            if candidate != u && !log[block..].contains(&candidate) {
                log.push(candidate);
                prev = Some(candidate);
            } else {
                prev = None; // avoid livelock on saturated neighborhoods
            }
        }
        for &t in &log[block..] {
            let (t, a) = (t as usize, attached[t as usize] as usize);
            if a < m {
                slab[t * m + a] = u;
            } else {
                if a == m {
                    spill_of[t] = spill.len() as u32;
                    spill.push(Vec::new());
                }
                spill[spill_of[t] as usize].push(u);
            }
            attached[t] += 1;
        }
    }
    // Row `p` is its own targets, sorted, then its attachers: every own
    // target is below `p` and every attacher above. The rows are written
    // into the log's own buffer from the last down. Row `p` starts at
    // `offsets[p] >= m·p`, past the end `(p − m)·m` of `p`'s block, and the
    // blocks of the rows below lie lower still, so no block is overwritten
    // before it is read.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    for p in 0..n {
        offsets.push(offsets[p] + m + attached[p] as usize);
    }
    let mut neighbors = log;
    neighbors.resize(2 * edges, 0);
    for p in (0..n).rev() {
        let (row, head, a) = (offsets[p], offsets[p] + m, attached[p] as usize);
        neighbors[head..head + a.min(m)].copy_from_slice(&slab[p * m..p * m + a.min(m)]);
        if a > m {
            neighbors[head + m..head + a].copy_from_slice(&spill[spill_of[p] as usize]);
        }
        if p <= m {
            for (i, w) in neighbors[row..head].iter_mut().enumerate() {
                *w = i as u32 + u32::from(i >= p);
            }
        } else {
            let block = (p - m - 1) * m;
            neighbors.copy_within(block..block + m, row);
            neighbors[row..head].sort_unstable();
        }
    }
    // `VertexId` is a transparent `u32`: collected in place.
    let neighbors = neighbors.into_iter().map(VertexId).collect();
    CsrGraph::from_valid_parts(offsets, neighbors)
}

/// Appends `hubs` new high-degree vertices, each adjacent to every
/// previously-added hub (a *rich club*, as in real social/web graphs) and
/// to `degree` distinct uniformly-random existing vertices.
///
/// Real-world mining inputs (as-Skitter, YouTube, Orkut) owe much of
/// their cache and memoization behaviour to interconnected hubs whose
/// adjacency lists are kilobytes each: when two adjacent hubs appear as
/// consecutive embedding vertices, pattern-oblivious set operations
/// re-stream a huge list once per candidate — exactly the redundancy the
/// c-map removes (§II-C). Scaled-down stand-ins must keep hub lists at
/// comparable *absolute* sizes for those effects to reproduce, which this
/// post-pass provides.
///
/// # Panics
///
/// Panics if `degree` exceeds the number of existing vertices.
pub fn attach_hubs(g: &CsrGraph, hubs: usize, degree: usize, seed: u64) -> CsrGraph {
    let n = g.num_vertices();
    assert!(degree <= n, "hub degree cannot exceed the existing vertex count");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new().vertices(n + hubs);
    for (u, v) in g.undirected_edges() {
        b = b.edge(u.0, v.0);
    }
    let mut targets: Vec<u32> = (0..n as u32).collect();
    for h in 0..hubs as u32 {
        let hub = (n + h as usize) as u32;
        // Rich club: hubs are mutually adjacent.
        for earlier in 0..h {
            b = b.edge(hub, n as u32 + earlier);
        }
        // Partial Fisher-Yates: the first `degree` entries become targets.
        for i in 0..degree {
            let j = rng.gen_range(i..n);
            targets.swap(i, j);
            b = b.edge(hub, targets[i]);
        }
    }
    b.build().expect("hub augmentation preserves validity")
}

/// Caveman community graph: `communities` disjoint cliques of
/// `community_size` vertices each, plus `bridges` random inter-community
/// edges.
///
/// Oracle counts (for `bridges = 0`): `communities · C(size, k)`
/// k-cliques. With bridges the clique counts can only grow. The work is
/// spread evenly across communities, which makes this the load-balance
/// counterpart to the hub-skewed power-law generators.
///
/// # Panics
///
/// Panics if `communities == 0` or `community_size < 2`.
pub fn caveman(communities: usize, community_size: usize, bridges: usize, seed: u64) -> CsrGraph {
    assert!(communities >= 1, "need at least one community");
    assert!(community_size >= 2, "communities need at least two members");
    let (n, size) = (communities * community_size, community_size);
    let mut rng = StdRng::seed_from_u64(seed);
    // Both ends of every bridge, bucketed by endpoint (a counting sort):
    // `ends[start[v]..start[v + 1]]` are `v`'s bridge partners. Each
    // bucket is filled from its end, so `start[v]` ends at its beginning.
    let draws: Vec<(u32, u32)> = (0..bridges)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .filter(|&(u, v)| u != v)
        .collect();
    let mut start = vec![0usize; n + 1];
    for &(u, v) in &draws {
        start[u as usize] += 1;
        start[v as usize] += 1;
    }
    for v in 1..=n {
        start[v] += start[v - 1];
    }
    let mut ends = vec![0u32; 2 * draws.len()];
    for &(u, v) in &draws {
        for (a, b) in [(u, v), (v, u)] {
            start[a as usize] -= 1;
            ends[start[a as usize]] = b;
        }
    }
    // Row `v` is its clique minus itself, already ascending; only a row a
    // bridge touches is sorted and deduplicated (a bridge may repeat or
    // land on a clique edge).
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut neighbors: Vec<u32> = Vec::with_capacity(n * (size - 1) + ends.len());
    let mut row = Vec::new();
    for v in 0..n {
        let clique = (v / size * size) as u32..((v / size + 1) * size) as u32;
        let partners = &ends[start[v]..start[v + 1]];
        if partners.is_empty() {
            neighbors.extend(clique.filter(|&w| w != v as u32));
        } else {
            row.clear();
            row.extend(clique.filter(|&w| w != v as u32));
            row.extend_from_slice(partners);
            row.sort_unstable();
            row.dedup();
            neighbors.extend_from_slice(&row);
        }
        offsets.push(neighbors.len());
    }
    // `VertexId` is a transparent `u32`: collected in place.
    let neighbors = neighbors.into_iter().map(VertexId).collect();
    CsrGraph::from_valid_parts(offsets, neighbors)
}

/// Relabels all vertices with a seeded random permutation.
///
/// Synthetic growth models correlate vertex id with age and degree (early
/// vertices become hubs), which interacts artificially with symmetry-order
/// vid comparisons. Real SNAP inputs have arbitrary labels; shuffling
/// restores that property so hubs appear in every embedding role.
pub fn shuffle_ids(g: &CsrGraph, seed: u64) -> CsrGraph {
    let n = g.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut newid: Vec<u32> = (0..n as u32).collect();
    // Fisher-Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        newid.swap(i, j);
    }
    let mut b = GraphBuilder::new().vertices(n);
    for (u, v) in g.undirected_edges() {
        b = b.edge(newid[u.index()], newid[v.index()]);
    }
    b.build().expect("relabelling preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_structure() {
        let g = complete(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_undirected_edges(), 10);
        assert_eq!(g.max_degree(), 4);
        assert!(g.is_symmetric());
    }

    #[test]
    fn bipartite_has_no_odd_cycles_locally() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_undirected_edges(), 12);
        // No two vertices in the same part are adjacent.
        assert!(!g.has_edge(VertexId(0), VertexId(1)));
        assert!(!g.has_edge(VertexId(3), VertexId(4)));
        assert!(g.has_edge(VertexId(0), VertexId(3)));
    }

    #[test]
    fn cycle_and_path_degrees() {
        let c = cycle(6);
        assert!(c.vertices().all(|v| c.degree(v) == 2));
        let p = path(6);
        assert_eq!(p.degree(VertexId(0)), 1);
        assert_eq!(p.degree(VertexId(3)), 2);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn cycle_requires_three_vertices() {
        let _ = cycle(2);
    }

    #[test]
    fn star_structure() {
        let g = star(7);
        assert_eq!(g.degree(VertexId(0)), 7);
        assert!((1..=7).all(|v| g.degree(VertexId(v)) == 1));
    }

    #[test]
    fn grid_edge_count() {
        let g = grid(4, 3);
        // Horizontal: 3*3, vertical: 4*2.
        assert_eq!(g.num_undirected_edges(), 9 + 8);
    }

    #[test]
    fn erdos_renyi_is_deterministic_per_seed() {
        let a = erdos_renyi(50, 0.1, 7);
        let b = erdos_renyi(50, 0.1, 7);
        let c = erdos_renyi(50, 0.1, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_symmetric());
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(10, 0.0, 1).num_directed_edges(), 0);
        assert_eq!(erdos_renyi(6, 1.0, 1), complete(6));
    }

    #[test]
    fn preferential_attachment_basic_invariants() {
        let g = preferential_attachment(300, 3, 42);
        assert_eq!(g.num_vertices(), 300);
        assert!(g.is_symmetric());
        // Every late vertex attaches exactly m edges (modulo collisions with
        // the seed clique, which only add).
        assert!(g.num_undirected_edges() >= 3 * (300 - 4));
        // Heavy tail: max degree well above the mean.
        assert!(g.max_degree() as f64 > 3.0 * g.avg_degree());
    }

    #[test]
    fn preferential_attachment_is_deterministic() {
        assert_eq!(preferential_attachment(100, 2, 5), preferential_attachment(100, 2, 5));
    }

    #[test]
    fn powerlaw_cluster_is_simple_and_deterministic() {
        let g = powerlaw_cluster(200, 3, 0.6, 9);
        assert!(g.is_symmetric());
        assert_eq!(g, powerlaw_cluster(200, 3, 0.6, 9));
    }

    /// The growth process behind [`powerlaw_cluster`] in its first form,
    /// kept as its oracle: every vertex's neighbours in the order the edges
    /// were added, and the endpoint log of both ends the degree-proportional
    /// draws sample from.
    fn powerlaw_cluster_growth(
        n: usize,
        m: usize,
        closure: f64,
        seed: u64,
    ) -> (Vec<Vec<u32>>, Vec<u32>) {
        assert!(m >= 1, "each new vertex must attach at least one edge");
        assert!(n > m, "need at least m+1 vertices for the seed clique");
        let mut rng = StdRng::seed_from_u64(seed);
        // The endpoint log ends holding both ends of the seed clique's edges
        // and of the `m` edges of every later vertex.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut endpoints: Vec<u32> = Vec::with_capacity(m * (m + 1) + 2 * m * (n - m - 1));
        let add = |adj: &mut Vec<Vec<u32>>, endpoints: &mut Vec<u32>, a: u32, b: u32| {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
            endpoints.push(a);
            endpoints.push(b);
        };
        for u in 0..=(m as u32) {
            for v in (u + 1)..=(m as u32) {
                add(&mut adj, &mut endpoints, u, v);
            }
        }
        let mut targets: Vec<u32> = Vec::with_capacity(m);
        for u in (m as u32 + 1)..(n as u32) {
            targets.clear();
            let mut prev: Option<u32> = None;
            while targets.len() < m {
                let candidate = match prev {
                    Some(p)
                        if rng.gen_bool(closure.clamp(0.0, 1.0)) && !adj[p as usize].is_empty() =>
                    {
                        adj[p as usize][rng.gen_range(0..adj[p as usize].len())]
                    }
                    _ => endpoints[rng.gen_range(0..endpoints.len())],
                };
                if candidate != u && !targets.contains(&candidate) {
                    targets.push(candidate);
                    prev = Some(candidate);
                } else {
                    prev = None; // avoid livelock on saturated neighborhoods
                }
            }
            // A row is empty until its vertex names its `m` targets; it is
            // sized then, beside the rows allocated before it.
            adj[u as usize] = Vec::with_capacity(m);
            for &t in &targets {
                add(&mut adj, &mut endpoints, u, t);
            }
        }
        (adj, endpoints)
    }

    /// The oracle's rows fed edge by edge through the builder.
    fn powerlaw_cluster_oracle(n: usize, m: usize, closure: f64, seed: u64) -> CsrGraph {
        let mut b = GraphBuilder::new().vertices(n);
        for (u, list) in powerlaw_cluster_growth(n, m, closure, seed).0.iter().enumerate() {
            for &v in list.iter().filter(|&&v| (u as u32) < v) {
                b = b.edge(u as u32, v);
            }
        }
        b.build().expect("simple graph")
    }

    /// [`powerlaw_cluster`]'s rows, grown in flat arrays, against the
    /// oracle: m = 1, closure at both ends, n = m + 1, a saturated seed
    /// clique and hubs far past their slab of `m` attachers.
    #[test]
    fn powerlaw_cluster_rows_equal_the_builder_path() {
        for (n, m, closure, seed) in [
            (200, 3, 0.6, 9),
            (500, 8, 0.0, 1),
            (300, 5, 1.0, 2),
            (64, 1, 0.3, 3),
            (41, 40, 0.5, 4),
            (2, 1, 0.5, 5),
            (9, 8, 1.0, 6),
            (300, 1, 1.0, 7),
            (60, 20, 0.9, 8),
            (3_000, 2, 0.0, 10),
        ] {
            let g = powerlaw_cluster(n, m, closure, seed);
            assert_eq!(g, powerlaw_cluster_oracle(n, m, closure, seed), "{n} {m} {closure} {seed}");
        }
        // The last graph's hubs hold tens of times their slab.
        assert!(powerlaw_cluster(3_000, 2, 0.0, 10).max_degree() > 40);
    }

    /// [`caveman`]'s oracle: the same cliques and bridge draws, fed edge by
    /// edge through the builder.
    fn caveman_oracle(communities: usize, size: usize, bridges: usize, seed: u64) -> CsrGraph {
        let n = communities * size;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new().vertices(n);
        for c in 0..communities {
            let base = (c * size) as u32;
            for i in 0..size as u32 {
                for j in (i + 1)..size as u32 {
                    b = b.edge(base + i, base + j);
                }
            }
        }
        for _ in 0..bridges {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                b = b.edge(u, v);
            }
        }
        b.build().expect("caveman graph is always valid")
    }

    #[test]
    fn caveman_rows_equal_the_builder_path() {
        // Dense bridges on few vertices: repeated bridges, bridges on
        // clique edges and draws with u == v all occur.
        for (communities, size, bridges, seed) in [
            (3, 4, 200, 1),
            (2, 2, 50, 2),
            (1, 6, 40, 3),
            (1, 2, 0, 4),
            (40, 5, 0, 5),
            (300, 11, 1_500, 13),
            (50, 3, 400, 6),
        ] {
            assert_eq!(
                caveman(communities, size, bridges, seed),
                caveman_oracle(communities, size, bridges, seed),
                "{communities} {size} {bridges} {seed}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn powerlaw_cluster_matches_its_oracle(
            n in 2usize..=400,
            m in 1usize..=12,
            percent in 0u32..=100,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (n, closure) = (n.max(m + 1), f64::from(percent) / 100.0);
            proptest::prop_assert_eq!(
                powerlaw_cluster(n, m, closure, seed),
                powerlaw_cluster_oracle(n, m, closure, seed)
            );
        }

        #[test]
        fn caveman_matches_its_oracle(
            communities in 1usize..=30,
            size in 2usize..=8,
            bridges in 0usize..=300,
            seed in proptest::prelude::any::<u64>(),
        ) {
            proptest::prop_assert_eq!(
                caveman(communities, size, bridges, seed),
                caveman_oracle(communities, size, bridges, seed)
            );
        }
    }

    #[test]
    fn attach_hubs_adds_high_degree_vertices() {
        let base = erdos_renyi(500, 0.01, 4);
        let g = attach_hubs(&base, 3, 200, 7);
        assert_eq!(g.num_vertices(), 503);
        assert!(g.is_symmetric());
        // Each hub: `degree` random targets + rich-club edges to the
        // other hubs.
        for h in 500..503u32 {
            assert_eq!(g.degree(VertexId(h)), 200 + 2, "hub targets must be distinct");
        }
        assert!(g.has_edge(VertexId(500), VertexId(501)));
        assert!(g.has_edge(VertexId(501), VertexId(502)));
        assert_eq!(g.num_undirected_edges(), base.num_undirected_edges() + 3 * 200 + 3);
        assert_eq!(attach_hubs(&base, 3, 200, 7), g);
    }

    #[test]
    fn caveman_has_closed_form_cliques() {
        let g = caveman(4, 6, 0, 1);
        assert_eq!(g.num_vertices(), 24);
        // 4 * C(6,2) edges.
        assert_eq!(g.num_undirected_edges(), 4 * 15);
        assert!(g.is_symmetric());
        // Deterministic with bridges; still simple.
        let h = caveman(4, 6, 10, 1);
        assert!(h.num_undirected_edges() >= g.num_undirected_edges());
        assert_eq!(h, caveman(4, 6, 10, 1));
    }

    #[test]
    fn shuffle_preserves_structure() {
        let g = powerlaw_cluster(300, 4, 0.5, 5);
        let shuffled = shuffle_ids(&g, 9);
        assert_eq!(shuffled.num_vertices(), g.num_vertices());
        assert_eq!(shuffled.num_undirected_edges(), g.num_undirected_edges());
        assert_eq!(shuffled.max_degree(), g.max_degree());
        // Degree multiset is preserved.
        let mut a = crate::stats::degree_histogram(&g);
        let mut b = crate::stats::degree_histogram(&shuffled);
        a.resize(b.len().max(a.len()), 0);
        b.resize(a.len(), 0);
        assert_eq!(a, b);
        assert_eq!(shuffle_ids(&g, 9), shuffled);
        assert_ne!(shuffled, g);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn attach_hubs_rejects_oversized_degree() {
        let base = complete(10);
        let _ = attach_hubs(&base, 1, 11, 0);
    }
}
