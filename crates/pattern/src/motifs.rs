//! Enumeration of k-vertex motifs, and how many copies of one sit in
//! another.
//!
//! A *motif* is a connected pattern with k vertices; k-motif counting
//! (k-MC, §II-A) counts vertex-induced occurrences of every k-motif
//! simultaneously. Fig. 3 of the paper shows the 2 three-vertex motifs
//! (wedge, triangle) and the 6 four-vertex motifs (4-path, 3-star, 4-cycle,
//! tailed triangle, diamond, 4-clique).

use crate::pattern::Pattern;

/// Returns all connected k-vertex patterns up to isomorphism, sorted by
/// ascending edge count then canonical code (deterministic order: sparsest
/// motif first, the k-clique always last).
///
/// Enumeration is over all `2^(k(k-1)/2)` labelled graphs, so this is
/// intended for k ≤ 6 (the paper evaluates 3-MC; 4- and 5-motifs are
/// common extensions).
///
/// # Panics
///
/// Panics if `k == 0` or `k > 6`.
///
/// # Examples
///
/// ```
/// use fm_pattern::{motifs, Pattern};
///
/// let three = motifs::motifs(3);
/// assert_eq!(three.len(), 2);
/// assert!(three[0].is_isomorphic(&Pattern::wedge()));
/// assert!(three[1].is_isomorphic(&Pattern::triangle()));
/// ```
pub fn motifs(k: usize) -> Vec<Pattern> {
    assert!(k >= 1, "motifs need at least one vertex");
    assert!(k <= 6, "motif enumeration is exponential; limited to k <= 6");
    if k == 1 {
        return vec![Pattern::from_edges(1, &[]).expect("single vertex is valid")];
    }
    let pair_count = k * (k - 1) / 2;
    let pairs: Vec<(usize, usize)> = {
        let mut v = Vec::with_capacity(pair_count);
        for u in 0..k {
            for w in (u + 1)..k {
                v.push((u, w));
            }
        }
        v
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut out: Vec<Pattern> = Vec::new();
    for mask in 0u64..(1 << pair_count) {
        let edges: Vec<(usize, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| (mask >> i) & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        if let Ok(p) = Pattern::from_edges(k, &edges) {
            if seen.insert(p.canonical_code()) {
                out.push(p);
            }
        }
    }
    out.sort_by_key(|p| (p.edge_count(), p.canonical_code()));
    out
}

/// How many subgraphs of `h` on all of its vertices are copies of `p`:
/// the one-to-one maps of `p`'s vertices onto `h`'s that keep every edge
/// of `p`, up to `p`'s own automorphisms.
///
/// These are the coefficients of the containment identity
/// `#P = Σ_H copies(P in H) · ind(H)`, which turns the vertex-induced
/// census of the k-motifs into their edge-induced counts, and back. Over
/// [`motifs`] order the matrix is unit upper-triangular: a copy of `p` in
/// `h` needs at least as many edges in `h`, and as many only if `h` is `p`.
///
/// # Panics
///
/// Panics if `p` and `h` differ in size.
///
/// # Examples
///
/// ```
/// use fm_pattern::{motifs::copies, Pattern};
///
/// // A triangle holds three wedges; a wedge holds no triangle.
/// assert_eq!(copies(&Pattern::wedge(), &Pattern::triangle()), 3);
/// assert_eq!(copies(&Pattern::triangle(), &Pattern::wedge()), 0);
/// ```
pub fn copies(p: &Pattern, h: &Pattern) -> u64 {
    assert_eq!(p.size(), h.size(), "containment is between patterns of one size");
    /// Maps `u..` onto the vertices of `h` not in `used`, every way that
    /// keeps `p`'s edges back to `0..u`.
    fn maps(p: &Pattern, h: &Pattern, to: &mut [usize], u: usize, used: u32) -> u64 {
        if u == p.size() {
            return 1;
        }
        let mut n = 0;
        for x in (0..h.size()).filter(|&x| used & (1 << x) == 0) {
            if (0..u).all(|w| !p.has_edge(u, w) || h.has_edge(x, to[w])) {
                to[u] = x;
                n += maps(p, h, to, u + 1, used | 1 << x);
            }
        }
        n
    }
    maps(p, h, &mut vec![0; p.size()], 0, 0) / p.automorphism_count() as u64
}

/// A short human-readable name: the one the pattern parser reads back as
/// this pattern (`wedge`, `triangle`, `diamond`, `tailed-triangle`,
/// `house`, and the `k-clique` / `k-cycle` / `k-path` / `k-star` families
/// at any size, numbered as the parser numbers them: a `k-path` has `k`
/// vertices, a `k-star` has `k` leaves), so a run prints the name it was
/// given; `k{size}e{edges}` for everything else.
pub fn motif_name(p: &Pattern) -> String {
    let named: &[(&str, Pattern)] = &[
        ("wedge", Pattern::wedge()),
        ("triangle", Pattern::triangle()),
        ("tailed-triangle", Pattern::tailed_triangle()),
        ("diamond", Pattern::diamond()),
        ("house", Pattern::house()),
    ];
    for (name, q) in named {
        if p.is_isomorphic(q) {
            return (*name).to_string();
        }
    }
    // Patterns are connected, which makes each family its degree profile.
    let (n, m) = (p.size(), p.edge_count());
    let max_degree = (0..n).map(|u| p.degree(u)).max().unwrap_or(0);
    if p.is_clique() {
        format!("{n}-clique")
    } else if m == n && max_degree == 2 {
        format!("{n}-cycle")
    } else if m == n - 1 && max_degree == 2 {
        format!("{n}-path")
    } else if m == n - 1 && max_degree == n - 1 {
        format!("{}-star", n - 1)
    } else {
        format!("k{n}e{m}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motif_counts_match_oeis() {
        // Connected graphs on n nodes: 1, 1, 2, 6, 21, 112 (OEIS A001349).
        assert_eq!(motifs(1).len(), 1);
        assert_eq!(motifs(2).len(), 1);
        assert_eq!(motifs(3).len(), 2);
        assert_eq!(motifs(4).len(), 6);
        assert_eq!(motifs(5).len(), 21);
    }

    #[test]
    fn four_motifs_are_the_figure_three_set() {
        let ms = motifs(4);
        let names: Vec<String> = ms.iter().map(motif_name).collect();
        // Sorted by edge count: path & star (3 edges), cycle & tailed
        // triangle (4), diamond (5), clique (6).
        assert_eq!(names.len(), 6);
        assert!(names[..2].contains(&"4-path".to_string()));
        assert!(names[..2].contains(&"3-star".to_string()));
        assert!(names[2..4].contains(&"4-cycle".to_string()));
        assert!(names[2..4].contains(&"tailed-triangle".to_string()));
        assert_eq!(names[4], "diamond");
        assert_eq!(names[5], "4-clique");
    }

    #[test]
    fn motifs_are_pairwise_non_isomorphic() {
        let ms = motifs(5);
        for i in 0..ms.len() {
            for j in (i + 1)..ms.len() {
                assert!(!ms[i].is_isomorphic(&ms[j]));
            }
        }
    }

    #[test]
    fn motif_name_fallback() {
        // A 4-cycle with a pendant vertex: five edges like the 5-cycle,
        // whose name it used to share.
        let p: Pattern = "0-1,1-2,2-3,3-0,0-4".parse().unwrap();
        assert_eq!(motif_name(&p), "k5e5");
        assert_eq!(motif_name(&Pattern::cycle(5)), "5-cycle");
        assert_eq!(motif_name(&Pattern::k_clique(5)), "5-clique");
    }

    /// Every name the parser knows comes back out: `count <name>` prints
    /// `<name>: …`, at any size and under any relabelling.
    #[test]
    fn family_names_round_trip_through_the_parser() {
        use crate::pattern::MAX_PATTERN_VERTICES as MAX;
        let mut all = vec![
            Pattern::wedge(),
            Pattern::triangle(),
            Pattern::diamond(),
            Pattern::tailed_triangle(),
            Pattern::house(),
        ];
        all.extend((1..=MAX).map(Pattern::k_clique));
        all.extend((3..=MAX).map(Pattern::cycle));
        all.extend((1..=MAX).map(Pattern::path));
        all.extend((1..MAX).map(Pattern::star));
        for p in all {
            let name = motif_name(&p);
            assert!(!name.starts_with('k'), "{p} has no family name: {name}");
            let back: Pattern = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!((back.size(), back.edge_count()), (p.size(), p.edge_count()), "{name}");
            // Canonical codes walk size! relabellings.
            assert!(p.size() > 7 || back.is_isomorphic(&p), "{name} parsed back as {back}");
            let reversed: Vec<usize> = (0..p.size()).rev().collect();
            assert_eq!(motif_name(&p.relabel(&reversed)), name);
        }
        // Small members of several families take one name between them.
        assert_eq!(motif_name(&Pattern::star(2)), "wedge");
        assert_eq!(motif_name(&Pattern::cycle(3)), "triangle");
        assert_eq!(motif_name(&Pattern::path(2)), "2-clique");
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn large_k_panics() {
        let _ = motifs(7);
    }
}
