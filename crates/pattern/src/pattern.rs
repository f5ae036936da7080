//! Small dense pattern graphs.

use crate::depthset::DepthSet;
use std::fmt;

/// Maximum number of vertices in a pattern.
///
/// The paper's c-map stores an 8-bit connectivity value, fully supporting
/// patterns within 10 vertices (§VII-D); we allow a little headroom, and the
/// hardware model applies the paper's partial-c-map rule beyond the value
/// width.
pub const MAX_PATTERN_VERTICES: usize = 16;

/// Error produced while constructing a [`Pattern`].
#[derive(Debug, PartialEq, Eq)]
pub enum PatternError {
    /// More than [`MAX_PATTERN_VERTICES`] vertices requested.
    TooLarge(usize),
    /// An edge references a vertex ≥ the declared vertex count.
    EdgeOutOfRange(usize, usize),
    /// A self loop was supplied.
    SelfLoop(usize),
    /// The pattern is not connected (disconnected patterns cannot be mined
    /// by vertex extension).
    Disconnected,
    /// The pattern has no vertices.
    Empty,
    /// Text that is neither a pattern name nor an edge `u-v`; carries the
    /// offending comma-separated token.
    Syntax(String),
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::TooLarge(n) => {
                write!(f, "pattern with {n} vertices exceeds the maximum of {MAX_PATTERN_VERTICES}")
            }
            PatternError::EdgeOutOfRange(u, v) => {
                write!(f, "edge ({u}, {v}) references a vertex outside the pattern")
            }
            PatternError::SelfLoop(u) => write!(f, "pattern vertex {u} has a self loop"),
            PatternError::Disconnected => write!(f, "pattern is not connected"),
            PatternError::Empty => write!(f, "pattern has no vertices"),
            PatternError::Syntax(token) => {
                write!(
                    f,
                    "cannot read {token:?} as a pattern name or an edge \"u-v\" of vertex ids"
                )
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// A connected, simple, undirected pattern graph with at most
/// [`MAX_PATTERN_VERTICES`] vertices, stored as per-vertex adjacency
/// bitmasks.
///
/// Pattern vertices are `0..size()`. In paper notation these are the
/// `u_i`; data vertices matched to them are the `v_i`.
///
/// # Examples
///
/// ```
/// use fm_pattern::Pattern;
///
/// let p = Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(p, Pattern::cycle(4));
/// assert_eq!(p.edge_count(), 4);
/// assert_eq!(p.automorphism_count(), 8); // dihedral group of the square
/// # Ok::<(), fm_pattern::PatternError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Pattern {
    n: usize,
    adj: Vec<DepthSet>,
}

impl Pattern {
    /// Builds a pattern from an explicit vertex count and edge list.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] if the pattern is empty, too large, has
    /// out-of-range edges or self loops, or is disconnected. Duplicate edges
    /// are tolerated (collapsed).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, PatternError> {
        if n == 0 {
            return Err(PatternError::Empty);
        }
        if n > MAX_PATTERN_VERTICES {
            return Err(PatternError::TooLarge(n));
        }
        let mut adj = vec![DepthSet::new(); n];
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(PatternError::EdgeOutOfRange(u, v));
            }
            if u == v {
                return Err(PatternError::SelfLoop(u));
            }
            adj[u].insert(v);
            adj[v].insert(u);
        }
        let p = Pattern { n, adj };
        if !p.is_connected() {
            return Err(PatternError::Disconnected);
        }
        Ok(p)
    }

    /// Number of pattern vertices (the pattern size k).
    #[inline]
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of undirected pattern edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Whether pattern vertices `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(v)
    }

    /// The neighbors of pattern vertex `u` as a depth set.
    #[inline]
    pub fn neighbors(&self, u: usize) -> DepthSet {
        self.adj[u]
    }

    /// Degree of pattern vertex `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Undirected edges `(u, v)` with `u < v`, in lexicographic order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in 0..self.n {
            for v in self.adj[u].iter() {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Whether the pattern is connected (patterns of size 1 are connected).
    pub fn is_connected(&self) -> bool {
        let mut seen = DepthSet::from_depths([0]);
        let mut frontier = vec![0usize];
        while let Some(u) = frontier.pop() {
            for v in self.adj[u].iter() {
                if !seen.contains(v) {
                    seen.insert(v);
                    frontier.push(v);
                }
            }
        }
        seen.len() == self.n
    }

    /// Whether the pattern is a complete graph (k-clique). The FlexMiner
    /// compiler special-cases cliques to use DAG orientation (§V-C).
    pub fn is_clique(&self) -> bool {
        self.adj.iter().enumerate().all(|(u, s)| s.len() == self.n - 1 && !s.contains(u))
    }

    /// Applies a vertex relabelling: vertex `perm[i]` of `self` becomes
    /// vertex `i` of the result (i.e. `perm` lists old labels in new order).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..size()`.
    pub fn relabel(&self, perm: &[usize]) -> Pattern {
        assert_eq!(perm.len(), self.n, "permutation length must match pattern size");
        let mut pos = vec![usize::MAX; self.n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(old < self.n && pos[old] == usize::MAX, "not a permutation");
            pos[old] = new;
        }
        let mut adj = vec![DepthSet::new(); self.n];
        for (u, v) in self.edges() {
            adj[pos[u]].insert(pos[v]);
            adj[pos[v]].insert(pos[u]);
        }
        Pattern { n: self.n, adj }
    }

    /// All automorphisms of the pattern, each as a mapping `perm[u] = image
    /// of u`. The identity is always included.
    ///
    /// The group has up to `n!` members (an `n`-clique), so this is the
    /// test reference only; [`stabilizer_orbits`](Self::stabilizer_orbits)
    /// answers everything the compiler asks without listing it.
    pub fn automorphisms(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut perm = vec![usize::MAX; self.n];
        self.automorphism_search(0, &mut perm, DepthSet::new(), &mut |phi| {
            out.push(phi.to_vec());
            false
        });
        out
    }

    /// Extends the partial automorphism `perm` (positions `0..u` assigned,
    /// their images in `used`) in every consistent way, handing each full
    /// one to `found`; stops as soon as `found` returns true, and returns
    /// whether it did.
    fn automorphism_search(
        &self,
        u: usize,
        perm: &mut [usize],
        used: DepthSet,
        found: &mut impl FnMut(&[usize]) -> bool,
    ) -> bool {
        if u == self.n {
            return found(perm);
        }
        // A position assigned ahead of the walk (the one image an orbit
        // search pins) only needs checking against the positions before it.
        let pinned = perm[u] != usize::MAX;
        for cand in 0..self.n {
            if pinned && cand != perm[u] {
                continue;
            }
            if (!pinned && used.contains(cand)) || self.degree(cand) != self.degree(u) {
                continue;
            }
            // Consistency with already-assigned vertices.
            if !(0..u).all(|w| self.has_edge(u, w) == self.has_edge(cand, perm[w])) {
                continue;
            }
            perm[u] = cand;
            let mut next = used;
            next.insert(cand);
            if self.automorphism_search(u + 1, perm, next, found) {
                return true;
            }
            if !pinned {
                perm[u] = usize::MAX;
            }
        }
        false
    }

    /// The orbit-stabilizer chain of the automorphism group: entry `u` is
    /// the orbit of `u` under the automorphisms fixing each of `0..u`
    /// (sorted, `u` included). |Aut(P)| is the product of the orbit sizes,
    /// and the Grochow–Kellis symmetry order is read off the same orbits
    /// ([`symmetry_pairs`](crate::symmetry::symmetry_pairs)).
    ///
    /// Each member of an orbit is found by one search that stops at the
    /// first automorphism with that image, so a 16-clique costs a few
    /// thousand steps where listing its group would take 16! vectors.
    pub fn stabilizer_orbits(&self) -> Vec<Vec<usize>> {
        let n = self.n;
        let mut perm = vec![usize::MAX; n];
        (0..n)
            .map(|u| {
                (u..n)
                    .filter(|&image| {
                        // Fix 0..u, pin u to `image`, and ask for any completion.
                        for (w, p) in perm.iter_mut().enumerate() {
                            *p = if w < u { w } else { usize::MAX };
                        }
                        perm[u] = image;
                        let mut used = DepthSet::from_depths(0..u);
                        used.insert(image);
                        self.automorphism_search(u, &mut perm, used, &mut |_| true)
                    })
                    .collect()
            })
            .collect()
    }

    /// Number of automorphisms (|Aut(P)|): the product of the
    /// [`stabilizer_orbits`](Self::stabilizer_orbits) sizes.
    ///
    /// Pattern-aware engines with symmetry breaking find each embedding
    /// once; without it (AutoMine mode) each embedding is found exactly
    /// `automorphism_count()` times.
    pub fn automorphism_count(&self) -> usize {
        self.stabilizer_orbits().iter().map(Vec::len).product()
    }

    /// A canonical encoding: the lexicographically smallest adjacency
    /// bit-string over all relabellings. Two patterns are isomorphic iff
    /// their codes are equal.
    ///
    /// Exponential in pattern size; intended for the ≤6-vertex motif sets of
    /// the paper's applications.
    pub fn canonical_code(&self) -> u64 {
        let mut best = u64::MAX;
        let mut perm: Vec<usize> = (0..self.n).collect();
        permute(&mut perm, 0, &mut |p| {
            let mut code: u64 = 0;
            let mut bit = 0;
            for i in 0..self.n {
                for j in (i + 1)..self.n {
                    if self.has_edge(p[i], p[j]) {
                        code |= 1 << bit;
                    }
                    bit += 1;
                }
            }
            if code < best {
                best = code;
            }
        });
        best
    }

    /// Whether `self` and `other` are isomorphic.
    pub fn is_isomorphic(&self, other: &Pattern) -> bool {
        self.n == other.n
            && self.edge_count() == other.edge_count()
            && self.canonical_code() == other.canonical_code()
    }

    // ----- named constructors (the paper's patterns, Figs. 3 and 11) -----

    /// The triangle (3-clique).
    pub fn triangle() -> Pattern {
        Pattern::k_clique(3)
    }

    /// The wedge: a path of three vertices (vertex 0 is the center).
    pub fn wedge() -> Pattern {
        Pattern::from_edges(3, &[(0, 1), (0, 2)]).expect("wedge is valid")
    }

    /// The complete graph on `k` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > MAX_PATTERN_VERTICES`.
    pub fn k_clique(k: usize) -> Pattern {
        let mut edges = Vec::new();
        for u in 0..k {
            for v in (u + 1)..k {
                edges.push((u, v));
            }
        }
        Pattern::from_edges(k, &edges).expect("clique is valid")
    }

    /// The simple cycle on `k ≥ 3` vertices. `Pattern::cycle(4)` is the
    /// paper's 4-cycle.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3`.
    pub fn cycle(k: usize) -> Pattern {
        assert!(k >= 3, "a simple cycle needs at least 3 vertices");
        let edges: Vec<_> = (0..k).map(|u| (u, (u + 1) % k)).collect();
        Pattern::from_edges(k, &edges).expect("cycle is valid")
    }

    /// The diamond: a 4-clique minus one edge (two triangles sharing an
    /// edge). Vertices 0-1 form the shared edge.
    pub fn diamond() -> Pattern {
        Pattern::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).expect("diamond is valid")
    }

    /// The tailed triangle: a triangle (0,1,2) with a pendant vertex 3
    /// attached to vertex 2.
    pub fn tailed_triangle() -> Pattern {
        Pattern::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).expect("tailed triangle is valid")
    }

    /// The simple path on `k ≥ 1` vertices (`k-1` edges).
    pub fn path(k: usize) -> Pattern {
        let edges: Vec<_> = (1..k).map(|u| (u - 1, u)).collect();
        Pattern::from_edges(k, &edges).expect("path is valid")
    }

    /// The star with `k` leaves: vertex 0 is the center, `k + 1` vertices
    /// total.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn star(k: usize) -> Pattern {
        assert!(k >= 1, "a star needs at least one leaf");
        let edges: Vec<_> = (1..=k).map(|v| (0, v)).collect();
        Pattern::from_edges(k + 1, &edges).expect("star is valid")
    }

    /// The house: a 4-cycle (0,1,2,3) with a roof vertex 4 adjacent to 0
    /// and 1.
    pub fn house() -> Pattern {
        Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
            .expect("house is valid")
    }
}

impl std::str::FromStr for Pattern {
    type Err = PatternError;

    /// Parses either a named pattern (`triangle`, `wedge`, `diamond`,
    /// `tailed-triangle`, `house`, `3-clique`…`NN-clique`, `4-cycle`,
    /// `5-path`, `3-star`) or an explicit edge list `0-1,1-2,2-0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fm_pattern::Pattern;
    ///
    /// let p: Pattern = "0-1,1-2,2-0".parse()?;
    /// assert!(p.is_isomorphic(&Pattern::triangle()));
    /// let q: Pattern = "4-clique".parse()?;
    /// assert_eq!(q, Pattern::k_clique(4));
    /// # Ok::<(), fm_pattern::PatternError>(())
    /// ```
    fn from_str(s: &str) -> Result<Pattern, PatternError> {
        let s = s.trim();
        match s.to_ascii_lowercase().as_str() {
            "triangle" => return Ok(Pattern::triangle()),
            "wedge" => return Ok(Pattern::wedge()),
            "diamond" => return Ok(Pattern::diamond()),
            "tailed-triangle" | "tailed_triangle" => return Ok(Pattern::tailed_triangle()),
            "house" => return Ok(Pattern::house()),
            _ => {}
        }
        if let Some((num, kind)) = s.split_once('-') {
            if let Ok(k) = num.parse::<usize>() {
                match kind.to_ascii_lowercase().as_str() {
                    "clique" if (1..=MAX_PATTERN_VERTICES).contains(&k) => {
                        return Ok(Pattern::k_clique(k))
                    }
                    "cycle" if (3..=MAX_PATTERN_VERTICES).contains(&k) => {
                        return Ok(Pattern::cycle(k))
                    }
                    "path" if (1..=MAX_PATTERN_VERTICES).contains(&k) => {
                        return Ok(Pattern::path(k))
                    }
                    "star" if (1..MAX_PATTERN_VERTICES).contains(&k) => {
                        return Ok(Pattern::star(k))
                    }
                    _ => {}
                }
            }
        }
        // Edge-list form: "u-v,u-v,…".
        let mut edges = Vec::new();
        let mut max_v = 0usize;
        for part in s.split(',') {
            let part = part.trim();
            let edge = part
                .split_once('-')
                .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)));
            let (u, v): (usize, usize) =
                edge.ok_or_else(|| PatternError::Syntax(part.to_string()))?;
            max_v = max_v.max(u).max(v);
            edges.push((u, v));
        }
        // `split` yields at least one part, so `edges` is non-empty here.
        let n = max_v.checked_add(1).ok_or(PatternError::TooLarge(usize::MAX))?;
        Pattern::from_edges(n, &edges)
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}[", self.n)?;
        for (i, (u, v)) in self.edges().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{u}-{v}")?;
        }
        write!(f, "]")
    }
}

/// Calls `f` with every permutation of `items[at..]` (Heap-style recursion).
fn permute<F: FnMut(&[usize])>(items: &mut Vec<usize>, at: usize, f: &mut F) {
    if at == items.len() {
        f(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, f);
        items.swap(at, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_shape() {
        assert_eq!(Pattern::triangle().edge_count(), 3);
        assert_eq!(Pattern::wedge().edge_count(), 2);
        assert_eq!(Pattern::k_clique(5).edge_count(), 10);
        assert_eq!(Pattern::cycle(4).edge_count(), 4);
        assert_eq!(Pattern::diamond().edge_count(), 5);
        assert_eq!(Pattern::tailed_triangle().edge_count(), 4);
        assert_eq!(Pattern::path(4).edge_count(), 3);
        assert_eq!(Pattern::star(3).edge_count(), 3);
        assert_eq!(Pattern::house().edge_count(), 6);
    }

    #[test]
    fn from_edges_validates() {
        assert_eq!(Pattern::from_edges(0, &[]), Err(PatternError::Empty));
        assert_eq!(Pattern::from_edges(3, &[(0, 3)]), Err(PatternError::EdgeOutOfRange(0, 3)));
        assert_eq!(Pattern::from_edges(2, &[(1, 1)]), Err(PatternError::SelfLoop(1)));
        assert_eq!(Pattern::from_edges(3, &[(0, 1)]), Err(PatternError::Disconnected));
        assert_eq!(Pattern::from_edges(17, &[]), Err(PatternError::TooLarge(17)));
    }

    #[test]
    fn automorphism_counts_match_group_theory() {
        assert_eq!(Pattern::triangle().automorphism_count(), 6); // S3
        assert_eq!(Pattern::k_clique(4).automorphism_count(), 24); // S4
        assert_eq!(Pattern::cycle(4).automorphism_count(), 8); // D4
        assert_eq!(Pattern::cycle(5).automorphism_count(), 10); // D5
        assert_eq!(Pattern::wedge().automorphism_count(), 2);
        assert_eq!(Pattern::diamond().automorphism_count(), 4);
        assert_eq!(Pattern::tailed_triangle().automorphism_count(), 2);
        assert_eq!(Pattern::path(4).automorphism_count(), 2);
        assert_eq!(Pattern::star(3).automorphism_count(), 6); // S3 on leaves
        assert_eq!(Pattern::house().automorphism_count(), 2);
    }

    /// The orbit of `u` under the automorphisms fixing `0..u`, read off the
    /// listed group.
    fn listed_orbits(p: &Pattern) -> Vec<Vec<usize>> {
        let auts = p.automorphisms();
        (0..p.size())
            .map(|u| {
                let mut orbit: Vec<usize> = auts
                    .iter()
                    .filter(|phi| (0..u).all(|w| phi[w] == w))
                    .map(|phi| phi[u])
                    .collect();
                orbit.sort_unstable();
                orbit.dedup();
                orbit
            })
            .collect()
    }

    #[test]
    fn stabilizer_orbits_match_the_listed_group() {
        for p in [
            Pattern::triangle(),
            Pattern::wedge(),
            Pattern::k_clique(5),
            Pattern::cycle(4),
            Pattern::cycle(6),
            Pattern::diamond(),
            Pattern::tailed_triangle(),
            Pattern::path(5),
            Pattern::star(4),
            Pattern::house(),
            Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4)]).unwrap(),
            Pattern::from_edges(1, &[]).unwrap(),
        ] {
            assert_eq!(p.stabilizer_orbits(), listed_orbits(&p), "{p}");
            assert_eq!(p.automorphism_count(), p.automorphisms().len(), "{p}");
        }
    }

    #[test]
    fn groups_too_big_to_list_are_still_counted() {
        let factorial = |n: usize| (1..=n).product::<usize>();
        assert_eq!(Pattern::k_clique(16).automorphism_count(), factorial(16));
        assert_eq!(Pattern::star(15).automorphism_count(), factorial(15));
        assert_eq!(Pattern::cycle(16).automorphism_count(), 32);
        assert_eq!(Pattern::path(16).automorphism_count(), 2);
    }

    #[test]
    fn automorphisms_preserve_adjacency() {
        let p = Pattern::diamond();
        for phi in p.automorphisms() {
            for (u, v) in p.edges() {
                assert!(p.has_edge(phi[u], phi[v]));
            }
        }
    }

    #[test]
    fn relabel_round_trips() {
        let p = Pattern::tailed_triangle();
        let perm = vec![2, 0, 3, 1];
        let q = p.relabel(&perm);
        assert!(p.is_isomorphic(&q));
        assert_ne!(p, q); // relabelling actually moved vertices
    }

    #[test]
    fn isomorphism_distinguishes_four_vertex_patterns() {
        let all = [
            Pattern::path(4),
            Pattern::star(3),
            Pattern::cycle(4),
            Pattern::tailed_triangle(),
            Pattern::diamond(),
            Pattern::k_clique(4),
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(a.is_isomorphic(b), i == j, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn clique_detection() {
        assert!(Pattern::triangle().is_clique());
        assert!(Pattern::k_clique(6).is_clique());
        assert!(!Pattern::diamond().is_clique());
        assert!(Pattern::from_edges(1, &[]).unwrap().is_clique());
        assert!(Pattern::from_edges(2, &[(0, 1)]).unwrap().is_clique());
    }

    #[test]
    fn display_lists_edges() {
        assert_eq!(Pattern::wedge().to_string(), "P3[0-1 0-2]");
        assert_eq!(Pattern::from_edges(1, &[]).unwrap().to_string(), "P1[]");
    }

    #[test]
    fn parsing_named_patterns() {
        assert_eq!("triangle".parse::<Pattern>().unwrap(), Pattern::triangle());
        assert_eq!("5-clique".parse::<Pattern>().unwrap(), Pattern::k_clique(5));
        assert_eq!("4-cycle".parse::<Pattern>().unwrap(), Pattern::cycle(4));
        assert_eq!("4-path".parse::<Pattern>().unwrap(), Pattern::path(4));
        assert_eq!("3-star".parse::<Pattern>().unwrap(), Pattern::star(3));
        assert_eq!("tailed-triangle".parse::<Pattern>().unwrap(), Pattern::tailed_triangle());
    }

    #[test]
    fn parsing_edge_lists() {
        let p: Pattern = "0-1, 1-2, 2-3, 3-0".parse().unwrap();
        assert_eq!(p, Pattern::cycle(4));
        assert!("".parse::<Pattern>().is_err());
        assert!("0-1,3-4".parse::<Pattern>().is_err()); // disconnected
        assert!("0-0".parse::<Pattern>().is_err()); // self loop
        assert!("zebra".parse::<Pattern>().is_err());
    }

    #[test]
    fn unparseable_text_names_the_offending_token() {
        let syntax = |token: &str| Err(PatternError::Syntax(token.to_string()));
        for (text, token) in [
            ("sdfs", "sdfs"),
            ("", ""),
            ("0-1,", ""),
            ("0-1,,1-2", ""),
            ("0-1, x-2 ,2-0", "x-2"),
            ("0-", "0-"),
            ("-1", "-1"),
            ("0-1-2", "0-1-2"),
            ("--help", "--help"),
            ("17-clique", "17-clique"),
            ("0-99999999999999999999", "0-99999999999999999999"),
        ] {
            assert_eq!(text.parse::<Pattern>(), syntax(token), "{text:?}");
        }
        let msg = "0-1,".parse::<Pattern>().unwrap_err().to_string();
        assert_eq!(msg, "cannot read \"\" as a pattern name or an edge \"u-v\" of vertex ids");
        assert!("sdfs".parse::<Pattern>().unwrap_err().to_string().contains("\"sdfs\""));
    }

    #[test]
    fn huge_vertex_ids_are_too_large_not_an_overflow() {
        // `max id + 1` used to be computed unchecked: a panic in debug
        // builds, "pattern has no vertices" in release.
        let max = usize::MAX.to_string();
        for text in [format!("0-{max}"), format!("{max}-0"), format!("0-1,1-{max}")] {
            let err = text.parse::<Pattern>().unwrap_err();
            assert_eq!(err, PatternError::TooLarge(usize::MAX), "{text}");
            assert!(err.to_string().contains(&max), "{err}");
        }
        assert_eq!("0-16".parse::<Pattern>(), Err(PatternError::TooLarge(17)));
        assert_eq!("0-4294967296".parse::<Pattern>(), Err(PatternError::TooLarge(4_294_967_297)));
    }

    #[test]
    fn single_vertex_is_connected() {
        let p = Pattern::from_edges(1, &[]).unwrap();
        assert!(p.is_connected());
        assert_eq!(p.automorphism_count(), 1);
    }
}
