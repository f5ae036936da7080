//! Count-only decisions: how the subtree below each node of a lowered
//! [`Program`] is *counted* when nobody asked for the matches themselves.
//!
//! [`lower`](crate::lowering::lower) leaves every node on
//! [`CountRule::Enumerate`]; [`count_leaves`] is a second pass that walks up
//! from each pattern leaf and replaces enumeration where it can prove a
//! cheaper rule gives the same count **for every start vertex** (which is
//! what keeps partial results, checkpoints and drained `serve` jobs exact).
//! The proof is structural — read off bounds, hints and injectivity lists,
//! never off a pattern name — and anything it cannot prove keeps
//! enumerating. The executor matches on the decision; it derives nothing
//! at run time.
//!
//! Two shapes are recognised, both built on one relation. Node `C` is a
//! **twin below** its parent `P` when it reuses `P`'s core, is bounded by
//! `emb[P]`, and otherwise filters exactly as `P` does: given that `p`
//! survived `P`'s filters, `C`'s candidates are `{c ∈ S : c < p}` with `S`
//! the set of `P`'s survivors. (Bounds `C` shares with `P` are implied by
//! `c < p`; `c ≠ p` is implied by the strict order.)
//!
//! * **Binomial tail** ([`CountRule::Tail`]). A branch ending in `k` levels
//!   `H, R₁, …, R_{k-1}`, each `Rᵢ` a twin below its predecessor and only
//!   the last completing a pattern, enumerates the strictly descending
//!   `k`-sequences over `S`: `C(|S|, k)` of them. `k = 1` is a plain leaf.
//! * **Pair join** ([`CountRule::PairJoin`]). A branch ending in `X`, its
//!   twin `Y`, and a leaf `Z` adjacent to exactly `{X, Y}` whose other
//!   filters mention only levels above `X` enumerates, for every unordered
//!   pair `{x, y} ⊂ S`, the set `N(x) ∩ N(y) ∩ F` with `F` fixed for the
//!   whole sweep. Swapping the sums, that is `Σ_w C(cnt(w), 2)` over
//!   `w ∈ F` with `cnt(w) = |{x ∈ S : w ∈ N(x)}|` — one pass over the
//!   survivors' adjacency lists bumping a count map (DwarvesGraph's cut at
//!   `{v0, v3}` for the 4-cycle, with GraphZero's restrictions still in
//!   force inside the sweep).

use crate::ir::FrontierHint;
use crate::lowering::{parent_index, ProgNode, Program};

/// What the engine that will run the program allows and does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CountOptions {
    /// Allow the rules that change what a run *charges*: the counting
    /// kernels, binomial tails and the pair join. Off for engines pinned to
    /// the paper's work counters, which keep [`Survivors::Scan`] leaves —
    /// charge-identical to enumeration — and nothing else.
    pub closed_forms: bool,
}

/// How a count-only run counts the subtree below one node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CountRule {
    /// Enter every surviving candidate and recurse.
    #[default]
    Enumerate,
    /// This node heads a binomial tail of `k` levels ending at arena node
    /// `leaf`: the subtree holds `C(m, k)` matches of the leaf's pattern,
    /// `m` being the survivors of this node's bound and injectivity.
    Tail {
        /// Arena index of the pattern leaf (this node when `k == 1`).
        leaf: usize,
        /// Levels in the tail.
        k: usize,
        /// How `m` is obtained.
        survivors: Survivors,
    },
    /// This node is `X` of a pair join whose leaf `Z` is arena node `leaf`.
    PairJoin {
        /// Arena index of `Z`.
        leaf: usize,
    },
}

/// How the head of a [`CountRule::Tail`] counts its surviving candidates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Survivors {
    /// Materialize the core and walk it, one `candidates_checked` per
    /// element: the plain leaf (`k == 1`), charged as enumeration is.
    Scan,
    /// Materialize the core; a `partition_point` at the bound and one
    /// lookup per injectivity level (`k ≥ 2`).
    Search,
    /// `Extend` head: `|prefix ∩ N(v)|` from the counting kernel; no
    /// frontier is materialized.
    Intersect,
    /// `ExtendDiff` head: `|prefix| − |prefix ∩ N(v)|`, same kernel.
    Difference,
}

/// Decides [`ProgNode::count`] for every node of `prog` (see the module
/// docs). Idempotent; nodes it does not mention keep
/// [`CountRule::Enumerate`].
pub fn count_leaves(prog: &mut Program, options: CountOptions) {
    let parents = parent_index(&prog.nodes);
    for leaf in 0..prog.nodes.len() {
        let n = &prog.nodes[leaf];
        // The root is entered, never stepped: a one-vertex pattern has
        // nothing to decide.
        if !n.children.is_empty() || n.pattern_index.is_none() || n.extender.is_none() {
            continue;
        }
        let (at, rule) = if !options.closed_forms {
            (leaf, CountRule::Tail { leaf, k: 1, survivors: Survivors::Scan })
        } else if let Some(x) = pair_join_head(&prog.nodes, &parents, leaf) {
            (x, CountRule::PairJoin { leaf })
        } else {
            let (head, k) = tail_head(&prog.nodes, &parents, leaf);
            let survivors = survivors_of(&prog.nodes[head], k);
            (head, CountRule::Tail { leaf, k, survivors })
        };
        prog.nodes[at].count = rule;
    }
}

/// Whether `c` is a twin below its parent `p` (module docs).
fn twin_below(p: &ProgNode, c: &ProgNode) -> bool {
    let shared =
        |mine: &[usize], theirs: &[usize]| mine.iter().all(|l| *l == p.depth || theirs.contains(l));
    c.frontier == FrontierHint::Reuse
        && c.depth == p.depth + 1
        && c.upper_bounds.contains(&p.depth)
        && shared(&c.upper_bounds, &p.upper_bounds)
        && shared(&c.injectivity, &p.injectivity)
        && shared(&p.injectivity, &c.injectivity)
}

/// An inner level of a counted branch: one way down, nothing completed.
/// The root does not qualify — its "core" is the vertex set, which no
/// buffer holds.
fn passes_through(n: &ProgNode) -> bool {
    n.children.len() == 1 && n.pattern_index.is_none() && n.extender.is_some()
}

/// The head and length of the longest binomial tail ending at `leaf`.
fn tail_head(nodes: &[ProgNode], parents: &[Option<usize>], leaf: usize) -> (usize, usize) {
    let (mut head, mut k) = (leaf, 1);
    while let Some(p) = parents[head] {
        if !(passes_through(&nodes[p]) && twin_below(&nodes[p], &nodes[head])) {
            break;
        }
        (head, k) = (p, k + 1);
    }
    (head, k)
}

/// `X` of the pair join whose leaf is `z`, if the branch has that shape.
fn pair_join_head(nodes: &[ProgNode], parents: &[Option<usize>], z: usize) -> Option<usize> {
    let y = parents[z]?;
    let x = parents[y]?;
    let (xn, yn, zn) = (&nodes[x], &nodes[y], &nodes[z]);
    let d = xn.depth;
    let mut adjacent: Vec<usize> = zn.extender.iter().chain(&zn.connected).copied().collect();
    adjacent.sort_unstable();
    let above_x = |levels: &[usize]| levels.iter().all(|&l| l < d);
    let joins = passes_through(xn)
        && passes_through(yn)
        && twin_below(xn, yn)
        && zn.depth == d + 2
        && zn.frontier == FrontierHint::None
        && zn.disconnected.is_empty()
        && adjacent == [d, d + 1]
        && above_x(&zn.upper_bounds)
        && above_x(&zn.injectivity);
    joins.then_some(x)
}

/// The cheapest sound way for `head` to count its survivors. The counting
/// kernels apply a bound but cannot skip a vertex, so every injectivity
/// level must also be a strict bound of the op.
fn survivors_of(head: &ProgNode, k: usize) -> Survivors {
    let merges = head.injectivity.iter().all(|l| head.upper_bounds.contains(l));
    match head.frontier {
        FrontierHint::Extend if merges => Survivors::Intersect,
        FrontierHint::ExtendDiff if merges => Survivors::Difference,
        _ if k == 1 => Survivors::Scan,
        _ => Survivors::Search,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, compile_multi, CompileOptions};
    use crate::lowering::{lower, LowerOptions};
    use fm_pattern::Pattern;

    const FUSED: CountOptions = CountOptions { closed_forms: true };

    fn rules(p: &Pattern, options: CompileOptions, count: CountOptions) -> Vec<CountRule> {
        let mut prog = lower(&compile(p, options), LowerOptions::default());
        count_leaves(&mut prog, count);
        prog.nodes.iter().map(|n| n.count).collect()
    }

    fn tail(leaf: usize, k: usize, survivors: Survivors) -> CountRule {
        CountRule::Tail { leaf, k, survivors }
    }

    use CountRule::Enumerate as E;

    #[test]
    fn four_cycle_joins_at_v1() {
        let got = rules(&Pattern::cycle(4), CompileOptions::default(), FUSED);
        assert_eq!(got, [E, CountRule::PairJoin { leaf: 3 }, E, E]);
    }

    #[test]
    fn tails_are_as_long_as_the_twins_reach() {
        let d = CompileOptions::default();
        // Diamond: v2 extends, v3 is its twin — no frontier is built.
        assert_eq!(
            rules(&Pattern::diamond(), d, FUSED),
            [E, E, tail(3, 2, Survivors::Intersect), E]
        );
        assert_eq!(rules(&Pattern::wedge(), d, FUSED), [E, tail(2, 2, Survivors::Search), E]);
        assert_eq!(rules(&Pattern::star(3), d, FUSED), [E, tail(3, 3, Survivors::Search), E, E]);
        // K_{2,3}: the two hubs first, then three twins over N(v0) ∩ N(v1).
        let k23 =
            Pattern::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
        let got = rules(&k23, d, FUSED);
        assert!(
            got.iter().any(|r| matches!(r, CountRule::Tail { leaf: 4, k, .. } if *k >= 2)),
            "{got:?}"
        );
    }

    #[test]
    fn single_leaves_keep_the_two_paths_they_had() {
        let d = CompileOptions::default();
        assert_eq!(rules(&Pattern::triangle(), d, FUSED)[2], tail(2, 1, Survivors::Intersect));
        assert_eq!(rules(&Pattern::k_clique(5), d, FUSED)[4], tail(4, 1, Survivors::Intersect));
        for p in [Pattern::cycle(5), Pattern::house(), Pattern::tailed_triangle(), Pattern::path(4)]
        {
            let got = rules(&p, d, FUSED);
            let leaf = got.len() - 1;
            assert_eq!(got[leaf], tail(leaf, 1, Survivors::Scan), "{p}");
            assert!(got[..leaf].iter().all(|r| *r == E), "{p}: {got:?}");
        }
        // The induced wedge's leaf is a difference whose one injectivity
        // level (v1) is also its bound.
        assert_eq!(
            rules(&Pattern::wedge(), CompileOptions::induced(), FUSED)[2],
            tail(2, 1, Survivors::Difference)
        );
    }

    #[test]
    fn whatever_cannot_be_proved_enumerates() {
        let scan_only = |got: &[CountRule]| {
            let leaf = got.len() - 1;
            got[leaf] == tail(leaf, 1, Survivors::Scan) && got[..leaf].iter().all(|r| *r == E)
        };
        // Induced: Y is an ExtendDiff, Z carries a disconnection.
        assert!(scan_only(&rules(&Pattern::cycle(4), CompileOptions::induced(), FUSED)));
        // AutoMine: no Y < X bound.
        assert!(scan_only(&rules(&Pattern::cycle(4), CompileOptions::automine(), FUSED)));
        // Faithful engines: the scan and nothing else, whatever the shape.
        let faithful = CountOptions { closed_forms: false };
        for p in [Pattern::cycle(4), Pattern::diamond(), Pattern::triangle(), Pattern::star(3)] {
            assert!(scan_only(&rules(&p, CompileOptions::default(), faithful)), "{p}");
        }
        // Without frontier memoization there is no Reuse, hence no twin.
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let mut prog = lower(&plan, LowerOptions { frontier_memo: false, ..Default::default() });
        count_leaves(&mut prog, FUSED);
        assert!(scan_only(&prog.nodes.iter().map(|n| n.count).collect::<Vec<_>>()));
    }

    #[test]
    fn every_motif_leaf_gets_exactly_one_decision() {
        for (k, options) in [(3, CompileOptions::induced()), (4, CompileOptions::induced())] {
            let plan = compile_multi(&fm_pattern::motifs::motifs(k), options);
            let mut prog = lower(&plan, LowerOptions::default());
            count_leaves(&mut prog, FUSED);
            let mut decided: Vec<usize> = prog
                .nodes
                .iter()
                .filter_map(|n| match n.count {
                    CountRule::Enumerate => None,
                    CountRule::Tail { leaf, .. } | CountRule::PairJoin { leaf } => Some(leaf),
                })
                .collect();
            decided.sort_unstable();
            let leaves: Vec<usize> =
                (0..prog.nodes.len()).filter(|&i| prog.nodes[i].children.is_empty()).collect();
            assert_eq!(decided, leaves, "{k}-motifs");
        }
    }

    /// The 4-cycle's lowered program, for the near misses below to break.
    fn four_cycle() -> Program {
        lower(&compile(&Pattern::cycle(4), CompileOptions::default()), LowerOptions::default())
    }

    fn decided(mut prog: Program) -> Vec<CountRule> {
        count_leaves(&mut prog, FUSED);
        prog.nodes.iter().map(|n| n.count).collect()
    }

    #[test]
    fn near_misses_of_the_pair_join_are_declined() {
        let joined =
            |got: &[CountRule]| got.iter().any(|r| matches!(r, CountRule::PairJoin { .. }));
        assert!(joined(&decided(four_cycle())));

        // Y with a bound X lacks.
        let mut p = four_cycle();
        p.nodes[1].upper_bounds.clear();
        p.nodes[2].upper_bounds = vec![0, 1];
        assert!(!joined(&decided(p)));

        // Y not bounded by X at all.
        let mut p = four_cycle();
        p.nodes[2].upper_bounds = vec![0];
        assert!(!joined(&decided(p)));

        // Y skipping a vertex X may take.
        let mut p = four_cycle();
        p.nodes[2].injectivity = vec![0, 1];
        assert!(!joined(&decided(p)));

        // Z bounded by X, by Y; Z told apart from Y.
        for (bounds, injectivity) in
            [(vec![1], vec![0]), (vec![0, 2], vec![0]), (vec![0], vec![0, 2])]
        {
            let mut p = four_cycle();
            p.nodes[3].upper_bounds = bounds;
            p.nodes[3].injectivity = injectivity;
            assert!(!joined(&decided(p)));
        }

        // Z with a disconnection.
        let mut p = four_cycle();
        p.nodes[3].disconnected = vec![0];
        assert!(!joined(&decided(p)));

        // Z adjacent to more than {X, Y}.
        let mut p = four_cycle();
        p.nodes[3].connected = vec![0, 1];
        assert!(!joined(&decided(p)));

        // Z not a leaf.
        let mut p = four_cycle();
        let mut below = p.nodes[3].clone();
        below.depth = 4;
        below.extender = Some(3);
        below.connected.clear();
        p.nodes[3].pattern_index = None;
        p.nodes[3].children = vec![4];
        p.nodes.push(below);
        p.depth = 5;
        let got = decided(p);
        assert!(!joined(&got));
        assert_eq!(got[4], tail(4, 1, Survivors::Scan));

        // X with two children: the second branch needs X entered.
        let mut p = four_cycle();
        let mut sibling = p.nodes[2].clone();
        sibling.children.clear();
        sibling.pattern_index = Some(0);
        p.nodes[1].children.push(4);
        p.nodes.push(sibling);
        let got = decided(p);
        assert!(!joined(&got));
        // The sibling is a twin of X, but X is no pass-through either.
        assert_eq!(got[4], tail(4, 1, Survivors::Scan));

        // An inner node that completes a pattern must be entered to count.
        for inner in [1, 2] {
            let mut p = four_cycle();
            p.nodes[inner].pattern_index = Some(0);
            assert!(!joined(&decided(p)));
        }
    }

    #[test]
    fn near_misses_of_the_tail_stop_it_short() {
        let star = || {
            lower(&compile(&Pattern::star(3), CompileOptions::default()), LowerOptions::default())
        };
        assert_eq!(decided(star())[1], tail(3, 3, Survivors::Search));
        // v2 no longer bounded by v1: v3 < v2 still pairs up under v2.
        let mut p = star();
        p.nodes[2].upper_bounds.clear();
        let got = decided(p);
        assert_eq!((got[1], got[2]), (E, tail(3, 2, Survivors::Search)));
        // v2 completes a pattern of its own.
        let mut p = star();
        p.nodes[2].pattern_index = Some(0);
        let got = decided(p);
        assert_eq!((got[1], got[2], got[3]), (E, E, tail(3, 1, Survivors::Scan)));
        // The head may not be the root.
        let mut p = star();
        p.nodes[1].extender = None;
        let got = decided(p);
        assert_eq!((got[1], got[2]), (E, tail(3, 2, Survivors::Search)));
    }
}
