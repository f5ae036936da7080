//! Lowering of execution plans into executor-ready programs.
//!
//! Both the software engines (`fm-engine`) and the hardware simulator
//! (`fm-sim`) run the same lowered [`Program`]: the plan's node tree
//! flattened into an arena, with constraint sets expanded into index lists
//! and the §VI-B storage hints re-derived for the *effective* frontier
//! hints (an executor may disable frontier memoization for ablation, which
//! widens the set of depths whose connectivity is queried, and therefore
//! the set of levels that must be inserted into the c-map).

use crate::counting::CountRule;
use crate::ir::{ExecutionPlan, Extender, FrontierHint, PlanNode};
use fm_pattern::DepthSet;

/// Options controlling how a plan is lowered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LowerOptions {
    /// Honor the plan's frontier-memoization hints (the paper's default).
    pub frontier_memo: bool,
    /// Push symmetry bounds down into candidate generation: mark an op
    /// [`bounded_build`](ProgNode::bounded_build) whenever truncating its
    /// materialized core at the vid bound is provably invisible to every
    /// transitive frontier consumer (see [`bound_is_covered`]). When
    /// disabled, only ops whose core no descendant consumes are marked —
    /// the conservative rule matching the paper's SIU, whose merge FSM
    /// (Fig. 9) has no bound port. The cycle-accurate simulator and
    /// `paper_faithful` engine runs lower with this off.
    pub bounded_pushdown: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions { frontier_memo: true, bounded_pushdown: true }
    }
}

/// An execution plan lowered into an arena of [`ProgNode`]s.
///
/// Node 0 is always the root op (`v0 ∈ V`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// Arena of nodes; children refer to arena indices.
    pub nodes: Vec<ProgNode>,
    /// Number of DFS levels.
    pub depth: usize,
    /// Always empty. Read only by `benchmark/` (`plan.reuse_prefixes`
    /// prints its `.len()`); goes when that line is retired.
    pub prefixes: [(); 0],
}

/// One lowered plan node. See [`crate::VertexOp`] for the constraint
/// semantics; the additional fields are executor-facing derivations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProgNode {
    /// DFS depth this node extends to.
    pub depth: usize,
    /// Embedding index whose adjacency seeds the candidates; `None` for the
    /// root (candidates = all vertices).
    pub extender: Option<usize>,
    /// Effective frontier hint.
    pub frontier: FrontierHint,
    /// Symmetry-order upper bounds (embedding indices).
    pub upper_bounds: Vec<usize>,
    /// Connectivity constraints beyond the extender.
    pub connected: Vec<usize>,
    /// Disconnection constraints (vertex-induced).
    pub disconnected: Vec<usize>,
    /// Embedding indices a candidate could collide with (injectivity).
    pub injectivity: Vec<usize>,
    /// Pattern completed at this node, if any.
    pub pattern_index: Option<usize>,
    /// Insert this level's neighbors into the c-map (recomputed §VI-B hint).
    pub cmap_insert: bool,
    /// Insertion vid filter: only neighbors `< emb[l]` (recomputed).
    pub cmap_insert_bound: Option<usize>,
    /// The materialized core may be truncated at the vid bound: either no
    /// descendant consumes it (the conservative rule), or — with
    /// [`LowerOptions::bounded_pushdown`] — every transitive frontier
    /// consumer's own symmetry bounds provably discard the truncated
    /// suffix anyway.
    pub bounded_build: bool,
    /// Whether this op resolves its constraints by *stream-and-probe*
    /// when the c-map is available: stream the extender's adjacency and
    /// answer all constraints with one c-map probe per candidate (§II-C).
    /// The lowering enables this only when it pays off:
    ///
    /// * every probed level must sit at least two levels above this op
    ///   (`l ≤ depth-2`), so its insertions amortize over the intermediate
    ///   branching — probing the immediate parent level would insert a
    ///   list that is used exactly once;
    /// * `Extend`/`ExtendDiff` ops whose memoized frontier is already
    ///   *refined* (the parent op had constraints of its own, e.g. deep
    ///   k-clique levels) keep the cheap SIU frontier merge instead —
    ///   which is why the paper sees only small c-map gains for k-CL
    ///   while 4-cycle and TC benefit substantially (§VII-C).
    pub probe: bool,
    /// How a count-only run counts the subtree below this node. [`lower`]
    /// leaves it on [`CountRule::Enumerate`];
    /// [`count_leaves`](crate::counting::count_leaves) decides it.
    pub count: CountRule,
    /// Child node indices.
    pub children: Vec<usize>,
}

impl ProgNode {
    /// The set of depths whose connectivity this node queries through the
    /// c-map at runtime: the full constraint set when
    /// [`probe`](Self::probe) is enabled, nothing otherwise (merge-based
    /// ops and `Reuse` never touch the map).
    pub fn queried_depths(&self) -> DepthSet {
        if self.probe {
            DepthSet::from_depths(self.connected.iter().copied())
                .union(DepthSet::from_depths(self.disconnected.iter().copied()))
        } else {
            DepthSet::new()
        }
    }
}

/// Lowers `plan` for execution.
///
/// # Examples
///
/// ```
/// use fm_pattern::Pattern;
/// use fm_plan::{compile, CompileOptions};
/// use fm_plan::lowering::{lower, LowerOptions};
///
/// let plan = compile(&Pattern::cycle(4), CompileOptions::default());
/// let prog = lower(&plan, LowerOptions::default());
/// assert_eq!(prog.nodes.len(), 4);
/// assert_eq!(prog.depth, 4);
/// ```
pub fn lower(plan: &ExecutionPlan, options: LowerOptions) -> Program {
    let mut nodes = Vec::with_capacity(plan.node_count());
    flatten(&plan.root, options, true, &mut nodes);
    annotate(&mut nodes, options);
    Program { nodes, depth: plan.depth(), prefixes: [] }
}

fn flatten(
    plan_node: &PlanNode,
    options: LowerOptions,
    parent_unrefined: bool,
    nodes: &mut Vec<ProgNode>,
) -> usize {
    let op = &plan_node.op;
    let frontier = if options.frontier_memo { op.frontier } else { FrontierHint::None };
    let full_connected = op.full_connected();
    let injectivity = (0..op.depth).filter(|&l| !full_connected.contains(l)).collect();
    let constraints = op.connected.union(op.disconnected);
    let probe = !constraints.is_empty()
        && constraints.max().expect("nonempty") + 2 <= op.depth
        && match frontier {
            FrontierHint::Reuse => false,
            FrontierHint::None => true,
            // A refined frontier makes the SIU merge cheaper than
            // maintaining fresh insertions for the probe.
            FrontierHint::Extend | FrontierHint::ExtendDiff => parent_unrefined,
        };
    let index = nodes.len();
    nodes.push(ProgNode {
        depth: op.depth,
        extender: match op.extender {
            Extender::Root => None,
            Extender::Level(l) => Some(l),
        },
        frontier,
        upper_bounds: op.upper_bounds.iter().collect(),
        connected: op.connected.iter().collect(),
        disconnected: op.disconnected.iter().collect(),
        injectivity,
        pattern_index: plan_node.pattern_index,
        cmap_insert: false,
        cmap_insert_bound: None,
        bounded_build: false,
        probe,
        count: CountRule::Enumerate,
        children: Vec::new(),
    });
    let unrefined = constraints.is_empty();
    let mut children = Vec::with_capacity(plan_node.children.len());
    for child in &plan_node.children {
        children.push(flatten(child, options, unrefined, nodes));
    }
    nodes[index].children = children;
    index
}

/// Recomputes the c-map hints and bounded-build flags for the effective
/// frontier hints (same algorithm as the compiler's §VI-B pass).
fn annotate(nodes: &mut [ProgNode], options: LowerOptions) {
    let parents = parent_index(nodes);
    for i in 0..nodes.len() {
        let d = nodes[i].depth;
        let known = DepthSet::from_depths(0..=d);
        let mut queried = false;
        let mut common: Option<DepthSet> = None;
        let mut stack: Vec<usize> = nodes[i].children.clone();
        while let Some(j) = stack.pop() {
            let qs = nodes[j].queried_depths();
            if qs.contains(d) {
                queried = true;
                let usable = DepthSet::from_depths(nodes[j].upper_bounds.iter().copied())
                    .intersection(known);
                common = Some(match common {
                    None => usable,
                    Some(c) => c.intersection(usable),
                });
            }
            stack.extend(nodes[j].children.iter().copied());
        }
        nodes[i].cmap_insert = queried;
        nodes[i].cmap_insert_bound = if queried { common.and_then(|s| s.min()) } else { None };
        nodes[i].bounded_build = if nodes[i].upper_bounds.is_empty() {
            false
        } else if options.bounded_pushdown {
            // Truncating the core at `min(emb[l])` over this op's bounds is
            // safe iff every transitive consumer would have rejected the
            // truncated suffix through its own bounds anyway.
            let bounds = nodes[i].upper_bounds.clone();
            transitive_consumers(nodes, i)
                .iter()
                .all(|&c| bounds.iter().all(|&l| bound_is_covered(nodes, &parents, c, l)))
        } else {
            nodes[i].children.iter().all(|&c| !nodes[c].frontier.consumes_frontier())
        };
    }
}

/// Parent arena index of every node (`None` for the root).
pub(crate) fn parent_index(nodes: &[ProgNode]) -> Vec<Option<usize>> {
    let mut parents = vec![None; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        for &c in &n.children {
            parents[c] = Some(i);
        }
    }
    parents
}

/// All descendants whose candidate lists derive from `node`'s materialized
/// core: reachable through an unbroken chain of frontier-consuming
/// children. `Reuse` ops forward the very same buffer and
/// `Extend`/`ExtendDiff` ops merge it into theirs, so a truncation applied
/// when the core was built propagates through both.
fn transitive_consumers(nodes: &[ProgNode], node: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack: Vec<usize> = consuming_children(nodes, node).collect();
    while let Some(c) = stack.pop() {
        stack.extend(consuming_children(nodes, c));
        out.push(c);
    }
    out
}

fn consuming_children<'a>(nodes: &'a [ProgNode], node: usize) -> impl Iterator<Item = usize> + 'a {
    nodes[node].children.iter().copied().filter(|&c| nodes[c].frontier.consumes_frontier())
}

/// Whether consumer `c`'s own symmetry bounds already enforce
/// `w < emb[l]` for every candidate `w` it accepts — in which case a core
/// truncated at `emb[l]` is indistinguishable from the full one at `c`.
///
/// `c` enforces `w < emb[l']` for each `l'` in its `upper_bounds`. That
/// implies `w < emb[l]` when `emb[l'] ≤ emb[l]` is *guaranteed*, and the
/// guarantees available are the strict orderings the ancestors' symmetry
/// bounds established: an ancestor op at depth `a` with bound level `u`
/// pinned `emb[a] < emb[u]`. Coverage is therefore reachability from some
/// `l'` to `l` in that ordering DAG (`l' == l` trivially qualifies).
fn bound_is_covered(nodes: &[ProgNode], parents: &[Option<usize>], c: usize, l: usize) -> bool {
    let depth = nodes[c].depth;
    // lt[a] = levels known to hold values greater than emb[a].
    let mut lt: Vec<Vec<usize>> = vec![Vec::new(); depth];
    let mut anc = parents[c];
    while let Some(i) = anc {
        debug_assert!(nodes[i].depth < depth, "ancestors sit at strictly shallower depths");
        lt[nodes[i].depth].extend(nodes[i].upper_bounds.iter().copied());
        anc = parents[i];
    }
    let mut seen = vec![false; depth];
    let mut stack: Vec<usize> = nodes[c].upper_bounds.clone();
    while let Some(x) = stack.pop() {
        if x == l {
            return true;
        }
        if std::mem::replace(&mut seen[x], true) {
            continue;
        }
        stack.extend(lt[x].iter().copied());
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use fm_pattern::Pattern;

    #[test]
    fn lowering_preserves_structure() {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let prog = lower(&plan, LowerOptions::default());
        assert_eq!(prog.nodes[0].extender, None);
        assert_eq!(prog.nodes[0].children, vec![1]);
        assert_eq!(prog.nodes[3].pattern_index, Some(0));
        // §VI-B hint survives lowering.
        assert!(prog.nodes[1].cmap_insert);
        assert_eq!(prog.nodes[1].cmap_insert_bound, Some(0));
    }

    #[test]
    fn clique_inserts_shallow_levels_only() {
        let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
        let prog = lower(&plan, LowerOptions::default());
        // Level 2 (the first frontier-extension level) probes level 0,
        // whose once-per-task insertion amortizes over the whole subtree;
        // deeper clique levels keep the cheap SIU frontier merge, so
        // nothing else is inserted.
        assert!(prog.nodes[2].probe);
        assert!(!prog.nodes[3].probe, "refined frontier keeps the SIU merge");
        assert!(prog.nodes[0].cmap_insert);
        assert!(!prog.nodes[1].cmap_insert);
        assert!(!prog.nodes[2].cmap_insert);
        // Without frontier memoization there is no merge alternative; the
        // deep op probes both shallow levels, so level 1 inserts too.
        let without = lower(&plan, LowerOptions { frontier_memo: false, ..Default::default() });
        assert_eq!(without.nodes[3].frontier, FrontierHint::None);
        assert!(without.nodes[3].probe);
        assert!(without.nodes[0].cmap_insert);
        assert!(without.nodes[1].cmap_insert);
    }

    #[test]
    fn injectivity_excludes_connected_levels() {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let prog = lower(&plan, LowerOptions::default());
        // v3 connects to v1 (c-map) and v2 (extender): only v0 can collide.
        assert_eq!(prog.nodes[3].injectivity, vec![0]);
    }

    #[test]
    fn bounded_build_respects_reusing_children() {
        let plan = compile(&Pattern::diamond(), CompileOptions::default());
        let prog = lower(&plan, LowerOptions::default());
        // v2 has no own bounds and its core is reused by v3 → no truncation.
        assert!(!prog.nodes[2].bounded_build);
        // v3 (leaf, bounded) may truncate.
        assert!(prog.nodes[3].bounded_build);
    }

    #[test]
    fn pushdown_marks_bounded_when_consumers_are_covered() {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let prog = lower(&plan, LowerOptions::default());
        // v1's core (adj(v0), bounded by v0) is reused by v2. v2 keeps only
        // w < v1 and v1 < v0 is pinned by v1's own bound, so the suffix
        // ≥ v0 that truncation drops was unreachable for v2 anyway.
        assert_eq!(prog.nodes[2].frontier, FrontierHint::Reuse);
        assert!(prog.nodes[1].bounded_build);
        // The conservative rule (SIU semantics, no bound port) refuses
        // because v2 consumes the list...
        let faithful = lower(&plan, LowerOptions { bounded_pushdown: false, ..Default::default() });
        assert!(!faithful.nodes[1].bounded_build);
        // ...while the consumer-free leaf truncates under both rules.
        assert!(prog.nodes[3].bounded_build);
        assert!(faithful.nodes[3].bounded_build);
    }

    #[test]
    fn pushdown_refuses_uncovered_consumers() {
        use crate::ir::{ExecutionPlan, Extender, PatternMeta, PlanNode, VertexOp};
        // Hand-built plan: v1 (bounded by v0) materializes adj(v0), and v2
        // reuses that list with no bound of its own — v2 must see the full
        // list, so v1 may not truncate even with pushdown enabled.
        let op0 = VertexOp {
            depth: 0,
            extender: Extender::Root,
            upper_bounds: DepthSet::new(),
            connected: DepthSet::new(),
            disconnected: DepthSet::new(),
            frontier: FrontierHint::None,
        };
        let mut op1 = op0.clone();
        op1.depth = 1;
        op1.extender = Extender::Level(0);
        op1.upper_bounds = DepthSet::from_depths([0]);
        let mut op2 = op1.clone();
        op2.depth = 2;
        op2.upper_bounds = DepthSet::new();
        op2.frontier = FrontierHint::Reuse;
        let mut leaf = PlanNode::new(op2);
        leaf.pattern_index = Some(0);
        let mut mid = PlanNode::new(op1);
        mid.children.push(leaf);
        let mut root = PlanNode::new(op0);
        root.children.push(mid);
        let plan = ExecutionPlan {
            root,
            patterns: vec![PatternMeta { name: "path".into(), size: 3, automorphisms: 2 }],
            orientation: false,
            induced: false,
            symmetry: true,
        };
        let prog = lower(&plan, LowerOptions::default());
        assert!(!prog.nodes[1].bounded_build);
    }

    #[test]
    fn orientation_plans_have_nothing_to_bound() {
        // The oriented k-clique plan carries no symmetry bounds at all
        // (orientation subsumes them), so pushdown marks nothing.
        let plan = compile(&Pattern::k_clique(5), CompileOptions::default());
        let prog = lower(&plan, LowerOptions::default());
        assert!(prog.nodes.iter().all(|n| !n.bounded_build));
    }
}
