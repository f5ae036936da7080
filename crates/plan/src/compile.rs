//! The FlexMiner compiler: pattern(s) → execution plan.

use crate::ir::{ExecutionPlan, Extender, FrontierHint, PatternMeta, PlanNode, VertexOp};
use fm_pattern::{analysis, motifs, AnalyzedPattern, DepthSet, Pattern};

/// Compiler options.
///
/// The defaults reproduce GraphZero-equivalent plans (the paper's
/// configuration): symmetry breaking on, k-clique orientation on,
/// edge-induced matching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompileOptions {
    /// Vertex-induced matching (k-MC) vs edge-induced (SL). For cliques the
    /// two coincide.
    pub induced: bool,
    /// Emit symmetry-order vid bounds. Disabling models AutoMine \[58\],
    /// which lacks symmetry breaking: every embedding is then found
    /// |Aut(P)| times (see [`PatternMeta::automorphisms`]).
    pub symmetry: bool,
    /// Allow the k-clique orientation special case (§V-C). Only effective
    /// for single-pattern clique plans with `symmetry` enabled.
    pub orientation: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { induced: false, symmetry: true, orientation: true }
    }
}

impl CompileOptions {
    /// Options for vertex-induced mining (k-motif counting).
    pub fn induced() -> Self {
        CompileOptions { induced: true, ..Self::default() }
    }

    /// Options modelling AutoMine (no symmetry breaking).
    pub fn automine() -> Self {
        CompileOptions { symmetry: false, orientation: false, ..Self::default() }
    }
}

/// Compiles a single pattern into an execution plan.
///
/// # Examples
///
/// ```
/// use fm_pattern::Pattern;
/// use fm_plan::{compile, CompileOptions};
///
/// let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
/// assert!(plan.orientation); // cliques use the DAG orientation
/// assert_eq!(plan.depth(), 4);
/// ```
pub fn compile(pattern: &Pattern, options: CompileOptions) -> ExecutionPlan {
    let meta = PatternMeta {
        name: motifs::motif_name(pattern),
        size: pattern.size(),
        automorphisms: pattern.automorphism_count(),
    };
    if pattern.is_clique() && options.symmetry && options.orientation {
        return clique_plan(pattern.size(), meta);
    }
    let analyzed = analysis::analyze(pattern);
    let ops = chain_ops(&analyzed, options);
    let root = chain_to_tree(&ops, 0);
    let mut plan = ExecutionPlan {
        root,
        patterns: vec![meta],
        orientation: false,
        induced: options.induced,
        symmetry: options.symmetry,
    };
    annotate_cmap_hints(&mut plan);
    plan
}

/// Compiles a set of patterns into a single multi-pattern plan with shared
/// search prefixes merged into a dependency tree (§V-B; Listing 2).
///
/// Among each pattern's equally-scored matching orders, the one maximizing
/// prefix sharing with the patterns already placed is selected.
/// Orientation is never used for multi-pattern plans.
///
/// # Panics
///
/// Panics if `patterns` is empty.
///
/// # Examples
///
/// ```
/// use fm_pattern::Pattern;
/// use fm_plan::{compile_multi, CompileOptions};
///
/// // The paper's Listing 2: diamond and tailed-triangle share v0, v1, v2.
/// let plan = compile_multi(
///     &[Pattern::diamond(), Pattern::tailed_triangle()],
///     CompileOptions::default(),
/// );
/// assert_eq!(plan.patterns.len(), 2);
/// // 4 + 4 unmerged ops collapse into 5 nodes (3 shared + 2 leaves).
/// assert_eq!(plan.node_count(), 5);
/// ```
pub fn compile_multi(patterns: &[Pattern], options: CompileOptions) -> ExecutionPlan {
    assert!(!patterns.is_empty(), "compile_multi needs at least one pattern");
    let root_op = VertexOp {
        depth: 0,
        extender: Extender::Root,
        upper_bounds: DepthSet::new(),
        connected: DepthSet::new(),
        disconnected: DepthSet::new(),
        frontier: FrontierHint::None,
    };
    let mut root = PlanNode::new(root_op);
    let mut metas = Vec::with_capacity(patterns.len());
    for (index, p) in patterns.iter().enumerate() {
        metas.push(PatternMeta {
            name: motifs::motif_name(p),
            size: p.size(),
            automorphisms: p.automorphism_count(),
        });
        // Pick the tied-optimal order sharing the longest prefix with the
        // tree built so far.
        let orders = analysis::top_matching_orders(p);
        let chains: Vec<Vec<VertexOp>> = orders
            .iter()
            .map(|o| chain_ops(&analysis::analyze_with_order(p, o), options))
            .collect();
        let best = chains
            .iter()
            .enumerate()
            .max_by_key(|(i, chain)| (shared_prefix_len(&root, chain), std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
            .expect("at least one order");
        merge_chain(&mut root, &chains[best], 1, index);
    }
    let mut plan = ExecutionPlan {
        root,
        patterns: metas,
        orientation: false,
        induced: options.induced,
        symmetry: options.symmetry,
    };
    annotate_cmap_hints(&mut plan);
    plan
}

/// The orientation-based clique plan: on the degree-oriented DAG, level i
/// extends from level i−1 and must connect to all earlier levels; no
/// symmetry bounds are needed (§V-C).
fn clique_plan(k: usize, meta: PatternMeta) -> ExecutionPlan {
    let ops: Vec<VertexOp> = (0..k)
        .map(|depth| VertexOp {
            depth,
            extender: if depth == 0 { Extender::Root } else { Extender::Level(depth - 1) },
            upper_bounds: DepthSet::new(),
            connected: DepthSet::from_depths(0..depth.saturating_sub(1)),
            disconnected: DepthSet::new(),
            frontier: if depth >= 2 { FrontierHint::Extend } else { FrontierHint::None },
        })
        .collect();
    let root = chain_to_tree(&ops, 0);
    let mut plan = ExecutionPlan {
        root,
        patterns: vec![meta],
        orientation: true,
        induced: false,
        symmetry: true,
    };
    annotate_cmap_hints(&mut plan);
    plan
}

/// Builds the linear op chain for one analyzed pattern.
fn chain_ops(a: &AnalyzedPattern, options: CompileOptions) -> Vec<VertexOp> {
    let k = a.size();
    let mut ops: Vec<VertexOp> = Vec::with_capacity(k);
    for depth in 0..k {
        let ca = a.connected_ancestors[depth];
        let extender = match ca.max() {
            // Extend from the deepest connected ancestor: its adjacency is
            // streamed for free, so the c-map only has to answer the
            // *shallower* (longer-lived, better-amortized) ancestors.
            Some(l) => Extender::Level(l),
            None => Extender::Root,
        };
        let connected = match extender {
            Extender::Level(l) => ca.difference(DepthSet::from_depths([l])),
            Extender::Root => ca,
        };
        let upper_bounds = if options.symmetry {
            DepthSet::from_depths(a.symmetry.iter().filter(|p| p.later == depth).map(|p| p.earlier))
        } else {
            DepthSet::new()
        };
        let disconnected = if options.induced {
            DepthSet::from_depths(0..depth).difference(ca)
        } else {
            DepthSet::new()
        };
        let mut op = VertexOp {
            depth,
            extender,
            upper_bounds,
            connected,
            disconnected,
            frontier: FrontierHint::None,
        };
        if depth > 0 {
            op.frontier = frontier_hint(&ops[depth - 1], &op);
        }
        ops.push(op);
    }
    ops
}

/// Derives the frontier-memoization hint of `op` given its parent level.
fn frontier_hint(parent: &VertexOp, op: &VertexOp) -> FrontierHint {
    let pc = parent.full_connected();
    let oc = op.full_connected();
    let d = parent.depth;
    if oc == pc && op.disconnected == parent.disconnected && !pc.is_empty() {
        FrontierHint::Reuse
    } else if oc == pc.union(DepthSet::from_depths([d]))
        && !pc.contains(d)
        && op.disconnected == parent.disconnected
        && parent.extender != Extender::Root
    {
        FrontierHint::Extend
    } else if oc == pc
        && op.disconnected == parent.disconnected.union(DepthSet::from_depths([d]))
        && !parent.disconnected.contains(d)
        && parent.extender != Extender::Root
    {
        FrontierHint::ExtendDiff
    } else {
        FrontierHint::None
    }
}

fn chain_to_tree(ops: &[VertexOp], pattern_index: usize) -> PlanNode {
    let mut node = PlanNode::new(ops[0].clone());
    if ops.len() == 1 {
        node.pattern_index = Some(pattern_index);
    } else {
        node.children.push(chain_to_tree(&ops[1..], pattern_index));
    }
    node
}

/// Length of the shared prefix between the existing tree and a chain
/// (counting the implicit shared root op at depth 0).
fn shared_prefix_len(root: &PlanNode, chain: &[VertexOp]) -> usize {
    debug_assert!(chain[0].extender == Extender::Root);
    let mut len = 1;
    let mut node = root;
    for op in &chain[1..] {
        match node.children.iter().find(|c| c.op.same_candidates(op)) {
            Some(child) => {
                len += 1;
                node = child;
            }
            None => break,
        }
    }
    len
}

/// Merges `chain[at..]` under `node` (whose op equals `chain[at-1]`).
fn merge_chain(node: &mut PlanNode, chain: &[VertexOp], at: usize, pattern_index: usize) {
    if at == chain.len() {
        assert!(
            node.pattern_index.is_none(),
            "duplicate patterns cannot share one leaf (duplicate single-vertex patterns are unsupported)"
        );
        node.pattern_index = Some(pattern_index);
        return;
    }
    let op = &chain[at];
    // A node completes at most one pattern: when this chain would
    // terminate on a child that already carries a leaf (duplicate
    // patterns in the job), branch into a fresh sibling instead.
    let is_last = at + 1 == chain.len();
    let mergeable = node
        .children
        .iter()
        .position(|c| c.op.same_candidates(op) && !(is_last && c.pattern_index.is_some()));
    if let Some(pos) = mergeable {
        debug_assert_eq!(
            node.children[pos].op.frontier, op.frontier,
            "equal op paths must derive equal frontier hints"
        );
        merge_chain(&mut node.children[pos], chain, at + 1, pattern_index);
    } else {
        let mut child = PlanNode::new(op.clone());
        merge_chain(&mut child, chain, at + 1, pattern_index);
        node.children.push(child);
    }
}

/// Fills in `cmap_insert` / `cmap_insert_bound` on every plan node by
/// lowering the plan with default options and copying back the §VI-B
/// hints — the lowering (`fm_plan::lowering`) is the single source of
/// truth for probe-strategy selection and insertion analysis.
fn annotate_cmap_hints(plan: &mut ExecutionPlan) {
    let prog = crate::lowering::lower(plan, crate::lowering::LowerOptions::default());
    fn copy(node: &mut PlanNode, prog: &crate::lowering::Program, idx: &mut usize) {
        let lowered = &prog.nodes[*idx];
        debug_assert_eq!(lowered.depth, node.op.depth, "lowering preserves DFS order");
        node.cmap_insert = lowered.cmap_insert;
        node.cmap_insert_bound = lowered.cmap_insert_bound;
        *idx += 1;
        for child in &mut node.children {
            copy(child, prog, idx);
        }
    }
    let mut idx = 0;
    copy(&mut plan.root, &prog, &mut idx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_cycle_plan_matches_listing_one() {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        assert!(!plan.orientation);
        assert_eq!(plan.depth(), 4);
        assert_eq!(plan.node_count(), 4);
        let ops: Vec<&VertexOp> = plan.root.iter().map(|n| &n.op).collect();
        // v0 ∈ V pruneBy(∞, {})
        assert_eq!(ops[0].extender, Extender::Root);
        assert!(ops[0].upper_bounds.is_empty());
        // v1 ∈ v0.N pruneBy(v0.id, {})
        assert_eq!(ops[1].extender, Extender::Level(0));
        assert_eq!(ops[1].upper_bounds, DepthSet::from_depths([0]));
        assert!(ops[1].connected.is_empty());
        // v2 ∈ v0.N pruneBy(v1.id, {})
        assert_eq!(ops[2].extender, Extender::Level(0));
        assert_eq!(ops[2].upper_bounds, DepthSet::from_depths([1]));
        // v3 ∈ v2.N pruneBy(v0.id, {v1})
        assert_eq!(ops[3].extender, Extender::Level(2));
        assert_eq!(ops[3].upper_bounds, DepthSet::from_depths([0]));
        assert_eq!(ops[3].connected, DepthSet::from_depths([1]));
    }

    #[test]
    fn four_cycle_cmap_hints_match_section_six() {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let nodes: Vec<&PlanNode> = plan.root.iter().collect();
        // Only v1's neighbors are inserted (§VI-B: "when mining 4-cycle, we
        // only need to insert v1's neighbors to c-map")...
        assert!(!nodes[0].cmap_insert);
        assert!(nodes[1].cmap_insert);
        assert!(!nodes[2].cmap_insert);
        assert!(!nodes[3].cmap_insert);
        // ...filtered by the v0 bound ("prevents any v1's neighbor with VID
        // larger than v0 from being inserted").
        assert_eq!(nodes[1].cmap_insert_bound, Some(0));
        assert!(plan.uses_cmap());
    }

    #[test]
    fn clique_plan_uses_orientation_and_frontier_extension() {
        let plan = compile(&Pattern::k_clique(5), CompileOptions::default());
        assert!(plan.orientation);
        let ops: Vec<&VertexOp> = plan.root.iter().map(|n| &n.op).collect();
        for (d, op) in ops.iter().enumerate() {
            assert!(op.upper_bounds.is_empty(), "orientation subsumes symmetry");
            if d >= 2 {
                assert_eq!(op.frontier, FrontierHint::Extend);
            }
        }
    }

    #[test]
    fn automine_options_drop_bounds_and_orientation() {
        let plan = compile(&Pattern::k_clique(4), CompileOptions::automine());
        assert!(!plan.orientation);
        assert!(plan.root.iter().all(|n| n.op.upper_bounds.is_empty()));
        assert_eq!(plan.patterns[0].automorphisms, 24);
    }

    #[test]
    fn diamond_reuses_its_frontier() {
        let plan = compile(&Pattern::diamond(), CompileOptions::default());
        let ops: Vec<&VertexOp> = plan.root.iter().map(|n| &n.op).collect();
        // v2 and v3 draw from the same adj(v0) ∩ adj(v1) (Fig. 11b).
        assert_eq!(ops[3].frontier, FrontierHint::Reuse);
        assert_eq!(ops[3].upper_bounds, DepthSet::from_depths([2]));
    }

    #[test]
    fn induced_wedge_gets_difference_constraint() {
        let plan = compile(&Pattern::wedge(), CompileOptions::induced());
        let ops: Vec<&VertexOp> = plan.root.iter().map(|n| &n.op).collect();
        assert_eq!(ops[2].disconnected, DepthSet::from_depths([1]));
        assert_eq!(ops[2].frontier, FrontierHint::ExtendDiff);
        // Probing the immediate parent level would never amortize, so the
        // disconnection is served by the SDU and nothing is inserted.
        let nodes: Vec<&PlanNode> = plan.root.iter().collect();
        assert!(!nodes[1].cmap_insert);
    }

    #[test]
    fn edge_induced_wedge_has_no_difference() {
        let plan = compile(&Pattern::wedge(), CompileOptions::default());
        assert!(plan.root.iter().all(|n| n.op.disconnected.is_empty()));
    }

    #[test]
    fn multi_pattern_merges_diamond_and_tailed_triangle() {
        let plan = compile_multi(
            &[Pattern::diamond(), Pattern::tailed_triangle()],
            CompileOptions::default(),
        );
        // Listing 2: shared v0, v1, v2 then two level-3 branches.
        assert_eq!(plan.node_count(), 5);
        let level2 = &plan.root.children[0].children[0];
        assert_eq!(level2.children.len(), 2);
        let leaves: Vec<usize> = level2.children.iter().filter_map(|c| c.pattern_index).collect();
        assert_eq!(leaves, vec![0, 1]);
        assert!(!plan.orientation);
    }

    #[test]
    fn three_motif_plan_counts_both_motifs() {
        let ms = fm_pattern::motifs::motifs(3);
        let plan = compile_multi(&ms, CompileOptions::induced());
        assert!(plan.induced);
        assert_eq!(plan.patterns.len(), 2);
        // Each pattern has exactly one leaf.
        let leaves: Vec<usize> = plan.root.iter().filter_map(|n| n.pattern_index).collect();
        assert_eq!(leaves.len(), 2);
    }

    #[test]
    fn single_vertex_pattern_compiles() {
        let p = Pattern::from_edges(1, &[]).unwrap();
        let plan = compile_multi(&[p], CompileOptions::default());
        assert_eq!(plan.depth(), 1);
        assert_eq!(plan.root.pattern_index, Some(0));
    }

    #[test]
    fn triangle_without_orientation_extends_frontier() {
        let plan = compile(
            &Pattern::triangle(),
            CompileOptions { orientation: false, ..Default::default() },
        );
        assert!(!plan.orientation);
        let ops: Vec<&VertexOp> = plan.root.iter().map(|n| &n.op).collect();
        assert_eq!(ops[2].frontier, FrontierHint::Extend);
        // Bounds: total order v0 > v1 > v2.
        assert_eq!(ops[1].upper_bounds, DepthSet::from_depths([0]));
        assert_eq!(ops[2].upper_bounds, DepthSet::from_depths([1]));
    }

    #[test]
    fn compile_is_deterministic() {
        for p in [Pattern::cycle(4), Pattern::diamond(), Pattern::house()] {
            assert_eq!(
                compile(&p, CompileOptions::default()),
                compile(&p, CompileOptions::default())
            );
        }
        let ms = fm_pattern::motifs::motifs(4);
        assert_eq!(
            compile_multi(&ms, CompileOptions::induced()),
            compile_multi(&ms, CompileOptions::induced())
        );
    }
}
