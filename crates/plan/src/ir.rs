//! The execution-plan intermediate representation.

use fm_pattern::DepthSet;

/// Where the candidate vertices of a DFS level come from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Extender {
    /// Depth 0: every data vertex is a candidate (`v0 ∈ V`).
    Root,
    /// Candidates are drawn from the adjacency of the embedding vertex at
    /// this depth (`v ∈ emb[level].N` in Listing 1 notation).
    Level(usize),
}

/// Frontier-list memoization hint for one level (§V-C of the paper:
/// "the compiler identifies which results are reusable and thus should be
/// memoized, and indicates the hardware using a flag in the IR code").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FrontierHint {
    /// No reuse: candidates are generated from the extender's adjacency.
    #[default]
    None,
    /// The candidate *core set* (same connectivity constraints, ignoring
    /// vid bounds) is identical to the previous level's — reuse its
    /// materialized frontier list. E.g. diamond: `v3` draws from the same
    /// `adj(v0) ∩ adj(v1)` as `v2` (Fig. 11b).
    Reuse,
    /// The core set is the previous level's frontier intersected with the
    /// adjacency of the vertex just added — extend the stored frontier
    /// incrementally instead of recomputing from scratch. E.g. k-cliques.
    Extend,
    /// Like [`Extend`](Self::Extend), but the new constraint is a
    /// *disconnection*: the core set is the previous frontier minus the new
    /// vertex's adjacency (SDU / negated c-map query). Arises in
    /// vertex-induced plans, e.g. the induced wedge.
    ExtendDiff,
}

impl FrontierHint {
    /// Whether an op with this hint consumes the previous level's
    /// materialized frontier list (every hint except [`None`](Self::None)).
    /// Consumers see any truncation applied when that list was built, which
    /// is what the bounded-build analysis in `fm_plan::lowering` reasons
    /// about.
    pub fn consumes_frontier(self) -> bool {
        self != FrontierHint::None
    }
}

/// One entry of the plan's vertex section: how to generate and prune the
/// candidates for one DFS level.
///
/// Semantics (all executors implement exactly this):
///
/// 1. source = extender adjacency, or the memoized frontier per
///    [`frontier`](Self::frontier);
/// 2. keep candidates `w` with `w.id < emb[l].id` for every `l` in
///    [`upper_bounds`](Self::upper_bounds) (the symmetry order);
/// 3. keep candidates adjacent to `emb[l]` for every `l` in
///    [`connected`](Self::connected) (connectivity beyond the extender —
///    served by the c-map or by SIU set intersection);
/// 4. drop candidates adjacent to `emb[l]` for any `l` in
///    [`disconnected`](Self::disconnected) (vertex-induced mining — SDU /
///    c-map);
/// 5. drop candidates equal to any embedding vertex (injectivity).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct VertexOp {
    /// DFS depth this op extends the embedding to (root op has depth 0).
    pub depth: usize,
    /// Candidate source.
    pub extender: Extender,
    /// Symmetry-order upper bounds: candidate < `emb[l]` for each l.
    pub upper_bounds: DepthSet,
    /// Connectivity constraints beyond the extender.
    pub connected: DepthSet,
    /// Disconnection constraints (vertex-induced only).
    pub disconnected: DepthSet,
    /// Frontier-list memoization hint.
    pub frontier: FrontierHint,
}

impl VertexOp {
    /// The full connectivity requirement of this level: the extender (if
    /// any) plus [`connected`](Self::connected). A valid candidate is
    /// adjacent to the embedding vertex at every one of these depths.
    pub fn full_connected(&self) -> DepthSet {
        match self.extender {
            Extender::Root => self.connected,
            Extender::Level(l) => {
                let mut s = self.connected;
                s.insert(l);
                s
            }
        }
    }

    /// Whether two ops describe the same *candidate generation* (used for
    /// multi-pattern prefix merging). Frontier hints are derived data and
    /// do not participate.
    pub fn same_candidates(&self, other: &VertexOp) -> bool {
        self.depth == other.depth
            && self.extender == other.extender
            && self.upper_bounds == other.upper_bounds
            && self.connected == other.connected
            && self.disconnected == other.disconnected
    }
}

/// Metadata about one mined pattern, carried by the plan for reporting and
/// for automorphism-adjusted counting in pattern-oblivious/AutoMine modes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatternMeta {
    /// Human-readable pattern name (e.g. `"4-cycle"`).
    pub name: String,
    /// Pattern size (number of vertices / DFS depth of its leaf).
    pub size: usize,
    /// |Aut(P)|: how many times each embedding would be found without
    /// symmetry breaking.
    pub automorphisms: usize,
}

/// A node of the embedding section: one vertex-extension step, its
/// children (the next steps — several when patterns diverge), the c-map
/// management hints for the vertex added here, and the pattern completed
/// here (leaves).
#[derive(Clone, PartialEq, Debug)]
pub struct PlanNode {
    /// The vertex-section op executed to reach this node.
    pub op: VertexOp,
    /// Next extension steps. Multiple children are explored sequentially
    /// (§V-D: "two branches are explored sequentially").
    pub children: Vec<PlanNode>,
    /// `Some(i)` if reaching this node completes `patterns[i]`.
    pub pattern_index: Option<usize>,
    /// §VI-B hint: insert the neighbors of the vertex matched at this node
    /// into the c-map (true iff some descendant queries connectivity to
    /// this depth).
    pub cmap_insert: bool,
    /// §VI-B hint: only neighbors with id < `emb[l]` can ever be queried, so
    /// skip inserting the rest ("our compiler prevents any v1's neighbor
    /// with VID larger than v0 from being inserted").
    pub cmap_insert_bound: Option<usize>,
}

impl PlanNode {
    /// Creates a leaf-less node from an op with no hints set; the compiler
    /// fills in hints and children.
    pub fn new(op: VertexOp) -> Self {
        PlanNode {
            op,
            children: Vec::new(),
            pattern_index: None,
            cmap_insert: false,
            cmap_insert_bound: None,
        }
    }

    /// Depth of the deepest node in this subtree, plus one (i.e. the number
    /// of levels).
    pub fn max_depth(&self) -> usize {
        let below = self.children.iter().map(PlanNode::max_depth).max().unwrap_or(0);
        below.max(self.op.depth + 1)
    }

    /// Iterates over this node and all descendants, depth-first.
    pub fn iter(&self) -> PlanNodeIter<'_> {
        PlanNodeIter { stack: vec![self] }
    }
}

/// Depth-first iterator over the nodes of a plan tree.
#[derive(Debug)]
pub struct PlanNodeIter<'a> {
    stack: Vec<&'a PlanNode>,
}

impl<'a> Iterator for PlanNodeIter<'a> {
    type Item = &'a PlanNode;

    fn next(&mut self) -> Option<&'a PlanNode> {
        let node = self.stack.pop()?;
        // Push in reverse so iteration visits children left-to-right.
        self.stack.extend(node.children.iter().rev());
        Some(node)
    }
}

/// A complete pattern-specific execution plan — the artifact loaded into
/// the FlexMiner hardware before execution (Fig. 2 of the paper).
#[derive(Clone, PartialEq, Debug)]
pub struct ExecutionPlan {
    /// Root of the embedding tree (the depth-0 op, `v0 ∈ V`).
    pub root: PlanNode,
    /// The patterns this plan mines, indexed by `PlanNode::pattern_index`.
    pub patterns: Vec<PatternMeta>,
    /// Whether the data graph must be degree-oriented into a DAG before
    /// execution (k-clique special case, §V-C). When set, the plan carries
    /// no symmetry bounds — orientation subsumes them.
    pub orientation: bool,
    /// Vertex-induced (true, k-MC) vs edge-induced (false, SL) matching.
    pub induced: bool,
    /// Whether the plan guarantees each embedding is found exactly once
    /// (symmetry order or orientation). When false (AutoMine mode), every
    /// embedding of pattern `i` is found `patterns[i].automorphisms` times.
    pub symmetry: bool,
}

impl ExecutionPlan {
    /// Number of DFS levels (the size of the largest pattern).
    pub fn depth(&self) -> usize {
        self.root.max_depth()
    }

    /// Total number of plan nodes (vertex-section entries after merging).
    pub fn node_count(&self) -> usize {
        self.root.iter().count()
    }

    /// Whether any node queries connectivity through the c-map — if not,
    /// c-map hardware is idle for this plan.
    pub fn uses_cmap(&self) -> bool {
        self.root.iter().any(|n| n.cmap_insert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(depth: usize) -> VertexOp {
        VertexOp {
            depth,
            extender: if depth == 0 { Extender::Root } else { Extender::Level(depth - 1) },
            upper_bounds: DepthSet::new(),
            connected: DepthSet::new(),
            disconnected: DepthSet::new(),
            frontier: FrontierHint::None,
        }
    }

    #[test]
    fn full_connected_includes_extender() {
        let mut o = op(2);
        o.connected = DepthSet::from_depths([0]);
        assert_eq!(o.full_connected(), DepthSet::from_depths([0, 1]));
        let mut root = op(0);
        root.connected = DepthSet::new();
        assert!(root.full_connected().is_empty());
    }

    #[test]
    fn consumes_frontier_is_every_hint_but_none() {
        assert!(!FrontierHint::None.consumes_frontier());
        assert!(FrontierHint::Reuse.consumes_frontier());
        assert!(FrontierHint::Extend.consumes_frontier());
        assert!(FrontierHint::ExtendDiff.consumes_frontier());
    }

    #[test]
    fn same_candidates_ignores_frontier_hint() {
        let a = op(1);
        let mut b = op(1);
        b.frontier = FrontierHint::Reuse;
        assert!(a.same_candidates(&b));
        let mut c = op(1);
        c.upper_bounds = DepthSet::from_depths([0]);
        assert!(!a.same_candidates(&c));
    }

    #[test]
    fn tree_depth_and_iteration() {
        let mut root = PlanNode::new(op(0));
        let mut l1 = PlanNode::new(op(1));
        let mut l2a = PlanNode::new(op(2));
        l2a.pattern_index = Some(0);
        let mut l2b = PlanNode::new(op(2));
        l2b.pattern_index = Some(1);
        l1.children = vec![l2a, l2b];
        root.children = vec![l1];
        let plan = ExecutionPlan {
            root,
            patterns: vec![
                PatternMeta { name: "a".into(), size: 3, automorphisms: 1 },
                PatternMeta { name: "b".into(), size: 3, automorphisms: 2 },
            ],
            orientation: false,
            induced: true,
            symmetry: true,
        };
        assert_eq!(plan.depth(), 3);
        assert_eq!(plan.node_count(), 4);
        let depths: Vec<usize> = plan.root.iter().map(|n| n.op.depth).collect();
        assert_eq!(depths, vec![0, 1, 2, 2]);
        assert!(!plan.uses_cmap());
    }
}
