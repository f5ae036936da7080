//! Plan-driven DFS executor (single worker).
//!
//! This is the software realization of the execution model in Fig. 10 of
//! the paper: a depth-first walk over the subgraph search tree, customized
//! entirely by the execution plan. The hardware simulator implements the
//! same plans cycle by cycle (with the c-map this engine does not have);
//! the two are cross-checked for identical counts in the integration tests.

use crate::checkpoint::Checkpoint;
use crate::fail_point;
use crate::result::{Fault, MiningResult, RunStatus, WorkCounters};
use crate::setops::{self, Count};
use crate::telemetry::Collector;
use crate::EngineConfig;
use fm_graph::block::BLOCK;
use fm_graph::{orient_by_degree, BlockSummaries, CsrGraph, HubBitmaps, HubRow, VertexId};
use fm_pattern::DepthSet;
use fm_plan::lowering::{lower, LowerOptions, Program};
use fm_plan::{count_leaves, CountOptions, CountRule, ExecutionPlan, FrontierHint, Survivors};
use std::borrow::Cow;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Applies the plan's preprocessing directive to the data graph: k-clique
/// plans run on the degree-oriented DAG (§V-C), everything else on the
/// symmetric graph.
///
/// "The preprocessing time is usually less than 1% of the execution time,
/// and once converted, the graph can be used for any k-CL."
pub fn prepare_graph<'g>(graph: &'g CsrGraph, plan: &ExecutionPlan) -> Cow<'g, CsrGraph> {
    if plan.orientation {
        Cow::Owned(orient_by_degree(graph))
    } else {
        Cow::Borrowed(graph)
    }
}

/// A `T` its holder either borrows from the caller or co-owns. This is
/// what lets one [`JobCore`](crate::JobCore) run over a caller's stack
/// (the `mine*` entry points) or outlive it (`serve`), without a copy in
/// the first case or a borrow in the second.
pub(crate) enum Held<'a, T> {
    Ref(&'a T),
    Arc(Arc<T>),
}

impl<T> std::ops::Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            Held::Ref(t) => t,
            Held::Arc(t) => t,
        }
    }
}

/// A data graph fully preprocessed for mining: the (possibly oriented)
/// graph plus the optional auxiliary indexes built over it — the
/// hub-bitmap index for the probe tier and the per-block adjacency
/// summaries for the SIMD tier's block skipping.
///
/// [`prepare`] is the one place the indexes are built; every
/// [`Executor`] — each worker of a parallel run, every stint of a
/// [`JobCore`](crate::JobCore) — borrows them from here. Construction is
/// governed by the config and the plan: [`EngineConfig::hub_bitmap_active`]
/// / [`EngineConfig::simd_active`] decide whether each index may be built
/// at all, neither is built for a plan whose count-only program hands no
/// two lists to a set-op kernel (the only reader of either; the joined
/// 4-cycle is such a plan), and an index that comes back empty (no vertex
/// reaches the degree threshold, the memory budget is too tight, or the
/// graph has no edges) is dropped so the dispatcher never consults it.
pub struct PreparedGraph<'g> {
    graph: Held<'g, CsrGraph>,
    hubs: Option<Arc<HubBitmaps>>,
    blocks: Option<Arc<BlockSummaries>>,
}

impl<'g> PreparedGraph<'g> {
    /// The prepared (oriented for k-clique plans) graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The hub-bitmap index, if one was built and came back non-empty.
    pub fn hubs(&self) -> Option<&HubBitmaps> {
        self.hubs.as_deref()
    }

    /// The block summaries, if they were built and came back non-empty.
    pub fn blocks(&self) -> Option<&BlockSummaries> {
        self.blocks.as_deref()
    }

    pub(crate) fn build(
        input: Held<'g, CsrGraph>,
        plan: &ExecutionPlan,
        cfg: &EngineConfig,
    ) -> PreparedGraph<'g> {
        let graph =
            if plan.orientation { Held::Arc(Arc::new(orient_by_degree(&input))) } else { input };
        let mut prepared = PreparedGraph { graph, hubs: None, blocks: None };
        let probed = (cfg.hub_bitmap_active() || cfg.simd_active())
            && Resolved::new(&prepared, &count_program(plan, cfg), cfg).dispatches_set_ops();
        if probed && cfg.hub_bitmap_active() {
            let (threshold, budget) = (cfg.hub_degree_threshold, cfg.hub_memory_budget);
            let idx = HubBitmaps::build(&prepared.graph, threshold, budget);
            prepared.hubs = (!idx.is_empty()).then(|| Arc::new(idx));
        }
        if probed && cfg.simd_active() {
            let bl = BlockSummaries::build(&prepared.graph);
            prepared.blocks = (!bl.is_empty()).then(|| Arc::new(bl));
        }
        prepared
    }

    /// A second handle on the same prepared data: the graph by reference,
    /// the indexes by the `Arc`s this one already holds.
    pub(crate) fn reborrow(&self) -> PreparedGraph<'_> {
        PreparedGraph {
            graph: Held::Ref(&self.graph),
            hubs: self.hubs.clone(),
            blocks: self.blocks.clone(),
        }
    }
}

impl std::ops::Deref for PreparedGraph<'_> {
    type Target = CsrGraph;
    fn deref(&self) -> &CsrGraph {
        &self.graph
    }
}

/// [`prepare_graph`] plus auxiliary-index construction (hub bitmaps,
/// block summaries): the preprocessing step shared by every mining entry
/// point, so single-threaded, parallel, stinted and
/// re-run-the-completed-set executions all see the same indexes and
/// charge identical work.
pub fn prepare<'g>(
    graph: &'g CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> PreparedGraph<'g> {
    PreparedGraph::build(Held::Ref(graph), plan, cfg)
}

/// The program a count-only run of `plan` executes under `cfg`: the plan
/// lowered with its frontier hints honoured (the default), then every leaf's
/// counting rule decided ([`count_leaves`]). `paper_faithful` keeps the
/// scan — the one rule that charges exactly what enumeration does.
pub fn count_program(plan: &ExecutionPlan, cfg: &EngineConfig) -> Program {
    let options = LowerOptions { bounded_pushdown: !cfg.paper_faithful, ..Default::default() };
    let mut program = lower(plan, options);
    count_leaves(&mut program, CountOptions { closed_forms: !cfg.paper_faithful });
    program
}

/// Mutable per-worker state.
#[derive(Default)]
struct State {
    emb: Vec<VertexId>,
    /// Materialized core (candidate) lists, one buffer per depth.
    frontiers: Vec<Vec<VertexId>>,
    /// `core_at[d]` = depth index whose buffer holds the core for level d
    /// (differs from `d` for `Reuse` ops).
    core_at: Vec<usize>,
    /// The merge pipeline's previous stage.
    scratch: Vec<VertexId>,
    /// The pair join's count map: one counter per data vertex, all zero
    /// between joins. Empty until this worker's first join, so a plan
    /// without one never pays for it.
    pair_counts: Vec<u32>,
    /// The vertices whose counter the running join has bumped — what it
    /// replays to zero the map again.
    touched: Vec<VertexId>,
    counts: Vec<u64>,
    /// `counts` as the running task found them, for its rollback: kept
    /// here so that isolating a task allocates nothing.
    counts_before: Vec<u64>,
    work: WorkCounters,
    /// Filled only under [`Executor::collect_matches`].
    matches: Vec<(usize, Vec<VertexId>)>,
    /// Start vertices completed via the isolated path (see
    /// [`Executor::run_vertex_isolated`]); untracked fast-path runs leave
    /// this empty.
    completed: Vec<u32>,
    /// Start vertices whose tasks panicked and were rolled back (one
    /// record per attempt).
    faults: Vec<Fault>,
    /// Start vertices abandoned after exhausting the configured retries
    /// (one record per vertex: its final failed attempt).
    quarantined: Vec<Fault>,
    /// Per-worker telemetry collection, unless the run is unobserved.
    /// Depth metrics charge work as it happens, so a
    /// faulted-then-rolled-back attempt's work stays visible in telemetry
    /// even though the result counters exclude it — telemetry measures
    /// work performed, results report work kept.
    telemetry: Option<Box<Collector>>,
}

impl State {
    fn new(depth: usize, patterns: usize) -> State {
        State {
            emb: Vec::with_capacity(depth),
            frontiers: vec![Vec::new(); depth],
            core_at: vec![0; depth],
            counts: vec![0; patterns],
            counts_before: vec![0; patterns],
            ..State::default()
        }
    }
}

/// How a node's core candidate list comes to be.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    /// The parent's core, as it is.
    Reuse,
    /// The parent's core ∩ (`keep`) or \ the parent vertex's adjacency.
    Extend { keep: bool },
    /// `emb[ext]`'s adjacency, unconstrained.
    Copy { ext: usize },
    /// `emb[ext]`'s adjacency ∩ adj(connected…) \ adj(disconnected…).
    Pipeline { ext: usize },
}

/// One node of the resolved program.
struct Node {
    depth: usize,
    op: Op,
    /// Back on `Enumerate` everywhere under [`Executor::collect_matches`].
    count: CountRule,
    /// `count` enumerates and every child is a counting kernel: one loop
    /// over the survivors counts them ([`fused`]).
    fused: bool,
    /// The pattern the leaf of a counted branch completes.
    leaf_pattern: usize,
    /// Symmetry-order upper bounds: the smallest vertex at these levels.
    bounds: DepthSet,
    /// Levels a candidate could collide with (injectivity).
    distinct: DepthSet,
    connected: DepthSet,
    disconnected: DepthSet,
    /// The bound also cuts the core while it is built: the lowering proved
    /// that invisible, and this run's kernels have a bound port.
    bounded: bool,
    /// The pattern completed at this node, if any.
    pattern: Option<usize>,
    /// This node's slice of [`Resolved::children`].
    children: Range<usize>,
}

/// The count program as one executor runs it (DESIGN.md §6g): what
/// [`enter`] and [`step`] would otherwise re-derive per candidate from the
/// config, the prepared graph and the lowered nodes, decided once.
struct Resolved<'g> {
    g: &'g CsrGraph,
    hubs: Option<&'g HubBitmaps>,
    /// The shortest list `hubs` can hold a row for; `usize::MAX` without one.
    hub_min: usize,
    blocks: Option<&'g BlockSummaries>,
    simd: bool,
    gallop_ratio: usize,
    /// Unbounded scalar merges and no dispatcher (`paper_faithful`).
    faithful: bool,
    /// Charge each step's work to its depth: a collector with metrics on.
    observed: bool,
    /// Record every match ([`Executor::collect_matches`]).
    collect: bool,
    #[cfg(any(test, feature = "failpoints"))]
    failpoint_scope: u64,
    nodes: Vec<Node>,
    /// Every node's child indices, back to back.
    children: Vec<usize>,
}

/// How far ahead of the survivor in hand [`Resolved::prefetch`] fetches a
/// row, and — further, the row's address is read from them — its offsets.
const ROW_AHEAD: usize = 1;
const OFFSETS_AHEAD: usize = 3;

impl<'g> Resolved<'g> {
    fn new(g: &'g PreparedGraph<'_>, program: &Program, cfg: &EngineConfig) -> Resolved<'g> {
        let set = |levels: &[usize]| DepthSet::from_depths(levels.iter().copied());
        let mut children = Vec::new();
        let mut nodes: Vec<Node> = Vec::with_capacity(program.nodes.len());
        for n in &program.nodes {
            // The root is entered, never stepped: its op is never read.
            let ext = n.extender.unwrap_or(0);
            let op = match n.frontier {
                FrontierHint::Reuse => Op::Reuse,
                FrontierHint::Extend => Op::Extend { keep: true },
                FrontierHint::ExtendDiff => Op::Extend { keep: false },
                FrontierHint::None if n.connected.is_empty() && n.disconnected.is_empty() => {
                    Op::Copy { ext }
                }
                FrontierHint::None => Op::Pipeline { ext },
            };
            let leaf_pattern = match n.count {
                CountRule::Enumerate => 0, // never read
                CountRule::PairJoin { leaf } | CountRule::Tail { leaf, .. } => program.nodes[leaf]
                    .pattern_index
                    .expect("a counted branch ends in a pattern leaf"),
            };
            let first_child = children.len();
            children.extend_from_slice(&n.children);
            nodes.push(Node {
                depth: n.depth,
                op,
                count: n.count,
                fused: false,
                leaf_pattern,
                bounds: set(&n.upper_bounds),
                distinct: set(&n.injectivity),
                connected: set(&n.connected),
                disconnected: set(&n.disconnected),
                bounded: n.bounded_build && !cfg.paper_faithful,
                pattern: n.pattern_index,
                children: first_child..children.len(),
            });
        }
        for i in 0..nodes.len() {
            let kernel = |s| matches!(s, Survivors::Intersect | Survivors::Difference);
            let kids = &children[nodes[i].children.clone()];
            nodes[i].fused = nodes[i].count == CountRule::Enumerate
                && !kids.is_empty()
                && kids.iter().all(|&c| {
                    matches!(nodes[c].count, CountRule::Tail { survivors, .. } if kernel(survivors))
                });
        }
        Resolved {
            g: g.graph(),
            hubs: g.hubs(),
            hub_min: g.hubs().map_or(usize::MAX, HubBitmaps::degree_threshold),
            blocks: g.blocks(),
            simd: cfg.simd_active(),
            gallop_ratio: cfg.gallop_ratio,
            faithful: cfg.paper_faithful,
            observed: false,
            collect: false,
            #[cfg(any(test, feature = "failpoints"))]
            failpoint_scope: cfg.failpoint_scope,
            nodes,
            children,
        }
    }

    fn children(&self, node: &Node) -> &[usize] {
        &self.children[node.children.clone()]
    }

    /// Whether a count-only run ever calls a set-op kernel, the one place
    /// the hub bitmaps and the block summaries are read, over the nodes it
    /// reaches: a pair join or a tail answers for everything below it, and
    /// a `Reuse` or a copy calls none.
    /// [`Executor::collect_matches`] reaches more; a set op without an index
    /// is the same set op on the merge or gallop tier.
    fn dispatches_set_ops(&self) -> bool {
        fn stepped(run: &Resolved<'_>, n: usize) -> bool {
            let node = &run.nodes[n];
            matches!(node.op, Op::Extend { .. } | Op::Pipeline { .. })
                || (node.count == CountRule::Enumerate
                    && run.children(node).iter().any(|&c| stepped(run, c)))
        }
        self.children(&self.nodes[0]).iter().any(|&c| stepped(self, c))
    }

    /// The hub row and (SIMD tier on) block-summary row a dispatch against
    /// `v`'s `len`-element list can use. Exact, and lean: a hub row exists
    /// only for `len ≥ hub_min` and summary words only for a list longer
    /// than a block, so a short list — most of them — consults neither index.
    #[inline(always)]
    fn rows(&self, v: VertexId, len: usize) -> (Option<HubRow<'g>>, Option<&'g [u64]>) {
        let hub = if len >= self.hub_min { self.hubs.and_then(|h| h.row(v)) } else { None };
        let summary = match self.blocks {
            Some(blocks) if len > BLOCK => blocks.row(v),
            _ => &[],
        };
        (hub, self.simd.then_some(summary))
    }

    /// Starts the loads the survivors after `list[i]` will wait on, so
    /// their misses overlap the work in hand: the CPU's stand-in for the
    /// many PEs that hide edge-list latency (§IV).
    #[inline(always)]
    fn prefetch(&self, list: &[VertexId], i: usize) {
        let offsets = self.g.offsets();
        if let Some(v) = list.get(i + OFFSETS_AHEAD) {
            prefetch(offsets.as_ptr().wrapping_add(v.index()));
        }
        if let Some(v) = list.get(i + ROW_AHEAD) {
            prefetch(self.g.neighbor_array().as_ptr().wrapping_add(offsets[v.index()]));
        }
    }
}

/// A prefetch hint for the line at `at`; nothing off x86-64.
#[inline(always)]
fn prefetch<T>(at: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 has no architectural effect, whatever the address.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(at.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = at;
}

/// What a count that would wrap panics with instead.
pub(crate) const COUNT_OVERFLOW: &str = "pattern count overflows 64 bits";

/// Renders a panic payload for [`Fault::payload`].
pub(crate) fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A single-threaded, plan-driven mining executor over a prepared graph.
///
/// Most callers want [`crate::mine`] (which handles graph preparation and
/// threading); `Executor` is the building block exposed for the task loop,
/// the benchmarks and differential tests.
pub struct Executor<'g> {
    run: Resolved<'g>,
    cfg: EngineConfig,
    state: State,
}

impl<'g> Executor<'g> {
    /// Creates an executor over `g`, borrowing its graph and whatever
    /// auxiliary indexes [`prepare`] built — `cfg` must be the config `g`
    /// was prepared under (or one that activates the same indexes). The
    /// count program is resolved here, once, into the form the walk runs.
    pub fn new(g: &'g PreparedGraph<'_>, plan: &ExecutionPlan, cfg: &EngineConfig) -> Executor<'g> {
        cfg.debug_validate();
        debug_assert!(
            g.hubs.is_none() || cfg.hub_bitmap_active(),
            "a hub index must not reach a config that excludes probes (paper_faithful)"
        );
        debug_assert!(
            g.blocks.is_none() || cfg.simd_active(),
            "block summaries must not reach a config that excludes the SIMD tier"
        );
        let program = count_program(plan, cfg);
        let state = State::new(program.depth, plan.patterns.len());
        Executor { run: Resolved::new(g, &program, cfg), cfg: *cfg, state }
    }

    /// Enables recording of complete matches (pattern index + embedding).
    /// Intended for tests and small listings; counting stays exact either
    /// way. A match has to be entered to be recorded, so this puts every
    /// node back on enumeration.
    pub fn collect_matches(&mut self) {
        self.run.collect = true;
        for node in &mut self.run.nodes {
            (node.count, node.fused) = (CountRule::Enumerate, false);
        }
    }

    /// Runs the full search subtree rooted at start vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the graph.
    pub fn run_vertex(&mut self, v: VertexId) {
        fail_point!(self.cfg, "start_vertex", v.0 as u64);
        enter(&self.run, &mut self.state, 0, v);
        debug_assert!(self.state.emb.is_empty());
    }

    /// Runs the subtree of `v` inside a panic boundary, retrying up to
    /// [`EngineConfig::max_retries`] times before quarantining, and
    /// recording the outcome instead of unwinding further.
    ///
    /// On success `v` joins the result's `completed` list — including
    /// success on a retry, which leaves the failed attempts in the fault
    /// roster but does *not* degrade the run (transient faults self-heal).
    /// Every panicking attempt rolls back *all* of its effects — counts
    /// and work counters are restored to their pre-task snapshot and the
    /// embedding stack and the pair join's count map are reset — so a
    /// poisoned attempt contributes exactly nothing, and a retry starts
    /// from the same state the first attempt saw; the panic payload is
    /// recorded as a [`Fault`] tagged with the attempt index. A vertex
    /// that exhausts its retries is moved to the quarantine roster, which
    /// is what makes the run [`RunStatus::Degraded`]. This is the
    /// FlexMiner analogue of the c-map's own graceful-degradation
    /// precedent (overflow falls back to SIU/SDU, §IV-C): one bad task
    /// degrades the run, never the job.
    ///
    /// Returns whether the task (eventually) completed.
    pub fn run_vertex_isolated(&mut self, v: VertexId) -> bool {
        for attempt in 0..=self.cfg.max_retries {
            if self.run_vertex_attempt(v, attempt) {
                self.state.completed.push(v.0);
                return true;
            }
        }
        let last = self.state.faults.last().cloned().expect("a failed attempt records a fault");
        self.state.quarantined.push(last);
        false
    }

    /// One isolated attempt: panic boundary plus full rollback.
    fn run_vertex_attempt(&mut self, v: VertexId, attempt: u32) -> bool {
        self.state.counts_before.copy_from_slice(&self.state.counts);
        let work_snapshot = self.state.work;
        let matches_snapshot = self.state.matches.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run_vertex(v)));
        match outcome {
            Ok(()) => true,
            Err(payload) => {
                let s = &mut self.state;
                s.counts.copy_from_slice(&s.counts_before);
                s.work = work_snapshot;
                s.matches.truncate(matches_snapshot);
                // The DFS state is mid-subtree garbage: reset everything
                // the next task reads before writing.
                s.emb.clear();
                for w in s.touched.drain(..) {
                    s.pair_counts[w.index()] = 0;
                }
                s.faults.push(Fault { vid: v.0, attempt, payload: payload_string(&*payload) });
                false
            }
        }
    }

    /// Set-operation iterations consumed since the last
    /// [`drain_into`](Self::drain_into) (budget accounting).
    pub(crate) fn setop_iterations(&self) -> u64 {
        self.state.work.setop_iterations
    }

    /// Moves everything accumulated since the last call — counts, work,
    /// completed start vertices, fault and quarantine records — into
    /// `snap` and leaves this executor's totals at zero, so the two never
    /// hold the same task's contribution at once. Returns how many tasks
    /// (completed or quarantined) moved. This is the one per-task delta
    /// the task loop publishes.
    pub(crate) fn drain_into(&mut self, snap: &mut Checkpoint) -> u64 {
        let s = &mut self.state;
        for (slot, count) in snap.counts.iter_mut().zip(&mut s.counts) {
            // Closed-form leaves reach totals enumeration never could.
            *slot = slot.checked_add(std::mem::take(count)).expect(COUNT_OVERFLOW);
        }
        snap.work += std::mem::take(&mut s.work);
        let tasks = (s.completed.len() + s.quarantined.len()) as u64;
        for v in s.completed.drain(..) {
            snap.completed.insert(v);
        }
        // A start vertex run again (a resume after a fault) numbers its
        // attempts after the ones it already has on record.
        let recorded =
            |vid| snap.faults.iter().filter(|f| f.vid == vid).map(|f| f.attempt + 1).max();
        for f in s.faults.iter_mut().chain(&mut s.quarantined) {
            f.attempt += recorded(f.vid).unwrap_or(0);
        }
        snap.faults.append(&mut s.faults);
        snap.quarantined.append(&mut s.quarantined);
        tasks
    }

    /// Hands this executor the (all-zero) count map an earlier stint of
    /// the same job gave back, sparing its first pair join the O(|V|)
    /// allocation — a job's stints are many and short.
    pub(crate) fn adopt_pair_counts(&mut self, map: Vec<u32>) {
        self.state.pair_counts = map;
    }

    /// The count map for the job's next stint: empty if this executor
    /// never joined, otherwise all zero, because no join is in flight
    /// between tasks.
    pub(crate) fn release_pair_counts(&mut self) -> Vec<u32> {
        debug_assert!(self.state.touched.is_empty(), "a join undoes its bumps before it returns");
        std::mem::take(&mut self.state.pair_counts)
    }

    /// Installs this worker's telemetry collector (observed runs only).
    pub(crate) fn set_telemetry(&mut self, collector: Box<Collector>) {
        self.run.observed = collector.metrics;
        self.state.telemetry = Some(collector);
    }

    /// This worker's collector, when the run is observed.
    pub(crate) fn telemetry(&mut self) -> Option<&mut Collector> {
        self.state.telemetry.as_deref_mut()
    }

    /// Removes and returns the collector (end of a stint).
    pub(crate) fn take_telemetry(&mut self) -> Option<Box<Collector>> {
        self.state.telemetry.take()
    }

    /// Consumes the executor and returns counts and work counters. The
    /// status is [`RunStatus::Degraded`] if any start vertex exhausted its
    /// retries and was quarantined (a fault that healed on a retry does
    /// not degrade), [`RunStatus::Complete`] otherwise; drivers that
    /// stopped early override it with the stop reason.
    pub fn finish(self) -> MiningResult {
        let status = if self.state.quarantined.is_empty() {
            RunStatus::Complete
        } else {
            RunStatus::Degraded
        };
        MiningResult {
            counts: self.state.counts,
            work: self.state.work,
            status,
            completed: self.state.completed,
            faults: self.state.faults,
            quarantined: self.state.quarantined,
            ..MiningResult::default()
        }
    }

    /// The matches recorded since [`collect_matches`](Self::collect_matches).
    pub fn matches(&self) -> &[(usize, Vec<VertexId>)] {
        &self.state.matches
    }
}

/// Pushes `w` as the vertex for node `n`, handles counting, steps the
/// children, and unwinds.
fn enter(run: &Resolved<'_>, state: &mut State, n: usize, w: VertexId) {
    let node = &run.nodes[n];
    debug_assert_eq!(state.emb.len(), node.depth);
    state.emb.push(w);
    state.work.extensions += 1;
    if let Some(pi) = node.pattern {
        state.counts[pi] += 1;
        if run.collect {
            state.matches.push((pi, state.emb.clone()));
        }
    }
    for &child in run.children(node) {
        step(run, state, child);
    }
    state.emb.pop();
}

/// Generates the candidates of node `n` and counts the subtree below them
/// the way the program decided ([`CountRule`]): entering each survivor, or
/// — in a count-only run, where the lowering proved it equivalent — by one
/// of the closed forms of DESIGN.md §6f.
fn step(run: &Resolved<'_>, state: &mut State, n: usize) {
    let node = &run.nodes[n];
    let bound = node.bounds.iter().map(|l| state.emb[l]).min();
    let (k, survivors) = match node.count {
        CountRule::Enumerate => {
            let core = materialize(run, state, node, bound);
            if node.fused {
                return fused(run, state, node, core, bound);
            }
            return walk(run, state, node, core, bound, |state, w| enter(run, state, n, w));
        }
        CountRule::PairJoin { leaf } => {
            materialize(run, state, node, bound);
            return pair_join(run, state, node, &run.nodes[leaf], bound);
        }
        CountRule::Tail { k, survivors, .. } => (k, survivors),
    };
    // `m`: how many candidates survive this node's bound and injectivity.
    let m = match survivors {
        // GraphZero's generated code ends in exactly such count loops, and
        // the FlexMiner reducer does the same in hardware: every counter is
        // charged as entering each survivor would.
        Survivors::Scan => {
            let core = materialize(run, state, node, bound);
            let mut found = 0u64;
            walk(run, state, node, core, bound, |_, _| found += 1);
            found
        }
        Survivors::Search => {
            let core = materialize(run, state, node, bound);
            let (_, m) =
                surviving(&state.frontiers[core], bound, node, &state.emb, &mut state.work);
            state.work.candidates_checked += m;
            m
        }
        Survivors::Intersect | Survivors::Difference => {
            let core = state.core_at[node.depth - 1];
            kernel_count(run, state, node, core)
        }
    };
    credit(state, node.leaf_pattern, choose(m, k));
}

/// The fused last level (DESIGN.md §6g): every child of `node` is a
/// counting kernel over `node`'s own core, so the walk that filters the
/// survivors also runs each child's kernel and credits `C(m, k)` — one
/// loop, charging what [`enter`] and [`step`] charge per survivor.
fn fused(run: &Resolved<'_>, state: &mut State, node: &Node, core: usize, bound: Option<VertexId>) {
    walk(run, state, node, core, bound, |state, w| {
        state.work.extensions += 1;
        if let Some(pi) = node.pattern {
            state.counts[pi] += 1;
        }
        state.emb.push(w);
        for &leaf in run.children(node) {
            let leaf = &run.nodes[leaf];
            let CountRule::Tail { k, .. } = leaf.count else { unreachable!("fused over tails") };
            let m = kernel_count(run, state, leaf, core);
            credit(state, leaf.leaf_pattern, choose(m, k));
        }
        state.emb.pop();
    });
}

/// How many of the parent's core (buffer `core`) below `leaf`'s bound are
/// — for a difference, are not — adjacent to the parent's vertex, the last
/// of `emb`: the dispatcher's kernel into the counting sink, same tier rule
/// and charges as the merge it replaces, minus the frontier write. A
/// difference counts what it would keep as what the intersection would drop.
#[inline(always)]
fn kernel_count(run: &Resolved<'_>, state: &mut State, leaf: &Node, core: usize) -> u64 {
    let State { frontiers, emb, work, telemetry, .. } = state;
    fail_point!(run, "frontier_alloc", emb[0].0 as u64);
    fail_point!(run, "csr_read", emb[0].0 as u64);
    let diff = matches!(leaf.count, CountRule::Tail { survivors: Survivors::Difference, .. });
    let (v, bound) = (emb[leaf.depth - 1], leaf.bounds.iter().map(|l| emb[l]).min());
    let before = run.observed.then_some(*work);
    let prefix = match (diff, bound) {
        (true, Some(b)) => setops::bounded_prefix(&frontiers[core], b, work),
        _ => &frontiers[core],
    };
    let adj = run.g.neighbors(v);
    let (hub, simd) = run.rows(v, adj.len());
    let ratio = run.gallop_ratio;
    let Count(common) = setops::intersect(prefix, adj, bound, ratio, hub, simd, Count(0), work);
    if let (Some(t), Some(before)) = (telemetry, before) {
        t.charge_setops(leaf.depth, before, *work);
    }
    let m = if diff { prefix.len() as u64 - common } else { common };
    work.candidates_checked += m;
    m
}

/// One stage of candidate generation: `cur ∩ N(v)` (`keep`) or `cur \ N(v)`
/// into `out`. Faithful mode: full (unbounded) scalar merges, as in
/// GraphZero's generated code and the SIU of Fig. 9 (bounds apply while
/// the sorted core is walked). Otherwise `bound` is pushed into the kernel
/// and the dispatcher picks the tier.
#[inline]
fn set_op(
    run: &Resolved<'_>,
    keep: bool,
    cur: &[VertexId],
    v: VertexId,
    bound: Option<VertexId>,
    out: &mut Vec<VertexId>,
    work: &mut WorkCounters,
) {
    let adj = run.g.neighbors(v);
    let (hub, simd) = run.rows(v, adj.len()); // no rows under `faithful`
    match (run.faithful, keep) {
        (true, true) => setops::intersect_into(cur, adj, out, work),
        (true, false) => setops::difference_into(cur, adj, out, work),
        (false, true) => {
            setops::intersect(cur, adj, bound, run.gallop_ratio, hub, simd, out, work);
        }
        (false, false) => {
            setops::difference(cur, adj, bound, hub, simd, out, work);
        }
    }
}

/// Materializes (or locates) the core candidate list of `node`, leaving
/// its buffer index in `state.core_at[depth]` — and returning it — with
/// the telemetry an observed run keeps of it.
fn materialize(
    run: &Resolved<'_>,
    state: &mut State,
    node: &Node,
    bound: Option<VertexId>,
) -> usize {
    let d = node.depth;
    let before = run.observed.then_some(state.work);
    if node.op == Op::Reuse {
        state.core_at[d] = state.core_at[d - 1];
    } else {
        fail_point!(run, "frontier_alloc", state.emb[0].0 as u64);
        fail_point!(run, "csr_read", state.emb[0].0 as u64);
        let cut = if node.bounded { bound } else { None };
        let mut out = std::mem::take(&mut state.frontiers[d]);
        out.clear();
        match node.op {
            Op::Reuse => unreachable!(),
            Op::Extend { keep } => {
                let src = &state.frontiers[state.core_at[d - 1]];
                set_op(run, keep, src, state.emb[d - 1], cut, &mut out, &mut state.work);
            }
            Op::Copy { ext } => {
                let src = run.g.neighbors(state.emb[ext]);
                out.extend_from_slice(match cut {
                    Some(b) => setops::bounded_prefix(src, b, &mut state.work),
                    None => src,
                });
            }
            // The first stage reads the extender's adjacency; every later
            // one reads its predecessor's output, swapped into the scratch.
            Op::Pipeline { ext } => {
                let mut prev = std::mem::take(&mut state.scratch);
                let stages = node.connected.iter().map(|l| (l, true));
                let stages = stages.chain(node.disconnected.iter().map(|l| (l, false)));
                for (i, (l, keep)) in stages.enumerate() {
                    std::mem::swap(&mut out, &mut prev);
                    out.clear();
                    let cur = if i == 0 { run.g.neighbors(state.emb[ext]) } else { &prev[..] };
                    set_op(run, keep, cur, state.emb[l], cut, &mut out, &mut state.work);
                }
                state.scratch = prev;
            }
        }
        state.frontiers[d] = out;
        state.core_at[d] = d;
    }
    let core = state.core_at[d];
    // Observed runs: charge this level's candidate-generation delta (all
    // arms — merges, gallops, probes) to depth `d`, and sample the size of
    // any newly materialized frontier.
    if let (Some(t), Some(before)) = (state.telemetry.as_deref_mut(), before) {
        t.charge_setops(d, before, state.work);
        if node.op != Op::Reuse {
            t.record_frontier(state.frontiers[core].len());
        }
    }
    core
}

/// Walks `node`'s materialized core the way enumeration does — one
/// `candidates_checked` per element, up to and including the one that
/// trips the bound — handing each survivor to `visit`, and prefetching the
/// next ones' adjacency where children are about to read it.
#[inline]
fn walk(
    run: &Resolved<'_>,
    state: &mut State,
    node: &Node,
    core: usize,
    bound: Option<VertexId>,
    mut visit: impl FnMut(&mut State, VertexId),
) {
    for i in 0..state.frontiers[core].len() {
        let w = state.frontiers[core][i];
        state.work.candidates_checked += 1;
        if bound.is_some_and(|b| w >= b) {
            break; // cores are sorted ascending
        }
        if !node.children.is_empty() {
            run.prefetch(&state.frontiers[core], i);
        }
        if node.distinct.iter().any(|l| state.emb[l] == w) {
            continue;
        }
        visit(state, w);
    }
}

/// Where `node`'s bound cuts its sorted `core`, and how many candidates
/// before the cut also pass its injectivity filter.
fn surviving(
    core: &[VertexId],
    bound: Option<VertexId>,
    node: &Node,
    emb: &[VertexId],
    work: &mut WorkCounters,
) -> (usize, u64) {
    let below = match bound {
        Some(b) => setops::bounded_prefix(core, b, work),
        None => core,
    };
    let taken = node.distinct.iter().filter(|&l| below.binary_search(&emb[l]).is_ok()).count();
    (below.len(), (below.len() - taken) as u64)
}

/// `C(m, k)`.
///
/// # Panics
///
/// Panics when the value does not fit a `u64`: a closed form reaches
/// counts no enumeration ever could, and a wrapped count must never be
/// printed. Inside a task the panic is isolated like any other fault.
fn choose(m: u64, k: usize) -> u64 {
    let k = k as u64;
    if k == 1 {
        return m; // the plain leaf, millions of times a run
    }
    if m < k {
        return 0;
    }
    // Over the shorter side every prefix product is itself a binomial no
    // larger than the result, so a prefix that overflows means the result
    // does; the wide path is for a product that overflows before its
    // division brings it back.
    let mut acc: u64 = 1;
    for i in 0..k.min(m - k) {
        acc = match acc.checked_mul(m - i) {
            Some(product) => product / (i + 1),
            None => u64::try_from(u128::from(acc) * u128::from(m - i) / u128::from(i + 1))
                .unwrap_or_else(|_| panic!("C({m}, {k}) overflows a 64-bit count")),
        };
    }
    acc
}

/// Adds `found` matches of pattern `pi`, each charged as the one search
/// leaf it stands for.
#[inline]
fn credit(state: &mut State, pi: usize, found: u64) {
    state.counts[pi] = state.counts[pi].checked_add(found).expect(COUNT_OVERFLOW);
    state.work.extensions = state.work.extensions.checked_add(found).expect(COUNT_OVERFLOW);
}

/// The pair join at `x` (DESIGN.md §6f): every unordered pair of `x`'s
/// surviving candidates stands for an (X, Y) the enumerating plan would
/// enter, and `z`'s candidates below such a pair are the common neighbours
/// that pass `z`'s own filters — which mention only levels above `x`, so
/// one sweep serves all pairs. Streams each survivor's adjacency up to
/// `z`'s bound bumping the worker's count map, credits `Σ C(cnt, 2)`, and
/// undoes the map by replaying the touched keys. One `setop_iterations`
/// per streamed element (the probe tier's price), no invocation and no
/// tier: nothing was dispatched.
fn pair_join(run: &Resolved<'_>, state: &mut State, x: &Node, z: &Node, bound: Option<VertexId>) {
    let core = state.core_at[x.depth];
    let (end, survivors) = surviving(&state.frontiers[core], bound, x, &state.emb, &mut state.work);
    state.work.candidates_checked += end as u64;
    if survivors < 2 {
        return;
    }
    if state.pair_counts.is_empty() {
        state.pair_counts = vec![0; run.g.num_vertices()];
    }
    let z_bound = z.bounds.iter().map(|l| state.emb[l]).min();
    let before = run.observed.then_some(state.work);
    for i in 0..end {
        let xv = state.frontiers[core][i];
        if x.distinct.iter().any(|l| state.emb[l] == xv) {
            continue;
        }
        fail_point!(run, "csr_read", state.emb[0].0 as u64);
        let adj = match z_bound {
            Some(b) => setops::bounded_prefix(run.g.neighbors(xv), b, &mut state.work),
            None => run.g.neighbors(xv),
        };
        state.work.setop_iterations += adj.len() as u64;
        for &w in adj {
            let cnt = &mut state.pair_counts[w.index()];
            if *cnt == 0 {
                state.touched.push(w);
            }
            *cnt += 1;
        }
    }
    if let (Some(t), Some(before)) = (state.telemetry.as_deref_mut(), before) {
        t.charge_setops(z.depth, before, state.work);
    }
    // An embedding vertex `z` may not repeat closes no pair; those its
    // bound excludes were never streamed.
    for l in z.distinct.difference(z.bounds) {
        state.pair_counts[state.emb[l].index()] = 0;
    }
    let mut found: u128 = 0;
    for w in state.touched.drain(..) {
        let cnt = u128::from(std::mem::take(&mut state.pair_counts[w.index()]));
        found += cnt * cnt.saturating_sub(1) / 2;
    }
    credit(state, x.leaf_pattern, u64::try_from(found).expect(COUNT_OVERFLOW));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine;
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, compile_multi, CompileOptions};

    fn count(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig) -> Vec<u64> {
        mine(g, plan, cfg).unique_counts(plan)
    }

    #[test]
    fn triangles_in_complete_graph() {
        let g = generators::complete(7);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        // C(7,3) = 35.
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![35]);
    }

    #[test]
    fn four_cliques_in_complete_graph() {
        let g = generators::complete(8);
        let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
        // C(8,4) = 70.
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![70]);
    }

    #[test]
    fn four_cycles_in_bipartite_graph() {
        // K_{3,4}: C(3,2) * C(4,2) = 3 * 6 = 18 four-cycles.
        let g = generators::complete_bipartite(3, 4);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![18]);
    }

    #[test]
    fn four_cycles_in_grid() {
        let g = generators::grid(5, 4);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![4 * 3]);
    }

    #[test]
    fn wedges_in_star() {
        let g = generators::star(6);
        let plan = compile(&Pattern::wedge(), CompileOptions::default());
        // C(6,2) = 15 wedges centered at the hub.
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![15]);
    }

    #[test]
    fn diamonds_in_complete_graph() {
        let g = generators::complete(5);
        let plan = compile(&Pattern::diamond(), CompileOptions::default());
        // K5: C(5,4) vertex sets × 6 edge-induced diamonds each (choose the
        // missing edge among the 6).
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![30]);
    }

    #[test]
    fn automine_mode_finds_each_match_aut_times() {
        let g = generators::erdos_renyi(40, 0.25, 3);
        let sym = compile(&Pattern::triangle(), CompileOptions::default());
        let auto = compile(&Pattern::triangle(), CompileOptions::automine());
        let s = mine(&g, &sym, &EngineConfig::default());
        let a = mine(&g, &auto, &EngineConfig::default());
        assert_eq!(a.counts[0], 6 * s.counts[0]);
        assert_eq!(a.unique_counts(&auto), s.unique_counts(&sym));
        // The larger search space costs more work.
        assert!(a.work.extensions > s.work.extensions);
    }

    #[test]
    fn bounded_and_adaptive_modes_match_faithful_counts() {
        let g = generators::powerlaw_cluster(200, 5, 0.4, 11);
        for pattern in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::diamond(),
            Pattern::house(),
            Pattern::k_clique(4),
        ] {
            let plan = compile(&pattern, CompileOptions::default());
            let faithful = mine(&g, &plan, &EngineConfig::paper_faithful());
            let bounded = mine(&g, &plan, &EngineConfig { gallop_ratio: 0, ..Default::default() });
            let adaptive = mine(&g, &plan, &EngineConfig::default());
            assert_eq!(faithful.counts, bounded.counts, "pattern {pattern}");
            assert_eq!(faithful.counts, adaptive.counts, "pattern {pattern}");
            // Pushing the bound into the merges can only remove set-op
            // iterations.
            assert!(
                bounded.work.setop_iterations <= faithful.work.setop_iterations,
                "pattern {pattern}"
            );
        }
        // On a bounded-heavy pattern the reduction is strict.
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let faithful = mine(&g, &plan, &EngineConfig::paper_faithful());
        let bounded = mine(&g, &plan, &EngineConfig { gallop_ratio: 0, ..Default::default() });
        assert!(bounded.work.setop_iterations < faithful.work.setop_iterations);
    }

    #[test]
    fn induced_motif_counts_on_small_oracle() {
        // A triangle with a pendant vertex: motifs of size 3 are
        // 1 triangle + 2 wedges (1-2-3 center 2 and 0-2-3 center 2).
        let g = fm_graph::GraphBuilder::new()
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(2, 3)
            .build()
            .unwrap();
        let motifs = fm_pattern::motifs::motifs(3);
        let plan = compile_multi(&motifs, CompileOptions::induced());
        let counts = count(&g, &plan, &EngineConfig::default());
        // motifs(3) is [wedge, triangle].
        assert_eq!(counts, vec![2, 1]);
    }

    #[test]
    fn multi_pattern_matches_individual_runs() {
        let g = generators::powerlaw_cluster(100, 4, 0.5, 21);
        let patterns = [Pattern::diamond(), Pattern::tailed_triangle()];
        let multi = compile_multi(&patterns, CompileOptions::default());
        let together = count(&g, &multi, &EngineConfig::default());
        for (i, p) in patterns.iter().enumerate() {
            let single = compile(p, CompileOptions::default());
            assert_eq!(count(&g, &single, &EngineConfig::default())[0], together[i]);
        }
    }

    #[test]
    fn collected_matches_are_valid_embeddings() {
        let g = generators::erdos_renyi(30, 0.3, 5);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let prepared = prepare(&g, &plan, &EngineConfig::default());
        let mut ex = Executor::new(&prepared, &plan, &EngineConfig::default());
        ex.collect_matches();
        for v in prepared.vertices() {
            ex.run_vertex(v);
        }
        let matches: Vec<_> = ex.matches().to_vec();
        let result = ex.finish();
        assert_eq!(matches.len() as u64, result.counts[0]);
        for (pi, emb) in &matches {
            assert_eq!(*pi, 0);
            assert_eq!(emb.len(), 4);
            // Matching-order adjacency: v1,v2 ∈ N(v0); v3 ∈ N(v1) ∩ N(v2).
            assert!(g.has_edge(emb[0], emb[1]));
            assert!(g.has_edge(emb[0], emb[2]));
            assert!(g.has_edge(emb[3], emb[1]));
            assert!(g.has_edge(emb[3], emb[2]));
            // Symmetry order: v1 < v0, v2 < v1, v3 < v0.
            assert!(emb[1] < emb[0] && emb[2] < emb[1] && emb[3] < emb[0]);
        }
    }

    #[test]
    fn choose_is_exact_until_it_cannot_be() {
        assert_eq!(choose(0, 2), 0);
        assert_eq!(choose(1, 2), 0);
        assert_eq!(choose(5, 1), 5);
        assert_eq!(choose(5, 2), 10);
        assert_eq!(choose(10, 7), 120);
        assert_eq!(choose(7, 7), 1);
        // A product that overflows before its division brings it back.
        assert_eq!(choose(6_074_001_000, 2), 18_446_744_070_963_499_500);
        // C(67, 33) is the largest central-ish binomial under 2^64.
        assert_eq!(choose(67, 33), 14_226_520_737_620_288_370);
        for (m, k) in [(6_074_001_001, 2), (68, 34), (200_000, 7)] {
            let wrapped = catch_unwind(|| choose(m, k));
            assert!(wrapped.is_err(), "C({m}, {k}) does not fit and must not wrap");
        }
    }

    /// A closed form reaches counts no enumeration could: the 7-stars at a
    /// degree-200 000 hub number C(200 000, 7) ≈ 2.5·10³³. The overflow is
    /// a fault of that one task — isolated, quarantined, `Degraded` — and
    /// never a wrapped count.
    #[test]
    fn a_count_past_64_bits_degrades_the_run_instead_of_wrapping() {
        let g = generators::star(200_000);
        let plan = compile(&Pattern::star(7), CompileOptions::default());
        let r = mine(&g, &plan, &EngineConfig::default());
        assert_eq!(r.status, RunStatus::Degraded);
        let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        assert_eq!(r.quarantined.len(), 1, "{:?}", r.quarantined);
        assert_eq!(r.quarantined[0].vid, hub.0);
        assert!(r.quarantined[0].payload.contains("overflows"), "{:?}", r.quarantined[0]);
        // Every leaf of the data star has one neighbour: no 7-star there.
        assert_eq!(r.counts, vec![0]);
        assert_eq!(r.completed.len(), g.num_vertices() - 1);
        // The same hub with a count that fits: C(200 000, 3).
        let plan = compile(&Pattern::star(3), CompileOptions::default());
        let r = mine(&g, &plan, &EngineConfig::default());
        assert_eq!((r.status, r.counts), (RunStatus::Complete, vec![1_333_313_333_400_000]));
    }

    #[test]
    fn empty_graph_yields_zero() {
        let g = fm_graph::GraphBuilder::new().vertices(5).build().unwrap();
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![0]);
    }
}
