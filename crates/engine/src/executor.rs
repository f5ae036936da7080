//! Plan-driven DFS executor (single worker).
//!
//! This is the software realization of the execution model in Fig. 10 of
//! the paper: a depth-first walk over the subgraph search tree, customized
//! entirely by the execution plan. The same candidate-generation semantics
//! (frontier memoization, c-map queries, merge-based fallback) are
//! implemented cycle-by-cycle in the hardware simulator; the two are
//! cross-checked for identical counts in the integration tests.

use crate::checkpoint::Checkpoint;
use crate::cmap::{ConnectivityMap, HashCmap};
use crate::fail_point;
use crate::result::{Fault, MiningResult, RunStatus, WorkCounters};
use crate::setops;
use crate::telemetry::Collector;
use crate::EngineConfig;
use fm_graph::{orient_by_degree, BlockSummaries, CsrGraph, HubBitmaps, VertexId};
use fm_plan::lowering::{lower, LowerOptions, ProgNode, Program};
use fm_plan::{count_leaves, CountOptions, CountRule, ExecutionPlan, FrontierHint, Survivors};
use std::borrow::Cow;
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
        let probed = (cfg.hub_bitmap_active() || cfg.simd_active())
            && dispatches_set_ops(&count_program(plan, cfg), cfg);
        let hubs = if probed && cfg.hub_bitmap_active() {
            let idx = HubBitmaps::build(&graph, cfg.hub_degree_threshold, cfg.hub_memory_budget);
            (!idx.is_empty()).then(|| Arc::new(idx))
        } else {
            None
        };
        let blocks = if probed && cfg.simd_active() {
            let bl = BlockSummaries::build(&graph);
            (!bl.is_empty()).then(|| Arc::new(bl))
        } else {
            None
        };
        PreparedGraph { graph, hubs, blocks }
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
/// lowered for the engine's candidate generation, then every leaf's
/// counting rule decided ([`count_leaves`]). `paper_faithful` keeps the
/// scan — the one rule that charges exactly what enumeration does.
pub fn count_program(plan: &ExecutionPlan, cfg: &EngineConfig) -> Program {
    let mut program = lower(
        plan,
        LowerOptions { frontier_memo: cfg.frontier_memo, bounded_pushdown: !cfg.paper_faithful },
    );
    count_leaves(
        &mut program,
        CountOptions { closed_forms: !cfg.paper_faithful, use_cmap: cfg.use_cmap },
    );
    program
}

/// Whether a count-only run of `program` ever calls a set-op kernel, the
/// one place the hub bitmaps and the block summaries are read. Follows
/// [`step`] and [`build_core`] arm for arm over the nodes a run reaches: a
/// pair join or a tail answers for everything below it, a `Reuse` or an
/// unconstrained core copies a list, and a c-map probe streams one.
/// [`Executor::collect_matches`] reaches more nodes than this looks at; a
/// set op without an index is the same set op on the merge or gallop tier.
fn dispatches_set_ops(program: &Program, cfg: &EngineConfig) -> bool {
    fn stepped(program: &Program, cfg: &EngineConfig, node_idx: usize) -> bool {
        let node = &program.nodes[node_idx];
        let here = match (node.count, node.frontier) {
            (
                CountRule::Tail { survivors: Survivors::Intersect | Survivors::Difference, .. },
                _,
            ) => true,
            (_, FrontierHint::Reuse) => false,
            _ if cfg.use_cmap && node.probe => false,
            (_, FrontierHint::Extend | FrontierHint::ExtendDiff) => true,
            (_, FrontierHint::None) => !(node.connected.is_empty() && node.disconnected.is_empty()),
        };
        here || (node.count == CountRule::Enumerate
            && node.children.iter().any(|&child| stepped(program, cfg, child)))
    }
    program.nodes[0].children.iter().any(|&child| stepped(program, cfg, child))
}

/// Mutable per-worker state.
struct State {
    emb: Vec<VertexId>,
    /// Materialized core (candidate) lists, one buffer per depth.
    frontiers: Vec<Vec<VertexId>>,
    /// `core_at[d]` = depth index whose buffer holds the core for level d
    /// (differs from `d` for `Reuse` ops).
    core_at: Vec<usize>,
    /// Keys inserted into the c-map per depth, for stack-ordered unwind.
    inserted: Vec<Vec<VertexId>>,
    scratch_a: Vec<VertexId>,
    scratch_b: Vec<VertexId>,
    cmap: HashCmap,
    /// The pair join's count map: one counter per data vertex, all zero
    /// between joins. Empty until this worker's first join, so a plan
    /// without one never pays for it.
    pair_counts: Vec<u32>,
    /// The vertices whose counter the running join has bumped — what it
    /// replays to zero the map again.
    touched: Vec<VertexId>,
    counts: Vec<u64>,
    work: WorkCounters,
    matches: Option<Vec<(usize, Vec<VertexId>)>>,
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
    /// Per-worker telemetry collection; `None` (one null check on the
    /// candidate-generation path) unless the run is observed. Depth
    /// metrics charge work as it happens, so a faulted-then-rolled-back
    /// attempt's work stays visible in telemetry even though the result
    /// counters exclude it — telemetry measures work performed, results
    /// report work kept.
    telemetry: Option<Box<Collector>>,
}

impl State {
    /// Whether candidate generation must snapshot `work` around each step
    /// for the depth series: a collector that only takes task spans (as
    /// `serve`'s tracing does) keeps the hot path as it is with none.
    fn charges_depths(&self) -> bool {
        self.telemetry.as_ref().is_some_and(|t| t.metrics)
    }

    fn new(depth: usize, patterns: usize) -> State {
        State {
            emb: Vec::with_capacity(depth),
            frontiers: vec![Vec::new(); depth],
            core_at: vec![0; depth],
            inserted: vec![Vec::new(); depth],
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
            cmap: HashCmap::new(),
            pair_counts: Vec::new(),
            touched: Vec::new(),
            counts: vec![0; patterns],
            work: WorkCounters::default(),
            matches: None,
            completed: Vec::new(),
            faults: Vec::new(),
            quarantined: Vec::new(),
            telemetry: None,
        }
    }
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
    graph: &'g CsrGraph,
    hubs: Option<&'g HubBitmaps>,
    blocks: Option<&'g BlockSummaries>,
    program: Program,
    cfg: EngineConfig,
    state: State,
}

impl<'g> Executor<'g> {
    /// Creates an executor over `g`, borrowing its graph and whatever
    /// auxiliary indexes [`prepare`] built — `cfg` must be the config `g`
    /// was prepared under (or one that activates the same indexes).
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
        Executor {
            graph: g.graph(),
            hubs: g.hubs.as_deref(),
            blocks: g.blocks.as_deref(),
            program,
            cfg: *cfg,
            state,
        }
    }

    /// Enables recording of complete matches (pattern index + embedding).
    /// Intended for tests and small listings; counting stays exact either
    /// way. A match has to be entered to be recorded, so this puts every
    /// node back on [`CountRule::Enumerate`].
    pub fn collect_matches(&mut self) {
        self.state.matches = Some(Vec::new());
        for node in &mut self.program.nodes {
            node.count = CountRule::Enumerate;
        }
    }

    /// Runs the full search subtree rooted at start vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the graph.
    pub fn run_vertex(&mut self, v: VertexId) {
        fail_point!(self.cfg, "start_vertex", v.0 as u64);
        let aux = Aux { hubs: self.hubs, blocks: self.blocks, simd: self.cfg.simd_active() };
        enter(self.graph, aux, &self.cfg, &self.program, &mut self.state, 0, v);
        debug_assert!(self.state.emb.is_empty());
        debug_assert!(
            !self.cfg.use_cmap || self.state.cmap.is_empty(),
            "c-map must be self-cleaning across tasks"
        );
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
    /// embedding stack, c-map, and insertion logs are reset — so a
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
        let counts_snapshot = self.state.counts.clone();
        let work_snapshot = self.state.work;
        let matches_snapshot = self.state.matches.as_ref().map(Vec::len);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run_vertex(v)));
        match outcome {
            Ok(()) => true,
            Err(payload) => {
                self.state.counts = counts_snapshot;
                self.state.work = work_snapshot;
                if let (Some(matches), Some(len)) = (&mut self.state.matches, matches_snapshot) {
                    matches.truncate(len);
                }
                // The DFS state is mid-subtree garbage: reset everything
                // the next task reads before writing.
                self.state.emb.clear();
                self.state.cmap.clear();
                for w in self.state.touched.drain(..) {
                    self.state.pair_counts[w.index()] = 0;
                }
                for ins in &mut self.state.inserted {
                    ins.clear();
                }
                self.state.faults.push(Fault {
                    vid: v.0,
                    attempt,
                    payload: payload_string(&*payload),
                });
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
        self.state.matches.as_deref().unwrap_or(&[])
    }
}

/// Shared read-only dispatch context threaded through the DFS walk: the
/// optional hub-bitmap index (probe tier), the optional block summaries
/// (SIMD-tier block skipping), and whether the run's configuration
/// activated the SIMD tier at all.
#[derive(Clone, Copy)]
struct Aux<'a> {
    hubs: Option<&'a HubBitmaps>,
    blocks: Option<&'a BlockSummaries>,
    simd: bool,
}

impl<'a> Aux<'a> {
    /// SIMD routing state for a dispatch whose subtrahend operand is
    /// `v`'s adjacency list.
    fn simd_for(&self, v: VertexId) -> setops::SimdOpt<'a> {
        setops::SimdOpt { enabled: self.simd, b_blocks: self.blocks.map(|b| b.row(v)) }
    }
}

/// Pushes `w` as the vertex for `node`, handles counting and c-map
/// insertion, recurses into children, and unwinds.
fn enter(
    g: &CsrGraph,
    aux: Aux<'_>,
    cfg: &EngineConfig,
    prog: &Program,
    state: &mut State,
    node_idx: usize,
    w: VertexId,
) {
    let node = &prog.nodes[node_idx];
    let d = node.depth;
    debug_assert_eq!(state.emb.len(), d);
    state.emb.push(w);
    state.work.extensions += 1;
    if let Some(pi) = node.pattern_index {
        state.counts[pi] += 1;
        if let Some(matches) = &mut state.matches {
            matches.push((pi, state.emb.clone()));
        }
    }
    let mut did_insert = false;
    if cfg.use_cmap && node.cmap_insert && !node.children.is_empty() {
        fail_point!(cfg, "cmap_insert", state.emb[0].0 as u64);
        did_insert = true;
        let bound = node.cmap_insert_bound.map(|l| state.emb[l]);
        state.inserted[d].clear();
        for &nb in g.neighbors(w) {
            if let Some(b) = bound {
                if nb >= b {
                    break; // adjacency is sorted ascending
                }
            }
            state.cmap.insert(nb, d);
            state.work.cmap_inserts += 1;
            state.inserted[d].push(nb);
        }
    }
    for &child in &node.children {
        step(g, aux, cfg, prog, state, child);
    }
    if did_insert {
        let ins = std::mem::take(&mut state.inserted[d]);
        for &nb in &ins {
            state.cmap.remove(nb, d);
            state.work.cmap_removes += 1;
        }
        state.inserted[d] = ins;
    }
    state.emb.pop();
}

/// Generates the candidates of `node` and counts the subtree below them
/// the way the program decided ([`CountRule`]): entering each survivor, or
/// — in a count-only run, where the lowering proved it equivalent — by one
/// of the closed forms of DESIGN.md §6f.
fn step(
    g: &CsrGraph,
    aux: Aux<'_>,
    cfg: &EngineConfig,
    prog: &Program,
    state: &mut State,
    node_idx: usize,
) {
    let node = &prog.nodes[node_idx];
    let bound: Option<VertexId> = node.upper_bounds.iter().map(|&l| state.emb[l]).min();
    let (leaf, k, survivors) = match node.count {
        CountRule::Enumerate => {
            let (core, len) = materialize(g, aux, cfg, prog, state, node_idx, bound);
            walk(state, node, core, len, bound, |state, w| {
                enter(g, aux, cfg, prog, state, node_idx, w)
            });
            return;
        }
        CountRule::PairJoin { leaf } => {
            materialize(g, aux, cfg, prog, state, node_idx, bound);
            pair_join(g, cfg, state, node, &prog.nodes[leaf], bound);
            return;
        }
        CountRule::Tail { leaf, k, survivors } => (leaf, k, survivors),
    };
    // `m`: how many candidates survive this node's bound and injectivity.
    let m = match survivors {
        // GraphZero's generated code ends in exactly such count loops, and
        // the FlexMiner reducer does the same in hardware: every counter is
        // charged as entering each survivor would.
        Survivors::Scan => {
            let (core, len) = materialize(g, aux, cfg, prog, state, node_idx, bound);
            let mut found = 0u64;
            walk(state, node, core, len, bound, |_, _| found += 1);
            found
        }
        Survivors::Search => {
            let (core, _) = materialize(g, aux, cfg, prog, state, node_idx, bound);
            let (_, m) =
                surviving(&state.frontiers[core], bound, node, &state.emb, &mut state.work);
            state.work.candidates_checked += m;
            m
        }
        // The counting twin of the adaptive kernel, same tier rule and same
        // charges as the merge it replaces; only the frontier write is
        // skipped. An `ExtendDiff` counts what the difference would keep as
        // what the intersection would drop.
        Survivors::Intersect | Survivors::Difference => {
            let d = node.depth;
            fail_point!(cfg, "frontier_alloc", state.emb[0].0 as u64);
            fail_point!(cfg, "csr_read", state.emb[0].0 as u64);
            let v = state.emb[d - 1];
            let hub = aux.hubs.and_then(|h| h.row(v));
            let work_before = state.charges_depths().then_some(state.work);
            let prefix = &state.frontiers[state.core_at[d - 1]];
            let prefix = match (survivors, bound) {
                (Survivors::Difference, Some(b)) => {
                    setops::bounded_prefix(prefix, b, &mut state.work)
                }
                _ => prefix,
            };
            let common = setops::intersect_adaptive_count(
                prefix,
                g.neighbors(v),
                bound,
                cfg.gallop_ratio,
                hub,
                aux.simd_for(v),
                &mut state.work,
            );
            if let (Some(t), Some(before)) = (state.telemetry.as_deref_mut(), work_before) {
                t.charge_setops(d, before, state.work);
            }
            let m = if survivors == Survivors::Intersect {
                common
            } else {
                prefix.len() as u64 - common
            };
            state.work.candidates_checked += m;
            m
        }
    };
    let pi = prog.nodes[leaf].pattern_index.expect("a tail ends in a pattern leaf");
    credit(state, pi, choose(m, k));
}

/// [`build_core`] for `node`, with the telemetry an observed run keeps of
/// it. Returns the buffer index of the core and its length.
fn materialize(
    g: &CsrGraph,
    aux: Aux<'_>,
    cfg: &EngineConfig,
    prog: &Program,
    state: &mut State,
    node_idx: usize,
    bound: Option<VertexId>,
) -> (usize, usize) {
    let node = &prog.nodes[node_idx];
    let d = node.depth;
    let work_before = state.charges_depths().then_some(state.work);
    build_core(g, aux, cfg, prog, state, node_idx, bound);
    let core = state.core_at[d];
    let len = state.frontiers[core].len();
    // Observed runs: charge this level's candidate-generation delta (all
    // build_core arms — merges, gallops, probes, and c-map traffic) to
    // depth `d`, and sample the size of any newly materialized frontier.
    if let (Some(t), Some(before)) = (state.telemetry.as_deref_mut(), work_before) {
        t.charge_setops(d, before, state.work);
        if node.frontier != FrontierHint::Reuse {
            t.record_frontier(len);
        }
    }
    (core, len)
}

/// Walks `node`'s materialized core the way enumeration does — one
/// `candidates_checked` per element, up to and including the one that
/// trips the bound — handing each survivor to `visit`.
#[inline]
fn walk(
    state: &mut State,
    node: &ProgNode,
    core: usize,
    len: usize,
    bound: Option<VertexId>,
    mut visit: impl FnMut(&mut State, VertexId),
) {
    for i in 0..len {
        let w = state.frontiers[core][i];
        state.work.candidates_checked += 1;
        if let Some(b) = bound {
            if w >= b {
                break; // cores are sorted ascending
            }
        }
        if node.injectivity.iter().any(|&l| state.emb[l] == w) {
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
    node: &ProgNode,
    emb: &[VertexId],
    work: &mut WorkCounters,
) -> (usize, u64) {
    let below = match bound {
        Some(b) => setops::bounded_prefix(core, b, work),
        None => core,
    };
    let taken = node.injectivity.iter().filter(|&&l| below.binary_search(&emb[l]).is_ok()).count();
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
fn pair_join(
    g: &CsrGraph,
    cfg: &EngineConfig,
    state: &mut State,
    x: &ProgNode,
    z: &ProgNode,
    bound: Option<VertexId>,
) {
    let core = state.core_at[x.depth];
    let (end, survivors) = surviving(&state.frontiers[core], bound, x, &state.emb, &mut state.work);
    state.work.candidates_checked += end as u64;
    if survivors < 2 {
        return;
    }
    if state.pair_counts.is_empty() {
        state.pair_counts = vec![0; g.num_vertices()];
    }
    let z_bound = z.upper_bounds.iter().map(|&l| state.emb[l]).min();
    let work_before = state.charges_depths().then_some(state.work);
    for i in 0..end {
        let xv = state.frontiers[core][i];
        if x.injectivity.iter().any(|&l| state.emb[l] == xv) {
            continue;
        }
        fail_point!(cfg, "csr_read", state.emb[0].0 as u64);
        let adj = match z_bound {
            Some(b) => setops::bounded_prefix(g.neighbors(xv), b, &mut state.work),
            None => g.neighbors(xv),
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
    if let (Some(t), Some(before)) = (state.telemetry.as_deref_mut(), work_before) {
        t.charge_setops(z.depth, before, state.work);
    }
    // An embedding vertex `z` may not repeat closes no pair; those its
    // bound excludes were never streamed.
    for &l in z.injectivity.iter().filter(|&&l| !z.upper_bounds.contains(&l)) {
        state.pair_counts[state.emb[l].index()] = 0;
    }
    let mut found: u128 = 0;
    for w in state.touched.drain(..) {
        let cnt = u128::from(std::mem::take(&mut state.pair_counts[w.index()]));
        found += cnt * cnt.saturating_sub(1) / 2;
    }
    let pi = z.pattern_index.expect("a pair join ends in a pattern leaf");
    credit(state, pi, u64::try_from(found).expect(COUNT_OVERFLOW));
}

/// Materializes (or locates) the core candidate list for `node`, leaving
/// its buffer index in `state.core_at[depth]`.
fn build_core(
    g: &CsrGraph,
    aux: Aux<'_>,
    cfg: &EngineConfig,
    prog: &Program,
    state: &mut State,
    node_idx: usize,
    bound: Option<VertexId>,
) {
    let node = &prog.nodes[node_idx];
    let d = node.depth;
    let has_constraints = !(node.connected.is_empty() && node.disconnected.is_empty());
    if node.frontier != FrontierHint::Reuse {
        fail_point!(cfg, "frontier_alloc", state.emb[0].0 as u64);
    }
    match node.frontier {
        FrontierHint::Reuse => {
            state.core_at[d] = state.core_at[d - 1];
        }
        // Stream-and-probe: with a c-map, a probe-strategy op streams its
        // extender's adjacency and resolves all connectivity constraints
        // with one probe per candidate (§II-C: "the intersection is
        // replaced by querying the c-map"). The lowering enables the
        // strategy only where the probed levels' insertions amortize.
        _ if cfg.use_cmap && node.probe => {
            let ext = node.extender.expect("constrained ops always have an extender");
            fail_point!(cfg, "csr_read", state.emb[0].0 as u64);
            let src = g.neighbors(state.emb[ext]);
            let mut out = std::mem::take(&mut state.frontiers[d]);
            out.clear();
            for &w in src {
                if node.bounded_build {
                    if let Some(b) = bound {
                        if w >= b {
                            break;
                        }
                    }
                }
                state.work.cmap_queries += 1;
                let bits = state.cmap.query(w);
                if bits != 0 {
                    state.work.cmap_hits += 1;
                }
                let ok = node.connected.iter().all(|&l| (bits >> l) & 1 == 1)
                    && node.disconnected.iter().all(|&l| (bits >> l) & 1 == 0);
                if ok {
                    out.push(w);
                }
            }
            state.frontiers[d] = out;
            state.core_at[d] = d;
        }
        FrontierHint::Extend | FrontierHint::ExtendDiff => {
            let want_connected = node.frontier == FrontierHint::Extend;
            let src = state.core_at[d - 1];
            let mut out = std::mem::take(&mut state.frontiers[d]);
            out.clear();
            // Faithful mode: full (unbounded) merges, as in GraphZero's
            // generated code and the SIU of Fig. 9 — candidate sets are
            // materialized in full and vid bounds are applied during
            // iteration (sorted cores break early). Otherwise the bound
            // is pushed into the merge when the lowering proved the
            // truncation invisible, and intersections may dispatch to
            // galloping.
            fail_point!(cfg, "csr_read", state.emb[0].0 as u64);
            let adj = g.neighbors(state.emb[d - 1]);
            let merge_bound = if cfg.paper_faithful || !node.bounded_build { None } else { bound };
            if cfg.paper_faithful {
                if want_connected {
                    setops::intersect_into(&state.frontiers[src], adj, &mut out, &mut state.work)
                } else {
                    setops::difference_into(&state.frontiers[src], adj, &mut out, &mut state.work)
                }
            } else {
                let v = state.emb[d - 1];
                let hub = aux.hubs.and_then(|h| h.row(v));
                if want_connected {
                    setops::intersect_adaptive_into(
                        &state.frontiers[src],
                        adj,
                        merge_bound,
                        cfg.gallop_ratio,
                        hub,
                        aux.simd_for(v),
                        &mut out,
                        &mut state.work,
                    )
                } else {
                    setops::difference_adaptive_into(
                        &state.frontiers[src],
                        adj,
                        merge_bound,
                        hub,
                        aux.simd_for(v),
                        &mut out,
                        &mut state.work,
                    )
                }
            }
            state.frontiers[d] = out;
            state.core_at[d] = d;
        }
        FrontierHint::None => {
            let ext = node.extender.expect("non-root ops always have an extender");
            fail_point!(cfg, "csr_read", state.emb[0].0 as u64);
            let src = g.neighbors(state.emb[ext]);
            let mut out = std::mem::take(&mut state.frontiers[d]);
            out.clear();
            let merge_bound = if cfg.paper_faithful || !node.bounded_build { None } else { bound };
            if !has_constraints {
                let src = match merge_bound {
                    Some(b) => setops::bounded_prefix(src, b, &mut state.work),
                    None => src,
                };
                out.extend_from_slice(src);
            } else {
                // Merge pipeline: src ∩ adj(connected…) \ adj(disconnected…),
                // ping-ponging between two scratch buffers and landing the
                // final stage in `out`.
                let mut a = std::mem::take(&mut state.scratch_a);
                let mut b = std::mem::take(&mut state.scratch_b);
                let total = node.connected.len() + node.disconnected.len();
                let stages = node
                    .connected
                    .iter()
                    .map(|&l| (l, true))
                    .chain(node.disconnected.iter().map(|&l| (l, false)));
                for (i, (l, is_conn)) in stages.enumerate() {
                    let adj = g.neighbors(state.emb[l]);
                    let last = i + 1 == total;
                    let (cur, dst): (&[VertexId], &mut Vec<VertexId>) = if i == 0 {
                        (src, if last { &mut out } else { &mut a })
                    } else if i % 2 == 1 {
                        (&a, if last { &mut out } else { &mut b })
                    } else {
                        (&b, if last { &mut out } else { &mut a })
                    };
                    dst.clear();
                    if cfg.paper_faithful {
                        if is_conn {
                            setops::intersect_into(cur, adj, dst, &mut state.work);
                        } else {
                            setops::difference_into(cur, adj, dst, &mut state.work);
                        }
                    } else {
                        let hub = aux.hubs.and_then(|h| h.row(state.emb[l]));
                        if is_conn {
                            setops::intersect_adaptive_into(
                                cur,
                                adj,
                                merge_bound,
                                cfg.gallop_ratio,
                                hub,
                                aux.simd_for(state.emb[l]),
                                dst,
                                &mut state.work,
                            );
                        } else {
                            setops::difference_adaptive_into(
                                cur,
                                adj,
                                merge_bound,
                                hub,
                                aux.simd_for(state.emb[l]),
                                dst,
                                &mut state.work,
                            );
                        }
                    }
                }
                state.scratch_a = a;
                state.scratch_b = b;
            }
            state.frontiers[d] = out;
            state.core_at[d] = d;
        }
    }
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
    fn cmap_mode_matches_setops_mode() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 7);
        for pattern in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::diamond(),
            Pattern::tailed_triangle(),
            Pattern::k_clique(4),
            Pattern::house(),
        ] {
            let plan = compile(&pattern, CompileOptions::default());
            let base = count(&g, &plan, &EngineConfig::default());
            let with_cmap =
                count(&g, &plan, &EngineConfig { use_cmap: true, ..Default::default() });
            assert_eq!(base, with_cmap, "pattern {pattern}");
        }
    }

    #[test]
    fn frontier_memo_off_matches_on() {
        let g = generators::powerlaw_cluster(120, 4, 0.4, 9);
        for pattern in [Pattern::k_clique(4), Pattern::diamond(), Pattern::cycle(4)] {
            let plan = compile(&pattern, CompileOptions::default());
            let on = count(&g, &plan, &EngineConfig::default());
            let off =
                count(&g, &plan, &EngineConfig { frontier_memo: false, ..Default::default() });
            let off_cmap = count(
                &g,
                &plan,
                &EngineConfig { frontier_memo: false, use_cmap: true, ..Default::default() },
            );
            assert_eq!(on, off, "pattern {pattern}");
            assert_eq!(on, off_cmap, "pattern {pattern} (cmap)");
        }
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
