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
use crate::setops::{self, Count, Sink};
use crate::stream::Stint;
use crate::telemetry::Collector;
use crate::EngineConfig;
use fm_graph::{orient_by_degree, CsrGraph, HubBitmaps, HubRow, VertexId};
use fm_pattern::DepthSet;
use fm_plan::lowering::{lower, LowerOptions, Program};
use fm_plan::{count_leaves, CountOptions, CountRule, ExecutionPlan, FrontierHint, Survivors};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A `T` its holder either borrows or co-owns, so that a
/// [`JobCore`](crate::JobCore) can run over a caller's stack or outlive it.
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
/// graph plus the hub bitmaps of the probe tier, if any.
///
/// [`prepare`] is the one place that decides whether the index exists, and
/// every [`Executor`] borrows it from here. It is built only if the run is
/// not [`paper_faithful`](EngineConfig::paper_faithful) and the plan's
/// count-only program hands two lists to a set-op kernel (its only reader;
/// the joined 4-cycle does not), and dropped if it comes back empty under
/// [`hub_degree_threshold`](EngineConfig::hub_degree_threshold) and
/// [`hub_memory_budget`](EngineConfig::hub_memory_budget) — a budget of
/// `0` is the off switch.
pub struct PreparedGraph<'g> {
    graph: Held<'g, CsrGraph>,
    hubs: Option<Arc<HubBitmaps>>,
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

    pub(crate) fn build(
        input: Held<'g, CsrGraph>,
        plan: &ExecutionPlan,
        cfg: &EngineConfig,
    ) -> PreparedGraph<'g> {
        let graph =
            if plan.orientation { Held::Arc(Arc::new(orient_by_degree(&input))) } else { input };
        let mut prepared = PreparedGraph { graph, hubs: None };
        if !cfg.paper_faithful
            && Resolved::new(&prepared, &count_program(plan, cfg), cfg).dispatches_set_ops()
        {
            let (threshold, budget) = (cfg.hub_degree_threshold, cfg.hub_memory_budget);
            let idx = HubBitmaps::build(&prepared.graph, threshold, budget);
            prepared.hubs = (!idx.is_empty()).then(|| Arc::new(idx));
        }
        prepared
    }

    /// A second handle on the same prepared data: the graph by reference,
    /// the index by the `Arc` this one already holds.
    pub(crate) fn reborrow(&self) -> PreparedGraph<'_> {
        PreparedGraph { graph: Held::Ref(&self.graph), hubs: self.hubs.clone() }
    }
}

impl std::ops::Deref for PreparedGraph<'_> {
    type Target = CsrGraph;
    fn deref(&self) -> &CsrGraph {
        &self.graph
    }
}

/// The one preprocessing step of every mining entry point and of the
/// simulator, so all see the same graph and index: k-clique plans run on
/// the degree-oriented DAG (§V-C), everything else on the symmetric graph,
/// and the hub bitmaps are built as [`PreparedGraph`] says.
///
/// "The preprocessing time is usually less than 1% of the execution time,
/// and once converted, the graph can be used for any k-CL."
pub fn prepare<'g>(
    graph: &'g CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> PreparedGraph<'g> {
    PreparedGraph::build(Held::Ref(graph), plan, cfg)
}

/// The program a count-only run of `plan` executes under `cfg`: lowered,
/// then every leaf's counting rule decided ([`count_leaves`]);
/// `paper_faithful` keeps the scan, which charges what enumeration does.
pub fn count_program(plan: &ExecutionPlan, cfg: &EngineConfig) -> Program {
    let options = LowerOptions { bounded_pushdown: !cfg.paper_faithful, ..Default::default() };
    let mut program = lower(plan, options);
    count_leaves(&mut program, CountOptions { closed_forms: !cfg.paper_faithful });
    program
}

/// Mutable per-worker state.
#[derive(Default)]
struct State<'g> {
    emb: Vec<VertexId>,
    /// The enumerating levels of the running task, innermost last.
    frames: Vec<Frame>,
    /// Materialized core (candidate) lists, one buffer per depth.
    frontiers: Vec<Vec<VertexId>>,
    /// `cores[d]` = where the core of level d is: its own buffer, an
    /// ancestor's (for `Reuse` ops) or a borrowed CSR row (`Copy`).
    cores: Vec<Core<'g>>,
    /// The merge pipeline's previous stage.
    scratch: Vec<VertexId>,
    /// The pair join's count map, one counter per data vertex, all zero
    /// between joins (empty until this worker's first join), and the
    /// vertices the running join has bumped.
    pair_counts: Vec<u32>,
    touched: Vec<VertexId>,
    /// The local clique graph of the running task ([`local_cliques`]): `d`
    /// bit rows of `⌈d/64⌉` words, and one candidate set per level between
    /// `v2` and the leaf. Overwritten by each task, never rolled back.
    rows: Vec<u64>,
    sets: Vec<u64>,
    counts: Vec<u64>,
    /// `counts` as the running task found them, for its rollback.
    counts_before: Vec<u64>,
    work: WorkCounters,
    /// Dispatches left before the next stop poll, across tasks.
    tick: u32,
    /// Filled only under [`Executor::collect_matches`].
    matches: Vec<(usize, Vec<VertexId>)>,
    /// Start vertices completed through [`Executor::run_vertex_isolated`].
    completed: Vec<u32>,
    /// One record per panicking attempt, and per vertex out of retries.
    faults: Vec<Fault>,
    quarantined: Vec<Fault>,
    /// Per-worker telemetry, unless the run is unobserved. It charges work
    /// as it happens, so a rolled-back attempt's work stays visible here
    /// though the result counters exclude it.
    telemetry: Option<Box<Collector>>,
}

impl State<'_> {
    fn new(depth: usize, patterns: usize) -> Self {
        State {
            emb: Vec::with_capacity(depth),
            frontiers: vec![Vec::new(); depth],
            cores: vec![Core::Row(&[]); depth],
            counts: vec![0; patterns],
            counts_before: vec![0; patterns],
            tick: POLL_EVERY,
            ..State::default()
        }
    }
}

/// Where a level's core is: a buffer of [`State::frontiers`], or a `Copy`
/// level's CSR row (its bounded prefix), borrowed, not copied.
#[derive(Clone, Copy)]
enum Core<'g> {
    Buf(usize),
    Row(&'g [VertexId]),
}

/// The candidates `core` names.
#[inline(always)]
fn list<'a>(frontiers: &'a [Vec<VertexId>], core: Core<'a>) -> &'a [VertexId] {
    match core {
        Core::Buf(d) => &frontiers[d],
        Core::Row(row) => row,
    }
}

/// One enumerating level of the running task: its node, its next
/// candidate, where the bound cuts its core, and the next child to step
/// under its survivor (`usize::MAX` before the first).
#[derive(Clone, Copy)]
struct Frame {
    node: usize,
    at: usize,
    end: usize,
    child: usize,
}

/// Dispatches between two stop polls inside a task: a poll is an atomic
/// load or two and, under a deadline, a clock read, noise against 1 024
/// set operations, which take about 1 ms on a 16-clique on K₃₀₀.
const POLL_EVERY: u32 = 1024;

/// What a task asks, with the set-op iterations it has spent so far,
/// whether to go on: `Some` is how its stint ends, paused or stopped.
pub(crate) type Stop<'a> = &'a mut dyn FnMut(u64) -> Option<Stint>;

/// Counts a dispatch and, every [`POLL_EVERY`]th, asks `stop`.
#[inline(always)]
fn poll(tick: &mut u32, stop: Stop<'_>, work: &WorkCounters, spent: u64) -> Result<(), Stint> {
    *tick -= 1;
    if *tick != 0 {
        return Ok(());
    }
    *tick = POLL_EVERY;
    stop(work.setop_iterations - spent).map_or(Ok(()), Err)
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
    /// The pattern the leaf of a counted branch completes.
    leaf_pattern: usize,
    /// Symmetry-order upper bounds: the smallest vertex at these levels.
    bounds: DepthSet,
    /// Levels a candidate could collide with (injectivity).
    distinct: DepthSet,
    connected: DepthSet,
    disconnected: DepthSet,
    /// The bound also cuts the core while it is built (proved invisible).
    bounded: bool,
    /// The pattern completed at this node, if any.
    pattern: Option<usize>,
    /// This node's slice of [`Resolved::children`].
    children: Range<usize>,
}

impl Node {
    /// The symmetry bound: the smallest vertex at the bound levels.
    #[inline(always)]
    fn bound(&self, emb: &[VertexId]) -> Option<VertexId> {
        self.bounds.iter().map(|l| emb[l]).min()
    }

    /// Whether `w` is in the embedding at a level it could collide with.
    #[inline(always)]
    fn taken(&self, emb: &[VertexId], w: VertexId) -> bool {
        !self.distinct.is_empty() && self.distinct.iter().any(|l| emb[l] == w)
    }
}

/// The count program as one executor runs it (DESIGN.md §6g): what the
/// task loop ([`run_task`]) would otherwise re-derive per candidate from
/// the config, the prepared graph and the lowered nodes, decided once.
struct Resolved<'g> {
    g: &'g CsrGraph,
    hubs: Option<&'g HubBitmaps>,
    /// The shortest list `hubs` can hold a row for; `usize::MAX` without one.
    hub_min: usize,
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
/// row, and (further) its offsets.
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
                CountRule::PairJoin { leaf }
                | CountRule::Tail { leaf, .. }
                | CountRule::Clique { leaf, .. } => program.nodes[leaf]
                    .pattern_index
                    .expect("a counted branch ends in a pattern leaf"),
            };
            let first_child = children.len();
            children.extend_from_slice(&n.children);
            nodes.push(Node {
                depth: n.depth,
                op,
                count: n.count,
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
        Resolved {
            g: g.graph(),
            hubs: g.hubs(),
            hub_min: g.hubs().map_or(usize::MAX, HubBitmaps::degree_threshold),
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

    /// Whether a count-only run ever calls a set-op kernel (the one reader
    /// of the hub bitmaps) over the nodes it reaches: a pair join or a tail
    /// answers for everything below it, a local clique graph builds its rows
    /// by dispatch, and a `Reuse` or a copy calls none.
    fn dispatches_set_ops(&self) -> bool {
        fn stepped(run: &Resolved<'_>, n: usize) -> bool {
            let node = &run.nodes[n];
            matches!(node.op, Op::Extend { .. } | Op::Pipeline { .. })
                || matches!(node.count, CountRule::Clique { .. })
                || (node.count == CountRule::Enumerate
                    && run.children(node).iter().any(|&c| stepped(run, c)))
        }
        self.children(&self.nodes[0]).iter().any(|&c| stepped(self, c))
    }

    /// The hub row a dispatch against `v`'s `len`-element list can use:
    /// rows exist only for `len ≥ hub_min`, so a short list skips the index.
    #[inline(always)]
    fn hub_row(&self, v: VertexId, len: usize) -> Option<HubRow<'g>> {
        if len >= self.hub_min {
            self.hubs.and_then(|h| h.row(v))
        } else {
            None
        }
    }

    /// Starts the loads the survivors after `list[i]` will wait on: the
    /// CPU's stand-in for the many PEs that hide edge-list latency (§IV).
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

/// A single-threaded, plan-driven mining executor over a prepared graph:
/// the task loop's building block, exposed for benchmarks and differential
/// tests (most callers want [`crate::mine`]).
pub struct Executor<'g> {
    run: Resolved<'g>,
    cfg: EngineConfig,
    state: State<'g>,
}

impl<'g> Executor<'g> {
    /// Creates an executor over `g` (prepared under `cfg`), resolving the
    /// count program, once, into the form the walk runs.
    pub fn new(g: &'g PreparedGraph<'_>, plan: &ExecutionPlan, cfg: &EngineConfig) -> Executor<'g> {
        debug_assert!(cfg.threads >= 1, "threads must be at least 1");
        debug_assert!(
            g.hubs.is_none() || !cfg.paper_faithful,
            "a hub index must not reach a config that excludes probes (paper_faithful)"
        );
        let program = count_program(plan, cfg);
        let state = State::new(program.depth, plan.patterns.len());
        Executor { run: Resolved::new(g, &program, cfg), cfg: *cfg, state }
    }

    /// Records every complete match (pattern index + embedding), for tests
    /// and small listings: every node goes back on enumeration.
    pub fn collect_matches(&mut self) {
        self.run.collect = true;
        for node in &mut self.run.nodes {
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
        let _ = run_task(&self.run, &mut self.state, v, &mut |_| None);
    }

    /// Runs the subtree of `v` inside a panic boundary, retrying up to
    /// [`EngineConfig::max_retries`] times, and returns whether it
    /// completed (`v` then joins `completed`). A panicking attempt rolls
    /// back all its effects and is recorded as a [`Fault`]; a vertex out of
    /// retries is quarantined, which degrades the run, never the job.
    pub fn run_vertex_isolated(&mut self, v: VertexId) -> bool {
        self.run_vertex_until(v, &mut |_| None) == Ok(true)
    }

    /// [`run_vertex_isolated`](Self::run_vertex_isolated), asking `stop`
    /// inside the task whether to go on: a halt is rolled back like a
    /// fault, but records none, leaves `v` off `completed`, and is `Err`.
    /// It undoes the whole task, so the faults of its earlier attempts go
    /// too: the task runs again from its first attempt.
    pub(crate) fn run_vertex_until(&mut self, v: VertexId, stop: Stop<'_>) -> Result<bool, Stint> {
        let faults = self.state.faults.len();
        for attempt in 0..=self.cfg.max_retries {
            match self.run_vertex_attempt(v, attempt, stop) {
                Ok(true) => {
                    self.state.completed.push(v.0);
                    return Ok(true);
                }
                Ok(false) => {}
                Err(halt) => {
                    self.state.faults.truncate(faults);
                    return Err(halt);
                }
            }
        }
        let last = self.state.faults.last().cloned().expect("a failed attempt records a fault");
        self.state.quarantined.push(last);
        Ok(false)
    }

    /// One isolated attempt: panic boundary plus full rollback.
    fn run_vertex_attempt(
        &mut self,
        v: VertexId,
        attempt: u32,
        stop: Stop<'_>,
    ) -> Result<bool, Stint> {
        self.state.counts_before.copy_from_slice(&self.state.counts);
        let work_snapshot = self.state.work;
        let matches_snapshot = self.state.matches.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fail_point!(self.cfg, "start_vertex", v.0 as u64);
            run_task(&self.run, &mut self.state, v, stop)
        }));
        let s = &mut self.state;
        let stopped = match outcome {
            Ok(Ok(())) => return Ok(true),
            Ok(Err(status)) => Some(status),
            Err(payload) => {
                s.faults.push(Fault { vid: v.0, attempt, payload: payload_string(&*payload) });
                None
            }
        };
        s.counts.copy_from_slice(&s.counts_before);
        s.work = work_snapshot;
        s.matches.truncate(matches_snapshot);
        // The count map is the one state a task leaves dirty.
        for w in s.touched.drain(..) {
            s.pair_counts[w.index()] = 0;
        }
        stopped.map_or(Ok(false), Err)
    }

    /// The work kept since the last [`drain_into`](Self::drain_into):
    /// set-op iterations for the budget, and with extensions for timing.
    pub(crate) fn work(&self) -> &WorkCounters {
        &self.state.work
    }

    /// Moves everything accumulated since the last call into `snap`,
    /// leaving zero here; returns how many tasks (completed or
    /// quarantined) moved.
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
    /// the same job gave back, sparing its first pair join the allocation.
    pub(crate) fn adopt_pair_counts(&mut self, map: Vec<u32>) {
        self.state.pair_counts = map;
    }

    /// The count map for the job's next stint: empty, or all zero.
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

    /// Consumes the executor and returns counts and work counters,
    /// [`RunStatus::Degraded`] if a start vertex was quarantined and
    /// [`RunStatus::Complete`] otherwise.
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

/// Runs the task of start vertex `v`: the depth-first walk of Fig. 10 as
/// one loop over a stack of [`Frame`]s, one per enumerating level
/// (DESIGN.md §6g). The top frame steps its next child — an enumerating
/// child is materialized and pushed, any other counted ([`count`]) — or
/// enters its next survivor, or is popped. A stop returns mid-subtree; the
/// caller rolls the task back.
fn run_task<'g>(
    run: &Resolved<'g>,
    s: &mut State<'g>,
    v: VertexId,
    stop: Stop<'_>,
) -> Result<(), Stint> {
    let spent = s.work.setop_iterations;
    s.emb.clear();
    s.frames.clear();
    enter(run, s, &run.nodes[0], v);
    s.frames.push(Frame { node: 0, at: 0, end: 0, child: 0 });
    'walk: while let Some(&Frame { node: n, mut at, end, child }) = s.frames.last() {
        let top = s.frames.len() - 1;
        let (node, kids) = (&run.nodes[n], run.children(&run.nodes[n]));
        if let Some(&c) = kids.get(child) {
            s.frames[top].child = child + 1;
            let kid = &run.nodes[c];
            let enumerates = kid.count == CountRule::Enumerate;
            if enumerates {
                let bound = kid.bound(&s.emb);
                let core = materialize(run, s, kid, bound);
                let end = cut(list(&s.frontiers, core), bound, &mut s.work);
                s.frames.push(Frame { node: c, at: 0, end, child: usize::MAX });
            } else {
                count(run, s, kid, stop, spent)?;
            }
            poll(&mut s.tick, stop, &s.work, spent)?;
            if enumerates || child + 1 < kids.len() {
                continue;
            }
        }
        // No child left under the survivor: leave it for the next one.
        if s.emb.len() > node.depth {
            s.emb.pop();
        }
        let core = list(&s.frontiers, s.cores[node.depth]);
        while at < end {
            let w = core[at];
            at += 1;
            if !kids.is_empty() {
                run.prefetch(core, at - 1);
            }
            if !node.taken(&s.emb, w) {
                s.frames[top] = Frame { node: n, at, end, child: 0 };
                enter(run, s, node, w);
                continue 'walk;
            }
        }
        s.frames.pop();
    }
    Ok(())
}

/// Pushes `w` as the vertex of `node` and counts the pattern it completes.
#[inline(always)]
fn enter(run: &Resolved<'_>, s: &mut State<'_>, node: &Node, w: VertexId) {
    debug_assert_eq!(s.emb.len(), node.depth);
    s.emb.push(w);
    s.work.extensions += 1;
    if let Some(pi) = node.pattern {
        s.counts[pi] += 1;
        if run.collect {
            s.matches.push((pi, s.emb.clone()));
        }
    }
}

/// Counts the subtree below `node`'s candidates without entering one, as
/// the program decided ([`CountRule`]): a pair join, a closed form, or a
/// local clique graph (DESIGN.md §6f).
fn count<'g>(
    run: &Resolved<'g>,
    s: &mut State<'g>,
    node: &Node,
    stop: Stop<'_>,
    spent: u64,
) -> Result<(), Stint> {
    let bound = node.bound(&s.emb);
    let (k, survivors) = match node.count {
        CountRule::Enumerate => unreachable!("an enumerating node is entered, not counted"),
        CountRule::PairJoin { leaf } => {
            let core = materialize(run, s, node, bound);
            pair_join(run, s, node, &run.nodes[leaf], core, bound);
            return Ok(());
        }
        CountRule::Clique { k, .. } => return local_cliques(run, s, node, k, stop, spent),
        CountRule::Tail { k, survivors, .. } => (k, survivors),
    };
    // `m`: how many candidates survive this node's bound and injectivity.
    let m = match survivors {
        // GraphZero's generated code ends in exactly such count loops, and
        // the FlexMiner reducer does the same in hardware: every counter is
        // charged as entering each survivor would.
        Survivors::Scan => {
            let core = materialize(run, s, node, bound);
            let core = list(&s.frontiers, core);
            let below = &core[..cut(core, bound, &mut s.work)];
            below.iter().filter(|&&w| !node.taken(&s.emb, w)).count() as u64
        }
        Survivors::Search => {
            let core = materialize(run, s, node, bound);
            let (_, m) = surviving(list(&s.frontiers, core), bound, node, &s.emb, &mut s.work);
            s.work.candidates_checked += m;
            m
        }
        // How many of the parent's core below the bound are — for a
        // difference, are not — adjacent to the parent's vertex: the
        // dispatcher's kernel into the counting sink, charged as the merge
        // it replaces.
        Survivors::Intersect | Survivors::Difference => {
            fail_point!(run, "frontier_alloc", s.emb[0].0 as u64);
            fail_point!(run, "csr_read", s.emb[0].0 as u64);
            let diff = survivors == Survivors::Difference;
            let (core, v) = (list(&s.frontiers, s.cores[node.depth - 1]), s.emb[node.depth - 1]);
            let before = run.observed.then_some(s.work);
            let prefix = match (diff, bound) {
                (true, Some(b)) => setops::bounded_prefix(core, b, &mut s.work),
                _ => core,
            };
            let adj = run.g.neighbors(v);
            let (hub, ratio) = (run.hub_row(v, adj.len()), run.gallop_ratio);
            let Count(common) =
                setops::intersect(prefix, adj, bound, ratio, hub, Count(0), &mut s.work);
            if let (Some(t), Some(before)) = (s.telemetry.as_deref_mut(), before) {
                t.charge_setops(node.depth, before, s.work);
            }
            let m = if diff { prefix.len() as u64 - common } else { common };
            s.work.candidates_checked += m;
            m
        }
    };
    credit(&mut s.counts, &mut s.work, node.leaf_pattern, choose(m, k));
    Ok(())
}

/// One stage of candidate generation: `cur ∩ N(v)` (`keep`) or `cur \ N(v)`
/// into `out`: the unbounded reference merges under `faithful` (Fig. 9),
/// else the dispatcher with `bound` pushed in.
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
    let hub = run.hub_row(v, adj.len()); // no rows under `faithful`
    match (run.faithful, keep) {
        (true, true) => setops::intersect_into(cur, adj, out, work),
        (true, false) => setops::difference_into(cur, adj, out, work),
        (false, true) => {
            setops::intersect(cur, adj, bound, run.gallop_ratio, hub, out, work);
        }
        (false, false) => {
            setops::difference(cur, adj, bound, hub, out, work);
        }
    }
}

/// Materializes (or locates) the core of `node` into `s.cores[depth]`, and
/// returns it; a `Copy` core is the CSR row itself.
fn materialize<'g>(
    run: &Resolved<'g>,
    s: &mut State<'g>,
    node: &Node,
    bound: Option<VertexId>,
) -> Core<'g> {
    let d = node.depth;
    let before = run.observed.then_some(s.work);
    if node.op != Op::Reuse {
        fail_point!(run, "frontier_alloc", s.emb[0].0 as u64);
        fail_point!(run, "csr_read", s.emb[0].0 as u64);
    }
    let cut = if node.bounded { bound } else { None };
    let core = match node.op {
        Op::Reuse => s.cores[d - 1],
        Op::Copy { ext } => {
            let row = run.g.neighbors(s.emb[ext]);
            Core::Row(match cut {
                Some(b) => setops::bounded_prefix(row, b, &mut s.work),
                None => row,
            })
        }
        Op::Extend { keep } => {
            let mut out = std::mem::take(&mut s.frontiers[d]);
            out.clear();
            let src = list(&s.frontiers, s.cores[d - 1]);
            set_op(run, keep, src, s.emb[d - 1], cut, &mut out, &mut s.work);
            s.frontiers[d] = out;
            Core::Buf(d)
        }
        // The first stage reads the extender's adjacency; every later one
        // reads its predecessor's output, swapped into the scratch.
        Op::Pipeline { ext } => {
            let mut out = std::mem::take(&mut s.frontiers[d]);
            let mut prev = std::mem::take(&mut s.scratch);
            let stages = node.connected.iter().map(|l| (l, true));
            let stages = stages.chain(node.disconnected.iter().map(|l| (l, false)));
            for (i, (l, keep)) in stages.enumerate() {
                std::mem::swap(&mut out, &mut prev);
                out.clear();
                let cur = if i == 0 { run.g.neighbors(s.emb[ext]) } else { &prev[..] };
                set_op(run, keep, cur, s.emb[l], cut, &mut out, &mut s.work);
            }
            s.scratch = prev;
            s.frontiers[d] = out;
            Core::Buf(d)
        }
    };
    s.cores[d] = core;
    // Observed runs: this level's set-op delta, and the new frontier's size.
    if let (Some(t), Some(before)) = (s.telemetry.as_deref_mut(), before) {
        t.charge_setops(d, before, s.work);
        if node.op != Op::Reuse {
            t.record_frontier(list(&s.frontiers, core).len());
        }
    }
    core
}

/// Where `bound` cuts the sorted `core`, charging the walk up to it: one
/// `candidates_checked` per candidate, the one reaching the bound included.
#[inline(always)]
fn cut(core: &[VertexId], bound: Option<VertexId>, work: &mut WorkCounters) -> usize {
    let end = bound.map_or(core.len(), |b| core.partition_point(|&w| w < b));
    work.candidates_checked += (end + usize::from(end < core.len())) as u64;
    end
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
/// Panics when the value does not fit a `u64` (a closed form reaches counts
/// no enumeration could): the task's fault, never a wrapped count.
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
fn credit(counts: &mut [u64], work: &mut WorkCounters, pi: usize, found: u64) {
    counts[pi] = counts[pi].checked_add(found).expect(COUNT_OVERFLOW);
    work.extensions = work.extensions.checked_add(found).expect(COUNT_OVERFLOW);
}

/// The pair join at `x` (DESIGN.md §6f): each unordered pair of `x`'s
/// survivors stands for an (X, Y), and `z`'s candidates below it are the
/// common neighbours that pass `z`'s filters, so one sweep bumping a count
/// map over each survivor's adjacency (up to `z`'s bound) serves all
/// pairs: credit `Σ C(cnt, 2)`, then replay the touched keys to zero it.
/// One `setop_iterations` per streamed element; nothing is dispatched.
fn pair_join(
    run: &Resolved<'_>,
    s: &mut State<'_>,
    x: &Node,
    z: &Node,
    core: Core<'_>,
    bound: Option<VertexId>,
) {
    let State { frontiers, emb, work, pair_counts, touched, counts, telemetry, .. } = s;
    let core = list(frontiers, core);
    let (end, survivors) = surviving(core, bound, x, emb, work);
    work.candidates_checked += end as u64;
    if survivors < 2 {
        return;
    }
    if pair_counts.is_empty() {
        *pair_counts = vec![0; run.g.num_vertices()];
    }
    let z_bound = z.bound(emb);
    let before = run.observed.then_some(*work);
    for &xv in &core[..end] {
        if x.taken(emb, xv) {
            continue;
        }
        fail_point!(run, "csr_read", emb[0].0 as u64);
        let adj = match z_bound {
            Some(b) => setops::bounded_prefix(run.g.neighbors(xv), b, work),
            None => run.g.neighbors(xv),
        };
        work.setop_iterations += adj.len() as u64;
        for &w in adj {
            let cnt = &mut pair_counts[w.index()];
            if *cnt == 0 {
                touched.push(w);
            }
            *cnt += 1;
        }
    }
    if let (Some(t), Some(before)) = (telemetry, before) {
        t.charge_setops(z.depth, before, *work);
    }
    // An embedding vertex `z` may not repeat closes no pair; those its
    // bound excludes were never streamed.
    for l in z.distinct.difference(z.bounds) {
        pair_counts[emb[l].index()] = 0;
    }
    let mut found: u128 = 0;
    for w in touched.drain(..) {
        let cnt = u128::from(std::mem::take(&mut pair_counts[w.index()]));
        found += cnt * cnt.saturating_sub(1) / 2;
    }
    credit(counts, work, x.leaf_pattern, u64::try_from(found).expect(COUNT_OVERFLOW));
}

/// The `(k−1)`-cliques of the DAG `v0`'s out-neighbours `a` (= `v1`'s
/// `core`) induce (DESIGN.md §6f). Row `i` holds, as bits over positions in
/// `a`, `a ∩ out(a[i])`: one ordinary dispatch per row, charged and polled
/// as `v2`'s core always was. Below `v2` every level is a word `AND` of its
/// parent's candidate set with a row, and a popcount. Every candidate of a
/// level is charged as enumeration charges it — entered, or at the leaf
/// credited — and an `AND` one `setop_iterations` per candidate it keeps:
/// never more than the merge it stands for, and enough for a budget to
/// bite. `stop` is polled after every row and every `AND`. At `k = 3` the
/// rows are the leaves: each is only counted, and no bit row is built. An
/// observed run charges rows and search to `v2`'s depth when the search
/// ends, as the pair join its sweep: an attempt stopped inside leaves no
/// depth charge. Out of line and copying `v1`'s core itself, it is one call
/// in the task loop: with that copy inlined there, the triangle read
/// × 1.02–1.09.
#[inline(never)]
fn local_cliques<'g>(
    run: &Resolved<'g>,
    s: &mut State<'g>,
    v1: &Node,
    k: usize,
    stop: Stop<'_>,
    spent: u64,
) -> Result<(), Stint> {
    let core = materialize(run, s, v1, None);
    let State { frontiers, work, counts, telemetry, tick, rows, sets, .. } = s;
    let a = list(frontiers, core);
    let d = cut(a, None, work);
    work.extensions += d as u64;
    if d == 0 {
        return Ok(());
    }
    let before = run.observed.then_some(*work);
    let (mut entered, mut found) = (0, 0);
    if k == 3 {
        for i in 0..d {
            fail_point!(run, "frontier_alloc", s.emb[0].0 as u64);
            fail_point!(run, "csr_read", s.emb[0].0 as u64);
            found += local_row(run, a, i, Count(0), work).0;
            poll(tick, stop, work, spent)?;
        }
    } else {
        let words = d.div_ceil(64);
        rows.clear();
        rows.resize(d * words, 0);
        for (i, row) in rows.chunks_exact_mut(words).enumerate() {
            fail_point!(run, "frontier_alloc", s.emb[0].0 as u64);
            fail_point!(run, "csr_read", s.emb[0].0 as u64);
            local_row(run, a, i, Bits { row }, work);
            entered += row.iter().map(|b| u64::from(b.count_ones())).sum::<u64>();
            poll(tick, stop, work, spent)?;
        }
        sets.clear();
        sets.resize((k - 4) * words, 0);
        let mut local = Local { rows, stop, spent, work, tick, entered, found };
        for cand in rows.chunks_exact(words) {
            match words {
                1 => local.below::<1>(cand, sets, k - 3)?,
                _ => local.below::<0>(cand, sets, k - 3)?,
            }
        }
        (entered, found) = (local.entered, local.found);
    }
    if let (Some(t), Some(before)) = (telemetry.as_deref_mut(), before) {
        t.charge_setops(v1.depth + 1, before, *work);
    }
    work.extensions += entered;
    work.candidates_checked += entered + found;
    credit(counts, work, v1.leaf_pattern, found);
    Ok(())
}

/// Row `i` of a local clique graph, `a ∩ out(a[i])`, into `row`.
#[inline(always)]
fn local_row<S: Sink>(
    run: &Resolved<'_>,
    a: &[VertexId],
    i: usize,
    row: S,
    work: &mut WorkCounters,
) -> S {
    run.prefetch(a, i);
    let adj = run.g.neighbors(a[i]);
    let hub = run.hub_row(a[i], adj.len());
    setops::intersect(a, adj, None, run.gallop_ratio, hub, row, work)
}

/// A set-op sink writing a bit row over the positions in the list `a` the
/// kept vertices come from, which the kernel hands over with each.
struct Bits<'a> {
    row: &'a mut [u64],
}

impl Sink for Bits<'_> {
    #[inline]
    fn push(&mut self, at: usize, _: VertexId) {
        self.row[at / 64] |= 1 << (at % 64);
    }
}

/// One task's search below `v2` of its local clique graph, and what it
/// found so far: candidates entered below `v1`, and leaves.
struct Local<'a, 'b> {
    rows: &'a [u64],
    stop: Stop<'b>,
    spent: u64,
    work: &'a mut WorkCounters,
    tick: &'a mut u32,
    entered: u64,
    found: u64,
}

impl Local<'_, '_> {
    /// Counts below the candidate set `cand` of a level `left` levels above
    /// the leaf, each deeper level's set in the next `words` of `sets`.
    /// `WORDS` is the row width where it is fixed at compile time, else 0:
    /// one search, compiled once more for the common one-word rows.
    fn below<const WORDS: usize>(
        &mut self,
        cand: &[u64],
        sets: &mut [u64],
        left: usize,
    ) -> Result<(), Stint> {
        let words = if WORDS > 0 { WORDS } else { cand.len() };
        let (next, deeper) = sets.split_at_mut(if left > 1 { words } else { 0 });
        for (i, &word) in cand.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let j = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = &self.rows[j * words..(j + 1) * words];
                let mut kept = 0;
                for w in 0..words {
                    let both = cand[w] & row[w];
                    kept += u64::from(both.count_ones());
                    if left > 1 {
                        next[w] = both;
                    }
                }
                self.work.setop_iterations += kept;
                poll(self.tick, self.stop, self.work, self.spent)?;
                if left == 1 {
                    self.found += kept;
                } else {
                    self.entered += kept;
                    if kept > 0 {
                        self.below::<WORDS>(next, deeper, left - 1)?;
                    }
                }
            }
        }
        Ok(())
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
