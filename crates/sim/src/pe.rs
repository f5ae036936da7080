//! The processing-element model: an iterative DFS state machine (Fig. 10).
//!
//! "Pattern-aware software solutions use recursion, which is not suitable
//! for direct implementation in hardware. Instead, FlexMiner uses the
//! iterative execution model [...] implemented using a simple finite state
//! machine" (§IV-B). The PE keeps an explicit frame stack: `Enter` frames
//! iterate the children of an extended embedding (the *extender*), `Step`
//! frames stream the candidates of one child op through the *pruner*.
//!
//! Cycle charging:
//!
//! * 1 cycle per pruner candidate (bound + injectivity checks);
//! * banked-probe cycles per c-map access (see [`crate::cmap`]);
//! * 1 merge-loop iteration per cycle in the SIU/SDU (Fig. 9);
//! * memory stalls: full latency for the first missing line of a stream,
//!   bandwidth backpressure for subsequent lines (a streaming prefetch
//!   model), with all queueing resolved by the shared L2/DRAM models.

use crate::addr::{lines, AddressMap};
use crate::cache::SetAssocCache;
use crate::cmap::HwCmap;
use crate::config::{SimConfig, L1_ASSOC, LINE_BYTES, SCHED_LATENCY, SIU_SETUP_CYCLES};
use crate::machine::Scheduler;
use crate::mem::MemorySystem;
use crate::stats::{PeFsmState, PeStats, FSM_EXTENDING, FSM_IDLE, FSM_ITERATING};
use fm_engine::result::WorkCounters;
use fm_engine::setops;
use fm_graph::{CsrGraph, VertexId};
use fm_plan::lowering::Program;
use fm_plan::FrontierHint;

#[derive(Clone, Copy, Debug)]
enum Frame {
    /// An embedding vertex has been pushed for `node`; iterate its
    /// children (plan-tree branches are explored sequentially, §V-D).
    Enter { node: usize, child: usize, did_insert: bool },
    /// Streaming candidates of `node` through the pruner.
    Step { node: usize, cand: usize, len: usize, bound: Option<VertexId>, built: bool },
}

/// The prefix of an ascending list that lies below `bound` (all of it when
/// there is no bound).
fn below(sorted: &[VertexId], bound: Option<VertexId>) -> &[VertexId] {
    match bound {
        Some(b) => &sorted[..sorted.partition_point(|&w| w < b)],
        None => sorted,
    }
}

/// One processing element.
pub(crate) struct Pe {
    id: usize,
    /// Local clock (cycles).
    pub(crate) now: u64,
    /// Whether the PE has drained the task queue.
    pub(crate) done: bool,
    /// Completion time (valid once `done`).
    pub(crate) finish: u64,
    /// The start vertex of the current task, claimed but not yet entered.
    task: Option<u32>,
    stack: Vec<Frame>,
    emb: Vec<VertexId>,
    frontiers: Vec<Vec<VertexId>>,
    core_at: Vec<usize>,
    inserted: Vec<Vec<VertexId>>,
    /// Ping-pong buffers for the intermediate lists of a multi-stage
    /// SIU/SDU fallback merge, kept across calls like the frontiers.
    siu_scratch: [Vec<VertexId>; 2],
    /// Lazy c-map state per level: a compiler-hinted level becomes
    /// *pending* when its vertex is pushed and is only inserted when a
    /// probe first needs it — subtrees that die before any probe never pay
    /// the insertion.
    pending: Vec<Option<(VertexId, Option<VertexId>)>>,
    /// Whether level `d`'s (filtered) neighbors currently sit in the map.
    inserted_ok: Vec<bool>,
    /// Whether level `d` overflowed the occupancy estimate (fall back).
    overflowed: Vec<bool>,
    cmap: HwCmap,
    l1: SetAssocCache,
    noc_rt: u64,
    /// Coarse FSM class currently charged by [`Pe::charge`] (an index
    /// into [`crate::stats::FSM_STATE_NAMES`]); updated at each FSM
    /// dispatch so memory stalls land in the state that incurred them.
    fsm_class: usize,
    pub(crate) counts: Vec<u64>,
    pub(crate) stats: PeStats,
}

impl Pe {
    pub(crate) fn new(id: usize, cfg: &SimConfig, depth: usize, patterns: usize) -> Pe {
        Pe {
            id,
            now: 0,
            done: false,
            finish: 0,
            task: None,
            stack: Vec::with_capacity(2 * depth + 2),
            emb: Vec::with_capacity(depth),
            frontiers: vec![Vec::new(); depth],
            core_at: vec![0; depth],
            inserted: vec![Vec::new(); depth],
            siu_scratch: Default::default(),
            pending: vec![None; depth.max(1)],
            inserted_ok: vec![false; depth.max(1)],
            overflowed: vec![false; depth.max(1)],
            cmap: HwCmap::new(
                if cfg.cmap_enabled() { cfg.cmap_entries() } else { 0 },
                cfg.cmap_banks,
            ),
            l1: SetAssocCache::new(cfg.l1_bytes, L1_ASSOC),
            noc_rt: cfg.noc_round_trip(id),
            fsm_class: FSM_IDLE,
            counts: vec![0; patterns],
            stats: PeStats::default(),
        }
    }

    /// Snapshots this PE's FSM for a watchdog dump.
    pub(crate) fn fsm_state(&self) -> PeFsmState {
        PeFsmState {
            pe: self.id,
            cycle: self.now,
            done: self.done,
            stack_depth: self.stack.len(),
            top_frame: self.stack.last().map(|f| match f {
                Frame::Enter { node, child, .. } => {
                    format!("Enter {{ node {node}, child {child} }}")
                }
                Frame::Step { node, cand, len, .. } => {
                    format!("Step {{ node {node}, candidate {cand}/{len} }}")
                }
            }),
            embedding: self.emb.iter().map(|v| v.0).collect(),
            tasks_claimed: self.stats.tasks,
        }
    }

    #[inline]
    fn charge(&mut self, cycles: u64) {
        self.now += cycles;
        self.stats.busy_cycles += cycles;
        self.stats.occupancy[self.fsm_class] += cycles;
    }

    /// Advances this PE until `deadline` or until it drains the scheduler.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_until(
        &mut self,
        deadline: u64,
        g: &CsrGraph,
        map: &AddressMap,
        prog: &Program,
        shared: &mut MemorySystem,
        sched: &mut Scheduler,
        cfg: &SimConfig,
    ) {
        while self.now < deadline && !self.done {
            if self.stack.is_empty() {
                if let Some(v) = self.task.take() {
                    self.enter(prog, cfg, 0, VertexId(v));
                    continue;
                }
                self.fsm_class = FSM_IDLE;
                match sched.next_task() {
                    Some(v) => {
                        self.task = Some(v);
                        self.stats.tasks += 1;
                        self.charge(SCHED_LATENCY);
                    }
                    None => {
                        self.done = true;
                        self.finish = self.now;
                    }
                }
                continue;
            }
            let top = self.stack.len() - 1;
            match self.stack[top] {
                Frame::Enter { node, child, did_insert } => {
                    self.fsm_class = FSM_EXTENDING;
                    let children = &prog.nodes[node].children;
                    if child < children.len() {
                        let next = children[child];
                        self.stack[top] = Frame::Enter { node, child: child + 1, did_insert };
                        self.stack.push(Frame::Step {
                            node: next,
                            cand: 0,
                            len: 0,
                            bound: None,
                            built: false,
                        });
                        self.charge(1);
                    } else {
                        // Backtrack: unwind c-map entries inserted at this
                        // level, pop the embedding vertex.
                        let d = prog.nodes[node].depth;
                        if did_insert && self.inserted_ok[d] {
                            let cost: u64 = self.inserted[d]
                                .iter()
                                .map(|nb| self.cmap.invalidate(nb.0, d))
                                .sum();
                            self.charge(cost);
                            self.stats.cmap_invalidations += self.inserted[d].len() as u64;
                        }
                        if did_insert {
                            self.pending[d] = None;
                            self.inserted_ok[d] = false;
                            self.overflowed[d] = false;
                        }
                        self.emb.pop();
                        self.stack.pop();
                        self.charge(1);
                    }
                }
                Frame::Step { node, cand, len, bound, built } => {
                    self.fsm_class = FSM_ITERATING;
                    if !built {
                        let (new_len, new_bound) = self.build_core(g, map, prog, shared, cfg, node);
                        // Leaf fast path: at a terminal pattern level the
                        // pruner streams candidates at one per cycle and
                        // the reducer counts the survivors with no stack
                        // traffic (§IV-B: "the reducer increases the local
                        // count").
                        let n = &prog.nodes[node];
                        if let (Some(pi), true) = (n.pattern_index, n.children.is_empty()) {
                            let d = n.depth;
                            let core = self.core_at[d];
                            let mut found = 0u64;
                            let mut streamed = 0u64;
                            for i in 0..new_len {
                                let w = self.frontiers[core][i];
                                streamed += 1;
                                if let Some(b) = new_bound {
                                    if w >= b {
                                        break;
                                    }
                                }
                                if n.injectivity.iter().any(|&l| self.emb[l] == w) {
                                    continue;
                                }
                                found += 1;
                            }
                            self.stats.candidates += streamed;
                            self.charge(streamed + 1);
                            self.counts[pi] += found;
                            self.stats.extensions += found;
                            self.stack.pop();
                            continue;
                        }
                        self.stack[top] = Frame::Step {
                            node,
                            cand: 0,
                            len: new_len,
                            bound: new_bound,
                            built: true,
                        };
                        continue;
                    }
                    if cand >= len {
                        self.stack.pop();
                        self.charge(1);
                        continue;
                    }
                    let d = prog.nodes[node].depth;
                    let w = self.frontiers[self.core_at[d]][cand];
                    self.stack[top] = Frame::Step { node, cand: cand + 1, len, bound, built };
                    self.stats.candidates += 1;
                    self.charge(1);
                    if let Some(b) = bound {
                        if w >= b {
                            // Sorted core: nothing further qualifies.
                            self.stack[top] = Frame::Step { node, cand: len, len, bound, built };
                            continue;
                        }
                    }
                    if prog.nodes[node].injectivity.iter().any(|&l| self.emb[l] == w) {
                        continue;
                    }
                    self.enter(prog, cfg, node, w);
                }
            }
        }
    }

    /// Pushes `w` as the embedding vertex for `node`: reducer update,
    /// compiler-directed c-map insertion, and an `Enter` frame.
    fn enter(&mut self, prog: &Program, cfg: &SimConfig, node_idx: usize, w: VertexId) {
        self.fsm_class = FSM_EXTENDING;
        let node = &prog.nodes[node_idx];
        let d = node.depth;
        debug_assert_eq!(self.emb.len(), d);
        self.emb.push(w);
        self.stats.extensions += 1;
        self.charge(1);
        if let Some(pi) = node.pattern_index {
            self.counts[pi] += 1; // reducer: local counter, single cycle
        }
        let mut did_insert = false;
        if cfg.cmap_enabled() && node.cmap_insert && !node.children.is_empty() {
            // Lazy: record what would be inserted; the first probing op
            // below performs the actual bulk insertion.
            let bound = node.cmap_insert_bound.map(|l| self.emb[l]);
            self.pending[d] = Some((w, bound));
            self.inserted_ok[d] = false;
            self.overflowed[d] = false;
            did_insert = true;
        }
        self.stack.push(Frame::Enter { node: node_idx, child: 0, did_insert });
    }

    /// Ensures level `d`'s connectivity is resident in the c-map,
    /// performing the pending bulk insertion on first use. Returns whether
    /// the level is servable by probes (false on overflow/value-width
    /// fallback, §VI-B).
    fn ensure_level(
        &mut self,
        g: &CsrGraph,
        map: &AddressMap,
        shared: &mut MemorySystem,
        cfg: &SimConfig,
        d: usize,
    ) -> bool {
        if self.inserted_ok[d] {
            return true;
        }
        if self.overflowed[d] {
            return false;
        }
        let Some((w, bound)) = self.pending[d] else {
            return false;
        };
        // The degree is read (offsets array) before fetching the list to
        // estimate the footprint.
        self.read_range(map.offset_addr(w), 16, shared);
        self.charge(1);
        let degree = g.degree(w);
        if d >= cfg.cmap_value_bits
            || self.cmap.would_overflow(degree, cfg.cmap_occupancy_threshold)
        {
            self.stats.cmap_overflows += 1;
            self.overflowed[d] = true;
            return false;
        }
        let (base, bytes) = map.adjacency_range(g, w);
        self.read_range(base, bytes, shared);
        // Sorted adjacency: the compiler's vid filter keeps a prefix.
        let kept = below(g.neighbors(w), bound);
        let cost: u64 = kept.iter().map(|nb| self.cmap.insert(nb.0, d)).sum();
        self.charge(cost);
        self.stats.cmap_writes += kept.len() as u64;
        self.inserted[d].clear();
        self.inserted[d].extend_from_slice(kept);
        self.inserted_ok[d] = true;
        true
    }

    /// Materializes the candidate core for `node` and returns
    /// `(core length, vid bound)`.
    fn build_core(
        &mut self,
        g: &CsrGraph,
        map: &AddressMap,
        prog: &Program,
        shared: &mut MemorySystem,
        cfg: &SimConfig,
        node_idx: usize,
    ) -> (usize, Option<VertexId>) {
        let node = &prog.nodes[node_idx];
        let d = node.depth;
        let bound: Option<VertexId> = node.upper_bounds.iter().map(|&l| self.emb[l]).min();
        let persist = node.children.iter().any(|&c| prog.nodes[c].frontier != FrontierHint::None);
        let has_constraints = !(node.connected.is_empty() && node.disconnected.is_empty());
        let mut cmap_ok = cfg.cmap_enabled() && node.probe;
        if cmap_ok {
            let probe_levels = node.connected.iter().chain(node.disconnected.iter()).copied();
            for l in probe_levels {
                if !self.ensure_level(g, map, shared, cfg, l) {
                    cmap_ok = false;
                    break;
                }
            }
        }
        match node.frontier {
            FrontierHint::Reuse => {
                // Frontier-list table lookup (§IV-A): start address + size.
                self.core_at[d] = self.core_at[d - 1];
                self.charge(1);
            }
            // Stream-and-probe: the pruner streams the extender's edgelist
            // and resolves every connectivity constraint with one c-map
            // probe per candidate (§II-C). Probed levels are shallow, so
            // their insertions amortize across the subtree.
            _ if cmap_ok => {
                let ext = node.extender.expect("constrained ops always have an extender");
                let v = self.emb[ext];
                self.read_range(map.offset_addr(v), 16, shared);
                let (abase, abytes) = map.adjacency_range(g, v);
                self.read_range(abase, abytes, shared);
                let src = below(g.neighbors(v), bound.filter(|_| node.bounded_build));
                // Probes never change occupancy, so one cost covers the
                // stream; a candidate passes iff its bitset has every
                // `connected` level set and every `disconnected` one clear.
                let probes = src.len() as u64;
                self.charge(self.cmap.access_cycles() * probes);
                self.stats.cmap_reads += probes;
                let level_mask = |levels: &[usize]| levels.iter().fold(0u16, |m, &l| m | 1 << l);
                let want = level_mask(&node.connected);
                let care = want | level_mask(&node.disconnected);
                let out = &mut self.frontiers[d];
                out.clear();
                out.extend(src.iter().filter(|w| self.cmap.query(w.0).0 & care == want));
                self.core_at[d] = d;
                if persist {
                    let len = self.frontiers[d].len();
                    let (base, bytes) = AddressMap::frontier_range(self.id, d, len);
                    self.write_range(base, bytes, shared);
                }
            }
            FrontierHint::Extend | FrontierHint::ExtendDiff => {
                let want_connected = node.frontier == FrontierHint::Extend;
                let src = self.core_at[d - 1];
                let src_len = self.frontiers[src].len();
                let (fbase, fbytes) = AddressMap::frontier_range(self.id, src, src_len);
                self.read_range(fbase, fbytes, shared);
                let mut out = std::mem::take(&mut self.frontiers[d]);
                out.clear();
                // SIU/SDU: fetch the new vertex's edgelist and merge
                // against the stored frontier.
                let prev = self.emb[d - 1];
                self.read_range(map.offset_addr(prev), 16, shared);
                let (abase, abytes) = map.adjacency_range(g, prev);
                self.read_range(abase, abytes, shared);
                // The SIU merge FSM (Fig. 9) has no bound port: lists are
                // merged in full; the pruner applies vid bounds while
                // iterating the sorted result.
                let adj = g.neighbors(prev);
                let mut wc = WorkCounters::default();
                if want_connected {
                    setops::intersect_into(&self.frontiers[src], adj, &mut out, &mut wc);
                } else {
                    setops::difference_into(&self.frontiers[src], adj, &mut out, &mut wc);
                }
                self.stats.siu_invocations += wc.setop_invocations;
                self.stats.siu_cycles += wc.setop_iterations;
                self.charge(wc.setop_iterations + SIU_SETUP_CYCLES * wc.setop_invocations);
                self.frontiers[d] = out;
                self.core_at[d] = d;
                if persist {
                    let len = self.frontiers[d].len();
                    let (base, bytes) = AddressMap::frontier_range(self.id, d, len);
                    self.write_range(base, bytes, shared);
                }
            }
            FrontierHint::None => {
                let ext = node.extender.expect("non-root ops always have an extender");
                let v = self.emb[ext];
                self.read_range(map.offset_addr(v), 16, shared);
                let (abase, abytes) = map.adjacency_range(g, v);
                self.read_range(abase, abytes, shared);
                let src = g.neighbors(v);
                let mut out = std::mem::take(&mut self.frontiers[d]);
                out.clear();
                if !has_constraints {
                    out.extend_from_slice(src);
                    // Streamed directly from the cache; the per-candidate
                    // pruner cycle covers iteration.
                } else {
                    // c-map unavailable (disabled, overflowed, or beyond
                    // the value width): SIU/SDU merge pipeline over the
                    // constraint lists.
                    let mut wc = WorkCounters::default();
                    let [mut a, mut b_buf] = std::mem::take(&mut self.siu_scratch);
                    let total = node.connected.len() + node.disconnected.len();
                    let stages = node
                        .connected
                        .iter()
                        .map(|&l| (l, true))
                        .chain(node.disconnected.iter().map(|&l| (l, false)));
                    for (i, (l, is_conn)) in stages.enumerate() {
                        let u = self.emb[l];
                        self.read_range(map.offset_addr(u), 16, shared);
                        let (ubase, ubytes) = map.adjacency_range(g, u);
                        self.read_range(ubase, ubytes, shared);
                        let adj = g.neighbors(u);
                        let last = i + 1 == total;
                        let (cur, dst): (&[VertexId], &mut Vec<VertexId>) = if i == 0 {
                            (src, if last { &mut out } else { &mut a })
                        } else if i % 2 == 1 {
                            (&a, if last { &mut out } else { &mut b_buf })
                        } else {
                            (&b_buf, if last { &mut out } else { &mut a })
                        };
                        dst.clear();
                        if is_conn {
                            setops::intersect_into(cur, adj, dst, &mut wc);
                        } else {
                            setops::difference_into(cur, adj, dst, &mut wc);
                        }
                    }
                    self.siu_scratch = [a, b_buf];
                    self.stats.siu_invocations += wc.setop_invocations;
                    self.stats.siu_cycles += wc.setop_iterations;
                    self.charge(wc.setop_iterations + SIU_SETUP_CYCLES * wc.setop_invocations);
                }
                self.frontiers[d] = out;
                self.core_at[d] = d;
                if persist {
                    let len = self.frontiers[d].len();
                    let (base, bytes) = AddressMap::frontier_range(self.id, d, len);
                    self.write_range(base, bytes, shared);
                }
            }
        }
        (self.frontiers[self.core_at[d]].len(), bound)
    }

    /// Streams `bytes` starting at `base` through the private cache,
    /// charging the first miss's full latency and bandwidth backpressure
    /// for the rest.
    fn read_range(&mut self, base: u64, bytes: usize, shared: &mut MemorySystem) {
        if bytes == 0 {
            return;
        }
        let consume = (LINE_BYTES / 4) as u64;
        let mut first_miss = true;
        for line in lines(base, bytes) {
            self.stats.l1_accesses += 1;
            let res = self.l1.access(line, false);
            if let Some(wb) = res.writeback {
                self.stats.writebacks += 1;
                self.stats.noc_requests += 1;
                shared.writeback(wb);
                self.charge(1);
            }
            if res.hit {
                continue;
            }
            self.stats.l1_misses += 1;
            self.stats.noc_requests += 1;
            let svc = shared.read(line);
            if first_miss {
                self.charge(self.noc_rt + svc.latency);
                first_miss = false;
            } else {
                self.charge(svc.backpressure.saturating_sub(consume));
            }
        }
    }

    /// Writes `bytes` starting at `base` (frontier materialization).
    fn write_range(&mut self, base: u64, bytes: usize, shared: &mut MemorySystem) {
        for line in lines(base, bytes) {
            self.stats.l1_accesses += 1;
            let res = self.l1.access(line, true);
            if let Some(wb) = res.writeback {
                self.stats.writebacks += 1;
                self.stats.noc_requests += 1;
                shared.writeback(wb);
            }
            self.charge(1);
        }
    }
}
