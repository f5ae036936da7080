//! Durable job recovery: checkpoint snapshots and resume validation.
//!
//! A mining job on production-scale inputs runs for minutes to hours
//! (§VII-D evaluates billion-edge SNAP graphs), and the job-control layer
//! already makes partial results *exact*: counts are bit-for-bit
//! reproducible over the recorded `completed` start-vertex set. This
//! module makes that state survive the process. A [`Checkpoint`] is a
//! versioned binary snapshot of everything needed to continue a run —
//! fingerprints of the inputs, the completed-vertex bitmap, partial
//! counts, work counters, and the fault/quarantine history — written
//! atomically (temp file + fsync + rename) so a crash can never leave a
//! half-written snapshot in place of a good one, and integrity-checked
//! with a CRC32 so a torn or corrupted file is a structured error, never
//! a silently wrong count.
//!
//! # Resume invariants
//!
//! * **Fingerprint gate.** A checkpoint records fingerprints of the data
//!   graph (vertex count, directed edge count, degree checksum), the
//!   execution plan (structural hash over every plan node), and the
//!   count-relevant [`EngineConfig`](crate::EngineConfig) knobs. Resuming
//!   against a different graph, plan, or config fails with
//!   [`CheckpointError::GraphMismatch`] /
//!   [`PlanMismatch`](CheckpointError::PlanMismatch) /
//!   [`ConfigMismatch`](CheckpointError::ConfigMismatch) — never a wrong
//!   count. (Thread count, chunk size, scheduling order, and budgets are
//!   deliberately *excluded*: counts and aggregate work are
//!   order-independent, so a job may resume with a different parallelism.)
//! * **Exactness.** Completed start vertices are skipped on resume and
//!   their contribution is taken from the snapshot; per-vertex counts are
//!   deterministic, so a run interrupted and resumed any number of times
//!   produces counts (and `WorkCounters` totals) bit-identical to an
//!   uninterrupted run. A task stopped inside is not in the snapshot: the
//!   resume runs it whole.
//! * **Quarantine is not forever.** Quarantined vertices are *not* in the
//!   completed bitmap, so a resumed run retries them — a process restart
//!   is the classic cure for environmental faults. Their fault history is
//!   carried forward in [`MiningResult::faults`](crate::MiningResult).
//!
//! Untrusted input discipline: header fields are validated against
//! plausibility bounds before use, list preallocation from declared
//! lengths is capped, and trailing bytes after the checksum are rejected.

use crate::result::{Fault, WorkCounters};
use crate::EngineConfig;
use fm_graph::CsrGraph;
use fm_plan::{ExecutionPlan, Extender, PlanNode};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Magic bytes identifying the binary checkpoint format.
const CKPT_MAGIC: &[u8; 8] = b"FMCKPT\x01\x00";

/// Current format version. Bump on any layout change, and on any change
/// to what the stored work words *mean* (version 5: closed-form leaves
/// charge differently from the enumeration a version-4 file's words
/// recorded, so the two may not be added; version 6: nine work words, the
/// four c-map words of a version-5 body are gone; version 7: eight work
/// words, the SIMD tier's dispatch word is gone); readers reject every
/// other version with [`CheckpointError::UnsupportedVersion`] instead of
/// misparsing or miscounting it.
const CKPT_VERSION: u32 = 7;

/// Elements preallocated up front when reading untrusted length headers:
/// larger lists grow on demand as
/// real data arrives, so a tiny file declaring 2³² faults cannot request
/// gigabytes.
const PREALLOC_CAP: usize = 1 << 20;

/// Plausibility cap on the per-pattern count vector: plans are compiled
/// from at most a few dozen patterns (the k-motif census is the largest
/// stock producer), so anything beyond this is a corrupt header.
const MAX_PATTERNS: usize = 4096;

/// Plausibility cap on one stringified panic payload.
const MAX_PAYLOAD_BYTES: usize = 1 << 16;

/// CRC32 (IEEE 802.3, reflected) over `data`: the checksum of the
/// checkpoint format and of `fm-jobs`' journal records. Bitwise — both
/// payloads are small enough that a table buys nothing.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a, the fingerprint hash. Chosen over `DefaultHasher` because the
/// value is *persisted*: it must be stable across processes, toolchains,
/// and releases, so the algorithm is pinned here.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn raw(&mut self, v: &[u8]) {
        for &b in v {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.raw(v);
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over `data` alone: the fingerprints `fm-jobs`' journal persists.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.raw(data);
    h.finish()
}

/// Identity of a data graph for resume validation: cheap to compute, and
/// any edit that could change counts (added/removed vertex or edge,
/// re-wired adjacency) perturbs at least one component.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GraphFingerprint {
    /// Vertex count.
    pub n: u64,
    /// Directed edge count (CSR adjacency length).
    pub m: u64,
    /// FNV-1a over the degree sequence in vertex order.
    pub degree_checksum: u64,
}

impl GraphFingerprint {
    /// Fingerprints `graph` (the *input* graph, before any plan-driven
    /// orientation — resume re-runs the same preparation).
    pub fn of(graph: &CsrGraph) -> GraphFingerprint {
        let mut h = Fnv::new();
        for v in graph.vertices() {
            h.u64(graph.degree(v) as u64);
        }
        GraphFingerprint {
            n: graph.num_vertices() as u64,
            m: graph.num_directed_edges() as u64,
            degree_checksum: h.finish(),
        }
    }
}

impl fmt::Display for GraphFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} m={} degcrc={:#018x}", self.n, self.m, self.degree_checksum)
    }
}

/// Structural hash of an execution plan: every vertex op, the tree shape,
/// pattern metadata, and the plan-level flags. Two plans with the same
/// fingerprint generate the same per-start-vertex counts.
pub fn plan_fingerprint(plan: &ExecutionPlan) -> u64 {
    fn depthset_bits(s: fm_pattern::DepthSet) -> u64 {
        (0..64).filter(|&d| s.contains(d)).fold(0u64, |acc, d| acc | (1 << d))
    }
    fn node(h: &mut Fnv, n: &PlanNode) {
        h.u64(n.op.depth as u64);
        h.u64(match n.op.extender {
            Extender::Root => u64::MAX,
            Extender::Level(l) => l as u64,
        });
        h.u64(depthset_bits(n.op.upper_bounds));
        h.u64(depthset_bits(n.op.connected));
        h.u64(depthset_bits(n.op.disconnected));
        h.u64(n.op.frontier as u64);
        h.u64(n.pattern_index.map_or(u64::MAX, |i| i as u64));
        h.u64(u64::from(n.cmap_insert));
        h.u64(n.cmap_insert_bound.map_or(u64::MAX, |l| l as u64));
        h.u64(n.children.len() as u64);
        for c in &n.children {
            node(h, c);
        }
    }
    let mut h = Fnv::new();
    h.u64(u64::from(plan.orientation));
    h.u64(u64::from(plan.induced));
    h.u64(u64::from(plan.symmetry));
    h.u64(plan.patterns.len() as u64);
    for p in &plan.patterns {
        h.bytes(p.name.as_bytes());
        h.u64(p.size as u64);
        h.u64(p.automorphisms as u64);
    }
    node(&mut h, &plan.root);
    h.finish()
}

/// Hash of the count- and work-relevant [`EngineConfig`] knobs. Per-vertex
/// *counts* are invariant under every knob (the differential suites prove
/// it), but the resumed run must also reproduce `WorkCounters` totals
/// bit-for-bit, so every knob that steers candidate generation or set-op
/// dispatch participates. Threads, scheduling order, budgets, retries and
/// every telemetry knob
/// ([`TelemetryOptions`](crate::TelemetryOptions)) are excluded: totals
/// are order-independent, a resume may legitimately change them, and
/// telemetry never perturbs counts or work — so turning observability on
/// or off never invalidates a checkpoint.
pub fn config_fingerprint(cfg: &EngineConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(u64::from(cfg.paper_faithful));
    h.u64(cfg.gallop_ratio as u64);
    // Whether the config allows a hub index: the word the index's former
    // on/off flag contributed, so the default and faithful fingerprints
    // (and the checkpoints written under them) are unchanged.
    let hubs = !cfg.paper_faithful && cfg.hub_memory_budget > 0;
    h.u64(u64::from(hubs));
    if hubs {
        h.u64(cfg.hub_degree_threshold as u64);
        h.u64(cfg.hub_memory_budget as u64);
    }
    h.finish()
}

/// A fixed-size bitmap over start-vertex ids, the checkpoint's record of
/// which subtrees are done.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompletedSet {
    nbits: usize,
    words: Vec<u64>,
}

impl CompletedSet {
    /// An empty set over `n` start vertices.
    pub fn new(n: usize) -> CompletedSet {
        CompletedSet { nbits: n, words: vec![0; n.div_ceil(64)] }
    }

    /// Builds the set from a list of completed vids.
    pub fn from_vids(n: usize, vids: &[u32]) -> CompletedSet {
        let mut s = CompletedSet::new(n);
        for &v in vids {
            s.insert(v);
        }
        s
    }

    /// Marks `v` completed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn insert(&mut self, v: u32) {
        assert!((v as usize) < self.nbits, "vid {v} out of range for {} vertices", self.nbits);
        self.words[v as usize / 64] |= 1 << (v % 64);
    }

    /// Whether `v` is completed.
    pub fn contains(&self, v: u32) -> bool {
        (v as usize) < self.nbits && (self.words[v as usize / 64] >> (v % 64)) & 1 == 1
    }

    /// Number of start vertices the set ranges over.
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Number of completed start vertices.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no start vertex is completed.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The completed vids, ascending.
    pub fn to_vids(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push((wi as u32) * 64 + bit);
                w &= w - 1;
            }
        }
        out
    }
}

/// A versioned, integrity-checked snapshot of one mining job's progress.
///
/// The task loop's accumulator ([`JobCore`](crate::JobCore) publishes
/// every finished task into one). [`mine_with`](crate::mine_with) writes
/// it to disk at configurable intervals and on exit
/// ([`MineOptions::checkpoint`](crate::MineOptions)) and continues from
/// one after fingerprint validation
/// ([`MineOptions::resume`](crate::MineOptions)).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Fingerprint of the data graph the job ran on.
    pub graph: GraphFingerprint,
    /// Structural hash of the execution plan ([`plan_fingerprint`]).
    pub plan: u64,
    /// Hash of the count-relevant engine knobs ([`config_fingerprint`]).
    pub config: u64,
    /// Raw per-pattern match counts over the completed start vertices.
    pub counts: Vec<u64>,
    /// Work counters over the completed start vertices.
    pub work: WorkCounters,
    /// Which start vertices are done (their contribution is in `counts`).
    pub completed: CompletedSet,
    /// Every fault attempt recorded so far (including earlier resumed
    /// segments of the same job).
    pub faults: Vec<Fault>,
    /// Start vertices quarantined after exhausting retries. *Not* marked
    /// completed: a resumed run retries them.
    pub quarantined: Vec<Fault>,
}

impl Checkpoint {
    /// An empty snapshot for a job over `graph`/`plan`/`cfg` mining
    /// `patterns` patterns.
    pub fn empty(
        graph: &CsrGraph,
        plan: &ExecutionPlan,
        cfg: &EngineConfig,
        patterns: usize,
    ) -> Checkpoint {
        Checkpoint {
            graph: GraphFingerprint::of(graph),
            plan: plan_fingerprint(plan),
            config: config_fingerprint(cfg),
            ..Checkpoint::unkeyed(graph.num_vertices(), patterns)
        }
    }

    /// An empty snapshot for a run nothing will resume or write out: it
    /// carries no fingerprints (the graph's is a pass over every vertex),
    /// so it validates against no job.
    pub(crate) fn unkeyed(vertices: usize, patterns: usize) -> Checkpoint {
        Checkpoint {
            graph: GraphFingerprint { n: 0, m: 0, degree_checksum: 0 },
            plan: 0,
            config: 0,
            counts: vec![0; patterns],
            work: WorkCounters::default(),
            completed: CompletedSet::new(vertices),
            faults: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Validates this snapshot against the job about to resume. Structured
    /// errors, never a silent wrong count.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::GraphMismatch`], [`CheckpointError::PlanMismatch`],
    /// or [`CheckpointError::ConfigMismatch`] naming both sides.
    pub fn validate(
        &self,
        graph: &CsrGraph,
        plan: &ExecutionPlan,
        cfg: &EngineConfig,
    ) -> Result<(), CheckpointError> {
        let found = GraphFingerprint::of(graph);
        if self.graph != found {
            return Err(CheckpointError::GraphMismatch { expected: self.graph, found });
        }
        let found = plan_fingerprint(plan);
        if self.plan != found {
            return Err(CheckpointError::PlanMismatch { expected: self.plan, found });
        }
        let found = config_fingerprint(cfg);
        if self.config != found {
            return Err(CheckpointError::ConfigMismatch { expected: self.config, found });
        }
        Ok(())
    }

    /// [`validate`](Self::validate)s this snapshot against the job about
    /// to continue from it and returns it ready to seed that job:
    /// completed start vertices will be skipped with their contribution
    /// taken from here, so the final counts are bit-identical to an
    /// uninterrupted run; the fault history (which already includes the
    /// final attempt of every quarantined vertex) carries forward, and a
    /// re-attempt is numbered after it; the quarantine list is dropped
    /// because those vertices are about to be *re-attempted* — a process
    /// restart is the classic cure for environmental faults.
    ///
    /// # Errors
    ///
    /// As [`validate`](Self::validate).
    pub fn resumable(
        self,
        graph: &CsrGraph,
        plan: &ExecutionPlan,
        cfg: &EngineConfig,
    ) -> Result<Checkpoint, CheckpointError> {
        self.validate(graph, plan, cfg)?;
        Ok(Checkpoint { quarantined: Vec::new(), ..self })
    }

    /// Serializes the snapshot (magic, version, payload, CRC32). The
    /// fault lists are written in canonical `(vid, attempt)` order, so the
    /// bytes are a pure function of the logical state — independent of
    /// thread count or worker interleaving.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64 + self.completed.words.len() * 8);
        payload.extend_from_slice(&self.graph.n.to_le_bytes());
        payload.extend_from_slice(&self.graph.m.to_le_bytes());
        payload.extend_from_slice(&self.graph.degree_checksum.to_le_bytes());
        payload.extend_from_slice(&self.plan.to_le_bytes());
        payload.extend_from_slice(&self.config.to_le_bytes());
        payload.extend_from_slice(&(self.counts.len() as u32).to_le_bytes());
        for &c in &self.counts {
            payload.extend_from_slice(&c.to_le_bytes());
        }
        for w in self.work.words() {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        payload.extend_from_slice(&(self.completed.nbits as u64).to_le_bytes());
        for &w in &self.completed.words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        for list in [&self.faults, &self.quarantined] {
            let mut list = list.clone();
            list.sort_unstable_by_key(|f| (f.vid, f.attempt));
            payload.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for f in &list {
                payload.extend_from_slice(&f.vid.to_le_bytes());
                payload.extend_from_slice(&f.attempt.to_le_bytes());
                let msg = &f.payload.as_bytes()[..f.payload.len().min(MAX_PAYLOAD_BYTES)];
                payload.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                payload.extend_from_slice(msg);
            }
        }
        let mut out = Vec::with_capacity(12 + payload.len() + 4);
        out.extend_from_slice(CKPT_MAGIC);
        out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out
    }

    /// Parses a snapshot, validating magic, version, plausibility bounds
    /// on every untrusted length, the CRC32, and the absence of trailing
    /// bytes. Preallocation from declared lengths is capped, so a tiny
    /// hostile file cannot request huge buffers.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadFormat`] (naming the offending field) or
    /// [`CheckpointError::UnsupportedVersion`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let bad = |msg: &str| CheckpointError::BadFormat(msg.to_string());
        if bytes.len() < 12 + 4 {
            return Err(bad("file shorter than the fixed header"));
        }
        if &bytes[..8] != CKPT_MAGIC {
            return Err(bad("bad checkpoint magic"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != CKPT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let payload = &bytes[12..bytes.len() - 4];
        let declared_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if crc32(payload) != declared_crc {
            return Err(bad("payload checksum mismatch (torn or corrupted file)"));
        }
        let mut r = Reader { buf: payload, pos: 0 };
        let graph = GraphFingerprint {
            n: r.u64("graph.n")?,
            m: r.u64("graph.m")?,
            degree_checksum: r.u64("graph.degree_checksum")?,
        };
        // Plausibility bounds: 32-bit id space, simple-graph edge bound.
        if graph.n > u64::from(u32::MAX) + 1 {
            return Err(bad("declared vertex count exceeds the 32-bit id space"));
        }
        if u128::from(graph.m) > u128::from(graph.n) * u128::from(graph.n.saturating_sub(1)) {
            return Err(bad("declared edge count is impossible for the vertex count"));
        }
        let plan = r.u64("plan fingerprint")?;
        let config = r.u64("config fingerprint")?;
        let counts_len = r.u32("counts length")? as usize;
        if counts_len > MAX_PATTERNS {
            return Err(bad("implausible pattern count"));
        }
        let mut counts = Vec::with_capacity(counts_len.min(PREALLOC_CAP));
        for _ in 0..counts_len {
            counts.push(r.u64("count")?);
        }
        let mut work = WorkCounters::default();
        for slot in work.words_mut() {
            *slot = r.u64("work counter")?;
        }
        let nbits64 = r.u64("completed bitmap size")?;
        if nbits64 != graph.n {
            return Err(bad("completed bitmap size disagrees with the graph fingerprint"));
        }
        let nbits = nbits64 as usize;
        let nwords = nbits.div_ceil(64);
        let mut words = Vec::with_capacity(nwords.min(PREALLOC_CAP));
        for _ in 0..nwords {
            words.push(r.u64("completed bitmap word")?);
        }
        if !nbits.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last >> (nbits % 64) != 0 {
                    return Err(bad("completed bitmap has bits beyond the vertex count"));
                }
            }
        }
        let completed = CompletedSet { nbits, words };
        let mut lists = [Vec::new(), Vec::new()];
        for (which, list) in lists.iter_mut().enumerate() {
            let name = if which == 0 { "fault" } else { "quarantine" };
            let len = r.u32("fault list length")? as usize;
            // Retries are bounded per vertex, but history accumulates
            // across resumes; cap against the remaining payload instead of
            // trusting the header (each record is at least 12 bytes).
            if len > r.remaining() / 12 + 1 {
                return Err(bad("fault list longer than the remaining payload"));
            }
            list.reserve(len.min(PREALLOC_CAP));
            for _ in 0..len {
                let vid = r.u32("fault vid")?;
                let attempt = r.u32("fault attempt")?;
                let msg_len = r.u32("fault payload length")? as usize;
                if msg_len > MAX_PAYLOAD_BYTES {
                    return Err(bad("implausible fault payload length"));
                }
                let msg = r.bytes(msg_len, "fault payload")?;
                let payload = String::from_utf8_lossy(msg).into_owned();
                if vid != u32::MAX && u64::from(vid) >= graph.n {
                    return Err(CheckpointError::BadFormat(format!(
                        "{name} vid {vid} out of range for {} vertices",
                        graph.n
                    )));
                }
                list.push(Fault { vid, attempt, payload });
            }
        }
        if r.remaining() != 0 {
            return Err(bad("trailing bytes after the checkpoint payload"));
        }
        let [faults, quarantined] = lists;
        Ok(Checkpoint { graph, plan, config, counts, work, completed, faults, quarantined })
    }

    /// Writes the snapshot durably: serialize to a sibling temp file,
    /// fsync it, atomically rename over `path`, then fsync the parent
    /// directory so the rename itself survives a crash. A reader therefore
    /// sees either the previous complete snapshot or this one — never a
    /// torn mixture.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] describing the failing step.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let io_err = |stage: &str, e: std::io::Error| {
            CheckpointError::Io(format!("{stage} {}: {e}", path.display()))
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io_err("create temp for", e))?;
            f.write_all(&self.encode()).map_err(|e| io_err("write temp for", e))?;
            f.sync_all().map_err(|e| io_err("fsync temp for", e))?;
        }
        fs::rename(&tmp, path).map_err(|e| io_err("rename into", e))?;
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        // Directory fsync is best-effort: some filesystems refuse to open
        // directories, and the rename is already atomic on its own.
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Reads and parses a snapshot previously written by
    /// [`write_atomic`](Self::write_atomic).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read, otherwise any
    /// [`decode`](Self::decode) error.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
    }
}

/// Bounded little-endian reader over an untrusted byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, len: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < len {
            return Err(CheckpointError::BadFormat(format!("truncated payload reading {what}")));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }
    fn u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.bytes(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.bytes(8, what)?.try_into().unwrap()))
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Error from loading, validating, or writing a [`Checkpoint`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckpointError {
    /// Filesystem failure (stage and path included in the message).
    Io(String),
    /// The file is not a valid checkpoint: bad magic, failed plausibility
    /// bound, truncation, checksum mismatch, or trailing garbage.
    BadFormat(String),
    /// The file is a checkpoint of a format version this build does not
    /// understand.
    UnsupportedVersion(u32),
    /// The snapshot was taken against a different data graph.
    GraphMismatch {
        /// Fingerprint recorded in the checkpoint.
        expected: GraphFingerprint,
        /// Fingerprint of the graph supplied to the resume.
        found: GraphFingerprint,
    },
    /// The snapshot was taken against a different execution plan
    /// (different pattern set, matching order, or compile options).
    PlanMismatch {
        /// Plan fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the plan supplied to the resume.
        found: u64,
    },
    /// The snapshot was taken under count-relevant engine knobs that
    /// differ from the resume's (see [`config_fingerprint`]).
    ConfigMismatch {
        /// Config fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the config supplied to the resume.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint io: {msg}"),
            CheckpointError::BadFormat(msg) => write!(f, "invalid checkpoint: {msg}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {CKPT_VERSION})")
            }
            CheckpointError::GraphMismatch { expected, found } => write!(
                f,
                "checkpoint was taken on a different graph (snapshot {expected}, resume {found})"
            ),
            CheckpointError::PlanMismatch { expected, found } => write!(
                f,
                "checkpoint was taken with a different plan (snapshot {expected:#018x}, \
                 resume {found:#018x}); use the same pattern(s) and compile options"
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under different engine knobs (snapshot {expected:#018x}, \
                 resume {found:#018x}); match faithful/dispatch settings or restart"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// When and where periodic checkpoints are written.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointConfig {
    /// Snapshot destination (written atomically; a `.tmp` sibling is used
    /// transiently).
    pub path: PathBuf,
    /// Write after this many completed tasks since the last write.
    /// `0` disables the task-count trigger (wall-clock only).
    pub every_tasks: u64,
    /// Write once this much wall-clock time has passed since the last
    /// write (checked at task boundaries). `None` disables the trigger.
    pub every_wall: Option<Duration>,
}

impl CheckpointConfig {
    /// Checkpoints to `path` with the default cadence: every 256 completed
    /// tasks or every 10 seconds, whichever fires first.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            every_tasks: 256,
            every_wall: Some(Duration::from_secs(10)),
        }
    }
}

/// The durable half of a checkpointed run: when to write the job's
/// snapshot, the atomic write itself, and retry/backoff when it fails.
/// The snapshot is the task loop's own ([`JobCore`](crate::JobCore)
/// publishes into it and calls here under the same lock), so what is
/// written is always a consistent {bitmap, counts, work} triple.
pub(crate) struct CheckpointSink {
    cfg: CheckpointConfig,
    state: Mutex<SinkState>,
}

struct SinkState {
    tasks_since_write: u64,
    last_write: Instant,
    /// Fatal write failure: set only after [`MAX_WRITE_ATTEMPTS`]
    /// *consecutive* attempts failed. Until then failures are transient —
    /// counted, backed off, and retried at the next due interval — and
    /// the run's durability recovers as soon as a write succeeds again.
    error: Option<String>,
    /// Most recent write error (kept so exhaustion reports the latest
    /// cause, not the first).
    last_error: Option<String>,
    /// Total failed write attempts, transient or fatal. Surfaced on the
    /// result as [`MiningResult::checkpoint_failures`](crate::result::MiningResult::checkpoint_failures).
    failed_attempts: u64,
    /// Consecutive failures since the last successful write; resets to 0
    /// on success, trips the fatal `error` at [`MAX_WRITE_ATTEMPTS`].
    consecutive_failures: u64,
    /// Earliest instant the next retry may run (capped exponential
    /// backoff after a failure), so a persistently failing disk is not
    /// hammered once per task.
    retry_at: Option<Instant>,
    /// Span collection for observed runs (`checkpoint-write` spans,
    /// recorded under the lock already held for the write itself — no new
    /// synchronization on any path).
    trace: Option<(fm_telemetry::TraceClock, Vec<fm_telemetry::Span>)>,
}

/// Consecutive failed write attempts before periodic checkpointing gives
/// up for the rest of the run and the error becomes fatal.
pub const MAX_WRITE_ATTEMPTS: u64 = 5;

/// Backoff before the `n`th retry (1-based): 50ms doubling per failure,
/// capped at 2s. Deterministic — retry pacing must not perturb counts.
pub(crate) fn write_backoff(consecutive_failures: u64) -> Duration {
    let base = Duration::from_millis(50);
    let shift = consecutive_failures.saturating_sub(1).min(6) as u32;
    base.saturating_mul(1 << shift).min(Duration::from_secs(2))
}

impl CheckpointSink {
    /// A sink writing per `cfg`. Observed runs pass the run's trace clock
    /// so snapshot writes appear in the trace.
    pub(crate) fn new(
        cfg: CheckpointConfig,
        trace: Option<fm_telemetry::TraceClock>,
    ) -> CheckpointSink {
        CheckpointSink {
            cfg,
            state: Mutex::new(SinkState {
                tasks_since_write: 0,
                last_write: Instant::now(),
                error: None,
                last_error: None,
                failed_attempts: 0,
                consecutive_failures: 0,
                retry_at: None,
                trace: trace.map(|clock| (clock, Vec::new())),
            }),
        }
    }

    /// `tasks` more finished tasks (successful or quarantined) are in
    /// `snap`; writes it if the cadence says so.
    pub(crate) fn published(&self, tasks: u64, snap: &Checkpoint) {
        let mut s = self.state.lock().expect("checkpoint sink poisoned");
        s.tasks_since_write += tasks;
        let due = (self.cfg.every_tasks > 0 && s.tasks_since_write >= self.cfg.every_tasks)
            || self.cfg.every_wall.is_some_and(|w| s.last_write.elapsed() >= w);
        // A failed write does not reset `tasks_since_write`, so once the
        // cadence is due it stays due; the backoff gate alone paces the
        // retries until either a write succeeds or the attempts exhaust.
        let retry_ok = s.retry_at.is_none_or(|at| Instant::now() >= at);
        if due && s.error.is_none() && retry_ok {
            Self::write(&self.cfg.path, snap, &mut s);
        }
    }

    /// Writes `snap` as the final snapshot regardless of cadence or
    /// backoff (run end, any status), then returns the fatal write error
    /// (if retries exhausted) and the total number of failed write
    /// attempts.
    pub(crate) fn finish(&self, snap: &Checkpoint) -> (Option<String>, u64) {
        let mut s = self.state.lock().expect("checkpoint sink poisoned");
        if s.error.is_none() {
            Self::write(&self.cfg.path, snap, &mut s);
        }
        (s.error.clone(), s.failed_attempts)
    }

    /// Takes the collected `checkpoint-write` spans (driver-side, after
    /// [`finish`](Self::finish)).
    pub(crate) fn take_spans(&self) -> Vec<fm_telemetry::Span> {
        let mut s = self.state.lock().expect("checkpoint sink poisoned");
        s.trace.as_mut().map(|(_, spans)| std::mem::take(spans)).unwrap_or_default()
    }

    fn write(path: &Path, snap: &Checkpoint, s: &mut SinkState) {
        let start_us = s.trace.as_ref().map(|(clock, _)| clock.now_us());
        let tasks_covered = s.tasks_since_write;
        match snap.write_atomic(path) {
            Ok(()) => {
                s.tasks_since_write = 0;
                s.last_write = Instant::now();
                s.consecutive_failures = 0;
                s.retry_at = None;
            }
            Err(e) => {
                s.failed_attempts += 1;
                s.consecutive_failures += 1;
                s.last_error = Some(e.to_string());
                if s.consecutive_failures >= MAX_WRITE_ATTEMPTS {
                    // Exhausted: durability is off for the rest of the run
                    // and the latest cause surfaces as the fatal error.
                    s.error = s.last_error.clone();
                } else {
                    s.retry_at = Some(Instant::now() + write_backoff(s.consecutive_failures));
                }
            }
        }
        if let Some((clock, spans)) = &mut s.trace {
            let start = start_us.expect("snapshot taken above when tracing");
            spans.push(fm_telemetry::Span::close(
                clock,
                "checkpoint-write",
                "checkpoint",
                start,
                0,
                Some(("tasks", tasks_covered)),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, CompileOptions};

    fn sample() -> Checkpoint {
        let g = generators::erdos_renyi(50, 0.2, 3);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let mut c = Checkpoint::empty(&g, &plan, &EngineConfig::default(), 1);
        c.counts = vec![41];
        c.work.setop_iterations = 99;
        c.work.probe_dispatches = 7;
        for v in [0u32, 5, 17, 49] {
            c.completed.insert(v);
        }
        c.faults.push(Fault { vid: 9, attempt: 0, payload: "boom".into() });
        c.quarantined.push(Fault { vid: 9, attempt: 2, payload: "boom".into() });
        c
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = sample();
        let back = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(c, back);
        assert_eq!(back.completed.to_vids(), vec![0, 5, 17, 49]);
        assert_eq!(back.completed.len(), 4);
    }

    #[test]
    fn atomic_write_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("fm-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ckpt");
        let c = sample();
        c.write_atomic(&path).unwrap();
        // Overwrite with a newer snapshot: the rename replaces atomically.
        let mut newer = c.clone();
        newer.completed.insert(33);
        newer.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), newer);
        assert!(!path.with_extension("ckpt.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encoding_is_canonical_regardless_of_fault_order() {
        let mut a = sample();
        a.faults.push(Fault { vid: 2, attempt: 0, payload: "x".into() });
        let mut b = a.clone();
        b.faults.reverse();
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(Checkpoint::decode(&bytes).unwrap_err(), CheckpointError::BadFormat(_)));
        let mut bytes = sample().encode();
        bytes[8] = 99;
        // The version is inside the fixed header, not the checksummed
        // payload, so it reports as a version problem, not corruption.
        assert_eq!(
            Checkpoint::decode(&bytes).unwrap_err(),
            CheckpointError::UnsupportedVersion(99)
        );
        // Version 3 bodies carried 17 work words, version 4's 13 were
        // charged by plans that enumerated every leaf, and version 5 still
        // carried the four c-map words: this build must refuse each by
        // number, not misparse one or add up the other.
        for old in [3, 4, 5] {
            bytes[8] = old;
            assert_eq!(
                Checkpoint::decode(&bytes).unwrap_err(),
                CheckpointError::UnsupportedVersion(u32::from(old))
            );
        }
    }

    /// A version-6 body carries nine work words, the last the SIMD tier's
    /// dispatch count: read as eight it would shift every field after the
    /// work block, so it is refused by number.
    #[test]
    fn a_version_6_file_is_refused_by_number() {
        let mut bytes = sample().encode();
        assert_eq!(bytes[8], 7, "this build writes version 7");
        bytes[8] = 6;
        let err = Checkpoint::decode(&bytes).unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion(6));
        assert!(err.to_string().contains("this build reads 7"), "{err}");
    }

    /// ISSUE satellite: corruption, truncation, and huge declared headers
    /// are all structured errors with bounded allocation.
    #[test]
    fn rejects_corruption_truncation_and_huge_headers() {
        // Bit flip anywhere in the payload trips the CRC.
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = Checkpoint::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation at every prefix length: never a panic, never Ok.
        let full = sample().encode();
        for cut in 0..full.len() {
            assert!(Checkpoint::decode(&full[..cut]).is_err(), "prefix {cut} decoded");
        }

        // A forged header declaring 2⁶⁴ vertices (with a fixed-up CRC so
        // the check reaches the plausibility bound) must fail fast rather
        // than allocate terabytes.
        let mut forged = sample().encode();
        forged[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc_at = forged.len() - 4;
        let crc = crc32(&forged[12..crc_at]);
        forged[crc_at..].copy_from_slice(&crc.to_le_bytes());
        let err = Checkpoint::decode(&forged).unwrap_err();
        assert!(err.to_string().contains("vertex count"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        // Garbage after the CRC: the CRC itself still matches the payload
        // only if we keep the original payload bytes — appendix bytes land
        // after the checksum, which shifts the parsed CRC window, so this
        // reads as corruption; either way it must not decode.
        bytes.extend_from_slice(b"extra");
        assert!(Checkpoint::decode(&bytes).is_err());
    }

    #[test]
    fn validate_gates_on_all_three_fingerprints() {
        let g = generators::erdos_renyi(50, 0.2, 3);
        let g2 = generators::erdos_renyi(50, 0.2, 4);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let plan2 = compile(&Pattern::cycle(4), CompileOptions::default());
        let cfg = EngineConfig::default();
        let cfg2 = EngineConfig { hub_memory_budget: 0, ..cfg };
        let c = Checkpoint::empty(&g, &plan, &cfg, 1);
        assert_eq!(c.validate(&g, &plan, &cfg), Ok(()));
        assert!(matches!(c.validate(&g2, &plan, &cfg), Err(CheckpointError::GraphMismatch { .. })));
        assert!(matches!(c.validate(&g, &plan2, &cfg), Err(CheckpointError::PlanMismatch { .. })));
        assert!(matches!(
            c.validate(&g, &plan, &cfg2),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        // Order-irrelevant knobs do NOT invalidate a resume.
        let retuned = EngineConfig { threads: 7, max_retries: 5, ..cfg };
        assert_eq!(c.validate(&g, &plan, &retuned), Ok(()));
    }

    /// Checkpoints written before the hub index lost its on/off flag
    /// still resume: the default and faithful fingerprints are the
    /// literals the flagged config hashed to.
    #[test]
    fn stock_config_fingerprints_are_stable() {
        assert_eq!(config_fingerprint(&EngineConfig::default()), 0xdb29_83af_f930_8e54);
        assert_eq!(config_fingerprint(&EngineConfig::paper_faithful()), 0x4b0b_f31c_7423_bcb4);
    }

    /// ISSUE satellite: transient write failures back off and retry
    /// instead of disabling durability for the rest of the run; only
    /// exhaustion trips the fatal error.
    #[test]
    fn sink_retries_transient_write_failures_with_backoff() {
        let dir = std::env::temp_dir().join(format!("fm-sink-retry-{}", std::process::id()));
        let path = dir.join("job.ckpt"); // parent does not exist yet
        let cfg = CheckpointConfig { path, every_tasks: 1, every_wall: None };
        let sink = CheckpointSink::new(cfg.clone(), None);
        let snap = sample();
        let publish = |sink: &CheckpointSink| sink.published(1, &snap);
        publish(&sink); // first write fails: parent dir missing
        {
            let s = sink.state.lock().unwrap();
            assert_eq!(s.failed_attempts, 1);
            assert_eq!(s.consecutive_failures, 1);
            assert!(s.error.is_none(), "one failure must not be fatal");
            assert!(s.retry_at.is_some(), "a failure schedules a backoff");
        }
        // Inside the backoff window further due publishes do not write.
        publish(&sink);
        assert_eq!(sink.state.lock().unwrap().failed_attempts, 1);
        // Cure the disk, expire the backoff: the next publish recovers.
        fs::create_dir_all(&dir).unwrap();
        sink.state.lock().unwrap().retry_at = Some(Instant::now() - Duration::from_millis(1));
        publish(&sink);
        {
            let s = sink.state.lock().unwrap();
            assert_eq!(s.consecutive_failures, 0, "success resets the streak");
            assert!(s.retry_at.is_none());
        }
        let (err, failures) = sink.finish(&snap);
        assert_eq!(err, None);
        assert_eq!(failures, 1);
        assert!(Checkpoint::load(&cfg.path).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_write_failures_exhaust_to_fatal_after_max_attempts() {
        let dir = std::env::temp_dir().join(format!("fm-sink-fatal-{}", std::process::id()));
        // Never created: every attempt fails.
        let cfg = CheckpointConfig { path: dir.join("job.ckpt"), every_tasks: 1, every_wall: None };
        let sink = CheckpointSink::new(cfg, None);
        let snap = sample();
        for _ in 0..MAX_WRITE_ATTEMPTS {
            // Expire the pacing so each publish is a real attempt.
            sink.state.lock().unwrap().retry_at = None;
            sink.published(1, &snap);
        }
        let (err, failures) = sink.finish(&snap);
        assert_eq!(failures, MAX_WRITE_ATTEMPTS);
        assert!(err.is_some(), "exhausted retries surface the fatal error");
        // Once fatal, publishes stop attempting writes entirely.
        sink.published(1, &snap);
        assert_eq!(sink.finish(&snap).1, MAX_WRITE_ATTEMPTS);
    }

    #[test]
    fn write_backoff_schedule_is_capped_exponential() {
        assert_eq!(write_backoff(1), Duration::from_millis(50));
        assert_eq!(write_backoff(2), Duration::from_millis(100));
        assert_eq!(write_backoff(3), Duration::from_millis(200));
        assert_eq!(write_backoff(6), Duration::from_millis(1600));
        assert_eq!(write_backoff(7), Duration::from_secs(2));
        assert_eq!(write_backoff(1000), Duration::from_secs(2));
    }

    #[test]
    fn completed_set_basics() {
        let mut s = CompletedSet::new(130);
        assert!(s.is_empty());
        for v in [0u32, 63, 64, 129] {
            s.insert(v);
            assert!(s.contains(v));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.to_vids(), vec![0, 63, 64, 129]);
        assert!(!s.contains(1));
        assert!(!s.contains(500));
        assert_eq!(CompletedSet::from_vids(130, &s.to_vids()), s);
        assert_eq!(s.capacity(), 130);
    }

    #[test]
    fn plan_fingerprint_separates_plans_and_options() {
        let t = compile(&Pattern::triangle(), CompileOptions::default());
        let c4 = compile(&Pattern::cycle(4), CompileOptions::default());
        let t_auto = compile(&Pattern::triangle(), CompileOptions::automine());
        assert_ne!(plan_fingerprint(&t), plan_fingerprint(&c4));
        assert_ne!(plan_fingerprint(&t), plan_fingerprint(&t_auto));
        assert_eq!(
            plan_fingerprint(&t),
            plan_fingerprint(&compile(&Pattern::triangle(), CompileOptions::default()))
        );
    }

    #[test]
    fn graph_fingerprint_sees_rewiring() {
        use fm_graph::GraphBuilder;
        // Same n and m, different wiring: the degree checksum must differ.
        let a = GraphBuilder::new().vertices(4).edges([(0, 1), (1, 2), (2, 3)]).build().unwrap();
        let b = GraphBuilder::new().vertices(4).edges([(0, 1), (0, 2), (0, 3)]).build().unwrap();
        let fa = GraphFingerprint::of(&a);
        let fb = GraphFingerprint::of(&b);
        assert_eq!(fa.n, fb.n);
        assert_eq!(fa.m, fb.m);
        assert_ne!(fa.degree_checksum, fb.degree_checksum);
    }
}
