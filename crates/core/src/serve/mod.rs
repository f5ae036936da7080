//! `flexminer serve` — a long-lived mining service over the
//! [`fm_jobs::Supervisor`].
//!
//! The protocol is hand-rolled JSONL (one request object per line, one
//! response object per line) spoken over stdio by default or a unix
//! domain socket with `--socket`. Operations:
//!
//! | op         | fields                                                      | response |
//! |------------|-------------------------------------------------------------|----------|
//! | `submit`   | `pattern`, `graph`, `name?`, `induced?`, `threads?`, `priority?`, `max_attempts?`, `budget?`, `deadline?` | `{"ok":true,"id":N}` or the admission rejection |
//! | `wait`     | `id`                                                        | the job's terminal outcome |
//! | `status`   |                                                             | supervisor gauges |
//! | `metrics`  | `format?` (`prometheus` or `json`)                          | `{"ok":true,"body":...}` |
//! | `cancel`   | `id`                                                        | `{"ok":bool}` |
//! | `subscribe`| `buffer?` (event-queue cap, 0..=65536; 0 is the default)    | ack, then one job event per line until disconnect (socket only) |
//! | `shutdown` |                                                             | `{"ok":true}`, then the process drains |
//!
//! `max_attempts: K` is how often a faulted start-vertex task may run:
//! the engine retries it in place K − 1 times
//! ([`EngineConfig::max_retries`]) before quarantining it. 0 means 1 (a
//! job always gets its first attempt) and the default is 3.
//! `budget` caps the job's set-op iterations and `deadline` gives it a
//! wall-clock allowance in (fractional) seconds; either stops the job,
//! inside a running task too, as an exact partial result with the `count`
//! command's exit-code semantics (4 budget exhausted, 3 deadline exceeded)
//! on the `wait` response and summary line. Both survive a drain in the
//! journaled request; the deadline is re-anchored when the restarted
//! process resubmits the job (the allowance is per attempt — wall time
//! the old process spent does not count against the new one).
//!
//! On SIGTERM/SIGINT (or the `shutdown` op — both arm the same
//! [`fm_jobs::signal`] latch) the supervisor drains every unfinished job
//! to a checkpoint under `--spool` and the journal records where each
//! one's progress is (`--spool DIR` alone journals to `DIR/journal`); a
//! restarted `serve` on the same spool resumes each job under the id its
//! client holds, and its final counts are bit-identical to an
//! uninterrupted run. At exit the process prints one `{"event":"job",...}`
//! summary line per terminal job on stdout, sorted by job name, so
//! restart tooling can diff runs.
//!
//! ## One table, one record
//!
//! Every job is one entry of one map keyed by the id its client holds:
//! live (handle, metadata, whether its end is journaled) or replayed from
//! the journal (name and outcome). What a job reported is one
//! [`fm_jobs::journal::Reported`], from which the `wait` reply, the exit
//! summary line and the journal record are all rendered, so a replayed
//! `wait` is the live one plus `"replayed":true`. This file holds the
//! table and its operations, `wire` the lines, `transport` the loops.
//! A job runs in the supervisor under the id its client holds. The graph
//! cache is the one account of graph memory (DESIGN.md §10).
//!
//! ## Who wakes whom
//!
//! Nothing on a request path sleeps. `wait` blocks on the job's outcome
//! cell and is woken by the worker that resolves it; a `subscribe` stream
//! blocks on its queue and is woken by the publish; the socket's acceptor
//! thread blocks in `accept` and the stdin reader in `read`, and each
//! hands what it gets to the one main loop both transports run
//! (`main_loop`). The only timer is `TICK`: the main loop's
//! `recv_timeout`, and the bound on how long a blocked `wait` or stream
//! goes without looking at the termination latch.
//!
//! ## Crash safety (the journal)
//!
//! `--journal PATH` (or `--spool` alone) keeps a durable append-only job
//! journal ([`fm_jobs::journal`]): every
//! submission is journaled (with a canonical-request fingerprint) before
//! the client gets its response, and every terminal outcome is journaled
//! on the main loop's next tick after the job resolves — two records and
//! two fsyncs a job, one of them ahead of a reply. After a drain or a
//! hard kill (SIGKILL, OOM, power loss) a
//! restart with the same journal replays it: jobs journaled `Finished`
//! answer `wait` from the recorded outcome (fingerprint-validated, marked
//! `"replayed":true`); unresolved jobs are recovered — from a drained
//! checkpoint when one was journaled, otherwise resubmitted from the
//! journaled spec — and converge to the same bit-identical counts as an
//! uninterrupted run. Recovery keeps each job's original id, so a client
//! reconnecting after the restart `wait`s on the id it was given.
//!
//! ## Protocol hardening
//!
//! One bad client must never take the server down: request lines are
//! capped at `--max-request-bytes` (oversized frames get a structured
//! `request too large` reply and the stream resynchronises at the next
//! newline), socket reads idle out after `--idle-timeout` with a
//! structured reply instead of a silent hang, a panic in a request
//! handler is caught and answered as an `internal error` response, and
//! the job-table and graph-cache mutexes recover from poisoning so a
//! panicked handler degrades one request, not the process.

mod transport;
mod wire;

pub use transport::run;
pub use wire::{job_exit_code, status_exit_code};

use crate::graphspec;
use fm_engine::{Checkpoint, EngineConfig};
use fm_graph::{rank_order, CsrGraph, VertexId};
use fm_jobs::journal::{self, Journal, JournalRecord, Replay, Reported};
use fm_jobs::jsonl::{self, Json};
use fm_jobs::{signal, JobHandle, JobObserver, JobOutcome, JobSpec, Supervisor, SupervisorConfig};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, CountRule, ExecutionPlan};
use fm_telemetry::{chrome_trace_json, json, TraceClock, DEFAULT_RECORDER_CAPACITY};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use wire::{canonical_req, err_line, field, int_field, reported, summary_line, wait_line};

/// Default cap on one request line (bytes); `--max-request-bytes`.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;
/// Attempts a faulted task gets when a submit names no `max_attempts`.
const DEFAULT_MAX_ATTEMPTS: u32 = 3;
/// Default per-connection read idle timeout; `--idle-timeout` (0 disables).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);
/// The one timer in `serve`: how long the main loop, a `wait` or an event
/// stream stays blocked before it looks at what cannot wake it — the
/// signal latches and, in the main loop, finished jobs to journal and the
/// idle exit. Nothing a client is waiting for waits for it: a resolved
/// job, a published event, a request line and a new connection each wake
/// their waiter themselves.
const TICK: Duration = Duration::from_millis(20);

/// How `flexminer serve` runs: transport, durability spool, and the
/// supervisor's admission limits.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix-socket path to listen on; `None` speaks JSONL over stdio.
    pub socket: Option<PathBuf>,
    /// Directory for drain checkpoints.
    pub spool: Option<PathBuf>,
    /// Append-only job journal for restart recovery; `None` journals to
    /// `spool/journal` when there is a spool and disables it otherwise.
    pub journal: Option<PathBuf>,
    /// Exit once at least one job was submitted and all jobs resolved.
    pub exit_when_idle: bool,
    /// Largest accepted request line in bytes; longer frames get a
    /// structured `request too large` reply.
    pub max_request_bytes: usize,
    /// Per-connection read idle timeout (socket transport); `None`
    /// disables.
    pub idle_timeout: Option<Duration>,
    /// Chrome-trace JSON written at exit: supervisor lifecycle spans and
    /// per-job engine stint/task spans on one shared timeline. `None`
    /// still records stint-level spans (bounded) but writes nothing.
    pub trace_out: Option<PathBuf>,
    /// Flight-recorder JSONL dump path, written on SIGUSR1, on a handler
    /// panic, and at clean exit; `None` disables the dumps (the in-memory
    /// ring still feeds `subscribe`).
    pub recorder_out: Option<PathBuf>,
    /// Flight-recorder ring capacity in events (last N kept).
    pub recorder_cap: usize,
    /// Bytes of graph the graph cache may hold (`--memory-budget`): each
    /// cached graph is charged its CSR estimate, and a graph that does not
    /// fit beside the ones running jobs hold is refused before it is built.
    pub memory_budget_bytes: u64,
    /// Worker-pool and admission-control limits.
    pub supervisor: SupervisorConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            socket: None,
            spool: None,
            journal: None,
            exit_when_idle: false,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
            trace_out: None,
            recorder_out: None,
            recorder_cap: DEFAULT_RECORDER_CAPACITY,
            memory_budget_bytes: 4 << 30,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Lock acquisition that survives poisoning: a panic in one connection
/// handler (see [`transport::respond`]) must degrade that one request, not
/// wedge every future lock of the job table. The protected state is kept
/// consistent by construction — each critical section either fully
/// applies its update or only reads — so continuing with the inner value
/// is sound; the poison flag is cleared to stop the noise.
fn lock_recover<'a, T>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        eprintln!("serve: {what} lock poisoned by a panicked handler; recovering");
        poisoned.into_inner()
    })
}

/// Hands the free memory a graph load leaves behind back to the OS. A
/// load's freed scratch otherwise stays resident in the loading thread's
/// malloc arena for the life of the server whenever a later allocation
/// pins the arena's top. It still pays with the generators writing their
/// CSR directly: without it, peaks were 10.68 against 10.19 MB on
/// `serve-mix` and 14.53 against 14.35 MB on `serve-small`, higher in
/// 10 of 10 pairs each (EXPERIMENTS.md, "Grow the generated graphs
/// straight into CSR").
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only returns free pages to the OS; live
    // allocations are untouched.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Fixes glibc's mmap threshold at its initial 128 KiB for the life of the
/// server. Left dynamic, freeing a mapped block raises the threshold to
/// that block's size: once a generator's scratch (640 KB on `serve-mix`'s
/// graph) is freed, later allocations between 128 KiB and that size come
/// from the heap, where freed ones stay resident, and `serve-mix`'s peak
/// rose 4–7 % (EXPERIMENTS.md, "Grow the generated graphs straight into
/// CSR").
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes the allocator's tuning, under the
    // allocator's own lock; live allocations are untouched.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

/// Everything needed to report a job and to resubmit it after a drain.
struct JobMeta {
    name: String,
    graph: String,
    pattern: String,
    induced: bool,
    threads: usize,
    priority: i32,
    max_attempts: Option<u32>,
    /// Set-op iteration cap, if the submit carried one.
    budget: Option<u64>,
    /// Wall-clock allowance in seconds, as the client sent it: what the
    /// canonical request journals and a resume replays.
    deadline_secs: Option<f64>,
    /// The same allowance, checked at submit; it becomes an instant only
    /// at admission ([`JobMeta::engine_config`]).
    deadline: Option<Duration>,
    /// Fingerprint of the canonical submit request ([`canonical_req`]);
    /// pinned into the job's submitted, finished and drained records.
    fp: u64,
    /// True when this job was resubmitted by journal replay.
    recovered: bool,
    plan: Arc<ExecutionPlan>,
}

impl JobMeta {
    /// The engine configuration the job runs under. The deadline anchors
    /// here, at admission — like `count`'s `--timeout` anchoring after
    /// graph load — so queue wait counts against it but a drained job
    /// resubmitted on restart gets its full allowance back.
    fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::with_threads(self.threads);
        cfg.budget.max_setop_iterations = self.budget;
        cfg.budget.deadline = self.deadline.and_then(|d| Instant::now().checked_add(d));
        cfg.max_retries = self.max_attempts.unwrap_or(DEFAULT_MAX_ATTEMPTS).saturating_sub(1);
        cfg
    }
}

/// One job of the table, keyed by the id its client holds.
enum Entry {
    /// Submitted to this process's supervisor, under the same id (a job
    /// recovered from the journal under its pre-crash one).
    Live {
        handle: JobHandle,
        meta: Arc<JobMeta>,
        /// Whether the record of its end is in the journal.
        journaled: bool,
    },
    /// Ended before a restart: answered from the journal, never re-run.
    Replayed { name: String, outcome: Reported },
}

impl Entry {
    fn live(&self) -> Option<(&JobHandle, &Arc<JobMeta>)> {
        match self {
            Entry::Live { handle, meta, .. } => Some((handle, meta)),
            Entry::Replayed { .. } => None,
        }
    }
}

/// A graph as jobs mine it: the input as loaded, or its copy renumbered
/// by degree rank ([`rank_order`]) with the input id of each vertex.
#[derive(Clone, Debug)]
struct Loaded {
    graph: Arc<CsrGraph>,
    labels: Option<Arc<[VertexId]>>,
}

/// Whether the jobs of `plan` mine the ranked copy of their graph: one
/// whose count program joins pairs (the 4-cycle), and one that orients
/// (the cliques), whose DAG on the ranked copy is its DAG on the input
/// renumbered — so the cliques and the 4-cycles of a spec share one copy.
/// On the ranked copy a symmetry bound `v < u` is a degree bound, and the
/// join walks the rows of the start vertex's lower-degree neighbours only.
/// The other plans keep the input: they expand the start vertex's own
/// neighbourhood, which ranking makes the largest of the match, and the
/// house, the 5-cycle and the diamond ran 1.3–17× slower on it (DESIGN.md
/// §10a).
fn mines_ranked(plan: &ExecutionPlan) -> bool {
    let program = fm_engine::count_program(plan, &EngineConfig::default());
    let joins = program.nodes.iter().any(|node| matches!(node.count, CountRule::PairJoin { .. }));
    plan.orientation || joins
}

/// What the cache charges a graph: its CSR, twice when a plan orients it
/// ([`graphspec::csr_bytes`]), and a ranked copy's labels, a `u32` each.
fn graph_bytes(vertices: u64, directed_edges: u64, oriented: bool, ranked: bool) -> u64 {
    let labels = if ranked { vertices.saturating_mul(4) } else { 0 };
    graphspec::csr_bytes(vertices, directed_edges, oriented).saturating_add(labels)
}

/// One cached graph — `None` while the submit that missed it loads it (the
/// rest wait on `ServeState::graph_loaded`) — with its charge against the
/// budget ([`graph_bytes`] of the built graph, or of a loading `gen:`
/// spec's bounds) and the cache clock at its last use.
struct Cached {
    graph: Option<Loaded>,
    bytes: u64,
    used: u64,
}

/// The graph cache, keyed by spec and by whether the copy is ranked: the
/// one account of graph memory in `serve`, its charges within the budget.
#[derive(Default)]
struct GraphCache {
    entries: HashMap<(String, bool), Cached>,
    /// `--memory-budget`.
    budget: u64,
    /// Ticks once per lookup.
    clock: u64,
}

impl GraphCache {
    /// What the entries are charged: `memory_bytes` in `status`.
    fn charged(&self) -> u64 {
        self.entries.values().map(|c| c.bytes).sum()
    }

    /// Caches graph `g` under `key` at `bytes`, first evicting graphs no
    /// job holds (only the cache has them), least recently used first.
    /// Refuses the spec, evicting nothing, when what jobs hold and loads
    /// reserve leave too little room anyway.
    fn admit(&mut self, key: &(String, bool), g: Option<Loaded>, bytes: u64) -> Result<(), String> {
        let budget = self.budget;
        let idle = |c: &Cached| c.graph.as_ref().is_some_and(|g| Arc::strong_count(&g.graph) == 1);
        let held: u64 = self.entries.values().filter(|c| !idle(c)).map(|c| c.bytes).sum();
        if held.saturating_add(bytes) > budget {
            let held = (bytes <= budget).then(|| format!(" less {held} B held by other jobs"));
            let held = held.unwrap_or_default();
            let spec = &key.0;
            return Err(format!(
                "graph {spec} needs up to {bytes} B, over the {budget} B memory budget{held}"
            ));
        }
        let mut charged = self.charged();
        while charged + bytes > budget {
            let lru = self.entries.iter().filter(|(_, c)| idle(c)).min_by_key(|(_, c)| c.used);
            let lru = lru.map(|(key, _)| key.clone()).expect("idle graphs cover the excess");
            charged -= self.entries.remove(&lru).map_or(0, |c| c.bytes);
        }
        self.entries.insert(key.clone(), Cached { graph: g, bytes, used: self.clock });
        Ok(())
    }

    /// Raises cached graph `g`'s charge to `bytes`, admitting the whole of
    /// it as [`admit`](Self::admit) would a load; refused, the entry keeps
    /// its old charge.
    fn recharge(&mut self, key: &(String, bool), g: Loaded, bytes: u64) -> Result<Loaded, String> {
        let old = self.entries.remove(key).expect("a cached graph is recharged");
        match self.admit(key, Some(g.clone()), bytes) {
            Ok(()) => Ok(g),
            Err(e) => {
                self.entries.insert(key.clone(), old);
                Err(e)
            }
        }
    }
}

#[derive(Default)]
struct JournalGauges {
    /// Records in the journal: replayed at startup + appended since.
    records: AtomicU64,
    /// Records replayed at startup.
    replayed: AtomicU64,
    /// Torn-tail bytes discarded at startup.
    truncated_bytes: AtomicU64,
    /// Unresolved jobs resubmitted by replay.
    recovered_jobs: AtomicU64,
}

impl JournalGauges {
    /// Every gauge as `(key, metric name, metric help, value)`: the one
    /// list behind `status` (`journal_<key>`), both metrics exporters and
    /// the exit summary (`<key>`), so all three surface durability state.
    fn list(&self) -> [(&'static str, &'static str, &'static str, u64); 4] {
        let read = |gauge: &AtomicU64| gauge.load(Ordering::SeqCst);
        [
            (
                "records",
                "fm_journal_records",
                "Records in the job journal (replayed at startup plus appended since)",
                read(&self.records),
            ),
            (
                "replayed",
                "fm_journal_replayed",
                "Journal records replayed at startup",
                read(&self.replayed),
            ),
            (
                "truncated_bytes",
                "fm_journal_truncated",
                "Torn-tail bytes discarded by journal recovery at startup",
                read(&self.truncated_bytes),
            ),
            (
                "recovered_jobs",
                "fm_journal_recovered_jobs",
                "Unresolved journaled jobs resubmitted at startup",
                read(&self.recovered_jobs),
            ),
        ]
    }
}

struct ServeState {
    cfg: ServeConfig,
    sup: Supervisor,
    /// Shared observability sink: the one `TraceClock` origin, the event
    /// bus behind `subscribe` and the flight recorder, job latency
    /// histograms, and the span rings merged into `--trace-out`.
    obs: Arc<JobObserver>,
    /// Serve start, for the `uptime_seconds` status/metrics field.
    started: Instant,
    /// Every job, live or replayed, keyed by the id its client holds.
    jobs: Mutex<BTreeMap<u64, Entry>>,
    graphs: Mutex<GraphCache>,
    /// Notified whenever a loading entry of the graph cache is settled.
    graph_loaded: Condvar,
    /// Notified by every socket connection thread as it ends (the mutex
    /// guards nothing): what the acceptor waits for after a failed
    /// `accept`, which is nearly always the descriptor limit.
    conn_closed: (Mutex<()>, Condvar),
    journal: Option<Mutex<Journal>>,
    gauges: JournalGauges,
    submitted_any: AtomicBool,
}

impl ServeState {
    /// Builds the state, opening (and torn-tail-recovering) the journal
    /// when one is configured, and returns it with the journal's folded
    /// contents (empty without one) for [`ServeState::recover`]. Fails
    /// only on journal-level problems a human must resolve: an unreadable
    /// path, a foreign file, a future format version.
    fn new(mut cfg: ServeConfig) -> Result<(ServeState, Replay), String> {
        // A spool's drains come back through the journal's records.
        cfg.journal = cfg.journal.or_else(|| cfg.spool.as_ref().map(|dir| dir.join("journal")));
        // One clock origin for the whole session: supervisor lifecycle
        // spans and per-job engine spans land on one Perfetto timeline.
        let obs = Arc::new(JobObserver::new(
            TraceClock::start(),
            cfg.recorder_cap,
            cfg.trace_out.is_some(),
        ));
        let sup = Supervisor::with_observer(cfg.supervisor.clone(), Some(Arc::clone(&obs)));
        let graphs = GraphCache { budget: cfg.memory_budget_bytes, ..Default::default() };
        let mut journal_handle = None;
        let mut replay = Replay::default();
        let gauges = JournalGauges::default();
        if let Some(path) = cfg.journal.as_ref() {
            let (journal, scan) =
                Journal::open(path).map_err(|e| format!("journal {}: {e}", path.display()))?;
            if scan.truncated_bytes > 0 {
                eprintln!(
                    "journal: discarded {} torn trailing bytes (crash mid-append)",
                    scan.truncated_bytes
                );
            }
            gauges.records.store(scan.records.len() as u64, Ordering::SeqCst);
            gauges.replayed.store(scan.records.len() as u64, Ordering::SeqCst);
            gauges.truncated_bytes.store(scan.truncated_bytes, Ordering::SeqCst);
            replay = journal::fold(&scan.records);
            journal_handle = Some(Mutex::new(journal));
        }
        let state = ServeState {
            cfg,
            sup,
            obs,
            started: Instant::now(),
            jobs: Mutex::new(BTreeMap::new()),
            graphs: Mutex::new(graphs),
            graph_loaded: Condvar::new(),
            conn_closed: (Mutex::new(()), Condvar::new()),
            journal: journal_handle,
            gauges,
            submitted_any: AtomicBool::new(false),
        };
        Ok((state, replay))
    }

    fn jobs_all_resolved(&self) -> bool {
        let jobs = lock_recover(&self.jobs, "job table");
        jobs.values().filter_map(Entry::live).all(|(handle, _)| handle.is_resolved())
    }

    /// Blocks until the oldest unresolved job resolves, or a [`TICK`].
    fn wait_for_a_job(&self) {
        let pending = lock_recover(&self.jobs, "job table")
            .values()
            .filter_map(Entry::live)
            .find(|(handle, _)| !handle.is_resolved())
            .map(|(handle, _)| handle.clone());
        if let Some(handle) = pending {
            handle.wait_timeout(TICK);
        }
    }

    /// The cached graph for `spec` — its ranked copy when `ranked` — loading
    /// it with `load` (in `serve`, [`graphspec::load`]) and ranking it on a
    /// miss, and charging it as a plan that does (or does not) orient it
    /// would hold it. An orienting plan that hits a copy loaded by one that
    /// does not raises its charge to include the oriented copy, admitted
    /// as a load is; each concurrent orienting job still builds a copy of
    /// its own, charged once. Single-flight: of any number of concurrent submits of
    /// one never-seen spec, one loads (outside the lock — file parses and
    /// generators can be slow) and the rest wait for it. A `gen:` spec
    /// reserves its bound before it is generated — for a ranked copy, two
    /// CSRs and the labels, what ranking holds at once — and is refused,
    /// unbuilt, when that does not fit; a file is charged once read. A
    /// failed or refused load is not cached; the next caller tries again.
    fn graph_for(
        &self,
        spec: &str,
        oriented: bool,
        ranked: bool,
        load: impl FnOnce(&str) -> Result<CsrGraph, String>,
    ) -> Result<Loaded, String> {
        let key = (spec.to_string(), ranked);
        let mut cache = lock_recover(&self.graphs, "graph cache");
        loop {
            cache.clock += 1;
            let now = cache.clock;
            match cache.entries.get_mut(&key) {
                Some(Cached { graph: Some(g), used, bytes }) => {
                    *used = now;
                    let g = g.clone();
                    let (vertices, edges) =
                        (g.graph.num_vertices() as u64, g.graph.num_directed_edges() as u64);
                    let full = graph_bytes(vertices, edges, true, ranked);
                    if oriented && *bytes < full {
                        return cache.recharge(&key, g, full);
                    }
                    return Ok(g);
                }
                Some(_) => cache = self.graph_loaded.wait(cache).unwrap_or_else(|e| e.into_inner()),
                None => break,
            }
        }
        let reserve = match spec.strip_prefix("gen:") {
            Some(gen) => {
                let (vertices, edges) = graphspec::GenSpec::parse(gen)?.bounds();
                graph_bytes(vertices, edges, oriented || ranked, ranked)
            }
            None => 0,
        };
        cache.admit(&key, None, reserve)?;
        drop(cache);
        // A panicking load must not leave its reservation behind for every
        // later submit of this spec to wait on. A ranked copy's input is
        // dropped once ranked, before the free memory is released.
        let loaded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let input = load(spec)?;
            Ok::<_, String>(if ranked {
                let (graph, labels) = rank_order(&input);
                Loaded { graph: Arc::new(graph), labels: Some(labels.into()) }
            } else {
                Loaded { graph: Arc::new(input), labels: None }
            })
        }));
        release_free_memory();
        let mut cache = lock_recover(&self.graphs, "graph cache");
        cache.entries.remove(&key);
        let cached = loaded.map(|loaded| {
            let g = loaded?;
            let (vertices, edges) =
                (g.graph.num_vertices() as u64, g.graph.num_directed_edges() as u64);
            let bytes = graph_bytes(vertices, edges, oriented, ranked);
            cache.admit(&key, Some(g.clone()), bytes).map(|()| g)
        });
        drop(cache);
        self.graph_loaded.notify_all();
        cached.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Appends one record, making it durable before the caller answers
    /// the client. Append failures are logged and absorbed: the server
    /// keeps serving (that record simply is not durable), mirroring the
    /// engine's checkpoint-sink policy of never failing the run for
    /// durability.
    fn journal_append(&self, record: &JournalRecord) {
        let Some(journal) = &self.journal else { return };
        let t0 = Instant::now();
        let appended = lock_recover(journal, "journal").append(record);
        // Append latency includes the sync_data that makes the record
        // durable — the fsync histogram is the serve loop's disk pulse.
        self.obs.record_journal_fsync(t0.elapsed().as_micros() as u64);
        match appended {
            Ok(()) => {
                self.gauges.records.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => eprintln!("journal: append failed, record not durable: {e}"),
        }
    }

    /// Journals the end of every resolved live job whose end is not
    /// journaled yet. Called from the main loop (cheap when idle: an
    /// unresolved job has no outcome to copy) and from `finish` after the
    /// drain — the only two callers, one after the other, so marking an
    /// entry before its append, outside the table lock, races nothing.
    fn journal_tick(&self) {
        if self.journal.is_none() {
            return;
        }
        let pending: Vec<JournalRecord> = lock_recover(&self.jobs, "job table")
            .iter_mut()
            .filter_map(|(&id, entry)| {
                let Entry::Live { handle, meta, journaled: journaled @ false } = entry else {
                    return None;
                };
                let outcome = reported(meta, &handle.try_outcome()?);
                *journaled = true;
                Some(JournalRecord::Outcome { id, fp: meta.fp, outcome })
            })
            .collect();
        for record in &pending {
            self.journal_append(record);
        }
    }

    /// Dumps the flight-recorder ring (last N job events) as JSONL to
    /// `--recorder-out`. Called on SIGUSR1, on a caught handler panic,
    /// and at clean exit; a no-op without a configured path. Each dump
    /// overwrites the previous one — the newest state is what a
    /// post-mortem wants.
    fn recorder_dump(&self, reason: &str) {
        let Some(path) = self.cfg.recorder_out.as_ref() else { return };
        let body = self.obs.bus().recorder_dump(reason);
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("recorder: dumped to {} ({reason})", path.display()),
            Err(e) => eprintln!("recorder: dump to {} failed: {e}", path.display()),
        }
    }

    /// Writes the merged Chrome trace (supervisor lifecycle spans +
    /// per-job engine spans, one shared clock) to `--trace-out`.
    fn write_trace(&self) {
        let Some(path) = self.cfg.trace_out.as_ref() else { return };
        let (spans, dropped) = self.obs.take_spans();
        if dropped > 0 {
            eprintln!("trace: {dropped} spans dropped by full rings");
        }
        let body = chrome_trace_json("flexminer-serve", &spans, &[]);
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("trace: wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("trace: write to {} failed: {e}", path.display()),
        }
    }

    /// Parses and submits one job; `resume` carries a drain checkpoint on
    /// restart and `recover_id` the pre-crash journal id when replay is
    /// resubmitting (so the client-visible id survives the crash and no
    /// duplicate `Submitted` record is written). Returns the response
    /// line, or the error to answer with.
    fn submit(
        &self,
        req: &Json,
        resume: Option<Checkpoint>,
        recover_id: Option<u64>,
    ) -> Result<String, String> {
        let pattern_spec =
            req.get("pattern").and_then(Json::as_str).ok_or("submit needs a pattern")?;
        let graph_spec = req.get("graph").and_then(Json::as_str).ok_or("submit needs a graph")?;
        let induced = field(req, "induced", "a boolean", Json::as_bool)?.unwrap_or(false);
        let threads = int_field(req, "threads", 1usize..=65536)?.unwrap_or(1);
        let priority = int_field(req, "priority", i32::MIN..=i32::MAX)?.unwrap_or(0);
        // 0 is admitted (older journals may hold it) and means 1.
        let max_attempts = int_field(req, "max_attempts", 0..=u32::MAX)?;
        let budget = int_field(req, "budget", 0..=u64::MAX)?;
        let deadline_secs = field(req, "deadline", "a number of seconds", Json::as_f64)?;
        let deadline = match deadline_secs {
            Some(s) if s <= 0.0 => {
                return Err(format!("deadline must be a positive number of seconds, got {s}"));
            }
            Some(s) => Some(
                Duration::try_from_secs_f64(s)
                    .map_err(|_| format!("deadline must be below 2^64 seconds, got {s}"))?,
            ),
            None => None,
        };
        let pattern: Pattern =
            pattern_spec.parse().map_err(|e| format!("bad pattern {pattern_spec:?}: {e}"))?;
        let plan = Arc::new(compile(&pattern, CompileOptions { induced, ..Default::default() }));
        let ranked = mines_ranked(&plan);
        let Loaded { graph, labels } =
            self.graph_for(graph_spec, plan.orientation, ranked, graphspec::load)?;
        let name = field(req, "name", "a string", Json::as_str)?
            .map(str::to_string)
            .unwrap_or_else(|| format!("{pattern_spec}@{graph_spec}"));
        let mut meta = JobMeta {
            name: name.clone(),
            graph: graph_spec.to_string(),
            pattern: pattern_spec.to_string(),
            induced,
            threads,
            priority,
            max_attempts,
            budget,
            deadline_secs,
            deadline,
            fp: 0,
            recovered: recover_id.is_some(),
            plan: Arc::clone(&plan),
        };
        // Fingerprint the *canonical* request (defaults materialised, keys
        // sorted): replaying the journaled canonical form reproduces the
        // same bytes, so the fingerprint links a job's records across
        // restarts.
        let canon = canonical_req(&meta);
        meta.fp = journal::fnv64(canon.to_jsonl().as_bytes());
        // A request whose canonical `Submitted` record would exceed the
        // journal cap can never be made durable (`append` refuses it), so
        // a crash would forget the job despite the client holding an id.
        // Refuse admission up front instead — probing with the widest
        // possible id bounds the encoded length from above. Only reachable
        // when `--max-request-bytes` is raised past the journal cap.
        if self.journal.is_some() {
            let probe = JournalRecord::Submitted { id: u64::MAX, fp: meta.fp, req: canon.clone() };
            let bytes = probe.encode().len();
            if bytes > journal::MAX_RECORD_BYTES {
                return Err(format!(
                    "request too large to journal ({bytes} bytes exceeds the {}-byte record cap)",
                    journal::MAX_RECORD_BYTES
                ));
            }
        }
        // A drained checkpoint of another graph — one an older build wrote
        // before this job's graph was ranked — would be refused at
        // admission, leaving the client an id that never runs: such a job
        // starts over instead.
        let config = meta.engine_config();
        let resume = resume.and_then(|checkpoint| {
            checkpoint
                .resumable(&graph, &plan, &config)
                .map_err(|e| {
                    let id = recover_id.unwrap_or_default();
                    eprintln!("journal: job {id} cannot resume ({e}); it restarts from scratch");
                })
                .ok()
        });
        // The supervisor gives a fresh job its id; a recovered one keeps the
        // id its pre-crash client was given.
        let spec = JobSpec {
            priority,
            id: recover_id,
            resume,
            labels,
            ..JobSpec::new(name, graph, plan, config)
        };
        let handle = self.sup.submit(spec);
        let id = handle.id();
        self.submitted_any.store(true, Ordering::SeqCst);
        if recover_id.is_none() {
            // Journal the acceptance *before* answering the client: once a
            // client holds an id, a crash must not forget the job. (The
            // old `Submitted` record already covers a recovered job — no
            // duplicate, so a crash during recovery replays it again.)
            self.journal_append(&JournalRecord::Submitted { id, fp: meta.fp, req: canon });
        }
        // Admission rejections resolve synchronously inside `submit`;
        // surface them on the response instead of making callers wait.
        let (line, journaled) = match handle.try_outcome() {
            Some(JobOutcome::Rejected { reason }) => {
                let line = json::object(|o| {
                    o.bool("ok", false).u64("id", id).str("outcome", "rejected");
                    o.i64("exit_code", 8).str("error", &reason);
                });
                let outcome = Reported::Rejected { reason };
                self.journal_append(&JournalRecord::Outcome { id, fp: meta.fp, outcome });
                (line, true)
            }
            _ => {
                let line = json::object(|o| {
                    o.bool("ok", true).u64("id", id).str("name", handle.name());
                });
                (line, false)
            }
        };
        let entry = Entry::Live { handle, meta: Arc::new(meta), journaled };
        lock_recover(&self.jobs, "job table").insert(id, entry);
        Ok(line)
    }

    /// One request line in, one response line out.
    fn handle_line(&self, line: &str) -> String {
        let req = match jsonl::parse(line) {
            Ok(v) => v,
            Err(e) => return err_line(&format!("bad request: {e}")),
        };
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return err_line("missing op");
        };
        match op {
            "submit" => self.submit(&req, None, None).unwrap_or_else(|e| err_line(&e)),
            "wait" => self.wait(&req),
            "status" => self.status(),
            "metrics" => self.metrics(&req),
            "cancel" => match req.get("id").and_then(Json::as_u64) {
                Some(id) => {
                    let ok = self.sup.cancel(id);
                    if ok {
                        let outcome = Reported::Cancelled;
                        self.journal_append(&JournalRecord::Outcome { id, fp: 0, outcome });
                    }
                    json::object(|o| {
                        o.bool("ok", ok);
                    })
                }
                None => err_line("cancel needs an id"),
            },
            "shutdown" => {
                signal::request_termination();
                json::object(|o| {
                    o.bool("ok", true);
                })
            }
            // Streaming subscriptions are handled by the socket transport
            // (`serve_connection` takes over the stream before `respond`);
            // reaching here means stdio or an in-process caller.
            "subscribe" => err_line("subscribe requires the socket transport"),
            // Fault-injection op for the poison-recovery tests: panics
            // *while holding the job-table lock*, poisoning it the way a
            // real handler bug would. Gated behind an env var so ordinary
            // deployments don't expose it.
            "debug-panic" if std::env::var_os("FM_SERVE_DEBUG_OPS").is_some() => {
                let _jobs = lock_recover(&self.jobs, "job table");
                panic!("debug-panic: injected connection-handler fault");
            }
            other => err_line(&format!("unknown op {other}")),
        }
    }

    /// Blocks until the job's terminal outcome: the supervisor resolving
    /// the job is what wakes this, so the reply leaves as soon as there
    /// is one. Each [`TICK`] without an outcome it looks at the
    /// termination latch, which on stdio — where this call is the main
    /// loop — nothing else could see; on the socket the drain resolves the
    /// job `drained` under the waiter. A job that ended before a restart
    /// answers from the journal, marked `"replayed":true`.
    fn wait(&self, req: &Json) -> String {
        let Some(id) = req.get("id").and_then(Json::as_u64) else {
            return err_line("wait needs an id");
        };
        let (handle, meta) = match lock_recover(&self.jobs, "job table").get(&id) {
            None => return err_line("unknown job id"),
            Some(Entry::Replayed { name, outcome }) => return wait_line(id, name, outcome, true),
            Some(Entry::Live { handle, meta, .. }) => (handle.clone(), Arc::clone(meta)),
        };
        loop {
            if let Some(outcome) = handle.wait_timeout(TICK) {
                return wait_line(id, &meta.name, &reported(&meta, &outcome), false);
            }
            if signal::termination_requested() {
                return err_line("terminating");
            }
        }
    }

    fn status(&self) -> String {
        let s = self.sup.stats();
        json::object(|o| {
            o.bool("ok", true).u64("submitted", s.submitted).u64("rejected", s.rejected);
            o.u64("preempted", s.preempted).u64("completed", s.completed);
            o.u64("drained", s.drained).u64("queued", s.queued);
            // Per-priority queue depths, priorities ascending.
            o.obj("queued_by_priority", |o| {
                for (priority, depth) in &s.queued_by_priority {
                    o.u64(&priority.to_string(), *depth);
                }
            });
            o.u64("running", s.running).u64("memory_bytes", self.memory_bytes());
            o.u64("memory_budget_bytes", self.cfg.memory_budget_bytes);
            o.u64("uptime_seconds", self.started.elapsed().as_secs());
            o.u64("events_published", self.obs.bus().published());
            o.u64("events_dropped", self.obs.bus().dropped_total());
            for (key, _, _, value) in self.gauges.list() {
                o.u64(&format!("journal_{key}"), value);
            }
        })
    }

    fn memory_bytes(&self) -> u64 {
        lock_recover(&self.graphs, "graph cache").charged()
    }

    fn metrics(&self, req: &Json) -> String {
        let mut doc = self.sup.metrics();
        let help = "Graph memory charged against the admission budget";
        doc.gauge("fm_jobs_memory_bytes", help, self.memory_bytes() as f64);
        let budget = self.cfg.memory_budget_bytes as f64;
        doc.gauge("fm_jobs_memory_budget_bytes", "Admission-control memory budget", budget);
        doc.gauge(
            "fm_serve_uptime_seconds",
            "Seconds since the serve process started",
            self.started.elapsed().as_secs_f64(),
        );
        self.obs.metrics_into(&mut doc);
        for (_, metric, help, value) in self.gauges.list() {
            doc.gauge(metric, help, value as f64);
        }
        let prometheus = req.get("format").and_then(Json::as_str) == Some("prometheus");
        json::object(|o| {
            o.bool("ok", true);
            if prometheus {
                o.str("body", &doc.to_prometheus());
            } else {
                doc.write_json(o.field("body"));
            }
        })
    }

    /// Replays the journal folded by `new`: a job whose end was journaled
    /// enters the table as replayed (post-restart `wait` answers from the
    /// record — never a recomputation, never a fabricated count); an
    /// unresolved or drained one is resubmitted under its original id,
    /// resuming from its journaled drain checkpoint when one loads cleanly
    /// and matches the job's graph, plan and configuration, and from
    /// scratch otherwise (`submit` checks the match) — mining and ranking
    /// are deterministic, so either
    /// path converges to the bit-identical counts of an uninterrupted run.
    /// No new `Submitted` record is written for a recovered job: the
    /// original record stays the marker, so a second crash *during*
    /// recovery just replays the same unresolved set again.
    fn recover(&self, replay: Replay) {
        if replay.orphans > 0 || replay.fp_mismatches > 0 {
            eprintln!(
                "journal: ignored {} orphan records and {} fingerprint mismatches",
                replay.orphans, replay.fp_mismatches
            );
        }
        // Fresh ids start above every id the journal holds.
        self.sup.reserve_ids(replay.max_id);
        for job in replay.jobs {
            let checkpoint = match job.outcome {
                None => None,
                Some(Reported::Drained { checkpoint }) => checkpoint,
                Some(outcome) => {
                    let name = job.req.get("name").and_then(Json::as_str).unwrap_or("<unnamed>");
                    let entry = Entry::Replayed { name: name.to_string(), outcome };
                    lock_recover(&self.jobs, "job table").insert(job.id, entry);
                    continue;
                }
            };
            let resume = checkpoint.and_then(|path| {
                let loaded = Checkpoint::load(Path::new(&path));
                if let Err(e) = &loaded {
                    eprintln!(
                        "journal: checkpoint {path} unusable ({e}); job {} restarts from scratch",
                        job.id
                    );
                }
                loaded.ok()
            });
            self.gauges.recovered_jobs.fetch_add(1, Ordering::SeqCst);
            let resp = self.submit(&job.req, resume, Some(job.id)).unwrap_or_else(|e| err_line(&e));
            eprintln!("recovered from journal: {resp}");
        }
    }

    /// Drains the supervisor, journals every terminal or drained outcome
    /// (a drained record is how the job comes back on restart), and
    /// prints the per-job summary lines. Returns the process exit code.
    fn finish(&self) -> i32 {
        for d in self.sup.shutdown(self.cfg.spool.as_deref()) {
            match (&d.checkpoint, &d.error) {
                (Some(ckpt), _) => eprintln!("drained: {} -> {}", d.name, ckpt.display()),
                (None, Some(e)) => eprintln!("drain: {} lost its checkpoint: {e}", d.name),
                (None, None) => {}
            }
        }
        // After the drain every handle is resolved (Finished or Drained).
        self.journal_tick();
        let jobs = lock_recover(&self.jobs, "job table");
        // One summary line per terminal job, sorted by name — ids change
        // across a restart, names don't, so restart tooling diffs these.
        let mut lines: Vec<(String, String)> = jobs
            .values()
            .filter_map(Entry::live)
            .filter_map(|(handle, meta)| {
                let outcome = handle.try_outcome()?;
                if matches!(outcome, JobOutcome::Drained { .. }) {
                    return None; // resumes elsewhere; reported there
                }
                Some((meta.name.clone(), summary_line(meta, &reported(meta, &outcome))))
            })
            .collect();
        lines.sort();
        let mut out = std::io::stdout().lock();
        for (_, line) in &lines {
            let _ = writeln!(out, "{line}");
        }
        if self.journal.is_some() {
            // One durability summary line so restart tooling can see the
            // journal/recovery counters without scraping the exporters.
            let line = json::object(|o| {
                o.str("event", "journal");
                for (key, _, _, value) in self.gauges.list() {
                    o.u64(key, value);
                }
            });
            let _ = writeln!(out, "{line}");
        }
        let _ = out.flush();
        drop(jobs);
        self.write_trace();
        self.recorder_dump("exit");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::transport::respond;
    use super::wire::{dropped_line, ready_line, subscribed_line, too_large_line};
    use super::*;
    use fm_engine::RunStatus;
    use std::sync::mpsc;

    fn state(cfg: ServeConfig) -> ServeState {
        ServeState::new(cfg).expect("serve state").0
    }

    /// A state that has replayed its journal, as `run` starts one.
    fn recovered(cfg: ServeConfig) -> ServeState {
        let (st, replay) = ServeState::new(cfg).expect("serve state");
        st.recover(replay);
        st
    }

    /// What a submit of a triangle job named `tri` records.
    fn tri_meta() -> JobMeta {
        let pattern: Pattern = "triangle".parse().unwrap();
        JobMeta {
            name: "tri".to_string(),
            graph: "gen:complete,n=6".to_string(),
            pattern: "triangle".to_string(),
            induced: false,
            threads: 1,
            priority: 0,
            max_attempts: None,
            budget: None,
            deadline_secs: None,
            deadline: None,
            fp: 0xabcd,
            recovered: false,
            plan: Arc::new(compile(&pattern, CompileOptions::default())),
        }
    }

    /// The live jobs' metadata, in id order.
    fn metas(st: &ServeState) -> Vec<Arc<JobMeta>> {
        let jobs = st.jobs.lock().unwrap();
        jobs.values().filter_map(Entry::live).map(|(_, meta)| Arc::clone(meta)).collect()
    }

    #[test]
    fn submit_wait_status_roundtrip_over_protocol() {
        let st = state(ServeConfig::default());
        let resp = st.handle_line(
            r#"{"op":"submit","name":"tri","pattern":"triangle","graph":"gen:complete,n=6"}"#,
        );
        let v = jsonl::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        let d = jsonl::parse(&done).unwrap();
        assert_eq!(d.get("outcome").and_then(Json::as_str), Some("finished"), "{done}");
        assert_eq!(d.get("exit_code").and_then(Json::as_i64), Some(0), "{done}");
        // complete(6) holds C(6,3) = 20 triangles.
        let counts = d.get("counts").and_then(Json::as_arr).unwrap();
        assert_eq!(counts[0].as_u64(), Some(20), "{done}");
        let status = st.handle_line(r#"{"op":"status"}"#);
        let s = jsonl::parse(&status).unwrap();
        assert_eq!(s.get("submitted").and_then(Json::as_u64), Some(1), "{status}");
        let metrics = st.handle_line(r#"{"op":"metrics","format":"prometheus"}"#);
        assert!(metrics.contains("fm_jobs_submitted_total"), "{metrics}");
        st.sup.shutdown(None);
    }

    #[test]
    fn status_and_metrics_expose_observability_series() {
        let st = state(ServeConfig::default());
        let resp = st.handle_line(
            r#"{"op":"submit","name":"tri","pattern":"triangle","graph":"gen:complete,n=6"}"#,
        );
        let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).unwrap();
        let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(done.contains(r#""outcome":"finished""#), "{done}");
        let status = st.handle_line(r#"{"op":"status"}"#);
        let s = jsonl::parse(&status).unwrap();
        assert!(s.get("uptime_seconds").and_then(Json::as_u64).is_some(), "{status}");
        assert!(status.contains(r#""queued_by_priority":{"#), "{status}");
        assert!(s.get("events_published").and_then(Json::as_u64).unwrap() > 0, "{status}");
        assert_eq!(s.get("events_dropped").and_then(Json::as_u64), Some(0), "{status}");
        let prom = st.handle_line(r#"{"op":"metrics","format":"prometheus"}"#);
        for needle in [
            "fm_job_queue_wait_us_count 1",
            "fm_job_stint_us_count",
            "fm_job_e2e_us_count 1",
            "fm_job_preempt_us_count 0",
            "fm_job_journal_fsync_us_count 0",
            "fm_serve_uptime_seconds",
            "fm_events_published_total",
            "fm_events_dropped_total 0",
            "fm_trace_dropped_spans 0",
            "fm_jobs_queued_by_priority",
        ] {
            assert!(prom.contains(needle), "{needle} missing from {prom}");
        }
        st.sup.shutdown(None);
    }

    #[test]
    fn subscribe_is_a_socket_only_op() {
        let st = state(ServeConfig::default());
        let resp = st.handle_line(r#"{"op":"subscribe"}"#);
        assert!(resp.contains(r#""ok":false"#), "{resp}");
        assert!(resp.contains("socket transport"), "{resp}");
        st.sup.shutdown(None);
    }

    #[test]
    fn recorder_dump_writes_parseable_jsonl_with_lifecycle_events() {
        let dir = std::env::temp_dir().join(format!("fm-serve-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("flight.jsonl");
        let st = state(ServeConfig { recorder_out: Some(out.clone()), ..Default::default() });
        let resp = st.handle_line(
            r#"{"op":"submit","name":"tri","pattern":"triangle","graph":"gen:complete,n=6"}"#,
        );
        let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).unwrap();
        st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        st.recorder_dump("test");
        let body = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines.len() >= 2, "{body}");
        let header = jsonl::parse(lines[0]).unwrap();
        assert_eq!(header.get("event").and_then(Json::as_str), Some("recorder"), "{body}");
        assert_eq!(header.get("reason").and_then(Json::as_str), Some("test"), "{body}");
        let mut kinds = Vec::new();
        for line in &lines[1..] {
            let ev = jsonl::parse(line).unwrap_or_else(|e| panic!("bad event line {line}: {e}"));
            kinds.push(ev.get("kind").and_then(Json::as_str).unwrap().to_string());
        }
        for want in ["submitted", "queued", "running", "finished"] {
            assert!(kinds.iter().any(|k| k == want), "missing {want} in {kinds:?}");
        }
        // The state-transition order is preserved inside one job's trail.
        let pos = |k: &str| kinds.iter().position(|x| x == k).unwrap();
        assert!(pos("submitted") < pos("running"), "{kinds:?}");
        assert!(pos("running") < pos("finished"), "{kinds:?}");
        st.sup.shutdown(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_out_merges_supervisor_and_engine_spans_on_one_timeline() {
        let dir = std::env::temp_dir().join(format!("fm-serve-trc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace.json");
        let st = state(ServeConfig { trace_out: Some(out.clone()), ..Default::default() });
        // Two concurrent jobs: both lifecycles and both engines must land
        // in the one trace file.
        let mut ids = Vec::new();
        for name in ["a", "b"] {
            let resp = st.handle_line(&format!(
                r#"{{"op":"submit","name":"{name}","pattern":"triangle","graph":"gen:complete,n=8"}}"#
            ));
            ids.push(jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).unwrap());
        }
        for id in ids {
            st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        }
        st.sup.shutdown(None);
        st.write_trace();
        let body = std::fs::read_to_string(&out).unwrap();
        assert!(body.contains("\"traceEvents\""), "{body}");
        // Supervisor lifecycle spans (job lanes) and engine stint spans
        // (worker lanes) share the file — one Perfetto timeline.
        assert!(body.contains("\"queue-wait\""), "missing supervisor span: {body}");
        assert!(body.contains("\"stint\""), "missing engine span: {body}");
        assert!(body.contains("\"start-vertex-task\""), "missing task span: {body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The vertex ids `serve` reports are the input's, not those of the
    /// ranked copy a 4-cycle job mines. On a wheel whose hub is vertex 0
    /// ranking moves every id: the rim 1..=6 becomes 0..=5 and the hub 6.
    /// Tasks run in rank order, and a one-iteration budget stops the job
    /// after the first that spends one, before the hub's: rim vertex 1,
    /// ranked 0, is always among the tasks that ran, and the hub never.
    #[test]
    fn task_spans_report_input_vertex_ids() {
        let dir = std::env::temp_dir().join(format!("fm-serve-vid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (graph, out) = (dir.join("wheel.txt"), dir.join("trace.json"));
        let rim = (1..=6).map(|v| format!("0 {v}\n{v} {}\n", v % 6 + 1));
        std::fs::write(&graph, rim.collect::<String>()).unwrap();
        let st = state(ServeConfig {
            trace_out: Some(out.clone()),
            supervisor: SupervisorConfig { workers: 1, ..Default::default() },
            ..Default::default()
        });
        let resp = st.handle_line(&format!(
            r#"{{"op":"submit","pattern":"4-cycle","graph":"{}","budget":1}}"#,
            graph.display()
        ));
        let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).expect(&resp);
        let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(done.contains(r#""status":"BudgetExhausted""#), "{done}");
        st.sup.shutdown(None);
        st.write_trace();
        let trace = jsonl::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        let vids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("start-vertex-task"))
            .map(|e| e.get("args").and_then(|a| a.get("vid")).and_then(Json::as_u64).unwrap())
            .collect();
        assert!(vids.contains(&1) && !vids.contains(&0), "{vids:?}");
        assert!(vids.iter().all(|v| (1..=6).contains(v)), "{vids:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn protocol_errors_are_responses_not_crashes() {
        let st = state(ServeConfig::default());
        for (req, needle) in [
            ("not json", "bad request"),
            (r#"{"no":"op"}"#, "missing op"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"submit","pattern":"triangle"}"#, "submit needs a graph"),
            (r#"{"op":"submit","graph":"gen:complete,n=4"}"#, "submit needs a pattern"),
            (
                r#"{"op":"submit","pattern":"zzz-not-a-pattern","graph":"gen:complete,n=4"}"#,
                "bad pattern",
            ),
            // A pattern is something a client types: an id whose `+ 1`
            // overflows, free text and a stray comma each name the token.
            (
                r#"{"op":"submit","pattern":"0-18446744073709551615","graph":"gen:complete,n=4"}"#,
                "18446744073709551615 vertices exceeds the maximum",
            ),
            (
                r#"{"op":"submit","pattern":"sdfs","graph":"gen:complete,n=4"}"#,
                r#"cannot read \"sdfs\""#,
            ),
            (
                r#"{"op":"submit","pattern":"0-1,","graph":"gen:complete,n=4"}"#,
                r#"cannot read \"\""#,
            ),
            (r#"{"op":"wait","id":99}"#, "unknown job id"),
            (r#"{"op":"cancel"}"#, "cancel needs an id"),
        ] {
            let resp = st.handle_line(req);
            let v = jsonl::parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{req} -> {resp}");
            assert!(resp.contains(needle), "{req} -> {resp}");
        }
        st.sup.shutdown(None);
    }

    /// A `submit` field is either what the client typed or an error that
    /// names it — never a wrapped, clamped or defaulted stand-in — and the
    /// request after a refused one is served.
    #[test]
    fn malformed_submit_fields_are_named_not_rewritten() {
        let st = state(ServeConfig::default());
        let submit = |extra: &str| {
            st.handle_line(&format!(
                r#"{{"op":"submit","pattern":"triangle","graph":"gen:complete,n=5",{extra}}}"#
            ))
        };
        type Kept = fn(&JobMeta) -> bool;
        let cases: [(&str, &str, &str, Kept); 10] = [
            (r#""priority":4294967297"#, "priority", r#""priority":-2147483648"#, |m| {
                m.priority == i32::MIN
            }),
            (r#""max_attempts":4294967296"#, "max_attempts", r#""max_attempts":4294967295"#, |m| {
                m.max_attempts == Some(u32::MAX)
            }),
            (r#""threads":"4""#, "threads", r#""threads":4"#, |m| m.threads == 4),
            (r#""induced":1"#, "induced", r#""induced":true"#, |m| m.induced),
            (r#""priority":1.5"#, "priority", r#""priority":1"#, |m| m.priority == 1),
            (r#""budget":-1"#, "budget", r#""budget":0"#, |m| m.budget == Some(0)),
            // 2⁶⁴ is an `f64` and one past `u64::MAX`; the largest `f64` below it is exact.
            (
                r#""budget":18446744073709551616"#,
                "budget",
                r#""budget":18446744073709549568"#,
                |m| m.budget == Some(u64::MAX - 2047),
            ),
            (r#""threads":0"#, "threads", r#""threads":65536"#, |m| m.threads == 65536),
            (r#""deadline":"60""#, "deadline", r#""deadline":60"#, |m| {
                m.deadline_secs == Some(60.0)
            }),
            (r#""name":7"#, "name", r#""name":"seven""#, |m| m.name == "seven"),
        ];
        for (bad, field, twin, kept) in cases {
            let before = st.jobs.lock().unwrap().len();
            let resp = submit(bad);
            let v = jsonl::parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{bad} -> {resp}");
            let error = v.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(error.starts_with(field), "{bad} -> {resp}");
            assert_eq!(st.jobs.lock().unwrap().len(), before, "{bad} admitted a job");
            let resp = submit(twin);
            assert!(resp.contains(r#""ok":true"#), "{twin} -> {resp}");
            assert!(kept(metas(&st).last().expect("just admitted")), "{twin} was rewritten");
        }
        // `max_attempts: K` runs a faulted task at most K times: K − 1
        // in-place engine retries, 0 meaning 1 attempt, 3 by default.
        let budgets =
            [(None, 2), (Some(0), 0), (Some(1), 0), (Some(5), 4), (Some(u32::MAX), u32::MAX - 1)];
        for (attempts, retries) in budgets {
            let extra =
                attempts.map_or("\"name\":\"x\"".into(), |k| format!("\"max_attempts\":{k}"));
            assert!(submit(&extra).contains(r#""ok":true"#), "{extra}");
            let meta = metas(&st).pop().expect("just admitted");
            assert_eq!(meta.max_attempts, attempts, "{extra}");
            assert_eq!(meta.engine_config().max_retries, retries, "{extra}");
        }
        st.sup.shutdown(None);
    }

    #[test]
    fn saturated_submit_reports_rejection_with_exit_code_8() {
        let st = state(ServeConfig { memory_budget_bytes: 1, ..Default::default() });
        // A generator spec is sized from its parameters and refused before
        // it is generated or given an id: (16 + 1)·8 + 240·4, doubled for
        // the oriented triangle plan, plus 16·4 for the labels of the ranked
        // copy it mines.
        let resp =
            st.handle_line(r#"{"op":"submit","pattern":"triangle","graph":"gen:complete,n=16"}"#);
        let refused = "graph gen:complete,n=16 needs up to 2256 B, over the 1 B memory budget";
        assert_eq!(resp, err_line(refused));
        // An edge-list file is charged once read, and refused the same way:
        // (3 + 1)·8 + 6·4, doubled, plus 3·4.
        let path = std::env::temp_dir().join(format!("fm-serve-tri-{}.txt", std::process::id()));
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let resp = st.handle_line(&format!(
            r#"{{"op":"submit","pattern":"triangle","graph":"{}"}}"#,
            path.display()
        ));
        let refused =
            format!("graph {} needs up to 124 B, over the 1 B memory budget", path.display());
        let _ = std::fs::remove_file(&path);
        assert_eq!(resp, err_line(&refused));
        assert_eq!(st.sup.stats().submitted, 0);
        assert_eq!(st.memory_bytes(), 0);
        st.sup.shutdown(None);
        // A full job table sheds at admission, with the job's id and code 8.
        let full = state(ServeConfig {
            supervisor: SupervisorConfig { queue_capacity: 0, ..Default::default() },
            ..Default::default()
        });
        let resp =
            full.handle_line(r#"{"op":"submit","pattern":"triangle","graph":"gen:complete,n=4"}"#);
        assert_eq!(
            resp,
            r#"{"ok":false,"id":1,"outcome":"rejected","exit_code":8,"error":"queue full: 0 jobs admitted (capacity 0)"}"#
        );
        full.sup.shutdown(None);
    }

    /// The graph cache is the one account of graph memory: it charges
    /// what it holds, evicts what no job holds (least recently used
    /// first), and refuses, unbuilt, a graph that cannot fit beside what
    /// jobs hold.
    #[test]
    fn the_graph_cache_charges_what_it_holds_and_evicts_idle_graphs() {
        let spec = |seed: u64| format!("gen:powerlaw,n=300,m=4,closure=0.5,seed={seed}");
        // The triangle plan orients, so each graph is charged twice its CSR,
        // and mines the ranked copy, whose labels are charged too.
        let charge = |seed: u64| {
            let g = graphspec::load(&spec(seed)).unwrap();
            graph_bytes(g.num_vertices() as u64, g.num_directed_edges() as u64, true, true)
        };
        // Room for two graphs' bounds, not three.
        let bound = graph_bytes(300, 300 * 4 * 2, true, true);
        let budget = 2 * bound;
        // One worker: a job's last stint has let go of its graph before the
        // next job starts, so the graph two jobs back is idle.
        let st = state(ServeConfig {
            memory_budget_bytes: budget,
            supervisor: SupervisorConfig { workers: 1, ..Default::default() },
            ..Default::default()
        });
        for seed in 1..=5u64 {
            let resp = st.handle_line(&format!(
                r#"{{"op":"submit","pattern":"triangle","graph":"{}"}}"#,
                spec(seed)
            ));
            let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).expect(&resp);
            let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
            assert!(done.contains(r#""status":"Complete""#), "{done}");
            let status = jsonl::parse(&st.handle_line(r#"{"op":"status"}"#)).unwrap();
            let memory = status.get("memory_bytes").and_then(Json::as_u64).unwrap();
            // The two most recent graphs are the cached ones.
            let cached: u64 = (seed.saturating_sub(1).max(1)..=seed).map(charge).sum();
            assert!(memory > 0 && memory <= budget, "after seed {seed}: {memory} of {budget}");
            assert_eq!(memory, cached, "after seed {seed}");
        }
        let cache = lock_recover(&st.graphs, "graph cache");
        let mut kept: Vec<&(String, bool)> = cache.entries.keys().collect();
        kept.sort();
        assert_eq!(kept, [&(spec(4), true), &(spec(5), true)]);
        drop(cache);
        st.sup.shutdown(None);
    }

    #[test]
    fn a_graph_a_job_holds_is_never_evicted() {
        // Seconds of mining on a graph charged 1 439 720 B (the house plan
        // does not orient): the job holds it throughout.
        let big = "gen:powerlaw,n=20000,m=8,closure=0.5,seed=1";
        let small = |seed: u64| format!("gen:powerlaw,n=300,m=4,closure=0.5,seed={seed}");
        // A triangle job queued behind the house jobs holds a small graph
        // too, though its core mines only an oriented copy of it.
        let queued = small(9);
        let g = graphspec::load(&queued).unwrap();
        let oriented =
            graph_bytes(g.num_vertices() as u64, g.num_directed_edges() as u64, true, true);
        drop(g);
        // Room for the held graphs and two small ones. One worker: a job's
        // last stint has let go of its graph before the next job starts.
        let budget = 1_439_720
            + graph_bytes(300, 2400, true, true)
            + 2 * graphspec::csr_bytes(300, 2400, false);
        let st = state(ServeConfig {
            memory_budget_bytes: budget,
            supervisor: SupervisorConfig { workers: 1, max_running: 1, ..Default::default() },
            ..Default::default()
        });
        let submit = |pattern: &str, graph: &str, priority: i32| {
            st.handle_line(&format!(
                r#"{{"op":"submit","pattern":"{pattern}","graph":"{graph}","priority":{priority}}}"#
            ))
        };
        // Two jobs share the one cached copy and its one charge.
        for _ in 0..2 {
            assert!(submit("house", big, 0).contains(r#""ok":true"#));
        }
        assert_eq!(st.memory_bytes(), 1_439_720);
        let resp = submit("triangle", &queued, 0);
        let tri = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).expect(&resp);
        assert_eq!(st.memory_bytes(), 1_439_720 + oriented);
        // Idle graphs make way, least recently used first; the held ones
        // stay. Each small job preempts the house jobs and runs to the end.
        // The triangle job's graph is a ranked copy, the others the input.
        let cached = |graph: &str| {
            let ranked = graph == queued;
            lock_recover(&st.graphs, "graph cache")
                .entries
                .contains_key(&(graph.to_string(), ranked))
        };
        for seed in 1..=4 {
            let resp = submit("wedge", &small(seed), 1);
            let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).expect(&resp);
            let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
            assert!(done.contains(r#""status":"Complete""#), "{done}");
            assert!(cached(big) && cached(&queued) && cached(&small(seed)), "seed {seed}");
            assert!(seed < 3 || !cached(&small(seed - 2)), "seed {seed}");
            assert!(st.memory_bytes() <= budget);
        }
        let jobs = lock_recover(&st.jobs, "job table");
        assert!(!jobs[&tri].live().unwrap().0.is_resolved(), "the triangle job ran too soon");
        drop(jobs);
        // A graph that fits the budget but not beside the held ones is
        // refused before it is generated; nothing is evicted for it.
        let other = "gen:powerlaw,n=20000,m=8,closure=0.5,seed=2";
        let need = graphspec::csr_bytes(20000, 20000 * 8 * 2, false);
        let held = 1_439_720 + oriented;
        let refusal = format!(
            "graph {other} needs up to {need} B, over the {budget} B memory budget less {held} B held by other jobs"
        );
        assert_eq!(submit("house", other, 0), err_line(&refusal));
        let unbuilt =
            st.graph_for(other, false, false, |_| panic!("a refused graph is never built"));
        assert_eq!(unbuilt.unwrap_err(), refusal);
        assert!(cached(big) && cached(&queued) && cached(&small(3)) && cached(&small(4)));
        assert!(!cached(other));
        st.sup.shutdown(None);
    }

    #[test]
    fn submit_budget_and_deadline_reach_the_job_and_the_manifest_shape() {
        let st = state(ServeConfig::default());
        // A one-iteration budget on a non-trivial graph must stop early
        // with the `count` command's exit code 4 and an exact partial.
        let resp = st.handle_line(
            r#"{"op":"submit","name":"capped","pattern":"4-cycle","graph":"gen:powerlaw,n=400,m=4,closure=0.5,seed=5","budget":1,"deadline":3600}"#,
        );
        let v = jsonl::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(metas(&st)[0].budget, Some(1));
        assert_eq!(metas(&st)[0].deadline_secs, Some(3600.0));
        let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        let d = jsonl::parse(&done).unwrap();
        assert_eq!(d.get("status").and_then(Json::as_str), Some("BudgetExhausted"), "{done}");
        assert_eq!(d.get("exit_code").and_then(Json::as_i64), Some(4), "{done}");

        // The journaled request round-trips through the submit parser with
        // both knobs intact — this is the resume path (`recover`
        // resubmits it, with the drained checkpoint when there is one).
        let line = canonical_req(&metas(&st)[0]).to_jsonl();
        assert!(line.contains(r#""op":"submit""#), "{line}");
        st.handle_line(&line);
        let jobs = metas(&st);
        assert_eq!(canonical_req(&jobs[1]), canonical_req(&jobs[0]), "{line}");
        assert_eq!(jobs[1].budget, Some(1));
        assert_eq!(jobs[1].deadline_secs, Some(3600.0));
        st.sup.shutdown(None);
    }

    #[test]
    fn non_positive_deadlines_are_rejected_at_submit() {
        let st = state(ServeConfig::default());
        for (bad, needle) in [
            ("0", "deadline must be a positive number of seconds, got 0"),
            ("-2.5", "deadline must be a positive number of seconds, got -2.5"),
            ("1e20", "deadline must be below 2^64 seconds, got 100000000000000000000"),
            ("1e999", "deadline must be below 2^64 seconds, got inf"),
        ] {
            let resp = st.handle_line(&format!(
                r#"{{"op":"submit","pattern":"triangle","graph":"gen:complete,n=4","deadline":{bad}}}"#,
            ));
            assert_eq!(resp, err_line(needle));
        }
        st.sup.shutdown(None);
    }

    #[test]
    fn job_exit_codes_cover_the_extended_table() {
        use fm_engine::MiningResult;
        let finished = JobOutcome::Finished(MiningResult {
            status: RunStatus::Degraded,
            ..Default::default()
        });
        let code = |outcome: &JobOutcome| job_exit_code(&reported(&tri_meta(), outcome));
        assert_eq!(code(&finished), 6);
        assert_eq!(code(&JobOutcome::Rejected { reason: "full".into() }), 8);
        assert_eq!(code(&JobOutcome::Drained { checkpoint: None }), 9);
        assert_eq!(job_exit_code(&Reported::Cancelled), 5);
        assert_eq!(status_exit_code(RunStatus::Complete), 0);
        assert_eq!(status_exit_code(RunStatus::DeadlineExceeded), 3);
        assert_eq!(status_exit_code(RunStatus::BudgetExhausted), 4);
        assert_eq!(status_exit_code(RunStatus::Cancelled), 5);
    }

    #[test]
    fn poisoned_locks_recover_and_the_next_request_works() {
        let st = state(ServeConfig::default());
        // Poison the job table the way a buggy handler would: panic while
        // holding the lock.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = st.jobs.lock().unwrap();
            panic!("injected poison");
        }));
        assert!(st.jobs.is_poisoned());
        // submit and status on the "next connection" still work.
        let resp = st.handle_line(
            r#"{"op":"submit","name":"p","pattern":"triangle","graph":"gen:complete,n=5"}"#,
        );
        let v = jsonl::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(done.contains(r#""outcome":"finished""#), "{done}");
        let status = st.handle_line(r#"{"op":"status"}"#);
        assert!(status.contains(r#""ok":true"#), "{status}");
        st.sup.shutdown(None);
    }

    #[test]
    fn debug_panic_op_is_caught_and_leaves_the_state_serving() {
        std::env::set_var("FM_SERVE_DEBUG_OPS", "1");
        let st = state(ServeConfig::default());
        // The op panics while holding the job-table lock; `respond` must
        // catch it and answer with a structured internal error.
        let resp = respond(&st, r#"{"op":"debug-panic"}"#);
        let v = jsonl::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
        assert!(resp.contains("internal error"), "{resp}");
        assert!(resp.contains("debug-panic"), "{resp}");
        // The poisoned lock recovers on the next request.
        let next = respond(
            &st,
            r#"{"op":"submit","name":"after","pattern":"triangle","graph":"gen:complete,n=5"}"#,
        );
        assert!(next.contains(r#""ok":true"#), "{next}");
        st.sup.shutdown(None);
    }

    #[test]
    fn journal_finished_jobs_answer_wait_after_restart() {
        let dir = std::env::temp_dir().join(format!("fm-serve-jrnl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("jobs.journal");
        let mk = || recovered(ServeConfig { journal: Some(journal.clone()), ..Default::default() });

        let first = mk();
        let resp = first.handle_line(
            r#"{"op":"submit","name":"tri","pattern":"triangle","graph":"gen:complete,n=6"}"#,
        );
        let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).unwrap();
        let live = first.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(live.contains(r#""counts":[20]"#), "{live}");
        first.journal_tick();
        first.sup.shutdown(None);
        drop(first);

        // "Restart": a fresh state over the same journal, no live jobs.
        let second = mk();
        assert_eq!(second.gauges.replayed.load(Ordering::SeqCst), 2, "Submitted + Finished");
        let replayed = second.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        let v = jsonl::parse(&replayed).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{replayed}");
        assert_eq!(v.get("replayed").and_then(Json::as_bool), Some(true), "{replayed}");
        assert!(replayed.contains(r#""counts":[20]"#), "answer must come from the record");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("tri"), "{replayed}");
        // One renderer: the replayed answer is the live one, byte for
        // byte, plus the marker.
        let live_body = live.strip_suffix('}').expect("a JSON object");
        assert_eq!(replayed, format!(r#"{live_body},"replayed":true}}"#));
        // Unknown ids still error.
        let unknown = second.handle_line(r#"{"op":"wait","id":424242}"#);
        assert!(unknown.contains("unknown job id"), "{unknown}");
        // No job was re-run: recovery count stays zero.
        assert_eq!(second.gauges.recovered_jobs.load(Ordering::SeqCst), 0);
        second.sup.shutdown(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_too_large_to_journal_is_refused_not_silently_undurable() {
        let dir = std::env::temp_dir().join(format!("fm-serve-jrnl3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("jobs.journal");
        let st = recovered(ServeConfig { journal: Some(journal.clone()), ..Default::default() });
        // A request whose canonical Submitted record cannot fit in one
        // journal frame (reachable when --max-request-bytes is raised past
        // the record cap). Accepting it un-durably would let a crash
        // forget a job the client holds an id for — refuse it instead.
        let huge_name = "n".repeat(journal::MAX_RECORD_BYTES);
        let resp = st.handle_line(&format!(
            r#"{{"op":"submit","name":"{huge_name}","pattern":"triangle","graph":"gen:complete,n=6"}}"#
        ));
        assert!(resp.contains(r#""ok":false"#), "{resp}");
        assert!(resp.contains("too large to journal"), "{resp}");
        // The same state keeps serving, and the journal holds only the
        // valid job's records.
        let ok = st.handle_line(
            r#"{"op":"submit","name":"tri","pattern":"triangle","graph":"gen:complete,n=6"}"#,
        );
        assert!(ok.contains(r#""ok":true"#), "{ok}");
        let id = jsonl::parse(&ok).unwrap().get("id").and_then(Json::as_u64).unwrap();
        let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(done.contains(r#""counts":[20]"#), "{done}");
        st.journal_tick();
        st.sup.shutdown(None);
        drop(st);
        let (_, scan) = Journal::open(&journal).unwrap();
        assert!(!scan.records.is_empty());
        assert!(scan.records.iter().all(|r| r.id() == id), "{:?}", scan.records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_unresolved_jobs_rerun_under_their_old_id() {
        let dir = std::env::temp_dir().join(format!("fm-serve-jrnl2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("jobs.journal");
        let mk = || recovered(ServeConfig { journal: Some(journal.clone()), ..Default::default() });

        // Reference counts for the same job, journal-less.
        let reference = state(ServeConfig::default());
        let resp = reference.handle_line(
            r#"{"op":"submit","name":"ref","pattern":"4-cycle","graph":"gen:powerlaw,n=300,m=4,closure=0.5,seed=3"}"#,
        );
        let rid = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).unwrap();
        let ref_line = reference.handle_line(&format!(r#"{{"op":"wait","id":{rid}}}"#));
        let ref_counts = jsonl::parse(&ref_line)
            .unwrap()
            .get("counts")
            .and_then(|c| c.as_arr().map(<[Json]>::to_vec))
            .unwrap();
        reference.sup.shutdown(None);

        // "Crash": submit with a journal but never journal the outcome —
        // the process dies before `journal_tick` ran.
        let first = mk();
        let resp = first.handle_line(
            r#"{"op":"submit","name":"ref","pattern":"4-cycle","graph":"gen:powerlaw,n=300,m=4,closure=0.5,seed=3"}"#,
        );
        let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).unwrap();
        first.sup.shutdown(None); // no tick: Finished never reaches the journal
        drop(first);

        let second = mk();
        assert_eq!(second.gauges.recovered_jobs.load(Ordering::SeqCst), 1);
        let line = second.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        let v = jsonl::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        let got = v.get("counts").and_then(|c| c.as_arr().map(<[Json]>::to_vec)).unwrap();
        assert_eq!(got, ref_counts, "re-run must converge bit-identically: {line}");
        // The re-run resolves live (not from history), so no replayed marker.
        assert_eq!(v.get("replayed"), None, "{line}");
        {
            let jobs = second.jobs.lock().unwrap();
            let (&key, entry) = jobs.first_key_value().expect("the recovered job");
            assert_eq!(key, id);
            assert!(entry.live().expect("re-run live").1.recovered);
        }
        second.journal_tick();
        second.sup.shutdown(None);

        // Third process: the outcome is now journaled; wait answers from
        // history without re-running anything.
        let third = mk();
        assert_eq!(third.gauges.recovered_jobs.load(Ordering::SeqCst), 0);
        let replayed = third.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        let v = jsonl::parse(&replayed).unwrap();
        assert_eq!(v.get("replayed").and_then(Json::as_bool), Some(true), "{replayed}");
        let got = v.get("counts").and_then(|c| c.as_arr().map(<[Json]>::to_vec)).unwrap();
        assert_eq!(got, ref_counts, "{replayed}");
        third.sup.shutdown(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn golden_journal_fields_on_exporters_status_and_summary_lines() {
        // Prometheus + JSON exporters and the status op must pin the
        // fm_journal_* family; replayed wait and summary lines pin their shapes.
        let st = state(ServeConfig::default());
        st.gauges.records.store(7, Ordering::SeqCst);
        st.gauges.replayed.store(5, Ordering::SeqCst);
        st.gauges.truncated_bytes.store(13, Ordering::SeqCst);
        st.gauges.recovered_jobs.store(2, Ordering::SeqCst);
        let prom = st.handle_line(r#"{"op":"metrics","format":"prometheus"}"#);
        for needle in [
            "fm_journal_records 7",
            "fm_journal_replayed 5",
            "fm_journal_truncated 13",
            "fm_journal_recovered_jobs 2",
        ] {
            assert!(prom.contains(needle), "{needle} missing from {prom}");
        }
        let json = st.handle_line(r#"{"op":"metrics"}"#);
        for needle in ["fm_journal_records", "fm_journal_truncated"] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
        let status = st.handle_line(r#"{"op":"status"}"#);
        let expected_status_tail = r#""journal_records":7,"journal_replayed":5,"journal_truncated_bytes":13,"journal_recovered_jobs":2}"#;
        assert!(status.ends_with(expected_status_tail), "{status}");

        // Replayed wait lines, exact bytes.
        let finished = Reported::Finished {
            status: "Complete".to_string(),
            exit_code: 0,
            counts: vec![20],
            faults: 0,
            quarantined: 0,
            work_digest: 0,
        };
        assert_eq!(
            wait_line(9, "tri", &finished, true),
            r#"{"ok":true,"id":9,"name":"tri","exit_code":0,"outcome":"finished","status":"Complete","counts":[20],"faults":0,"quarantined":0,"replayed":true}"#
        );
        assert_eq!(
            wait_line(3, "x", &Reported::Cancelled, true),
            r#"{"ok":true,"id":3,"name":"x","exit_code":5,"outcome":"cancelled","replayed":true}"#
        );

        // Event line for a recovered job, exact bytes.
        let meta = JobMeta { recovered: true, ..tri_meta() };
        let outcome = JobOutcome::Finished(fm_engine::MiningResult {
            counts: vec![20],
            status: RunStatus::Complete,
            ..Default::default()
        });
        assert_eq!(
            summary_line(&meta, &reported(&meta, &outcome)),
            r#"{"event":"job","name":"tri","pattern":"triangle","graph":"gen:complete,n=6","recovered":true,"exit_code":0,"outcome":"finished","status":"Complete","counts":[20],"faults":0,"quarantined":0}"#
        );
        st.sup.shutdown(None);

        // And the live count behind `journal_records`: a job is two
        // records, `Submitted` before its reply and `Finished` on the tick.
        let dir = std::env::temp_dir().join(format!("fm-serve-gold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = state(ServeConfig { journal: Some(dir.join("j")), ..Default::default() });
        let resp =
            live.handle_line(r#"{"op":"submit","pattern":"triangle","graph":"gen:complete,n=6"}"#);
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        assert!(live.handle_line(r#"{"op":"status"}"#).contains(r#""journal_records":1,"#));
        live.handle_line(r#"{"op":"wait","id":1}"#);
        live.journal_tick();
        live.journal_tick(); // a second tick finds nothing left to append
        let status = live.handle_line(r#"{"op":"status"}"#);
        assert!(status.ends_with(r#""journal_records":2,"journal_replayed":0,"journal_truncated_bytes":0,"journal_recovered_jobs":0}"#), "{status}");
        live.sup.shutdown(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_the_parent_wrote_with_started_records_replays() {
        let dir = std::env::temp_dir().join(format!("fm-serve-jrnl4-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("jobs.journal");
        // What a build that still wrote `Started` left behind: one job
        // finished, one killed mid-run.
        let reqs: Vec<Json> = ["done", "cut"]
            .iter()
            .map(|name| {
                jsonl::parse(&format!(
                    r#"{{"graph":"gen:complete,n=6","induced":false,"name":"{name}","op":"submit","pattern":"triangle","priority":0,"threads":1}}"#
                ))
                .unwrap()
            })
            .collect();
        let fp = |req: &Json| journal::fnv64(req.to_jsonl().as_bytes());
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            for record in [
                JournalRecord::Submitted { id: 1, fp: fp(&reqs[0]), req: reqs[0].clone() },
                JournalRecord::Started { id: 1 },
                JournalRecord::Submitted { id: 2, fp: fp(&reqs[1]), req: reqs[1].clone() },
                JournalRecord::Started { id: 2 },
                JournalRecord::Outcome {
                    id: 1,
                    fp: fp(&reqs[0]),
                    outcome: Reported::Finished {
                        status: "Complete".into(),
                        exit_code: 0,
                        counts: vec![20],
                        faults: 0,
                        quarantined: 0,
                        work_digest: 0,
                    },
                },
            ] {
                journal.append(&record).unwrap();
            }
        }
        let st = recovered(ServeConfig { journal: Some(path), ..Default::default() });
        assert_eq!(st.gauges.replayed.load(Ordering::SeqCst), 5);
        assert_eq!(st.gauges.recovered_jobs.load(Ordering::SeqCst), 1, "job 2 re-runs");
        let done = st.handle_line(r#"{"op":"wait","id":1}"#);
        assert!(done.contains(r#""counts":[20]"#) && done.contains(r#""replayed":true"#), "{done}");
        let cut = st.handle_line(r#"{"op":"wait","id":2}"#);
        assert!(cut.contains(r#""counts":[20]"#) && !cut.contains("replayed"), "{cut}");
        // The re-run adds its `Finished` and nothing else.
        st.journal_tick();
        assert_eq!(st.gauges.records.load(Ordering::SeqCst), 6);
        st.sup.shutdown(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A recovered job runs under the id its client holds, so its events,
    /// recorder lines and trace lanes carry that id; a fresh job takes the
    /// next id above every journaled one.
    #[test]
    fn a_recovered_job_runs_under_the_id_its_client_holds() {
        let dir = std::env::temp_dir().join(format!("fm-serve-jrnl5-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("jobs.journal");
        let req = |name: &str| {
            jsonl::parse(&format!(
                r#"{{"graph":"gen:complete,n=6","induced":false,"name":"{name}","op":"submit","pattern":"triangle","priority":0,"threads":1}}"#
            ))
            .unwrap()
        };
        let fp = |req: &Json| journal::fnv64(req.to_jsonl().as_bytes());
        let done = Reported::Finished {
            status: "Complete".into(),
            exit_code: 0,
            counts: vec![20],
            faults: 0,
            quarantined: 0,
            work_digest: 0,
        };
        {
            // Job 1 never ended; jobs 2 and 3 did.
            let (mut journal, _) = Journal::open(&path).unwrap();
            let (cut, two, three) = (req("cut"), req("two"), req("three"));
            for record in [
                JournalRecord::Submitted { id: 1, fp: fp(&cut), req: cut.clone() },
                JournalRecord::Submitted { id: 2, fp: fp(&two), req: two.clone() },
                JournalRecord::Outcome { id: 2, fp: fp(&two), outcome: done.clone() },
                JournalRecord::Submitted { id: 3, fp: fp(&three), req: three.clone() },
                JournalRecord::Outcome { id: 3, fp: fp(&three), outcome: done },
            ] {
                journal.append(&record).unwrap();
            }
        }
        let st = recovered(ServeConfig { journal: Some(path), ..Default::default() });
        let cut = st.handle_line(r#"{"op":"wait","id":1}"#);
        assert!(cut.contains(r#""counts":[20]"#) && !cut.contains("replayed"), "{cut}");
        let fresh = st.handle_line(
            r#"{"op":"submit","name":"fresh","pattern":"triangle","graph":"gen:complete,n=6"}"#,
        );
        assert_eq!(fresh, r#"{"ok":true,"id":4,"name":"fresh"}"#);
        st.handle_line(r#"{"op":"wait","id":4}"#);
        let (events, _) = st.obs.bus().recorder_snapshot();
        let jobs = |kind: &str| {
            events.iter().filter(|e| e.kind == kind).map(|e| e.job).collect::<Vec<u64>>()
        };
        assert_eq!(jobs("submitted"), [1, 4]);
        assert_eq!(jobs("finished"), [1, 4]);
        st.sup.shutdown(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pattern is compiled in the request handler, so the largest ones a
    /// client can name must compile without listing their automorphism
    /// groups (a 12-clique's is 479 001 600 vectors).
    #[test]
    fn the_largest_patterns_a_client_can_name_are_answered() {
        let st = state(ServeConfig::default());
        for pattern in ["12-clique", "16-clique", "15-star", "16-cycle", "16-path"] {
            let resp = st.handle_line(&format!(
                r#"{{"op":"submit","pattern":"{pattern}","graph":"gen:complete,n=2"}}"#
            ));
            let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).expect(&resp);
            let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
            assert!(done.contains(r#""counts":[0]"#), "{pattern}: {done}");
        }
        st.sup.shutdown(None);
    }

    /// Random mutations of valid submit lines — pattern names up to 16
    /// vertices, `gen:` kinds, keys and values, the other fields' numbers,
    /// and the bytes — each get one JSON object with `ok`, nothing panics,
    /// and the graph cache never holds more than the budget. The
    /// supervisor is live, so admitted jobs are mined, a 16-clique on a
    /// dense graph that fits the budget among them: the drain's pause
    /// stops a running task inside, so the final drain still returns
    /// within 2 s.
    #[test]
    fn mutated_submit_lines_get_one_structured_reply_within_the_budget() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const BUDGET: u64 = 1 << 20;
        const NAMED: &[&str] = &["triangle", "wedge", "diamond", "house", "tailed-triangle", ""];
        const SHAPES: &[&str] = &["clique", "cycle", "path", "star", "wheel"];
        const KINDS: &[&str] = &["powerlaw", "pa", "er", "complete", "caveman", "warp", ""];
        const KEYS: &[&str] =
            &["n", "m", "p", "closure", "seed", "communities", "size", "bridges", "q"];
        const NUMBERS: &[&str] = &[
            "0",
            "1",
            "2",
            "3",
            "7",
            "16",
            "17",
            "40",
            "300",
            "1000",
            "65536",
            "1048576",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "-1",
            "0.5",
            "1e3",
            "1e999",
            "nan",
            "",
            "x",
        ];
        const FIELDS: &[&str] =
            &["threads", "priority", "budget", "deadline", "max_attempts", "induced", "name"];
        const VALUES: &[&str] = &[
            "0",
            "1",
            "-1",
            "2.5",
            "1e20",
            "1e999",
            "18446744073709551616",
            "\"3\"",
            "true",
            "null",
        ];
        let st = state(ServeConfig { memory_budget_bytes: BUDGET, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let pick = |rng: &mut StdRng, from: &[&str]| from[rng.gen_range(0..from.len())].to_string();
        for case in 0..400 {
            let pattern = match rng.gen_range(0..3) {
                0 => pick(&mut rng, NAMED),
                1 => format!("{}-{}", rng.gen_range(0..=17u32), pick(&mut rng, SHAPES)),
                _ => (0..rng.gen_range(1..6))
                    .map(|_| format!("{}-{}", rng.gen_range(0..17u32), rng.gen_range(0..17u32)))
                    .collect::<Vec<_>>()
                    .join(","),
            };
            let mut graph = format!("gen:{}", pick(&mut rng, KINDS));
            for _ in 0..rng.gen_range(0..4) {
                graph += &format!(",{}={}", pick(&mut rng, KEYS), pick(&mut rng, NUMBERS));
            }
            let mut line = format!(r#"{{"op":"submit","pattern":"{pattern}","graph":"{graph}""#);
            for _ in 0..rng.gen_range(0..3) {
                line += &format!(r#","{}":{}"#, pick(&mut rng, FIELDS), pick(&mut rng, VALUES));
            }
            line.push('}');
            // One line in four also loses, gains or ends at a byte.
            if rng.gen_bool(0.25) {
                let mut bytes = line.into_bytes();
                let at = rng.gen_range(0..bytes.len());
                match rng.gen_range(0..3) {
                    0 => drop(bytes.remove(at)),
                    1 => bytes.insert(at, b"{}[]\",:\\0-e"[rng.gen_range(0..11usize)]),
                    _ => bytes.truncate(at),
                }
                line = String::from_utf8(bytes).expect("the lines are ASCII");
            }
            let reply = st.handle_line(&line);
            let v = jsonl::parse(&reply)
                .unwrap_or_else(|e| panic!("case {case}: {line} -> {reply} is not JSON: {e}"));
            assert!(
                v.get("ok").and_then(Json::as_bool).is_some(),
                "case {case}: {line} -> {reply}"
            );
            assert!(st.memory_bytes() <= BUDGET, "case {case}: {line}");
        }
        let drain = Instant::now();
        st.sup.shutdown(None);
        assert!(drain.elapsed() < Duration::from_secs(2), "drained in {:?}", drain.elapsed());
    }

    /// A deadline stops a job inside its first task: no task of a
    /// 16-clique on K₃₀₀ ever ends, yet the job is answered `deadline`
    /// about when its allowance runs out (target 0.2 s; 1 s of slack for a
    /// loaded host).
    #[test]
    fn a_deadline_stops_a_sixteen_clique_inside_its_first_task() {
        let st = state(ServeConfig::default());
        let submitted = Instant::now();
        let resp = st.handle_line(
            r#"{"op":"submit","pattern":"16-clique","graph":"gen:complete,n=300","deadline":0.1}"#,
        );
        let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).expect(&resp);
        let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        let took = submitted.elapsed();
        let d = jsonl::parse(&done).unwrap();
        assert_eq!(d.get("status").and_then(Json::as_str), Some("DeadlineExceeded"), "{done}");
        assert_eq!(d.get("exit_code").and_then(Json::as_i64), Some(3), "{done}");
        assert!(done.contains(r#""counts":[0]"#), "nothing of the task is counted: {done}");
        assert!(took < Duration::from_secs(1), "answered after {took:?}");
        st.sup.shutdown(None);
    }

    #[test]
    fn wait_returns_when_the_job_finishes_not_a_poll_later() {
        let st = state(ServeConfig::default());
        let mut gaps_us = Vec::new();
        for _ in 0..20 {
            // A few milliseconds of mining, so `wait` is blocked when the
            // job resolves.
            let resp = st.handle_line(
                r#"{"op":"submit","pattern":"triangle","graph":"gen:powerlaw,n=3000,m=6,closure=0.5,seed=4"}"#,
            );
            let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).unwrap();
            let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
            let returned_us = st.obs.clock().now_us();
            assert!(done.contains(r#""status":"Complete""#), "{done}");
            let (events, _) = st.obs.bus().recorder_snapshot();
            let finished = events
                .iter()
                .find(|e| e.job == id && e.kind == "finished")
                .expect("a resolved job has published `finished`");
            gaps_us.push(returned_us - finished.ts_us);
        }
        gaps_us.sort_unstable();
        // The 10 ms poll this replaces had a median gap of 5 ms.
        assert!(gaps_us[10] < 2_000, "finished → wait reply gaps (us): {gaps_us:?}");
        st.sup.shutdown(None);
    }

    #[test]
    fn concurrent_submits_of_a_never_seen_spec_load_it_once() {
        use std::sync::atomic::AtomicUsize;
        let st = state(ServeConfig::default());
        let loads = AtomicUsize::new(0);
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        // Every load reports in and then holds until released, so a second
        // load running beside the first is seen, not raced.
        let load = |spec: &str| {
            loads.fetch_add(1, Ordering::SeqCst);
            entered_tx.send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            graphspec::load(spec)
        };
        const SPEC: &str = "gen:complete,n=9";
        let (a, b) = std::thread::scope(|scope| {
            let first = scope.spawn(|| st.graph_for(SPEC, false, true, load));
            entered_rx.recv().unwrap();
            let second = scope.spawn(|| st.graph_for(SPEC, false, true, load));
            // The second caller either waits on the first (and never
            // reports in) or, were the load not single-flight, is in its
            // own load well within this.
            let doubled = entered_rx.recv_timeout(Duration::from_millis(300)).is_ok();
            release_tx.send(()).unwrap();
            release_tx.send(()).unwrap();
            assert!(!doubled, "two submits of one new spec both loaded it");
            (first.join().unwrap().unwrap(), second.join().unwrap().unwrap())
        });
        assert_eq!(loads.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&a.graph, &b.graph), "both submits share the one graph");
        // Cached from here on: no load at all.
        let c = st.graph_for(SPEC, false, true, |_| panic!("a cached spec must not load")).unwrap();
        assert!(Arc::ptr_eq(&a.graph, &c.graph));
        st.sup.shutdown(None);
    }

    #[test]
    fn a_failed_graph_load_is_not_cached() {
        let st = state(ServeConfig::default());
        const SPEC: &str = "gen:complete,n=5";
        let err = st.graph_for(SPEC, false, false, |_| Err("disk on fire".into())).unwrap_err();
        assert_eq!(err, "disk on fire");
        // A panicking load unwinds to the caller and leaves no marker for
        // the next submit to wait on either, and no reservation.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            st.graph_for(SPEC, false, false, |_| panic!("loader bug"))
        }));
        assert!(panicked.is_err());
        assert!(lock_recover(&st.graphs, "graph cache").entries.is_empty());
        assert_eq!(st.memory_bytes(), 0);
        assert_eq!(
            st.graph_for(SPEC, false, false, graphspec::load).unwrap().graph.num_vertices(),
            5
        );
        assert_eq!(st.memory_bytes(), graphspec::csr_bytes(5, 20, false));
        st.sup.shutdown(None);
    }

    /// `line` with the number after the first `"<key>":` that follows
    /// `after` replaced by `_`: the clock-driven values of a pinned line.
    fn masked(line: &str, after: &str, key: &str) -> String {
        let from = line.find(after).unwrap_or_else(|| panic!("no {after} in {line}"));
        let needle = format!("\"{key}\":");
        let at = from + line[from..].find(&needle).unwrap_or_else(|| panic!("no {key} in {line}"));
        let start = at + needle.len();
        let len = line[start..].find(|c: char| !c.is_ascii_digit() && c != '.').unwrap_or(0);
        format!("{}_{}", &line[..start], &line[start + len..])
    }

    #[test]
    fn fixed_reply_lines_are_pinned() {
        let st = state(ServeConfig::default());
        assert_eq!(ready_line("socket"), r#"{"event":"ready","transport":"socket"}"#);
        assert_eq!(subscribed_line(), r#"{"ok":true,"streaming":"events"}"#);
        assert_eq!(dropped_line(7), r#"{"event":"dropped","dropped_total":7}"#);
        assert_eq!(err_line("no \"op\"\n"), r#"{"ok":false,"error":"no \"op\"\n"}"#);
        assert_eq!(
            too_large_line(16),
            r#"{"ok":false,"error":"request too large: line exceeded 16 bytes"}"#
        );
        assert_eq!(st.handle_line(r#"{"op":"cancel","id":99}"#), r#"{"ok":false}"#);
        let submitted = st.handle_line(
            r#"{"op":"submit","name":"t\"1","pattern":"triangle","graph":"gen:complete,n=5"}"#,
        );
        assert_eq!(submitted, r#"{"ok":true,"id":1,"name":"t\"1"}"#);
        st.sup.shutdown(None);
    }

    /// The `metrics` op's JSON reply on a fresh server, every byte but the
    /// uptime (`_` in the golden file).
    #[test]
    fn metrics_json_reply_is_pinned() {
        let st = state(ServeConfig::default());
        let reply = st.handle_line(r#"{"op":"metrics"}"#);
        let reply = masked(&reply, "fm_serve_uptime_seconds", "value");
        assert_eq!(reply, include_str!("../../tests/golden/serve_metrics_reply.txt").trim_end());
        st.sup.shutdown(None);
    }

    /// `status` with jobs of two priorities queued behind a running one.
    #[test]
    fn status_with_two_priorities_queued_is_pinned() {
        let st = state(ServeConfig {
            supervisor: SupervisorConfig { workers: 1, max_running: 1, ..Default::default() },
            ..Default::default()
        });
        // Seconds of mining: still running while the other two queue.
        let graph = "gen:powerlaw,n=20000,m=8,closure=0.5,seed=1";
        for (name, priority) in [("long", 10), ("mid", 1), ("low", -3)] {
            let resp = st.handle_line(&format!(
                r#"{{"op":"submit","name":"{name}","pattern":"house","graph":"{graph}","priority":{priority}}}"#
            ));
            assert!(resp.contains(r#""ok":true"#), "{resp}");
        }
        let status = st.handle_line(r#"{"op":"status"}"#);
        let status = masked(&masked(&status, "", "uptime_seconds"), "", "events_published");
        assert_eq!(
            status,
            r#"{"ok":true,"submitted":3,"rejected":0,"preempted":0,"completed":0,"drained":0,"queued":2,"queued_by_priority":{"-3":1,"1":1},"running":1,"memory_bytes":1439720,"memory_budget_bytes":4294967296,"uptime_seconds":_,"events_published":_,"events_dropped":0,"journal_records":0,"journal_replayed":0,"journal_truncated_bytes":0,"journal_recovered_jobs":0}"#
        );
        for id in 1..=3 {
            st.handle_line(&format!(r#"{{"op":"cancel","id":{id}}}"#));
        }
        st.sup.shutdown(None);
    }

    #[test]
    fn canonical_req_fingerprint_is_stable_across_resubmission() {
        // Submitting the journaled canonical form must reproduce the same
        // fingerprint — the invariant replay relies on.
        let st = state(ServeConfig::default());
        let resp = st.handle_line(
            r#"{"op":"submit","pattern":"triangle","graph":"gen:complete,n=5","budget":100,"deadline":60.5,"priority":-2}"#,
        );
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        let (canon, fp) = (canonical_req(&metas(&st)[0]), metas(&st)[0].fp);
        let resp2 = st.submit(&canon, None, None).unwrap();
        assert!(resp2.contains(r#""ok":true"#), "{resp2}");
        assert_eq!(metas(&st)[1].fp, fp, "canonical round-trip changed the fingerprint");
        st.sup.shutdown(None);
    }

    #[test]
    fn drain_writes_manifest_and_restart_resumes_bit_identically() {
        let spool = std::env::temp_dir().join(format!("fm-serve-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        const SUBMIT: &str = r#"{"op":"submit","name":"ref","pattern":"house","graph":"gen:powerlaw,n=400,m=4,closure=0.5,seed=7"}"#;
        let cfg = |spool: Option<PathBuf>| ServeConfig {
            spool,
            supervisor: SupervisorConfig { workers: 1, stint_tasks: 4, ..Default::default() },
            ..Default::default()
        };
        let id_of = |resp: &str| jsonl::parse(resp).unwrap().get("id").and_then(Json::as_u64);
        let counts_of = |line: &str| {
            let v = jsonl::parse(line).unwrap();
            v.get("counts").and_then(|c| c.as_arr().map(<[Json]>::to_vec)).unwrap()
        };
        // Reference: the same job, run clean to completion without a spool.
        let clean = state(cfg(None));
        let id = id_of(&clean.handle_line(SUBMIT)).unwrap();
        let reference = clean.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        clean.sup.shutdown(None);

        // Interrupted: submit, drain almost immediately, then restart on
        // the same spool, which journals beside its checkpoints.
        let first = recovered(cfg(Some(spool.clone())));
        let id = id_of(&first.handle_line(SUBMIT)).unwrap();
        assert_eq!(first.finish(), 0);
        drop(first);
        assert!(spool.join("journal").exists(), "a spool alone journals");
        let second = recovered(cfg(Some(spool.clone())));
        // Whether the job finished before the drain is timing-dependent:
        // either way `wait` on the id the client holds gives the clean
        // counts — replayed from the record, or resumed from the drain.
        let line = second.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        assert_eq!(counts_of(&line), counts_of(&reference), "drain + resume must be bit-identical");
        let resumed = second.gauges.recovered_jobs.load(Ordering::SeqCst);
        assert_eq!(resumed == 1, !line.contains(r#""replayed":true"#), "{line}");
        second.sup.shutdown(None);
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// A drained checkpoint that loads but belongs to another graph — the
    /// input ids an older build mined a 4-cycle job on, before `serve`
    /// ranked its graph — does not strand the job's id: the job runs again
    /// from scratch, to the count of a clean run.
    #[test]
    fn a_drained_checkpoint_of_another_graph_restarts_from_scratch() {
        let dir = std::env::temp_dir().join(format!("fm-serve-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (path, ckpt) = (dir.join("jobs.journal"), dir.join("job-1.ckpt"));
        const GRAPH: &str = "gen:powerlaw,n=400,m=4,closure=0.5,seed=7";
        let clean = state(ServeConfig::default());
        let resp = clean.handle_line(&format!(
            r#"{{"op":"submit","name":"old","pattern":"4-cycle","graph":"{GRAPH}"}}"#
        ));
        let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).expect(&resp);
        let reference = clean.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(reference.contains(r#""status":"Complete""#), "{reference}");
        let meta = Arc::clone(&metas(&clean)[0]);
        clean.sup.shutdown(None);
        // The same job drained part way through on the input graph.
        let input = Arc::new(graphspec::load(GRAPH).unwrap());
        let core = fm_engine::JobCore::new(input, Arc::clone(&meta.plan), meta.engine_config());
        assert!(matches!(core.run_stint(8), fm_engine::Stint::Ran { drained: false, .. }));
        core.snapshot().write_atomic(&ckpt).unwrap();
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            let drained = Reported::Drained { checkpoint: Some(ckpt.display().to_string()) };
            for record in [
                JournalRecord::Submitted { id: 1, fp: meta.fp, req: canonical_req(&meta) },
                JournalRecord::Outcome { id: 1, fp: meta.fp, outcome: drained },
            ] {
                journal.append(&record).unwrap();
            }
        }
        let st = recovered(ServeConfig { journal: Some(path), ..Default::default() });
        assert_eq!(st.gauges.recovered_jobs.load(Ordering::SeqCst), 1);
        let line = st.handle_line(r#"{"op":"wait","id":1}"#);
        let counts = |line: &str| jsonl::parse(line).unwrap().get("counts").cloned();
        assert!(line.contains(r#""status":"Complete""#), "{line}");
        assert_eq!(counts(&line), counts(&reference));
        st.sup.shutdown(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Orienting and pair-join plans mine the ranked copy of their graph
    /// and every other plan the input, each copy cached and charged on its
    /// own; both count what the engine counts on the input.
    #[test]
    fn orienting_and_pair_join_plans_mine_the_ranked_copy() {
        let plan = |p: &str| compile(&p.parse().unwrap(), CompileOptions::default());
        for p in ["4-cycle", "triangle", "4-clique"] {
            assert!(mines_ranked(&plan(p)), "{p}");
        }
        for p in ["diamond", "house", "5-cycle", "wedge", "4-path"] {
            assert!(!mines_ranked(&plan(p)), "{p}");
        }
        const GRAPH: &str = "gen:powerlaw,n=300,m=4,closure=0.5,seed=3";
        let input = graphspec::load(GRAPH).unwrap();
        let st = state(ServeConfig::default());
        for p in ["4-cycle", "diamond"] {
            let resp =
                st.handle_line(&format!(r#"{{"op":"submit","pattern":"{p}","graph":"{GRAPH}"}}"#));
            let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).expect(&resp);
            let done = st.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
            let want = fm_engine::mine(&input, &plan(p), &EngineConfig::default());
            let want = format!(r#""counts":[{}]"#, want.unique_counts(&plan(p))[0]);
            assert!(done.contains(&want), "{p}: {done} against {want}");
        }
        let (n, m) = (input.num_vertices() as u64, input.num_directed_edges() as u64);
        let cache = lock_recover(&st.graphs, "graph cache");
        let mut kept: Vec<_> = cache.entries.iter().map(|(k, c)| (k.1, c.bytes)).collect();
        kept.sort();
        assert_eq!(
            kept,
            [(false, graph_bytes(n, m, false, false)), (true, graph_bytes(n, m, false, true))]
        );
        drop(cache);
        st.sup.shutdown(None);
    }

    /// A ranked copy is charged its oriented copy once an orienting plan
    /// mines it, whichever plan loaded it: a 4-cycle then a triangle holds
    /// what a triangle then a 4-cycle holds.
    #[test]
    fn a_ranked_graph_is_charged_its_oriented_copy_in_either_order() {
        const GRAPH: &str = "gen:powerlaw,n=300,m=4,closure=0.5,seed=3";
        let mut held = Vec::new();
        for order in [["4-cycle", "triangle"], ["triangle", "4-cycle"]] {
            let st = state(ServeConfig::default());
            for p in order {
                let submit = format!(r#"{{"op":"submit","pattern":"{p}","graph":"{GRAPH}"}}"#);
                let resp = st.handle_line(&submit);
                let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64);
                let done = st.handle_line(&format!(r#"{{"op":"wait","id":{}}}"#, id.expect(&resp)));
                assert!(done.contains(r#""status":"Complete""#), "{p}: {done}");
            }
            held.push(st.memory_bytes());
            st.sup.shutdown(None);
        }
        let input = graphspec::load(GRAPH).unwrap();
        let (n, m) = (input.num_vertices() as u64, input.num_directed_edges() as u64);
        assert_eq!(held, [graph_bytes(n, m, true, true); 2]);
    }

    /// Raising a cached copy's charge is admitted as a load: over the
    /// budget the orienting submit is refused and the copy stays cached at
    /// its old charge.
    #[test]
    fn a_refused_recharge_keeps_the_old_charge() {
        const SPEC: &str = "k16.txt";
        let (csr, labels) = (1_096, 64);
        let st = state(ServeConfig { memory_budget_bytes: csr + labels, ..Default::default() });
        let load = |_: &str| Ok(fm_graph::generators::complete(16));
        assert!(st.graph_for(SPEC, false, true, load).is_ok());
        let refused = st.graph_for(SPEC, true, true, |_| panic!("a cached spec must not load"));
        let want = format!(
            "graph {SPEC} needs up to {} B, over the {} B memory budget",
            2 * csr + labels,
            csr + labels
        );
        assert_eq!(refused.unwrap_err(), want);
        assert_eq!(st.memory_bytes(), csr + labels);
        assert!(st.graph_for(SPEC, false, true, |_| panic!("still cached")).is_ok());
        st.sup.shutdown(None);
    }

    /// A `gen:` spec's ranked copy reserves what ranking holds at once — the
    /// generated graph, its renumbered copy and the labels — whether or not
    /// its plan orients; once ranked it is charged what it keeps.
    #[test]
    fn a_ranked_gen_spec_reserves_the_ranking_transient() {
        const SPEC: &str = "gen:complete,n=16";
        // (16 + 1)·8 + 240·4 = 1 096 B a CSR, 64 B of labels.
        let (csr, labels) = (1_096, 64);
        assert_eq!(graphspec::csr_bytes(16, 240, false), csr);
        let reserve = 2 * csr + labels;
        for (oriented, kept) in [(false, csr + labels), (true, 2 * csr + labels)] {
            // One byte short of the reservation is refused, unbuilt.
            let st = state(ServeConfig { memory_budget_bytes: reserve - 1, ..Default::default() });
            let refused = st.graph_for(SPEC, oriented, true, |_| panic!("never built"));
            let over = reserve - 1;
            let want =
                format!("graph {SPEC} needs up to {reserve} B, over the {over} B memory budget");
            assert_eq!(refused.unwrap_err(), want);
            st.sup.shutdown(None);
            // At the reservation it is built, and charged what it keeps.
            let st = state(ServeConfig { memory_budget_bytes: reserve, ..Default::default() });
            let mut seen = 0;
            let loaded = st.graph_for(SPEC, oriented, true, |spec| {
                // While it is built the whole reservation stands.
                seen = st.memory_bytes();
                graphspec::load(spec)
            });
            assert_eq!(loaded.unwrap().labels.map(|l| l.len()), Some(16));
            assert_eq!((seen, st.memory_bytes()), (reserve, kept));
            st.sup.shutdown(None);
        }
    }
}
