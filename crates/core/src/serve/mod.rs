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
//! `max_attempts: 0` means 1 (a job always gets its first attempt).
//! `budget` caps the job's set-op iterations and `deadline` gives it a
//! wall-clock allowance in (fractional) seconds; either stop surfaces as
//! an exact partial result with the `count` command's exit-code semantics
//! (4 budget exhausted, 3 deadline exceeded) on the `wait` response and
//! summary line. Both survive a drain in the resume manifest; the
//! deadline is re-anchored when the restarted process resubmits the job
//! (the allowance is per attempt — wall time the old process spent does
//! not count against the new one).
//!
//! On SIGTERM/SIGINT (or the `shutdown` op — both arm the same
//! [`fm_jobs::signal`] latch) the supervisor drains every unfinished job
//! to a checkpoint under `--spool` and records a resubmission manifest;
//! a restarted `serve` with the same spool resumes each job and its final
//! counts are bit-identical to an uninterrupted run. At exit the process
//! prints one `{"event":"job",...}` summary line per terminal job on
//! stdout, sorted by job name, so restart tooling can diff runs.
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
//! ## Crash safety (`--journal`)
//!
//! The spool covers *graceful* shutdown only. `--journal PATH` adds a
//! durable append-only job journal ([`fm_jobs::journal`]): every
//! submission is journaled (with a canonical-request fingerprint) before
//! the client gets its response, and every terminal outcome is journaled
//! on the main loop's next tick after the job resolves — two records and
//! two fsyncs a job, one of them ahead of a reply. After a hard kill
//! (SIGKILL, OOM, power loss) a
//! restart with the same journal replays it: jobs journaled `Finished`
//! answer `wait` from the recorded outcome (fingerprint-validated, marked
//! `"replayed":true`); unresolved jobs are recovered — from a drained
//! checkpoint when one was journaled, otherwise resubmitted from the
//! journaled spec — and converge to the same bit-identical counts as an
//! uninterrupted run. Recovery keeps each job's original id, so a client
//! reconnecting after the crash `wait`s on the id it was given.
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
use fm_graph::CsrGraph;
use fm_jobs::journal::{self, Journal, JournalRecord, Replay, Reported};
use fm_jobs::jsonl::{self, Json, ObjWriter};
use fm_jobs::{signal, JobHandle, JobObserver, JobOutcome, JobSpec, Supervisor, SupervisorConfig};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use fm_telemetry::{chrome_trace_json, TraceClock, DEFAULT_RECORDER_CAPACITY};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use wire::{canonical_req, err_line, field, int_field, manifest_line, reported, resume_entry};
use wire::{summary_line, wait_line};

/// Default cap on one request line (bytes); `--max-request-bytes`.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;
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
    /// Directory for drain checkpoints and the resume manifest.
    pub spool: Option<PathBuf>,
    /// Append-only job journal for hard-kill recovery; `None` disables.
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
    /// Wall-clock allowance in seconds. The absolute deadline is anchored
    /// at submit time, so this original span is what a resume replays.
    deadline_secs: Option<f64>,
    /// Fingerprint of the canonical submit request ([`canonical_req`]);
    /// pinned into the job's submitted, finished and drained records.
    fp: u64,
    /// True when this job was resubmitted by journal replay.
    recovered: bool,
    plan: Arc<ExecutionPlan>,
}

/// One job of the table, keyed by the id its client holds.
enum Entry {
    /// Submitted to this process's supervisor. A job recovered from the
    /// journal keeps its pre-crash key while its handle gets a fresh id.
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

/// A graph-cache entry: loaded, or being loaded by the one submit that
/// found the spec missing (everyone else waits on `ServeState::graph_loaded`).
enum CachedGraph {
    Loading,
    Ready(Arc<CsrGraph>),
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
    graphs: Mutex<HashMap<String, CachedGraph>>,
    /// Notified whenever a `CachedGraph::Loading` entry is settled.
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
    fn new(cfg: ServeConfig) -> Result<(ServeState, Replay), String> {
        // One clock origin for the whole session: supervisor lifecycle
        // spans and per-job engine spans land on one Perfetto timeline.
        let obs = Arc::new(JobObserver::new(
            TraceClock::start(),
            cfg.recorder_cap,
            cfg.trace_out.is_some(),
        ));
        let sup = Supervisor::with_observer(cfg.supervisor.clone(), Some(Arc::clone(&obs)));
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
            graphs: Mutex::new(HashMap::new()),
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

    /// The live job a client knows as `id`: its handle and metadata, taken
    /// out of the table so the caller does not block holding its lock.
    fn tracked(&self, id: u64) -> Option<(JobHandle, Arc<JobMeta>)> {
        let jobs = lock_recover(&self.jobs, "job table");
        jobs.get(&id).and_then(Entry::live).map(|(handle, meta)| (handle.clone(), Arc::clone(meta)))
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

    fn graph_for(&self, spec: &str) -> Result<Arc<CsrGraph>, String> {
        self.graph_for_with(spec, graphspec::load)
    }

    /// The cached graph for `spec`, loading it with `load` on a miss.
    /// Single-flight: of any number of concurrent submits of one
    /// never-seen spec, one loads (outside the lock — file parses and
    /// generators can be slow) and the rest wait for it. A failed load is
    /// not cached; the next caller, waiting or later, tries again.
    fn graph_for_with(
        &self,
        spec: &str,
        load: impl FnOnce(&str) -> Result<CsrGraph, String>,
    ) -> Result<Arc<CsrGraph>, String> {
        let mut cache = lock_recover(&self.graphs, "graph cache");
        loop {
            match cache.get(spec) {
                Some(CachedGraph::Ready(g)) => return Ok(Arc::clone(g)),
                Some(CachedGraph::Loading) => {
                    cache = self.graph_loaded.wait(cache).unwrap_or_else(|e| e.into_inner());
                }
                None => break,
            }
        }
        cache.insert(spec.to_string(), CachedGraph::Loading);
        drop(cache);
        // A panicking load must not leave `Loading` behind for every later
        // submit of this spec to wait on.
        let loaded =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| load(spec).map(Arc::new)));
        let mut cache = lock_recover(&self.graphs, "graph cache");
        match &loaded {
            Ok(Ok(g)) => cache.insert(spec.to_string(), CachedGraph::Ready(Arc::clone(g))),
            _ => cache.remove(spec),
        };
        drop(cache);
        self.graph_loaded.notify_all();
        loaded.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
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
        // 0 is admitted and means 1: a job always gets its first attempt.
        let max_attempts = int_field(req, "max_attempts", 0..=u32::MAX)?;
        let budget = int_field(req, "budget", 0..=u64::MAX)?;
        let deadline_secs = field(req, "deadline", "a number of seconds", Json::as_f64)?;
        if let Some(s) = deadline_secs {
            if !s.is_finite() || s <= 0.0 {
                return Err(format!("deadline must be a positive number of seconds, got {s}"));
            }
        }
        let pattern: Pattern =
            pattern_spec.parse().map_err(|e| format!("bad pattern {pattern_spec:?}: {e}"))?;
        let plan = Arc::new(compile(&pattern, CompileOptions { induced, ..Default::default() }));
        let graph = self.graph_for(graph_spec)?;
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
        let mut engine_cfg = EngineConfig::with_threads(threads);
        engine_cfg.budget.max_setop_iterations = budget;
        // The deadline anchors here, at admission — like `count`'s
        // `--timeout` anchoring after graph load — so queue wait counts
        // against it but a drained job resubmitted from the manifest gets
        // its full allowance back.
        engine_cfg.budget.deadline =
            deadline_secs.and_then(|s| Instant::now().checked_add(Duration::from_secs_f64(s)));
        let spec = JobSpec {
            priority,
            graph_key: graphspec::fingerprint(graph_spec),
            max_attempts,
            resume,
            ..JobSpec::new(name, graph, plan, engine_cfg)
        };
        let handle = self.sup.submit(spec);
        self.submitted_any.store(true, Ordering::SeqCst);
        // Fresh submissions are known to clients by their supervisor id;
        // recovered ones keep the id the pre-crash client was given.
        let id = recover_id.unwrap_or_else(|| handle.id());
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
                let line = ObjWriter::new()
                    .bool("ok", false)
                    .u64("id", id)
                    .str("outcome", "rejected")
                    .i64("exit_code", 8)
                    .str("error", &reason)
                    .finish();
                let outcome = Reported::Rejected { reason };
                self.journal_append(&JournalRecord::Outcome { id, fp: meta.fp, outcome });
                (line, true)
            }
            _ => {
                let line =
                    ObjWriter::new().bool("ok", true).u64("id", id).str("name", handle.name());
                (line.finish(), false)
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
                    // Clients speak table ids; the cancel goes to the handle.
                    let ok = self.tracked(id).is_some_and(|(h, _)| self.sup.cancel(h.id()));
                    if ok {
                        let outcome = Reported::Cancelled;
                        self.journal_append(&JournalRecord::Outcome { id, fp: 0, outcome });
                    }
                    ObjWriter::new().bool("ok", ok).finish()
                }
                None => err_line("cancel needs an id"),
            },
            "shutdown" => {
                signal::request_termination();
                ObjWriter::new().bool("ok", true).finish()
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
        // `{"<priority>":<queued>}`, priorities ascending — the status
        // op's per-priority queue-depth breakdown.
        let mut by_priority = String::from("{");
        for (i, (priority, depth)) in s.queued_by_priority.iter().enumerate() {
            if i > 0 {
                by_priority.push(',');
            }
            by_priority.push_str(&format!("\"{priority}\":{depth}"));
        }
        by_priority.push('}');
        let mut w = ObjWriter::new()
            .bool("ok", true)
            .u64("submitted", s.submitted)
            .u64("rejected", s.rejected)
            .u64("preempted", s.preempted)
            .u64("retries", s.retries)
            .u64("completed", s.completed)
            .u64("drained", s.drained)
            .u64("queued", s.queued)
            .raw("queued_by_priority", &by_priority)
            .u64("running", s.running)
            .u64("memory_bytes", s.memory_bytes)
            .u64("memory_budget_bytes", s.memory_budget_bytes)
            .u64("uptime_seconds", self.started.elapsed().as_secs())
            .u64("events_published", self.obs.bus().published())
            .u64("events_dropped", self.obs.bus().dropped_total());
        for (key, _, _, value) in self.gauges.list() {
            w = w.u64(&format!("journal_{key}"), value);
        }
        w.finish()
    }

    fn metrics(&self, req: &Json) -> String {
        let mut doc = self.sup.metrics();
        doc.gauge(
            "fm_serve_uptime_seconds",
            "Seconds since the serve process started",
            self.started.elapsed().as_secs_f64(),
        );
        self.obs.metrics_into(&mut doc);
        for (_, metric, help, value) in self.gauges.list() {
            doc.gauge(metric, help, value as f64);
        }
        match req.get("format").and_then(Json::as_str).unwrap_or("json") {
            "prometheus" => ObjWriter::new().bool("ok", true).str("body", &doc.to_prometheus()),
            _ => ObjWriter::new().bool("ok", true).raw("body", &doc.to_json()),
        }
        .finish()
    }

    /// Replays the journal folded by `new`, then the drain manifest.
    ///
    /// Journal replay: a job whose end was journaled enters the table as
    /// replayed (post-restart `wait` answers from the record — never a
    /// recomputation, never a fabricated count); an unresolved one is
    /// resubmitted under its original id, resuming from a journaled drain
    /// checkpoint when one loads cleanly and from scratch otherwise —
    /// mining is deterministic, so either path converges to the
    /// bit-identical counts of an uninterrupted run. No new `Submitted`
    /// record is written for a recovered job: the original record stays
    /// the marker, so a second crash *during* recovery just replays the
    /// same unresolved set again.
    fn recover(&self, replay: Replay) {
        if replay.orphans > 0 || replay.fp_mismatches > 0 {
            eprintln!(
                "journal: ignored {} orphan records and {} fingerprint mismatches",
                replay.orphans, replay.fp_mismatches
            );
        }
        // New handle ids must never collide with journaled ids.
        self.sup.reserve_ids(replay.max_id);
        let mut recovered_ckpts: HashSet<String> = HashSet::new();
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
                recovered_ckpts.insert(path);
                loaded.ok()
            });
            self.gauges.recovered_jobs.fetch_add(1, Ordering::SeqCst);
            let resp = self.submit(&job.req, resume, Some(job.id)).unwrap_or_else(|e| err_line(&e));
            eprintln!("recovered from journal: {resp}");
        }
        self.resume_manifest(&recovered_ckpts);
    }

    /// Resubmits every job recorded by a previous process's drain. The
    /// manifest is consumed (deleted) first so a crash mid-resume cannot
    /// double-submit on the next restart. Entries whose checkpoint the
    /// journal replay already recovered are skipped — the journal owns
    /// those jobs' identities.
    fn resume_manifest(&self, recovered_ckpts: &HashSet<String>) {
        let Some(spool) = self.cfg.spool.as_ref() else { return };
        let manifest = spool.join("manifest.jsonl");
        let Ok(body) = std::fs::read_to_string(&manifest) else { return };
        let _ = std::fs::remove_file(&manifest);
        for line in body.lines().filter(|l| !l.trim().is_empty()) {
            let journal_owns = jsonl::parse(line).ok().is_some_and(|req| {
                req.get("checkpoint")
                    .and_then(Json::as_str)
                    .is_some_and(|p| recovered_ckpts.contains(p))
            });
            if journal_owns {
                continue;
            }
            match resume_entry(line) {
                Ok((req, ckpt)) => {
                    let resp = self.submit(&req, Some(ckpt), None).unwrap_or_else(|e| err_line(&e));
                    eprintln!("resumed from manifest: {resp}");
                }
                Err(e) => eprintln!("manifest entry skipped: {e}"),
            }
        }
    }

    /// Drains the supervisor, writes the resume manifest, journals every
    /// terminal/drained outcome, and prints the per-job summary lines.
    /// Returns the process exit code.
    fn finish(&self) -> i32 {
        let drained = self.sup.shutdown(self.cfg.spool.as_deref());
        // After the drain every handle is resolved (Finished or Drained);
        // journal the stragglers before touching the manifest so a crash
        // right here still recovers from the journal alone.
        self.journal_tick();
        let jobs = lock_recover(&self.jobs, "job table");
        if !drained.is_empty() {
            let mut manifest = String::new();
            for d in &drained {
                if let Some(e) = &d.error {
                    eprintln!("drain: job {} ({}) lost its checkpoint: {e}", d.id, d.name);
                }
                let Some(ckpt) = &d.checkpoint else { continue };
                let mut live = jobs.values().filter_map(Entry::live);
                let Some((_, meta)) = live.find(|(h, _)| h.id() == d.id) else { continue };
                manifest.push_str(&manifest_line(meta, ckpt));
                manifest.push('\n');
                eprintln!("drained: job {} ({}) -> {}", d.id, d.name, ckpt.display());
            }
            if let Some(spool) = self.cfg.spool.as_ref() {
                let path = spool.join("manifest.jsonl");
                if let Err(e) = std::fs::write(&path, manifest) {
                    eprintln!("drain: manifest write failed: {e}");
                }
            }
        }
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
            let mut w = ObjWriter::new().str("event", "journal");
            for (key, _, _, value) in self.gauges.list() {
                w = w.u64(key, value);
            }
            let _ = writeln!(out, "{}", w.finish());
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
        st.sup.shutdown(None);
    }

    #[test]
    fn saturated_submit_reports_rejection_with_exit_code_8() {
        let st = state(ServeConfig {
            supervisor: SupervisorConfig { memory_budget_bytes: 1, ..Default::default() },
            ..Default::default()
        });
        let resp =
            st.handle_line(r#"{"op":"submit","pattern":"triangle","graph":"gen:complete,n=16"}"#);
        let v = jsonl::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("rejected"), "{resp}");
        assert_eq!(v.get("exit_code").and_then(Json::as_i64), Some(8), "{resp}");
        assert!(resp.contains("memory budget"), "{resp}");
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

        // The manifest line a drain would write for this job round-trips
        // through the submit parser with both knobs intact — this is the
        // resume path (`resume_manifest` replays these lines verbatim).
        let line = manifest_line(&metas(&st)[0], Path::new("capped.ckpt"));
        assert!(line.contains(r#""op":"submit""#) && line.contains("capped.ckpt"), "{line}");
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
        for bad in ["0", "-2.5"] {
            let resp = st.handle_line(&format!(
                r#"{{"op":"submit","pattern":"triangle","graph":"gen:complete,n=4","deadline":{bad}}}"#,
            ));
            let v = jsonl::parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
            assert!(resp.contains("deadline must be a positive number"), "{resp}");
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
            let first = scope.spawn(|| st.graph_for_with(SPEC, load));
            entered_rx.recv().unwrap();
            let second = scope.spawn(|| st.graph_for_with(SPEC, load));
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
        assert!(Arc::ptr_eq(&a, &b), "both submits share the one graph");
        // Cached from here on: no load at all.
        let c = st.graph_for_with(SPEC, |_| panic!("a cached spec must not load")).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        st.sup.shutdown(None);
    }

    #[test]
    fn a_failed_graph_load_is_not_cached() {
        let st = state(ServeConfig::default());
        const SPEC: &str = "gen:complete,n=5";
        let err = st.graph_for_with(SPEC, |_| Err("disk on fire".into())).unwrap_err();
        assert_eq!(err, "disk on fire");
        // A panicking load unwinds to the caller and leaves no marker for
        // the next submit to wait on either.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            st.graph_for_with(SPEC, |_| panic!("loader bug"))
        }));
        assert!(panicked.is_err());
        assert!(lock_recover(&st.graphs, "graph cache").is_empty());
        assert_eq!(st.graph_for(SPEC).unwrap().num_vertices(), 5);
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
        std::fs::create_dir_all(&spool).unwrap();
        let mk = || {
            state(ServeConfig {
                spool: Some(spool.clone()),
                supervisor: SupervisorConfig { workers: 1, stint_tasks: 4, ..Default::default() },
                ..Default::default()
            })
        };
        // Reference: the same job, run clean to completion.
        let clean = mk();
        let resp = clean.handle_line(
            r#"{"op":"submit","name":"ref","pattern":"house","graph":"gen:powerlaw,n=400,m=4,closure=0.5,seed=7"}"#,
        );
        let id = jsonl::parse(&resp).unwrap().get("id").and_then(Json::as_u64).unwrap();
        let reference = clean.handle_line(&format!(r#"{{"op":"wait","id":{id}}}"#));
        clean.sup.shutdown(None);
        let ref_counts = jsonl::parse(&reference)
            .unwrap()
            .get("counts")
            .and_then(|c| c.as_arr().map(|a| a.to_vec()))
            .unwrap();

        // Interrupted: submit, drain almost immediately, then restart.
        let first = mk();
        first.handle_line(
            r#"{"op":"submit","name":"ref","pattern":"house","graph":"gen:powerlaw,n=400,m=4,closure=0.5,seed=7"}"#,
        );
        let code = first.finish();
        assert_eq!(code, 0);
        // Whether the job finished before the drain is timing-dependent;
        // the manifest exists exactly when it did not.
        let manifest = spool.join("manifest.jsonl");
        if manifest.exists() {
            let second = mk();
            second.resume_manifest(&HashSet::new());
            assert!(!manifest.exists(), "resume must consume the manifest");
            let jobs = second.jobs.lock().unwrap();
            assert_eq!(jobs.len(), 1);
            let (handle, meta) = jobs.values().find_map(Entry::live).expect("a live job");
            let outcome = handle.wait();
            let JobOutcome::Finished(r) = outcome else {
                panic!("resumed job must finish, got {outcome:?}")
            };
            assert_eq!(r.status, RunStatus::Complete);
            let resumed = r.try_unique_counts(&meta.plan).unwrap();
            let want: Vec<u64> = ref_counts.iter().map(|c| c.as_u64().unwrap()).collect();
            assert_eq!(resumed, want, "drain + resume must be bit-identical");
            drop(jobs);
            second.sup.shutdown(None);
        }
        let _ = std::fs::remove_dir_all(&spool);
    }
}
