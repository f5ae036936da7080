//! The lines `serve` reads and writes: request fields, the canonical
//! request the journal and the drain manifest hold, and the one rendering
//! of what a job reported.

use super::JobMeta;
use fm_engine::{Checkpoint, RunStatus};
use fm_jobs::journal::{self, Reported};
use fm_jobs::jsonl::{self, Json, ObjWriter};
use fm_jobs::JobOutcome;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::path::Path;

/// Exit code for a run status, shared by `count` and per-job serve
/// outcomes: 0 complete, 3 deadline exceeded, 4 budget exhausted,
/// 5 cancelled, 6 degraded.
pub fn status_exit_code(status: RunStatus) -> i32 {
    match status {
        RunStatus::Complete => 0,
        RunStatus::DeadlineExceeded => 3,
        RunStatus::BudgetExhausted => 4,
        RunStatus::Cancelled => 5,
        RunStatus::Degraded => 6,
    }
}

/// Per-job exit code extending [`status_exit_code`] with the supervisor's
/// two extra terminal states: 8 rejected by admission control, 9 drained
/// to a checkpoint by shutdown; a cancel whose outcome the journal never
/// saw is 5, as a cancelled run is.
pub fn job_exit_code(reported: &Reported) -> i64 {
    match reported {
        Reported::Finished { exit_code, .. } => *exit_code,
        Reported::Rejected { .. } => 8,
        Reported::Drained { .. } => 9,
        Reported::Cancelled => 5,
    }
}

/// What a resolved job reports: the reported, unique-normalised counts —
/// so a replayed answer is the live one — and the digest the journal
/// keeps.
pub(super) fn reported(meta: &JobMeta, outcome: &JobOutcome) -> Reported {
    match outcome {
        JobOutcome::Finished(r) => Reported::Finished {
            status: r.status.as_str().to_string(),
            exit_code: i64::from(status_exit_code(r.status)),
            counts: r.try_unique_counts(&meta.plan).unwrap_or_else(|| r.counts.clone()),
            faults: r.faults.len() as u64,
            quarantined: r.quarantined.len() as u64,
            work_digest: work_digest(&r.work),
        },
        JobOutcome::Rejected { reason } => Reported::Rejected { reason: reason.clone() },
        JobOutcome::Drained { checkpoint } => {
            Reported::Drained { checkpoint: checkpoint.as_ref().map(|p| p.display().to_string()) }
        }
    }
}

/// FNV digest over [`fm_engine::WorkCounters::words`] — journaled with
/// finished records so post-hoc tooling can detect work-profile drift
/// between a recovered run and its reference.
fn work_digest(w: &fm_engine::WorkCounters) -> u64 {
    let bytes: Vec<u8> = w.words().iter().flat_map(|word| word.to_le_bytes()).collect();
    journal::fnv64(&bytes)
}

/// The one rendering of what a job reported, after the head of a `wait`
/// reply or an exit summary line.
fn outcome_fields(w: ObjWriter, reported: &Reported) -> ObjWriter {
    let w = w.i64("exit_code", job_exit_code(reported)).str("outcome", reported.kind());
    match reported {
        Reported::Finished { status, counts, faults, quarantined, .. } => w
            .str("status", status)
            .raw("counts", &jsonl::u64_array(counts))
            .u64("faults", *faults)
            .u64("quarantined", *quarantined),
        Reported::Rejected { reason } => w.str("error", reason),
        Reported::Drained { checkpoint: Some(p) } => w.str("checkpoint", p),
        Reported::Drained { checkpoint: None } | Reported::Cancelled => w,
    }
}

/// A `wait` reply; one answered from the journal ends `"replayed":true`.
pub(super) fn wait_line(id: u64, name: &str, reported: &Reported, replayed: bool) -> String {
    let ok = !matches!(reported, Reported::Rejected { .. });
    let w = ObjWriter::new().bool("ok", ok).u64("id", id).str("name", name);
    let w = outcome_fields(w, reported);
    if replayed { w.bool("replayed", true) } else { w }.finish()
}

/// An exit summary line.
pub(super) fn summary_line(meta: &JobMeta, reported: &Reported) -> String {
    let mut w = ObjWriter::new()
        .str("event", "job")
        .str("name", &meta.name)
        .str("pattern", &meta.pattern)
        .str("graph", &meta.graph);
    if meta.recovered {
        // Journal replay resubmitted this job after a crash; tooling
        // diffing runs can tell a recovered completion from a clean one.
        w = w.bool("recovered", true);
    }
    outcome_fields(w, reported).finish()
}

pub(super) fn err_line(msg: &str) -> String {
    ObjWriter::new().bool("ok", false).str("error", msg).finish()
}

/// Structured reply for a frame over the `--max-request-bytes` cap.
pub(super) fn too_large_line(limit: usize) -> String {
    err_line(&format!("request too large: line exceeded {limit} bytes"))
}

/// `req[name]` read by `read`, `None` when the client left it out. A field
/// that is present but not `what` is an error naming it: a typo must not
/// silently run the job under a default the client did not ask for.
pub(super) fn field<'a, T>(
    req: &'a Json,
    name: &str,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(value) = req.get(name) else { return Ok(None) };
    read(value).map(Some).ok_or_else(|| format!("{name} must be {what}, got {}", value.to_jsonl()))
}

/// An integer field within `range`, converted without an `as` cast, which
/// would wrap or saturate silently: 2⁶⁴ is an `f64` and not a `u64`.
pub(super) fn int_field<T>(
    req: &Json,
    name: &str,
    range: RangeInclusive<T>,
) -> Result<Option<T>, String>
where
    T: TryFrom<i128> + PartialOrd + std::fmt::Display,
{
    let what = format!("an integer in {}..={}", range.start(), range.end());
    field(req, name, &what, |v| {
        let n = v.as_f64().filter(|n| n.fract() == 0.0)?;
        // Exact for every integral `f64` an `i128` holds; past that it
        // saturates to a value no `T` here reaches.
        T::try_from(n as i128).ok().filter(|t| range.contains(t))
    })
}

/// The canonical submit request for journaling: every default
/// materialised, optional knobs present only when set, keys emitted in
/// `BTreeMap` (sorted) order by [`Json::to_jsonl`]. Parsing this object
/// through `submit` reconstructs an identical canonical form, which
/// is what makes the fingerprint stable across restarts.
pub(super) fn canonical_req(meta: &JobMeta) -> Json {
    let mut map = BTreeMap::new();
    map.insert("op".to_string(), Json::Str("submit".to_string()));
    map.insert("name".to_string(), Json::Str(meta.name.clone()));
    map.insert("pattern".to_string(), Json::Str(meta.pattern.clone()));
    map.insert("graph".to_string(), Json::Str(meta.graph.clone()));
    map.insert("induced".to_string(), Json::Bool(meta.induced));
    map.insert("threads".to_string(), Json::Num(meta.threads as f64));
    map.insert("priority".to_string(), Json::Num(f64::from(meta.priority)));
    if let Some(a) = meta.max_attempts {
        map.insert("max_attempts".to_string(), Json::Num(f64::from(a)));
    }
    if let Some(b) = meta.budget {
        map.insert("budget".to_string(), Json::Num(b as f64));
    }
    if let Some(s) = meta.deadline_secs {
        map.insert("deadline".to_string(), Json::Num(s));
    }
    Json::Obj(map)
}

/// One drain-manifest line: the request as journaled ([`canonical_req`]),
/// plus where its progress is.
pub(super) fn manifest_line(meta: &JobMeta, checkpoint: &Path) -> String {
    let Json::Obj(mut entry) = canonical_req(meta) else {
        unreachable!("the canonical request is an object")
    };
    entry.insert("checkpoint".to_string(), Json::Str(checkpoint.display().to_string()));
    Json::Obj(entry).to_jsonl()
}

/// Parses one manifest line back into a submit request plus its loaded
/// checkpoint.
pub(super) fn resume_entry(line: &str) -> Result<(Json, Checkpoint), String> {
    let req = jsonl::parse(line)?;
    let path =
        req.get("checkpoint").and_then(Json::as_str).ok_or("manifest entry missing checkpoint")?;
    let ckpt = Checkpoint::load(Path::new(path)).map_err(|e| format!("load {path}: {e}"))?;
    Ok((req, ckpt))
}
