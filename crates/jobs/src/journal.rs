//! Durable, append-only job journal for the serve layer.
//!
//! The journal is the serve layer's crash-safety spine: every submission,
//! admission decision, and terminal outcome is appended as a CRC-framed
//! record *before* the server answers the client, so a hard kill (SIGKILL,
//! OOM, power loss) loses at most the in-flight mining work — never the
//! fact that a job was accepted or what it reported.
//!
//! ## On-disk format
//!
//! ```text
//! [8-byte magic "FMJRNL\x01\0"] [u32 LE version = 1]        <- header
//! repeated: [u32 LE len] [u32 LE crc32(payload)] [payload]  <- records
//! ```
//!
//! The payload is one canonical JSON object (see [`JournalRecord`]); `len`
//! is capped at [`MAX_RECORD_BYTES`] so a corrupt length can never drive a
//! huge allocation. The header is created atomically with the PR 4
//! tmp-sibling/fsync/rename discipline; each appended record is followed by
//! `sync_data`, so a record is either fully durable or recognisably torn.
//!
//! ## Recovery
//!
//! [`Journal::open`] scans the whole file. The first invalid record —
//! short frame, over-cap length, CRC mismatch, unparsable payload —
//! ends the scan: everything before it is returned and the file is
//! truncated back to that offset. A torn tail is therefore *expected*
//! (the crash window between `write` and `sync_data`) and recovery yields
//! a strict prefix of what was appended, never an error and never a
//! record that was not written. Only header-level damage (wrong magic,
//! unsupported version) is a hard [`JournalError`] — that file is not
//! ours to truncate.

use crate::jsonl::{self, Json};
use fm_telemetry::json;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic prefix identifying a FlexMiner job journal.
pub const MAGIC: [u8; 8] = *b"FMJRNL\x01\0";
/// On-disk format version.
pub const VERSION: u32 = 1;
/// Header length in bytes (magic + version).
pub const HEADER_LEN: u64 = 12;
/// Upper bound on one record payload; a frame declaring more is treated
/// as corruption (scan stops there) rather than trusted for allocation.
pub const MAX_RECORD_BYTES: usize = 1 << 20;

/// Structured journal failure. Record-level damage never surfaces here —
/// it is absorbed by prefix recovery; these are header/IO-level problems.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (open, read, truncate, append, fsync).
    Io(String),
    /// The file exists but is not a job journal (bad magic / too short
    /// to hold a header while non-empty).
    BadFormat(String),
    /// A journal from a future format version.
    UnsupportedVersion(u32),
    /// A record whose encoded payload exceeds [`MAX_RECORD_BYTES`] was
    /// refused by [`Journal::append`]. Writing it anyway would make the
    /// next scan treat the over-cap length as corruption and truncate the
    /// record *and everything after it* — refusing up front keeps the
    /// journal's valid prefix intact.
    RecordTooLarge { bytes: usize },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadFormat(e) => write!(f, "not a job journal: {e}"),
            JournalError::UnsupportedVersion(v) => {
                write!(f, "unsupported journal version {v} (this build reads {VERSION})")
            }
            JournalError::RecordTooLarge { bytes } => {
                write!(f, "record payload of {bytes} bytes exceeds the {MAX_RECORD_BYTES}-byte journal cap")
            }
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> JournalError + '_ {
    move |e| JournalError::Io(format!("{what}: {e}"))
}

/// The record checksum and the fingerprint hash are the checkpoint
/// format's (persisted, so pinned there and not `DefaultHasher`).
pub use fm_engine::checkpoint::{crc32, fnv64};

/// One journal record. The JSON payload carries a `"rec"` discriminator;
/// all ids are the *journal* ids assigned at first submission — a
/// recovered job keeps its id across restarts, which is what lets a
/// post-crash `wait` find it.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// A job was accepted for admission. `req` is the canonical submit
    /// request (graphspec, pattern, budget/deadline, priority, …) and
    /// `fp` is [`fnv64`] over its canonical serialisation — replay
    /// recomputes and cross-checks it before trusting any later record.
    Submitted { id: u64, fp: u64, req: Json },
    /// No longer written: earlier builds appended (and fsynced) one after
    /// every admitted submit, and nothing ever read it back. Still decoded
    /// and folded (as nothing) so their journals replay.
    Started { id: u64 },
    /// What became of the job; `"rec"` is [`Reported::kind`]. Finished
    /// and drained records carry `fp`, which replay checks against the
    /// `Submitted` fingerprint; rejected and cancelled records carry none
    /// and read back 0.
    Outcome { id: u64, fp: u64, outcome: Reported },
}

/// What a job reported: the one value behind a `wait` reply, an exit
/// summary line and the journal record of the job's end, computed once
/// from the live outcome or read back from the journal.
#[derive(Clone, Debug, PartialEq)]
pub enum Reported {
    /// Mining ended. `counts` are the reported (unique-normalised)
    /// per-pattern counts; `work_digest` is [`fnv64`] over the
    /// work-counter words, journaled for drift detection and not sent.
    Finished {
        status: String,
        exit_code: i64,
        counts: Vec<u64>,
        faults: u64,
        quarantined: u64,
        work_digest: u64,
    },
    /// Admission control refused the job.
    Rejected { reason: String },
    /// A graceful drain checkpointed the job for resumption.
    Drained { checkpoint: Option<String> },
    /// A client cancelled the job. With no finished record after it, this
    /// is all the journal knows of the job's end: the counts are lost and
    /// are reported as such, never fabricated.
    Cancelled,
}

impl Reported {
    /// The record's `"rec"` and the reply's `"outcome"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Reported::Finished { .. } => "finished",
            Reported::Rejected { .. } => "rejected",
            Reported::Drained { .. } => "drained",
            Reported::Cancelled => "cancelled",
        }
    }

    /// Whether the record pins the job's fingerprint.
    fn carries_fp(&self) -> bool {
        matches!(self, Reported::Finished { .. } | Reported::Drained { .. })
    }

    /// How firmly a folded outcome holds against a later record of the
    /// same job: a journaled end is final, a cancel outlives a drain, and
    /// a later record of equal standing replaces an earlier one.
    fn standing(&self) -> u8 {
        match self {
            Reported::Drained { .. } => 0,
            Reported::Cancelled => 1,
            Reported::Finished { .. } | Reported::Rejected { .. } => 2,
        }
    }
}

/// Full-width u64s (fingerprints, digests) travel as 16-digit hex strings:
/// the JSON codec holds numbers as `f64`, which silently rounds integers
/// above 2^53 — unacceptable for a hash that must compare exactly.
fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex64(v: Option<&Json>) -> Option<u64> {
    u64::from_str_radix(v?.as_str()?, 16).ok()
}

impl JournalRecord {
    /// The journal id this record refers to.
    pub fn id(&self) -> u64 {
        match self {
            JournalRecord::Submitted { id, .. }
            | JournalRecord::Started { id }
            | JournalRecord::Outcome { id, .. } => *id,
        }
    }

    /// Canonical JSON payload for this record.
    pub fn encode(&self) -> String {
        json::object(|o| match self {
            JournalRecord::Submitted { id, fp, req } => {
                o.str("rec", "submitted").u64("id", *id).str("fp", &hex64(*fp));
                req.write_json(o.field("req"));
            }
            JournalRecord::Started { id } => {
                o.str("rec", "started").u64("id", *id);
            }
            JournalRecord::Outcome { id, fp, outcome } => {
                o.str("rec", outcome.kind()).u64("id", *id);
                if outcome.carries_fp() {
                    o.str("fp", &hex64(*fp));
                }
                match outcome {
                    Reported::Finished {
                        status,
                        exit_code,
                        counts,
                        faults,
                        quarantined,
                        work_digest,
                    } => {
                        o.str("status", status).i64("exit_code", *exit_code);
                        o.arr("counts", |a| counts.iter().for_each(|&c| a.item().u64(c)));
                        o.u64("faults", *faults).u64("quarantined", *quarantined);
                        o.str("work_digest", &hex64(*work_digest));
                    }
                    Reported::Rejected { reason } => {
                        o.str("reason", reason);
                    }
                    Reported::Drained { checkpoint: Some(path) } => {
                        o.str("checkpoint", path);
                    }
                    Reported::Drained { checkpoint: None } | Reported::Cancelled => {}
                }
            }
        })
    }

    /// Decode one payload. Any defect is an `Err` (the scanner maps it to
    /// end-of-valid-prefix, the same as a CRC mismatch).
    pub fn decode(payload: &str) -> Result<JournalRecord, String> {
        let v = jsonl::parse(payload)?;
        let id = v.get("id").and_then(Json::as_u64).ok_or("missing record id")?;
        let rec = v.get("rec").and_then(Json::as_str).ok_or("missing rec discriminator")?;
        let fp = || parse_hex64(v.get("fp")).ok_or(format!("{rec}: missing fp"));
        let string = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{rec}: missing {key}"))
        };
        let outcome = match rec {
            "submitted" => {
                let req = v.get("req").cloned().ok_or("submitted: missing req")?;
                if !matches!(req, Json::Obj(_)) {
                    return Err("submitted: req is not an object".to_string());
                }
                return Ok(JournalRecord::Submitted { id, fp: fp()?, req });
            }
            "started" => return Ok(JournalRecord::Started { id }),
            "finished" => {
                let get_u64 = |key: &str| {
                    v.get(key).and_then(Json::as_u64).ok_or(format!("finished: missing {key}"))
                };
                let counts = v
                    .get("counts")
                    .and_then(Json::as_arr)
                    .ok_or("finished: missing counts")?
                    .iter()
                    .map(|c| c.as_u64().ok_or("finished: non-integer count".to_string()))
                    .collect::<Result<Vec<u64>, String>>()?;
                Reported::Finished {
                    status: string("status")?,
                    exit_code: v
                        .get("exit_code")
                        .and_then(Json::as_i64)
                        .ok_or("finished: missing exit_code")?,
                    counts,
                    faults: get_u64("faults")?,
                    quarantined: get_u64("quarantined")?,
                    work_digest: parse_hex64(v.get("work_digest"))
                        .ok_or("finished: missing work_digest")?,
                }
            }
            "rejected" => Reported::Rejected { reason: string("reason")? },
            "drained" => Reported::Drained { checkpoint: string("checkpoint").ok() },
            "cancelled" => Reported::Cancelled,
            other => return Err(format!("unknown record kind '{other}'")),
        };
        let fp = if outcome.carries_fp() { fp()? } else { 0 };
        Ok(JournalRecord::Outcome { id, fp, outcome })
    }
}

/// Result of scanning a journal byte image.
#[derive(Debug)]
pub struct Scan {
    /// Every record in the valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte offset just past the last valid record (>= [`HEADER_LEN`]).
    pub clean_len: u64,
    /// Bytes past `clean_len` that were discarded (torn tail/corruption).
    pub truncated_bytes: u64,
}

/// Scan a full journal image (header + records). Record-level damage ends
/// the scan (prefix recovery); header-level damage is a [`JournalError`].
pub fn scan(bytes: &[u8]) -> Result<Scan, JournalError> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(JournalError::BadFormat(format!(
            "{} bytes is too short for a journal header",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(JournalError::BadFormat("bad magic".to_string()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(JournalError::UnsupportedVersion(version));
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while let Some(frame) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            break; // corrupt length: do not trust it, stop here
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else { break };
        if crc32(payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else { break };
        let Ok(record) = JournalRecord::decode(text) else { break };
        records.push(record);
        pos += 8 + len;
    }
    Ok(Scan { records, clean_len: pos as u64, truncated_bytes: (bytes.len() - pos) as u64 })
}

/// An open journal handle positioned for appends.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Open (or create) the journal at `path`, returning the handle and
    /// the recovered record prefix. A missing file is created with an
    /// atomically-written header (tmp sibling + fsync + rename + parent
    /// fsync, the checkpoint discipline); an existing file is scanned and
    /// truncated back to its last valid record.
    pub fn open(path: &Path) -> Result<(Journal, Scan), JournalError> {
        if !path.exists() {
            create_empty(path)?;
        }
        let mut file =
            OpenOptions::new().read(true).write(true).open(path).map_err(io_err("open journal"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err("read journal"))?;
        let scan = scan(&bytes)?;
        if scan.truncated_bytes > 0 {
            file.set_len(scan.clean_len).map_err(io_err("truncate torn tail"))?;
            file.sync_data().map_err(io_err("sync truncation"))?;
        }
        file.seek(SeekFrom::Start(scan.clean_len)).map_err(io_err("seek to tail"))?;
        Ok((Journal { file, path: path.to_path_buf() }, scan))
    }

    /// Append one record and make it durable (`write` + `sync_data`). A
    /// crash between the two leaves a torn tail that the next open
    /// truncates away — the record is simply "not yet journaled".
    ///
    /// A payload over [`MAX_RECORD_BYTES`] is refused with
    /// [`JournalError::RecordTooLarge`] *before* any byte is written: the
    /// scanner treats an over-cap length as corruption, so writing it
    /// would silently truncate away this record and every valid record
    /// appended after it on the next open.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let payload = record.encode();
        if payload.len() > MAX_RECORD_BYTES {
            return Err(JournalError::RecordTooLarge { bytes: payload.len() });
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        frame.extend_from_slice(payload.as_bytes());
        self.file.write_all(&frame).map_err(io_err("append record"))?;
        self.file.sync_data().map_err(io_err("sync record"))?;
        Ok(())
    }

    /// The journal's path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Write a fresh header-only journal atomically: the file appears fully
/// formed or not at all, never with a torn header.
fn create_empty(path: &Path) -> Result<(), JournalError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).map(Path::to_path_buf);
    if let Some(dir) = &dir {
        std::fs::create_dir_all(dir).map_err(io_err("create journal dir"))?;
    }
    let file_name =
        path.file_name().ok_or_else(|| JournalError::Io("journal path has no file name".into()))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp).map_err(io_err("create journal tmp"))?;
        f.write_all(&MAGIC).map_err(io_err("write magic"))?;
        f.write_all(&VERSION.to_le_bytes()).map_err(io_err("write version"))?;
        f.sync_all().map_err(io_err("sync journal tmp"))?;
    }
    std::fs::rename(&tmp, path).map_err(io_err("publish journal"))?;
    if let Some(dir) = &dir {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all(); // best effort: some filesystems refuse dir fsync
        }
    }
    Ok(())
}

/// One job folded out of the record stream.
#[derive(Clone, Debug)]
pub struct ReplayJob {
    pub id: u64,
    pub fp: u64,
    pub req: Json,
    /// What the journal says became of the job, `None` while nothing
    /// did: a finished or rejected end, else a cancel, else the most
    /// recent drain (records with a mismatched fingerprint skipped).
    pub outcome: Option<Reported>,
}

/// The folded view of a journal: per-job state plus replay accounting.
#[derive(Debug, Default)]
pub struct Replay {
    /// Jobs in first-submission order.
    pub jobs: Vec<ReplayJob>,
    /// Highest journal id seen (0 when empty) — the supervisor must
    /// reserve past this so fresh ids never collide with history.
    pub max_id: u64,
    /// Records whose id had no preceding `Submitted` (dropped; counted
    /// for diagnostics).
    pub orphans: u64,
    /// Records whose fingerprint disagreed with the `Submitted` record
    /// (the terminal/drain info is distrusted; the job replays as
    /// unresolved, which recomputes — always correct).
    pub fp_mismatches: u64,
}

/// Fold a record prefix into per-job state. A later record wins over one
/// of equal or lower standing ([`ReplayJob::outcome`]); records
/// referencing unknown ids are dropped (a `Submitted` lost to a torn tail
/// takes its dependents with it — prefix semantics). A finished or
/// drained record whose `fp` disagrees with the job's `Submitted`
/// fingerprint is distrusted and ignored: the job stays unresolved and
/// will be recomputed rather than answered from a suspect record.
pub fn fold(records: &[JournalRecord]) -> Replay {
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    let mut replay = Replay::default();
    for record in records {
        replay.max_id = replay.max_id.max(record.id());
        if let JournalRecord::Submitted { id, fp, req } = record {
            index.entry(*id).or_insert_with(|| {
                replay.jobs.push(ReplayJob { id: *id, fp: *fp, req: req.clone(), outcome: None });
                replay.jobs.len() - 1
            });
            continue;
        }
        let Some(&slot) = index.get(&record.id()) else {
            replay.orphans += 1;
            continue;
        };
        let JournalRecord::Outcome { fp, outcome, .. } = record else { continue };
        let job = &mut replay.jobs[slot];
        if outcome.carries_fp() && *fp != job.fp {
            replay.fp_mismatches += 1;
        } else if job.outcome.as_ref().is_none_or(|held| held.standing() <= outcome.standing()) {
            job.outcome = Some(outcome.clone());
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(name: &str) -> Json {
        jsonl::parse(&format!(
            r#"{{"op":"submit","name":"{name}","pattern":"triangle","graph":"gen:ba,n=100,m=3,seed=1"}}"#
        ))
        .unwrap()
    }

    fn sample_records() -> Vec<JournalRecord> {
        let r1 = req("a");
        let fp1 = fnv64(r1.to_jsonl().as_bytes());
        let r2 = req("b");
        let fp2 = fnv64(r2.to_jsonl().as_bytes());
        vec![
            JournalRecord::Submitted { id: 1, fp: fp1, req: r1 },
            JournalRecord::Started { id: 1 },
            JournalRecord::Submitted { id: 2, fp: fp2, req: r2 },
            JournalRecord::Outcome {
                id: 1,
                fp: fp1,
                outcome: Reported::Finished {
                    status: "Complete".to_string(),
                    exit_code: 0,
                    counts: vec![117],
                    faults: 0,
                    quarantined: 0,
                    work_digest: 0xdead_beef,
                },
            },
            JournalRecord::Outcome {
                id: 2,
                fp: fp2,
                outcome: Reported::Drained { checkpoint: Some("spool/job-2.ckpt".into()) },
            },
        ]
    }

    #[test]
    fn records_round_trip_through_encode_decode() {
        for record in sample_records() {
            let payload = record.encode();
            assert_eq!(JournalRecord::decode(&payload).unwrap(), record);
        }
        // One outcome record per kind, against the bytes journals hold.
        let finished = Reported::Finished {
            status: "Degraded".into(),
            exit_code: 6,
            counts: vec![117, 0],
            faults: 2,
            quarantined: 1,
            work_digest: 0xdead_beef,
        };
        for (fp, outcome, payload) in [
            (
                0xabc,
                finished,
                r#"{"rec":"finished","id":3,"fp":"0000000000000abc","status":"Degraded","exit_code":6,"counts":[117,0],"faults":2,"quarantined":1,"work_digest":"00000000deadbeef"}"#,
            ),
            (
                9,
                Reported::Drained { checkpoint: Some("s/j.ckpt".into()) },
                r#"{"rec":"drained","id":3,"fp":"0000000000000009","checkpoint":"s/j.ckpt"}"#,
            ),
            (
                9,
                Reported::Drained { checkpoint: None },
                r#"{"rec":"drained","id":3,"fp":"0000000000000009"}"#,
            ),
            (
                0,
                Reported::Rejected { reason: "full".into() },
                r#"{"rec":"rejected","id":3,"reason":"full"}"#,
            ),
            (0, Reported::Cancelled, r#"{"rec":"cancelled","id":3}"#),
        ] {
            let record = JournalRecord::Outcome { id: 3, fp, outcome };
            assert_eq!(record.encode(), payload);
            assert_eq!(JournalRecord::decode(payload).unwrap(), record);
        }
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let dir = std::env::temp_dir().join(format!("fm-journal-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("jobs.journal");
        let records = sample_records();
        {
            let (mut j, scan) = Journal::open(&path).unwrap();
            assert!(scan.records.is_empty());
            for r in &records {
                j.append(r).unwrap();
            }
        }
        let (_, scan) = Journal::open(&path).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let dir = std::env::temp_dir().join(format!("fm-journal-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("jobs.journal");
        let records = sample_records();
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            for r in &records {
                j.append(r).unwrap();
            }
        }
        // Tear the final record: chop off its last byte.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        let (mut j, scan) = Journal::open(&path).unwrap();
        assert_eq!(scan.records, records[..records.len() - 1]);
        assert!(scan.truncated_bytes > 0);
        // The truncated file accepts new appends cleanly.
        j.append(records.last().unwrap()).unwrap();
        drop(j);
        let (_, scan) = Journal::open(&path).unwrap();
        assert_eq!(scan.records, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_record_is_refused_and_journal_stays_intact() {
        let dir = std::env::temp_dir().join(format!("fm-journal-big-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("jobs.journal");
        let records = sample_records();
        let reason = "x".repeat(MAX_RECORD_BYTES);
        let huge = JournalRecord::Outcome { id: 99, fp: 0, outcome: Reported::Rejected { reason } };
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&records[0]).unwrap();
            // Over-cap payload: refused *before* any byte hits the file —
            // writing it would read back as corruption on the next open
            // and truncate away everything from here on.
            match j.append(&huge) {
                Err(JournalError::RecordTooLarge { bytes }) => {
                    assert!(bytes > MAX_RECORD_BYTES)
                }
                other => panic!("expected RecordTooLarge, got {other:?}"),
            }
            // The journal keeps accepting normal records afterwards.
            j.append(&records[1]).unwrap();
        }
        let (_, scan) = Journal::open(&path).unwrap();
        assert_eq!(scan.records, records[..2]);
        assert_eq!(scan.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_a_structured_error_and_left_intact() {
        let dir = std::env::temp_dir().join(format!("fm-journal-foreign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("notes.txt");
        std::fs::write(&path, b"definitely not a journal, but longer than a header").unwrap();
        let before = std::fs::read(&path).unwrap();
        match Journal::open(&path) {
            Err(JournalError::BadFormat(_)) => {}
            other => panic!("expected BadFormat, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), before, "foreign file must not be clobbered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn started_records_of_earlier_builds_decode_and_fold_to_nothing() {
        // The payload bytes an earlier build wrote, not `encode`'s output.
        let payload = r#"{"rec":"started","id":1}"#;
        assert_eq!(JournalRecord::decode(payload).unwrap(), JournalRecord::Started { id: 1 });
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&VERSION.to_le_bytes());
        let records = sample_records();
        for payload in [records[0].encode(), payload.to_string(), records[3].encode()] {
            image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            image.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
            image.extend_from_slice(payload.as_bytes());
        }
        let scan = scan(&image).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.truncated_bytes, 0);
        let with = fold(&scan.records);
        let without = fold(&[records[0].clone(), records[3].clone()]);
        assert_eq!((with.orphans, with.fp_mismatches, with.max_id), (0, 0, 1));
        assert_eq!(with.jobs.len(), 1);
        assert_eq!(with.jobs[0].outcome, without.jobs[0].outcome);
        assert!(
            matches!(&with.jobs[0].outcome, Some(Reported::Finished { counts, .. }) if counts == &[117])
        );
        // One for a job the journal never saw submitted is still an orphan.
        assert_eq!(fold(&[JournalRecord::Started { id: 5 }]).orphans, 1);
    }

    #[test]
    fn fold_links_records_and_distrusts_fp_mismatches() {
        let mut records = sample_records();
        // A Finished whose fp disagrees with job 2's Submitted fingerprint.
        let forged = Reported::Finished {
            status: "Complete".to_string(),
            exit_code: 0,
            counts: vec![999],
            faults: 0,
            quarantined: 0,
            work_digest: 0,
        };
        records.push(JournalRecord::Outcome { id: 2, fp: 0x1234, outcome: forged });
        // An orphan record (no Submitted for id 9).
        records.push(JournalRecord::Started { id: 9 });
        let replay = fold(&records);
        assert_eq!(replay.jobs.len(), 2);
        assert_eq!(replay.max_id, 9);
        assert_eq!(replay.orphans, 1);
        assert_eq!(replay.fp_mismatches, 1);
        let a = &replay.jobs[0];
        assert!(matches!(&a.outcome, Some(Reported::Finished { counts, .. }) if counts == &[117]));
        let drained = Some(Reported::Drained { checkpoint: Some("spool/job-2.ckpt".into()) });
        assert_eq!(replay.jobs[1].outcome, drained, "mismatched-fp Finished must be distrusted");

        // A cancel outlives a drain on either side of it, and a journaled
        // end outlives a cancel.
        let cancel = |id| JournalRecord::Outcome { id, fp: 0, outcome: Reported::Cancelled };
        records.extend([cancel(1), cancel(2), records[4].clone()]);
        let replay = fold(&records);
        assert_eq!(replay.jobs[0].outcome, a.outcome);
        assert_eq!(replay.jobs[1].outcome, Some(Reported::Cancelled));
    }
}
