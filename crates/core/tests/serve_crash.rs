//! Crash-safety end-to-end tests for `flexminer serve --journal`: SIGKILL
//! (no drain, no checkpoint) mid-job, restart against the same journal,
//! and bit-identical convergence — including a second SIGKILL during
//! recovery and a torn journal tail from a crash mid-append.
#![cfg(unix)]

use flexminer::{Miner, Pattern};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexminer"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fm-serve-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn counts_of(line: &str) -> Vec<u64> {
    let (_, rest) = line.split_once("\"counts\":[").expect("line carries counts");
    let (body, _) = rest.split_once(']').expect("counts array closes");
    body.split(',').filter(|s| !s.is_empty()).map(|s| s.trim().parse().unwrap()).collect()
}

fn wait_exit(mut child: Child, secs: u64) -> (i32, String) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        match child.try_wait().unwrap() {
            Some(status) => {
                let mut out = String::new();
                if let Some(mut stdout) = child.stdout.take() {
                    let _ = stdout.read_to_string(&mut out);
                }
                return (status.code().unwrap_or(-1), out);
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("serve did not exit within {secs}s");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn connect(path: &Path, secs: u64) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        assert!(Instant::now() < deadline, "socket {} never came up", path.display());
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn request(stream: &mut UnixStream, line: &str) -> String {
    writeln!(stream, "{line}").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    resp
}

/// SIGKILL the child (no signal handler runs, no drain, no checkpoint)
/// and reap it.
fn sigkill(mut child: Child) {
    child.kill().unwrap();
    let _ = child.wait();
}

/// Polls the server's `status` op until its reply carries `needle`.
fn wait_for_status(conn: &mut UnixStream, needle: &str, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let status = request(conn, r#"{"op":"status"}"#);
        if status.contains(needle) {
            return;
        }
        assert!(Instant::now() < deadline, "status never showed {needle}: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The tentpole contract: `kill -9` a serving process mid-job, restart
/// with the same `--journal`/`--spool`, and the recovered job's counts
/// are bit-identical to an uninterrupted reference run. A second
/// `kill -9` during recovery (the rerun already in flight) must still
/// converge on the third launch — recovery never appends a duplicate
/// Submitted record, so replay is idempotent under repeated crashes.
#[test]
fn sigkill_mid_job_double_crash_recovery_is_bit_identical() {
    // Big enough that the house — which enumerates every level; the
    // 4-cycle is counted by a pair join several times faster — takes many
    // seconds even in debug builds: both kills land while the job is
    // genuinely mid-flight.
    const GRAPH: &str = "gen:powerlaw,n=10000,m=8,closure=0.5,seed=11";
    let dir = temp_dir("kill9");
    let sock = dir.join("serve.sock");
    let spool = dir.join("spool");
    let journal = dir.join("jobs.journal");

    // In-process reference for the same job, uninterrupted.
    let g = flexminer::graphspec::load(GRAPH).unwrap();
    let reference = Miner::new(&g).pattern(Pattern::house()).run().unwrap().counts();

    let serve_args = |extra: &[&str]| {
        let mut v = vec![
            "serve".to_string(),
            "--socket".to_string(),
            sock.to_str().unwrap().to_string(),
            "--spool".to_string(),
            spool.to_str().unwrap().to_string(),
            "--journal".to_string(),
            journal.to_str().unwrap().to_string(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    // First life: submit a long-running job, then pull the plug.
    let first = bin()
        .args(serve_args(&[]))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut conn = connect(&sock, 30);
    let resp = request(
        &mut conn,
        &format!(r#"{{"op":"submit","name":"big","pattern":"house","graph":"{GRAPH}"}}"#),
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    std::thread::sleep(Duration::from_millis(300));
    sigkill(first);
    assert!(journal.exists(), "journal must survive the crash");

    // Second life: replay resubmits the job under its old id; kill -9
    // again while the rerun is in flight (crash during recovery).
    let second = bin()
        .args(serve_args(&[]))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut conn = connect(&sock, 30);
    wait_for_status(&mut conn, "\"journal_recovered_jobs\":1", 10);
    drop(conn);
    std::thread::sleep(Duration::from_millis(200));
    sigkill(second);

    // Third life: recovery converges; counts are bit-identical to the
    // uninterrupted reference and the summary line is flagged recovered.
    let third = bin()
        .args(serve_args(&["--exit-when-idle"]))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let (code, out) = wait_exit(third, 180);
    assert_eq!(code, 0, "stdout: {out}");
    let event = out
        .lines()
        .find(|l| l.contains("\"event\":\"job\"") && l.contains("\"name\":\"big\""))
        .unwrap_or_else(|| panic!("recovered job must report a summary line: {out}"));
    assert!(event.contains("\"status\":\"Complete\""), "{event}");
    assert!(event.contains("\"recovered\":true"), "{event}");
    assert_eq!(counts_of(event), reference, "crash + recovery counts must be bit-identical");
    let journal_line = out
        .lines()
        .find(|l| l.contains("\"event\":\"journal\""))
        .unwrap_or_else(|| panic!("journal summary line missing: {out}"));
    assert!(journal_line.contains("\"recovered_jobs\":1"), "{journal_line}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job that *finished* before the crash is answered from the journal
/// after restart: `wait` returns the recorded counts with
/// `"replayed":true` and nothing is recomputed.
#[test]
fn wait_after_restart_is_answered_from_the_journal() {
    let dir = temp_dir("replay");
    let sock = dir.join("serve.sock");
    let journal = dir.join("jobs.journal");

    let first = bin()
        .args(["serve", "--socket", sock.to_str().unwrap(), "--journal", journal.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut conn = connect(&sock, 30);
    let resp = request(
        &mut conn,
        r#"{"op":"submit","name":"tri","pattern":"triangle","graph":"gen:complete,n=8"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let done = request(&mut conn, r#"{"op":"wait","id":1}"#);
    assert_eq!(counts_of(&done), vec![56], "{done}");
    // The Finished record lands on the next journal tick: Submitted +
    // Finished = 2 records before we pull the plug.
    wait_for_status(&mut conn, "\"journal_records\":2", 10);
    drop(conn);
    sigkill(first);

    let second = bin()
        .args(["serve", "--socket", sock.to_str().unwrap(), "--journal", journal.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut conn = connect(&sock, 30);
    let replayed = request(&mut conn, r#"{"op":"wait","id":1}"#);
    assert!(replayed.contains("\"ok\":true"), "{replayed}");
    assert!(replayed.contains("\"replayed\":true"), "{replayed}");
    assert!(replayed.contains("\"exit_code\":0"), "{replayed}");
    assert_eq!(counts_of(&replayed), vec![56], "{replayed}");
    // Unknown ids still fail cleanly alongside history answers.
    let missing = request(&mut conn, r#"{"op":"wait","id":77}"#);
    assert!(missing.contains("unknown job id"), "{missing}");
    let resp = request(&mut conn, r#"{"op":"shutdown"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let (code, _) = wait_exit(second, 60);
    assert_eq!(code, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-append leaves a torn tail. Reopening must truncate the
/// garbage (reported, not an error), replay the intact prefix, and —
/// because the truncation is persisted — a third open sees a clean file.
#[test]
fn torn_journal_tail_is_truncated_and_replay_proceeds() {
    let dir = temp_dir("torn");
    let sock = dir.join("serve.sock");
    let journal = dir.join("jobs.journal");

    let first = bin()
        .args(["serve", "--socket", sock.to_str().unwrap(), "--journal", journal.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut conn = connect(&sock, 30);
    let resp = request(
        &mut conn,
        r#"{"op":"submit","name":"tri","pattern":"triangle","graph":"gen:complete,n=8"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let done = request(&mut conn, r#"{"op":"wait","id":1}"#);
    assert_eq!(counts_of(&done), vec![56], "{done}");
    wait_for_status(&mut conn, "\"journal_records\":2", 10);
    drop(conn);
    sigkill(first);

    // Simulate a crash mid-append: a partial frame at the tail.
    let torn: &[u8] = b"GARBAGE-TORN-TAIL";
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(torn).unwrap();
    }

    // Stdio mode with no input: replay, report, and exit on EOF. The
    // torn bytes are discarded and counted on the journal summary line.
    let second = bin()
        .args(["serve", "--journal", journal.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let (code, out) = wait_exit(second, 60);
    assert_eq!(code, 0, "torn tail must not fail startup: {out}");
    let line = out
        .lines()
        .find(|l| l.contains("\"event\":\"journal\""))
        .unwrap_or_else(|| panic!("journal summary line missing: {out}"));
    assert_eq!(
        line,
        format!(
            r#"{{"event":"journal","records":2,"replayed":2,"truncated_bytes":{},"recovered_jobs":0}}"#,
            torn.len()
        )
    );

    // The truncation was persisted: a third open sees a clean journal.
    let third = bin()
        .args(["serve", "--journal", journal.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let (code, out) = wait_exit(third, 60);
    assert_eq!(code, 0, "stdout: {out}");
    let line = out.lines().find(|l| l.contains("\"event\":\"journal\"")).unwrap();
    assert!(line.contains("\"truncated_bytes\":0"), "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}
