//! End-to-end tests for `flexminer serve`: the JSONL protocol over real
//! process stdio, and the SIGTERM drain → restart → bit-identical resume
//! contract over a unix socket.
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
    let dir = std::env::temp_dir().join(format!("fm-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Extracts `"counts":[...]` from a serve response/event line.
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

/// The stdio transport end to end: ready banner, submit/wait/status
/// responses, EOF-triggered idle exit, and the sorted summary lines.
#[test]
fn stdio_submit_wait_and_eof_exit() {
    let mut child = bin()
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"name\":\"tri\",\"pattern\":\"triangle\",\"graph\":\"gen:complete,n=8\"}}"
    )
    .unwrap();
    writeln!(stdin, "{{\"op\":\"wait\",\"id\":1}}").unwrap();
    writeln!(stdin, "{{\"op\":\"status\"}}").unwrap();
    drop(stdin); // EOF: serve finishes the job table and exits
    let (code, out) = wait_exit(child, 60);
    assert_eq!(code, 0, "stdout: {out}");
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines[0].contains("\"event\":\"ready\""), "{out}");
    assert!(lines[1].contains("\"ok\":true") && lines[1].contains("\"id\":1"), "{out}");
    assert!(lines[2].contains("\"outcome\":\"finished\""), "{out}");
    assert!(lines[2].contains("\"exit_code\":0"), "{out}");
    // complete(8) holds C(8,3) = 56 triangles.
    assert_eq!(counts_of(lines[2]), vec![56], "{out}");
    assert!(lines[3].contains("\"submitted\":1"), "{out}");
    let event = lines.iter().find(|l| l.contains("\"event\":\"job\"")).expect("summary line");
    assert!(event.contains("\"name\":\"tri\"") && event.contains("\"exit_code\":0"), "{out}");
}

/// Per-job budget semantics end to end: a submit carrying a one-iteration
/// `budget` stops early with `BudgetExhausted` and the `count` command's
/// exit code 4 on both the wait response and the summary line, while an
/// uncapped submit of the same job still completes — the cap is per job,
/// not per server.
#[test]
fn stdio_submit_budget_reports_exit_code_4() {
    const GRAPH: &str = "gen:powerlaw,n=800,m=4,closure=0.5,seed=9";
    let mut child = bin()
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"name\":\"capped\",\"pattern\":\"4-cycle\",\"graph\":\"{GRAPH}\",\"budget\":1}}"
    )
    .unwrap();
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"name\":\"free\",\"pattern\":\"4-cycle\",\"graph\":\"{GRAPH}\"}}"
    )
    .unwrap();
    writeln!(stdin, "{{\"op\":\"wait\",\"id\":1}}").unwrap();
    writeln!(stdin, "{{\"op\":\"wait\",\"id\":2}}").unwrap();
    drop(stdin);
    let (code, out) = wait_exit(child, 120);
    // The process exit code stays 0 — per-job stops are job outcomes, not
    // server failures.
    assert_eq!(code, 0, "stdout: {out}");
    let lines: Vec<&str> = out.lines().collect();
    let capped_wait = lines[3];
    assert!(capped_wait.contains("\"status\":\"BudgetExhausted\""), "{out}");
    assert!(capped_wait.contains("\"exit_code\":4"), "{out}");
    assert!(capped_wait.contains("\"counts\":["), "partial counts must still report: {out}");
    let free_wait = lines[4];
    assert!(free_wait.contains("\"status\":\"Complete\""), "{out}");
    assert!(free_wait.contains("\"exit_code\":0"), "{out}");
    let capped_event = lines
        .iter()
        .find(|l| l.contains("\"event\":\"job\"") && l.contains("\"name\":\"capped\""))
        .expect("summary line for the capped job");
    assert!(capped_event.contains("\"exit_code\":4"), "{out}");
}

/// SIGTERM with a `wait` outstanding on stdio, where the waiting call *is*
/// the main loop and nothing else can see the latch: the wait must come
/// back with a structured reply — `terminating`, or the drained outcome —
/// and the process must drain to the spool and exit, never sit out the
/// job.
#[test]
fn stdio_sigterm_under_an_outstanding_wait_drains_and_answers() {
    // Seconds of single-threaded mining even in a release build.
    const GRAPH: &str = "gen:powerlaw,n=5000,m=100,closure=0.6,seed=3";
    let dir = temp_dir("stdio-term");
    let spool = dir.join("spool");
    let mut child = bin()
        .args(["serve", "--spool", spool.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let pid = child.id().to_string();
    // Held open to the end: EOF must not be what ends the process.
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    writeln!(
        stdin,
        "{{\"op\":\"submit\",\"name\":\"long\",\"pattern\":\"5-clique\",\"graph\":\"{GRAPH}\"}}"
    )
    .unwrap();
    writeln!(stdin, "{{\"op\":\"wait\",\"id\":1}}").unwrap();
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.contains("\"event\":\"ready\""), "{line}");
    line.clear();
    stdout.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true") && line.contains("\"id\":1"), "{line}");
    // The wait line was in the pipe before the submit was answered; give
    // the main loop a moment to be inside it.
    std::thread::sleep(Duration::from_millis(300));
    assert!(Command::new("kill").args(["-TERM", &pid]).status().unwrap().success());
    // Stint boundaries are milliseconds apart; the job itself is seconds.
    let (code, _) = wait_exit(child, 60);
    assert_eq!(code, 0, "drain exit must be clean");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    let reply = rest.lines().next().unwrap_or_else(|| panic!("the wait was never answered"));
    assert!(
        reply.contains("\"error\":\"terminating\"") || reply.contains("\"outcome\":\"drained\""),
        "wait under SIGTERM must answer terminating or drained: {rest}"
    );
    assert!(!rest.contains("\"event\":\"job\""), "the job drained, it did not finish: {rest}");
    assert!(spool.join("manifest.jsonl").exists(), "drain must spool a resume manifest");
    drop(stdin);
    let _ = std::fs::remove_dir_all(&dir);
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

/// The robustness contract end to end: jobs submitted over the socket,
/// SIGTERM mid-run, drain to spooled checkpoints, restart with the same
/// spool, and final counts bit-identical to an uninterrupted run.
#[test]
fn socket_sigterm_drain_restart_is_bit_identical() {
    // The house enumerates every level, so it is still mid-run when the
    // signal lands; a 4-cycle this size is counted before it does.
    const GRAPH: &str = "gen:powerlaw,n=1000,m=4,closure=0.5,seed=11";
    let dir = temp_dir("sigterm");
    let sock = dir.join("serve.sock");
    let spool = dir.join("spool");

    // In-process reference for the same job.
    let g = flexminer::graphspec::load(GRAPH).unwrap();
    let reference = Miner::new(&g).pattern(Pattern::house()).run().unwrap().counts();

    let child = bin()
        .args(["serve", "--socket", sock.to_str().unwrap(), "--spool", spool.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let pid = child.id().to_string();
    let mut conn = connect(&sock, 30);
    let resp = request(
        &mut conn,
        &format!(r#"{{"op":"submit","name":"big","pattern":"house","graph":"{GRAPH}"}}"#),
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    // SIGTERM while the job is mid-run: the process must drain, not die.
    let killed = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(killed.success());
    let (code, out) = wait_exit(child, 60);
    assert_eq!(code, 0, "drain exit must be clean; stdout: {out}");
    assert!(!out.contains("\"event\":\"job\""), "job should have drained, not finished: {out}");
    assert!(spool.join("manifest.jsonl").exists(), "drain must spool a resume manifest");

    // Restart with the same spool: the manifest resumes the job, which
    // runs to completion and reports counts identical to the reference.
    let restarted = bin()
        .args([
            "serve",
            "--socket",
            sock.to_str().unwrap(),
            "--spool",
            spool.to_str().unwrap(),
            "--exit-when-idle",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let (code, out) = wait_exit(restarted, 120);
    assert_eq!(code, 0, "stdout: {out}");
    let event = out
        .lines()
        .find(|l| l.contains("\"event\":\"job\"") && l.contains("\"name\":\"big\""))
        .unwrap_or_else(|| panic!("resumed job must report a summary line: {out}"));
    assert!(event.contains("\"status\":\"Complete\""), "{event}");
    assert_eq!(counts_of(event), reference, "drained + resumed counts must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed-input sweep against a live server: truncated JSON, raw
/// binary garbage, oversized frames, and interleavings of all three must
/// each get a structured error (or a clean drop) while the server keeps
/// serving valid requests on the same and subsequent connections.
#[test]
fn socket_survives_malformed_truncated_and_oversized_frames() {
    let dir = temp_dir("fuzz");
    let sock = dir.join("serve.sock");
    let child = bin()
        .args(["serve", "--socket", sock.to_str().unwrap(), "--max-request-bytes", "4096"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // One connection that interleaves garbage with valid requests.
    let mut conn = connect(&sock, 30);
    // A nesting bomb that fits under the 4096-byte frame cap: without the
    // parser depth limit this would overflow the recursion stack and
    // abort the whole server, which catch_unwind cannot contain.
    let mut nesting_bomb = vec![b'['; 2000];
    nesting_bomb.push(b'\n');
    let garbage_frames: &[&[u8]] = &[
        b"{\"op\":\"submit\",\"pattern\"\n",     // truncated mid-object
        b"\xff\xfe\x00\x80 binary trash \x07\n", // not UTF-8, not JSON
        b"[1,2,3]\n",                            // JSON but not an object
        b"{\"op\": 42}\n",                       // op with the wrong type
        b"}}}}{{{{\n",                           // unbalanced braces
        &nesting_bomb,                           // deep-nesting stack bomb
    ];
    for frame in garbage_frames {
        conn.write_all(frame).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"ok\":false"), "{:?} -> {resp}", String::from_utf8_lossy(frame));
    }
    // An oversized frame gets the structured cap error and the stream
    // resynchronises at its newline.
    let mut big = vec![b'x'; 8192];
    big.push(b'\n');
    conn.write_all(&big).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("request too large"), "{resp}");
    // Well-formed JSON naming a generator spec outside the generator's
    // preconditions is refused with the reason, not "internal error"
    // from a caught assert.
    let bad = request(
        &mut conn,
        r#"{"op":"submit","pattern":"triangle","graph":"gen:powerlaw,n=5,m=10"}"#,
    );
    assert!(bad.contains("\"ok\":false") && bad.contains("bad gen spec"), "{bad}");
    // The same connection still serves a valid request afterwards.
    let ok = request(&mut conn, r#"{"op":"status"}"#);
    assert!(ok.contains("\"ok\":true"), "{ok}");

    // A connection that dies mid-frame (truncated, no newline) must not
    // take the server with it.
    {
        let mut half = connect(&sock, 5);
        half.write_all(b"{\"op\":\"stat").unwrap();
        drop(half);
    }

    // Fresh connections keep working; a real job still runs end to end.
    let mut conn2 = connect(&sock, 5);
    let resp = request(
        &mut conn2,
        r#"{"op":"submit","name":"after-fuzz","pattern":"triangle","graph":"gen:complete,n=8"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let id_txt = resp.split("\"id\":").nth(1).unwrap();
    let id: u64 = id_txt[..id_txt.find(|c: char| !c.is_ascii_digit()).unwrap()].parse().unwrap();
    let done = request(&mut conn2, &format!(r#"{{"op":"wait","id":{id}}}"#));
    assert_eq!(counts_of(&done), vec![56], "{done}");
    let resp = request(&mut conn2, r#"{"op":"shutdown"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let (code, _) = wait_exit(child, 60);
    assert_eq!(code, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A silent client is disconnected with a structured idle-timeout reply
/// instead of holding its connection thread forever — and the server
/// keeps serving other connections.
#[test]
fn socket_idle_timeout_replies_and_disconnects() {
    let dir = temp_dir("idle");
    let sock = dir.join("serve.sock");
    let child = bin()
        .args(["serve", "--socket", sock.to_str().unwrap(), "--idle-timeout", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let idle = connect(&sock, 30);
    let mut reader = BufReader::new(idle.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("idle timeout"), "{resp}");
    // The connection is closed after the reply.
    resp.clear();
    assert_eq!(reader.read_line(&mut resp).unwrap(), 0, "{resp}");
    // The server is still alive for new clients.
    let mut conn = connect(&sock, 5);
    let ok = request(&mut conn, r#"{"op":"status"}"#);
    assert!(ok.contains("\"ok\":true"), "{ok}");
    let resp = request(&mut conn, r#"{"op":"shutdown"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let (code, _) = wait_exit(child, 60);
    assert_eq!(code, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panicking request handler answers with a structured internal error
/// and the *next* connection still submits and queries — the poisoned
/// job-table lock recovers instead of wedging the server (ISSUE 9
/// satellite: failpoint-driven panic isolation).
#[test]
fn socket_handler_panic_degrades_one_request_not_the_server() {
    let dir = temp_dir("panic");
    let sock = dir.join("serve.sock");
    let child = bin()
        .args(["serve", "--socket", sock.to_str().unwrap()])
        .env("FM_SERVE_DEBUG_OPS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut conn = connect(&sock, 30);
    // The debug op panics while holding the job-table lock.
    let resp = request(&mut conn, r#"{"op":"debug-panic"}"#);
    assert!(resp.contains("internal error"), "{resp}");
    assert!(resp.contains("\"ok\":false"), "{resp}");
    // A fresh connection submits and waits as if nothing happened.
    let mut conn2 = connect(&sock, 5);
    let resp = request(
        &mut conn2,
        r#"{"op":"submit","name":"after-panic","pattern":"triangle","graph":"gen:complete,n=8"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let status = request(&mut conn2, r#"{"op":"status"}"#);
    assert!(status.contains("\"submitted\":1"), "{status}");
    let resp = request(&mut conn2, r#"{"op":"shutdown"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let (code, _) = wait_exit(child, 60);
    assert_eq!(code, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overload over the wire: a saturated supervisor sheds the extra job
/// with an explicit rejection on the submit response (exit code 8).
#[test]
fn socket_rejects_jobs_beyond_admission_limits() {
    let dir = temp_dir("reject");
    let sock = dir.join("serve.sock");
    let child = bin()
        .args(["serve", "--socket", sock.to_str().unwrap(), "--queue-capacity", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut conn = connect(&sock, 30);
    let a = request(
        &mut conn,
        r#"{"op":"submit","name":"a","pattern":"house","graph":"gen:powerlaw,n=700,m=4,closure=0.5,seed=3"}"#,
    );
    assert!(a.contains("\"ok\":true"), "{a}");
    let b = request(
        &mut conn,
        r#"{"op":"submit","name":"b","pattern":"triangle","graph":"gen:complete,n=8"}"#,
    );
    assert!(b.contains("\"outcome\":\"rejected\""), "{b}");
    assert!(b.contains("\"exit_code\":8"), "{b}");
    assert!(b.contains("queue full"), "{b}");
    let resp = request(&mut conn, r#"{"op":"shutdown"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let (code, _) = wait_exit(child, 60);
    assert_eq!(code, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
