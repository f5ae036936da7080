//! End-to-end tests for the serve-layer observability surface: the
//! `subscribe` JSONL event stream over a live unix socket (transition
//! order, bounded buffering with drop accounting, disconnect tolerance),
//! the SIGUSR1 flight-recorder dump, and the `--trace-out` Chrome trace
//! merging supervisor and engine lanes.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexminer"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fm-serve-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

fn wait_exit(mut child: Child, secs: u64) -> i32 {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        match child.try_wait().unwrap() {
            Some(status) => return status.code().unwrap_or(-1),
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("serve did not exit within {secs}s");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn kill(child: &Child, signal: &str) {
    let pid = child.id().to_string();
    let status = Command::new("kill").args([signal, &pid]).status().unwrap();
    assert!(status.success(), "kill {signal} failed");
}

/// Pulls the string value of `"key":"..."` out of a JSONL line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let (_, rest) = line.split_once(needle.as_str())?;
    rest.split_once('"').map(|(v, _)| v)
}

/// Pulls the numeric value of `"key":N` out of a JSONL line.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let (_, rest) = line.split_once(needle.as_str())?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn spawn_socket_serve(sock: &Path, extra: &[&str]) -> Child {
    let mut args = vec!["serve", "--socket", sock.to_str().unwrap()];
    args.extend_from_slice(extra);
    bin().args(&args).stdout(Stdio::null()).stderr(Stdio::null()).spawn().unwrap()
}

/// A subscriber connected before a job is submitted sees every lifecycle
/// transition of that job, in order, as parseable JSONL events.
#[test]
fn subscribe_streams_transitions_in_order() {
    let dir = temp_dir("order");
    let sock = dir.join("serve.sock");
    let child = spawn_socket_serve(&sock, &[]);

    // Subscriber first, so no event can be missed.
    let mut sub = connect(&sock, 10);
    writeln!(sub, "{{\"op\":\"subscribe\"}}").unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut sub_reader = BufReader::new(sub.try_clone().unwrap());
    let mut ack = String::new();
    sub_reader.read_line(&mut ack).unwrap();
    assert_eq!(ack, "{\"ok\":true,\"streaming\":\"events\"}\n");

    let mut ctl = connect(&sock, 5);
    let resp = request(
        &mut ctl,
        r#"{"op":"submit","name":"tri","pattern":"triangle","graph":"gen:complete,n=8"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let done = request(&mut ctl, r#"{"op":"wait","id":1}"#);
    assert!(done.contains("\"outcome\":\"finished\""), "{done}");

    // Tail the stream until the job's terminal event arrives.
    let mut kinds = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !kinds.iter().any(|k| k == "finished") {
        assert!(Instant::now() < deadline, "no finished event; saw {kinds:?}");
        let mut line = String::new();
        match sub_reader.read_line(&mut line) {
            Ok(0) => panic!("stream closed early; saw {kinds:?}"),
            Ok(_) => {
                assert!(u64_field(&line, "seq").is_some(), "event missing seq: {line}");
                assert!(u64_field(&line, "ts_us").is_some(), "event missing ts_us: {line}");
                if let Some(kind) = str_field(&line, "kind") {
                    kinds.push(kind.to_string());
                }
            }
            Err(e) => panic!("stream read failed: {e}; saw {kinds:?}"),
        }
    }
    let pos = |k: &str| {
        kinds.iter().position(|x| x == k).unwrap_or_else(|| panic!("missing {k} in {kinds:?}"))
    };
    assert!(pos("submitted") < pos("queued"), "{kinds:?}");
    assert!(pos("queued") < pos("running"), "{kinds:?}");
    assert!(pos("running") < pos("finished"), "{kinds:?}");

    drop(sub_reader);
    drop(sub);
    kill(&child, "-TERM");
    assert_eq!(wait_exit(child, 30), 0);
}

/// A slow subscriber with a tiny buffer loses events instead of stalling
/// the supervisor: the drop counter surfaces on the metrics op and the
/// stream stays valid JSONL throughout.
#[test]
fn subscribe_slow_consumer_drops_are_bounded_and_counted() {
    let dir = temp_dir("slow");
    let sock = dir.join("serve.sock");
    let child = spawn_socket_serve(&sock, &[]);

    let mut sub = connect(&sock, 10);
    writeln!(sub, "{{\"op\":\"subscribe\",\"buffer\":1}}").unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sub_reader = BufReader::new(sub.try_clone().unwrap());
    let mut ack = String::new();
    sub_reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("\"streaming\":\"events\""), "{ack}");

    // A burst of back-to-back submits publishes events far faster than a
    // one-slot subscription can absorb between stream polls.
    let mut ctl = connect(&sock, 5);
    for i in 0..20 {
        let resp = request(
            &mut ctl,
            &format!(
                r#"{{"op":"submit","name":"j{i}","pattern":"triangle","graph":"gen:complete,n=8"}}"#
            ),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    for id in 1..=20u64 {
        let done = request(&mut ctl, &format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(done.contains("\"outcome\":"), "{done}");
    }

    let metrics = request(&mut ctl, r#"{"op":"metrics","format":"prometheus"}"#);
    // The exposition text arrives JSON-escaped inside "body"; the sample
    // line for the counter follows an escaped newline.
    let dropped: u64 = metrics
        .split("\\nfm_events_dropped_total ")
        .nth(1)
        .expect("fm_events_dropped_total exposed")
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(dropped > 0, "expected drops from a one-slot subscriber: {metrics}");

    // The stream itself keeps flowing: every line is an event or the
    // structured drop notice, never torn output.
    let mut saw_line = false;
    for _ in 0..50 {
        let mut line = String::new();
        match sub_reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                saw_line = true;
                let is_event = str_field(&line, "kind").is_some();
                let is_notice = line.contains("\"event\":\"dropped\"");
                assert!(is_event || is_notice, "unexpected stream line: {line}");
                if let Some(total) = u64_field(&line, "dropped_total") {
                    assert_eq!(
                        line,
                        format!("{{\"event\":\"dropped\",\"dropped_total\":{total}}}\n")
                    );
                }
            }
        }
    }
    assert!(saw_line, "subscriber saw no stream output at all");

    drop(sub_reader);
    drop(sub);
    kill(&child, "-TERM");
    assert_eq!(wait_exit(child, 30), 0);
}

/// A `buffer` that is not an integer in range is refused by name, as a
/// bad `submit` field is, and the connection carries on: never defaulted,
/// and never so large that a stalled subscriber's queue has no bound.
#[test]
fn subscribe_buffer_is_range_checked_not_defaulted() {
    let dir = temp_dir("buf");
    let sock = dir.join("serve.sock");
    let child = spawn_socket_serve(&sock, &[]);

    let mut conn = connect(&sock, 10);
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for bad in [r#""x""#, "-5", "1.5", "65537", "1e30"] {
        let resp = request(&mut conn, &format!(r#"{{"op":"subscribe","buffer":{bad}}}"#));
        let want = r#""ok":false,"error":"buffer must be an integer in 0..=65536, got "#;
        assert!(resp.contains(want), "buffer {bad} -> {resp}");
    }
    let status = request(&mut conn, r#"{"op":"status"}"#);
    assert!(status.contains(r#""ok":true"#), "{status}");

    let mut sub = connect(&sock, 5);
    writeln!(sub, r#"{{"op":"subscribe","buffer":65536}}"#).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut ack = String::new();
    BufReader::new(sub.try_clone().unwrap()).read_line(&mut ack).unwrap();
    assert!(ack.contains("\"streaming\":\"events\""), "{ack}");

    drop(sub);
    kill(&child, "-TERM");
    assert_eq!(wait_exit(child, 30), 0);
}

/// A subscriber vanishing mid-stream is this connection's problem only:
/// the accept loop keeps answering requests and later jobs still run.
#[test]
fn subscriber_disconnect_does_not_kill_accept_loop() {
    let dir = temp_dir("disc");
    let sock = dir.join("serve.sock");
    let child = spawn_socket_serve(&sock, &[]);

    let mut sub = connect(&sock, 10);
    writeln!(sub, "{{\"op\":\"subscribe\"}}").unwrap();
    let mut sub_reader = BufReader::new(sub.try_clone().unwrap());
    let mut ack = String::new();
    sub_reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("\"streaming\":\"events\""), "{ack}");

    // Generate traffic, then drop the subscriber without reading it.
    let mut ctl = connect(&sock, 5);
    let resp = request(
        &mut ctl,
        r#"{"op":"submit","name":"a","pattern":"triangle","graph":"gen:complete,n=8"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    drop(sub_reader);
    drop(sub);

    // The server must still serve fresh connections and finish new work.
    let done = request(&mut ctl, r#"{"op":"wait","id":1}"#);
    assert!(done.contains("\"outcome\":\"finished\""), "{done}");
    let mut fresh = connect(&sock, 5);
    let resp = request(
        &mut fresh,
        r#"{"op":"submit","name":"b","pattern":"triangle","graph":"gen:complete,n=8"}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let done = request(&mut fresh, r#"{"op":"wait","id":2}"#);
    assert!(done.contains("\"outcome\":\"finished\""), "{done}");
    let status = request(&mut fresh, r#"{"op":"status"}"#);
    assert!(status.contains("\"completed\":2"), "{status}");

    kill(&child, "-TERM");
    assert_eq!(wait_exit(child, 30), 0);
}

/// SIGUSR1 dumps the flight recorder as parseable JSONL, and the ring
/// capacity truncates the dump to the most recent events while the
/// header still reports everything it has seen.
#[test]
fn sigusr1_dumps_flight_recorder_with_ring_truncation() {
    let dir = temp_dir("usr1");
    let sock = dir.join("serve.sock");
    let recorder = dir.join("flight.jsonl");
    let child = spawn_socket_serve(
        &sock,
        &["--recorder-out", recorder.to_str().unwrap(), "--recorder-cap", "8"],
    );

    // Three jobs publish well over eight lifecycle events.
    let mut ctl = connect(&sock, 10);
    for i in 0..3 {
        let resp = request(
            &mut ctl,
            &format!(
                r#"{{"op":"submit","name":"j{i}","pattern":"triangle","graph":"gen:complete,n=8"}}"#
            ),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    for id in 1..=3u64 {
        let done = request(&mut ctl, &format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(done.contains("\"outcome\":\"finished\""), "{done}");
    }

    kill(&child, "-USR1");
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = loop {
        if let Ok(body) = std::fs::read_to_string(&recorder) {
            if !body.is_empty() {
                break body;
            }
        }
        assert!(Instant::now() < deadline, "recorder file never appeared");
        std::thread::sleep(Duration::from_millis(20));
    };

    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty(), "{body}");
    let header = lines[0];
    assert_eq!(str_field(header, "event"), Some("recorder"), "{body}");
    assert_eq!(str_field(header, "reason"), Some("sigusr1"), "{body}");
    let dumped = u64_field(header, "dumped").expect("header carries dumped");
    let seen = u64_field(header, "seen").expect("header carries seen");
    assert_eq!(dumped as usize, lines.len() - 1, "{body}");
    assert!(dumped <= 8, "ring cap not honoured: {body}");
    assert!(seen > dumped, "three jobs must overflow an 8-slot ring: {body}");
    for line in &lines[1..] {
        assert!(str_field(line, "kind").is_some(), "event missing kind: {line}");
        assert!(u64_field(line, "seq").is_some(), "event missing seq: {line}");
    }
    // Truncation keeps the tail: the newest events survive, so the last
    // job's terminal transition must be present.
    assert!(body.contains("\"kind\":\"finished\""), "{body}");

    // The process itself keeps running after the dump.
    let status = request(&mut ctl, r#"{"op":"status"}"#);
    assert!(status.contains("\"completed\":3"), "{status}");

    kill(&child, "-TERM");
    assert_eq!(wait_exit(child, 30), 0);
}

/// One `serve --trace-out` run with two concurrent jobs yields a single
/// Chrome-trace JSON where supervisor lifecycle lanes and engine worker
/// lanes share the timeline.
#[test]
fn trace_out_captures_two_concurrent_jobs_on_one_timeline() {
    let dir = temp_dir("trace");
    let sock = dir.join("serve.sock");
    let trace = dir.join("trace.json");
    let child =
        spawn_socket_serve(&sock, &["--trace-out", trace.to_str().unwrap(), "--exit-when-idle"]);

    let mut ctl = connect(&sock, 10);
    for (i, name) in ["left", "right"].iter().enumerate() {
        let resp = request(
            &mut ctl,
            &format!(
                r#"{{"op":"submit","name":"{name}","pattern":"house","graph":"gen:powerlaw,n=300,m=4,closure=0.5,seed={i}"}}"#
            ),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    for id in 1..=2u64 {
        let done = request(&mut ctl, &format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(done.contains("\"outcome\":\"finished\""), "{done}");
    }
    drop(ctl);
    assert_eq!(wait_exit(child, 60), 0);

    let body = std::fs::read_to_string(&trace).expect("trace file written at exit");
    assert!(body.contains("\"traceEvents\""), "{body}");
    // Supervisor lanes: one lifecycle span per job, on distinct job lanes.
    assert!(body.contains("\"queue-wait\""), "missing queue-wait span");
    assert!(body.contains("\"tid\":1001"), "missing job lane 1001");
    assert!(body.contains("\"tid\":1002"), "missing job lane 1002");
    // Engine lanes: stints and per-task spans from the workers.
    assert!(body.contains("\"stint\""), "missing engine stint span");
    assert!(body.contains("\"start-vertex-task\""), "missing engine task span");
}
