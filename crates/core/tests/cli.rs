//! End-to-end tests of the `flexminer` binary's job-control surface:
//! `--timeout`/`--budget` on `count`, `--watchdog` on `sim`, and the
//! distinct exit codes scripts rely on.

use std::process::{Command, Output};

fn flexminer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flexminer")).args(args).output().expect("binary should spawn")
}

const GRAPH: &str = "gen:powerlaw,n=400,m=5,closure=0.5,seed=3";

#[test]
fn complete_count_exits_zero_with_counts_on_stdout() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("triangle: "), "stdout: {stdout}");
}

#[test]
fn zero_timeout_exits_with_deadline_code() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--timeout", "0"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // Counts are still printed (exact over the completed subset) and the
    // truncation is flagged on stderr.
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("triangle: "));
    assert!(String::from_utf8_lossy(&out.stderr).contains("DeadlineExceeded"));
}

#[test]
fn tiny_budget_exits_with_budget_code() {
    let out = flexminer(&["count", "4-cycle", "--graph", GRAPH, "--budget", "50"]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("BudgetExhausted"));
}

#[test]
fn generous_budget_stays_complete() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--budget", "1000000000"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn watchdog_trip_exits_seven_with_fsm_dump() {
    let out = flexminer(&["sim", "4-clique", "--graph", GRAPH, "--pes", "1", "--watchdog", "1"]);
    assert_eq!(out.status.code(), Some(7), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("watchdog tripped"), "stderr: {stderr}");
    assert!(stderr.contains("PE 0:"), "stderr: {stderr}");
}

#[test]
fn generous_watchdog_sim_exits_zero() {
    let out = flexminer(&[
        "sim",
        "triangle",
        "--graph",
        "gen:er,n=60,p=0.1,seed=2",
        "--pes",
        "2",
        "--watchdog",
        "100000000",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// The five single-pattern workloads on a fixed generator spec print
/// exactly the checked-in statistics (CI diffs the release binary against
/// the same file): host-side speed-ups of the simulator must not move a
/// simulated number.
#[test]
fn sim_stdout_matches_the_golden_file() {
    let mut stdout = String::new();
    for pattern in ["triangle", "4-clique", "5-clique", "4-cycle", "diamond"] {
        let graph = "gen:powerlaw,n=2000,m=8,closure=0.6,seed=2";
        let out = flexminer(&["sim", pattern, "--graph", graph, "--log-level", "error"]);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        stdout.push_str(std::str::from_utf8(&out.stdout).unwrap());
    }
    assert_eq!(stdout, include_str!("golden/sim_stdout.txt"));
}

/// `plan` says what `count` will run: below the Listing-1 text, one
/// `count:` line per leaf that is counted without being walked, nothing
/// for a plan that enumerates.
#[test]
fn plan_prints_the_count_only_decision_per_leaf() {
    let plan = |args: &[&str]| {
        let out = flexminer(&[&["plan"], args].concat());
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let listing = "    → matches pattern 0 (4-cycle)\n";
    assert_eq!(
        plan(&["4-cycle"]).split_once(listing).expect("the IR comes first").1,
        "count: pair-join v1,v2 → v3 (count map)\n"
    );
    assert!(plan(&["diamond"]).ends_with("\ncount: choose(|prefix ∩ v1.N|, 2) → v3\n"));
    assert!(plan(&["3-star"]).ends_with("\ncount: choose(|core(v1)|, 3) → v3\n"));
    assert!(plan(&["wedge", "--induced"]).ends_with("\ncount: |prefix| − |prefix ∩ v1.N| → v2\n"));
    for args in
        [&["5-cycle"][..], &["house"], &["4-cycle", "--induced"], &["4-cycle", "--no-symmetry"]]
    {
        let text = plan(args);
        assert!(text.contains("pruneBy") && !text.contains("count:"), "{args:?}: {text}");
    }
    assert!(plan(&["5-cycle"]).contains("(5-cycle)") && plan(&["house"]).contains("(house)"));
}

/// A seconds value that is not a number, or is one no `Duration` holds
/// (negative, NaN, infinite, over 2⁶⁴), is a bad value: exit 1, one line.
#[test]
fn bad_flag_values_exit_one() {
    let ckpt = temp_ckpt("bad-interval");
    let ckpt = ckpt.to_str().unwrap();
    for secs in ["soon", "-1", "nan", "inf", "1e20"] {
        let interval = format!("{secs}s");
        for (flag, tail) in [
            ("--timeout", vec!["--timeout", secs]),
            (
                "--checkpoint-interval",
                vec!["--checkpoint", ckpt, "--checkpoint-interval", &interval],
            ),
        ] {
            let args = [&["count", "triangle", "--graph", GRAPH][..], &tail].concat();
            let out = flexminer(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
            assert!(stderr.contains(&format!("bad {flag}")), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?} printed a count");
        }
    }
    assert!(!std::path::Path::new(ckpt).exists(), "a refused run wrote a checkpoint");
}

#[test]
fn bad_patterns_exit_one_naming_the_token() {
    for (pattern, needle) in [
        ("0-18446744073709551615", "18446744073709551615 vertices exceeds the maximum"),
        ("sdfs", "cannot read \"sdfs\""),
        ("0-1,", "cannot read \"\""),
        ("17-clique", "cannot read \"17-clique\""),
    ] {
        for command in ["plan", "count", "sim"] {
            // `plan` takes no graph, and says so (exit 2) if given one.
            let graph: &[&str] = if command == "plan" { &[] } else { &["--graph", GRAPH] };
            let out = flexminer(&[&[command, pattern], graph].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {pattern}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{command} {pattern}: {stderr}");
            assert!(stderr.contains(needle), "{command} {pattern}: {stderr}");
            assert!(out.stdout.is_empty());
        }
    }
}

/// A `gen:` spec outside its generator's preconditions is a one-line
/// message, never the generator's own assert and backtrace.
#[test]
fn bad_gen_specs_exit_one_without_a_panic() {
    for spec in ["gen:powerlaw,n=5,m=10", "gen:pa,n=3,m=0", "gen:caveman,communities=0,size=4"] {
        let out = flexminer(&["count", "triangle", "--graph", spec]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{spec}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{spec}: {stderr}");
        assert!(stderr.contains("bad gen spec"), "{spec}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{spec}: {stderr}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn help_after_a_command_prints_usage_and_exits_zero() {
    for args in [&["count", "--help"][..], &["sim", "-h"], &["plan", "triangle", "--help"], &["-h"]]
    {
        let out = flexminer(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("flexminer —") && stdout.contains("exit codes:"), "{stdout}");
        assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    // A mistake still gets the usage on stderr and exit code 2.
    let out = flexminer(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: unknown command frobnicate"));
}

/// A reader that went away is not a crash: with stdout the write end of a
/// pipe whose read end is already closed (what `| head -1` leaves behind),
/// every subcommand that prints ends with status 0 and nothing on stderr —
/// not 101 and `failed printing to stdout`.
#[test]
fn a_closed_stdout_pipe_ends_quietly_with_status_zero() {
    let stats = ["stats", "--graph", GRAPH];
    for args in
        [&["plan", "5-clique"][..], &["--help"], &["count", "triangle", "--graph", GRAPH], &stats]
    {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_flexminer"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary should spawn");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

/// Every subcommand checks its argv against its own flag table before it
/// does any work: a flag it does not list (a typo, another subcommand's
/// flag, the reuse tier's retired `--no-reuse` / `--reuse-budget`), a
/// flag missing its value, a stray operand and `--threads 0` all print
/// `error: …` plus the usage and exit 2 — none of them runs the job.
#[test]
fn unknown_flags_missing_values_and_zero_threads_exit_two() {
    let count = ["count", "triangle", "--graph", GRAPH];
    let cases: [(&[&str], &[&str], &str); 18] = [
        (&count, &["--no-resue", "--bogus", "7"], "unknown flag --no-resue"),
        (&count, &["--bogus", "7"], "unknown flag --bogus"),
        (&count, &["--no-reuse"], "unknown flag --no-reuse"),
        (&count, &["--reuse-budget", "1"], "unknown flag --reuse-budget"),
        (&count, &["--no-simd"], "unknown flag --no-simd"),
        (&count, &["--no-hub-bitmap"], "unknown flag --no-hub-bitmap"),
        (&count, &["--hub-threshold", "8"], "unknown flag --hub-threshold"),
        (&count, &["--hub-budget", "1"], "unknown flag --hub-budget"),
        (&count, &["--threads"], "--threads needs a value"),
        (&count, &["--threads", "--induced"], "--threads needs a value"),
        (&count, &["--threads", "0"], "--threads must be at least 1"),
        (&count, &["extra"], "unexpected argument extra"),
        (&["motifs", "3", "--graph", GRAPH], &["--threads", "0"], "--threads must be at least 1"),
        (&["motifs", "0", "--graph", GRAPH], &[], "motif size 0 is outside 1..=6"),
        (&["motifs", "7", "--graph", GRAPH], &[], "motif size 7 is outside 1..=6"),
        (&["sim", "triangle", "--graph", GRAPH], &["--threads", "2"], "unknown flag --threads"),
        (&["plan", "triangle"], &["--graph", GRAPH], "unknown flag --graph"),
        (&["serve"], &["--exit-when-idel"], "unknown flag --exit-when-idel"),
    ];
    for (head, tail, needle) in cases {
        let args = [head, tail].concat();
        let out = flexminer(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("error: {needle}\n")), "{args:?}: {stderr}");
        assert!(stderr.contains("commands:") && stderr.contains("exit codes:"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a count");
    }
    // A value that does not parse is still a bad value (exit 1), not usage.
    let out = flexminer(&[&count[..], &["--threads", "two"]].concat());
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --threads"));
}

/// `sim --pes` outside `1..=MAX_PES` is refused with exit 2 before the
/// graph is read (the spec names no file): no PE is built for either.
#[test]
fn out_of_range_pe_counts_exit_two_before_the_graph_loads() {
    for pes in ["0", "18446744073709551615"] {
        let out = flexminer(&["sim", "triangle", "--graph", "no/such/graph.txt", "--pes", pes]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--pes {pes}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: num_pes = {pes} is outside 1..=256\n")),
            "--pes {pes}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--pes {pes} printed a report");
    }
}

/// A unique checkpoint path per call, so parallel test binaries and reruns
/// never collide on stale files.
fn temp_ckpt(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fm-cli-ckpt-{}-{tag}-{n}.bin", std::process::id()))
}

/// The durability loop end to end through the binary: a budget-cut run
/// writes a snapshot (exit 4), and `--resume` finishes the job with the
/// exact same stdout as an uninterrupted run (exit 0).
#[test]
fn interrupted_count_resumes_to_the_exact_full_total() {
    // The house enumerates every level: the job that is still running
    // when its budget goes, at a size that costs what the 4-cycle did.
    const GRAPH: &str = "gen:powerlaw,n=80,m=5,closure=0.5,seed=3";
    let path = temp_ckpt("resume");
    let ckpt = path.to_str().unwrap();
    let full = flexminer(&["count", "house", "--graph", GRAPH]);
    assert_eq!(full.status.code(), Some(0));
    assert!(full.stdout.starts_with(b"house: "), "{}", String::from_utf8_lossy(&full.stdout));

    let cut = flexminer(&[
        "count",
        "house",
        "--graph",
        GRAPH,
        "--budget",
        "500",
        "--checkpoint",
        ckpt,
        "--checkpoint-interval",
        "1",
    ]);
    assert_eq!(cut.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&cut.stderr));
    assert!(path.exists(), "budget-cut run must leave a snapshot behind");

    let resumed = flexminer(&["count", "house", "--graph", GRAPH, "--resume", ckpt]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, full.stdout, "resumed totals must be bit-identical");
    let _ = std::fs::remove_file(&path);
}

/// Resuming against a different graph is a structured refusal (exit 1
/// with the fingerprint message), never a silently wrong count.
#[test]
fn resume_against_a_different_graph_exits_one() {
    let path = temp_ckpt("mismatch");
    let ckpt = path.to_str().unwrap();
    let seed = flexminer(&[
        "count",
        "triangle",
        "--graph",
        GRAPH,
        "--checkpoint",
        ckpt,
        "--checkpoint-interval",
        "64",
    ]);
    assert_eq!(seed.status.code(), Some(0));
    let out =
        flexminer(&["count", "triangle", "--graph", "gen:er,n=60,p=0.1,seed=2", "--resume", ckpt]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different graph"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&path);
}

/// A missing snapshot is an IO refusal, and flag misuse is caught before
/// any mining starts.
#[test]
fn durability_flag_misuse_exits_one() {
    let missing = temp_ckpt("missing");
    let out =
        flexminer(&["count", "triangle", "--graph", GRAPH, "--resume", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint io"));

    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--checkpoint-interval", "8"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --checkpoint"));

    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--max-retries", "many"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --max-retries"));
}

/// `--max-retries` parses and a healthy run stays exit 0 (the retry knob
/// only matters when faults fire).
#[test]
fn max_retries_on_a_healthy_run_stays_complete() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--max-retries", "3"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("triangle: "));
}

/// Naive JSON structural check, good enough to validate trace/heartbeat
/// shape without a parser dependency: balanced braces and the expected
/// markers present.
fn assert_json_object(s: &str, markers: &[&str]) {
    let opens = s.matches('{').count();
    let closes = s.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in {s:.200}");
    assert!(opens > 0, "no JSON object in {s:.200}");
    for m in markers {
        assert!(s.contains(m), "missing {m:?} in {s:.200}");
    }
}

/// `count --metrics-out/--trace-out` writes Prometheus text (by extension)
/// and valid Chrome trace JSON, while stdout stays byte-identical to a
/// plain run (telemetry is observation, never perturbation).
#[test]
fn count_telemetry_exports_and_stays_bit_identical() {
    let prom = temp_ckpt("metrics").with_extension("prom");
    let trace = temp_ckpt("trace").with_extension("json");
    let plain = flexminer(&["count", "4-clique", "--graph", GRAPH, "--threads", "4"]);
    assert_eq!(plain.status.code(), Some(0));
    let observed = flexminer(&[
        "count",
        "4-clique",
        "--graph",
        GRAPH,
        "--threads",
        "4",
        "--metrics-out",
        prom.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(
        observed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&observed.stderr)
    );
    assert_eq!(observed.stdout, plain.stdout, "telemetry must not change counts");

    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("# TYPE fm_pattern_count counter"), "{prom_text:.300}");
    assert!(prom_text.contains("fm_depth_setop_iterations{depth=\"1\"}"), "{prom_text:.300}");
    assert!(prom_text.contains("fm_dispatches{tier="), "{prom_text:.300}");
    for series in ["# TYPE fm_setop_iterations counter", "# TYPE fm_setop_invocations counter"] {
        assert!(prom_text.contains(series), "{series} missing: {prom_text:.300}");
    }
    // The engine has no c-map: neither the totals nor the depth series.
    assert!(!prom_text.contains("cmap"), "{prom_text}");
    assert!(prom_text.contains("fm_task_wall_time_us_bucket"), "{prom_text:.300}");

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert_json_object(
        &trace_text,
        &["\"traceEvents\"", "\"name\":\"mine\"", "\"name\":\"start-vertex-task\"", "\"ph\":\"X\""],
    );
    let _ = std::fs::remove_file(&prom);
    let _ = std::fs::remove_file(&trace);
}

/// `--progress` emits live lines on stderr and `--heartbeat` appends JSONL
/// snapshots; `--log-level error` silences the advisory footer.
#[test]
fn progress_and_heartbeat_report_live_state() {
    let heartbeat = temp_ckpt("heartbeat").with_extension("jsonl");
    let out = flexminer(&[
        "count",
        "triangle",
        "--graph",
        GRAPH,
        "--progress",
        "64",
        "--heartbeat",
        heartbeat.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[progress]"), "stderr: {stderr}");
    assert!(stderr.contains("status Complete"), "stderr: {stderr}");
    let lines = std::fs::read_to_string(&heartbeat).unwrap();
    let last = lines.lines().last().expect("at least the final heartbeat");
    assert_json_object(last, &["\"done\"", "\"total\"", "\"status\":\"Complete\""]);
    // A progress reporter turns iteration accounting on even with no
    // budget to enforce, so reports can carry a throughput figure.
    assert!(!last.contains("\"setop_iterations\":0,"), "{last}");

    let quiet = flexminer(&["count", "triangle", "--graph", GRAPH, "--log-level", "error"]);
    assert_eq!(quiet.status.code(), Some(0));
    let quiet_err = String::from_utf8_lossy(&quiet.stderr);
    assert!(!quiet_err.contains("threads"), "stderr should be silent: {quiet_err}");
    let _ = std::fs::remove_file(&heartbeat);
}

/// `sim --metrics-out/--trace-out`: per-PE FSM occupancy lands in the
/// metrics document and the machine timeline renders as counter tracks.
#[test]
fn sim_telemetry_exports_occupancy_and_timeline() {
    let prom = temp_ckpt("sim-metrics").with_extension("txt");
    let trace = temp_ckpt("sim-trace").with_extension("json");
    let out = flexminer(&[
        "sim",
        "triangle",
        "--graph",
        GRAPH,
        "--pes",
        "4",
        "--metrics-out",
        prom.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(
        prom_text.contains("fm_sim_pe_occupancy_cycles{pe=\"0\",state=\"Idle\"}"),
        "{prom_text:.400}"
    );
    assert!(
        prom_text.contains("fm_sim_pe_occupancy_cycles{pe=\"3\",state=\"IteratingEdges\"}"),
        "{prom_text:.400}"
    );
    assert!(prom_text.contains("fm_sim_cycles"), "{prom_text:.400}");
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert_json_object(&trace_text, &["\"traceEvents\"", "\"ph\":\"C\"", "pe_utilization"]);
    let _ = std::fs::remove_file(&prom);
    let _ = std::fs::remove_file(&trace);
}

/// Bad telemetry flag values fail fast, before any mining starts.
#[test]
fn bad_telemetry_flags_exit_one() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--progress", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --progress"));

    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--log-level", "loud"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --log-level"));
}
