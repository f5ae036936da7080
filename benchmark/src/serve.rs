//! `serve-*`, end to end: a live `flexminer serve --socket --journal`
//! process and closed-loop clients, each sending `submit` then `wait` and
//! only then its next job. A repetition is a fresh server and a fixed
//! schedule of jobs; repetitions run until the measuring time is up.

use crate::check::reference;
use crate::inputs::{requests, serve_medium_spec, serve_small_spec, Request, THREADS};
use crate::layers::{self, Subject};
use crate::pace::Pace;
use crate::proc::vm_hwm_mb;
use crate::report::{Outcome, Stat};
use crate::stats::{geomean, median, percentile, ratio, SplitMix64};
use crate::trace::{self, Tracer};
use crate::Ctx;
use fm_graph::CsrGraph;
use fm_jobs::jsonl::{self, Json};
use fm_telemetry::{Span, TraceClock};
use std::collections::btree_map::{BTreeMap, Entry};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const SOCKET: &str = "serve.sock";
const JOURNAL: &str = "journal.bin";
/// Closed-loop client connections.
const CONNECTIONS: usize = THREADS;
/// Fewest repetitions a run reports from.
const MIN_REPETITIONS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    /// `triangle` on the one cached small spec.
    Repeat,
    /// `triangle` on the small spec with a never-seen seed: a cache miss.
    Fresh,
    /// `4-cycle` on the cached medium spec.
    Medium,
}

struct Job {
    class: Class,
    pattern: &'static str,
    graph: String,
}

/// One answered job, on the client's clock.
struct Done {
    class: Class,
    pattern: &'static str,
    graph: String,
    counts: Vec<u64>,
    latency_s: f64,
    submit_rtt_s: f64,
    wait_rtt_s: f64,
}

/// Jobs per connection and repetition, by class. Fixed shares, shuffled
/// by the seed, so every repetition carries the same work.
fn mix(workload: &str) -> [(Class, usize); 3] {
    match workload {
        // 80 % repeat, 20 % fresh.
        "serve-small" => [(Class::Repeat, 120), (Class::Fresh, 30), (Class::Medium, 0)],
        // 70 % repeat, 15 % fresh, 15 % medium.
        "serve-mix" => [(Class::Repeat, 42), (Class::Fresh, 9), (Class::Medium, 9)],
        other => panic!("{other} is not a serve workload"),
    }
}

/// Whether the workload's repetitions carry medium jobs.
fn has_medium(workload: &str) -> bool {
    mix(workload).iter().any(|(class, n)| *class == Class::Medium && *n > 0)
}

fn schedule(ctx: &Ctx, repetition: usize, connection: usize) -> Vec<Job> {
    let stream = (repetition * CONNECTIONS + connection) as u64;
    let mut jobs = Vec::new();
    for (class, n) in mix(ctx.workload) {
        for k in 0..n as u64 {
            let (pattern, graph) = match class {
                Class::Repeat => ("triangle", serve_small_spec(ctx.seed, ctx.quick)),
                // Unique across connections, repetitions and run seeds.
                Class::Fresh => (
                    "triangle",
                    serve_small_spec((ctx.seed << 32) + (stream << 16) + k + 1, ctx.quick),
                ),
                Class::Medium => ("4-cycle", serve_medium_spec(ctx.seed, ctx.quick)),
            };
            jobs.push(Job { class, pattern, graph });
        }
    }
    SplitMix64(ctx.seed ^ (stream << 8)).shuffle(&mut jobs);
    jobs
}

/// One JSONL connection to the server.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn request(&mut self, line: &str) -> Result<Json, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send {line}: {e}"))?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply).map_err(|e| format!("reply to {line}: {e}"))?;
        jsonl::parse(reply.trim_end()).map_err(|e| format!("reply {reply:?} to {line}: {e}"))
    }
}

/// The server under test. Dropping it kills and reaps the process, so no
/// way out of a repetition leaves it running.
struct Server(Option<Child>);

impl Server {
    fn start(ctx: &Ctx) -> Result<Server, String> {
        // A fresh journal: the previous repetition's would be replayed.
        let _ = std::fs::remove_file(JOURNAL);
        let _ = std::fs::remove_file(SOCKET);
        let workers = THREADS.to_string();
        Command::new(&ctx.bin)
            .args(["serve", "--socket", SOCKET, "--journal", JOURNAL, "--workers", &workers])
            .stdin(Stdio::null())
            // One summary line per job at exit; nobody reads them.
            .stdout(Stdio::null())
            .spawn()
            .map(|child| Server(Some(child)))
            .map_err(|e| format!("spawn {}: {e}", ctx.bin.display()))
    }

    fn connect(&mut self) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(writer) = UnixStream::connect(SOCKET) {
                let reader = writer.try_clone().map_err(|e| format!("clone socket: {e}"))?;
                return Ok(Conn { reader: BufReader::new(reader), writer });
            }
            let child = self.0.as_mut().expect("server is running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("serve exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("serve did not listen within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Reads the server's peak RSS, asks it to drain and exit, and reaps
    /// it. Returns the peak in MB and the exit code.
    fn stop(mut self, control: &mut Conn) -> Result<(f64, i32), String> {
        let pid = self.0.as_ref().expect("server is running").id();
        let peak_rss_mb = vm_hwm_mb(pid).ok_or("serve has no VmHWM to read")?;
        control.request(r#"{"op":"shutdown"}"#)?;
        // Taken only now: an error above still drops a server that kills.
        let mut child = self.0.take().expect("server is running");
        let status = child.wait().map_err(|e| format!("reap serve: {e}"))?;
        Ok((peak_rss_mb, status.code().unwrap_or(-1)))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Submits `job` and waits for its outcome; `Err` is a failed operation.
fn roundtrip(conn: &mut Conn, job: &Job, tracer: &mut Tracer, id: u32) -> Result<Done, String> {
    let submit =
        format!(r#"{{"op":"submit","pattern":"{}","graph":"{}"}}"#, job.pattern, job.graph);
    let open = tracer.open();
    let (accepted, submit_rtt_s) = tracer.timed("submit", "job", id, || conn.request(&submit));
    let accepted = accepted?;
    let job_id = accepted
        .get("id")
        .and_then(Json::as_u64)
        .filter(|_| accepted.get("ok").and_then(Json::as_bool) == Some(true))
        .ok_or_else(|| format!("submit refused: {}", accepted.to_jsonl()))?;
    let wait = format!(r#"{{"op":"wait","id":{job_id}}}"#);
    let (outcome, wait_rtt_s) = tracer.timed("wait", "job", id, || conn.request(&wait));
    let latency_s = tracer.close(open, "job", "", id);
    let outcome = outcome?;
    let complete = outcome.get("ok").and_then(Json::as_bool) == Some(true)
        && outcome.get("status").and_then(Json::as_str) == Some("Complete");
    let counts = outcome
        .get("counts")
        .and_then(Json::as_arr)
        .filter(|_| complete)
        .ok_or_else(|| format!("job did not complete: {}", outcome.to_jsonl()))?
        .iter()
        .filter_map(Json::as_u64)
        .collect();
    Ok(Done {
        class: job.class,
        pattern: job.pattern,
        graph: job.graph.clone(),
        counts,
        latency_s,
        submit_rtt_s,
        wait_rtt_s,
    })
}

/// What one repetition measured.
struct Repetition {
    setup_s: f64,
    /// First submit to last reply; divided by the machine's slowdown when
    /// the repetition is CPU-bound (see [`run`]).
    wall_s: f64,
    slowdown: f64,
    done: Vec<Done>,
    failed: Vec<String>,
    peak_rss_mb: f64,
    exit_code: i32,
    /// The server's `status` and `metrics` replies, read once after the
    /// timed section.
    status: Json,
    metrics: Json,
    spans: Vec<Span>,
}

fn repetition(
    ctx: &Ctx,
    index: usize,
    clock: TraceClock,
    pace: &Pace,
) -> Result<Repetition, String> {
    // Set-up: start the server, connect, and load the cached specs.
    let setup = Instant::now();
    let mut server = Server::start(ctx)?;
    let mut control = server.connect()?;
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(server.connect()?);
    }
    let mut untraced = Tracer::new(clock, false);
    let medium = has_medium(ctx.workload);
    let warm = [
        (true, serve_small_spec(ctx.seed, ctx.quick)),
        (medium, serve_medium_spec(ctx.seed, ctx.quick)),
    ];
    for (_, graph) in warm.into_iter().filter(|(wanted, _)| *wanted) {
        roundtrip(
            &mut control,
            &Job { class: Class::Repeat, pattern: "triangle", graph },
            &mut untraced,
            0,
        )?;
    }
    let setup_s = setup.elapsed().as_secs_f64();

    // The timed section: every connection works through its schedule.
    let barrier = Barrier::new(CONNECTIONS + 1);
    type Client = (Vec<Done>, Vec<String>, Vec<Span>, Instant);
    let run_clients = || -> (Instant, Vec<Client>) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(c, mut conn)| {
                    let jobs = schedule(ctx, index, c);
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(clock, ctx.trace);
                        let (mut done, mut failed) = (Vec::new(), Vec::new());
                        barrier.wait();
                        for (k, job) in jobs.iter().enumerate() {
                            let id = ((index * CONNECTIONS + c) * jobs.len() + k + 1) as u32;
                            match roundtrip(&mut conn, job, &mut tracer, id) {
                                Ok(d) => done.push(d),
                                Err(e) => failed.push(e),
                            }
                        }
                        (done, failed, tracer.spans, Instant::now())
                    })
                })
                .collect();
            // No client can send before this thread reaches the barrier.
            let start = Instant::now();
            barrier.wait();
            (
                start,
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect(),
            )
        })
    };
    let ((start, mut clients), _, slowdown) = pace.time(run_clients);
    let end = clients.iter().map(|c| c.3).max().expect("at least one connection");
    let wall_s = end.duration_since(start).as_secs_f64() / slowdown;
    // Medium jobs mine for as long as they last; small ones mostly sleep
    // in `wait`'s poll, which a slow machine does not stretch.
    for done in clients.iter_mut().flat_map(|c| &mut c.0) {
        if done.class == Class::Medium {
            done.latency_s /= slowdown;
        }
    }

    let status = control.request(r#"{"op":"status"}"#)?;
    let metrics = control.request(r#"{"op":"metrics"}"#)?;
    let (peak_rss_mb, exit_code) = server.stop(&mut control)?;
    let mut rep = Repetition {
        setup_s,
        wall_s,
        slowdown,
        done: Vec::new(),
        failed: Vec::new(),
        peak_rss_mb,
        exit_code,
        status,
        metrics,
        spans: Vec::new(),
    };
    for (done, failed, spans, _) in clients {
        rep.done.extend(done);
        rep.failed.extend(failed);
        rep.spans.extend(spans);
    }
    Ok(rep)
}

/// `sum` and `count` of one histogram in a `metrics` reply.
fn histogram(metrics: &Json, name: &str) -> (f64, f64) {
    let found =
        metrics.get("body").and_then(|b| b.get("metrics")).and_then(Json::as_arr).and_then(|all| {
            all.iter().find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        });
    let field = |key: &str| found.and_then(|m| m.get(key)).and_then(Json::as_f64).unwrap_or(0.0);
    (field("sum"), field("count"))
}

fn latencies_ms(done: &[&Done]) -> Vec<f64> {
    done.iter().map(|d| d.latency_s * 1e3).collect()
}

/// A cached spec a job class runs on, for the in-process replica.
struct Cached<'a> {
    request: &'static Request,
    graph_arg: &'a str,
    graph: CsrGraph,
    expected: Vec<u64>,
}

/// The correctness gate: every reply against the reference for its spec,
/// each fresh-seed spec included, after the timed section. Returns the
/// cached (non-fresh) specs with their graphs and reference counts.
fn verify<'a>(
    ctx: &Ctx,
    reps: &'a [Repetition],
    outcome: &mut Outcome,
) -> Result<Vec<Cached<'a>>, String> {
    let mut expected: BTreeMap<(&str, &str), Vec<u64>> = BTreeMap::new();
    let mut cached = Vec::new();
    for rep in reps {
        outcome.attempted += (rep.done.len() + rep.failed.len()) as u64;
        if rep.exit_code != 0 {
            outcome.fail(format_args!("serve exited {}", rep.exit_code));
        }
        for error in &rep.failed {
            outcome.fail(format_args!("{error}"));
        }
        for d in &rep.done {
            let key = (d.pattern, d.graph.as_str());
            if let Entry::Vacant(slot) = expected.entry(key) {
                let graph = flexminer::graphspec::load(&d.graph)?;
                let request = requests(ctx.workload)
                    .iter()
                    .find(|r| r.pattern == d.pattern)
                    .expect("every job pattern is a request of the workload");
                let counts = reference(&graph, request);
                if d.class != Class::Fresh {
                    let expected = counts.clone();
                    cached.push(Cached { request, graph_arg: &d.graph, graph, expected });
                }
                slot.insert(counts);
            }
            if d.counts != expected[&key] {
                outcome.fail(format_args!(
                    "{} on {} answered {:?}, reference {:?}",
                    d.pattern, d.graph, d.counts, expected[&key]
                ));
            }
        }
    }
    Ok(cached)
}

/// What a serve client sees, from the untraced repetitions.
fn end_to_end(reps: &[Repetition], outcome: &mut Outcome) {
    let jobs = reps[0].done.len() + reps[0].failed.len();
    // Class means, not medians: a small job on `serve-mix` takes 3 ms or
    // 11 ms depending on whether it beats `wait`'s first poll, about half
    // and half, so its median jumps between the two modes from run to run.
    let class_means: Vec<f64> = [Class::Repeat, Class::Fresh, Class::Medium]
        .into_iter()
        .map(|class| -> Vec<f64> {
            reps.iter()
                .flat_map(|r| &r.done)
                .filter(|d| d.class == class)
                .map(|d| d.latency_s)
                .collect()
        })
        .filter(|latencies| !latencies.is_empty())
        .map(|latencies| latencies.iter().sum::<f64>() / latencies.len() as f64)
        .collect();
    let column = |f: fn(&Repetition) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    outcome.set("setup_s", Stat::of(&column(|r| r.setup_s)));
    outcome.set("wall_s", Stat::of(&column(|r| r.wall_s)));
    outcome.set("wall_geomean_s", Stat::one(geomean(&class_means)));
    // The highest of the repetitions' peaks, like the CLI workloads.
    outcome
        .set("peak_rss_mb", Stat::one(column(|r| r.peak_rss_mb).into_iter().fold(0.0, f64::max)));
    let rates: Vec<f64> = reps.iter().map(|r| jobs as f64 / r.wall_s).collect();
    outcome.set("jobs_per_s", Stat::of(&rates));
}

/// The serve layer: the client's clock against the server's own
/// `metrics` and `status`.
fn serve_layer(ctx: &Ctx, reps: &[Repetition], outcome: &mut Outcome) {
    let done: Vec<&Done> = reps.iter().flat_map(|r| &r.done).collect();
    let all_ms = latencies_ms(&done);
    outcome.set("job_p50_ms", Stat::one(percentile(&all_ms, 50.0)));
    outcome.set("job_p90_ms", Stat::one(percentile(&all_ms, 90.0)));
    outcome.set("job_p99_ms", Stat::one(percentile(&all_ms, 99.0)));
    let rtt = |f: fn(&Done) -> f64| median(&done.iter().map(|d| f(d) * 1e6).collect::<Vec<_>>());
    outcome.set("serve.submit_rtt_p50_us", Stat::one(rtt(|d| d.submit_rtt_s)));
    outcome.set("serve.wait_rtt_p50_us", Stat::one(rtt(|d| d.wait_rtt_s)));
    let mean_us = |name: &str| {
        let (sum, count) = reps
            .iter()
            .map(|r| histogram(&r.metrics, name))
            .fold((0.0, 0.0), |acc, h| (acc.0 + h.0, acc.1 + h.1));
        ratio(sum, count)
    };
    outcome.set("serve.queue_wait_mean_us", Stat::one(mean_us("fm_job_queue_wait_us")));
    outcome.set("serve.stint_mean_us", Stat::one(mean_us("fm_job_stint_us")));
    outcome.set("serve.journal_fsync_mean_us", Stat::one(mean_us("fm_job_journal_fsync_us")));
    let server_e2e_us = mean_us("fm_job_e2e_us");
    outcome.set("serve.e2e_mean_us", Stat::one(server_e2e_us));
    let client_mean_us = all_ms.iter().sum::<f64>() / all_ms.len() as f64 * 1e3;
    outcome.set("serve.client_minus_server_us", Stat::one(client_mean_us - server_e2e_us));
    let gauge = |key: &str| -> f64 {
        reps.iter().filter_map(|r| r.status.get(key).and_then(Json::as_f64)).sum()
    };
    outcome.set(
        "serve.journal_records_per_job",
        Stat::one(ratio(gauge("journal_records"), gauge("submitted"))),
    );
    outcome.set("serve.rejected", Stat::one(gauge("rejected")));
    outcome.set("serve.events_dropped", Stat::one(gauge("events_dropped")));
    if ctx.workload == "serve-mix" {
        let (medium, small): (Vec<&Done>, Vec<&Done>) =
            done.iter().partition(|d| d.class == Class::Medium);
        outcome.set("serve.mix_small_p50_ms", Stat::one(median(&latencies_ms(&small))));
        outcome.set("serve.mix_medium_p50_ms", Stat::one(median(&latencies_ms(&medium))));
    }
}

/// Runs the workload, untraced or traced as `ctx.trace` says.
///
/// Untraced repetitions with medium jobs are CPU-bound (mining is most of
/// their wall-clock), so they are paced like the CLI workloads: timed
/// between two probes of the machine's speed and divided by the slowdown.
/// Small jobs only — sleeps, fsyncs and queueing — are reported as they
/// are, and so is every traced run, whose times are read as shares.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let clock = TraceClock::start();
    let pace = if has_medium(ctx.workload) && !ctx.trace { Pace::new() } else { Pace::off() };
    let mut reps: Vec<Repetition> = Vec::new();
    let mut spans = Vec::new();
    let mut measured = 0.0;
    while reps.len() < MIN_REPETITIONS || measured < ctx.seconds {
        let mut rep = repetition(ctx, reps.len(), clock, &pace)?;
        measured += rep.wall_s;
        spans.append(&mut rep.spans);
        reps.push(rep);
    }
    let cached = verify(ctx, &reps, &mut outcome)?;
    if !ctx.trace {
        if has_medium(ctx.workload) {
            outcome.slowdowns = reps.iter().map(|r| r.slowdown).collect();
        }
        end_to_end(&reps, &mut outcome);
        return Ok(outcome);
    }
    serve_layer(ctx, &reps, &mut outcome);
    // The layers under serve, in process: one replica per job shape on one
    // thread (what a serve job gets), and fm-jobs' own primitives.
    let subjects: Vec<Subject> = cached
        .iter()
        .map(|c| Subject {
            request: c.request,
            graph_arg: c.graph_arg,
            graph: &c.graph,
            expected: &c.expected,
        })
        .collect();
    let mut tracer = Tracer::new(clock, true);
    layers::measure(&subjects, 1, Instant::now(), &mut tracer, &mut outcome)?;
    layers::jobs(&mut outcome)?;
    spans.extend(tracer.spans);
    trace::write(&ctx.out, ctx.workload, &spans)?;
    Ok(outcome)
}
