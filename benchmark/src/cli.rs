//! `cli-*` and `sim-mi`, end to end: the real `flexminer` binary, one
//! subprocess per request, passes run back to back with tracing off.

use crate::check::{flat_lower_bound, parse_stdout, reference, Printed};
use crate::inputs::{requests, setup, Input, Kind, Request, THREADS};
use crate::layers::{self, Subject};
use crate::pace::Pace;
use crate::proc;
use crate::report::{Outcome, Stat};
use crate::stats::{geomean, median};
use crate::trace::{self, Tracer};
use crate::Ctx;
use fm_telemetry::TraceClock;
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-ups per run, so `setup_s` is a median and not one sample: at least
/// `MIN_SETUPS`, and more while they are cheap (a 20 ms set-up is as noisy
/// as it is short).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const CHEAP_SETUP_S: f64 = 1.0;
/// Fewest passes a run reports from, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// One finished invocation of a pass.
struct Invocation {
    /// Spawn to exit; divided by the machine's slowdown when paced.
    wall_s: f64,
    printed: Printed,
}

/// Sets up repeatedly, returning the last input and the paced set-up
/// times.
fn timed_setup(ctx: &Ctx, pace: &Pace, outcome: &mut Outcome) -> Result<(Input, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let (input, raw_s, slowdown) = pace.time(|| setup(ctx.workload, ctx.seed, ctx.quick));
        let input = input?;
        times.push(raw_s / slowdown);
        outcome.slowdowns.push(slowdown);
        let cheap = times.len() < MAX_SETUPS && times.iter().sum::<f64>() < CHEAP_SETUP_S;
        if times.len() >= MIN_SETUPS && !cheap {
            return Ok((input, times));
        }
    }
}

/// Runs one pass: each request as its own process. Non-zero exits are
/// failures; peak RSS is folded into `peak_rss_mb`. Every invocation runs
/// between two probes of the machine's speed and its wall-clock is
/// divided by the slowdown they show.
fn pass(
    ctx: &Ctx,
    graph_arg: &str,
    outcome: &mut Outcome,
    peak_rss_mb: &mut f64,
    pace: &Pace,
) -> Result<Vec<Invocation>, String> {
    let mut invocations = Vec::new();
    for request in requests(ctx.workload) {
        let mut cmd = Command::new(&ctx.bin);
        cmd.args(request.args(graph_arg));
        let (done, _, slowdown) = pace.time(|| proc::run(&mut cmd));
        let done = done.map_err(|e| format!("spawn {}: {e}", ctx.bin.display()))?;
        outcome.slowdowns.push(slowdown);
        outcome.attempted += 1;
        if done.code != 0 {
            outcome.fail(format_args!("{} {} exited {}", ctx.workload, request.key, done.code));
        }
        *peak_rss_mb = peak_rss_mb.max(done.peak_rss_mb);
        invocations.push(Invocation {
            wall_s: done.wall.as_secs_f64() / slowdown,
            printed: parse_stdout(&done.stdout),
        });
    }
    Ok(invocations)
}

/// Checks every invocation of every pass against the reference counts
/// (and the clique closed form on `cli-flat`), and that simulated cycles
/// are identical in every pass. Returns the reference counts per request.
fn verify(
    ctx: &Ctx,
    input: &Input,
    passes: &[Vec<Invocation>],
    outcome: &mut Outcome,
) -> Result<Vec<Vec<u64>>, String> {
    let mut references = Vec::new();
    for (i, request) in requests(ctx.workload).iter().enumerate() {
        let expected = reference(&input.graph, request);
        if ctx.workload == "cli-flat" {
            if let Some(bound) = flat_lower_bound(request, ctx.quick) {
                if expected[0] < bound {
                    outcome.fail(format_args!(
                        "{} reference {} is below the closed form {bound}",
                        request.key, expected[0]
                    ));
                }
            }
        }
        for pass in passes {
            if pass[i].printed.counts != expected {
                outcome.fail(format_args!(
                    "{} {} printed {:?}, reference {expected:?}",
                    ctx.workload, request.key, pass[i].printed.counts
                ));
            }
        }
        check_cycles(request, passes.iter().map(|p| p[i].printed.cycles))?;
        references.push(expected);
    }
    Ok(references)
}

/// Determinism gate on simulated time: a `sim` request must print the
/// same `cycles:` in every pass.
fn check_cycles(
    request: &Request,
    mut cycles: impl Iterator<Item = Option<u64>>,
) -> Result<(), String> {
    let first = cycles.next().flatten();
    if request.kind == Kind::Sim && first.is_none() {
        return Err(format!("sim {} printed no cycles", request.key));
    }
    match cycles.find(|c| *c != first) {
        Some(other) => Err(format!(
            "sim {} is not deterministic: cycles {first:?} in one pass, {other:?} in another",
            request.key
        )),
        None => Ok(()),
    }
}

/// The untraced run: end-to-end metrics only.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let pace = Pace::new();
    let (input, setups) = timed_setup(ctx, &pace, &mut outcome)?;
    let mut peak_rss_mb = 0.0f64;
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        passes.push(pass(ctx, &input.graph_arg, &mut outcome, &mut peak_rss_mb, &pace)?);
    }
    verify(ctx, &input, &passes, &mut outcome)?;

    let pass_walls: Vec<f64> =
        passes.iter().map(|p| p.iter().map(|inv| inv.wall_s).sum()).collect();
    let per_request = requests(ctx.workload).len();
    let class_medians: Vec<f64> = (0..per_request)
        .map(|i| median(&passes.iter().map(|p| p[i].wall_s).collect::<Vec<_>>()))
        .collect();
    let rates: Vec<f64> = pass_walls.iter().map(|w| per_request as f64 / w).collect();
    outcome.set("setup_s", Stat::of(&setups));
    outcome.set("wall_s", Stat::of(&pass_walls));
    outcome.set("wall_geomean_s", Stat::one(geomean(&class_medians)));
    outcome.set("peak_rss_mb", Stat::one(peak_rss_mb));
    outcome.set("jobs_per_s", Stat::of(&rates));
    Ok(outcome)
}

/// The traced run: one untraced subprocess pass (the rows behind
/// `wall_geomean_s`, and the CLI's cost over the library calls it makes),
/// then the in-process ledger for the rest of the measuring time.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let input = setup(ctx.workload, ctx.seed, ctx.quick)?;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // Unpaced: the ledger is read as shares of this run's own time.
    let subprocess = pass(ctx, &input.graph_arg, &mut outcome, &mut 0.0, &Pace::off())?;
    let expected = verify(ctx, &input, std::slice::from_ref(&subprocess), &mut outcome)?;
    for (request, invocation) in requests(ctx.workload).iter().zip(&subprocess) {
        outcome.set(&format!("cli.wall_ms.{}", request.key), Stat::one(invocation.wall_s * 1e3));
    }

    let subjects: Vec<Subject> = requests(ctx.workload)
        .iter()
        .zip(&expected)
        .map(|(request, expected)| Subject {
            request,
            graph_arg: &input.graph_arg,
            graph: &input.graph,
            expected,
        })
        .collect();
    let mut tracer = Tracer::new(TraceClock::start(), true);
    let request_s = layers::measure(&subjects, THREADS, deadline, &mut tracer, &mut outcome)?;
    let subprocess_s: f64 = subprocess.iter().map(|inv| inv.wall_s).sum();
    outcome.set("core.cli_overhead_ms", Stat::one((subprocess_s - request_s) * 1e3));

    // The simulator in process and behind the CLI must agree to the cycle.
    let printed: u64 = subprocess.iter().filter_map(|inv| inv.printed.cycles).sum();
    let simulated = outcome.metrics.get("sim_cycles").map_or(0, |s| s.value as u64);
    if printed != simulated {
        outcome.fail(format_args!(
            "flexminer sim printed {printed} cycles, fm_sim::simulate {simulated}"
        ));
    }
    trace::write(&ctx.out, ctx.workload, &tracer.spans)?;
    Ok(outcome)
}
