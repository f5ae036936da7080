//! One benchmark for the whole stack: `flexminer count` / `serve` / `sim`
//! driven end to end as subprocesses, and each crate's public calls timed
//! in process for the per-layer ledger. See `benchmark/README.md`.

mod check;
mod cli;
mod inputs;
mod layers;
mod pace;
mod proc;
mod report;
mod serve;
mod spec;
mod stats;
mod suite;
mod trace;

use report::Outcome;
use std::path::PathBuf;

/// Everything one run of one workload needs to know.
pub struct Ctx {
    /// The `flexminer` binary under test (absolute).
    pub bin: PathBuf,
    pub workload: &'static str,
    pub seed: u64,
    /// How long the measured section lasts.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    pub quick: bool,
    /// Where `trace-<workload>.json` and suite results go (absolute).
    pub out: PathBuf,
}

const USAGE: &str = "usage:
  fm-benchmark run --bin FLEXMINER --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
  fm-benchmark suite --bin FLEXMINER [--seed N] [--seconds S] [--quick] [--out DIR] [--compare FILE]
  fm-benchmark manifest          print BENCHMARK.json
  fm-benchmark probe [--n N]     time the machine-speed probe N times";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    flag(args, name).map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad {name} {v:?}")))
}

fn absolute(path: &str) -> Result<PathBuf, String> {
    std::path::absolute(path).map_err(|e| format!("resolve {path}: {e}"))
}

fn run_one(ctx: &Ctx) -> Result<Outcome, String> {
    match (ctx.workload, ctx.trace) {
        ("serve-small" | "serve-mix", _) => serve::run(ctx),
        (_, false) => cli::run(ctx),
        (_, true) => cli::run_traced(ctx),
    }
}

/// Removes the run's scratch directory on every way out of `real_main`.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn real_main(args: &[String]) -> Result<i32, String> {
    let mode = args.first().map(String::as_str).ok_or(USAGE)?;
    if mode == "probe" {
        let pace = pace::Pace::new();
        for _ in 0..parsed(args, "--n", 1usize)? {
            println!("{}", pace.probe());
        }
        return Ok(0);
    }
    if mode == "manifest" {
        print!("{}", spec::manifest());
        return Ok(0);
    }
    let out = absolute(flag(args, "--out").unwrap_or("benchmark/out"))?;
    let bin = absolute(flag(args, "--bin").ok_or("missing --bin")?)?;
    let seed = parsed(args, "--seed", 1u64)?;
    let quick = args.iter().any(|a| a == "--quick");
    // A smoke run measures for a second per run; sizes shrink with it.
    let seconds = parsed(args, "--seconds", if quick { 1.0 } else { spec::RUN_SECONDS as f64 })?;
    // Read before the scratch directory is entered: the path may be relative.
    let baseline = flag(args, "--compare")
        .map(|path| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}")))
        .transpose()?;
    // Everything the run writes (edge lists, sockets, journals) goes to a
    // scratch directory entered here: relative paths keep the unix socket
    // under its 108-byte limit wherever the checkout lives.
    let scratch = Scratch(out.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;
    std::env::set_current_dir(&scratch.0).map_err(|e| format!("enter scratch dir: {e}"))?;
    match mode {
        "run" => {
            let name = flag(args, "--workload").ok_or("missing --workload")?;
            let workload =
                spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?.name;
            let trace = match flag(args, "--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad --trace {other:?}")),
            };
            let ctx = Ctx { bin, workload, seed, seconds, trace, quick, out };
            let outcome = run_one(&ctx)?;
            print!("{}", outcome.table(trace));
            println!("{}", outcome.json_line(trace));
            Ok(i32::from(outcome.failed > 0))
        }
        "suite" => {
            let mut all = Vec::new();
            let mut ctx =
                Ctx { bin, workload: "", seed, seconds, trace: false, quick, out: out.clone() };
            for w in &spec::WORKLOADS {
                ctx.workload = w.name;
                ctx.trace = false;
                let untraced = run_one(&ctx)?;
                ctx.trace = true;
                let traced = run_one(&ctx)?;
                let measured = suite::Measured { workload: w.name, untraced, traced };
                suite::print(&measured);
                all.push(measured);
            }
            let results = suite::results_json(seed, quick, seconds, &all);
            let path = out.join("results.json");
            std::fs::write(&path, &results)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("results written to {}", path.display());
            let mut code = i32::from(all.iter().any(|m| m.untraced.failed + m.traced.failed > 0));
            if let Some(baseline) = baseline {
                let (table, ok) = suite::compare(&baseline, &results)?;
                print!("{table}");
                println!("{}", if ok { "compare: within bounds" } else { "compare: REGRESSED" });
                code |= i32::from(!ok);
            }
            Ok(code)
        }
        other => Err(format!("unknown mode {other}\n{USAGE}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = real_main(&args).unwrap_or_else(|e| {
        eprintln!("fm-benchmark: {e}");
        2
    });
    std::process::exit(code);
}
