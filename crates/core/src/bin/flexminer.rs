//! `flexminer` — command-line interface to the FlexMiner reproduction.
//!
//! ```text
//! flexminer plan  <pattern>
//! flexminer count <pattern> --graph <input> [--induced] [--threads N]
//! flexminer sim   <pattern> --graph <input> [--pes N] [--cmap BYTES] [--energy]
//! flexminer motifs <k>      --graph <input> [--threads N]
//! flexminer generate <spec> --out <file>
//! flexminer stats           --graph <input>
//! ```
//!
//! `<pattern>` is a name (`triangle`, `4-cycle`, `5-clique`, `diamond`, …)
//! or an edge list (`0-1,1-2,2-0`). `<input>` is an edge-list file
//! (`u v` per line, SNAP-style) or an inline generator spec such as
//! `gen:powerlaw,n=10000,m=6,closure=0.5,seed=42`,
//! `gen:er,n=1000,p=0.05,seed=1`, or `gen:complete,n=32`.

use flexminer::jobs::SupervisorConfig;
use flexminer::serve::{self, ServeConfig};
use flexminer::telemetry::{parse_cadence, LogLevel, TraceClock};
use flexminer::{
    apps, graphspec, report, EngineConfig, Miner, Pattern, PatternCount, ProgressOptions,
    RunStatus, SimConfig, TelemetryOptions,
};
use fm_graph::{generators, io, CsrGraph, GraphStats};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// Writes to stdout. A reader that went away (`flexminer plan … | head -1`)
/// is not a failure: the process ends quietly with status 0. Any other
/// write error is one `error:` line and status 1.
fn out(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("error: write to stdout: {e}");
        exit(1);
    }
}

/// `println!` through [`out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `flexminer count --help` asks for help; it is not a pattern.
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage("");
    }
    let (run, operands, flags): (Command, usize, Flags) = match args[0].as_str() {
        "plan" => (cmd_plan, 1, PLAN_FLAGS),
        "count" => (cmd_count, 1, COUNT_FLAGS),
        "sim" => (cmd_sim, 1, SIM_FLAGS),
        "motifs" => (cmd_motifs, 1, MOTIFS_FLAGS),
        "generate" => (cmd_generate, 1, GENERATE_FLAGS),
        "stats" => (cmd_stats, 0, STATS_FLAGS),
        "serve" => (cmd_serve, 0, SERVE_FLAGS),
        "help" => usage(""),
        other => usage(&format!("unknown command {other}")),
    };
    // A typo must not run the job it was meant to modify.
    if let Err(msg) = check_flags(&args[1..], operands, flags) {
        usage(&msg);
    }
    match run(&args[1..]) {
        Ok(code) => exit(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            exit(1);
        }
    }
}

/// Exit code for a run's final status, so scripts can tell a truncated
/// count from a total one: 0 complete, 3 deadline exceeded, 4 budget
/// exhausted, 5 cancelled, 6 degraded (isolated task faults). Codes 1–2
/// stay reserved for errors and usage; 7 is the simulator watchdog, and
/// serve jobs extend the table with 8 (rejected) and 9 (drained).
fn exit_code(status: RunStatus) -> i32 {
    serve::status_exit_code(status)
}

/// Reports a partial run on stderr: results on stdout stay machine
/// readable, the status and fault/quarantine/straggler rosters go to the
/// human. `level` is the CLI verbosity (`--log-level`): warnings about
/// truncated results print at `warn` and above, straggler/healed-fault
/// advisories at `info` and above.
fn report_status(result: &flexminer::engine::MiningResult, level: LogLevel) {
    let warn = level.allows(LogLevel::Warn);
    let info = level.allows(LogLevel::Info);
    if let Some(err) = &result.checkpoint_error {
        if warn {
            eprintln!("warning: checkpointing stopped: {err}");
        }
    }
    if info {
        for s in &result.stragglers {
            eprintln!(
                "straggler: start vertex {} took {:.3?} (run median {:.3?})",
                s.vid, s.elapsed, s.median
            );
        }
    }
    if result.status.is_complete() {
        // A retried-then-healed fault leaves a record on a complete run.
        if info {
            for f in &result.faults {
                eprintln!(
                    "fault (healed on retry): start vertex {} attempt {}: {}",
                    f.vid, f.attempt, f.payload
                );
            }
        }
        return;
    }
    if !warn {
        return;
    }
    eprintln!(
        "warning: run ended {:?}; counts cover {} completed start vertices",
        result.status,
        result.completed.len()
    );
    for f in &result.faults {
        eprintln!("fault: start vertex {} attempt {}: {}", f.vid, f.attempt, f.payload);
    }
    for f in &result.quarantined {
        eprintln!("quarantined: start vertex {} after {} attempt(s)", f.vid, f.attempt + 1);
    }
}

/// Telemetry exports and verbosity shared by `count` and `sim`.
struct TelemetryFlags {
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    level: LogLevel,
}

impl TelemetryFlags {
    /// Parses `--metrics-out`, `--trace-out`, and `--log-level`.
    fn parse(args: &[String]) -> Result<TelemetryFlags, String> {
        let level = flag_value(args, "--log-level").map_or(Ok(LogLevel::Info), |v| {
            LogLevel::parse(v).map_err(|e| format!("bad --log-level: {e}"))
        })?;
        Ok(TelemetryFlags {
            metrics_out: flag_value(args, "--metrics-out").map(PathBuf::from),
            trace_out: flag_value(args, "--trace-out").map(PathBuf::from),
            level,
        })
    }

    /// Assembles the engine-side run options: metrics collection is implied
    /// by `--metrics-out`, span tracing by `--trace-out`, live progress by
    /// `--progress` / `--heartbeat`.
    fn engine_options(&self, args: &[String]) -> Result<TelemetryOptions, String> {
        let progress = match (flag_value(args, "--progress"), flag_value(args, "--heartbeat")) {
            (None, None) => None,
            (cadence, heartbeat) => {
                let cadence = cadence
                    .map_or(Ok(fm_telemetry::ProgressCadence::Tasks(64)), |v| {
                        parse_cadence(v).map_err(|e| format!("bad --progress: {e}"))
                    })?;
                Some(ProgressOptions { cadence, heartbeat: heartbeat.map(PathBuf::from) })
            }
        };
        Ok(TelemetryOptions {
            metrics: self.metrics_out.is_some(),
            trace: self.trace_out.is_some().then(TraceClock::start),
            progress,
        })
    }

    /// Writes the metrics document and/or trace JSON the user asked for.
    fn export(
        &self,
        metrics: impl FnOnce() -> fm_telemetry::MetricsDoc,
        trace: impl FnOnce() -> String,
    ) -> Result<(), String> {
        if let Some(path) = &self.metrics_out {
            report::write_metrics(path, &metrics())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, trace()).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

fn usage(msg: &str) -> ! {
    let text = "flexminer — pattern-aware graph pattern mining (FlexMiner, ISCA'21 reproduction)

commands:
  plan  <pattern>                           print the compiled execution plan (IR)
        [--induced] [--no-symmetry]         and, per leaf that `count` does not
                                            walk, the closed form it counts by
  count <pattern> --graph <input> [flags]   mine with the software engine
        [--induced] [--threads N] [--no-symmetry]
        [--timeout SECS] [--budget SETOP_ITERS]
        [--checkpoint PATH] [--checkpoint-interval N|SECSs] [--resume PATH]
        [--max-retries K]
        [--metrics-out PATH] [--trace-out PATH] [--progress N|Ns]
        [--heartbeat PATH] [--log-level error|warn|info|debug]
  sim   <pattern> --graph <input> [flags]   mine on the simulated accelerator
        [--pes N] [--cmap BYTES|unlimited|none] [--energy] [--induced]
        [--watchdog CYCLES]
        [--metrics-out PATH] [--trace-out PATH]
        [--log-level error|warn|info|debug]
  motifs <k> --graph <input> [--threads N]  k-motif census (vertex-induced), 1 <= k <= 6
  generate <spec> --out <file>              write a synthetic graph as an edge list
  stats --graph <input>                     print graph statistics
  serve [flags]                             multi-job supervisor speaking JSONL
        [--socket PATH] [--spool DIR] [--journal PATH] [--exit-when-idle]
        [--workers N] [--max-running N] [--queue-capacity N]
        [--memory-budget BYTES] [--stint-tasks N]
        [--max-request-bytes N] [--idle-timeout SECS]
        [--trace-out PATH] [--recorder-out PATH] [--recorder-cap N]

inputs:
  a path to an edge-list file, or gen:<kind>,k=v,...  with kinds
  powerlaw (n,m,closure,seed), pa (n,m,seed), er (n,p,seed),
  complete (n), caveman (communities,size,bridges,seed)

durability (count only):
  --checkpoint PATH            write periodic atomic snapshots to PATH
  --checkpoint-interval N|Ns   cadence: N = every N completed tasks,
                               Ns (trailing 's') = every N seconds
                               (default: 256 tasks or 10s)
  --resume PATH                continue from a snapshot; completed start
                               vertices are skipped, final counts are
                               bit-identical to an uninterrupted run, and a
                               graph/plan/config mismatch is a hard error
  --max-retries K              retry a faulted task K times before
                               quarantining it (default 0)

job control (count only):
  --timeout SECS               stop SECS after the graph is loaded, inside
                               a running task if need be: that task is
                               rolled back, and the counts cover the tasks
                               that completed (exit 3)
  --budget SETOP_ITERS         stop once the job has spent that many set-op
                               iterations, the same way (exit 4)

telemetry (off by default; defaults stay bit-identical):
  --metrics-out PATH           write run metrics: Prometheus text for .prom
                               or .txt extensions, JSON otherwise. count
                               adds depth/tier-resolved set-op series and
                               task/frontier histograms; sim adds per-PE
                               FSM-state occupancy and machine totals
  --trace-out PATH             write Chrome trace_event JSON (open in
                               chrome://tracing or Perfetto). count emits
                               prepare/mine/task/checkpoint spans; sim
                               emits machine counter tracks (1 cycle = 1us
                               on the viewer's axis)
  --progress N|Ns (count)      live progress to stderr every N tasks, or
                               every N seconds with a trailing 's'
  --heartbeat PATH (count)     append one JSON progress object per report
  --log-level LEVEL            stderr verbosity (default info); error
                               silences advisories, warn keeps truncation
                               warnings

serve protocol (JSONL, one object per line, over stdio or --socket):
  {\"op\":\"submit\",\"pattern\":P,\"graph\":G[,\"name\":S,\"induced\":B,
   \"threads\":N,\"priority\":N,\"max_attempts\":K,
   \"budget\":SETOP_ITERS,\"deadline\":SECS]}          admit a job
   (a faulted task runs at most K times, default 3; per-job
   budget/deadline stop, inside a running task if need be, with exit
   codes 4/3 and exact partial counts;
   both survive a drain, the deadline re-anchors at resume; the graph
   cache charges each graph it holds against --memory-budget, evicting
   graphs no job holds, least recently used first, and a gen: spec that
   does not fit beside the held ones is refused before it is generated)
  {\"op\":\"wait\",\"id\":N}    block until the job's terminal outcome
  {\"op\":\"status\"}          supervisor gauges   {\"op\":\"cancel\",\"id\":N}
  {\"op\":\"metrics\"[,\"format\":\"prometheus\"]}    exporter document
  {\"op\":\"shutdown\"}        drain to --spool checkpoints and exit
  SIGTERM drains identically; restarting with the same --spool resumes
  every drained job bit-for-bit under its id. --spool DIR journals to
  DIR/journal unless --journal names another file.
  --journal PATH appends every submission and outcome to a durable
  CRC-framed journal: after a hard kill (SIGKILL/OOM) a restart with the
  same journal answers wait/status for finished jobs from the record
  (marked \"replayed\":true) and re-runs unresolved jobs under their
  original ids to bit-identical counts. A torn journal tail is truncated
  on open, never an error.
  Request lines over --max-request-bytes (default 1 MiB) get a
  structured 'request too large' reply; socket connections idle out
  after --idle-timeout seconds (default 300, 0 disables)
  {\"op\":\"subscribe\"[,\"buffer\":N]}  (socket only) turns the
  connection into a live JSONL stream of job lifecycle events
  (submitted/queued/running/preempted/parked/resumed/progress/
  finished/drained); a slow consumer loses oldest events and sees a
  {\"event\":\"dropped\"} notice instead of blocking the server.
  --trace-out writes one Chrome-trace JSON at exit with supervisor
  lifecycle spans and per-job engine spans on one shared timeline
  (open in Perfetto); --recorder-out dumps the last --recorder-cap
  (default 4096) events as JSONL on SIGUSR1, on a handler panic, and
  at clean exit — a crash flight recorder.

exit codes:
  0 complete   1 error (incl. checkpoint mismatch)   2 usage   3 deadline
  exceeded   4 budget exhausted   5 cancelled   6 degraded (tasks
  quarantined after exhausting retries)   7 watchdog tripped;
  codes 3-6 still print exact counts for the completed start vertices.
  serve job outcomes reuse 0-6 and add 8 (rejected by admission control)
  and 9 (drained to a checkpoint at shutdown)";
    // Help that was asked for is output; help after a mistake is an error.
    if msg.is_empty() {
        outln!("{text}");
        exit(0);
    }
    eprintln!("error: {msg}\n\n{text}");
    exit(2);
}

type CliResult = Result<i32, String>;

/// A subcommand, given its argv after the subcommand's name.
type Command = fn(&[String]) -> CliResult;

/// Every flag one subcommand takes, as `(name, takes a value)`.
type Flags = &'static [(&'static str, bool)];

const PLAN_FLAGS: Flags = &[("--induced", false), ("--no-symmetry", false)];
const COUNT_FLAGS: Flags = &[
    ("--graph", true),
    ("--induced", false),
    ("--threads", true),
    ("--no-symmetry", false),
    ("--timeout", true),
    ("--budget", true),
    ("--checkpoint", true),
    ("--checkpoint-interval", true),
    ("--resume", true),
    ("--max-retries", true),
    ("--metrics-out", true),
    ("--trace-out", true),
    ("--progress", true),
    ("--heartbeat", true),
    ("--log-level", true),
];
const SIM_FLAGS: Flags = &[
    ("--graph", true),
    ("--pes", true),
    ("--cmap", true),
    ("--energy", false),
    ("--induced", false),
    ("--watchdog", true),
    ("--metrics-out", true),
    ("--trace-out", true),
    ("--log-level", true),
];
const MOTIFS_FLAGS: Flags = &[("--graph", true), ("--threads", true)];
const GENERATE_FLAGS: Flags = &[("--out", true)];
const STATS_FLAGS: Flags = &[("--graph", true)];
const SERVE_FLAGS: Flags = &[
    ("--socket", true),
    ("--spool", true),
    ("--journal", true),
    ("--exit-when-idle", false),
    ("--workers", true),
    ("--max-running", true),
    ("--queue-capacity", true),
    ("--memory-budget", true),
    ("--stint-tasks", true),
    ("--max-request-bytes", true),
    ("--idle-timeout", true),
    ("--trace-out", true),
    ("--recorder-out", true),
    ("--recorder-cap", true),
];

/// Checks a subcommand's argv against its flag table: after the leading
/// `operands` (`<pattern>`, `<k>`, `<spec>`), every token must be a listed
/// flag, followed by its value if it takes one.
fn check_flags(args: &[String], operands: usize, flags: Flags) -> Result<(), String> {
    let mut rest = args.iter().skip(operands);
    while let Some(arg) = rest.next() {
        let Some(&(name, takes_value)) = flags.iter().find(|(name, _)| name == arg) else {
            let what = if arg.starts_with('-') { "unknown flag" } else { "unexpected argument" };
            return Err(format!("{what} {arg}"));
        };
        if takes_value && rest.next().is_none_or(|v| v.starts_with("--")) {
            return Err(format!("{name} needs a value"));
        }
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_pattern(args: &[String]) -> Result<Pattern, String> {
    let spec = args.first().ok_or("missing <pattern> argument")?;
    spec.parse::<Pattern>().map_err(|e| format!("bad pattern {spec:?}: {e}"))
}

/// `--threads N` (default 1). Zero workers is a usage mistake, not a run.
fn parse_threads(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--threads").map(str::parse::<usize>) {
        None => Ok(1),
        Some(Ok(0)) => usage("--threads must be at least 1"),
        Some(Ok(n)) => Ok(n),
        Some(Err(e)) => Err(format!("bad --threads: {e}")),
    }
}

/// `v`, the value of `flag`, as a number of seconds. A negative, NaN,
/// infinite or over-`u64::MAX` value is a bad value, not a panic.
fn parse_secs(flag: &str, v: &str) -> Result<Duration, String> {
    let secs: f64 = v.parse().map_err(|e| format!("bad {flag}: {e}"))?;
    Duration::try_from_secs_f64(secs).map_err(|e| format!("bad {flag} {v}: {e}"))
}

fn load_graph(args: &[String]) -> Result<CsrGraph, String> {
    let input = flag_value(args, "--graph").ok_or("missing --graph <input>")?;
    graphspec::load(input)
}

fn cmd_plan(args: &[String]) -> CliResult {
    let pattern = parse_pattern(args)?;
    // The plan is graph-independent; a trivial graph satisfies the builder.
    let g = generators::complete(2);
    let mut job = Miner::new(&g).pattern(pattern);
    if has_flag(args, "--induced") {
        job = job.induced(true);
    }
    if has_flag(args, "--no-symmetry") {
        job = job.symmetry(false);
    }
    let plan = job.plan().map_err(|e| e.to_string())?;
    out(format_args!("{plan}"));
    // Below the listing: how `count` counts the leaves it does not walk.
    let program = flexminer::engine::count_program(&plan, &EngineConfig::default());
    out(format_args!("{}", flexminer::plan::display::count_listing(&program)));
    Ok(0)
}

fn cmd_count(args: &[String]) -> CliResult {
    let pattern = parse_pattern(args)?;
    let threads = parse_threads(args)?;
    let g = load_graph(args)?;
    let mut cfg = EngineConfig::with_threads(threads);
    if let Some(v) = flag_value(args, "--max-retries") {
        cfg.max_retries = v.parse().map_err(|e| format!("bad --max-retries: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--budget") {
        let iters = v.parse().map_err(|e| format!("bad --budget: {e}"))?;
        cfg.budget.max_setop_iterations = Some(iters);
    }
    let mut job = Miner::new(&g).pattern(pattern).config(cfg);
    if has_flag(args, "--induced") {
        job = job.induced(true);
    }
    if has_flag(args, "--no-symmetry") {
        job = job.symmetry(false);
    }
    if let Some(path) = flag_value(args, "--checkpoint") {
        job = job.checkpoint_to(path);
        if let Some(v) = flag_value(args, "--checkpoint-interval") {
            // A bare integer counts completed tasks; a trailing 's' makes
            // it a wall-clock period in seconds.
            job = match v.strip_suffix('s') {
                Some(secs) => {
                    let every = parse_secs("--checkpoint-interval", secs)?;
                    job.checkpoint_interval(None, Some(every))
                }
                None => {
                    let tasks: u64 =
                        v.parse().map_err(|e| format!("bad --checkpoint-interval: {e}"))?;
                    job.checkpoint_interval(Some(tasks), None)
                }
            };
        }
    } else if has_flag(args, "--checkpoint-interval") {
        return Err("--checkpoint-interval requires --checkpoint PATH".into());
    }
    if let Some(path) = flag_value(args, "--resume") {
        job = job.resume_from(path);
    }
    let telemetry = TelemetryFlags::parse(args)?;
    job = job.telemetry(telemetry.engine_options(args)?);
    let timeout = flag_value(args, "--timeout").map(|v| parse_secs("--timeout", v)).transpose()?;
    let start = std::time::Instant::now();
    let outcome = match timeout {
        // Anchor the deadline at the run, after graph loading.
        Some(timeout) => job.run_with_deadline(timeout),
        None => job.run(),
    }
    .map_err(|e| e.to_string())?;
    for pc in &outcome.per_pattern {
        outln!("{}: {}", pc.name, pc.count);
    }
    telemetry.export(|| report::engine_metrics(&outcome), || report::engine_trace(&outcome))?;
    report_status(&outcome.result, telemetry.level);
    if telemetry.level.allows(LogLevel::Info) {
        eprintln!("[{} threads, {:.3?}]", threads, start.elapsed());
    }
    Ok(exit_code(outcome.result.status))
}

fn cmd_sim(args: &[String]) -> CliResult {
    let pattern = parse_pattern(args)?;
    let mut cfg = SimConfig::default();
    if let Some(v) = flag_value(args, "--pes") {
        cfg.num_pes = v.parse().map_err(|e| format!("bad --pes: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--cmap") {
        cfg.cmap_bytes = match v {
            "unlimited" => usize::MAX,
            "none" => 0,
            n => n.parse().map_err(|e| format!("bad --cmap: {e}"))?,
        };
    }
    if let Some(v) = flag_value(args, "--watchdog") {
        cfg.watchdog_cycles = v.parse().map_err(|e| format!("bad --watchdog: {e}"))?;
    }
    let telemetry = TelemetryFlags::parse(args)?;
    if telemetry.trace_out.is_some() {
        // Counter-track traces need the machine timeline; sample it at the
        // contention-resolution epoch (the simulator's finest honest
        // granularity).
        cfg.timeline_every = cfg.epoch;
    }
    // A machine the simulator refuses is a usage error, found before the
    // graph is loaded.
    if let Err(e) = cfg.validate() {
        usage(&e);
    }
    let g = load_graph(args)?;
    let plan = Miner::new(&g)
        .pattern(pattern)
        .induced(has_flag(args, "--induced"))
        .plan()
        .map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let report = fm_sim::simulate(&g, &plan, &cfg);
    let elapsed = start.elapsed();
    if let Some(dump) = &report.watchdog {
        eprintln!(
            "error: watchdog tripped at {} cycles with {} PE(s) still working:",
            dump.cap,
            dump.stuck_pes().count()
        );
        for pe in &dump.pes {
            eprintln!(
                "  PE {}: cycle {}, {} frame(s), top {}, embedding {:?}, {} task(s) claimed{}",
                pe.pe,
                pe.cycle,
                pe.stack_depth,
                pe.top_frame.as_deref().unwrap_or("<between tasks>"),
                pe.embedding,
                pe.tasks_claimed,
                if pe.done { " [done]" } else { "" }
            );
        }
        return Ok(7);
    }
    // The plan breaks symmetry, so the raw counts are the unique ones.
    let per_pattern = PatternCount::named(&plan, report.counts.iter().copied());
    for pc in &per_pattern {
        outln!("{}: {}", pc.name, pc.count);
    }
    telemetry.export(
        || report::sim_metrics(&report, &per_pattern, elapsed),
        || report::sim_trace(&report),
    )?;
    outln!("cycles:            {}", report.cycles);
    outln!("simulated time:    {:.6} s", report.seconds());
    outln!("PEs:               {}", cfg.num_pes);
    outln!("tasks:             {}", report.totals.tasks);
    outln!("extensions:        {}", report.totals.extensions);
    outln!("SIU iterations:    {}", report.totals.siu_cycles);
    outln!(
        "c-map r/w/inval:   {}/{}/{} (read ratio {:.1}%, overflows {})",
        report.totals.cmap_reads,
        report.totals.cmap_writes,
        report.totals.cmap_invalidations,
        100.0 * report.cmap_read_ratio(),
        report.totals.cmap_overflows
    );
    outln!("NoC requests:      {}", report.noc_traffic());
    outln!(
        "L2 accesses:       {} ({:.1}% miss)",
        report.l2_accesses,
        100.0 * report.l2_miss_rate()
    );
    outln!("DRAM accesses:     {}", report.dram_accesses);
    outln!("load imbalance:    {:.3}", report.imbalance());
    if has_flag(args, "--energy") {
        let e = fm_sim::energy::estimate(&report, &cfg);
        outln!(
            "energy estimate:   {:.3} mJ (pe {:.3}, siu {:.3}, cmap {:.3}, l1 {:.3}, l2 {:.3}, noc {:.3}, dram {:.3}, static {:.3})",
            e.total_mj(),
            e.pe_mj,
            e.siu_mj,
            e.cmap_mj,
            e.l1_mj,
            e.l2_mj,
            e.noc_mj,
            e.dram_mj,
            e.static_mj
        );
    }
    Ok(0)
}

fn cmd_motifs(args: &[String]) -> CliResult {
    let k: usize = args.first().ok_or("missing <k>")?.parse().map_err(|e| format!("bad k: {e}"))?;
    // `motifs::motifs` lists the connected shapes on 1 to 6 vertices.
    if !(1..=6).contains(&k) {
        usage(&format!("motif size {k} is outside 1..=6"));
    }
    let threads = parse_threads(args)?;
    let g = load_graph(args)?;
    let census = apps::motif_census(&g, k, EngineConfig::with_threads(threads))
        .map_err(|e| e.to_string())?;
    for (name, count) in census {
        outln!("{name}: {count}");
    }
    Ok(0)
}

fn cmd_generate(args: &[String]) -> CliResult {
    let spec = args.first().ok_or("missing <spec>")?;
    let spec = spec.strip_prefix("gen:").unwrap_or(spec);
    let out = flag_value(args, "--out").ok_or("missing --out <file>")?;
    let g = graphspec::generate(spec)?;
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    io::write_edge_list(&g, file).map_err(|e| e.to_string())?;
    eprintln!("wrote {} ({} vertices, {} edges)", out, g.num_vertices(), g.num_undirected_edges());
    Ok(0)
}

fn cmd_stats(args: &[String]) -> CliResult {
    let g = load_graph(args)?;
    let s = GraphStats::of(&g);
    outln!("{s}");
    outln!("symmetric: {}", g.is_symmetric());
    Ok(0)
}

fn cmd_serve(args: &[String]) -> CliResult {
    let mut sup = SupervisorConfig::default();
    if let Some(v) = flag_value(args, "--workers") {
        sup.workers = v.parse().map_err(|e| format!("bad --workers: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--max-running") {
        sup.max_running = v.parse().map_err(|e| format!("bad --max-running: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--queue-capacity") {
        sup.queue_capacity = v.parse().map_err(|e| format!("bad --queue-capacity: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--stint-tasks") {
        sup.stint_tasks = v.parse().map_err(|e| format!("bad --stint-tasks: {e}"))?;
    }
    let mut cfg = ServeConfig {
        socket: flag_value(args, "--socket").map(PathBuf::from),
        spool: flag_value(args, "--spool").map(PathBuf::from),
        journal: flag_value(args, "--journal").map(PathBuf::from),
        exit_when_idle: has_flag(args, "--exit-when-idle"),
        trace_out: flag_value(args, "--trace-out").map(PathBuf::from),
        recorder_out: flag_value(args, "--recorder-out").map(PathBuf::from),
        supervisor: sup,
        ..Default::default()
    };
    if let Some(v) = flag_value(args, "--recorder-cap") {
        cfg.recorder_cap = v.parse().map_err(|e| format!("bad --recorder-cap: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--memory-budget") {
        cfg.memory_budget_bytes = v.parse().map_err(|e| format!("bad --memory-budget: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--max-request-bytes") {
        cfg.max_request_bytes = v.parse().map_err(|e| format!("bad --max-request-bytes: {e}"))?;
        if cfg.max_request_bytes == 0 {
            return Err("--max-request-bytes must be at least 1".into());
        }
    }
    if let Some(v) = flag_value(args, "--idle-timeout") {
        let secs: u64 = v.parse().map_err(|e| format!("bad --idle-timeout: {e}"))?;
        // 0 disables the per-connection read timeout.
        cfg.idle_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
    }
    serve::run(cfg)
}
