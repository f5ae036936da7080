//! The per-layer ledger: an in-process replica of each request with a
//! span around every public call the real request makes, plus the
//! stand-alone measurements (index builds, one-thread mining, the stint
//! loop, engine telemetry on vs. off) that put the spans in context.

use crate::inputs::{Kind, Request};
use crate::report::{Outcome, Stat};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use fm_engine::{
    mine_prepared, mine_prepared_observed, prepare, EngineConfig, JobCore, MiningResult, Stint,
    TelemetryOptions, WorkCounters,
};
use fm_graph::{orient_by_degree, BlockSummaries, CsrGraph, HubBitmaps};
use fm_plan::lowering::{lower, LowerOptions};
use fm_sim::{simulate, SimConfig, SimReport};
use fm_telemetry::TraceClock;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One request to replicate: what the program is given, the same graph
/// in memory for the stand-alone measurements, and the reference counts.
pub struct Subject<'a> {
    pub request: &'a Request,
    pub graph_arg: &'a str,
    pub graph: &'a CsrGraph,
    pub expected: &'a [u64],
}

/// Where one replicated request spent its time, in seconds.
#[derive(Default)]
struct Ledger {
    request: f64,
    load: f64,
    parse: f64,
    compile: f64,
    prepare: f64,
    /// `mine_prepared`, or `simulate` for a `sim` request.
    mine: f64,
    finalize: f64,
    report: f64,
    counts: Vec<u64>,
    work: WorkCounters,
    sim: Option<SimReport>,
}

impl Ledger {
    fn children(&self) -> f64 {
        self.load
            + self.parse
            + self.compile
            + self.prepare
            + self.mine
            + self.finalize
            + self.report
    }
}

/// Replays one CLI invocation in process: the calls `flexminer
/// count|motifs|sim` makes between argv and the printed count, each under
/// a child span of one `request` span.
fn replica(
    tracer: &mut Tracer,
    id: u32,
    subject: &Subject,
    threads: usize,
) -> Result<Ledger, String> {
    let request = subject.request;
    let mut l = Ledger::default();
    let open = tracer.open();
    let load = tracer.open();
    let how = if subject.graph_arg.starts_with("gen:") { "generate" } else { "read_edge_list" };
    let (graph, _) =
        tracer.timed(how, "load", id, || flexminer::graphspec::load(subject.graph_arg));
    l.load = tracer.close(load, "load", "request", id);
    let graph = graph?;
    let (patterns, secs) = tracer.timed("pattern.parse", "request", id, || request.patterns());
    l.parse = secs;
    let (plan, secs) = tracer.timed("plan.compile", "request", id, || request.compile(&patterns));
    l.compile = secs;
    let raw = if request.kind == Kind::Sim {
        let (report, secs) = tracer
            .timed("simulate", "request", id, || simulate(&graph, &plan, &SimConfig::default()));
        l.mine = secs;
        let raw = MiningResult { counts: report.counts.clone(), ..Default::default() };
        l.sim = Some(report);
        raw
    } else {
        let cfg = EngineConfig::with_threads(threads);
        let (prepared, secs) =
            tracer.timed("prepare", "request", id, || prepare(&graph, &plan, &cfg));
        l.prepare = secs;
        let (raw, secs) =
            tracer.timed("mine", "request", id, || mine_prepared(&prepared, &plan, &cfg));
        l.mine = secs;
        l.work = raw.work;
        raw
    };
    let (counts, secs) = tracer.timed("finalize", "request", id, || raw.unique_counts(&plan));
    l.finalize = secs;
    let ((), secs) = tracer.timed("report", "request", id, || {
        let mut text = String::new();
        for (meta, count) in plan.patterns.iter().zip(&counts) {
            text.push_str(&format!("{}: {count}\n", meta.name));
        }
        black_box(text);
    });
    l.report = secs;
    l.counts = counts;
    l.request = tracer.close(open, "request", "", id);
    Ok(l)
}

/// Aborts the run when a metric that must repeat exactly does not.
fn same<T: PartialEq + std::fmt::Debug>(what: &str, a: &T, b: &T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("determinism gate: {what} differs between runs:\n  {a:?}\n  {b:?}"))
    }
}

/// Runs `f`, returning its value and the seconds it took.
fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

fn us(secs: f64) -> f64 {
    secs * 1e6
}

/// One ledger field summed over the requests `keep` selects, per pass:
/// layer times are reported per pass, so that they add up to the pass's
/// request time the way `wall_s` adds up its processes.
fn pass_sum(
    passes: &[Vec<Ledger>],
    keep: impl Fn(usize) -> bool,
    field: impl Fn(&Ledger) -> f64,
) -> Vec<f64> {
    passes
        .iter()
        .map(|p| p.iter().enumerate().filter(|(i, _)| keep(*i)).map(|(_, l)| field(l)).sum())
        .collect()
}

/// Mines the 4-cycle the way `serve` does — `JobCore` stints of 64 tasks
/// claimed by `threads` workers — and returns the seconds it took.
fn stint_loop(core: &JobCore, threads: usize) -> f64 {
    let run = || {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    while matches!(core.run_stint(64), Stint::Ran { drained: false, .. }) {}
                });
            }
        })
    };
    clock(run).1
}

/// Runs the replica passes (alternating traced and untraced, at least one
/// of each, until `deadline`), then the stand-alone measurements, and
/// fills in every in-process per-layer metric. Returns the traced passes'
/// request time per pass, in seconds.
pub fn measure(
    subjects: &[Subject],
    threads: usize,
    deadline: Instant,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    // Replica passes.
    let mut traced: Vec<Vec<Ledger>> = Vec::new();
    let mut untraced: Vec<f64> = Vec::new();
    let mut next_id = 0u32;
    while traced.is_empty() || untraced.is_empty() || Instant::now() < deadline {
        tracer.on = traced.len() <= untraced.len();
        let mut pass = Vec::new();
        for subject in subjects {
            next_id += 1;
            pass.push(replica(tracer, next_id, subject, threads)?);
        }
        outcome.attempted += pass.len() as u64;
        if let Some(first) = traced.first() {
            for (a, b) in first.iter().zip(&pass) {
                same("replica counts", &a.counts, &b.counts)?;
                same("WorkCounters", &a.work, &b.work)?;
                same("SimReport", &a.sim, &b.sim)?;
            }
        }
        if tracer.on {
            traced.push(pass);
        } else {
            untraced.push(pass.iter().map(|l| l.request).sum());
        }
    }
    tracer.on = true;
    for (subject, ledger) in subjects.iter().zip(&traced[0]) {
        if ledger.counts != subject.expected {
            outcome.fail(format_args!(
                "replica {} counted {:?}, reference {:?}",
                subject.request.key, ledger.counts, subject.expected
            ));
        }
    }

    let is_file = |i: usize| !subjects[i].graph_arg.starts_with("gen:");
    let is_sim = |i: usize| subjects[i].request.kind == Kind::Sim;
    let all = |_: usize| true;
    let request_s = pass_sum(&traced, all, |l| l.request);
    outcome.set("graph.generate_ms", Stat::of(&pass_sum(&traced, |i| !is_file(i), |l| ms(l.load))));
    outcome.set("graph.read_edge_list_ms", Stat::of(&pass_sum(&traced, is_file, |l| ms(l.load))));
    outcome.set("pattern.parse_us", Stat::of(&pass_sum(&traced, all, |l| us(l.parse))));
    outcome.set("plan.compile_us", Stat::of(&pass_sum(&traced, all, |l| us(l.compile))));
    outcome.set("engine.prepare_ms", Stat::of(&pass_sum(&traced, all, |l| ms(l.prepare))));
    let mine_s = pass_sum(&traced, |i| !is_sim(i), |l| l.mine);
    outcome.set("engine.mine_ms", Stat::of(&mine_s.iter().map(|s| ms(*s)).collect::<Vec<_>>()));
    outcome.set("engine.finalize_us", Stat::of(&pass_sum(&traced, all, |l| us(l.finalize))));
    let sim_s = pass_sum(&traced, is_sim, |l| l.mine);
    outcome.set("sim.host_ms", Stat::of(&sim_s.iter().map(|s| ms(*s)).collect::<Vec<_>>()));
    for (i, subject) in subjects.iter().enumerate() {
        if subject.request.kind != Kind::Sim {
            let name = format!("engine.mine_ms.{}", subject.request.key);
            outcome.set(&name, Stat::of(&pass_sum(&traced, |j| j == i, |l| ms(l.mine))));
        }
    }
    let covered = pass_sum(&traced, all, Ledger::children);
    let coverage: Vec<f64> = covered.iter().zip(&request_s).map(|(c, r)| c / r).collect();
    outcome.set("core.ledger_coverage", Stat::of(&coverage));
    outcome
        .set("bench.trace_overhead_share", Stat::one(median(&request_s) / median(&untraced) - 1.0));

    // Exact counts of the pass: engine work and simulated statistics.
    let mut work = WorkCounters::default();
    let mut sims: Vec<&SimReport> = Vec::new();
    for ledger in &traced[0] {
        work += ledger.work;
        sims.extend(ledger.sim.as_ref());
    }
    engine_counters(&work, outcome);
    if !sims.is_empty() {
        simulated_statistics(&sims, median(&sim_s), outcome);
    }

    standalone(subjects, threads, &traced[0], median(&mine_s), outcome)?;
    Ok(median(&request_s))
}

fn engine_counters(work: &WorkCounters, outcome: &mut Outcome) {
    let counters: [(&str, u64); 10] = [
        ("engine.setop_iterations", work.setop_iterations),
        ("engine.setop_invocations", work.setop_invocations),
        ("engine.extensions", work.extensions),
        ("engine.merge_dispatches", work.merge_dispatches),
        ("engine.gallop_dispatches", work.gallop_dispatches),
        ("engine.probe_dispatches", work.probe_dispatches),
        ("engine.simd_dispatches", work.simd_dispatches),
        ("engine.reuse_hits", work.reuse_hits),
        ("engine.reuse_misses", work.reuse_misses),
        ("engine.reuse_bytes_hwm", work.reuse_bytes_hwm),
    ];
    for (name, value) in counters {
        outcome.set(name, Stat::one(value as f64));
    }
}

/// Totals over the pass's `sim` requests; `host_s` is the time the
/// `simulate` calls took together.
fn simulated_statistics(sims: &[&SimReport], host_s: f64, outcome: &mut Outcome) {
    let total = |f: fn(&SimReport) -> u64| sims.iter().map(|r| f(r)).sum::<u64>() as f64;
    let share = |part: fn(&SimReport) -> u64, whole: fn(&SimReport) -> u64| {
        Stat::one(ratio(total(part), total(whole)))
    };
    let cycles = total(|r| r.cycles);
    let pes = SimConfig::default().num_pes as f64;
    outcome.set("sim_cycles", Stat::one(cycles));
    outcome.set("sim.mcycles_per_host_s", Stat::one(cycles / 1e6 / host_s));
    outcome.set("sim.siu_cycles", Stat::one(total(|r| r.totals.siu_cycles)));
    outcome.set("sim.cmap_reads", Stat::one(total(|r| r.totals.cmap_reads)));
    outcome.set("sim.cmap_overflows", Stat::one(total(|r| r.totals.cmap_overflows)));
    outcome.set("sim.l1_miss_rate", share(|r| r.totals.l1_misses, |r| r.totals.l1_accesses));
    outcome.set("sim.l2_miss_rate", share(|r| r.l2_misses, |r| r.l2_accesses));
    outcome.set("sim.noc_requests", Stat::one(total(|r| r.totals.noc_requests)));
    outcome.set("sim.dram_accesses", Stat::one(total(|r| r.dram_accesses)));
    outcome.set("sim.dram_row_hit_rate", share(|r| r.dram_row_hits, |r| r.dram_accesses));
    outcome
        .set("sim.pe_busy_share", Stat::one(ratio(total(|r| r.totals.busy_cycles), cycles * pes)));
    let imbalance: f64 = sims.iter().map(|r| r.imbalance()).sum();
    outcome.set("sim.imbalance", Stat::one(imbalance / sims.len() as f64));
}

/// Measurements outside the request spans: siblings of the ledger, not
/// part of its sum.
fn standalone(
    subjects: &[Subject],
    threads: usize,
    pass: &[Ledger],
    mine_s: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    // The auxiliary structures `prepare` builds, each on its own, on the
    // first subject's graph (the only one, for the CLI workloads).
    let graph = subjects[0].graph;
    let cfg = EngineConfig::with_threads(threads);
    let (oriented, secs) = clock(|| orient_by_degree(graph));
    black_box(oriented);
    outcome.set("graph.orient_ms", Stat::one(ms(secs)));
    let (hubs, secs) =
        clock(|| HubBitmaps::build(graph, cfg.hub_degree_threshold, cfg.hub_memory_budget));
    outcome.set("graph.hub_build_ms", Stat::one(ms(secs)));
    let (blocks, secs) = clock(|| BlockSummaries::build(graph));
    outcome.set("graph.block_build_ms", Stat::one(ms(secs)));
    let csr_bytes =
        std::mem::size_of_val(graph.offsets()) + std::mem::size_of_val(graph.neighbor_array());
    outcome.set("graph.csr_bytes", Stat::one(csr_bytes as f64));
    outcome.set("graph.hub_rows", Stat::one(hubs.num_hubs() as f64));
    outcome.set("graph.hub_bytes", Stat::one(hubs.bytes() as f64));
    outcome.set("graph.block_bytes", Stat::one(blocks.bytes() as f64));

    // One-thread mining of every engine request: parallel efficiency, and
    // the 1-vs-N-thread half of the determinism gate.
    let mut mine_1t = 0.0;
    let mut iterations = 0u64;
    let mut prefixes = 0usize;
    for (subject, ledger) in subjects.iter().zip(pass) {
        if subject.request.kind == Kind::Sim {
            continue;
        }
        let plan = subject.request.compile(&subject.request.patterns());
        prefixes += lower(&plan, LowerOptions::default()).prefixes.len();
        let one = EngineConfig::with_threads(1);
        let prepared = prepare(subject.graph, &plan, &one);
        let (result, secs) = clock(|| mine_prepared(&prepared, &plan, &one));
        mine_1t += secs;
        iterations += result.work.setop_iterations;
        if threads > 1 {
            same("WorkCounters across 1 and 2 threads", &result.work, &ledger.work)?;
            same("counts across 1 and 2 threads", &result.unique_counts(&plan), &ledger.counts)?;
        }
    }
    outcome.set("plan.reuse_prefixes", Stat::one(prefixes as f64));
    outcome.set("engine.mine_1t_ms", Stat::one(ms(mine_1t)));
    outcome.set("engine.parallel_efficiency", Stat::one(ratio(mine_1t, threads as f64 * mine_s)));
    outcome.set("engine.ns_per_setop_iter", Stat::one(ratio(mine_1t * 1e9, iterations as f64)));

    // The 4-cycle, where the workload has it: through the stint loop that
    // serve uses, and with the engine's own telemetry on.
    let Some((subject, ledger)) = subjects
        .iter()
        .zip(pass)
        .find(|(s, _)| s.request.key == "cyc4" && s.request.kind == Kind::Count)
    else {
        return Ok(());
    };
    let plan = subject.request.compile(&subject.request.patterns());
    let core = JobCore::new(Arc::new(subject.graph.clone()), Arc::new(plan.clone()), cfg);
    let stint_s = stint_loop(&core, threads);
    same("WorkCounters across stints and the pool", &core.result().work, &ledger.work)?;
    outcome.set("engine.stint_vs_pool_ratio", Stat::one(stint_s / ledger.mine));
    let prepared = prepare(subject.graph, &plan, &cfg);
    let observed =
        TelemetryOptions { metrics: true, trace: Some(TraceClock::start()), ..Default::default() };
    let (plain, plain_s) =
        clock(|| mine_prepared_observed(&prepared, &plan, &cfg, &TelemetryOptions::default()));
    let (watched, watched_s) = clock(|| mine_prepared_observed(&prepared, &plan, &cfg, &observed));
    same("WorkCounters with telemetry on and off", &plain.work, &watched.work)?;
    outcome.set("telemetry.trace_overhead_ratio", Stat::one(watched_s / plain_s));
    let dropped = watched.telemetry.map_or(0, |shard| shard.dropped_spans);
    outcome.set("telemetry.dropped_spans", Stat::one(dropped as f64));
    Ok(())
}

/// fm-jobs' own primitives, in process: parsing one submit line, one
/// durable journal append, and one trip through the supervisor.
pub fn jobs(outcome: &mut Outcome) -> Result<(), String> {
    use fm_jobs::journal::{Journal, JournalRecord};
    use fm_jobs::{jsonl, JobSpec, Supervisor, SupervisorConfig};

    const LINE: &str = r#"{"op":"submit","pattern":"triangle","graph":"gen:powerlaw,n=2000,m=8,closure=0.4,seed=1"}"#;
    const PARSES: u32 = 10_000;
    let ((), secs) = clock(|| {
        for _ in 0..PARSES {
            black_box(jsonl::parse(black_box(LINE)).expect("a well-formed submit line"));
        }
    });
    outcome.set("jobs.jsonl_parse_ns", Stat::one(secs * 1e9 / f64::from(PARSES)));

    const SAMPLES: u64 = 200;
    let path = std::path::Path::new("layer-journal.bin");
    let _ = std::fs::remove_file(path);
    let (mut journal, _) = Journal::open(path).map_err(|e| format!("open journal: {e}"))?;
    let req = jsonl::parse(LINE).expect("a well-formed submit line");
    let mut appends = Vec::new();
    for id in 1..=SAMPLES {
        let record = JournalRecord::Submitted { id, fp: id, req: req.clone() };
        let (appended, secs) = clock(|| journal.append(&record));
        appended.map_err(|e| format!("journal append: {e}"))?;
        appends.push(us(secs));
    }
    outcome.set("jobs.journal_append_us", Stat::of(&appends));

    let supervisor = Supervisor::new(SupervisorConfig { workers: 2, ..Default::default() });
    let graph = Arc::new(fm_graph::generators::complete(4));
    let plan = Arc::new(fm_plan::compile(&fm_pattern::Pattern::triangle(), Default::default()));
    let mut trips = Vec::new();
    for _ in 0..SAMPLES {
        let spec =
            JobSpec::new("trivial", Arc::clone(&graph), Arc::clone(&plan), EngineConfig::default());
        let (_, secs) = clock(|| supervisor.submit(spec).wait());
        trips.push(us(secs));
    }
    supervisor.shutdown(None);
    outcome.set("jobs.supervisor_roundtrip_us", Stat::of(&trips));
    Ok(())
}
