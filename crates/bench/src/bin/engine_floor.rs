//! How far the plan-driven engine is from a loop written by hand.
//!
//! A report, not a gate: the triangle and the 4-clique counted by the
//! dozen lines of scalar merge loop anyone would write over the
//! degree-oriented DAG — no plan, no dispatcher, no counters —
//! against `mine_prepared` at one thread in the default configuration, on
//! generator specs shaped like the benchmark's three CLI workloads
//! (`cli-skew`, `cli-flat`, `cli-load`; `--quick` divides the vertex
//! counts by 8). Between the two sits the bare executor: `Executor::run_vertex`
//! over every start vertex, with no `JobCore` (no task cursor, panic
//! boundary, rollback copy or publication). Counts are asserted equal. The
//! ratio column is the whole price of the engine, and it splits into
//! `interp` (executor over loop: interpreting the plan) times `tasks`
//! (engine over executor: the task loop around it).

use fm_bench::harness::{fmt_secs, fmt_x, BenchArgs, Table};
use fm_engine::{mine_prepared, prepare, EngineConfig, Executor};
use fm_graph::{generators, orient_by_degree, CsrGraph, VertexId};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};
use std::time::Instant;

/// Timed runs per cell; the fastest is reported.
const RUNS: usize = 5;

fn merge_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn merge_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    out.clear();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

fn naive_triangles(dag: &CsrGraph) -> u64 {
    let mut found = 0;
    for u in dag.vertices() {
        let a = dag.neighbors(u);
        for &v in a {
            found += merge_count(a, dag.neighbors(v));
        }
    }
    found
}

fn naive_four_cliques(dag: &CsrGraph) -> u64 {
    let mut found = 0;
    let mut common = Vec::new();
    for u in dag.vertices() {
        let a = dag.neighbors(u);
        for &v in a {
            merge_into(a, dag.neighbors(v), &mut common);
            for &w in &common {
                found += merge_count(&common, dag.neighbors(w));
            }
        }
    }
    found
}

/// The fastest of [`RUNS`] calls, in seconds, and what the call returned.
fn best_of<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut value = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64());
        if let Some(first) = &value {
            assert_eq!(first, &v, "a repeat counted differently");
        }
        value = Some(v);
    }
    (best, value.expect("RUNS > 0"))
}

fn main() {
    let args = BenchArgs::parse();
    let scaled = |n: usize| if args.quick { n / 8 } else { n };
    let graphs = [
        ("cli-skew", generators::powerlaw_cluster(scaled(100_000), 10, 0.3, 1)),
        ("cli-flat", {
            let communities = scaled(20_000);
            generators::caveman(communities, 11, communities * 5, 1)
        }),
        ("cli-load", generators::powerlaw_cluster(scaled(1_000_000), 4, 0.2, 1)),
    ];
    let cfg = EngineConfig::with_threads(1);
    let mut table = Table::new(
        "engine_floor",
        "one-thread engine against a hand-written scalar merge loop on the oriented DAG",
        &[
            "graph",
            "pattern",
            "count",
            "naive",
            "executor",
            "engine",
            "naive-ms",
            "executor-ms",
            "engine-ms",
            "interp",
            "tasks",
            "ratio",
        ],
    );
    type Naive = fn(&CsrGraph) -> u64;
    let patterns: [(Pattern, Naive); 2] =
        [(Pattern::triangle(), naive_triangles), (Pattern::k_clique(4), naive_four_cliques)];
    for (name, g) in &graphs {
        let dag = orient_by_degree(g);
        for (pattern, naive) in &patterns {
            let plan = compile(pattern, CompileOptions::default());
            let prepared = prepare(g, &plan, &cfg);
            let (naive_s, want) = best_of(|| naive(&dag));
            let (executor_s, bare) = best_of(|| {
                let mut ex = Executor::new(&prepared, &plan, &cfg);
                for v in prepared.graph().vertices() {
                    ex.run_vertex(v);
                }
                ex.finish().counts
            });
            let (engine_s, got) = best_of(|| mine_prepared(&prepared, &plan, &cfg).counts);
            let label = &plan.patterns[0].name;
            assert_eq!(got, vec![want], "{name} {label}: the engine and the loop disagree");
            assert_eq!(bare, vec![want], "{name} {label}: the executor and the loop disagree");
            let ratio = |a: f64, b: f64| fmt_x(a / b.max(1e-12));
            table.push(vec![
                name.to_string(),
                label.clone(),
                want.to_string(),
                fmt_secs(naive_s),
                fmt_secs(executor_s),
                fmt_secs(engine_s),
                format!("{:.2}", naive_s * 1e3),
                format!("{:.2}", executor_s * 1e3),
                format!("{:.2}", engine_s * 1e3),
                ratio(executor_s, naive_s),
                ratio(engine_s, executor_s),
                ratio(engine_s, naive_s),
            ]);
        }
    }
    table.note(format!("one thread, best of {RUNS}, prepare excluded, default EngineConfig"));
    table.note("naive: scalar merge loops, no counters; engine: mine_prepared with every counter");
    table.note("executor: Executor::run_vertex over every start vertex, no JobCore");
    table.note("interp = executor / naive; tasks = engine / executor; ratio = engine / naive");
    if args.quick {
        table.note("--quick: vertex counts divided by 8");
    }
    table.emit(&args.out).expect("write engine_floor");
}
