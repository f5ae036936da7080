//! How a seed becomes inputs. The program under test only ever sees the
//! spec strings and files made here.

use flexminer::graphspec;
use fm_graph::{generators, io, CsrGraph};
use fm_pattern::{motifs, Pattern};
use fm_plan::{compile, compile_multi, CompileOptions, ExecutionPlan};

/// Worker threads for every CLI invocation, serve worker and in-process
/// replica: the sandbox has two cores.
pub const THREADS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `flexminer count <pattern>`
    Count,
    /// `flexminer motifs <k>`
    Motifs,
    /// `flexminer sim <pattern>`
    Sim,
}

/// One `flexminer` invocation of a pass (or one serve job class).
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Short name used in metric names (`engine.mine_ms.<key>`).
    pub key: &'static str,
    pub kind: Kind,
    /// Pattern name, or `k` for [`Kind::Motifs`].
    pub pattern: &'static str,
}

const fn count(key: &'static str, pattern: &'static str) -> Request {
    Request { key, kind: Kind::Count, pattern }
}

const fn sim(key: &'static str, pattern: &'static str) -> Request {
    Request { key, kind: Kind::Sim, pattern }
}

/// The stock set of `fm_bench::workloads`: TC, 4-CL, 5-CL, SL-4cycle,
/// SL-diamond through `count`, 3-MC through `motifs`.
pub const SIX: [Request; 6] = [
    count("tc", "triangle"),
    count("cl4", "4-clique"),
    count("cl5", "5-clique"),
    count("cyc4", "4-cycle"),
    count("dia", "diamond"),
    Request { key: "mc3", kind: Kind::Motifs, pattern: "3" },
];
const LOAD: [Request; 2] = [SIX[0], SIX[1]];
const SIM: [Request; 5] = [
    sim("tc", "triangle"),
    sim("cl4", "4-clique"),
    sim("cl5", "5-clique"),
    sim("cyc4", "4-cycle"),
    sim("dia", "diamond"),
];
/// The serve job classes as requests, for the in-process replica.
const SERVE_SMALL: [Request; 1] = [SIX[0]];
const SERVE_MIX: [Request; 2] = [SIX[0], SIX[3]];

impl Request {
    /// The argv of the invocation on `graph` (a spec or a path).
    pub fn args(&self, graph: &str) -> Vec<String> {
        let threads = THREADS.to_string();
        let (cmd, tail): (&str, &[&str]) = match self.kind {
            Kind::Count => ("count", &["--threads", &threads, "--log-level", "error"]),
            Kind::Motifs => ("motifs", &["--threads", &threads]),
            Kind::Sim => ("sim", &["--log-level", "error"]),
        };
        [cmd, self.pattern, "--graph", graph].iter().chain(tail).map(|s| s.to_string()).collect()
    }

    /// The patterns the invocation mines and how it compiles them,
    /// mirroring `Miner::plan` / `apps::motif_census`.
    pub fn patterns(&self) -> Vec<Pattern> {
        match self.kind {
            Kind::Motifs => motifs::motifs(self.pattern.parse().expect("motif size")),
            _ => vec![self.pattern.parse().expect("stock pattern name")],
        }
    }

    pub fn compile(&self, patterns: &[Pattern]) -> ExecutionPlan {
        match self.kind {
            Kind::Motifs => compile_multi(patterns, CompileOptions::induced()),
            _ => compile(&patterns[0], CompileOptions::default()),
        }
    }
}

/// The requests of one pass of `workload` (for `serve-*`, one request per
/// distinct job shape).
pub fn requests(workload: &str) -> &'static [Request] {
    match workload {
        "cli-skew" | "cli-flat" => &SIX,
        "cli-load" => &LOAD,
        "sim-mi" => &SIM,
        "serve-small" => &SERVE_SMALL,
        "serve-mix" => &SERVE_MIX,
        other => panic!("unknown workload {other}"),
    }
}

/// `--quick` divides every vertex count by 8 (smoke only).
fn scaled(full: usize, quick: bool) -> usize {
    if quick {
        full / 8
    } else {
        full
    }
}

/// Communities and clique size of the `cli-flat` caveman graph, for the
/// closed-form lower bound on clique counts.
pub fn flat_shape(quick: bool) -> (usize, usize) {
    (scaled(20_000, quick), 11)
}

fn skew_spec(seed: u64, quick: bool) -> String {
    format!("gen:powerlaw,n={},m=10,closure=0.3,seed={seed}", scaled(100_000, quick))
}

fn flat_spec(seed: u64, quick: bool) -> String {
    let (communities, size) = flat_shape(quick);
    format!(
        "gen:caveman,communities={communities},size={size},bridges={},seed={seed}",
        communities * 5
    )
}

/// The small serve graph; `seed` is the run seed for the cached spec and
/// a never-seen value for each fresh job.
pub fn serve_small_spec(seed: u64, quick: bool) -> String {
    format!("gen:powerlaw,n={},m=8,closure=0.4,seed={seed}", scaled(2_000, quick))
}

pub fn serve_medium_spec(seed: u64, quick: bool) -> String {
    format!("gen:powerlaw,n={},m=8,closure=0.4,seed={seed}", scaled(20_000, quick))
}

/// A CLI workload's input: what `--graph` is given, and the same graph in
/// memory for the reference counts and the layer measurements.
pub struct Input {
    pub graph_arg: String,
    pub graph: CsrGraph,
}

/// Builds the input of a `cli-*` / `sim-mi` workload inside the current
/// directory (the run's scratch directory).
pub fn setup(workload: &str, seed: u64, quick: bool) -> Result<Input, String> {
    let from_spec = |spec: String| {
        let graph = graphspec::load(&spec)?;
        Ok(Input { graph_arg: spec, graph })
    };
    let to_file = |path: &str, graph: CsrGraph| {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        io::write_edge_list(&graph, file).map_err(|e| format!("write {path}: {e}"))?;
        Ok(Input { graph_arg: path.to_string(), graph })
    };
    match workload {
        "cli-skew" => from_spec(skew_spec(seed, quick)),
        "cli-flat" => from_spec(flat_spec(seed, quick)),
        "cli-load" => to_file(
            "edges.txt",
            generators::powerlaw_cluster(scaled(1_000_000, quick), 4, 0.2, seed),
        ),
        "sim-mi" => {
            // The recipe of `fm_bench::datasets::dataset(Mi, _)` (dense
            // clustered body, ten strong hubs, shuffled ids) with the
            // run's seed in place of the fixed one.
            let n = scaled(6_000, quick);
            let body = generators::powerlaw_cluster(n, 11, 0.6, seed);
            let hubs = generators::attach_hubs(&body, 10, 700.min(n / 2), seed ^ 0xFF);
            to_file("mi.txt", generators::shuffle_ids(&hubs, seed ^ 0x5A5A))
        }
        other => Err(format!("{other} has no file or spec input")),
    }
}
