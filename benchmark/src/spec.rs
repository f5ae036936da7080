//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer ledger with the end-to-end metric
//! and workload each entry is predicted to move. `BENCHMARK.json` at the
//! repository root is [`manifest`] verbatim; the schema test below holds
//! the two together.

use std::fmt::Write;

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cli-skew",
        why: "Six patterns on a 1 M-edge power-law graph: mining dominates and hub-probe, gallop, SIMD and the reuse arena all fire; a set-op or dispatch change must show here.",
    },
    Workload {
        name: "cli-flat",
        why: "Same six patterns on a 1.2 M-edge caveman graph (dmax 18): no hubs, no probes, reuse all but inert; the control on which a hub/probe/reuse change predicts no change.",
    },
    Workload {
        name: "cli-load",
        why: "triangle and 4-clique on a 4 M-edge edge-list file (52 MB): parse, CSR build, orient and index build outweigh mining, so load/prepare changes show here and mining changes barely do.",
    },
    Workload {
        name: "serve-small",
        why: "Live serve with journal, 2 closed-loop connections of 1 ms jobs (80 % one cached spec, 20 % never-seen seeds): protocol, fsync, wait polling and the graph cache are the whole cost.",
    },
    Workload {
        name: "serve-mix",
        why: "Same server, short jobs beside 4-cycle jobs on a 20 k-vertex graph: the only workload that runs real mining through JobCore stints and the supervisor instead of the thread pool.",
    },
    Workload {
        name: "sim-mi",
        why: "flexminer sim for the five single-pattern workloads on a Mi-shaped graph: simulated statistics must repeat exactly while host time guards the simulator's own speed.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, reported by every workload from
/// runs with tracing off. `bound` is the share of the parent's median by
/// which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The time bounds are as wide as the contract allows because the
/// sandbox is: identical runs minutes apart differ by 6–9 % between
/// quartiles, at times by more (see README, "How steady it is").
pub const END_TO_END: [EndToEnd; 5] = [
    // Median set-up: input generation and file writes (`cli-*`,
    // `sim-mi`), or server start, connect and cache warm-up (`serve-*`).
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // Median over passes of the summed spawn-to-exit wall-clock of the
    // pass's `flexminer` processes; for `serve-*`, first submit to last
    // reply of one repetition.
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // Geomean over request classes (patterns; for `serve-*`, job classes)
    // of the per-class median latency, so TC is not drowned by 4-cycle.
    EndToEnd { name: "wall_geomean_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // Highest peak RSS (`wait4` ru_maxrss) of any measured `flexminer`
    // process, the server included.
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
    // Requests completed per second of `wall_s`: `flexminer` invocations
    // (`cli-*`, `sim-mi`) or serve jobs.
    EndToEnd { name: "jobs_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
];

/// One line of the per-layer ledger, measured in the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate the line belongs to.
    pub layer: &'static str,
    /// Repeats exactly for a seed: asserted identical across passes (and
    /// across 1 vs. 2 threads where both run) and compared exactly by
    /// `--compare`.
    pub exact: bool,
    /// The (end-to-end metric, workload) this line is predicted to move.
    pub moves: (&'static str, &'static str),
}

const fn time(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: (&'static str, &'static str),
) -> Layer {
    gauge(name, unit, Better::Lower, layer, moves)
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: (&'static str, &'static str),
) -> Layer {
    Layer { name, unit, better, layer, exact: true, moves }
}

const fn gauge(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: (&'static str, &'static str),
) -> Layer {
    Layer { name, unit, better, layer, exact: false, moves }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 77] = [
    // fm-graph
    time("graph.generate_ms", "ms", "fm-graph", ("wall_s", "cli-skew")),
    time("graph.read_edge_list_ms", "ms", "fm-graph", ("wall_s", "cli-load")),
    time("graph.orient_ms", "ms", "fm-graph", ("wall_s", "cli-load")),
    time("graph.hub_build_ms", "ms", "fm-graph", ("wall_s", "cli-skew")),
    time("graph.block_build_ms", "ms", "fm-graph", ("wall_s", "cli-flat")),
    exact("graph.csr_bytes", "B", Lower, "fm-graph", ("peak_rss_mb", "cli-load")),
    exact("graph.hub_rows", "count", Lower, "fm-graph", ("peak_rss_mb", "cli-skew")),
    exact("graph.hub_bytes", "B", Lower, "fm-graph", ("peak_rss_mb", "cli-skew")),
    exact("graph.block_bytes", "B", Lower, "fm-graph", ("peak_rss_mb", "cli-flat")),
    // fm-pattern, fm-plan: expected to move nothing (<0.1 % of any
    // wall_s); present so the ledger is complete.
    time("pattern.parse_us", "us", "fm-pattern", ("wall_s", "cli-load")),
    time("plan.compile_us", "us", "fm-plan", ("wall_s", "cli-load")),
    exact("plan.reuse_prefixes", "count", Higher, "fm-plan", ("wall_s", "cli-skew")),
    // fm-engine
    time("engine.prepare_ms", "ms", "fm-engine", ("wall_s", "cli-load")),
    time("engine.mine_ms", "ms", "fm-engine", ("wall_s", "cli-skew")),
    time("engine.mine_1t_ms", "ms", "fm-engine", ("wall_s", "cli-skew")),
    time("engine.finalize_us", "us", "fm-engine", ("wall_s", "cli-flat")),
    time("engine.mine_ms.tc", "ms", "fm-engine", ("wall_geomean_s", "cli-skew")),
    time("engine.mine_ms.cl4", "ms", "fm-engine", ("wall_geomean_s", "cli-skew")),
    time("engine.mine_ms.cl5", "ms", "fm-engine", ("wall_geomean_s", "cli-flat")),
    time("engine.mine_ms.cyc4", "ms", "fm-engine", ("wall_s", "cli-skew")),
    time("engine.mine_ms.dia", "ms", "fm-engine", ("wall_geomean_s", "cli-skew")),
    time("engine.mine_ms.mc3", "ms", "fm-engine", ("wall_geomean_s", "cli-skew")),
    gauge("engine.parallel_efficiency", "ratio", Higher, "fm-engine", ("wall_s", "cli-flat")),
    time("engine.ns_per_setop_iter", "ns", "fm-engine", ("wall_s", "cli-flat")),
    gauge("engine.stint_vs_pool_ratio", "ratio", Lower, "fm-engine", ("wall_s", "serve-mix")),
    exact("engine.setop_iterations", "count", Lower, "fm-engine", ("wall_s", "cli-skew")),
    exact("engine.setop_invocations", "count", Lower, "fm-engine", ("wall_s", "cli-skew")),
    exact("engine.extensions", "count", Lower, "fm-engine", ("wall_s", "cli-flat")),
    exact("engine.merge_dispatches", "count", Lower, "fm-engine", ("wall_s", "cli-flat")),
    exact("engine.gallop_dispatches", "count", Lower, "fm-engine", ("wall_s", "cli-skew")),
    exact("engine.probe_dispatches", "count", Higher, "fm-engine", ("wall_s", "cli-skew")),
    exact("engine.simd_dispatches", "count", Higher, "fm-engine", ("wall_s", "cli-flat")),
    exact("engine.reuse_hits", "count", Higher, "fm-engine", ("wall_s", "cli-skew")),
    exact("engine.reuse_misses", "count", Lower, "fm-engine", ("wall_s", "cli-skew")),
    exact("engine.reuse_bytes_hwm", "B", Lower, "fm-engine", ("peak_rss_mb", "cli-skew")),
    // flexminer (core)
    time("cli.wall_ms.tc", "ms", "flexminer", ("wall_geomean_s", "cli-load")),
    time("cli.wall_ms.cl4", "ms", "flexminer", ("wall_geomean_s", "cli-load")),
    time("cli.wall_ms.cl5", "ms", "flexminer", ("wall_geomean_s", "cli-flat")),
    time("cli.wall_ms.cyc4", "ms", "flexminer", ("wall_s", "cli-skew")),
    time("cli.wall_ms.dia", "ms", "flexminer", ("wall_geomean_s", "cli-skew")),
    time("cli.wall_ms.mc3", "ms", "flexminer", ("wall_geomean_s", "cli-skew")),
    time("core.cli_overhead_ms", "ms", "flexminer", ("wall_s", "cli-load")),
    gauge("core.ledger_coverage", "ratio", Higher, "flexminer", ("wall_s", "cli-load")),
    // fm-jobs, in-process
    time("jobs.jsonl_parse_ns", "ns", "fm-jobs", ("jobs_per_s", "serve-small")),
    time("jobs.journal_append_us", "us", "fm-jobs", ("wall_geomean_s", "serve-small")),
    time("jobs.supervisor_roundtrip_us", "us", "fm-jobs", ("wall_geomean_s", "serve-small")),
    // serve: client clock and the live server's own metrics/status ops
    time("job_p50_ms", "ms", "serve", ("wall_geomean_s", "serve-small")),
    time("job_p90_ms", "ms", "serve", ("wall_s", "serve-mix")),
    time("job_p99_ms", "ms", "serve", ("wall_geomean_s", "serve-small")),
    time("serve.submit_rtt_p50_us", "us", "serve", ("jobs_per_s", "serve-small")),
    time("serve.wait_rtt_p50_us", "us", "serve", ("wall_geomean_s", "serve-small")),
    time("serve.queue_wait_mean_us", "us", "serve", ("wall_geomean_s", "serve-mix")),
    time("serve.stint_mean_us", "us", "serve", ("wall_s", "serve-mix")),
    time("serve.e2e_mean_us", "us", "serve", ("wall_s", "serve-mix")),
    time("serve.journal_fsync_mean_us", "us", "serve", ("jobs_per_s", "serve-small")),
    gauge("serve.journal_records_per_job", "ratio", Lower, "serve", ("jobs_per_s", "serve-small")),
    time("serve.client_minus_server_us", "us", "serve", ("wall_geomean_s", "serve-small")),
    time("serve.mix_small_p50_ms", "ms", "serve", ("wall_geomean_s", "serve-mix")),
    time("serve.mix_medium_p50_ms", "ms", "serve", ("wall_s", "serve-mix")),
    gauge("serve.rejected", "count", Lower, "serve", ("jobs_per_s", "serve-mix")),
    gauge("serve.events_dropped", "count", Lower, "serve", ("jobs_per_s", "serve-small")),
    // fm-sim: every exact line moves with sim_cycles or not at all
    time("sim.host_ms", "ms", "fm-sim", ("wall_s", "sim-mi")),
    gauge("sim.mcycles_per_host_s", "1/s", Higher, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim_cycles", "cycles", Lower, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.siu_cycles", "cycles", Lower, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.cmap_reads", "count", Lower, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.cmap_overflows", "count", Lower, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.l1_miss_rate", "ratio", Lower, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.l2_miss_rate", "ratio", Lower, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.noc_requests", "count", Lower, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.dram_accesses", "count", Lower, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.dram_row_hit_rate", "ratio", Higher, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.pe_busy_share", "ratio", Higher, "fm-sim", ("wall_s", "sim-mi")),
    exact("sim.imbalance", "ratio", Lower, "fm-sim", ("wall_s", "sim-mi")),
    // fm-telemetry and the harness itself: these move no end-to-end
    // metric (tracing is off there); they bound how far the layer
    // numbers can be trusted.
    gauge("telemetry.trace_overhead_ratio", "ratio", Lower, "fm-telemetry", ("wall_s", "cli-skew")),
    gauge("telemetry.dropped_spans", "count", Lower, "fm-telemetry", ("wall_s", "cli-skew")),
    gauge("bench.trace_overhead_share", "ratio", Lower, "fm-benchmark", ("wall_s", "cli-skew")),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    fn strings(items: &[&str]) -> String {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        format!("[{}]", quoted.join(", "))
    }
    let mut out = String::from("{\n");
    writeln!(out, "  \"command\": {},", strings(&COMMAND)).unwrap();
    writeln!(out, "  \"paths\": {},", strings(&PATHS)).unwrap();
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    writeln!(out, "  \"workloads\": [\n{}\n  ],", rows.join(",\n")).unwrap();
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows.join(",\n")).unwrap();
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    writeln!(out, "  \"per_layer\": [\n{}\n  ]", rows.join(",\n")).unwrap();
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_jobs::jsonl::{self, Json};
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        let tail = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(tail)
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        for m in &END_TO_END {
            assert!(is_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
        }
        for m in &PER_LAYER {
            assert!(is_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}: unit {}", m.name, m.unit);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s gets the largest bound"
        );
    }

    #[test]
    fn every_layer_line_predicts_an_existing_metric_on_an_existing_workload() {
        for m in &PER_LAYER {
            let (metric, on) = m.moves;
            assert!(
                END_TO_END.iter().any(|e| e.name == metric),
                "{} moves unknown metric {metric}",
                m.name
            );
            assert!(workload(on).is_some(), "{} moves {metric} on unknown workload {on}", m.name);
        }
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let text = manifest();
        assert!(text.len() <= 64 << 10);
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed, text,
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
        let Json::Obj(root) = jsonl::parse(&text).expect("the manifest is JSON") else {
            panic!("the manifest is not an object");
        };
        let keys: Vec<&str> = root.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert_eq!(root["per_layer"].as_arr().map(<[Json]>::len), Some(PER_LAYER.len()));
        assert_eq!(root["run_seconds"].as_u64(), Some(RUN_SECONDS));
    }
}
