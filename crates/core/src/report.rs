//! Unified run reports: one metrics document and one Chrome-trace JSON
//! per run, for both engines.
//!
//! Every machine-readable export of the workspace funnels through
//! [`fm_telemetry`]: the CLI's `--metrics-out` writes a [`MetricsDoc`]
//! (Prometheus text or JSON by file extension), `--trace-out` writes
//! `chrome://tracing` / Perfetto JSON. The builders here are pure — they
//! read a finished [`MiningOutcome`] or [`SimReport`] and never touch the
//! mining path.

use crate::miner::{MiningOutcome, PatternCount};
use fm_engine::MiningResult;
use fm_sim::{SimConfig, SimReport, FSM_STATE_NAMES};
use fm_telemetry::{chrome_trace_json, CounterEvent, MetricsDoc};
use std::path::Path;
use std::time::Duration;

/// Adds a depth-labelled counter vector (`{depth="0"}, {depth="1"}, …`).
fn depth_counter(doc: &mut MetricsDoc, name: &str, help: &str, values: &[u64]) {
    let labels: Vec<String> = (0..values.len()).map(|d| d.to_string()).collect();
    let pairs: Vec<[(&str, &str); 1]> = labels.iter().map(|d| [("depth", d.as_str())]).collect();
    let rows: Vec<(&[(&str, &str)], u64)> =
        pairs.iter().zip(values).map(|(p, &v)| (p.as_slice(), v)).collect();
    doc.counter_vec(name, help, &rows);
}

/// Shared run-outcome metrics (counts, status, robustness rosters) added
/// to both engines' documents.
fn outcome_metrics(
    doc: &mut MetricsDoc,
    per_pattern: &[PatternCount],
    result: &MiningResult,
    elapsed: Duration,
) {
    let names: Vec<&str> = per_pattern.iter().map(|p| p.name.as_str()).collect();
    let pairs: Vec<[(&str, &str); 1]> = names.iter().map(|n| [("pattern", *n)]).collect();
    let rows: Vec<(&[(&str, &str)], u64)> =
        pairs.iter().zip(per_pattern).map(|(p, pc)| (p.as_slice(), pc.count)).collect();
    doc.counter_vec("fm_pattern_count", "Unique embeddings found per pattern", &rows);
    doc.gauge_vec(
        "fm_run_status",
        "Run status (1 on the label matching how the run ended)",
        &[(&[("status", result.status.as_str())], 1.0)],
    );
    doc.gauge("fm_run_complete", "1 iff every start vertex completed fault-free", {
        if result.status.is_complete() {
            1.0
        } else {
            0.0
        }
    });
    doc.gauge("fm_run_elapsed_seconds", "Host wall-clock time of the run", elapsed.as_secs_f64());
    doc.counter("fm_faults", "Isolated task panics (one per attempt)", result.faults.len() as u64);
    doc.counter(
        "fm_quarantined_tasks",
        "Start vertices abandoned after exhausting retries",
        result.quarantined.len() as u64,
    );
    doc.counter(
        "fm_stragglers",
        "Tasks flagged far slower than the run median",
        result.stragglers.len() as u64,
    );
    doc.gauge(
        "fm_checkpoint_write_failed",
        "1 iff periodic checkpointing stopped on a write error",
        if result.checkpoint_error.is_some() { 1.0 } else { 0.0 },
    );
    doc.counter(
        "fm_checkpoint_write_failures",
        "Failed checkpoint-write attempts (including retries that later healed)",
        result.checkpoint_failures,
    );
    doc.counter(
        "fm_progress_dropped",
        "Progress reports skipped because the emitter lock was contended",
        result.telemetry.as_ref().map_or(0, |s| s.progress_dropped),
    );
    doc.counter(
        "fm_heartbeat_errors_total",
        "Heartbeat-file failures (the open that disabled the sink plus failed writes)",
        result.telemetry.as_ref().map_or(0, |s| s.heartbeat_errors),
    );
}

/// Builds the metrics document for a software-engine run: outcome and
/// aggregate [`WorkCounters`](fm_engine::WorkCounters) always; depth- and
/// tier-resolved series plus task/frontier histograms when the run was
/// executed with [`TelemetryOptions::metrics`](fm_engine::TelemetryOptions)
/// enabled.
pub fn engine_metrics(outcome: &MiningOutcome) -> MetricsDoc {
    let mut doc = MetricsDoc::new();
    outcome_metrics(&mut doc, &outcome.per_pattern, &outcome.result, outcome.elapsed);
    let w = &outcome.result.work;
    doc.counter("fm_extensions", "Embedding extensions (search-tree edges)", w.extensions);
    doc.counter("fm_setop_iterations", "Set-operation loop iterations", w.setop_iterations);
    doc.counter("fm_setop_invocations", "Set-operation kernel invocations", w.setop_invocations);
    doc.counter_vec(
        "fm_dispatches",
        "Adaptive dispatcher routing by kernel tier (partitions setop invocations)",
        &[
            (&[("tier", "merge")], w.merge_dispatches),
            (&[("tier", "gallop")], w.gallop_dispatches),
            (&[("tier", "probe")], w.probe_dispatches),
        ],
    );
    if let Some(shard) = &outcome.result.telemetry {
        depth_counter(
            &mut doc,
            "fm_depth_setop_iterations",
            "Set-operation iterations by DFS depth",
            &shard.depth_setop_iterations,
        );
        depth_counter(
            &mut doc,
            "fm_depth_setop_invocations",
            "Set-operation invocations by DFS depth",
            &shard.depth_setop_invocations,
        );
        depth_counter(
            &mut doc,
            "fm_depth_merge_dispatches",
            "Merge-tier dispatches by DFS depth",
            &shard.depth_merge,
        );
        depth_counter(
            &mut doc,
            "fm_depth_gallop_dispatches",
            "Gallop-tier dispatches by DFS depth",
            &shard.depth_gallop,
        );
        depth_counter(
            &mut doc,
            "fm_depth_probe_dispatches",
            "Probe-tier dispatches by DFS depth",
            &shard.depth_probe,
        );
        doc.log2_histogram(
            "fm_task_wall_time_us",
            "Start-vertex task wall time in microseconds",
            &[],
            &shard.task_micros,
        );
        doc.log2_histogram(
            "fm_frontier_size",
            "Materialized candidate-frontier lengths",
            &[],
            &shard.frontier_sizes,
        );
        doc.counter(
            "fm_dropped_spans",
            "Trace spans dropped to the per-worker ring capacity",
            shard.dropped_spans,
        );
        // Same value under the serve-layer name, so dashboards watch one
        // series whether the run came from `count` or `serve`.
        doc.counter(
            "fm_trace_dropped_spans",
            "Trace spans dropped by full rings",
            shard.dropped_spans,
        );
    }
    doc
}

/// Builds the metrics document for an accelerator run: counts
/// (`per_pattern`, named from the plan), host time, cycle/traffic totals,
/// and per-PE FSM-state occupancy ([`FSM_STATE_NAMES`]). The run-outcome
/// series read as a complete run's: the simulator has no budget, retry
/// or checkpoint, and a tripped watchdog is no report to export.
pub fn sim_metrics(
    report: &SimReport,
    per_pattern: &[PatternCount],
    elapsed: Duration,
    cfg: &SimConfig,
) -> MetricsDoc {
    let mut doc = MetricsDoc::new();
    outcome_metrics(&mut doc, per_pattern, &MiningResult::default(), elapsed);
    doc.counter("fm_sim_cycles", "Simulated execution time in PE cycles", report.cycles);
    doc.gauge(
        "fm_sim_seconds",
        "Simulated execution time at the configured clock",
        report.seconds(cfg),
    );
    doc.counter("fm_sim_tasks", "Scheduler tasks dispatched", report.totals.tasks);
    doc.counter("fm_sim_extensions", "Embedding extensions", report.totals.extensions);
    doc.counter("fm_sim_candidates", "Pruner candidates streamed", report.totals.candidates);
    doc.counter("fm_sim_siu_cycles", "SIU/SDU merge-loop iterations", report.totals.siu_cycles);
    doc.counter_vec(
        "fm_sim_cmap_ops",
        "Hardware c-map operations",
        &[
            (&[("op", "read")], report.totals.cmap_reads),
            (&[("op", "write")], report.totals.cmap_writes),
            (&[("op", "invalidate")], report.totals.cmap_invalidations),
            (&[("op", "overflow")], report.totals.cmap_overflows),
        ],
    );
    doc.gauge("fm_sim_cmap_read_ratio", "c-map reads / (reads + writes)", report.cmap_read_ratio());
    doc.counter("fm_sim_noc_requests", "PE requests onto the NoC", report.noc_traffic());
    doc.counter("fm_sim_l2_accesses", "Shared-cache accesses", report.l2_accesses);
    doc.counter("fm_sim_l2_misses", "Shared-cache misses", report.l2_misses);
    doc.gauge("fm_sim_l2_miss_rate", "Shared-cache miss rate", report.l2_miss_rate());
    doc.counter("fm_sim_dram_accesses", "DRAM accesses", report.dram_accesses);
    doc.counter(
        "fm_sim_dram_row_hits",
        "DRAM row-buffer hits",
        report.dram_accesses.min(report.dram_row_hits),
    );
    doc.gauge("fm_sim_load_imbalance", "Slowest PE finish over mean finish", report.imbalance());
    let pe_labels: Vec<String> = (0..report.pe_occupancy.len()).map(|p| p.to_string()).collect();
    let mut pairs: Vec<[(&str, &str); 2]> = Vec::new();
    let mut values: Vec<u64> = Vec::new();
    for (pe, occ) in pe_labels.iter().zip(&report.pe_occupancy) {
        for (state, &cycles) in FSM_STATE_NAMES.iter().zip(occ.iter()) {
            pairs.push([("pe", pe.as_str()), ("state", *state)]);
            values.push(cycles);
        }
    }
    let rows: Vec<(&[(&str, &str)], u64)> =
        pairs.iter().zip(&values).map(|(p, &v)| (p.as_slice(), v)).collect();
    doc.counter_vec(
        "fm_sim_pe_occupancy_cycles",
        "Busy cycles per PE partitioned by coarse FSM state",
        &rows,
    );
    let finish_pairs: Vec<[(&str, &str); 1]> =
        pe_labels.iter().map(|p| [("pe", p.as_str())]).collect();
    let finish_rows: Vec<(&[(&str, &str)], u64)> = finish_pairs
        .iter()
        .zip(&report.pe_finish_cycles)
        .map(|(p, &v)| (p.as_slice(), v))
        .collect();
    doc.counter_vec("fm_sim_pe_finish_cycles", "Per-PE completion time", &finish_rows);
    doc
}

/// Renders a software run's trace spans as Chrome `trace_event` JSON
/// (open in `chrome://tracing` or Perfetto). Runs without tracing enabled
/// render an empty-but-valid trace.
pub fn engine_trace(outcome: &MiningOutcome) -> String {
    let spans = outcome.result.telemetry.as_ref().map_or(&[][..], |s| s.spans.as_slice());
    chrome_trace_json("fm-engine", spans, &[])
}

/// Renders an accelerator run's machine timeline as Chrome `trace_event`
/// counter tracks. Timestamps are simulated *cycles* reported in the
/// trace's microsecond field (1 cycle = 1 µs on the viewer's axis) — the
/// paper's figures are all in cycles, and Perfetto's counter tracks only
/// need a monotone axis. Requires
/// [`SimConfig::timeline_every`] > 0 for a non-empty trace.
pub fn sim_trace(report: &SimReport) -> String {
    let pes = report.pe_finish_cycles.len().max(1) as f64;
    let mut counters: Vec<CounterEvent> = Vec::with_capacity(report.timeline.len());
    let mut prev = fm_sim::TimelineSample::default();
    for s in &report.timeline {
        // Instantaneous rates over the sampling window (the samples
        // themselves are cumulative).
        let d_access = s.l2_accesses - prev.l2_accesses;
        let d_miss = s.l2_misses - prev.l2_misses;
        let l2_hit_rate = if d_access == 0 { 1.0 } else { 1.0 - d_miss as f64 / d_access as f64 };
        let d_cycles = (s.cycle - prev.cycle).max(1);
        let utilization = (s.busy_cycles - prev.busy_cycles) as f64 / (d_cycles as f64 * pes);
        counters.push(CounterEvent {
            ts_us: s.cycle,
            name: "machine".to_string(),
            series: vec![
                ("pe_utilization".to_string(), utilization),
                ("l2_hit_rate".to_string(), l2_hit_rate),
                ("cmap_reads".to_string(), s.cmap_reads as f64),
                ("cmap_writes".to_string(), s.cmap_writes as f64),
                ("done_pes".to_string(), s.done_pes as f64),
            ],
        });
        prev = *s;
    }
    chrome_trace_json("fm-sim", &[], &counters)
}

/// Writes `doc` to `path`: Prometheus text exposition for `.prom`/`.txt`
/// extensions, compact JSON otherwise.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_metrics(path: &Path, doc: &MetricsDoc) -> std::io::Result<()> {
    let prometheus =
        matches!(path.extension().and_then(|e| e.to_str()), Some("prom") | Some("txt"));
    let body = if prometheus { doc.to_prometheus() } else { doc.to_json() };
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::Miner;
    use fm_engine::TelemetryOptions;
    use fm_graph::generators;
    use fm_pattern::Pattern;

    #[test]
    fn engine_metrics_expose_depth_series_and_tier_partition() {
        let g = generators::powerlaw_cluster(120, 4, 0.5, 5);
        let outcome = Miner::new(&g)
            .pattern(Pattern::k_clique(4))
            .telemetry(TelemetryOptions { metrics: true, ..Default::default() })
            .run()
            .unwrap();
        let doc = engine_metrics(&outcome);
        let prom = doc.to_prometheus();
        assert!(prom.contains("fm_pattern_count{pattern=\"4-clique\"}"), "{prom}");
        assert!(prom.contains("fm_depth_setop_iterations{depth=\"1\"}"), "{prom}");
        assert!(prom.contains("fm_dispatches{tier=\"merge\"}"), "{prom}");
        assert!(!prom.contains("simd"), "{prom}");
        assert!(prom.contains("fm_task_wall_time_us_count"), "{prom}");
        assert!(prom.contains("fm_checkpoint_write_failures 0"), "{prom}");
        assert!(prom.contains("fm_progress_dropped 0"), "{prom}");
        assert!(prom.contains("fm_heartbeat_errors_total 0"), "{prom}");
        assert!(prom.contains("fm_trace_dropped_spans 0"), "{prom}");
        // The tier rows partition the invocation counter (satellite of the
        // dispatch-tier invariant).
        let w = &outcome.result.work;
        assert_eq!(
            w.merge_dispatches + w.gallop_dispatches + w.probe_dispatches,
            w.setop_invocations
        );
        // JSON encoding parses under the same document.
        assert!(doc.to_json().starts_with('{'));
    }

    #[test]
    fn sim_metrics_expose_per_pe_occupancy() {
        let g = generators::powerlaw_cluster(120, 4, 0.5, 9);
        let cfg = fm_sim::SimConfig { num_pes: 3, timeline_every: 4096, ..Default::default() };
        let plan = Miner::new(&g).pattern(Pattern::cycle(4)).plan().unwrap();
        let report = fm_sim::simulate(&g, &plan, &cfg);
        let per_pattern = PatternCount::named(&plan, report.counts.iter().copied());
        let doc = sim_metrics(&report, &per_pattern, Duration::ZERO, &cfg);
        let prom = doc.to_prometheus();
        assert!(
            prom.contains("fm_sim_pe_occupancy_cycles{pe=\"0\",state=\"IteratingEdges\"}"),
            "{prom}"
        );
        assert!(prom.contains("fm_sim_pe_occupancy_cycles{pe=\"2\",state=\"Idle\"}"), "{prom}");
        assert!(prom.contains("fm_sim_cycles"), "{prom}");
        assert!(prom.contains("fm_pattern_count{pattern=\"4-cycle\"}"), "{prom}");
        assert!(prom.contains("fm_run_status{status=\"Complete\"} 1"), "{prom}");
        let trace = sim_trace(&report);
        assert!(trace.contains("pe_utilization"), "{trace}");
        assert!(trace.contains("\"ph\":\"C\""), "{trace}");
    }

    #[test]
    fn engine_trace_is_valid_even_without_telemetry() {
        let g = generators::complete(5);
        let outcome = Miner::new(&g).pattern(Pattern::triangle()).run().unwrap();
        let trace = engine_trace(&outcome);
        assert!(trace.contains("traceEvents"));
    }
}
