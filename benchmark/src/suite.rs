//! The whole benchmark in one go: every workload untraced, then traced,
//! every metric printed, the results written as JSON, and optionally
//! compared against an earlier results file.

use crate::report::{Outcome, Stat};
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use fm_jobs::jsonl::{self, Json};
use std::fmt::Write;

/// One workload's two runs.
pub struct Measured {
    pub workload: &'static str,
    pub untraced: Outcome,
    pub traced: Outcome,
}

/// Prints every metric of `m` as `name value unit`, the per-layer lines
/// grouped by layer and followed by the end-to-end metric and workload
/// each is predicted to move.
pub fn print(m: &Measured) {
    println!("== {} ==", m.workload);
    print!("{}", m.untraced.table(false));
    let attempted = m.untraced.attempted + m.traced.attempted;
    let failed = m.untraced.failed + m.traced.failed;
    println!(
        "failed_share {} ratio ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    let mut layer = "";
    for (line, (name, unit, s)) in PER_LAYER.iter().zip(m.traced.rows(true)) {
        if line.layer != layer {
            layer = line.layer;
            println!("-- {layer}");
        }
        println!("{name} {} {unit}  (moves {} on {})", s.value, line.moves.0, line.moves.1);
    }
}

fn stat_json(unit: &str, s: Stat) -> String {
    format!(
        "{{\"value\": {}, \"unit\": \"{unit}\", \"n\": {}, \"min\": {}, \"max\": {}}}",
        s.value, s.n, s.min, s.max
    )
}

/// The results file: what was run, and every metric of every workload.
pub fn results_json(seed: u64, quick: bool, seconds: f64, all: &[Measured]) -> String {
    let mut out = String::from("{\n");
    writeln!(out, "  \"seed\": {seed}, \"quick\": {quick}, \"seconds\": {seconds},").unwrap();
    writeln!(out, "  \"threads\": {}, \"loop\": \"closed\",", crate::inputs::THREADS).unwrap();
    out.push_str("  \"workloads\": {\n");
    for (i, m) in all.iter().enumerate() {
        writeln!(out, "    \"{}\": {{", m.workload).unwrap();
        writeln!(
            out,
            "      \"attempted\": {}, \"failed\": {},",
            m.untraced.attempted + m.traced.attempted,
            m.untraced.failed + m.traced.failed
        )
        .unwrap();
        for (key, outcome, trace) in
            [("end_to_end", &m.untraced, false), ("per_layer", &m.traced, true)]
        {
            let rows: Vec<String> = outcome
                .rows(trace)
                .into_iter()
                .map(|(name, unit, s)| format!("        \"{name}\": {}", stat_json(unit, s)))
                .collect();
            let comma = if trace { "" } else { "," };
            writeln!(out, "      \"{key}\": {{\n{}\n      }}{comma}", rows.join(",\n")).unwrap();
        }
        writeln!(out, "    }}{}", if i + 1 < all.len() { "," } else { "" }).unwrap();
    }
    out.push_str("  }\n}\n");
    out
}

fn value(results: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    results.get("workloads")?.get(workload)?.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// Compares two results files: one row per (end-to-end metric, workload)
/// with both medians, the ratio and the bound, then every exact per-layer
/// metric that differs. Returns the printed table and whether every row
/// is within its bound and every exact metric equal.
///
/// # Errors
///
/// Refuses files that cannot be compared: unparsable, or measured with
/// another seed or size.
pub fn compare(baseline: &str, current: &str) -> Result<(String, bool), String> {
    let base = jsonl::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = jsonl::parse(current).map_err(|e| format!("current results: {e}"))?;
    for key in ["seed", "quick"] {
        if base.get(key) != cur.get(key) {
            return Err(format!(
                "cannot compare: baseline has {key} {:?}, this run {:?}",
                base.get(key),
                cur.get(key)
            ));
        }
    }
    let mut table = String::new();
    let mut ok = true;
    writeln!(
        table,
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "baseline", "current", "ratio", "bound"
    )
    .unwrap();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(b), Some(c)) = (
                value(&base, w.name, "end_to_end", m.name),
                value(&cur, w.name, "end_to_end", m.name),
            ) else {
                return Err(format!("{} {} is missing from one of the files", w.name, m.name));
            };
            let worse = match m.better {
                Better::Lower => c / b - 1.0,
                Better::Higher => 1.0 - c / b,
            };
            let verdict = if worse > m.bound {
                ok = false;
                "  REGRESSION"
            } else {
                ""
            };
            writeln!(
                table,
                "{:<12} {:<16} {b:>14.6} {c:>14.6} {:>8.4} {:>6}{verdict}",
                w.name,
                m.name,
                c / b,
                m.bound
            )
            .unwrap();
        }
        for line in PER_LAYER.iter().filter(|line| line.exact) {
            let b = value(&base, w.name, "per_layer", line.name);
            let c = value(&cur, w.name, "per_layer", line.name);
            if b != c {
                ok = false;
                writeln!(
                    table,
                    "{:<12} {} differs: baseline {b:?}, current {c:?}  EXACT METRIC MOVED",
                    w.name, line.name
                )
                .unwrap();
            }
        }
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results file in which every metric of every workload reads `v`,
    /// except `wall_s`, which reads `wall`.
    fn results(v: f64, wall: f64) -> String {
        let all: Vec<Measured> = WORKLOADS
            .iter()
            .map(|w| {
                let mut untraced = Outcome { attempted: 1, ..Default::default() };
                for m in &END_TO_END {
                    untraced.set(m.name, Stat::one(if m.name == "wall_s" { wall } else { v }));
                }
                let mut traced = Outcome { attempted: 1, ..Default::default() };
                for m in &PER_LAYER {
                    traced.set(m.name, Stat::one(v));
                }
                Measured { workload: w.name, untraced, traced }
            })
            .collect();
        results_json(1, false, 10.0, &all)
    }

    #[test]
    fn compare_flags_regressions_and_moved_exact_metrics_only() {
        let base = results(2.0, 1.0);
        let (_, ok) = compare(&base, &results(2.0, 1.2)).unwrap();
        assert!(ok, "20 % slower is inside wall_s's 25 % bound");
        let (table, ok) = compare(&base, &results(2.0, 1.3)).unwrap();
        assert!(!ok && table.contains("REGRESSION"), "{table}");
        let (_, ok) = compare(&base, &results(2.0, 0.5)).unwrap();
        assert!(ok, "faster is never a regression");
        let (table, ok) = compare(&base, &results(3.0, 1.0)).unwrap();
        assert!(!ok && table.contains("sim_cycles differs"), "{table}");
    }

    #[test]
    fn compare_refuses_other_seeds_and_sizes() {
        let base = results(2.0, 1.0);
        let other_seed = base.replace("\"seed\": 1", "\"seed\": 2");
        assert!(compare(&base, &other_seed).unwrap_err().contains("seed"));
        let quick = base.replace("\"quick\": false", "\"quick\": true");
        assert!(compare(&base, &quick).unwrap_err().contains("quick"));
    }
}
