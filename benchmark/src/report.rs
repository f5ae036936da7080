//! What a run produces and how it is printed.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One reported metric: the median of its samples, with their count and
/// range.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub value: f64,
    pub n: usize,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    pub fn of(samples: &[f64]) -> Stat {
        Stat {
            value: median(samples),
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    pub fn one(value: f64) -> Stat {
        Stat { value, n: 1, min: value, max: value }
    }
}

/// The result of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: `flexminer` invocations, serve jobs, or
    /// in-process requests.
    pub attempted: u64,
    /// Non-zero exits, count mismatches, `ok:false` or non-`Complete`
    /// replies.
    pub failed: u64,
    pub metrics: BTreeMap<String, Stat>,
    /// Every slowdown a paced time was divided by (see `pace.rs`), so a
    /// reader can undo the division.
    pub slowdowns: Vec<f64>,
}

impl Outcome {
    /// Records a metric; the name must be one the manifest declares.
    pub fn set(&mut self, name: &str, stat: Stat) {
        let declared =
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name);
        assert!(declared, "{name} is not in the manifest");
        assert!(stat.value.is_finite(), "{name} is not a finite number");
        // An empty f64 sum is -0.0; print it as the zero it is.
        let stat =
            Stat { value: stat.value + 0.0, min: stat.min + 0.0, max: stat.max + 0.0, ..stat };
        self.metrics.insert(name.to_string(), stat);
    }

    pub fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        eprintln!("FAILED: {what}");
        self.failed += 1;
    }

    /// The metrics this run must report, in manifest order: every
    /// end-to-end metric untraced, every per-layer metric traced (a line
    /// that does not apply to the workload reads 0).
    pub fn rows(&self, trace: bool) -> Vec<(&'static str, &'static str, Stat)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    (m.name, m.unit, self.metrics.get(m.name).copied().unwrap_or(Stat::one(0.0)))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let stat = self
                        .metrics
                        .get(m.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name));
                    (m.name, m.unit, *stat)
                })
                .collect()
        }
    }

    /// `name value unit` lines, one per metric.
    pub fn table(&self, trace: bool) -> String {
        let mut out = String::new();
        for (name, unit, s) in self.rows(trace) {
            writeln!(out, "{name} {} {unit} n={} min={} max={}", s.value, s.n, s.min, s.max)
                .unwrap();
        }
        if !trace && !self.slowdowns.is_empty() {
            let s = Stat::of(&self.slowdowns);
            writeln!(
                out,
                "machine_slowdown {} ratio n={} min={} max={}",
                s.value, s.n, s.min, s.max
            )
            .unwrap();
        }
        out
    }

    /// The one-line JSON object the driver reads.
    pub fn json_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .rows(trace)
            .iter()
            .map(|(name, unit, s)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", s.value)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
