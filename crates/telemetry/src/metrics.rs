//! The unified metrics document and its two encoders.
//!
//! Every machine-readable report in the workspace (engine runs, simulator
//! runs, CLI `--metrics-out`) is assembled as a [`MetricsDoc`] — a list of
//! named metrics with labelled samples — and rendered either as
//! Prometheus text exposition format or as compact JSON. Both encodings
//! are pinned by golden-file tests.

use crate::hist::Log2Histogram;
use crate::json::{json_f64, Value};

/// Prometheus metric kinds used by the exporters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log2 histogram (rendered with `_bucket`/`_sum`/`_count` series).
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One labelled sample of a metric.
#[derive(Clone, PartialEq, Debug)]
pub struct Sample {
    /// Label pairs, rendered in insertion order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// A named metric with its samples.
#[derive(Clone, PartialEq, Debug)]
pub struct Metric {
    /// Metric name (Prometheus naming conventions).
    pub name: String,
    /// One-line help string.
    pub help: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Samples; histogram metrics carry their cumulative buckets here
    /// with an `le` label.
    pub samples: Vec<Sample>,
    /// `(sum, count)` for histogram metrics.
    pub hist_totals: Option<(f64, u64)>,
}

/// An ordered collection of metrics plus one encoder per output format.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsDoc {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
}

impl MetricsDoc {
    /// An empty document.
    pub fn new() -> MetricsDoc {
        MetricsDoc::default()
    }

    fn push_metric(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Metric {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
            hist_totals: None,
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// Adds an unlabelled counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.push_metric(name, help, MetricKind::Counter)
            .samples
            .push(Sample { labels: Vec::new(), value: value as f64 });
    }

    /// Adds an unlabelled gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.push_metric(name, help, MetricKind::Gauge)
            .samples
            .push(Sample { labels: Vec::new(), value });
    }

    /// Adds a counter with one sample per `(labels, value)` row.
    pub fn counter_vec(&mut self, name: &str, help: &str, rows: &[(&[(&str, &str)], u64)]) {
        let m = self.push_metric(name, help, MetricKind::Counter);
        for (labels, value) in rows {
            m.samples.push(Sample {
                labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
                value: *value as f64,
            });
        }
    }

    /// Adds a gauge with one sample per `(labels, value)` row.
    pub fn gauge_vec(&mut self, name: &str, help: &str, rows: &[(&[(&str, &str)], f64)]) {
        let m = self.push_metric(name, help, MetricKind::Gauge);
        for (labels, value) in rows {
            m.samples.push(Sample {
                labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
                value: *value,
            });
        }
    }

    /// Adds a log2 histogram as a Prometheus histogram (cumulative
    /// buckets with power-of-two `le` bounds, plus `_sum`/`_count`).
    /// Extra `labels` are attached to every bucket sample.
    pub fn log2_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &Log2Histogram,
    ) {
        let occupied = h.occupied_len();
        let m = self.push_metric(name, help, MetricKind::Histogram);
        let mut cumulative = 0u64;
        for i in 0..occupied {
            cumulative += h.buckets[i];
            let mut sample_labels: Vec<(String, String)> =
                labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
            sample_labels.push(("le".to_string(), Log2Histogram::bucket_le(i).to_string()));
            m.samples.push(Sample { labels: sample_labels, value: cumulative as f64 });
        }
        let mut inf_labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        inf_labels.push(("le".to_string(), "+Inf".to_string()));
        m.samples.push(Sample { labels: inf_labels, value: h.count as f64 });
        m.hist_totals = Some((h.sum as f64, h.count));
    }

    /// Renders the document in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(self.metrics.len() * 96);
        for m in &self.metrics {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            out.push_str(&format!("# TYPE {} {}\n", m.name, m.kind.as_str()));
            let base = if m.kind == MetricKind::Histogram {
                format!("{}_bucket", m.name)
            } else {
                m.name.clone()
            };
            for s in &m.samples {
                out.push_str(&base);
                render_prom_labels(&mut out, &s.labels);
                out.push(' ');
                let mut v = String::new();
                json_f64(&mut v, s.value);
                out.push_str(if v == "null" { "NaN" } else { &v });
                out.push('\n');
            }
            if let Some((sum, count)) = m.hist_totals {
                let mut v = String::new();
                json_f64(&mut v, sum);
                out.push_str(&format!("{}_sum {}\n", m.name, v));
                out.push_str(&format!("{}_count {}\n", m.name, count));
            }
        }
        out
    }

    /// Renders the document as compact JSON
    /// (`{"metrics":[{"name":...,"type":...,"samples":[...]},...]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.metrics.len() * 96);
        self.write_json(Value::new(&mut out));
        out
    }

    /// Writes [`to_json`](Self::to_json)'s document into `slot` of a
    /// larger one (the `serve` `metrics` reply's `body`).
    pub fn write_json(&self, slot: Value<'_>) {
        slot.obj(|o| {
            o.arr("metrics", |a| {
                for m in &self.metrics {
                    a.item().obj(|o| {
                        o.str("name", &m.name).str("help", &m.help).str("type", m.kind.as_str());
                        o.arr("samples", |a| {
                            for s in &m.samples {
                                a.item().obj(|o| {
                                    o.obj("labels", |o| {
                                        for (k, v) in &s.labels {
                                            o.str(k, v);
                                        }
                                    });
                                    o.f64("value", s.value);
                                });
                            }
                        });
                        if let Some((sum, count)) = m.hist_totals {
                            o.f64("sum", sum).u64("count", count);
                        }
                    });
                }
            });
        });
    }
}

fn render_prom_labels(out: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_counter_and_gauge() {
        let mut doc = MetricsDoc::new();
        doc.counter("fm_tasks_total", "Completed start-vertex tasks.", 42);
        doc.gauge_vec(
            "fm_pe_occupancy_ratio",
            "Share of charged cycles per FSM state.",
            &[(&[("pe", "0"), ("state", "Idle")], 0.25)],
        );
        let text = doc.to_prometheus();
        assert!(text.contains("# HELP fm_tasks_total Completed start-vertex tasks.\n"));
        assert!(text.contains("# TYPE fm_tasks_total counter\n"));
        assert!(text.contains("fm_tasks_total 42\n"));
        assert!(text.contains("fm_pe_occupancy_ratio{pe=\"0\",state=\"Idle\"} 0.25\n"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let mut h = Log2Histogram::new();
        h.record(1);
        h.record(3);
        h.record(3);
        let mut doc = MetricsDoc::new();
        doc.log2_histogram("fm_frontier_size", "Frontier sizes.", &[], &h);
        let text = doc.to_prometheus();
        assert!(text.contains("fm_frontier_size_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("fm_frontier_size_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("fm_frontier_size_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("fm_frontier_size_sum 7\n"));
        assert!(text.contains("fm_frontier_size_count 3\n"));
    }

    #[test]
    fn json_shape() {
        let mut doc = MetricsDoc::new();
        doc.counter_vec("fm_depth_iters", "Iterations.", &[(&[("depth", "2")], 9)]);
        let json = doc.to_json();
        assert_eq!(
            json,
            "{\"metrics\":[{\"name\":\"fm_depth_iters\",\"help\":\"Iterations.\",\
             \"type\":\"counter\",\"samples\":[{\"labels\":{\"depth\":\"2\"},\"value\":9}]}]}"
        );
    }
}
