//! Shared experiment plumbing: argument parsing, timing, table output.

use fm_engine::{mine_prepared, prepare, EngineConfig, MiningResult};
use fm_graph::CsrGraph;
use fm_plan::ExecutionPlan;
use fm_telemetry::json::{self, Arr};
use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Scale datasets down ~4× (smoke runs, CI).
    pub quick: bool,
    /// Baseline software thread count (paper: 20-thread GraphZero).
    pub threads: usize,
    /// Output directory for JSON results.
    pub out: PathBuf,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs { quick: false, threads: 20, out: PathBuf::from("results") }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`. Unknown flags abort with usage help.
    pub fn parse() -> BenchArgs {
        let mut args = BenchArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--threads" => {
                    args.threads = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--threads needs a number"));
                }
                "--out" => {
                    args.out =
                        it.next().map(PathBuf::from).unwrap_or_else(|| usage("--out needs a path"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <experiment> [--quick] [--threads N] [--out DIR]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// Wall-clock-times the software engine on `plan`. Short runs are repeated
/// and the minimum taken, mirroring the paper's average-of-3 methodology
/// for stable numbers.
pub fn time_engine(g: &CsrGraph, plan: &ExecutionPlan, threads: usize) -> (f64, MiningResult) {
    // The figures compare against the paper's GraphZero baseline, so the
    // engine runs in paper-faithful mode: full unbounded SIU/SDU merges,
    // no galloping. Ablation binaries opt into the optimized modes through
    // [`time_engine_with`].
    let cfg = EngineConfig { threads, ..EngineConfig::paper_faithful() };
    time_engine_with(g, plan, &cfg)
}

/// Like [`time_engine`], but with full control over the engine
/// configuration (used by the ablation experiments).
pub fn time_engine_with(
    g: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> (f64, MiningResult) {
    // One-time preprocessing (k-clique orientation, hub-index build) is
    // excluded, as in the paper and as in the simulator's cycle accounting.
    let prepared = prepare(g, plan, cfg);
    let start = Instant::now();
    let result = mine_prepared(&prepared, plan, cfg);
    let mut best = start.elapsed().as_secs_f64();
    let mut reps = 0;
    while best < 0.2 && reps < 2 {
        let start = Instant::now();
        let again = mine_prepared(&prepared, plan, cfg);
        debug_assert_eq!(again.counts, result.counts);
        best = best.min(start.elapsed().as_secs_f64());
        reps += 1;
    }
    (best, result)
}

/// One output table (also the JSON schema written to `--out`).
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment identifier (e.g. `fig14`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of stringified cells.
    pub rows: Vec<Row>,
    /// Free-form notes (dataset provenance, machine info).
    pub notes: Vec<String>,
}

/// One table row.
pub type Row = Vec<String>;

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Appends a provenance note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Serializes the table as compact JSON (`{"id":"fig14",...}`).
    pub fn to_json(&self) -> String {
        let strings = |a: &mut Arr<'_>, items: &[String]| {
            for s in items {
                a.item().str(s);
            }
        };
        json::object(|o| {
            o.str("id", &self.id).str("title", &self.title);
            o.arr("headers", |a| strings(a, &self.headers));
            o.arr("rows", |a| {
                for row in &self.rows {
                    a.item().arr(|a| strings(a, row));
                }
            });
            o.arr("notes", |a| strings(a, &self.notes));
        })
    }

    /// Writes the table as JSON into `dir/<id>.json` and prints the
    /// aligned text rendering to stdout.
    ///
    /// # Errors
    ///
    /// Returns IO errors from directory creation or file writing.
    pub fn emit(&self, dir: &std::path::Path) -> std::io::Result<()> {
        println!("{self}");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        println!("[written {}]", path.display());
        Ok(())
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let render = |cells: &[String], f: &mut std::fmt::Formatter<'_>| -> std::fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{:<width$}  ", cell, width = widths.get(i).copied().unwrap_or(8))?;
            }
            writeln!(f)
        };
        render(&self.headers, f)?;
        for row in &self.rows {
            render(row, f)?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

/// Formats a speedup factor the way the paper quotes them.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Geometric mean of a nonempty slice (the paper's "average speedup").
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t", "demo", &["a", "long-header"]);
        t.push(vec!["x".into(), "1".into()]);
        t.note("hello");
        let text = t.to_string();
        assert!(text.contains("long-header"));
        assert!(text.contains("note: hello"));
    }

    #[test]
    fn table_round_trips_to_json() {
        let mut t = Table::new("id1", "demo", &["a"]);
        t.push(vec!["42".into()]);
        let json = t.to_json();
        assert!(json.contains("\"id\":\"id1\""));
        assert!(json.contains("42"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut t = Table::new("esc", "quo\"te", &["a\\b"]);
        t.note("line\nbreak");
        let json = t.to_json();
        assert!(json.contains("quo\\\"te"));
        assert!(json.contains("a\\\\b"));
        assert!(json.contains("line\\nbreak"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(2.345), "2.35x");
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert!(fmt_secs(0.002).ends_with("ms"));
        assert!(fmt_secs(0.0000005).ends_with("us"));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn time_engine_returns_consistent_counts() {
        let g = fm_graph::generators::complete(6);
        let plan =
            fm_plan::compile(&fm_pattern::Pattern::triangle(), fm_plan::CompileOptions::default());
        let (secs, result) = time_engine(&g, &plan, 2);
        assert!(secs >= 0.0);
        assert_eq!(result.counts, vec![20]);
    }
}
