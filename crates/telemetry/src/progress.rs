//! Live progress reporting: cadence parsing, human lines, JSONL heartbeat.
//!
//! The engine's reporter samples a few shared atomics (tasks done, set-op
//! iterations, quarantine count) into a [`ProgressSnapshot`]; this module
//! owns how a snapshot is parsed, formatted, and serialized so the CLI,
//! the engine, and tests agree on one format.

use crate::json;
use std::time::Duration;

/// How often to report progress: every N completed tasks, or every N
/// seconds of wall clock (the CLI's `--progress N|Ns`, mirroring
/// `--checkpoint-interval`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProgressCadence {
    /// Report when the done-task count crosses a multiple of N.
    Tasks(u64),
    /// Report every N seconds.
    Wall(Duration),
}

/// Parses `N` (tasks) or `Ns` (seconds) into a cadence.
///
/// # Errors
///
/// Returns a description of the expected format on malformed or zero
/// input.
pub fn parse_cadence(s: &str) -> Result<ProgressCadence, String> {
    let (digits, wall) = match s.strip_suffix('s') {
        Some(d) => (d, true),
        None => (s, false),
    };
    let n: u64 =
        digits.parse().map_err(|_| format!("expected a task count N or seconds Ns, got {s:?}"))?;
    if n == 0 {
        return Err("cadence must be nonzero".to_string());
    }
    Ok(if wall { ProgressCadence::Wall(Duration::from_secs(n)) } else { ProgressCadence::Tasks(n) })
}

/// Verbosity of the CLI's stderr channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LogLevel {
    /// Only hard errors.
    Error,
    /// Errors plus degraded-run warnings.
    Warn,
    /// Default: warnings plus progress/timing lines.
    Info,
    /// Everything, including per-run configuration echoes.
    Debug,
}

impl LogLevel {
    /// Parses `error|warn|info|debug` (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns the offending string on unknown levels.
    pub fn parse(s: &str) -> Result<LogLevel, String> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(LogLevel::Error),
            "warn" | "warning" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!("unknown log level {other:?} (error|warn|info|debug)")),
        }
    }

    /// Whether a message at `level` should be emitted under `self`.
    pub fn allows(self, level: LogLevel) -> bool {
        level <= self
    }
}

/// One progress observation, ready to format.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProgressSnapshot {
    /// Microseconds since the run started.
    pub elapsed_us: u64,
    /// Start-vertex tasks finished (completed or quarantined).
    pub done: u64,
    /// Total start-vertex tasks in this run.
    pub total: u64,
    /// Set-op merge-loop iterations spent so far.
    pub setop_iterations: u64,
    /// Tasks quarantined after exhausting retries.
    pub quarantined: u64,
    /// Stragglers detected (known only at run end; `None` mid-run).
    pub stragglers: Option<u64>,
    /// Final run status (`None` mid-run).
    pub status: Option<&'static str>,
}

impl ProgressSnapshot {
    /// Estimated seconds remaining, extrapolating the current task rate.
    pub fn eta_secs(&self) -> Option<f64> {
        if self.done == 0 || self.total <= self.done {
            return None;
        }
        let elapsed = self.elapsed_us as f64 / 1e6;
        Some(elapsed / self.done as f64 * (self.total - self.done) as f64)
    }

    /// Set-op iterations per second so far.
    pub fn setops_per_sec(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        self.setop_iterations as f64 / (self.elapsed_us as f64 / 1e6)
    }

    /// The human stderr line (prefixed `[progress]`).
    pub fn line(&self) -> String {
        let pct = if self.total > 0 { 100.0 * self.done as f64 / self.total as f64 } else { 0.0 };
        let mut s = format!(
            "[progress] {}/{} tasks ({:.1}%), {} setops/s",
            self.done,
            self.total,
            pct,
            humanize(self.setops_per_sec())
        );
        match self.eta_secs() {
            Some(eta) => s.push_str(&format!(", eta {eta:.1}s")),
            None => s.push_str(", eta -"),
        }
        if self.quarantined > 0 {
            s.push_str(&format!(", quarantined {}", self.quarantined));
        }
        if let Some(n) = self.stragglers {
            s.push_str(&format!(", stragglers {n}"));
        }
        if let Some(status) = self.status {
            s.push_str(&format!(", status {status}"));
        }
        s
    }

    /// One JSONL heartbeat record (no trailing newline).
    pub fn heartbeat_json(&self) -> String {
        json::object(|o| {
            o.u64("elapsed_us", self.elapsed_us).u64("done", self.done).u64("total", self.total);
            o.u64("setop_iterations", self.setop_iterations).u64("quarantined", self.quarantined);
            if let Some(n) = self.stragglers {
                o.u64("stragglers", n);
            }
            if let Some(status) = self.status {
                o.str("status", status);
            }
        })
    }
}

fn humanize(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_parses_tasks_and_seconds() {
        assert_eq!(parse_cadence("8"), Ok(ProgressCadence::Tasks(8)));
        assert_eq!(parse_cadence("2s"), Ok(ProgressCadence::Wall(Duration::from_secs(2))));
        assert!(parse_cadence("0").is_err());
        assert!(parse_cadence("soon").is_err());
        assert!(parse_cadence("").is_err());
    }

    #[test]
    fn log_levels_order_and_parse() {
        assert_eq!(LogLevel::parse("WARN"), Ok(LogLevel::Warn));
        assert!(LogLevel::parse("verbose").is_err());
        assert!(LogLevel::Info.allows(LogLevel::Warn));
        assert!(!LogLevel::Warn.allows(LogLevel::Info));
        assert!(LogLevel::Debug.allows(LogLevel::Debug));
    }

    fn snap() -> ProgressSnapshot {
        ProgressSnapshot {
            elapsed_us: 2_000_000,
            done: 50,
            total: 200,
            setop_iterations: 3_000_000,
            quarantined: 1,
            stragglers: None,
            status: None,
        }
    }

    #[test]
    fn line_contains_rate_eta_and_quarantine() {
        let line = snap().line();
        assert!(line.starts_with("[progress] 50/200 tasks (25.0%)"), "{line}");
        assert!(line.contains("1.5M setops/s"), "{line}");
        assert!(line.contains("eta 6.0s"), "{line}");
        assert!(line.contains("quarantined 1"), "{line}");
    }

    #[test]
    fn heartbeat_is_one_json_object() {
        let mut s = snap();
        s.stragglers = Some(2);
        s.status = Some("Complete");
        assert_eq!(
            s.heartbeat_json(),
            "{\"elapsed_us\":2000000,\"done\":50,\"total\":200,\
             \"setop_iterations\":3000000,\"quarantined\":1,\
             \"stragglers\":2,\"status\":\"Complete\"}"
        );
    }
}
