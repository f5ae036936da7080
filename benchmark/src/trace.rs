//! Spans recorded by the harness, around its calls into each layer.
//! Nothing inside the program under test is instrumented.

use fm_telemetry::{Span, TraceClock};
use std::time::Instant;

/// An in-memory span recorder. Timing happens whether or not spans are
/// kept, so a traced and an untraced replica differ only in the
/// recording itself — which is what `bench.trace_overhead_share` reports.
pub struct Tracer {
    clock: TraceClock,
    pub on: bool,
    pub spans: Vec<Span>,
}

/// An open span: its start on the trace clock and on the precise clock.
#[derive(Clone, Copy)]
pub struct Open(u64, Instant);

impl Tracer {
    pub fn new(clock: TraceClock, on: bool) -> Tracer {
        Tracer { clock, on, spans: Vec::new() }
    }

    pub fn open(&self) -> Open {
        Open(self.clock.now_us(), Instant::now())
    }

    /// Closes a span and returns its duration in seconds. A span carries
    /// its name, start, duration, its parent's name (as the category) and
    /// the id of the request it belongs to (as the lane and an argument).
    pub fn close(
        &mut self,
        open: Open,
        name: &'static str,
        parent: &'static str,
        request: u32,
    ) -> f64 {
        let elapsed = open.1.elapsed();
        if self.on {
            self.spans.push(Span {
                ts_us: open.0,
                dur_us: elapsed.as_micros() as u64,
                tid: request,
                name,
                cat: parent,
                arg: Some(("request", u64::from(request))),
            });
        }
        elapsed.as_secs_f64()
    }

    /// Times `f` as a child span of `parent`.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open();
        let value = f();
        (value, self.close(open, name, parent, request))
    }
}

/// Writes `spans` as Chrome trace JSON to `<out>/trace-<workload>.json`.
pub fn write(out: &std::path::Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    let path = out.join(format!("trace-{workload}.json"));
    let body = fm_telemetry::chrome_trace_json("fm-benchmark", spans, &[]);
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
}
