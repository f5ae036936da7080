//! Span tracing and the Chrome `trace_event` exporter.
//!
//! The tracing core is deliberately tiny: a [`Span`] is a fixed-size
//! `Copy` record (static name, microsecond timestamps from one shared
//! [`TraceClock`], worker id, one optional integer argument), collected
//! into per-worker [`SpanRing`] buffers. Workers never share a buffer, so
//! the mining hot path takes no locks and performs no allocations beyond
//! the ring's one up-front reservation; when a ring fills, new spans are
//! counted as dropped rather than reallocating.
//!
//! [`chrome_trace_json`] renders spans (and optional counter time series,
//! used for the simulator's per-PE occupancy timelines) in the Chrome
//! `trace_event` JSON format, which loads directly in `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev).

use crate::json::Value;
use std::time::Instant;

/// Monotonic time base shared by every span of one run.
///
/// Chrome traces want microsecond offsets from an arbitrary origin;
/// `TraceClock` pins that origin at session start. It is `Copy` so each
/// worker can carry its own handle without synchronization.
#[derive(Clone, Copy, Debug)]
pub struct TraceClock {
    origin: Instant,
}

impl TraceClock {
    /// Starts a new clock; all spans of a run should share one.
    pub fn start() -> TraceClock {
        TraceClock { origin: Instant::now() }
    }

    /// Microseconds elapsed since the clock started.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// One completed span (or instant event when `dur_us == 0`).
///
/// Field order is the canonical sort order used when merging per-worker
/// shards, making the merged span list independent of worker
/// interleaving.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Span {
    /// Start offset in microseconds on the run's [`TraceClock`].
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Worker/thread lane (Chrome `tid`). Worker 0 is the driver.
    pub tid: u32,
    /// Static span name (`"mine"`, `"start-vertex-task"`, ...).
    pub name: &'static str,
    /// Category shown by the trace viewer (`"engine"`, `"checkpoint"`...).
    pub cat: &'static str,
    /// Optional argument rendered into the event's `args` object.
    pub arg: Option<(&'static str, u64)>,
}

impl Span {
    /// Builds a span from two clock readings.
    pub fn close(
        clock: &TraceClock,
        name: &'static str,
        cat: &'static str,
        start_us: u64,
        tid: u32,
        arg: Option<(&'static str, u64)>,
    ) -> Span {
        let end = clock.now_us();
        Span { ts_us: start_us, dur_us: end.saturating_sub(start_us), tid, name, cat, arg }
    }
}

/// A bounded, drop-counting span buffer owned by exactly one worker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanRing {
    spans: Vec<Span>,
    cap: usize,
    /// Spans discarded because the ring was full.
    pub dropped: u64,
}

/// Default per-worker span capacity (~2.6 MB of spans per worker at most;
/// one span per start-vertex task means graphs up to 64k start vertices
/// per worker trace losslessly).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

impl Default for SpanRing {
    fn default() -> Self {
        SpanRing::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanRing {
    /// A ring with space for `cap` spans, reserved up front so pushes on
    /// the hot path never allocate.
    pub fn new(cap: usize) -> SpanRing {
        SpanRing { spans: Vec::with_capacity(cap), cap, dropped: 0 }
    }

    /// Records a span, or counts it dropped when full.
    #[inline]
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drains the buffered spans, leaving the ring empty but reusable.
    pub fn drain(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// One sample of a counter time series (`ph:"C"` in the trace format).
/// Each series entry becomes a stacked band in the viewer.
#[derive(Clone, PartialEq, Debug)]
pub struct CounterEvent {
    /// Sample timestamp in microseconds.
    pub ts_us: u64,
    /// Counter track name (e.g. `"pe0 fsm"`).
    pub name: String,
    /// `(band, value)` pairs plotted at this timestamp.
    pub series: Vec<(String, f64)>,
}

/// Renders spans and counter series as Chrome `trace_event` JSON.
///
/// The output is a complete JSON object (`{"traceEvents":[...]}`) that
/// `chrome://tracing` and Perfetto open directly. Spans become complete
/// (`ph:"X"`) events; counters become `ph:"C"` events on their own
/// tracks; the process is labelled `process` via a metadata event.
pub fn chrome_trace_json(process: &str, spans: &[Span], counters: &[CounterEvent]) -> String {
    let mut out = String::with_capacity(256 + spans.len() * 96 + counters.len() * 64);
    Value::new(&mut out).obj(|o| {
        o.str("displayTimeUnit", "ms").arr("traceEvents", |a| {
            a.item().obj(|o| {
                o.str("name", "process_name").str("ph", "M").u64("pid", 1).u64("tid", 0);
                o.obj("args", |o| {
                    o.str("name", process);
                });
            });
            for s in spans {
                a.item().obj(|o| {
                    o.str("name", s.name).str("cat", s.cat).str("ph", "X");
                    o.u64("ts", s.ts_us)
                        .u64("dur", s.dur_us)
                        .u64("pid", 1)
                        .u64("tid", s.tid.into());
                    if let Some((k, v)) = s.arg {
                        o.obj("args", |o| {
                            o.u64(k, v);
                        });
                    }
                });
            }
            for c in counters {
                a.item().obj(|o| {
                    o.str("name", &c.name).str("ph", "C").u64("ts", c.ts_us).u64("pid", 1);
                    o.obj("args", |o| {
                        for (band, v) in &c.series {
                            o.f64(band, *v);
                        }
                    });
                });
            }
        });
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(ts: u64, tid: u32) -> Span {
        Span { ts_us: ts, dur_us: 5, tid, name: "task", cat: "engine", arg: Some(("vid", 7)) }
    }

    #[test]
    fn ring_drops_instead_of_growing() {
        let mut r = SpanRing::new(2);
        r.push(span(0, 0));
        r.push(span(1, 0));
        r.push(span(2, 0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped, 1);
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn clock_is_monotonic() {
        let c = TraceClock::start();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = vec![span(10, 1)];
        let counters = vec![CounterEvent {
            ts_us: 20,
            name: "pe0 fsm".into(),
            series: vec![("Idle".into(), 3.0), ("Extending".into(), 0.5)],
        }];
        let json = chrome_trace_json("flexminer", &spans, &counters);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains(
            "{\"name\":\"task\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":10,\"dur\":5,\"pid\":1,\"tid\":1,\"args\":{\"vid\":7}}"
        ));
        assert!(json.contains(
            "{\"name\":\"pe0 fsm\",\"ph\":\"C\",\"ts\":20,\"pid\":1,\"args\":{\"Idle\":3,\"Extending\":0.5}}"
        ));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn a_bare_span_and_counter_tracks_are_pinned_whole() {
        let spans = [Span { ts_us: 3, dur_us: 0, tid: 2, name: "mine", cat: "engine", arg: None }];
        let counters = [
            CounterEvent {
                ts_us: 9,
                name: "pe \"0\"".into(),
                series: vec![("busy".into(), 0.25), ("lost".into(), f64::NAN)],
            },
            CounterEvent { ts_us: 10, name: "idle".into(), series: vec![] },
        ];
        assert_eq!(
            chrome_trace_json("fm\\run", &spans, &counters),
            r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"fm\\run"}},{"name":"mine","cat":"engine","ph":"X","ts":3,"dur":0,"pid":1,"tid":2},{"name":"pe \"0\"","ph":"C","ts":9,"pid":1,"args":{"busy":0.25,"lost":null}},{"name":"idle","ph":"C","ts":10,"pid":1,"args":{}}]}"#
        );
    }
}
