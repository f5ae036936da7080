//! Structured job events: the live stream and the flight recorder.
//!
//! The serve layer narrates every job's lifecycle (submitted, admitted,
//! preempted, retried, finished, ...) as [`JobEvent`]s published through
//! one process-wide [`EventBus`]. Two consumers hang off the bus:
//!
//! * **Live subscribers** — each `subscribe` protocol connection gets a
//!   bounded [`Subscription`] queue. A slow consumer never blocks the
//!   publisher and never grows the queue: the oldest events are dropped
//!   and counted (`fm_events_dropped_total`), so the stream stays
//!   recent-biased and drop-accounted.
//! * **The flight recorder** — a fixed-size ring of the last N events,
//!   dumped as JSONL on SIGUSR1, handler panic, or clean exit. The
//!   journal records *outcomes*; the recorder records the queue /
//!   preemption / drain context around an incident (DESIGN.md §9).
//!
//! Publishing is cheap and lock-light: one `Mutex` around the ring and
//! the subscriber list, atomics for sequence and drop accounting, and one
//! condvar notify per subscriber so a consumer blocked in
//! [`Subscription::recv_timeout`] is woken by the publish itself. The
//! bus timestamps every event on the same [`TraceClock`] origin as the
//! run's spans, so recorder dumps and Perfetto traces line up.

use crate::json::{self, Obj, Value};
use crate::trace::TraceClock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// One structured lifecycle event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobEvent {
    /// Process-wide publication order (1-based, gap-free at the bus).
    pub seq: u64,
    /// Microseconds on the bus's [`TraceClock`] (same origin as spans).
    pub ts_us: u64,
    /// Job id the event concerns (0 for server-level events).
    pub job: u64,
    /// Event kind (`"submitted"`, `"running"`, `"preempted"`, ...).
    pub kind: &'static str,
    /// Free-form human detail (priority, attempt, outcome, error).
    pub detail: String,
}

impl JobEvent {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        json::object(|o| self.fields(o))
    }

    fn fields(&self, o: &mut Obj<'_>) {
        o.u64("seq", self.seq).u64("ts_us", self.ts_us).u64("job", self.job);
        o.str("kind", self.kind).str("detail", &self.detail);
    }
}

/// The flight recorder: a bounded ring keeping the newest events.
#[derive(Debug)]
pub struct EventRing {
    buf: VecDeque<JobEvent>,
    cap: usize,
    /// Total events ever offered (≥ `len`; the difference is truncation).
    pub seen: u64,
}

/// Default flight-recorder depth: enough to reconstruct the minutes
/// leading up to an incident without unbounded memory.
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

impl EventRing {
    /// A ring holding at most `cap` events (`cap == 0` keeps nothing but
    /// still counts `seen`).
    pub fn new(cap: usize) -> EventRing {
        EventRing { buf: VecDeque::with_capacity(cap.min(DEFAULT_RECORDER_CAPACITY)), cap, seen: 0 }
    }

    /// Records an event, evicting the oldest when full.
    pub fn push(&mut self, ev: JobEvent) {
        self.seen += 1;
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<JobEvent> {
        self.buf.iter().cloned().collect()
    }
}

/// One subscriber's bounded queue (shared between the bus and the
/// [`Subscription`] handle).
#[derive(Debug)]
struct SubQueue {
    q: Mutex<VecDeque<JobEvent>>,
    /// Notified by every publish that lands an event in `q`.
    ready: Condvar,
    cap: usize,
    dropped: AtomicU64,
}

/// A live event feed handed to one `subscribe` connection. Dropping the
/// handle detaches it from the bus (lazily, at the next publish).
#[derive(Debug)]
pub struct Subscription {
    queue: Arc<SubQueue>,
}

impl Subscription {
    /// Drains every queued event, oldest first.
    pub fn poll(&self) -> Vec<JobEvent> {
        self.recv_timeout(Duration::ZERO)
    }

    /// [`Subscription::poll`], but an empty queue blocks until the next
    /// publish or until `timeout` passes, whichever is first; empty means
    /// the timeout passed with nothing published.
    pub fn recv_timeout(&self, timeout: Duration) -> Vec<JobEvent> {
        let q = self.queue.q.lock().unwrap_or_else(|e| e.into_inner());
        let (mut q, _) = self
            .queue
            .ready
            .wait_timeout_while(q, timeout, |q| q.is_empty())
            .unwrap_or_else(|e| e.into_inner());
        q.drain(..).collect()
    }

    /// Events evicted from this queue because the consumer lagged.
    pub fn dropped(&self) -> u64 {
        self.queue.dropped.load(Ordering::Relaxed)
    }
}

/// Interior bus state guarded by one mutex.
#[derive(Debug)]
struct BusInner {
    ring: EventRing,
    subs: Vec<Weak<SubQueue>>,
}

/// The process-wide publisher: stamps, sequences, records, and fans out.
#[derive(Debug)]
pub struct EventBus {
    clock: TraceClock,
    seq: AtomicU64,
    dropped_total: AtomicU64,
    inner: Mutex<BusInner>,
}

/// Default per-subscriber queue bound. Small enough that one stuck
/// client caps out in tens of KB; large enough that a live tail over a
/// socket never drops under normal load.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 1024;

impl EventBus {
    /// A bus stamping events on `clock` with a flight-recorder ring of
    /// `ring_cap` events.
    pub fn new(clock: TraceClock, ring_cap: usize) -> EventBus {
        EventBus {
            clock,
            seq: AtomicU64::new(0),
            dropped_total: AtomicU64::new(0),
            inner: Mutex::new(BusInner { ring: EventRing::new(ring_cap), subs: Vec::new() }),
        }
    }

    /// The clock events are stamped on (share it with span tracing).
    pub fn clock(&self) -> TraceClock {
        self.clock
    }

    /// Publishes one event: stamps it, appends it to the flight recorder,
    /// and offers it to every live subscriber (bounded; oldest dropped
    /// and counted on overflow).
    pub fn publish(&self, job: u64, kind: &'static str, detail: impl Into<String>) {
        let ev = JobEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            ts_us: self.clock.now_us(),
            job,
            kind,
            detail: detail.into(),
        };
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.subs.retain(|w| {
            let Some(sub) = w.upgrade() else { return false };
            let mut q = sub.q.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() == sub.cap {
                q.pop_front();
                sub.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped_total.fetch_add(1, Ordering::Relaxed);
            }
            q.push_back(ev.clone());
            sub.ready.notify_one();
            true
        });
        inner.ring.push(ev);
    }

    /// Attaches a subscriber with a queue bound of `cap` events
    /// (`cap == 0` uses [`DEFAULT_SUBSCRIBER_CAPACITY`]).
    pub fn subscribe(&self, cap: usize) -> Subscription {
        let cap = if cap == 0 { DEFAULT_SUBSCRIBER_CAPACITY } else { cap };
        let queue = Arc::new(SubQueue {
            q: Mutex::new(VecDeque::with_capacity(cap.min(DEFAULT_SUBSCRIBER_CAPACITY))),
            ready: Condvar::new(),
            cap,
            dropped: AtomicU64::new(0),
        });
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.subs.push(Arc::downgrade(&queue));
        Subscription { queue }
    }

    /// Total events evicted across every subscriber
    /// (`fm_events_dropped_total`).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }

    /// Total events ever published.
    pub fn published(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Snapshot of the flight recorder: `(events oldest-first, total ever
    /// seen)` — `seen > events.len()` means the ring truncated history.
    pub fn recorder_snapshot(&self) -> (Vec<JobEvent>, u64) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.ring.snapshot(), inner.ring.seen)
    }

    /// Renders the flight recorder as a JSONL dump: one header object
    /// (`{"event":"recorder","reason":...,"dumped":N,"seen":M}`) followed
    /// by one event object per line, oldest first.
    pub fn recorder_dump(&self, reason: &str) -> String {
        let (events, seen) = self.recorder_snapshot();
        let mut out = String::with_capacity(64 + events.len() * 96);
        Value::new(&mut out).obj(|o| {
            o.str("event", "recorder").str("reason", reason);
            o.u64("dumped", events.len() as u64).u64("seen", seen);
        });
        for ev in &events {
            out.push('\n');
            Value::new(&mut out).obj(|o| ev.fields(o));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(ring_cap: usize) -> EventBus {
        EventBus::new(TraceClock::start(), ring_cap)
    }

    #[test]
    fn events_are_sequenced_and_json_shaped() {
        let b = bus(16);
        b.publish(1, "submitted", "priority=2");
        b.publish(1, "running", "");
        let (events, seen) = b.recorder_snapshot();
        assert_eq!(seen, 2);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        let json = events[0].to_json();
        assert!(json.starts_with("{\"seq\":1,\"ts_us\":"), "{json}");
        assert!(
            json.ends_with("\"job\":1,\"kind\":\"submitted\",\"detail\":\"priority=2\"}"),
            "{json}"
        );
    }

    #[test]
    fn an_event_is_one_pinned_line() {
        let ev = JobEvent {
            seq: 12,
            ts_us: 3456,
            job: 7,
            kind: "finished",
            detail: "status=\"Degraded\"\tfaults=2\n\u{1}".into(),
        };
        assert_eq!(
            ev.to_json(),
            r#"{"seq":12,"ts_us":3456,"job":7,"kind":"finished","detail":"status=\"Degraded\"\tfaults=2\n\u0001"}"#
        );
    }

    #[test]
    fn ring_keeps_newest_and_counts_seen() {
        let b = bus(3);
        for i in 0..10u64 {
            b.publish(i, "tick", "");
        }
        let (events, seen) = b.recorder_snapshot();
        assert_eq!(seen, 10);
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.job).collect::<Vec<_>>(), vec![7, 8, 9]);
        let dump = b.recorder_dump("test");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"event\":\"recorder\",\"reason\":\"test\",\"dumped\":3,\"seen\":10}"
        );
        assert!(lines[1].contains("\"job\":7"), "{dump}");
    }

    #[test]
    fn zero_cap_ring_counts_but_keeps_nothing() {
        let b = bus(0);
        b.publish(1, "tick", "");
        let (events, seen) = b.recorder_snapshot();
        assert!(events.is_empty());
        assert_eq!(seen, 1);
    }

    #[test]
    fn slow_subscriber_gets_bounded_queue_with_drop_accounting() {
        let b = bus(16);
        let sub = b.subscribe(4);
        for i in 0..10u64 {
            b.publish(i, "tick", "");
        }
        assert_eq!(sub.dropped(), 6);
        assert_eq!(b.dropped_total(), 6);
        let events = sub.poll();
        // The newest 4 survive, in publication order.
        assert_eq!(events.iter().map(|e| e.job).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert!(sub.poll().is_empty());
    }

    #[test]
    fn blocking_receive_wakes_on_publish_and_comes_back_empty_on_timeout() {
        let b = bus(16);
        let sub = b.subscribe(2);
        assert!(sub.recv_timeout(Duration::from_millis(5)).is_empty(), "nothing was published");

        // Far longer than the test may take: a receive that comes back
        // only at its timeout was not woken by the publish.
        let patience = Duration::from_secs(60);
        let waiting = std::sync::Barrier::new(2);
        let (events, took) = std::thread::scope(|scope| {
            let receiver = scope.spawn(|| {
                waiting.wait();
                let t0 = std::time::Instant::now();
                (sub.recv_timeout(patience), t0.elapsed())
            });
            waiting.wait();
            b.publish(7, "finished", "");
            receiver.join().expect("receiver panicked")
        });
        assert_eq!(events.iter().map(|e| e.job).collect::<Vec<_>>(), vec![7]);
        assert!(took < patience / 2, "woken by the timeout, not the publish: {took:?}");

        // Drop-oldest accounting is the non-blocking path's: cap 2, four
        // published, the newest two delivered at once.
        for i in 0..4u64 {
            b.publish(i, "tick", "");
        }
        assert_eq!((sub.dropped(), b.dropped_total()), (2, 2));
        let events = sub.recv_timeout(patience);
        assert_eq!(events.iter().map(|e| e.job).collect::<Vec<_>>(), vec![2, 3]);
        assert!(sub.poll().is_empty());
    }

    #[test]
    fn dropped_subscription_detaches_from_the_bus() {
        let b = bus(16);
        let sub = b.subscribe(4);
        b.publish(1, "tick", "");
        assert_eq!(sub.poll().len(), 1);
        drop(sub);
        b.publish(2, "tick", "");
        let inner = b.inner.lock().unwrap();
        assert!(inner.subs.is_empty(), "dead subscriber must be pruned at publish");
    }

    #[test]
    fn multiple_subscribers_each_see_every_event() {
        let b = bus(16);
        let a = b.subscribe(8);
        let c = b.subscribe(8);
        b.publish(1, "submitted", "");
        b.publish(1, "finished", "");
        assert_eq!(a.poll().len(), 2);
        assert_eq!(c.poll().len(), 2);
        assert_eq!(b.dropped_total(), 0);
    }
}
