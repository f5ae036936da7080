//! The loop both transports run, the transports themselves — JSONL over
//! stdio or a unix socket — and the socket's `subscribe` event stream.

use super::wire::{dropped_line, err_line, int_field, ready_line, subscribed_line, too_large_line};
use super::{lock_recover, ServeConfig, ServeState, TICK};
use fm_jobs::jsonl::{self, Json};
use fm_jobs::signal;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// Largest `subscribe` `buffer` (events queued for one subscriber): the
/// bound that keeps a stalled subscriber's queue from growing without
/// limit. 0 means [`fm_telemetry::event::DEFAULT_SUBSCRIBER_CAPACITY`].
#[cfg(unix)]
const MAX_SUBSCRIBE_BUFFER: usize = 1 << 16;

/// Runs the serve loop to completion; returns the process exit code.
///
/// # Errors
///
/// Fails on transport setup problems (socket bind, spool creation); once
/// the loop is up, per-request problems become error responses instead.
pub fn run(cfg: ServeConfig) -> Result<i32, String> {
    super::pin_mmap_threshold();
    signal::install_termination_latch();
    signal::install_usr1_latch();
    if let Some(spool) = cfg.spool.as_ref() {
        std::fs::create_dir_all(spool)
            .map_err(|e| format!("create spool {}: {e}", spool.display()))?;
    }
    let (state, replay) = ServeState::new(cfg)?;
    let state = Arc::new(state);
    state.recover(replay);
    match state.cfg.socket.clone() {
        Some(path) => run_socket(&state, &path),
        None => run_stdio(&state),
    }
}

/// Runs one request with panic isolation: a handler bug answers that one
/// request with a structured error instead of unwinding the connection
/// thread (and poisoning whatever lock it held — see [`lock_recover`]).
pub(super) fn respond(state: &ServeState, line: &str) -> String {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.handle_line(line))) {
        Ok(resp) => resp,
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            // A handler panic is exactly the moment the flight recorder
            // exists for: capture the event trail before answering.
            state.recorder_dump("panic");
            err_line(&format!("internal error: request handler panicked: {what}"))
        }
    }
}

/// True once the loop should stop: a termination signal arrived, or
/// idle-exit is armed and every submitted job has resolved.
fn should_exit(state: &ServeState, eof: bool) -> bool {
    if signal::termination_requested() {
        return true;
    }
    let idle_armed =
        eof || (state.cfg.exit_when_idle && state.submitted_any.load(Ordering::SeqCst));
    idle_armed && state.jobs_all_resolved()
}

fn announce_ready(transport: &str) {
    println!("{}", ready_line(transport));
    let _ = std::io::stdout().flush();
}

/// The loop both transports run: `rx` carries what the transport's reader
/// thread produces (request frames on stdio, accepted connections on the
/// socket) and `handle` deals with one item, returning true once input is
/// over. An item wakes the loop when it arrives; with none it comes round
/// once a [`TICK`] for the things that cannot wake it — a signal latch, a
/// finished job to journal, the idle exit.
fn main_loop<T>(state: &ServeState, rx: &mpsc::Receiver<T>, mut handle: impl FnMut(T) -> bool) {
    let mut eof = false;
    loop {
        if should_exit(state, eof) {
            break;
        }
        state.journal_tick();
        if signal::take_usr1() {
            state.recorder_dump("sigusr1");
        }
        if eof {
            // A closed channel no longer blocks; the jobs still running do.
            state.wait_for_a_job();
            continue;
        }
        match rx.recv_timeout(TICK) {
            Ok(item) => eof = handle(item),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => eof = true,
        }
    }
}

fn run_stdio(state: &Arc<ServeState>) -> Result<i32, String> {
    // A dedicated reader thread feeds a channel: SIGTERM must be able to
    // drain the process while the main loop would otherwise sit in a
    // blocking read (the latch's `signal(2)` handler implies SA_RESTART,
    // so blocking reads never EINTR out). The reader enforces the
    // request-size cap so an oversized frame never lands in memory.
    let (tx, rx) = mpsc::channel::<jsonl::Frame>();
    let limit = state.cfg.max_request_bytes;
    std::thread::Builder::new()
        .name("fm-serve-stdin".into())
        .spawn(move || {
            let stdin = std::io::stdin();
            let mut lock = stdin.lock();
            loop {
                match jsonl::read_frame(&mut lock, limit) {
                    Ok(jsonl::Frame::Eof) | Err(_) => break,
                    Ok(frame) => {
                        if tx.send(frame).is_err() {
                            break;
                        }
                    }
                }
            }
            // Channel disconnect signals EOF to the main loop.
        })
        .map_err(|e| format!("spawn stdin reader: {e}"))?;
    announce_ready("stdio");
    main_loop(state, &rx, |frame| {
        let reply = match frame {
            jsonl::Frame::Line(line) if line.trim().is_empty() => return false,
            jsonl::Frame::Line(line) => respond(state, &line),
            jsonl::Frame::TooLong { limit } => too_large_line(limit),
            jsonl::Frame::Eof => return true,
        };
        println!("{reply}");
        let _ = std::io::stdout().flush();
        false
    });
    Ok(state.finish())
}

#[cfg(unix)]
fn run_socket(state: &Arc<ServeState>, path: &Path) -> Result<i32, String> {
    use std::os::unix::net::{UnixListener, UnixStream};
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    // An acceptor thread sits in the blocking `accept` and feeds the main
    // loop, as the stdin reader does: a connection is taken up when it
    // arrives. Detached like the reader — `accept` has no wake-up but a
    // connection, and the process exits under it after the drain.
    let (tx, rx) = mpsc::channel::<UnixStream>();
    let st = Arc::clone(state);
    std::thread::Builder::new()
        .name("fm-serve-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                match conn {
                    Ok(stream) => {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        // Nearly always the descriptor limit: the next
                        // `accept` can succeed once a connection ends.
                        eprintln!("accept: {e}");
                        let (gate, closed) = &st.conn_closed;
                        let _ = closed.wait_timeout(lock_recover(gate, "connection gate"), TICK);
                    }
                }
            }
        })
        .map_err(|e| format!("spawn acceptor: {e}"))?;
    announce_ready("socket");
    main_loop(state, &rx, |stream| {
        let st = Arc::clone(state);
        // Connection threads are detached; they die with the process
        // after the drain below. A failure to spawn or to set up the
        // stream drops that one connection — the server must outlive any
        // per-connection problem.
        let spawned = std::thread::Builder::new().name("fm-serve-conn".into()).spawn(move || {
            if let Err(e) = serve_connection(&st, stream) {
                eprintln!("serve: connection dropped: {e}");
            }
            st.conn_closed.1.notify_all();
        });
        if let Err(e) = spawned {
            eprintln!("serve: connection thread spawn failed: {e}");
        }
        false
    });
    let code = state.finish();
    let _ = std::fs::remove_file(path);
    Ok(code)
}

/// One socket connection: capped frames in, responses out, structured
/// errors for oversized frames and idle timeouts. Returning `Err` drops
/// only this connection (logged by the accept loop).
#[cfg(unix)]
fn serve_connection(
    state: &ServeState,
    stream: std::os::unix::net::UnixStream,
) -> Result<(), String> {
    let idle = state.cfg.idle_timeout;
    if idle.is_some() {
        // A failed timeout setup degrades to no-timeout rather than
        // refusing the connection.
        if let Err(e) = stream.set_read_timeout(idle) {
            eprintln!("serve: set_read_timeout failed, connection has no idle limit: {e}");
        }
    }
    let reader_half = stream.try_clone().map_err(|e| format!("socket clone failed: {e}"))?;
    let mut reader = std::io::BufReader::new(reader_half);
    let mut stream = stream;
    loop {
        match jsonl::read_frame(&mut reader, state.cfg.max_request_bytes) {
            Ok(jsonl::Frame::Eof) => return Ok(()),
            Ok(jsonl::Frame::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let resp = match jsonl::parse(&line) {
                    // `subscribe` turns this connection into a one-way
                    // event stream; it never returns to request/response
                    // mode. A bad `buffer` is answered like any bad field.
                    Ok(req) if req.get("op").and_then(Json::as_str) == Some("subscribe") => {
                        match int_field(&req, "buffer", 0..=MAX_SUBSCRIBE_BUFFER) {
                            Ok(buffer) => return stream_events(state, stream, buffer.unwrap_or(0)),
                            Err(e) => err_line(&e),
                        }
                    }
                    _ => respond(state, &line),
                };
                writeln!(stream, "{resp}").map_err(|e| format!("response write failed: {e}"))?;
            }
            Ok(jsonl::Frame::TooLong { limit }) => {
                // The frame was drained through its newline; reply and
                // keep serving the (resynchronised) stream.
                writeln!(stream, "{}", too_large_line(limit))
                    .map_err(|e| format!("response write failed: {e}"))?;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let secs = idle.map(|d| d.as_secs()).unwrap_or(0);
                let _ = writeln!(
                    stream,
                    "{}",
                    err_line(&format!("idle timeout: no complete request in {secs}s"))
                );
                return Ok(());
            }
            Err(e) => return Err(format!("request read failed: {e}")),
        }
    }
}

/// Streams job lifecycle events to one subscriber as JSONL until the
/// client disconnects or the process terminates. The subscription queue
/// holds at most `buffer` events (0:
/// [`fm_telemetry::event::DEFAULT_SUBSCRIBER_CAPACITY`]): a consumer
/// slower than the event rate loses oldest-first, sees a `dropped`
/// notice line with the running total, and never blocks the publishers.
/// A write error means the client went away — that ends this stream
/// cleanly and must never take down the accept loop.
#[cfg(unix)]
fn stream_events(
    state: &ServeState,
    mut stream: std::os::unix::net::UnixStream,
    buffer: usize,
) -> Result<(), String> {
    let sub = state.obs.bus().subscribe(buffer);
    if writeln!(stream, "{}", subscribed_line()).is_err() {
        return Ok(());
    }
    let mut reported_dropped = 0;
    loop {
        // A publish wakes this; an empty batch is a tick with none.
        for event in sub.recv_timeout(TICK) {
            if writeln!(stream, "{}", event.to_json()).is_err() {
                return Ok(());
            }
        }
        let dropped = sub.dropped();
        if dropped > reported_dropped {
            reported_dropped = dropped;
            if writeln!(stream, "{}", dropped_line(dropped)).is_err() {
                return Ok(());
            }
        }
        if signal::termination_requested() {
            return Ok(());
        }
    }
}

#[cfg(not(unix))]
fn run_socket(_state: &Arc<ServeState>, _path: &Path) -> Result<i32, String> {
    Err("--socket requires a unix platform; use stdio mode".into())
}
