//! TCP front-end: event loops serving both codecs on one port.
//!
//! Each loop thread owns a `polling::Poller`, a clone of the shared
//! listener (key 0, oneshot, so the kernel load-balances accepts across
//! loops), and a map of connections. A connection is two buffers and a
//! cursor pair: bytes read but not yet parsed, bytes rendered but not yet
//! written. Only its own loop polls it, so its interest is level-triggered
//! and changes (one `epoll_ctl`) only when what it waits for changes — a
//! request/response exchange costs a `read`, a `write` and the wait. One readiness wake-up reads the socket, parses every
//! complete request (that is the pipelining — many requests per
//! wake-up), executes them through [`execute`], appends the responses,
//! and flushes until the socket pushes back.
//!
//! A connection picks its codec from its first four bytes. A binary
//! frame starts `len u32 LE` with `len ≤`
//! [`binary::MAX_MESSAGE_PAYLOAD`] (8 MiB), so its fourth byte is always
//! `0x00`; no text line contains NUL. The first byte cannot decide: a
//! frame with a 65–90 byte payload begins with an ASCII capital.
//!
//! * **Text** — one `\n`-terminated line per request, one line per
//!   response; blank lines are skipped. The debuggable `nc` interface.
//! * **Binary** — CRC32-framed tagged payloads; self-describing responses
//!   make deep pipelining natural.
//!
//! Fault taxonomy, by layer:
//!
//! * **Transport fault** (unframeable stream: oversized length prefix or
//!   CRC mismatch; a text line over [`MAX_LINE_BYTES`]) — the server
//!   answers with one typed error and closes; nothing after the damage
//!   can be trusted.
//! * **Request fault** (complete request that fails to decode or
//!   execute) — a typed [`Response::Err`] for *that* request; the
//!   connection lives on.
//!
//! Backpressure: while a connection's pending write buffer exceeds
//! [`MAX_WRITE_BACKLOG`], the loop stops arming its read side — a client
//! that pipelines faster than it drains responses throttles itself
//! instead of ballooning server memory.

use polling::{Event, Events, PollMode, Poller};
use req_core::ReqError;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::faults::{Fault, FaultPlane, FaultSite};
use crate::protocol::{binary, text, Request, Response};
use crate::service::QuantileService;

/// Longest accepted text request line (an `ADDB` of ~400k values).
/// Longer lines get an error and the connection closes.
pub const MAX_LINE_BYTES: u64 = 8 * 1024 * 1024;

/// Pending response bytes above which a connection's read side is parked
/// until the client drains responses (16 MiB).
pub const MAX_WRITE_BACKLOG: usize = 16 * 1024 * 1024;

/// Read buffer bytes above which an unparseable binary stream is treated
/// as hostile: one frame (header + payload) can legitimately reach
/// [`binary::MAX_MESSAGE_PAYLOAD`]; anything beyond that with no
/// complete frame is garbage.
const MAX_READ_BUFFER: usize = binary::MAX_MESSAGE_PAYLOAD + 64;

/// Bytes one `read` call may return; the loop's reusable read buffer.
const READ_CHUNK: usize = 64 * 1024;

const LISTENER_KEY: usize = 0;

/// Execute one typed request against the service. Handler failures come
/// back as [`Response::Err`]; both codecs funnel through here, which is
/// what makes them provably equivalent — same request, same typed
/// response.
pub fn execute(service: &QuantileService, req: Request) -> Response {
    let result = (|| -> Result<Response, ReqError> {
        Ok(match req {
            Request::Create { key, config, token } => {
                service.create_with_token(&key, config, token)?;
                Response::Created
            }
            Request::Add { key, value } => {
                service.add(&key, value)?;
                Response::Added
            }
            Request::AddBatch { key, values, token } => {
                let values: Vec<req_core::OrdF64> =
                    values.into_iter().map(req_core::OrdF64).collect();
                Response::AddedBatch(service.add_batch_with_token(&key, &values, token)?)
            }
            Request::Rank { key, value } => Response::Rank(service.rank(&key, value)?),
            Request::Quantile { key, q } => Response::Quantile(service.quantile(&key, q)?),
            Request::Cdf { key, points } => Response::Cdf(service.cdf(&key, &points)?),
            Request::Stats { key } => Response::Stats(service.stats(&key)?),
            Request::List => Response::List(service.list()),
            Request::Snapshot => Response::Snapshot(service.snapshot_now()?),
            Request::Drop { key, token } => {
                service.drop_key_with_token(&key, token)?;
                Response::Dropped
            }
            Request::Ping => Response::Pong,
            Request::Quit => Response::Bye,
            Request::Tail {
                gen,
                offset,
                max_bytes,
            } => Response::Tailed(service.tail(gen, offset, max_bytes)?),
            Request::Merge { key } => Response::Merged(service.sketch_parts(&key)?),
            Request::Metrics => Response::MetricsText(req_telemetry::global().render()),
            Request::Events { max } => {
                Response::Events(req_telemetry::global().recent_events(max as usize))
            }
        })
    })();
    match result {
        Ok(resp) => resp,
        Err(e) => Response::from_error(&e),
    }
}

/// Cached handles into the global telemetry registry, built once per
/// event loop (registration is the cold path; the loop body touches only
/// handle atomics). All loops in a process share the same series.
struct LoopTelemetry {
    /// Time from a readiness wake-up to the loop having drained it.
    wakeup_micros: req_telemetry::Histogram,
    /// Complete requests executed per wake-up — the pipelining win.
    frames_per_wakeup: req_telemetry::Histogram,
    live_connections: req_telemetry::Gauge,
    accepts: req_telemetry::Counter,
    /// Read-interest parks under [`MAX_WRITE_BACKLOG`] backpressure.
    backpressure_parks: req_telemetry::Counter,
    /// High-water pending response bytes on any one connection.
    write_backlog_bytes: req_telemetry::Gauge,
    stall_evictions: req_telemetry::Counter,
}

impl LoopTelemetry {
    fn new() -> LoopTelemetry {
        let t = req_telemetry::global();
        LoopTelemetry {
            wakeup_micros: t.histogram("evented_wakeup_micros"),
            frames_per_wakeup: t.histogram("evented_frames_per_wakeup"),
            live_connections: t.gauge("evented_live_connections"),
            accepts: t.counter("evented_accepts_total"),
            backpressure_parks: t.counter("evented_backpressure_parks_total"),
            write_backlog_bytes: t.gauge("evented_write_backlog_bytes"),
            stall_evictions: t.counter("evented_stall_evictions_total"),
        }
    }
}

/// Knobs for [`serve_evented_with`] beyond the bind address.
#[derive(Debug, Clone, Default)]
pub struct EventedOptions {
    /// Event-loop threads (clamped to `1..=8`; 0 means 1).
    pub loops: usize,
    /// Fault plane interposed on this server's socket reads/writes
    /// (`SockRead`/`SockWrite` sites) for deterministic chaos tests.
    pub faults: Option<Arc<FaultPlane>>,
    /// Close a connection whose pending responses made no progress for
    /// this long (a never-draining reader would otherwise pin its
    /// [`MAX_WRITE_BACKLOG`] of memory forever). Swept on the loop's 1 s
    /// heartbeat, so sub-second values still take up to ~1 s to act.
    pub write_stall_timeout: Option<Duration>,
}

/// The wire codec a connection speaks, fixed by its first four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Codec {
    Text,
    Binary,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// `None` until four bytes have arrived.
    codec: Option<Codec>,
    /// Bytes received; `[parsed..]` is the unconsumed tail.
    read_buf: Vec<u8>,
    /// Offset of the first unparsed byte in `read_buf`.
    parsed: usize,
    /// Text only: `read_buf[parsed..scanned]` holds no newline, so the
    /// next scan resumes at `scanned` instead of rescanning a long line.
    scanned: usize,
    /// Response bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Offset of the first unwritten byte in `write_buf`.
    written: usize,
    /// Close once `write_buf` drains (after `QUIT`, a transport fault,
    /// or client EOF).
    close_after_flush: bool,
    /// Last time the write side progressed (or had nothing pending) —
    /// the write-stall sweep's clock.
    last_progress: Instant,
    /// Read interest currently parked under backlog backpressure (so the
    /// park is counted on the transition, not on every wake-up).
    parked: bool,
    /// The level-triggered interest currently registered.
    interest: Event,
}

impl Conn {
    fn new(stream: TcpStream, interest: Event) -> Conn {
        Conn {
            stream,
            codec: None,
            read_buf: Vec::new(),
            parsed: 0,
            scanned: 0,
            write_buf: Vec::new(),
            written: 0,
            close_after_flush: false,
            last_progress: Instant::now(),
            parked: false,
            interest,
        }
    }

    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Queue `resp` in this connection's codec.
    fn push_response(&mut self, resp: &Response) {
        match self.codec {
            Some(Codec::Binary) => self
                .write_buf
                .extend_from_slice(&binary::encode_response(resp)),
            _ => {
                self.write_buf
                    .extend_from_slice(text::encode_response(resp).as_bytes());
                self.write_buf.push(b'\n');
            }
        }
    }

    /// Answer a transport fault with one typed error, then close.
    fn fail(&mut self, err: ReqError) {
        self.push_response(&Response::from_error(&err));
        self.close_after_flush = true;
    }
}

/// Handle to a running server; stops and joins the loops on drop.
#[derive(Debug)]
pub struct EventedHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pollers: Vec<Arc<Poller>>,
    live_conns: Arc<AtomicU64>,
    loops: Vec<std::thread::JoinHandle<()>>,
}

impl EventedHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently held open across all loops.
    pub fn live_connections(&self) -> u64 {
        self.live_conns.load(Ordering::Relaxed)
    }

    /// Stop the loops, close every connection, and join.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.loops.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        for poller in &self.pollers {
            let _ = poller.notify();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EventedHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
/// `service` over both codecs on `loops` event-loop threads (clamped to
/// `1..=8`; one loop drives thousands of connections, more only help
/// past one saturated core).
pub fn serve_evented(
    service: Arc<QuantileService>,
    addr: &str,
    loops: usize,
) -> Result<EventedHandle, ReqError> {
    serve_evented_with(
        service,
        addr,
        EventedOptions {
            loops,
            ..EventedOptions::default()
        },
    )
}

/// [`serve_evented`] with the full option set (socket fault injection,
/// write-stall eviction).
pub fn serve_evented_with(
    service: Arc<QuantileService>,
    addr: &str,
    opts: EventedOptions,
) -> Result<EventedHandle, ReqError> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let live_conns = Arc::new(AtomicU64::new(0));
    let loops_n = opts.loops.clamp(1, 8);
    let mut pollers = Vec::with_capacity(loops_n);
    let mut threads = Vec::with_capacity(loops_n);
    for _ in 0..loops_n {
        let poller = Arc::new(Poller::new().map_err(ReqError::from)?);
        let listener = listener.try_clone()?;
        poller
            .add(&listener, Event::readable(LISTENER_KEY))
            .map_err(ReqError::from)?;
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let live = Arc::clone(&live_conns);
        let thread_poller = Arc::clone(&poller);
        let opts = opts.clone();
        pollers.push(poller);
        threads.push(std::thread::spawn(move || {
            event_loop(thread_poller, listener, service, stop, live, opts);
        }));
    }
    Ok(EventedHandle {
        addr: local,
        stop,
        pollers,
        live_conns,
        loops: threads,
    })
}

fn event_loop(
    poller: Arc<Poller>,
    listener: TcpListener,
    service: Arc<QuantileService>,
    stop: Arc<AtomicBool>,
    live: Arc<AtomicU64>,
    opts: EventedOptions,
) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = LISTENER_KEY + 1;
    let mut events = Events::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let faults = opts.faults.as_deref();
    let telemetry = LoopTelemetry::new();
    let mut wakeups: u64 = 0;
    loop {
        // The timeout is only a heartbeat fallback (stop flag + stall
        // sweep); notify() wakes the wait promptly on shutdown.
        if poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .is_err()
        {
            break;
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Span one wake-up's full drain; recorded only when the wake-up
        // carried readiness (heartbeat ticks would drown the signal), and
        // only for one wake-up in eight — two clock reads plus two
        // histogram inserts per drain cost a measurable slice of a small
        // round trip, and a uniform sample estimates the same latency
        // distribution while the exact counters stay untouched.
        let wake_timer = if wakeups & 7 == 0 {
            Some(telemetry.wakeup_micros.begin())
        } else {
            None
        };
        let mut frames: u64 = 0;
        let mut saw_event = false;
        for ev in events.iter() {
            saw_event = true;
            if ev.key == LISTENER_KEY {
                accept_burst(
                    &poller,
                    &listener,
                    &mut conns,
                    &mut next_key,
                    &live,
                    &telemetry,
                );
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue; // already closed this iteration
            };
            let alive = drive(conn, &service, ev, faults, &mut chunk, &mut frames);
            if alive {
                update_interest(&poller, conn, &telemetry);
            } else {
                let conn = conns.remove(&ev.key).expect("checked above");
                let _ = poller.delete(&conn.stream);
                live.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if saw_event {
            if let Some(timer) = wake_timer {
                telemetry.wakeup_micros.finish(timer);
                if frames > 0 {
                    telemetry.frames_per_wakeup.observe(frames);
                }
            }
            wakeups = wakeups.wrapping_add(1);
        }
        telemetry.live_connections.set(live.load(Ordering::Relaxed));
        // Evict connections whose pending responses made no progress
        // within the stall budget — the explicit close path for a reader
        // that parked its own read side via the backlog cap and never
        // drains (its parked interest would otherwise idle forever).
        if let Some(stall) = opts.write_stall_timeout {
            let now = Instant::now();
            conns.retain(|_, c| {
                let stalled = c.pending_write() > 0 && now.duration_since(c.last_progress) > stall;
                if stalled {
                    let _ = poller.delete(&c.stream);
                    live.fetch_sub(1, Ordering::Relaxed);
                    telemetry.stall_evictions.inc();
                    req_telemetry::global().event(
                        "write_stall_evicted",
                        format!("pending={} bytes", c.pending_write()),
                    );
                }
                !stalled
            });
        }
    }
    // Shutdown: drop every connection (clients see EOF/RST) and the
    // listener registration.
    for (_, conn) in conns.drain() {
        let _ = poller.delete(&conn.stream);
        live.fetch_sub(1, Ordering::Relaxed);
    }
    let _ = poller.delete(&listener);
}

fn accept_burst(
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
    live: &AtomicU64,
    telemetry: &LoopTelemetry,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Small responses must leave immediately (Nagle + delayed
                // ACK turns each round trip into ~40 ms otherwise).
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let key = *next_key;
                *next_key += 1;
                let interest = Event::readable(key);
                if poller
                    .add_with_mode(&stream, interest, PollMode::Level)
                    .is_err()
                {
                    continue; // fd pressure; drop the connection
                }
                conns.insert(key, Conn::new(stream, interest));
                live.fetch_add(1, Ordering::Relaxed);
                telemetry.accepts.inc();
            }
            // WouldBlock = burst drained; anything else (EMFILE, reset
            // races) is per-accept and must not kill the loop.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    let _ = poller.modify(listener, Event::readable(LISTENER_KEY));
}

/// Advance one connection as far as the socket allows. Returns `false`
/// when the connection is finished and must be dropped.
fn drive(
    conn: &mut Conn,
    service: &QuantileService,
    ev: Event,
    faults: Option<&FaultPlane>,
    chunk: &mut [u8],
    frames: &mut u64,
) -> bool {
    if ev.readable && !conn.close_after_flush {
        match faults.map_or(Fault::None, |p| p.next(FaultSite::SockRead)) {
            // A stalled read: no progress this readiness turn — exactly
            // what a peer that stops sending mid-request looks like.
            Fault::Stall => return true,
            // A read-side error: the kernel gave up on the connection.
            Fault::Error | Fault::Torn { .. } => {
                conn.close_after_flush = true;
                return conn.pending_write() > 0;
            }
            Fault::Delay(ms) => std::thread::sleep(Duration::from_millis(u64::from(ms))),
            Fault::None => {}
        }
        if !fill(conn, chunk) {
            return conn.pending_write() > 0; // keep only to flush a tail
        }
        *frames += parse_and_execute(conn, service);
    }
    if !flush(conn, faults) {
        return false;
    }
    !(conn.close_after_flush && conn.pending_write() == 0)
}

/// Read until a short read or `WouldBlock`. Returns `false` on EOF or a
/// socket error (the connection delivers nothing more).
///
/// A short read means the socket is drained for now; stopping there
/// saves the `read` that would only report `WouldBlock`. The interest is
/// level-triggered, so the next wait reports any bytes (or EOF) still
/// queued.
fn fill(conn: &mut Conn, chunk: &mut [u8]) -> bool {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.close_after_flush = true;
                return false;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    return true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.close_after_flush = true;
                return false;
            }
        }
    }
}

/// Parse every complete request in the read buffer and execute it; this
/// is where pipelined requests all get served off one wake-up. Returns
/// the number of requests handled (the per-wakeup pipelining width the
/// telemetry histograms record).
fn parse_and_execute(conn: &mut Conn, service: &QuantileService) -> u64 {
    if conn.codec.is_none() {
        match conn.read_buf.get(conn.parsed + 3) {
            Some(0) => conn.codec = Some(Codec::Binary),
            Some(_) => conn.codec = Some(Codec::Text),
            None => return 0,
        }
    }
    let handled = match conn.codec {
        Some(Codec::Binary) => parse_binary(conn, service),
        _ => parse_text(conn, service),
    };
    // Reclaim the consumed prefix: free when all of it is consumed, and
    // a copy only once it dominates the buffer.
    if conn.parsed == conn.read_buf.len() {
        conn.read_buf.clear();
        conn.parsed = 0;
        conn.scanned = 0;
    } else if conn.parsed > 4096 && conn.parsed * 2 >= conn.read_buf.len() {
        conn.read_buf.drain(..conn.parsed);
        conn.scanned = conn.scanned.saturating_sub(conn.parsed);
        conn.parsed = 0;
    }
    handled
}

/// Execute one decoded request (or answer its decode error) and queue
/// the response. `QUIT` closes the connection once the reply flushes.
fn answer(conn: &mut Conn, service: &QuantileService, req: Result<Request, ReqError>) {
    let resp = match req {
        Ok(req) => {
            if matches!(req, Request::Quit) {
                conn.close_after_flush = true;
            }
            execute(service, req)
        }
        // A complete request that does not decode is a request-level
        // fault: answer it, keep the connection.
        Err(e) => Response::from_error(&e),
    };
    conn.push_response(&resp);
}

fn parse_binary(conn: &mut Conn, service: &QuantileService) -> u64 {
    let mut handled = 0u64;
    while !conn.close_after_flush {
        match binary::try_deframe(&conn.read_buf, conn.parsed) {
            Ok(Some((payload, used))) => {
                conn.parsed += used;
                handled += 1;
                answer(conn, service, binary::decode_request(payload));
            }
            Ok(None) => {
                // Incomplete — but an over-large buffer with no frame in
                // it is not a slow client, it is garbage without a
                // parseable length. Same treatment as a CRC fault.
                if conn.read_buf.len() - conn.parsed > MAX_READ_BUFFER {
                    conn.fail(ReqError::CorruptBytes(format!(
                        "no complete frame in {MAX_READ_BUFFER} buffered bytes"
                    )));
                }
                break;
            }
            // Transport fault: answer with the typed corruption error,
            // then drop the connection once it flushes.
            Err(e) => conn.fail(e),
        }
    }
    handled
}

fn parse_text(conn: &mut Conn, service: &QuantileService) -> u64 {
    let mut handled = 0u64;
    let oversized =
        || ReqError::InvalidParameter(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
    while !conn.close_after_flush {
        let start = conn.parsed;
        let from = conn.scanned.max(start);
        let Some(at) = conn.read_buf[from..].iter().position(|&b| b == b'\n') else {
            conn.scanned = conn.read_buf.len();
            if (conn.read_buf.len() - start) as u64 >= MAX_LINE_BYTES {
                conn.fail(oversized());
            }
            break;
        };
        let end = from + at;
        conn.parsed = end + 1;
        conn.scanned = conn.parsed;
        if (end + 1 - start) as u64 > MAX_LINE_BYTES {
            conn.fail(oversized());
            break;
        }
        let req = match std::str::from_utf8(&conn.read_buf[start..end]) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => text::decode_request(line),
            Err(_) => Err(ReqError::InvalidParameter(
                "request line is not valid UTF-8".into(),
            )),
        };
        handled += 1;
        answer(conn, service, req);
    }
    handled
}

/// Write until `WouldBlock` or drained. Returns `false` on a dead socket.
/// Injected write faults model a peer that vanishes mid-response
/// (`Error`, `Torn` — the prefix goes out, then the connection dies) or
/// a congested uplink (`Stall`, `Delay`).
fn flush(conn: &mut Conn, faults: Option<&FaultPlane>) -> bool {
    let pending = conn.pending_write();
    let mut torn_budget: Option<usize> = None;
    if pending > 0 {
        match faults.map_or(Fault::None, |p| p.next_sized(FaultSite::SockWrite, pending)) {
            Fault::Error => return false,
            Fault::Torn { keep } => torn_budget = Some(keep),
            Fault::Stall => return true,
            Fault::Delay(ms) => std::thread::sleep(Duration::from_millis(u64::from(ms))),
            Fault::None => {}
        }
    }
    while conn.written < conn.write_buf.len() {
        let mut end = conn.write_buf.len();
        if let Some(budget) = torn_budget {
            end = end.min(conn.written + budget);
            if end == conn.written {
                return false; // prefix sent; the connection now dies
            }
        }
        match conn.stream.write(&conn.write_buf[conn.written..end]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.written += n;
                conn.last_progress = Instant::now();
                if let Some(budget) = &mut torn_budget {
                    *budget -= n;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.written == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.written = 0;
        conn.last_progress = Instant::now();
    } else if conn.written > 4096 && conn.written * 2 >= conn.write_buf.len() {
        conn.write_buf.drain(..conn.written);
        conn.written = 0;
    }
    true
}

/// Point the connection's interest at whatever it still needs; a
/// syscall only when that changed.
fn update_interest(poller: &Poller, conn: &mut Conn, telemetry: &LoopTelemetry) {
    let pending = conn.pending_write();
    let wants_write = pending > 0;
    telemetry.write_backlog_bytes.set_max(pending as u64);
    // Backpressure: a client pipelining faster than it reads responses
    // loses its read interest until the backlog drains. Count parks on
    // the transition only, so a long park is one event, not thousands.
    let parked = pending > MAX_WRITE_BACKLOG;
    if parked && !conn.parked {
        telemetry.backpressure_parks.inc();
        req_telemetry::global().event(
            "backpressure_park",
            format!("pending={pending} bytes > {MAX_WRITE_BACKLOG} cap"),
        );
    }
    conn.parked = parked;
    let interest = Event {
        key: conn.interest.key,
        readable: !conn.close_after_flush && !parked,
        writable: wants_write,
    };
    if interest != conn.interest {
        conn.interest = interest;
        let _ = poller.modify_with_mode(&conn.stream, interest, PollMode::Level);
    }
}
