//! Closed-loop sessions with one request in flight, shared by
//! `text_sequential` (the shipped `req-server`, text codec) and
//! `monitor_seq` (`serve_evented` in process, binary codec).
//!
//! A run is a sequence of identical sessions (same seed, same requests):
//! each starts a fresh server on a fresh directory, creates and preloads
//! the tenants, sends the timed requests one at a time, asks the probes,
//! then stops the server (`SIGKILL` for the child process, a clean close
//! in process) and reopens the directory in process. Counted metrics
//! repeat exactly, and every session is checked against the first.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use req_core::{merge_wire_parts, OrdF64, ReqError, ReqSketch};
use req_evented::{serve_evented, EventedHandle};
use req_service::{QuantileService, Request, Response};
use sketch_traits::QuantileSketch;

use crate::common::{
    collect_answers, dir_bytes, fresh_dir, open_service, probe_requests, reopen_and_check,
    tail_rel_err_mean, Ctx, ProbeAnswers, Report, Tenant,
};
use crate::host::Calibrator;
use crate::layers::{self, Codec, Log};
use crate::stats::{median, percentile, Windowed};
use crate::trace::Spans;
use crate::wire::{BinWire, TextWire};

/// Timed requests per `ADDB` and read latency window (a session holds
/// several).
pub const WINDOW_OPS: usize = 5_000;

/// What a closed-loop workload sends.
pub struct Traffic {
    /// Prefix of the session directories.
    pub name: &'static str,
    /// Every tenant with every value it receives (preload and timed).
    pub tenants: Vec<Tenant>,
    pub creates: Vec<Request>,
    pub preload: Vec<Request>,
    /// The timed requests.
    pub ops: Vec<Request>,
    /// Share of the timed reads whose tenant was written since its last read.
    pub read_after_write: f64,
}

/// Which server a session starts, and with which codec it is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `req-server --addr 127.0.0.1:0 --snapshot-interval-secs 0 --threads 2`
    /// as a child process, text codec.
    TextServer,
    /// `req_evented::serve_evented` with one loop, in process, binary codec.
    Evented,
}

/// A spawned `req-server`, killed and reaped on drop.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    fn spawn(ctx: &Ctx, dir: &Path) -> Result<ServerProcess, ReqError> {
        let mut child = Command::new(&ctx.server_bin)
            .arg("--data-dir")
            .arg(dir)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--snapshot-interval-secs",
                "0",
                "--threads",
                "2",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("req-server: listening on ")?
                .parse()
                .ok()
        });
        match addr {
            Some(addr) => Ok(ServerProcess { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(ReqError::Io(format!("req-server did not start: {line:?}")))
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

enum Server {
    Child(ServerProcess),
    InProcess(EventedHandle, Arc<QuantileService>),
}

enum Conn {
    Text(TextWire),
    Binary(BinWire),
}

impl Conn {
    fn call(&mut self, req: &Request, id: u64, spans: &mut Spans) -> Result<Response, ReqError> {
        match self {
            Conn::Text(w) => w.call(req, id, spans),
            Conn::Binary(w) => w.call(req, id, spans),
        }
    }
}

fn start(ctx: &Ctx, transport: Transport, dir: &Path) -> Result<(Server, Conn), ReqError> {
    Ok(match transport {
        Transport::TextServer => {
            let server = ServerProcess::spawn(ctx, dir)?;
            let conn = Conn::Text(TextWire::connect(server.addr)?);
            (Server::Child(server), conn)
        }
        Transport::Evented => {
            let svc = open_service(dir, 0)?;
            let handle = serve_evented(svc.clone(), "127.0.0.1:0", 1)?;
            let conn = Conn::Binary(BinWire::connect(handle.addr())?);
            (Server::InProcess(handle, svc), conn)
        }
    })
}

/// Stop the server so that nothing holds its directory any more: crash the
/// child process (`SIGKILL`) and wait until it is gone, or close the
/// in-process service.
fn stop(server: Server, conn: Conn) -> Result<(), ReqError> {
    drop(conn);
    match server {
        Server::Child(mut p) => {
            p.child.kill()?;
            p.child.wait()?;
        }
        Server::InProcess(handle, svc) => {
            handle.shutdown();
            drop(svc);
        }
    }
    Ok(())
}

#[derive(Debug, PartialEq)]
struct Fingerprint {
    retained: u64,
    disk_bytes: u64,
    answers: ProbeAnswers,
}

pub fn run(
    ctx: &Ctx,
    rep: &mut Report,
    spans: &mut Spans,
    traffic: &Traffic,
    transport: Transport,
) -> Result<(), ReqError> {
    let tenants = &traffic.tenants;
    let total_values: usize = tenants.iter().map(|t| t.values.len()).sum();
    let probes = probe_requests(tenants);
    let ops = &traffic.ops;
    let (mut setup_s, mut vps, mut rps, mut recover_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut addb_w, mut read_w, mut merge_w) = (
        Windowed::default(),
        Windowed::default(),
        Windowed::default(),
    );
    let (mut traced_p50, mut plain_p50) = (Vec::new(), Vec::new());
    let mut first: Option<Fingerprint> = None;
    let mut log: Option<(Log, layers::CoreTwin)> = None;
    let mut replayed = 0;
    let mut measured = 0.0;
    let mut session = 0usize;
    let mut off = Spans::new(false);
    // Probed before each set-up and after each window, never while timing.
    let mut host = Calibrator::new();
    // Traced runs alternate untraced and traced sessions. Every traced
    // session records its spans, so that it pays what tracing costs; only
    // session 1's, which line up with session 0's log, are kept.
    while measured < ctx.seconds || (ctx.trace && session < 2) {
        let traced = ctx.trace && session % 2 == 1;
        let mut session_spans = Spans::new(traced);
        let dir = fresh_dir(&ctx.work.join(format!("{}-{session}", traffic.name)))?;

        host.probe();
        let t_setup = Instant::now();
        let (server, mut conn) = start(ctx, transport, &dir)?;
        for r in traffic.creates.iter().chain(&traffic.preload) {
            let resp = conn.call(r, u64::MAX, &mut off)?;
            rep.check(r, &resp);
        }
        setup_s.push(t_setup.elapsed().as_secs_f64());

        let mut resps = Vec::with_capacity(ops.len());
        // MERGE is 1% of the requests: its windows are whole sessions.
        let (mut session_read, mut merge_us) = (Vec::new(), Vec::new());
        let mut wall = 0.0;
        for (w, window) in ops.chunks(WINDOW_OPS).enumerate() {
            let (mut addb_us, mut read_us) = (Vec::new(), Vec::new());
            let t0 = Instant::now();
            for (j, r) in window.iter().enumerate() {
                let id = (w * WINDOW_OPS + j) as u64;
                let t = Instant::now();
                let resp = conn.call(r, id, &mut session_spans)?;
                match (r, &resp) {
                    (Request::AddBatch { .. }, _) => {
                        addb_us.push(t.elapsed().as_nanos() as f64 / 1e3)
                    }
                    (Request::Merge { .. }, Response::Merged(parts)) => {
                        let merged: ReqSketch<OrdF64> = merge_wire_parts(parts)?;
                        std::hint::black_box(merged.len());
                        merge_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    }
                    (Request::Merge { .. }, _) => {}
                    _ => read_us.push(t.elapsed().as_nanos() as f64 / 1e3),
                }
                rep.check(r, &resp);
                resps.push(resp);
            }
            wall += t0.elapsed().as_secs_f64();
            host.probe();
            session_read.extend_from_slice(&read_us);
            addb_w.push(addb_us);
            read_w.push(read_us);
        }
        measured += wall;
        merge_w.push(merge_us);
        let values: usize = ops
            .iter()
            .map(|r| match r {
                Request::AddBatch { values, .. } => values.len(),
                _ => 0,
            })
            .sum();
        vps.push(values as f64 / wall);
        rps.push(ops.len() as f64 / wall);
        if traced {
            traced_p50.push(percentile(&session_read, 0.5));
        } else {
            plain_p50.push(percentile(&session_read, 0.5));
        }

        let mut probe_resps = Vec::new();
        for p in &probes {
            let mut rs = Vec::new();
            for r in p {
                let resp = conn.call(r, u64::MAX, &mut off)?;
                rep.check(r, &resp);
                rs.push(resp);
            }
            probe_resps.push(rs);
        }
        let answers = collect_answers(&probes, &probe_resps);
        let mut retained = 0;
        for t in tenants {
            let r = Request::Stats { key: t.key.clone() };
            let resp = conn.call(&r, u64::MAX, &mut off)?;
            rep.check(&r, &resp);
            if let Response::Stats(s) = resp {
                retained += s.retained;
            }
        }
        stop(server, conn)?;
        let disk = dir_bytes(&dir)?;
        let (open_s, n) = reopen_and_check(&dir, 0, &probes, &answers, 5, rep)?;
        recover_s.push(open_s);
        replayed = n;

        let print = Fingerprint {
            retained,
            disk_bytes: disk,
            answers,
        };
        match &first {
            None => {
                let (err, within) = tail_rel_err_mean(tenants, &print.answers);
                rep.gate(within, || {
                    "a tail probe's rank error exceeds its tenant's epsilon".into()
                });
                rep.metric("tail_rel_err_mean", err, "ratio");
                rep.metric("retained_items", retained as f64, "count");
                rep.metric(
                    "disk_bytes_per_value",
                    disk as f64 / total_values as f64,
                    "B",
                );
                let l = Log {
                    codec: match transport {
                        Transport::TextServer => Codec::Text,
                        Transport::Evented => Codec::Binary,
                    },
                    tenants: tenants.iter().map(|t| t.key.clone()).collect(),
                    preload: traffic.preload.clone(),
                    reqs: ops.clone(),
                    resps,
                    every_records: 0,
                };
                let twin = layers::checked_twin(&l, retained, rep)?;
                log = Some((l, twin));
                first = Some(print);
            }
            Some(f) => rep.gate(f == &print, || {
                format!("session {session} did not repeat session 0 exactly")
            }),
        }
        std::fs::remove_dir_all(&dir)?;
        if session == 1 {
            spans.absorb(session_spans);
        }
        session += 1;
    }

    // Round trips and the rates they make at reference host speed (see
    // `crate::host`); set-up and recovery as measured, since their
    // file-system and process work follows the calibration kernel less.
    let s = host.scale();
    eprintln!("perfbench: {}", host.summary());
    rep.metric("setup_s", median(&setup_s), "s");
    rep.metric("values_per_s", median(&vps) / s, "1/s");
    rep.metric("addb_p50_us", addb_w.percentile(0.5) * s, "us");
    rep.metric("addb_p90_us", addb_w.percentile(0.9) * s, "us");
    rep.metric("read_p50_us", read_w.percentile(0.5) * s, "us");
    rep.metric("read_p90_us", read_w.percentile(0.9) * s, "us");
    rep.metric("merge_p50_us", merge_w.percentile(0.5) * s, "us");
    rep.metric("requests_per_s", median(&rps) / s, "1/s");
    rep.metric("recover_s", median(&recover_s), "s");

    if ctx.trace {
        let (log, twin) = log.expect("session 0 always runs");
        rep.metric("snapshot.count", 0.0, "count");
        rep.metric("wal.records_replayed", replayed as f64, "count");
        rep.metric(
            "mix.read_after_write_frac",
            traffic.read_after_write,
            "ratio",
        );
        rep.metric(
            "trace.overhead_pct",
            100.0 * (median(&traced_p50) - median(&plain_p50)) / median(&plain_p50),
            "%",
        );
        layers::measure(&log, twin, &ctx.work.join("layers"), spans, rep)?;
    }
    Ok(())
}
