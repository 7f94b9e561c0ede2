//! `ingest`: the bulk-shipper path. One binary connection keeps a fixed
//! window of pipelined 1024-value `ADDB` frames in flight, spread
//! round-robin over enough default tenants that sketch state outgrows L2.
//! A record-count snapshot trigger rotates several snapshots per round.
//! After each round the service is closed and reopened on its directory.
//!
//! A run is a sequence of identical rounds (same seed, same requests), so
//! the counted metrics repeat exactly and every round is checked against
//! the first.

use std::time::Instant;

use req_core::ReqError;
use req_evented::serve_evented;
use req_service::{Request, Response};

use crate::closed::WINDOW_OPS;
use crate::common::{
    addb_request, collect_answers, create_request, dir_bytes, fresh_dir, open_service,
    probe_requests, reopen_and_check, tail_rel_err_mean, Ctx, ProbeAnswers, Report, Tenant,
};
use crate::host::Calibrator;
use crate::layers::{self, Codec, Log};
use crate::stats::{median, Windowed};
use crate::trace::Spans;
use crate::wire::{BinWire, Stamper};

pub const TENANTS: usize = 32;
pub const BATCH: usize = 1024;
pub const BATCHES_PER_TENANT: usize = 192;
pub const WINDOW: usize = 8;
/// Eight snapshot rotations per round: enough `ADDB`s wait behind a
/// rotation that the snapshot write shows in `values_per_s`.
pub const SNAPSHOT_EVERY: u64 = (TENANTS * BATCHES_PER_TENANT / 8) as u64;
const CLIENT_ID: u64 = 0x1A6E57;

/// What one round produced that later rounds must repeat exactly.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    retained: u64,
    disk_bytes: u64,
    answers: ProbeAnswers,
}

pub fn run(ctx: &Ctx, rep: &mut Report, spans: &mut Spans) -> Result<(), ReqError> {
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| Tenant {
            key: format!("ingest-{t:02}"),
            values: streams::Distribution::WebLatency
                .generate(BATCH * BATCHES_PER_TENANT, ctx.seed ^ (t as u64 + 1) << 20),
        })
        .collect();
    let mut stamper = Stamper::new(CLIENT_ID);
    let creates: Vec<Request> = tenants
        .iter()
        .map(|t| {
            let mut r = create_request(&t.key);
            stamper.stamp(&mut r);
            r
        })
        .collect();
    let mut adds = Vec::with_capacity(TENANTS * BATCHES_PER_TENANT);
    for b in 0..BATCHES_PER_TENANT {
        for t in &tenants {
            let mut r = addb_request(&t.key, &t.values[b * BATCH..(b + 1) * BATCH]);
            stamper.stamp(&mut r);
            adds.push(r);
        }
    }
    let total_values = (TENANTS * BATCHES_PER_TENANT * BATCH) as f64;
    let probes = probe_requests(&tenants);
    // Verification traffic after the timed phase: each tenant's probes,
    // one CDF, one MERGE and one STATS.
    let mut verify: Vec<Request> = Vec::new();
    for (t, p) in tenants.iter().zip(&probes) {
        verify.extend(p.iter().cloned());
        verify.push(Request::Cdf {
            key: t.key.clone(),
            points: vec![20_000.0, 55_000.0, 100_000.0, 1e6, 1e7],
        });
        verify.push(Request::Merge { key: t.key.clone() });
        verify.push(Request::Stats { key: t.key.clone() });
    }

    let (mut setup_s, mut vps, mut rps, mut recover_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut addb_w, mut read_w, mut merge_w) = (
        Windowed::default(),
        Windowed::default(),
        Windowed::default(),
    );
    let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());
    let mut first: Option<Fingerprint> = None;
    let mut log: Option<(Log, layers::CoreTwin)> = None;
    let (mut snapshots, mut replayed) = (0u64, 0u64);
    let mut measured = 0.0;
    let mut round = 0usize;
    // Probed before each set-up and after each timed phase, never while
    // timing.
    let mut host = Calibrator::new();
    while measured < ctx.seconds || (ctx.trace && round < 2) {
        // Traced runs alternate untraced and traced rounds. Every traced
        // round records its spans, so that it pays what tracing costs; only
        // round 1's, which line up with round 0's log, are kept.
        let traced = ctx.trace && round % 2 == 1;
        let mut round_spans = Spans::new(traced);
        let dir = fresh_dir(&ctx.work.join(format!("ingest-{round}")))?;

        host.probe();
        let t_setup = Instant::now();
        let svc = open_service(&dir, SNAPSHOT_EVERY)?;
        let server = serve_evented(svc.clone(), "127.0.0.1:0", 1)?;
        let mut wire = BinWire::connect(server.addr())?;
        let mut resps = Vec::new();
        for r in &creates {
            let resp = wire.call(r, u64::MAX, &mut Spans::new(false))?;
            rep.check(r, &resp);
        }
        setup_s.push(t_setup.elapsed().as_secs_f64());

        let (mut addb_us, mut read_us, mut merge_us) = (Vec::new(), Vec::new(), Vec::new());
        let t0 = Instant::now();
        wire.pipelined(&adds, WINDOW, &mut round_spans, |i, resp, sent, done| {
            rep.check(&adds[i], &resp);
            addb_us.push((done - sent) as f64 / 1e3);
            resps.push(resp);
        })?;
        let wall = t0.elapsed().as_secs_f64();
        host.probe();
        measured += wall;
        vps.push(total_values / wall);
        eprintln!(
            "perfbench: ingest round {round}: {:.0} values/s, set-up {:.6} s",
            total_values / wall,
            setup_s[round]
        );
        rps.push(adds.len() as f64 / wall);
        if traced {
            traced_wall.push(wall);
        } else {
            plain_wall.push(wall);
        }

        let mut verify_resps = Vec::with_capacity(verify.len());
        for (j, r) in verify.iter().enumerate() {
            let t = Instant::now();
            let resp = wire.call(r, (adds.len() + j) as u64, &mut round_spans)?;
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            match r {
                Request::Merge { .. } => {
                    if let Response::Merged(parts) = &resp {
                        req_core::merge_wire_parts::<req_core::OrdF64, _>(parts)?;
                    }
                    merge_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
                Request::Stats { .. } => {}
                _ => read_us.push(us),
            }
            rep.check(r, &resp);
            verify_resps.push(resp);
        }
        host.probe();
        addb_w.push(addb_us);
        // About 15 000 reads a round: split them into windows of about
        // `WINDOW_OPS`, as the closed loops do, so that a host stall costs
        // one window rather than the round.
        let windows = (read_us.len() / WINDOW_OPS).max(1);
        for w in read_us.chunks(read_us.len().div_ceil(windows)) {
            read_w.push(w.to_vec());
        }
        merge_w.push(merge_us);
        let retained: u64 = verify_resps
            .iter()
            .map(|r| match r {
                Response::Stats(s) => s.retained,
                _ => 0,
            })
            .sum();
        let mut per_tenant = Vec::new();
        let mut it = verify_resps.iter();
        for p in &probes {
            per_tenant.push(it.by_ref().take(p.len()).cloned().collect::<Vec<_>>());
            it.by_ref().take(3).for_each(drop);
        }
        let answers = collect_answers(&probes, &per_tenant);
        snapshots = svc.snapshots_written();

        drop(wire);
        server.shutdown();
        drop(svc);
        let disk = dir_bytes(&dir)?;
        let (open_s, n_replayed) =
            reopen_and_check(&dir, SNAPSHOT_EVERY, &probes, &answers, 5, rep)?;
        recover_s.push(open_s);
        replayed = n_replayed;

        let print = Fingerprint {
            retained,
            disk_bytes: disk,
            answers,
        };
        match &first {
            None => {
                let (err, within) = tail_rel_err_mean(&tenants, &print.answers);
                rep.gate(within, || {
                    "a tail probe's rank error exceeds its tenant's epsilon".into()
                });
                rep.metric("tail_rel_err_mean", err, "ratio");
                rep.metric("retained_items", retained as f64, "count");
                rep.metric("disk_bytes_per_value", disk as f64 / total_values, "B");
                let mut requests = adds.clone();
                requests.extend(verify.iter().cloned());
                resps.extend(verify_resps);
                let l = Log {
                    codec: Codec::Binary,
                    tenants: tenants.iter().map(|t| t.key.clone()).collect(),
                    preload: Vec::new(),
                    reqs: requests,
                    resps,
                    every_records: SNAPSHOT_EVERY,
                };
                let twin = layers::checked_twin(&l, retained, rep)?;
                log = Some((l, twin));
                first = Some(print);
            }
            Some(f) => rep.gate(f == &print, || {
                format!("round {round} did not repeat round 0 exactly")
            }),
        }
        std::fs::remove_dir_all(&dir)?;
        if round == 1 {
            spans.absorb(round_spans);
        }
        round += 1;
    }

    // The sequential verification round trips at reference host speed (see
    // `crate::host`); the pipelined bulk phase, set-up and recovery as
    // measured, since they follow the calibration kernel less.
    let s = host.scale();
    eprintln!("perfbench: {}", host.summary());
    rep.metric("setup_s", median(&setup_s), "s");
    rep.metric("values_per_s", median(&vps), "1/s");
    rep.metric("addb_p50_us", addb_w.percentile(0.5), "us");
    rep.metric("addb_p90_us", addb_w.percentile(0.9), "us");
    rep.metric("read_p50_us", read_w.percentile(0.5) * s, "us");
    rep.metric("read_p90_us", read_w.percentile(0.9) * s, "us");
    rep.metric("merge_p50_us", merge_w.percentile(0.5) * s, "us");
    rep.metric("requests_per_s", median(&rps), "1/s");
    rep.metric("recover_s", median(&recover_s), "s");

    if ctx.trace {
        let (log, twin) = log.expect("round 0 always runs");
        rep.metric("snapshot.count", snapshots as f64, "count");
        rep.metric("wal.records_replayed", replayed as f64, "count");
        // Reads after the bulk load: the first read of each tenant follows
        // its writes, the rest hit the cache.
        let reads = log
            .reqs
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Request::Rank { .. } | Request::Quantile { .. } | Request::Cdf { .. }
                )
            })
            .count();
        rep.metric(
            "mix.read_after_write_frac",
            TENANTS as f64 / reads as f64,
            "ratio",
        );
        rep.metric(
            "trace.overhead_pct",
            100.0 * (median(&traced_wall) - median(&plain_wall)) / median(&plain_wall),
            "%",
        );
        layers::measure(&log, twin, &ctx.work.join("layers"), spans, rep)?;
    }
    Ok(())
}
