//! Per-layer measurements. Each layer is timed from outside, by replaying
//! the workload's own request sequence through that layer's public
//! functions: a twin sketch per tenant for the core kernels, twin services
//! for `execute` and `add_batch`, a scratch WAL writer, and the two codecs.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use req_core::{merge_wire_parts, ConcurrentReqSketch, OrdF64, ReqError, ReqSketch};
use req_service::protocol::{binary, text};
use req_service::wal::{encode_add_batch, WalWriter};
use req_service::{execute, QuantileService, Request, RequestKind, Response, TenantConfig};
use sketch_traits::{QuantileSketch, SpaceUsage};

use crate::common::{fresh_dir, service_config, Report};
use crate::stats::{mean, median};
use crate::trace::{now_ns, Spans};

/// Which codec the workload's client speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    Binary,
    Text,
}

/// Everything a workload sent, in order, with what came back.
#[derive(Debug)]
pub struct Log {
    pub codec: Codec,
    /// Tenants created (default configuration), in creation order.
    pub tenants: Vec<String>,
    /// `ADDB`s sent during set-up, before the first timed request.
    pub preload: Vec<Request>,
    /// Timed and verification requests; index = request id in the trace.
    pub reqs: Vec<Request>,
    pub resps: Vec<Response>,
    /// The service's `snapshot_every_records`.
    pub every_records: u64,
}

fn ordf(values: &[f64]) -> Vec<OrdF64> {
    values.iter().map(|&v| OrdF64(v)).collect()
}

fn verb(kind: RequestKind) -> Option<&'static str> {
    Some(match kind {
        RequestKind::AddBatch => "addb",
        RequestKind::Rank => "rank",
        RequestKind::Quantile => "quantile",
        RequestKind::Cdf => "cdf",
        RequestKind::Merge => "merge",
        _ => return None,
    })
}

/// One sketch per tenant, built by `TenantConfig::build` and fed the same
/// batches in the same order as the service. The service checkpoints every
/// tenant when a snapshot rotates (every `every_records` WAL records); the
/// twin does the same at the same record indices, so its coin flips match.
pub struct CoreTwin {
    pub sketches: Vec<ConcurrentReqSketch<OrdF64>>,
    /// `update_batch` time per value over the timed `ADDB`s.
    pub update_ns_per_value: f64,
}

pub fn core_twin(log: &Log) -> Result<CoreTwin, ReqError> {
    let index: HashMap<&str, usize> = log
        .tenants
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), i))
        .collect();
    let sketches = log
        .tenants
        .iter()
        .map(|k| TenantConfig::for_key(k).build())
        .collect::<Result<Vec<_>, _>>()?;
    let mut records = 0u64;
    let mut tick = |sketches: &[ConcurrentReqSketch<OrdF64>]| -> Result<(), ReqError> {
        records += 1;
        if log.every_records > 0 && records >= log.every_records {
            records = 0;
            for s in sketches {
                s.checkpoint()?;
            }
        }
        Ok(())
    };
    for _ in &log.tenants {
        tick(&sketches)?;
    }
    let (mut ns, mut values) = (0u128, 0u64);
    for (timed, req) in log
        .preload
        .iter()
        .map(|r| (false, r))
        .chain(log.reqs.iter().map(|r| (true, r)))
    {
        if let Request::AddBatch {
            key, values: vs, ..
        } = req
        {
            let batch = ordf(vs);
            let sketch = &sketches[index[key.as_str()]];
            let t = Instant::now();
            sketch.update_batch(std::hint::black_box(&batch));
            if timed {
                ns += t.elapsed().as_nanos();
                values += batch.len() as u64;
            }
            tick(&sketches)?;
        }
    }
    Ok(CoreTwin {
        sketches,
        update_ns_per_value: ns as f64 / values.max(1) as f64,
    })
}

/// Build the twin of `log` and gate on its retained items (summed over the
/// tenants' merged snapshots, the paper's space measure) equalling the
/// service's `retained`.
pub fn checked_twin(log: &Log, retained: u64, rep: &mut Report) -> Result<CoreTwin, ReqError> {
    let twin = core_twin(log)?;
    let mut twin_retained = 0;
    for s in &twin.sketches {
        twin_retained += s.cached_snapshot()?.retained() as u64;
    }
    rep.gate(twin_retained == retained, || {
        format!("retained_items {retained} differs from the twin sketches' {twin_retained}")
    });
    Ok(twin)
}

/// Measure every per-layer metric on `log` and add it to `rep`. The
/// twin is consumed: its sketches take extra writes for the rebuild probe.
pub fn measure(
    log: &Log,
    twin: CoreTwin,
    scratch: &Path,
    spans: &mut Spans,
    rep: &mut Report,
) -> Result<(), ReqError> {
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));

    // --- core: update kernels, compaction counts, snapshot rebuild, view.
    let core_ns = twin.update_ns_per_value;
    put("core.update_ns_per_value", core_ns, "ns");
    let (mut compactions, mut moved) = (0u64, 0u64);
    for s in &twin.sketches {
        let stats = s.cached_snapshot()?.stats();
        compactions += stats.total_compactions();
        moved += stats.items_merge_moved;
    }
    put("core.compactions", compactions as f64, "count");
    put("core.merge_moved_items", moved as f64, "count");
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let probe = OrdF64(60_000.0);
    for s in &twin.sketches {
        for rep_i in 0..6 {
            let write: Vec<OrdF64> = (0..16)
                .map(|j| OrdF64(1_000.0 * f64::from(rep_i * 16 + j)))
                .collect();
            s.update_batch(&write);
            let t = Instant::now();
            std::hint::black_box(s.cached_snapshot()?.rank(&probe));
            cold.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            std::hint::black_box(s.cached_snapshot()?.rank(&probe));
            warm.push(t.elapsed().as_nanos() as f64);
        }
    }
    let view_rank_ns = median(&warm);
    put(
        "core.rebuild_us",
        (median(&cold) - view_rank_ns) / 1e3,
        "us",
    );
    put("core.view_rank_ns", view_rank_ns, "ns");
    drop(twin);

    // --- protocol: both codecs over the workload's own requests/responses.
    let server_codec_ns = codecs(log, spans, &mut put)?;

    // --- wal: append of the same ADDB records in a scratch file.
    let wal_dir = fresh_dir(&scratch.join("wal"))?;
    let mut wal = WalWriter::create(&wal_dir.join("wal-0.log"))?;
    let (mut wal_ns, mut values) = (0u128, 0u64);
    for req in &log.reqs {
        if let Request::AddBatch {
            key,
            values: vs,
            token,
        } = req
        {
            let batch = ordf(vs);
            let t = Instant::now();
            let frame = encode_add_batch(key, &batch, token);
            wal.append(&frame)?;
            wal_ns += t.elapsed().as_nanos();
            values += vs.len() as u64;
        }
    }
    let wal_bytes = std::fs::metadata(wal_dir.join("wal-0.log"))?.len();
    let wal_ns_per_value = wal_ns as f64 / values.max(1) as f64;
    put("wal.append_ns_per_value", wal_ns_per_value, "ns");
    put(
        "wal.bytes_per_value",
        wal_bytes as f64 / values.max(1) as f64,
        "B",
    );
    drop(wal);

    // --- service: add_batch on a twin service, self time = service − core − wal.
    let svc = twin_service(log, &fresh_dir(&scratch.join("twin-add"))?)?;
    let mut add_ns = 0u128;
    for req in &log.reqs {
        if let Request::AddBatch {
            key,
            values: vs,
            token,
        } = req
        {
            let batch = ordf(vs);
            let t = Instant::now();
            svc.add_batch_with_token(key, &batch, *token)?;
            add_ns += t.elapsed().as_nanos();
        }
    }
    drop(svc);
    let add_ns_per_value = add_ns as f64 / values.max(1) as f64;
    put("service.add_batch_ns_per_value", add_ns_per_value, "ns");
    put(
        "service.self_ns_per_value",
        add_ns_per_value - core_ns - wal_ns_per_value,
        "ns",
    );

    // --- server funnel: execute on a twin service replaying the sequence.
    let svc = twin_service(log, &fresh_dir(&scratch.join("twin-exec"))?)?;
    let mut per_verb: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut parts_us, mut merge_us) = (Vec::new(), Vec::new());
    let mut execute_ns = vec![f64::NAN; log.reqs.len()];
    for (i, req) in log.reqs.iter().enumerate() {
        let owned = req.clone();
        let t0 = now_ns();
        let resp = execute(&svc, owned);
        let t1 = now_ns();
        std::hint::black_box(&resp);
        spans.record(i as u64, 0, "twin.execute", t0, t1);
        execute_ns[i] = (t1 - t0) as f64;
        if let Some(v) = verb(req.kind()) {
            per_verb.entry(v).or_default().push((t1 - t0) as f64 / 1e3);
        }
        if let Request::Merge { key } = req {
            let t = Instant::now();
            let parts = svc.sketch_parts(key)?;
            parts_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            let merged: ReqSketch<OrdF64> = merge_wire_parts(&parts)?;
            merge_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(merged.len());
        }
    }
    for v in ["addb", "rank", "quantile", "cdf", "merge"] {
        let samples = per_verb.get(v).cloned().unwrap_or_default();
        put(&format!("service.execute_us.{v}"), median(&samples), "us");
    }
    put("service.sketch_parts_us", median(&parts_us), "us");
    put("core.merge_wire_parts_us", median(&merge_us), "us");
    let mut snap_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        svc.rotate_generation()?;
        snap_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    put("snapshot.write_ms", median(&snap_ms), "ms");
    drop(svc);

    // --- waterfall: client codec + server codec + execute vs round trip.
    waterfall(log, spans, &server_codec_ns, &execute_ns, &mut put);
    rep.metrics.extend(out);
    Ok(())
}

/// A service in `dir` with the log's tenants created and preloaded.
fn twin_service(log: &Log, dir: &Path) -> Result<QuantileService, ReqError> {
    let svc = QuantileService::open(service_config(dir, log.every_records))?;
    for key in &log.tenants {
        svc.create(key, TenantConfig::for_key(key))?;
    }
    for req in &log.preload {
        if let Request::AddBatch { key, values, token } = req {
            svc.add_batch_with_token(key, &ordf(values), *token)?;
        }
    }
    Ok(svc)
}

/// Time both codecs on every request and its response. Returns the
/// server-side codec time (decode request + encode response) per request
/// for the workload's own codec.
fn codecs(
    log: &Log,
    spans: &mut Spans,
    put: &mut impl FnMut(&str, f64, &'static str),
) -> Result<Vec<f64>, ReqError> {
    let (mut enc_ns, mut dec_ns, mut values) = (0u128, 0u128, 0u64);
    let (mut text_enc, mut text_dec) = (Vec::new(), Vec::new());
    let mut codec_ns = Vec::with_capacity(log.reqs.len());
    for (i, (req, resp)) in log.reqs.iter().zip(&log.resps).enumerate() {
        // Binary: client encode, server deframe + decode, server encode.
        let t0 = now_ns();
        let frame = binary::encode_request(req);
        let t1 = now_ns();
        let (payload, _) = binary::try_deframe(&frame, 0)?
            .ok_or_else(|| ReqError::CorruptBytes("encoded frame did not deframe".into()))?;
        let decoded = binary::decode_request(payload)?;
        let t2 = now_ns();
        let resp_frame = binary::encode_response(resp);
        let t3 = now_ns();
        std::hint::black_box((&decoded, &resp_frame));
        if let Request::AddBatch { values: vs, .. } = req {
            enc_ns += u128::from(t1 - t0);
            dec_ns += u128::from(t2 - t1);
            values += vs.len() as u64;
        }
        // Text: server decode request + encode response, client encode
        // request + decode response.
        let t4 = now_ns();
        let line = text::encode_request(req);
        let t5 = now_ns();
        let parsed = text::decode_request(&line)?;
        let t6 = now_ns();
        let resp_line = text::encode_response(resp);
        let t7 = now_ns();
        let back = text::decode_response(&resp_line, req.kind())?;
        let t8 = now_ns();
        std::hint::black_box((&parsed, &back));
        text_enc.push(((t5 - t4) + (t7 - t6)) as f64 / 1e3);
        text_dec.push(((t6 - t5) + (t8 - t7)) as f64 / 1e3);
        let (name, start, end, ns) = match log.codec {
            Codec::Binary => ("twin.server_codec", t1, t3, (t2 - t1) + (t3 - t2)),
            Codec::Text => ("twin.server_codec", t5, t7, (t6 - t5) + (t7 - t6)),
        };
        spans.record(i as u64, 0, name, start, end);
        codec_ns.push(ns as f64);
    }
    put(
        "protocol.binary.encode_ns_per_value",
        enc_ns as f64 / values.max(1) as f64,
        "ns",
    );
    put(
        "protocol.binary.decode_ns_per_value",
        dec_ns as f64 / values.max(1) as f64,
        "ns",
    );
    put("protocol.text.encode_us", mean(&text_enc), "us");
    put("protocol.text.decode_us", mean(&text_dec), "us");
    Ok(codec_ns)
}

/// Sum of layer times against the measured round trip, over every request
/// that has a traced `roundtrip` span, plus the transport residual of the
/// read requests (round trip − client codec − execute, by medians).
fn waterfall(
    log: &Log,
    spans: &Spans,
    codec_ns: &[f64],
    execute_ns: &[f64],
    put: &mut impl FnMut(&str, f64, &'static str),
) {
    let per_req = spans.per_request(&["roundtrip", "client.encode", "client.decode"]);
    let (mut rtt, mut layers, mut n) = (0.0, 0.0, 0u64);
    let (mut read_rtt, mut read_client, mut read_exec) = (Vec::new(), Vec::new(), Vec::new());
    for (&id, t) in &per_req {
        let i = id as usize;
        if t[0] == 0.0 || i >= log.reqs.len() {
            continue;
        }
        let client = t[1] + t[2];
        rtt += t[0];
        layers += client + codec_ns[i] + execute_ns[i];
        n += 1;
        if matches!(
            log.reqs[i].kind(),
            RequestKind::Rank | RequestKind::Quantile | RequestKind::Cdf
        ) {
            read_rtt.push(t[0]);
            read_client.push(client);
            read_exec.push(execute_ns[i]);
        }
    }
    let n = n.max(1) as f64;
    put("trace.roundtrip_us", rtt / n / 1e3, "us");
    put("trace.layer_sum_us", layers / n / 1e3, "us");
    put("trace.residual_us", (rtt - layers) / n / 1e3, "us");
    put(
        "trace.residual_pct",
        100.0 * (rtt - layers) / rtt.max(1.0),
        "%",
    );
    let transport = (median(&read_rtt) - median(&read_client) - median(&read_exec)) / 1e3;
    let (evented, threaded) = match log.codec {
        Codec::Binary => (transport, 0.0),
        Codec::Text => (0.0, transport),
    };
    put("evented.transport_us", evented, "us");
    put("server.transport_us", threaded, "us");
}
