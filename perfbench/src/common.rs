//! Pieces every workload shares: the run context, the report, response
//! checks, tail-error probes against an exact oracle, recovery checks and
//! the same-run host-drift control.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use req_core::ReqError;
use req_service::service::accuracy_epsilon;
use req_service::{QuantileService, Request, Response, ServiceConfig, TenantConfig};
use sketch_traits::QuantileSketch;

use crate::stats::{mean, median, percentile};

/// Command-line context of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
    /// The `req-server` executable.
    pub server_bin: PathBuf,
}

/// What one run prints: request counts, correctness gates, metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: correctness gate failed: {msg}");
            self.gate_failures.push(msg);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count one request and check that its response is the typed
    /// variant its request expects.
    pub fn check(&mut self, req: &Request, resp: &Response) -> bool {
        self.attempted += 1;
        let ok = expected_variant(req, resp);
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.gate(false, || {
                    format!("unexpected response {resp:?} to {:?}", req.kind())
                });
            }
        }
        ok
    }
}

/// Is `resp` the success variant `req` must produce?
pub fn expected_variant(req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (Request::Create { .. }, Response::Created) => true,
        (Request::AddBatch { values, .. }, Response::AddedBatch(n)) => *n == values.len() as u64,
        (Request::Rank { .. }, Response::Rank(_)) => true,
        (Request::Quantile { .. }, Response::Quantile(Some(_))) => true,
        (Request::Cdf { points, .. }, Response::Cdf(ps)) => ps.len() == points.len(),
        (Request::Merge { .. }, Response::Merged(parts)) => !parts.is_empty(),
        (Request::Stats { .. }, Response::Stats(_)) => true,
        _ => false,
    }
}

pub fn service_config(dir: &Path, snapshot_every_records: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(dir);
    cfg.snapshot_every_records = snapshot_every_records;
    // The shipped default, stated here because the benchmark depends on it:
    // every WAL record reaches the OS, nothing is fsynced.
    cfg.fsync = false;
    cfg
}

pub fn open_service(
    dir: &Path,
    snapshot_every_records: u64,
) -> Result<Arc<QuantileService>, ReqError> {
    Ok(Arc::new(QuantileService::open(service_config(
        dir,
        snapshot_every_records,
    ))?))
}

/// Fresh, empty directory.
pub fn fresh_dir(path: &Path) -> std::io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(path.to_path_buf())
}

/// Bytes of the snapshot and WAL files in a data directory.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name() != "LOCK" {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// A tenant as the benchmark knows it: its key and every value sent to it,
/// in order — the exact oracle's input.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub key: String,
    pub values: Vec<u64>,
}

pub fn create_request(key: &str) -> Request {
    Request::Create {
        key: key.to_string(),
        config: TenantConfig::for_key(key),
        token: None,
    }
}

pub fn addb_request(key: &str, values: &[u64]) -> Request {
    Request::AddBatch {
        key: key.to_string(),
        values: values.iter().map(|&v| v as f64).collect(),
        token: None,
    }
}

/// Quantile probes asked of every tenant after a run.
pub const PROBE_QS: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Tail probe values of one tenant: items at ranks `n + 1 − g` for
/// geometric `g = 1, 1.02, 1.0404, …` (rounded up, deduplicated), i.e.
/// geometrically approaching the top. The dense grid makes the maximum
/// error over the probes a steady estimate of the worst tail error.
pub fn tail_probes(sorted: &[u64]) -> Vec<u64> {
    let n = sorted.len() as u64;
    streams::geometric_ranks(n, 1.02)
        .into_iter()
        .map(|g| sorted[(n - g) as usize])
        .collect()
}

/// Answers to the fixed probes, per tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeAnswers {
    pub ranks: Vec<Vec<u64>>,
    pub quantiles: Vec<Vec<Option<f64>>>,
}

/// The probe requests of every tenant, in asking order: its RANK probes,
/// then its QUANTILE probes.
pub fn probe_requests(tenants: &[Tenant]) -> Vec<Vec<Request>> {
    tenants
        .iter()
        .map(|t| {
            let mut sorted = t.values.clone();
            sorted.sort_unstable();
            let mut reqs: Vec<Request> = tail_probes(&sorted)
                .into_iter()
                .map(|v| Request::Rank {
                    key: t.key.clone(),
                    value: v as f64,
                })
                .collect();
            reqs.extend(PROBE_QS.iter().map(|&q| Request::Quantile {
                key: t.key.clone(),
                q,
            }));
            reqs
        })
        .collect()
}

/// Fold probe responses back into [`ProbeAnswers`].
pub fn collect_answers(reqs: &[Vec<Request>], resps: &[Vec<Response>]) -> ProbeAnswers {
    let mut ranks = Vec::new();
    let mut quantiles = Vec::new();
    for (rq, rs) in reqs.iter().zip(resps) {
        let mut r = Vec::new();
        let mut q = Vec::new();
        for (req, resp) in rq.iter().zip(rs) {
            match (req, resp) {
                (Request::Rank { .. }, Response::Rank(x)) => r.push(*x),
                (Request::Quantile { .. }, Response::Quantile(x)) => q.push(*x),
                _ => {}
            }
        }
        ranks.push(r);
        quantiles.push(q);
    }
    ProbeAnswers { ranks, quantiles }
}

/// Ask the probes of an in-process service directly.
pub fn service_answers(svc: &QuantileService, reqs: &[Vec<Request>]) -> ProbeAnswers {
    let resps: Vec<Vec<Response>> = reqs
        .iter()
        .map(|rq| {
            rq.iter()
                .map(|r| req_service::execute(svc, r.clone()))
                .collect()
        })
        .collect();
    collect_answers(reqs, &resps)
}

/// Each tenant's largest `|R̂ − R| / (n − R + 1)` over its tail probes,
/// averaged over tenants, and whether every probe of every tenant stays
/// within its tenant's ε envelope. The mean over tenants moves with the
/// sketch's accuracy but, unlike the maximum over all tenants, hardly with
/// the seed (±5% across seeds, against ±20% for the maximum).
pub fn tail_rel_err_mean(tenants: &[Tenant], answers: &ProbeAnswers) -> (f64, bool) {
    let mut per_tenant = Vec::with_capacity(tenants.len());
    let mut within = true;
    for (t, est) in tenants.iter().zip(&answers.ranks) {
        let oracle = streams::SortOracle::new(&t.values);
        let mut sorted = t.values.clone();
        sorted.sort_unstable();
        let eps = accuracy_epsilon(&TenantConfig::for_key(&t.key));
        let mut worst = 0.0f64;
        for (&y, &r_hat) in tail_probes(&sorted).iter().zip(est) {
            let r = oracle.rank(y);
            let err = (r_hat as f64 - r as f64).abs() / (oracle.n() - r + 1) as f64;
            worst = worst.max(err);
            within &= err <= eps;
        }
        per_tenant.push(worst);
    }
    (mean(&per_tenant), within)
}

/// Close-and-reopen check on a data directory no process holds any more:
/// reopen it `times` times, timing each `QuantileService::open`, and
/// require the first reopened service to answer the probes exactly as the
/// service answered them before it closed. Returns (open seconds, WAL
/// records replayed). Recovery is fixed work, so the open time is the lower
/// quartile of the reopens: the host can only slow it down.
pub fn reopen_and_check(
    dir: &Path,
    snapshot_every_records: u64,
    probes: &[Vec<Request>],
    before: &ProbeAnswers,
    times: usize,
    rep: &mut Report,
) -> Result<(f64, u64), ReqError> {
    let mut secs = Vec::new();
    let mut replayed = 0;
    for i in 0..times {
        let t = Instant::now();
        let svc = QuantileService::open(service_config(dir, snapshot_every_records))?;
        secs.push(t.elapsed().as_secs_f64());
        if i == 0 {
            replayed = svc.recovery_report().records_replayed;
            let after = service_answers(&svc, probes);
            rep.gate(&after == before, || {
                "RANK/QUANTILE answers differ between the closed service and its reopened twin"
                    .into()
            });
        }
    }
    Ok((percentile(&secs, 0.25), replayed))
}

/// Same-run host-drift control: KLL ingest of a fixed stream, ns/value.
/// The stream does not depend on the run's seed.
pub fn kll_control() -> f64 {
    let items = streams::Distribution::Uniform { range: 1 << 40 }.generate(1 << 20, 0x5EED);
    let mut samples = Vec::new();
    for rep in 0..5 {
        let mut kll = baselines::kll::KllSketch::<u64>::new(200, rep);
        let t = Instant::now();
        kll.update_batch(std::hint::black_box(&items));
        samples.push(t.elapsed().as_nanos() as f64 / items.len() as f64);
        std::hint::black_box(kll.len());
    }
    median(&samples)
}
