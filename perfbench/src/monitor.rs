//! `monitor_seq`: dashboards reading beside writers. A closed loop with one
//! request in flight over one binary connection to `serve_evented`: small
//! `ADDB`s mixed with `RANK`/`QUANTILE`/`CDF` reads and ~1% `MERGE`, over
//! Zipf-chosen tenants preloaded with real state (see [`crate::closed`]).
//!
//! The traffic shape below is an assumption, not a measured trace: no
//! source fixes a dashboard read/write split or a tenant skew. The values
//! are chosen to produce one property, a share of reads landing on a
//! tenant written since its last read (`mix.read_after_write_frac`, about
//! 0.3), so that the snapshot rebuild runs on a fair share of reads and
//! the cache serves the rest.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use req_core::ReqError;
use req_service::Request;
use streams::generators::ZipfTable;

use crate::closed::{self, Traffic, Transport};
use crate::common::{addb_request, create_request, Ctx, Report, Tenant};
use crate::trace::Spans;
use crate::wire::Stamper;

/// Tenants; with [`ZIPF_S`] the hottest takes about a third of requests.
pub const TENANTS: usize = 16;
pub const PRELOAD: usize = 65_536;
pub const PRELOAD_BATCH: usize = 1024;
/// Values per timed `ADDB`: small, so the update kernel does little.
pub const WRITE_BATCH: usize = 16;
/// Zipf exponent of the tenant choice (assumed).
pub const ZIPF_S: f64 = 1.1;
/// Operation mix in percent: ADDB, RANK, QUANTILE, CDF, MERGE (assumed).
pub const MIX: [u32; 5] = [30, 30, 25, 14, 1];
/// Timed requests per session.
pub const SEQUENTIAL_OPS: usize = 20_000;
pub const CDF_POINTS: [f64; 5] = [20_000.0, 55_000.0, 100_000.0, 1e6, 1e7];
const CLIENT_ID: u64 = 0x4D0417;

/// `n` requests of the fixed mix over Zipf-chosen tenants, appending each
/// write's values to its tenant. Returns the requests and the share of
/// reads whose tenant was written since its last read. Depends only on
/// the seed.
fn mix_requests(
    seed: u64,
    n: usize,
    tenants: &mut [Tenant],
    stamper: &mut Stamper,
) -> (Vec<Request>, f64) {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let zipf = ZipfTable::new(TENANTS as u64, ZIPF_S);
    let pool = streams::Distribution::WebLatency.generate(1 << 16, seed ^ 0xA11CE);
    let mut written = [false; TENANTS];
    let (mut reads, mut stale_reads) = (0u64, 0u64);
    let total: u32 = MIX.iter().sum();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = zipf.sample(&mut rng) as usize - 1;
        let key = tenants[t].key.clone();
        let mut pick = rng.gen_range(0..total);
        let mut op = 0;
        while pick >= MIX[op] {
            pick -= MIX[op];
            op += 1;
        }
        let mut req = match op {
            0 => {
                let vals: Vec<u64> = (0..WRITE_BATCH)
                    .map(|j| pool[(i * WRITE_BATCH + j) % pool.len()])
                    .collect();
                tenants[t].values.extend_from_slice(&vals);
                written[t] = true;
                addb_request(&key, &vals)
            }
            1 => Request::Rank {
                key,
                value: pool[rng.gen_range(0..pool.len())] as f64,
            },
            2 => Request::Quantile {
                key,
                q: [0.5, 0.9, 0.99, 0.999][rng.gen_range(0..4usize)],
            },
            3 => Request::Cdf {
                key,
                points: CDF_POINTS.to_vec(),
            },
            _ => Request::Merge { key },
        };
        if (1..=3).contains(&op) {
            reads += 1;
            if std::mem::replace(&mut written[t], false) {
                stale_reads += 1;
            }
        }
        stamper.stamp(&mut req);
        out.push(req);
    }
    (out, stale_reads as f64 / reads.max(1) as f64)
}

/// Preloaded tenants with their create and preload requests, stamped first.
fn preloaded(seed: u64, stamper: &mut Stamper) -> (Vec<Tenant>, Vec<Request>, Vec<Request>) {
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| Tenant {
            key: format!("mon-{t:02}"),
            values: streams::Distribution::WebLatency
                .generate(PRELOAD, seed ^ (t as u64 + 1) << 24),
        })
        .collect();
    let creates = tenants
        .iter()
        .map(|t| {
            let mut r = create_request(&t.key);
            stamper.stamp(&mut r);
            r
        })
        .collect();
    let mut preload = Vec::new();
    for t in &tenants {
        for chunk in t.values.chunks(PRELOAD_BATCH) {
            let mut r = addb_request(&t.key, chunk);
            stamper.stamp(&mut r);
            preload.push(r);
        }
    }
    (tenants, creates, preload)
}

pub fn run(ctx: &Ctx, rep: &mut Report, spans: &mut Spans) -> Result<(), ReqError> {
    let mut stamper = Stamper::new(CLIENT_ID);
    let (mut tenants, creates, preload) = preloaded(ctx.seed, &mut stamper);
    let (ops, read_after_write) =
        mix_requests(ctx.seed, SEQUENTIAL_OPS, &mut tenants, &mut stamper);
    let traffic = Traffic {
        name: "monitor-seq",
        tenants,
        creates,
        preload,
        ops,
        read_after_write,
    };
    closed::run(ctx, rep, spans, &traffic, Transport::Evented)
}
