//! `text_sequential`: the shipped `req-server` binary, spawned as a child
//! process, driven over the text codec in a closed loop with one request
//! in flight (see [`crate::closed`]). Reads and 16-value writes go to
//! disjoint tenants, so reads hit the snapshot cache.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use req_core::ReqError;
use req_service::Request;

use crate::closed::{self, Traffic, Transport};
use crate::common::{addb_request, create_request, Ctx, Report, Tenant};
// The same assumed operation mix as `monitor_seq`.
use crate::monitor::MIX;
use crate::trace::Spans;
use crate::wire::Stamper;

pub const READ_TENANTS: usize = 8;
pub const WRITE_TENANTS: usize = 8;
pub const PRELOAD: usize = 65_536;
pub const PRELOAD_BATCH: usize = 1024;
pub const WRITE_BATCH: usize = 16;
/// Timed requests per session.
pub const OPS: usize = 20_000;
const CLIENT_ID: u64 = 0x7E47;

pub fn run(ctx: &Ctx, rep: &mut Report, spans: &mut Spans) -> Result<(), ReqError> {
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x07E5_75E9);
    let mut stamper = Stamper::new(CLIENT_ID);
    let mut tenants: Vec<Tenant> = (0..READ_TENANTS + WRITE_TENANTS)
        .map(|t| Tenant {
            key: format!("text-{}-{t:02}", if t < READ_TENANTS { "r" } else { "w" }),
            values: if t < READ_TENANTS {
                streams::Distribution::WebLatency.generate(PRELOAD, ctx.seed ^ (t as u64 + 1) << 28)
            } else {
                Vec::new()
            },
        })
        .collect();
    let creates: Vec<Request> = tenants
        .iter()
        .map(|t| {
            let mut r = create_request(&t.key);
            stamper.stamp(&mut r);
            r
        })
        .collect();
    let mut preload = Vec::new();
    for t in &tenants[..READ_TENANTS] {
        for chunk in t.values.chunks(PRELOAD_BATCH) {
            let mut r = addb_request(&t.key, chunk);
            stamper.stamp(&mut r);
            preload.push(r);
        }
    }
    let pool = streams::Distribution::WebLatency.generate(1 << 16, ctx.seed ^ 0xB0B);
    let total: u32 = MIX.iter().sum();
    let mut ops = Vec::with_capacity(OPS);
    for i in 0..OPS {
        let mut pick = rng.gen_range(0..total);
        let mut op = 0;
        while pick >= MIX[op] {
            pick -= MIX[op];
            op += 1;
        }
        let read_key = tenants[rng.gen_range(0..READ_TENANTS)].key.clone();
        let mut req = match op {
            0 => {
                let t = READ_TENANTS + rng.gen_range(0..WRITE_TENANTS);
                let vals: Vec<u64> = (0..WRITE_BATCH)
                    .map(|j| pool[(i * WRITE_BATCH + j) % pool.len()])
                    .collect();
                tenants[t].values.extend_from_slice(&vals);
                addb_request(&tenants[t].key, &vals)
            }
            1 => Request::Rank {
                key: read_key,
                value: pool[rng.gen_range(0..pool.len())] as f64,
            },
            2 => Request::Quantile {
                key: read_key,
                q: [0.5, 0.9, 0.99, 0.999][rng.gen_range(0..4usize)],
            },
            3 => Request::Cdf {
                key: read_key,
                points: vec![20_000.0, 55_000.0, 100_000.0, 1e6, 1e7],
            },
            _ => Request::Merge { key: read_key },
        };
        stamper.stamp(&mut req);
        ops.push(req);
    }
    let traffic = Traffic {
        name: "text",
        tenants,
        creates,
        preload,
        ops,
        // Reads and writes go to disjoint tenants: no read follows a write.
        read_after_write: 0.0,
    };
    closed::run(ctx, rep, spans, &traffic, Transport::TextServer)
}
