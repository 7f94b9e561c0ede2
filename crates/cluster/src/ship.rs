//! WAL-tail shipping: the pump that keeps a warm standby warm.
//!
//! A [`TailShipper`] runs next to a **follower** service and pulls the
//! primary's WAL over the binary protocol (`TAIL` frames), applying each
//! shipped slice locally via `replicate_frames` — append the identical
//! bytes, apply the identical record, in the identical order. When the
//! primary seals a generation (snapshot rotation), the segment comes
//! back `sealed` and the follower mirrors the rotation at the same
//! record index, which is what keeps the two data directories
//! **byte-identical**: same WAL files, same snapshots, same serialized
//! sketch state.
//!
//! Pull, not push: the follower knows its own watermark, so resuming
//! after any interruption (network fault, follower restart, torn
//! segment) is just "tail from where I am". A fault on the replication
//! socket can delay convergence — visible as [`TailShipper::lag`] — but
//! never corrupts: `replicate_frames` validates every frame before
//! appending, and a rejected slice is simply re-fetched.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use req_service::{ClientApi, QuantileService, ReqBinClient, RetryPolicy};

/// Largest slice requested per `TAIL` round trip.
const TAIL_BUDGET: u32 = 1 << 20;

/// Handle to a background replication pump; stops and joins on drop.
#[derive(Debug)]
pub struct TailShipper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    shipped: Arc<AtomicU64>,
    /// Generations the follower is behind, as of the last round trip.
    gens_behind: Arc<AtomicU64>,
    /// Consecutive failed round trips (connect, tail, or apply).
    errors_in_row: Arc<AtomicU64>,
}

impl TailShipper {
    /// Start pumping `primary` (its binary-protocol address) into the
    /// local `follower` service, polling every `poll` once caught up.
    /// The follower must already be in follower mode.
    pub fn start(
        follower: Arc<QuantileService>,
        primary: SocketAddr,
        policy: RetryPolicy,
        poll: Duration,
    ) -> TailShipper {
        let stop = Arc::new(AtomicBool::new(false));
        let shipped = Arc::new(AtomicU64::new(0));
        let gens_behind = Arc::new(AtomicU64::new(0));
        let errors_in_row = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let shipped = Arc::clone(&shipped);
            let gens_behind = Arc::clone(&gens_behind);
            let errors_in_row = Arc::clone(&errors_in_row);
            std::thread::spawn(move || {
                pump(
                    &follower,
                    primary,
                    &policy,
                    poll,
                    &stop,
                    &shipped,
                    &gens_behind,
                    &errors_in_row,
                );
            })
        };
        TailShipper {
            stop,
            handle: Some(handle),
            shipped,
            gens_behind,
            errors_in_row,
        }
    }

    /// Records applied on the follower since start.
    pub fn shipped_records(&self) -> u64 {
        self.shipped.load(Ordering::Relaxed)
    }

    /// Honest lag report: whole generations behind the primary at the
    /// last successful round trip, plus how many round trips in a row
    /// have failed (0 = healthy). A follower whose pump is erroring
    /// still *serves* — it just reports that its answers are stale.
    pub fn lag(&self) -> (u64, u64) {
        (
            self.gens_behind.load(Ordering::Relaxed),
            self.errors_in_row.load(Ordering::Relaxed),
        )
    }

    /// Stop the pump and join the thread.
    pub fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TailShipper {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[allow(clippy::too_many_arguments)]
fn pump(
    follower: &QuantileService,
    primary: SocketAddr,
    policy: &RetryPolicy,
    poll: Duration,
    stop: &AtomicBool,
    shipped: &AtomicU64,
    gens_behind: &AtomicU64,
    errors_in_row: &AtomicU64,
) {
    // Global-registry mirrors of the shipper's own atomics, so lag is
    // visible over the wire (METRICS) and not only via the in-process
    // `TailShipper::lag` handle. Registered once per pump (cold path);
    // multiple shippers in one process sum into the same series.
    let telemetry = req_telemetry::global();
    let shipped_total = telemetry.counter("cluster_shipper_shipped_records_total");
    let lag_gauge = telemetry.gauge("cluster_shipper_gens_behind");
    let error_total = telemetry.counter("cluster_shipper_errors_total");
    let mut client: Option<ReqBinClient> = None;
    while !stop.load(Ordering::SeqCst) {
        let round = (|| -> Result<bool, req_core::ReqError> {
            if client.is_none() {
                client = Some(ReqBinClient::connect_with(primary, policy.clone())?);
            }
            let conn = client.as_mut().expect("just connected");
            let (generation, offset) = follower.wal_watermark();
            let seg = conn.tail_wal(generation, offset, TAIL_BUDGET)?;
            let behind = seg.latest_gen.saturating_sub(generation);
            gens_behind.store(behind, Ordering::Relaxed);
            lag_gauge.set(behind);
            if !seg.frames.is_empty() {
                let applied = follower.replicate_frames(&seg.frames)?;
                shipped.fetch_add(applied, Ordering::Relaxed);
                shipped_total.add(applied);
                return Ok(true);
            }
            if seg.sealed {
                // Primary rotated at exactly this record index; mirror it
                // so the shard-swap transitions line up byte-for-byte.
                follower.rotate_generation()?;
                return Ok(true);
            }
            Ok(false) // caught up
        })();
        match round {
            Ok(true) => {
                errors_in_row.store(0, Ordering::Relaxed);
            }
            Ok(false) => {
                errors_in_row.store(0, Ordering::Relaxed);
                std::thread::sleep(poll);
            }
            Err(_) => {
                // Dead primary, faulted socket, or a torn slice the
                // validator rejected: drop the connection, count the
                // failure (honest lag), and retry from the follower's
                // own watermark — partial progress is already durable.
                client = None;
                errors_in_row.fetch_add(1, Ordering::Relaxed);
                error_total.inc();
                std::thread::sleep(poll);
            }
        }
    }
}
