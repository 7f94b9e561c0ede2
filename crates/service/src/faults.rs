//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlane`] sits between the service and the operating system at
//! every *fault site* — the syscall edges where real deployments fail:
//! WAL appends and fsyncs, snapshot writes and renames, and the server's
//! socket reads/writes. Each site keeps its own operation
//! counter; whether operation `k` at site `s` faults (and how) is a pure
//! function of `(seed, s, rule, k)`, so a chaos schedule is replayed
//! exactly by reconstructing the plane with the same seed and rules — no
//! RNG state threads through the service, and concurrent sites never
//! perturb each other's schedules.
//!
//! The plane is configuration, not policy: production code paths consult
//! it only when one is installed ([`crate::ServiceConfig::faults`],
//! [`crate::EventedOptions::faults`]), and a disarmed or absent plane
//! costs one branch per site.
//!
//! ```
//! use req_service::faults::{FaultKind, FaultPlane, FaultSite};
//!
//! // Fail one in four WAL fsyncs, tear one in eight WAL appends.
//! let plane = FaultPlane::new(42)
//!     .with(FaultSite::WalSync, FaultKind::Error, 1, 4)
//!     .with(FaultSite::WalWrite, FaultKind::Torn, 1, 8);
//! let first: Vec<_> = (0..4).map(|_| plane.next(FaultSite::WalSync)).collect();
//! // Replay: a plane rebuilt from the same seed and rules repeats itself.
//! let replay = FaultPlane::new(42)
//!     .with(FaultSite::WalSync, FaultKind::Error, 1, 4)
//!     .with(FaultSite::WalWrite, FaultKind::Torn, 1, 8);
//! let again: Vec<_> = (0..4).map(|_| replay.next(FaultSite::WalSync)).collect();
//! assert_eq!(first, again);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Where in the stack a fault can be injected. Each site owns an
/// independent operation counter and schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A WAL frame write (`write_all` of one record).
    WalWrite,
    /// A WAL `fsync` (group commit leader or rotation).
    WalSync,
    /// The torn-append rollback (`set_len` back to the pre-append length).
    /// Faulting here is how chaos runs force the writer to poison.
    WalRollback,
    /// A snapshot tmp-file write.
    SnapWrite,
    /// A snapshot tmp-file `fsync`.
    SnapSync,
    /// The tmp → final snapshot rename.
    SnapRename,
    /// A server socket read.
    SockRead,
    /// A server socket write.
    SockWrite,
}

/// All sites, in wire/counter order.
pub const ALL_SITES: [FaultSite; 8] = [
    FaultSite::WalWrite,
    FaultSite::WalSync,
    FaultSite::WalRollback,
    FaultSite::SnapWrite,
    FaultSite::SnapSync,
    FaultSite::SnapRename,
    FaultSite::SockRead,
    FaultSite::SockWrite,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::WalWrite => 0,
            FaultSite::WalSync => 1,
            FaultSite::WalRollback => 2,
            FaultSite::SnapWrite => 3,
            FaultSite::SnapSync => 4,
            FaultSite::SnapRename => 5,
            FaultSite::SockRead => 6,
            FaultSite::SockWrite => 7,
        }
    }
}

/// What kind of failure a rule injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail outright before any bytes move (`EIO`-style; at
    /// [`FaultSite::SnapRename`] a failed rename, at a socket edge a hard
    /// connection drop).
    Error,
    /// A short write: a deterministic prefix of the buffer lands, then the
    /// operation errors — the torn-tail / `ENOSPC` shape. On a socket
    /// write this caps the bytes accepted per readiness (no error), which
    /// exercises partial-write resumption.
    Torn,
    /// Stall: the operation makes no progress this turn but is not an
    /// error (socket read parks until the next readiness; file sites treat
    /// it as a delay).
    Stall,
    /// Sleep `ms` before proceeding normally — injected latency.
    Delay(u16),
}

/// The resolved decision for one operation at one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Proceed normally.
    None,
    /// Fail before any side effect.
    Error,
    /// Perform only `keep` bytes of the `total` the caller intended, then
    /// fail (file sites) or accept the prefix (socket writes). `keep` is
    /// strictly less than `total` whenever `total > 0`.
    Torn {
        /// Bytes to let through.
        keep: usize,
    },
    /// No progress this turn; retry on the next readiness/attempt.
    Stall,
    /// Sleep this many milliseconds, then proceed normally.
    Delay(u16),
}

/// One scheduled fault source: at `site`, fire `kind` for the fraction
/// `num/den` of operations (decided per operation index by a seeded hash).
#[derive(Debug, Clone, Copy)]
struct FaultRule {
    site: FaultSite,
    kind: FaultKind,
    num: u32,
    den: u32,
}

/// SplitMix64 finalizer — the same stateless mixer the vendored RNG seeds
/// through. Good enough avalanche that rule decisions are uncorrelated
/// across sites, rules, and operation indices.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A seeded, deterministic fault-injection schedule. See the module docs.
#[derive(Debug)]
pub struct FaultPlane {
    seed: u64,
    rules: Vec<FaultRule>,
    counters: [AtomicU64; 8],
    armed: AtomicBool,
    injected: AtomicU64,
}

impl FaultPlane {
    /// An empty plane (no rules — every operation proceeds normally).
    pub fn new(seed: u64) -> Self {
        FaultPlane {
            seed,
            rules: Vec::new(),
            counters: Default::default(),
            armed: AtomicBool::new(true),
            injected: AtomicU64::new(0),
        }
    }

    /// Add a rule: at `site`, inject `kind` for `num` out of every `den`
    /// operations (chosen per operation by the seeded hash, not in a
    /// fixed pattern). Rules are evaluated in insertion order; the first
    /// that fires wins.
    pub fn with(mut self, site: FaultSite, kind: FaultKind, num: u32, den: u32) -> Self {
        assert!(den > 0 && num <= den, "rule fraction must be num/den <= 1");
        self.rules.push(FaultRule {
            site,
            kind,
            num,
            den,
        });
        self
    }

    /// Globally enable/disable the plane without losing counters — e.g.
    /// to recover a service cleanly after a chaos window.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Is the plane currently injecting?
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// How many faults have been injected so far (all sites).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// How many operations site `s` has decided (faulted or not).
    pub fn operations(&self, site: FaultSite) -> u64 {
        self.counters[site.index()].load(Ordering::Relaxed)
    }

    /// Decide the fate of the next operation at `site`, advancing its
    /// counter. `total` is the byte count the caller is about to move
    /// (used to size [`Fault::Torn`]); pass 0 for non-byte operations.
    pub fn next_sized(&self, site: FaultSite, total: usize) -> Fault {
        let k = self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        if !self.armed() {
            return Fault::None;
        }
        for (r, rule) in self.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            let h = mix(self.seed ^ mix(((site.index() as u64) << 32) | r as u64) ^ mix(k));
            if (h % rule.den as u64) < rule.num as u64 {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return match rule.kind {
                    FaultKind::Error => Fault::Error,
                    FaultKind::Torn => Fault::Torn {
                        // A strict prefix: high hash bits pick how much of
                        // the buffer lands, never all of it.
                        keep: if total == 0 {
                            0
                        } else {
                            (h >> 32) as usize % total
                        },
                    },
                    FaultKind::Stall => Fault::Stall,
                    FaultKind::Delay(ms) => Fault::Delay(ms),
                };
            }
        }
        Fault::None
    }

    /// [`FaultPlane::next_sized`] for operations without a byte count.
    pub fn next(&self, site: FaultSite) -> Fault {
        self.next_sized(site, 0)
    }

    /// The injected-I/O error all file-site faults surface as, marked so
    /// tests (and humans reading logs) can tell it from a real disk error.
    pub fn io_error(site: FaultSite) -> std::io::Error {
        std::io::Error::other(format!("injected fault at {site:?}"))
    }
}

/// Decide + apply a fault at a *file* site around writing `buf` to `w`:
/// `Error` fails before any bytes move, `Torn` writes a strict prefix and
/// then fails, `Stall`/`Delay` sleep briefly and proceed. Returns
/// `Ok(())` when the full buffer was written.
pub fn faulted_write<W: std::io::Write>(
    plane: Option<&FaultPlane>,
    site: FaultSite,
    w: &mut W,
    buf: &[u8],
) -> std::io::Result<()> {
    match plane.map_or(Fault::None, |p| p.next_sized(site, buf.len())) {
        Fault::None => w.write_all(buf),
        Fault::Error => Err(FaultPlane::io_error(site)),
        Fault::Torn { keep } => {
            w.write_all(&buf[..keep])?;
            w.flush()?;
            Err(FaultPlane::io_error(site))
        }
        Fault::Stall | Fault::Delay(_) => {
            std::thread::sleep(std::time::Duration::from_millis(1));
            w.write_all(buf)
        }
    }
}

/// Decide + apply a fault at a non-byte file site (fsync, rename,
/// rollback): `Error`/`Torn` fail, `Stall`/`Delay` sleep and proceed.
pub fn faulted_op(plane: Option<&FaultPlane>, site: FaultSite) -> std::io::Result<()> {
    match plane.map_or(Fault::None, |p| p.next(site)) {
        Fault::None => Ok(()),
        Fault::Error | Fault::Torn { .. } => Err(FaultPlane::io_error(site)),
        Fault::Stall | Fault::Delay(_) => {
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torn_plane() -> FaultPlane {
        FaultPlane::new(7)
            .with(FaultSite::WalWrite, FaultKind::Torn, 1, 3)
            .with(FaultSite::WalSync, FaultKind::Error, 1, 2)
    }

    #[test]
    fn schedules_replay_exactly() {
        let a = torn_plane();
        let b = torn_plane();
        for _ in 0..1000 {
            assert_eq!(
                a.next_sized(FaultSite::WalWrite, 64),
                b.next_sized(FaultSite::WalWrite, 64)
            );
            assert_eq!(a.next(FaultSite::WalSync), b.next(FaultSite::WalSync));
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "rules must actually fire");
    }

    #[test]
    fn sites_are_independent() {
        // Interleaving operations at other sites must not shift a site's
        // schedule: WalSync decisions 0..100 are the same whether or not
        // WalWrite ops happen in between.
        let a = torn_plane();
        let b = torn_plane();
        let plain: Vec<Fault> = (0..100).map(|_| a.next(FaultSite::WalSync)).collect();
        let interleaved: Vec<Fault> = (0..100)
            .map(|_| {
                b.next_sized(FaultSite::WalWrite, 8);
                b.next(FaultSite::WalSync)
            })
            .collect();
        assert_eq!(plain, interleaved);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlane::new(1).with(FaultSite::SnapSync, FaultKind::Error, 1, 4);
        let fired = (0..4000)
            .filter(|_| p.next(FaultSite::SnapSync) != Fault::None)
            .count();
        // 1/4 of 4000 = 1000; the seeded hash should land well within 3σ.
        assert!((850..1150).contains(&fired), "fired {fired}");
    }

    #[test]
    fn torn_keeps_a_strict_prefix() {
        let p = FaultPlane::new(3).with(FaultSite::SnapWrite, FaultKind::Torn, 1, 1);
        for total in [1usize, 2, 7, 4096] {
            match p.next_sized(FaultSite::SnapWrite, total) {
                Fault::Torn { keep } => assert!(keep < total, "keep {keep} of {total}"),
                other => panic!("expected torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn disarmed_plane_is_transparent() {
        let p = torn_plane();
        p.set_armed(false);
        for _ in 0..100 {
            assert_eq!(p.next_sized(FaultSite::WalWrite, 64), Fault::None);
        }
        assert_eq!(p.injected(), 0);
        // Counters still advance while disarmed, so re-arming resumes the
        // schedule at the true operation index.
        assert_eq!(p.operations(FaultSite::WalWrite), 100);
        p.set_armed(true);
        let fired = (0..100)
            .filter(|_| p.next_sized(FaultSite::WalWrite, 64) != Fault::None)
            .count();
        assert!(fired > 0);
    }

    #[test]
    fn faulted_write_applies_the_decision() {
        let p = FaultPlane::new(9).with(FaultSite::SnapWrite, FaultKind::Torn, 1, 1);
        let mut sink = Vec::new();
        let buf = [0xABu8; 100];
        let err = faulted_write(Some(&p), FaultSite::SnapWrite, &mut sink, &buf).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(sink.len() < buf.len(), "torn write must be a strict prefix");
        // No plane: plain write_all.
        sink.clear();
        faulted_write(None, FaultSite::SnapWrite, &mut sink, &buf).unwrap();
        assert_eq!(sink, buf);
    }
}
