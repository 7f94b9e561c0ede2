//! # `req-service` — a durable, multi-tenant quantile service
//!
//! The serving layer over [`req_core`]: a process that **owns** named REQ
//! sketches, **survives restarts**, and **answers queries over TCP**. It
//! is built from three layers, each usable on its own:
//!
//! * **[`registry`]** — a keyed map of tenants (`HashMap<String,
//!   ConcurrentReqSketch<OrdF64>>` behind sharded locks), each with its
//!   own accuracy/orientation/schedule configuration ([`config`]);
//! * **[`wal`] + [`snapshot`]** — durability: every mutation is appended
//!   to a checksummed write-ahead log before it is applied, and a
//!   snapshot store (binary format v3 inside [`req_core::frame`] frames)
//!   periodically folds the log down, rotating it. Crash recovery = load
//!   the latest valid snapshot, replay the WAL tail ([`service`]);
//! * **[`server`] + [`client`] + [`protocol`]** — the wire API as typed
//!   [`Request`]/[`Response`] enums with two codecs (one-line text,
//!   CRC32-framed binary), one TCP server ([`serve_evented`]: epoll event
//!   loops over non-blocking sockets, via the vendored `polling` shim)
//!   that picks each connection's codec from its first four bytes, and
//!   the typed clients for either codec ([`ReqClient`], [`ReqBinClient`]).
//!   Every request on either codec goes through [`execute`], so the two
//!   codecs answer identically; the binary one adds deep pipelining.
//!
//! The recovery guarantee is deliberately stronger than "within the
//! sketch's ε": because snapshots checkpoint each tenant *onto its own
//! serialization* ([`req_core::ConcurrentReqSketch::checkpoint`]) and the
//! WAL preserves exact `f64` bit patterns in arrival order, a crashed and
//! recovered service returns **value-identical** answers to one that
//! never crashed (experiment E16 in the harness, plus this crate's
//! `recovery` proptests, verify it end to end).
//!
//! ```no_run
//! use req_service::{QuantileService, ServiceConfig, TenantConfig};
//!
//! let service = QuantileService::open(ServiceConfig::new("/var/lib/req"))?;
//! service.create("api.latency", TenantConfig::for_key("api.latency"))?;
//! service.add("api.latency", 12.5)?;
//! let p99 = service.quantile("api.latency", 0.99)?;
//! # let _ = p99;
//! # Ok::<(), req_core::ReqError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod faults;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod tempdir;
pub mod wal;

pub use client::{ClientApi, CreateOptions, ReqBinClient, ReqClient, RetryPolicy};
pub use config::{stable_key_hash, Accuracy, ServiceConfig, TenantConfig};
pub use faults::{FaultKind, FaultPlane, FaultSite};
pub use protocol::{ErrorKind, IdemToken, Request, RequestKind, Response, TailSegment};
pub use registry::{Registry, Tenant};
pub use server::{execute, serve_evented, serve_evented_with, EventedHandle, EventedOptions};
pub use service::{QuantileService, RecoveryReport, Snapshotter, TenantStats};
pub use snapshot::{AppliedOutcome, DedupClientSnapshot, SnapshotData, TenantSnapshot};
pub use wal::{WalRecord, WalReplay, WalWriter};
