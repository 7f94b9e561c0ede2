//! # `req-evented` — re-export of `req_service`'s server and binary client
//!
//! The one reason this crate exists: the repository benchmark
//! (`perfbench/`) depends on it by path and imports
//! `req_evented::{serve_evented, EventedHandle}`.

pub use req_service::{
    serve_evented, serve_evented_with, EventedHandle, EventedOptions, ReqBinClient,
};
