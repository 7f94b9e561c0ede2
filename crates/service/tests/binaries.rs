//! The shipped binaries, run as child processes: `req-server` keeps its
//! command-line contract and serves both codecs on its one port, and
//! `req-cli --retries` re-sends a command whose reply was torn without
//! applying it twice.

use req_service::faults::Fault;
use req_service::protocol::text;
use req_service::tempdir::TempDir;
use req_service::{
    serve_evented_with, ClientApi, CreateOptions, EventedOptions, FaultKind, FaultPlane, FaultSite,
    QuantileService, ReqBinClient, ReqClient, Request, RequestKind, ServiceConfig, TenantConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// A spawned `req-server`, killed and reaped on drop.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `req-server` with the flags the repository benchmark uses and
/// parse the address from its `listening on` line.
fn spawn_server(dir: &std::path::Path) -> (Server, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_req-server"))
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
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let server = Server(child);
    let addr = line
        .trim()
        .strip_prefix("req-server: listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .parse()
        .unwrap();
    (server, addr)
}

#[test]
fn req_server_serves_text_and_binary_on_one_port() {
    let dir = TempDir::new("bin-server").unwrap();
    let (_server, addr) = spawn_server(dir.path());

    let mut text_client = ReqClient::connect(addr).unwrap();
    let mut bin_client = ReqBinClient::connect(addr).unwrap();
    text_client.create("t", &CreateOptions::default()).unwrap();
    let values: Vec<f64> = (0..5_000).map(f64::from).collect();
    assert_eq!(bin_client.add_batch("t", &values).unwrap(), 5_000);

    let queries = [
        Request::Ping,
        Request::List,
        Request::Stats { key: "t".into() },
        Request::Rank {
            key: "t".into(),
            value: 2_500.0,
        },
        Request::Quantile {
            key: "t".into(),
            q: 0.99,
        },
        Request::Cdf {
            key: "t".into(),
            points: vec![10.0, 1_000.0, 4_000.0],
        },
        Request::Rank {
            key: "ghost".into(),
            value: 1.0,
        },
    ];
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut raw_reader = BufReader::new(raw.try_clone().unwrap());
    for req in &queries {
        let via_text = text_client.call(req).unwrap();
        assert_eq!(via_text, bin_client.call(req).unwrap(), "{req:?}");
        // And as `nc` would send it.
        raw.write_all(format!("{}\n", text::encode_request(req)).as_bytes())
            .unwrap();
        let mut line = String::new();
        raw_reader.read_line(&mut line).unwrap();
        let via_raw = text::decode_response(line.trim_end(), req.kind()).unwrap();
        assert_eq!(via_raw, via_text, "{req:?}");
    }
    raw.write_all(b"PING\n").unwrap();
    let mut line = String::new();
    raw_reader.read_line(&mut line).unwrap();
    assert_eq!(
        text::decode_response(line.trim_end(), RequestKind::Ping).unwrap(),
        bin_client.call(&Request::Ping).unwrap()
    );
}

/// The first two replies the server writes are torn; the third goes out
/// whole. `req-cli --retries 4 ADD k 1` must ride out both tears and
/// leave exactly one value behind.
#[test]
fn req_cli_retries_a_torn_reply_and_applies_it_once() {
    let plane = |seed| FaultPlane::new(seed).with(FaultSite::SockWrite, FaultKind::Torn, 1, 2);
    let seed = (0..)
        .find(|&seed| {
            let p = plane(seed);
            let mut ops = (0..3).map(|_| p.next_sized(FaultSite::SockWrite, 16));
            matches!(ops.next(), Some(Fault::Torn { .. }))
                && matches!(ops.next(), Some(Fault::Torn { .. }))
                && ops.next() == Some(Fault::None)
        })
        .unwrap();
    let plane = Arc::new(plane(seed));

    let dir = TempDir::new("bin-cli").unwrap();
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).unwrap());
    service.create("k", TenantConfig::for_key("k")).unwrap();
    let handle = serve_evented_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        EventedOptions {
            loops: 1,
            faults: Some(Arc::clone(&plane)),
            write_stall_timeout: None,
        },
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_req-cli"))
        .args(["--addr", &handle.addr().to_string(), "--retries", "4"])
        .args(["ADD", "k", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "req-cli failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "OK\n");
    assert_eq!(plane.injected(), 2, "both tears must have fired");
    assert_eq!(service.stats("k").unwrap().n, 1, "applied exactly once");
}
