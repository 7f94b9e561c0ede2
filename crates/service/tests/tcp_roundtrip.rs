//! End-to-end TCP integration over the text codec: a live server on an
//! ephemeral port, typed clients round-tripping every protocol command,
//! durability across a server restart, and concurrent clients hammering
//! one tenant.

use req_service::tempdir::TempDir;
use req_service::{
    serve_evented, ClientApi, CreateOptions, EventedHandle, QuantileService, ReqClient,
    ServiceConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn start(dir: &std::path::Path, loops: usize) -> (Arc<QuantileService>, EventedHandle) {
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir)).unwrap());
    let handle = serve_evented(Arc::clone(&service), "127.0.0.1:0", loops).unwrap();
    (service, handle)
}

/// A raw text connection, as `nc` would open it.
struct RawText {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawText {
    fn connect(addr: SocketAddr) -> RawText {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        RawText { writer, reader }
    }

    /// Send `line` plus `\n`, return the reply line without its `\n`.
    fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }
}

#[test]
fn full_command_surface_roundtrips() {
    let dir = TempDir::new("tcp").unwrap();
    let (_service, handle) = start(dir.path(), 2);
    let mut c = ReqClient::connect(handle.addr()).unwrap();

    c.ping().unwrap();
    c.create(
        "lat",
        &CreateOptions {
            k: Some(16),
            hra: Some(true),
            shards: Some(2),
            ..CreateOptions::default()
        },
    )
    .unwrap();

    // Ingest: one big batch plus singles.
    let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
    for chunk in values.chunks(1_000) {
        assert_eq!(c.add_batch("lat", chunk).unwrap(), chunk.len() as u64);
    }
    c.add("lat", 10_000.0).unwrap();

    // Queries.
    let r = c.rank("lat", 5_000.0).unwrap();
    assert!((r as f64 - 5_001.0).abs() / 5_001.0 < 0.2, "rank {r}");
    let q = c.quantile("lat", 0.5).unwrap().unwrap();
    assert!((q - 5_000.0).abs() < 1_500.0, "median {q}");
    let cdf = c.cdf("lat", &[1_000.0, 5_000.0, 9_000.0]).unwrap();
    assert_eq!(cdf.len(), 3);
    assert!(cdf[0] < cdf[1] && cdf[1] < cdf[2] && cdf[2] <= 1.0);
    let stats = c.stats("lat").unwrap();
    assert_eq!(stats.n, 10_001);
    assert_eq!(stats.shards, 2);
    assert!(stats.hra);
    assert!(stats.retained > 0);
    assert_eq!(c.list().unwrap(), vec!["lat".to_string()]);

    // Snapshot over the wire, then drop.
    assert_eq!(c.snapshot().unwrap(), 1);
    c.drop_key("lat").unwrap();
    assert!(c.rank("lat", 1.0).is_err());
    assert!(c.list().unwrap().is_empty());
    c.quit().unwrap();
    handle.shutdown();
}

#[test]
fn errors_cross_the_wire_with_their_kind() {
    let dir = TempDir::new("tcp").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = ReqClient::connect(handle.addr()).unwrap();

    // Unknown key -> InvalidParameter, with the message intact.
    let err = c.rank("ghost", 1.0).unwrap_err();
    match err {
        req_core::ReqError::InvalidParameter(msg) => assert!(msg.contains("ghost"), "{msg}"),
        other => panic!("wrong kind: {other:?}"),
    }
    // Duplicate create -> InvalidParameter.
    c.create("t", &CreateOptions::default()).unwrap();
    assert!(matches!(
        c.create("t", &CreateOptions::default()),
        Err(req_core::ReqError::InvalidParameter(_))
    ));
    // Malformed commands on a raw connection.
    let mut raw = RawText::connect(handle.addr());
    assert!(raw.send("WHAT even").starts_with("ERR invalid"));
    assert!(raw.send("ADDB t").starts_with("ERR invalid"));
    // Both connections stay usable after errors.
    assert_eq!(raw.send("PING"), "OK pong");
    c.ping().unwrap();
}

#[test]
fn state_survives_a_server_restart() {
    let dir = TempDir::new("tcp").unwrap();
    let probes: Vec<f64> = (0..50).map(|i| i as f64 * 199.0).collect();
    let want: Vec<u64> = {
        let (_service, handle) = start(dir.path(), 2);
        let mut c = ReqClient::connect(handle.addr()).unwrap();
        c.create(
            "t",
            &CreateOptions {
                k: Some(32),
                ..CreateOptions::default()
            },
        )
        .unwrap();
        let values: Vec<f64> = (0..8_000).map(|i| (i * 37 % 10_007) as f64).collect();
        for chunk in values.chunks(500) {
            c.add_batch("t", chunk).unwrap();
        }
        probes.iter().map(|&p| c.rank("t", p).unwrap()).collect()
        // handle dropped: server stops; service dropped: "process exit"
    };
    let (service, handle) = start(dir.path(), 2);
    assert!(service.recovery_report().records_replayed > 0);
    let mut c = ReqClient::connect(handle.addr()).unwrap();
    let got: Vec<u64> = probes.iter().map(|&p| c.rank("t", p).unwrap()).collect();
    assert_eq!(got, want, "recovered server must answer identically");
    assert_eq!(c.stats("t").unwrap().n, 8_000);
}

#[test]
fn concurrent_clients_share_one_tenant() {
    let dir = TempDir::new("tcp").unwrap();
    let (service, handle) = start(dir.path(), 4);
    let addr = handle.addr();
    let mut c = ReqClient::connect(addr).unwrap();
    c.create("shared", &CreateOptions::default()).unwrap();

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            scope.spawn(move || {
                let mut c = ReqClient::connect(addr).unwrap();
                let values: Vec<f64> = (0..5_000).map(|i| (t * 5_000 + i) as f64).collect();
                for chunk in values.chunks(250) {
                    c.add_batch("shared", chunk).unwrap();
                }
            });
        }
    });
    assert_eq!(c.stats("shared").unwrap().n, 20_000);
    let r = c.rank("shared", 10_000.0).unwrap();
    assert!((r as f64 - 10_001.0).abs() / 10_001.0 < 0.2, "rank {r}");
    handle.shutdown();
    drop(service);

    // Everything the concurrent clients wrote is durable.
    let (service, _handle2) = start(dir.path(), 1);
    assert_eq!(service.stats("shared").unwrap().n, 20_000);
}

#[test]
fn oversized_lines_are_rejected_not_fatal() {
    let dir = TempDir::new("tcp").unwrap();
    let (_service, handle) = start(dir.path(), 2);
    let mut c = ReqClient::connect(handle.addr()).unwrap();
    // A legitimate large-but-bounded batch works.
    c.create("t", &CreateOptions::default()).unwrap();
    let big: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
    assert_eq!(c.add_batch("t", &big).unwrap(), 100_000);
    assert_eq!(c.stats("t").unwrap().n, 100_000);

    // A line beyond MAX_LINE_BYTES must be rejected and the connection
    // closed — without wedging the loop or the server. The server
    // closes with our unread tail still in flight, so the kernel may RST
    // the socket before the ERR line is deliverable: both a clean ERR
    // and a reset are acceptable outcomes for the misbehaving client;
    // the hard invariant is that the server survives.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    let monster = vec![b'x'; req_service::server::MAX_LINE_BYTES as usize + 64];
    let _ = raw.write_all(&monster);
    let mut reply = String::new();
    match BufReader::new(raw).read_line(&mut reply) {
        Ok(0) | Err(_) => {} // closed/reset before the reply was readable
        Ok(_) => assert!(
            reply.starts_with("ERR invalid") && reply.contains("exceeds"),
            "got `{reply}`"
        ),
    }

    // The server keeps serving other clients.
    c.ping().unwrap();
}
