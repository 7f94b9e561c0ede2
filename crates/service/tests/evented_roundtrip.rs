//! End-to-end tests for the server: the full typed command surface over
//! the binary codec, deep pipelining on one connection, durability across
//! restarts, idle-connection density, fault handling at both protocol
//! layers, and how each connection's codec is chosen from its first four
//! bytes.

use req_core::ReqError;
use req_service::protocol::{binary, text};
use req_service::server::{MAX_LINE_BYTES, MAX_WRITE_BACKLOG};
use req_service::tempdir::TempDir;
use req_service::{
    serve_evented, serve_evented_with, ClientApi, CreateOptions, ErrorKind, EventedHandle,
    EventedOptions, FaultKind, FaultPlane, FaultSite, QuantileService, ReqBinClient, ReqClient,
    Request, RequestKind, Response, RetryPolicy, ServiceConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(dir: &std::path::Path, loops: usize) -> (Arc<QuantileService>, EventedHandle) {
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir)).unwrap());
    let handle = serve_evented(Arc::clone(&service), "127.0.0.1:0", loops).unwrap();
    (service, handle)
}

#[test]
fn full_command_surface_roundtrips_over_binary() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();

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

    let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
    for chunk in values.chunks(1_000) {
        assert_eq!(c.add_batch("lat", chunk).unwrap(), chunk.len() as u64);
    }
    c.add("lat", 10_000.0).unwrap();

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
    assert_eq!(c.list().unwrap(), vec!["lat".to_string()]);

    assert_eq!(c.snapshot().unwrap(), 1);
    c.drop_key("lat").unwrap();
    assert!(c.rank("lat", 1.0).is_err());
    assert!(c.list().unwrap().is_empty());
    c.quit().unwrap();
    handle.shutdown();
}

/// The satellite requirement: 1 000 commands in flight on ONE connection,
/// written before any response is read, answered in order.
#[test]
fn thousand_pipelined_commands_on_one_connection() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();
    c.create("p", &CreateOptions::default()).unwrap();

    let mut reqs = Vec::with_capacity(1_000);
    for i in 0..499 {
        reqs.push(Request::Add {
            key: "p".into(),
            value: i as f64,
        });
    }
    reqs.push(Request::Stats { key: "p".into() });
    for i in 0..499 {
        reqs.push(Request::Rank {
            key: "p".into(),
            value: i as f64,
        });
    }
    reqs.push(Request::Ping);
    assert_eq!(reqs.len(), 1_000);

    let resps = c.call_pipelined(&reqs).unwrap();
    assert_eq!(resps.len(), 1_000);
    for resp in &resps[..499] {
        assert!(matches!(resp, Response::Added), "got {resp:?}");
    }
    // Ordering proof: the mid-stream STATS sees exactly the 499 adds that
    // preceded it — no more, no fewer.
    match &resps[499] {
        Response::Stats(s) => assert_eq!(s.n, 499),
        other => panic!("expected stats, got {other:?}"),
    }
    // Ranks answer in request order: rank(i) over 0..499 estimates i+1
    // (the sketch may be a few off after compactions) and the sequence
    // is nondecreasing, which only holds if responses kept request order.
    let mut prev = 0u64;
    for (i, resp) in resps[500..999].iter().enumerate() {
        match resp {
            Response::Rank(r) => {
                let want = i as u64 + 1;
                assert!(r.abs_diff(want) <= 2 + want / 5, "rank({i}) = {r}");
                assert!(*r >= prev, "rank sequence regressed at {i}: {r} < {prev}");
                prev = *r;
            }
            other => panic!("expected rank, got {other:?}"),
        }
    }
    assert!(matches!(resps[999], Response::Pong));
}

#[test]
fn errors_keep_their_kind_and_the_connection_survives() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();

    let err = c.rank("ghost", 1.0).unwrap_err();
    match err {
        ReqError::InvalidParameter(msg) => assert!(msg.contains("ghost"), "{msg}"),
        other => panic!("wrong kind: {other:?}"),
    }
    c.create("t", &CreateOptions::default()).unwrap();
    assert!(matches!(
        c.create("t", &CreateOptions::default()),
        Err(ReqError::InvalidParameter(_))
    ));
    // Request-level faults answered mid-pipeline leave the stream usable.
    let resps = c
        .call_pipelined(&[
            Request::Rank {
                key: "nope".into(),
                value: 0.0,
            },
            Request::Ping,
        ])
        .unwrap();
    assert!(matches!(resps[0], Response::Err { .. }));
    assert!(matches!(resps[1], Response::Pong));
    c.ping().unwrap();
}

#[test]
fn corrupt_frames_get_a_typed_error_then_eof() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);

    // Frame with a deliberately wrong CRC: length says 4, CRC is garbage.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    let mut bad = Vec::new();
    bad.extend_from_slice(&4u32.to_le_bytes());
    bad.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    bad.extend_from_slice(&[1, 2, 3, 4]);
    raw.write_all(&bad).unwrap();

    // The server answers with one typed `corrupt` error frame…
    let payload = binary::read_frame_blocking(&mut raw).unwrap();
    let resp = binary::decode_response(payload).unwrap();
    match resp {
        Response::Err { kind, .. } => {
            assert_eq!(kind, ErrorKind::Corrupt)
        }
        other => panic!("expected corrupt error, got {other:?}"),
    }
    // …then closes the connection.
    let mut tail = [0u8; 16];
    assert_eq!(raw.read(&mut tail).unwrap(), 0, "expected EOF after fault");

    // The server itself is unharmed.
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();
    c.ping().unwrap();
}

#[test]
fn state_survives_a_server_restart() {
    let dir = TempDir::new("evented").unwrap();
    let probes: Vec<f64> = (0..50).map(|i| i as f64 * 199.0).collect();
    let want: Vec<u64> = {
        let (_service, handle) = start(dir.path(), 1);
        let mut c = ReqBinClient::connect(handle.addr()).unwrap();
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
    };
    let (service, handle) = start(dir.path(), 1);
    assert!(service.recovery_report().records_replayed > 0);
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();
    let got: Vec<u64> = probes.iter().map(|&p| c.rank("t", p).unwrap()).collect();
    assert_eq!(got, want, "recovered server must answer identically");
    assert_eq!(c.stats("t").unwrap().n, 8_000);
}

/// The density claim: ONE loop thread holds 700 idle connections, half
/// of them text and half binary, and every single one still answers.
#[test]
fn holds_640_plus_idle_connections_on_one_thread() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);

    const CONNS: usize = 700;
    let mut clients: Vec<Box<dyn ClientApi>> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        clients.push(if i % 2 == 0 {
            Box::new(ReqBinClient::connect(handle.addr()).unwrap())
        } else {
            Box::new(ReqClient::connect(handle.addr()).unwrap())
        });
    }
    // Touch each once so the server has registered them all.
    for c in clients.iter_mut() {
        c.ping().unwrap();
    }
    assert!(
        handle.live_connections() >= CONNS as u64,
        "server tracks {} live connections, want >= {CONNS}",
        handle.live_connections()
    );
    // Idle connections stay serviceable: spot-check across the herd.
    clients[0].create("d", &CreateOptions::default()).unwrap();
    for c in clients.iter_mut().step_by(97) {
        c.add("d", 1.0).unwrap();
    }
    let n = clients[CONNS - 1].stats("d").unwrap().n;
    assert_eq!(n, (CONNS).div_ceil(97) as u64);
    drop(clients);
    handle.shutdown();
}

#[test]
fn quit_closes_only_that_connection() {
    let dir = TempDir::new("evented").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut a = ReqBinClient::connect(handle.addr()).unwrap();
    let b = ReqBinClient::connect(handle.addr()).unwrap();
    a.ping().unwrap();
    b.quit().unwrap();
    a.ping().unwrap();
    // And a pipeline that ends in QUIT still answers everything first.
    let resps = a
        .call_pipelined(&[Request::Ping, Request::List, Request::Quit])
        .unwrap();
    assert!(matches!(resps[0], Response::Pong));
    assert!(matches!(resps[1], Response::List(_)));
    assert!(matches!(resps[2], Response::Bye));
}

/// The write-backlog satellite: a client that pipelines huge responses
/// and never reads them cannot pin the server. The loop parks the
/// connection's read side once [`MAX_WRITE_BACKLOG`] is queued, and the
/// stall sweep closes the connection outright once the backlog makes no
/// progress for `write_stall_timeout` — while every other client keeps
/// being served.
#[test]
fn never_draining_reader_is_evicted_after_the_stall_timeout() {
    let dir = TempDir::new("evented-stall").unwrap();
    let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).unwrap());
    let handle = serve_evented_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        EventedOptions {
            loops: 1,
            faults: None,
            write_stall_timeout: Some(Duration::from_secs(1)),
        },
    )
    .unwrap();

    {
        let mut c = ReqBinClient::connect(handle.addr()).unwrap();
        c.create("t", &CreateOptions::default()).unwrap();
        c.add_batch("t", &[1.0, 2.0, 3.0]).unwrap();
    }

    // One CDF request whose response is ~512 KiB; pipeline copies of it
    // and never read a byte back. Writes are paced so the server's greedy
    // fill() hits `WouldBlock` and re-arms between bursts — that re-arm
    // is where the >16 MiB backlog parks the connection's read interest,
    // after which the kernel buffers jam and our writes time out.
    let frame = binary::encode_request(&Request::Cdf {
        key: "t".into(),
        points: vec![2.0; 65_536],
    });
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut written = 0usize;
    let jam_bound = 8 * MAX_WRITE_BACKLOG;
    while written < jam_bound {
        match std::io::Write::write_all(&mut raw, &frame) {
            Ok(()) => written += frame.len(),
            Err(_) => break, // jammed (or already evicted) — both are the point
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        written < jam_bound,
        "server never parked the connection's read side; accepted {written} bytes"
    );

    // The stall sweep (1 s heartbeat granularity) must evict the reader.
    let deadline = Instant::now() + Duration::from_secs(15);
    while handle.live_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "stalled connection still live after 15 s ({} tracked)",
            handle.live_connections()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The server sheds the parasite, not its health.
    let mut c = ReqBinClient::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    assert_eq!(c.stats("t").unwrap().n, 3);
    drop(raw);
    handle.shutdown();
}

/// Socket-level chaos: with deterministic read/write faults injected at
/// the server's socket edges, a retrying client with idempotency tokens
/// still lands every batch exactly once — torn responses and dropped
/// connections surface as transport errors, never as duplicated or lost
/// ingest.
#[test]
fn injected_socket_faults_never_duplicate_or_lose_acked_batches() {
    for seed in [1u64, 2, 3] {
        let dir = TempDir::new("evented-chaos").unwrap();
        let plane = Arc::new(
            FaultPlane::new(seed)
                .with(FaultSite::SockWrite, FaultKind::Torn, 1, 5)
                .with(FaultSite::SockRead, FaultKind::Error, 1, 7),
        );
        let service = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).unwrap());
        let handle = serve_evented_with(
            Arc::clone(&service),
            "127.0.0.1:0",
            EventedOptions {
                loops: 1,
                faults: Some(Arc::clone(&plane)),
                write_stall_timeout: Some(Duration::from_secs(5)),
            },
        )
        .unwrap();

        let policy = RetryPolicy {
            max_retries: 32,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
            read_timeout: Duration::from_secs(5),
            seed,
            ..RetryPolicy::default()
        };
        let mut c = ReqBinClient::connect_with(handle.addr(), policy).unwrap();
        c.create("t", &CreateOptions::default()).unwrap();
        let mut expected = 0u64;
        for i in 0..60u64 {
            let batch: Vec<f64> = (0..1 + i % 7).map(|j| (i * 10 + j) as f64).collect();
            assert_eq!(
                c.add_batch("t", &batch).unwrap(),
                batch.len() as u64,
                "seed {seed}, batch {i}"
            );
            expected += batch.len() as u64;
        }
        assert!(
            plane.injected() > 0,
            "seed {seed} injected nothing — chaos test is vacuous"
        );
        // Exactly-once: ground truth read straight off the service.
        assert_eq!(service.stats("t").unwrap().n, expected, "seed {seed}");
        assert_eq!(c.stats("t").unwrap().n, expected, "seed {seed}");
        handle.shutdown();
    }
}

#[test]
fn concurrent_binary_clients_share_one_tenant() {
    let dir = TempDir::new("evented").unwrap();
    let (service, handle) = start(dir.path(), 2);
    let addr = handle.addr();
    let mut c = ReqBinClient::connect(addr).unwrap();
    c.create("shared", &CreateOptions::default()).unwrap();

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            scope.spawn(move || {
                let mut c = ReqBinClient::connect(addr).unwrap();
                let values: Vec<f64> = (0..5_000).map(|i| (t * 5_000 + i) as f64).collect();
                for chunk in values.chunks(250) {
                    c.add_batch("shared", chunk).unwrap();
                }
            });
        }
    });
    assert_eq!(c.stats("shared").unwrap().n, 20_000);
    handle.shutdown();
    drop(service);

    let (service, _handle) = start(dir.path(), 1);
    assert_eq!(service.stats("shared").unwrap().n, 20_000);
}

/// Write `bytes` on a fresh raw connection and return it, for codec
/// choice cases that need byte-level control of what arrives first.
fn raw_send(handle: &EventedHandle, bytes: &[u8]) -> TcpStream {
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(bytes).unwrap();
    raw
}

fn read_line(raw: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    raw.read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "torn reply `{line}`");
    line.trim_end().to_string()
}

/// A frame whose payload is 65–90 bytes starts with an ASCII capital;
/// the server must still serve it as binary, because the choice rests on
/// byte 3 (the length's top byte, always zero), never on byte 0.
#[test]
fn binary_frame_starting_with_a_capital_is_served_as_binary() {
    let dir = TempDir::new("codec").unwrap();
    let (service, handle) = start(dir.path(), 1);
    service
        .create("k", req_service::TenantConfig::for_key("k"))
        .unwrap();
    let (values, frame) = (1..64)
        .map(|n| {
            let values: Vec<f64> = (0..n).map(f64::from).collect();
            let frame = binary::encode_request(&Request::AddBatch {
                key: "k".into(),
                values: values.clone(),
                token: None,
            });
            (values, frame)
        })
        .find(|(_, f)| f[0].is_ascii_uppercase())
        .expect("some batch size puts a capital in byte 0");
    assert!((65..=90).contains(&(frame.len() - 8)));

    let mut raw = raw_send(&handle, &frame);
    let resp = binary::decode_response(binary::read_frame_blocking(&mut raw).unwrap()).unwrap();
    assert_eq!(resp, Response::AddedBatch(values.len() as u64));
    assert_eq!(service.stats("k").unwrap().n, values.len() as u64);
}

#[test]
fn blank_lines_before_the_first_verb_are_skipped() {
    let dir = TempDir::new("codec").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut raw = BufReader::new(raw_send(&handle, b"\n\r\nPING\n"));
    assert_eq!(read_line(&mut raw), "OK pong");
}

/// One to three bytes, a pause, then the rest: the server waits for the
/// fourth byte before it picks a codec, in either codec.
#[test]
fn a_request_split_inside_its_first_four_bytes_completes_in_either_codec() {
    let dir = TempDir::new("codec").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let frame = binary::encode_request(&Request::Ping);
    for split in 1..=3 {
        let mut raw = raw_send(&handle, &b"PING\n"[..split]);
        std::thread::sleep(Duration::from_millis(30));
        raw.write_all(&b"PING\n"[split..]).unwrap();
        assert_eq!(
            read_line(&mut BufReader::new(raw)),
            "OK pong",
            "split {split}"
        );

        let mut raw = raw_send(&handle, &frame[..split]);
        std::thread::sleep(Duration::from_millis(30));
        raw.write_all(&frame[split..]).unwrap();
        let resp = binary::decode_response(binary::read_frame_blocking(&mut raw).unwrap()).unwrap();
        assert_eq!(resp, Response::Pong, "split {split}");
    }
}

#[test]
fn a_text_line_written_one_byte_at_a_time_is_served() {
    let dir = TempDir::new("codec").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut raw = raw_send(&handle, b"");
    for &b in b"QUANTILE nope 0.5\n" {
        raw.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let reply = read_line(&mut BufReader::new(raw));
    assert!(
        reply.starts_with("ERR invalid") && reply.contains("nope"),
        "{reply}"
    );
}

/// 512 text lines in one send, answered in request order.
#[test]
fn five_hundred_twelve_pipelined_text_lines_answer_in_order() {
    let dir = TempDir::new("codec").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut c = ReqClient::connect(handle.addr()).unwrap();
    c.create("p", &CreateOptions::default()).unwrap();

    let mut batch = String::new();
    for i in 0..255 {
        batch.push_str(&format!("ADD p {i}\n"));
    }
    batch.push_str("STATS p\n");
    for i in 0..255 {
        batch.push_str(&format!("RANK p {i}\n"));
    }
    batch.push_str("PING\n");
    let mut raw = BufReader::new(raw_send(&handle, batch.as_bytes()));
    let mut lines = (0..512).map(|_| read_line(&mut raw));

    for _ in 0..255 {
        assert_eq!(lines.next().unwrap(), "OK");
    }
    // The mid-stream STATS sees exactly the 255 adds before it.
    match text::decode_response(&lines.next().unwrap(), RequestKind::Stats).unwrap() {
        Response::Stats(s) => assert_eq!(s.n, 255),
        other => panic!("expected stats, got {other:?}"),
    }
    let mut prev = 0u64;
    for i in 0..255u64 {
        let line = lines.next().unwrap();
        let Response::Rank(r) = text::decode_response(&line, RequestKind::Rank).unwrap() else {
            panic!("expected rank, got `{line}`");
        };
        assert!(r.abs_diff(i + 1) <= 2 + (i + 1) / 5, "rank({i}) = {r}");
        assert!(r >= prev, "rank sequence regressed at {i}: {r} < {prev}");
        prev = r;
    }
    assert_eq!(lines.next().unwrap(), "OK pong");
}

/// A length prefix just over the payload cap still has a zero fourth
/// byte, so it is read as binary: one typed `corrupt` error, then EOF.
#[test]
fn an_oversized_length_prefix_gets_corrupt_then_eof() {
    let dir = TempDir::new("codec").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut bad = ((binary::MAX_MESSAGE_PAYLOAD + 1) as u32)
        .to_le_bytes()
        .to_vec();
    assert_eq!(bad[3], 0);
    bad.extend_from_slice(&[0u8; 4]);
    let mut raw = raw_send(&handle, &bad);
    let resp = binary::decode_response(binary::read_frame_blocking(&mut raw).unwrap()).unwrap();
    assert!(
        matches!(
            resp,
            Response::Err {
                kind: ErrorKind::Corrupt,
                ..
            }
        ),
        "{resp:?}"
    );
    let mut tail = [0u8; 16];
    assert_eq!(raw.read(&mut tail).unwrap(), 0, "expected EOF after fault");
}

/// Text faults: invalid UTF-8 is a request fault (typed error, the
/// connection lives on); `QUIT` answers `BYE` and closes; an overlong
/// line gets one error line and a close.
#[test]
fn text_faults_answer_with_their_kind() {
    let dir = TempDir::new("codec").unwrap();
    let (_service, handle) = start(dir.path(), 1);
    let mut raw = BufReader::new(raw_send(&handle, b"PING \xff\xfe\nPING\nQUIT\n"));
    assert!(read_line(&mut raw).starts_with("ERR invalid"));
    assert_eq!(read_line(&mut raw), "OK pong");
    assert_eq!(read_line(&mut raw), "OK bye");
    let mut tail = String::new();
    assert_eq!(
        raw.read_line(&mut tail).unwrap(),
        0,
        "expected EOF after QUIT"
    );

    // Exactly MAX_LINE_BYTES with no newline: the server has read every
    // byte when it gives up, so its close carries no reset that could
    // swallow the error line.
    let mut raw = raw_send(&handle, b"ADDB k");
    let rest = vec![b' '; MAX_LINE_BYTES as usize - 6];
    raw.write_all(&rest).unwrap();
    let mut raw = BufReader::new(raw);
    let reply = read_line(&mut raw);
    assert!(
        reply.starts_with("ERR invalid") && reply.contains("exceeds"),
        "{reply}"
    );
    assert_eq!(raw.read_line(&mut tail).unwrap(), 0, "expected EOF");
}
