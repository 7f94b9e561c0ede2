//! Blocking clients for the two codecs, built on the public codec
//! functions so each codec step can be timed on its own.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use req_core::ReqError;
use req_service::client::attach_token;
use req_service::protocol::{binary, text};
use req_service::{Request, Response};

use crate::trace::{now_ns, Spans};

fn dial(addr: SocketAddr) -> Result<(TcpStream, TcpStream), ReqError> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let reader = stream.try_clone()?;
    Ok((stream, reader))
}

/// Stamps mutations with `(client_id, seq)` idempotency tokens, as the
/// shipped clients do. The client id is fixed so that the bytes the
/// service persists repeat exactly from run to run.
#[derive(Debug)]
pub struct Stamper {
    client_id: u64,
    next_seq: u64,
}

impl Stamper {
    pub fn new(client_id: u64) -> Stamper {
        Stamper {
            client_id,
            next_seq: 1,
        }
    }

    pub fn stamp(&mut self, req: &mut Request) {
        attach_token(req, self.client_id, &mut self.next_seq);
    }
}

/// Binary-codec connection (the evented server's codec).
#[derive(Debug)]
pub struct BinWire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl BinWire {
    pub fn connect(addr: SocketAddr) -> Result<BinWire, ReqError> {
        let (writer, reader) = dial(addr)?;
        Ok(BinWire {
            writer,
            reader: BufReader::with_capacity(1 << 16, reader),
        })
    }

    /// Encode and write one request frame.
    pub fn send(
        &mut self,
        req: &Request,
        id: u64,
        parent: u32,
        spans: &mut Spans,
    ) -> Result<(), ReqError> {
        let t0 = now_ns();
        let frame = binary::encode_request(req);
        spans.record(id, parent, "client.encode", t0, now_ns());
        self.writer.write_all(&frame)?;
        Ok(())
    }

    /// Read and decode one response frame.
    pub fn recv(&mut self, id: u64, parent: u32, spans: &mut Spans) -> Result<Response, ReqError> {
        let payload = binary::read_frame_blocking(&mut self.reader)?;
        let t0 = now_ns();
        let resp = binary::decode_response(payload);
        spans.record(id, parent, "client.decode", t0, now_ns());
        resp
    }

    /// One sequential round trip; the root span is `roundtrip`.
    pub fn call(
        &mut self,
        req: &Request,
        id: u64,
        spans: &mut Spans,
    ) -> Result<Response, ReqError> {
        let root = spans.reserve();
        let t0 = now_ns();
        self.send(req, id, root, spans)?;
        let resp = self.recv(id, root, spans)?;
        spans.record_with_id(root, id, 0, "roundtrip", t0, now_ns());
        Ok(resp)
    }

    /// Send `reqs` keeping up to `window` in flight; call
    /// `on_done(index, response, sent_ns, done_ns)` as each response
    /// arrives. Each request's root span is `roundtrip`.
    pub fn pipelined(
        &mut self,
        reqs: &[Request],
        window: usize,
        spans: &mut Spans,
        mut on_done: impl FnMut(usize, Response, u64, u64),
    ) -> Result<(), ReqError> {
        let mut inflight: VecDeque<(usize, u64, u32)> = VecDeque::with_capacity(window);
        let mut next = 0;
        while next < reqs.len() || !inflight.is_empty() {
            while next < reqs.len() && inflight.len() < window {
                let root = spans.reserve();
                let t = now_ns();
                self.send(&reqs[next], next as u64, root, spans)?;
                inflight.push_back((next, t, root));
                next += 1;
            }
            let (i, sent, root) = inflight.pop_front().expect("a request is in flight");
            let resp = self.recv(i as u64, root, spans)?;
            let done = now_ns();
            spans.record_with_id(root, i as u64, 0, "roundtrip", sent, done);
            on_done(i, resp, sent, done);
        }
        Ok(())
    }
}

/// Text-codec connection (one line per message), as `req-server` speaks.
#[derive(Debug)]
pub struct TextWire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl TextWire {
    pub fn connect(addr: SocketAddr) -> Result<TextWire, ReqError> {
        let (writer, reader) = dial(addr)?;
        Ok(TextWire {
            writer,
            reader: BufReader::with_capacity(1 << 16, reader),
            line: String::new(),
        })
    }

    pub fn call(
        &mut self,
        req: &Request,
        id: u64,
        spans: &mut Spans,
    ) -> Result<Response, ReqError> {
        let root = spans.reserve();
        let t0 = now_ns();
        let mut line = text::encode_request(req);
        line.push('\n');
        spans.record(id, root, "client.encode", t0, now_ns());
        self.writer.write_all(line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(ReqError::Io("server closed the connection".into()));
        }
        let t1 = now_ns();
        let resp = text::decode_response(self.line.trim_end_matches(['\n', '\r']), req.kind());
        let t2 = now_ns();
        spans.record(id, root, "client.decode", t1, t2);
        spans.record_with_id(root, id, 0, "roundtrip", t0, t2);
        resp
    }
}
