//! `req-cli` — talk to a running `req-server`.
//!
//! ```text
//! req-cli [OPTIONS] CMD [ARGS...]   one command, print the reply
//! req-cli [OPTIONS] repl            interactive: one command per line
//!
//! options:
//!   --addr HOST:PORT        server address      (default 127.0.0.1:7878)
//!   --connect-timeout SECS  dial timeout        (default 5)
//!   --timeout SECS          read/write timeout  (default 30)
//!   --retries N             max automatic retries of a failed command
//!                           (default 4; mutations retry only with their
//!                           idempotency token attached)
//! ```
//!
//! Examples:
//!
//! ```text
//! req-cli CREATE api.latency K=32 HRA
//! req-cli ADDB api.latency 12.5 100.25 7.5
//! req-cli QUANTILE api.latency 0.99
//! req-cli STATS api.latency
//! ```

use req_core::ReqError;
use req_service::protocol::text;
use req_service::{ClientApi, ReqClient, Request, Response, RetryPolicy};
use std::io::BufRead;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: req-cli [--addr HOST:PORT] [--connect-timeout SECS] [--timeout SECS]\n\
         \x20              [--retries N] CMD [ARGS...]\n\
         \x20      req-cli [same options] repl\n\
         \x20      req-cli [same options] metrics\n\
         \x20      req-cli [same options] events [N]\n\
         commands: CREATE ADD ADDB RANK QUANTILE CDF STATS LIST SNAPSHOT DROP PING\n\
         \x20         METRICS EVENTS"
    );
    std::process::exit(2);
}

/// Parse one command line, send it with retries, and render the reply
/// as its text-codec payload (`OK` for an empty one).
///
/// `ADD` has no idempotency token on the wire, so a retry after a lost
/// reply could apply it twice; it goes out as a one-value `ADDB`, which
/// carries one, and is answered as `ADD` would be.
fn run(client: &mut ReqClient, line: &str) -> Result<String, ReqError> {
    let (req, is_add) = match text::decode_request(line)? {
        Request::Add { key, value } => (
            Request::AddBatch {
                key,
                values: vec![value],
                token: None,
            },
            true,
        ),
        req => (req, false),
    };
    let resp = match client.call(&req)?.into_result()? {
        Response::AddedBatch(_) if is_add => Response::Added,
        resp => resp,
    };
    let line = text::encode_response(&resp);
    let payload = line.strip_prefix("OK").unwrap_or(&line);
    let payload = payload.strip_prefix(' ').unwrap_or(payload);
    Ok(if payload.is_empty() { "OK" } else { payload }.to_string())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut policy = RetryPolicy::default();
    while let Some(flag) = args.first().filter(|a| a.starts_with("--")) {
        if args.len() < 2 {
            usage();
        }
        let value = args[1].clone();
        let secs = |v: &str| -> Duration {
            Duration::from_secs_f64(v.parse().unwrap_or_else(|_| usage()))
        };
        match flag.as_str() {
            "--addr" => addr = value,
            "--connect-timeout" => policy.connect_timeout = secs(&value),
            "--timeout" => {
                policy.read_timeout = secs(&value);
                policy.write_timeout = secs(&value);
            }
            "--retries" => policy.max_retries = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        args.drain(..2);
    }
    if args.is_empty() {
        usage();
    }

    let mut client = match ReqClient::connect_with(&addr, policy) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("req-cli: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    // Telemetry verbs get typed handling: their payloads are hex-armored
    // multi-line blobs on the text wire, so the raw pass-through below
    // would print unreadable hex. Decode and print the real thing.
    if args[0].eq_ignore_ascii_case("metrics") && args.len() == 1 {
        match client.metrics() {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args[0].eq_ignore_ascii_case("events") && args.len() <= 2 {
        let max: u32 = args
            .get(1)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(64);
        match client.events(max) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if args.len() == 1 && args[0] == "repl" {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(_) => break,
            };
            if line.trim().is_empty() {
                continue;
            }
            match run(&mut client, &line) {
                Ok(payload) => println!("{payload}"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        return;
    }

    let line = args.join(" ");
    match run(&mut client, &line) {
        Ok(payload) => println!("{payload}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
