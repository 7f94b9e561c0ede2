//! `perfbench` — end-to-end and per-layer benchmark of the REQ quantile
//! service through its public surfaces.
//!
//! ```text
//! perfbench --server-bin PATH --workload ingest|monitor_seq|text_sequential
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! Exits 1 when a correctness gate fails, 2 on bad arguments or an error.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod closed;
mod common;
mod host;
mod ingest;
mod layers;
mod monitor;
mod stats;
mod textseq;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::common::{kll_control, Ctx, Report};
use crate::trace::Spans;

/// The end-to-end metrics every untraced run prints, as `BENCHMARK.json`
/// lists them.
const END_TO_END: [&str; 13] = [
    "setup_s",
    "values_per_s",
    "addb_p50_us",
    "addb_p90_us",
    "read_p50_us",
    "read_p90_us",
    "merge_p50_us",
    "requests_per_s",
    "retained_items",
    "disk_bytes_per_value",
    "tail_rel_err_mean",
    "recover_s",
    "ok_frac",
];

/// The per-layer metrics every traced run prints, as `BENCHMARK.json`
/// lists them.
const PER_LAYER: [&str; 34] = [
    "core.update_ns_per_value",
    "core.compactions",
    "core.merge_moved_items",
    "core.rebuild_us",
    "core.view_rank_ns",
    "core.merge_wire_parts_us",
    "service.sketch_parts_us",
    "protocol.binary.encode_ns_per_value",
    "protocol.binary.decode_ns_per_value",
    "protocol.text.encode_us",
    "protocol.text.decode_us",
    "wal.append_ns_per_value",
    "wal.bytes_per_value",
    "snapshot.write_ms",
    "snapshot.count",
    "wal.records_replayed",
    "service.add_batch_ns_per_value",
    "service.self_ns_per_value",
    "service.execute_us.addb",
    "service.execute_us.rank",
    "service.execute_us.quantile",
    "service.execute_us.cdf",
    "service.execute_us.merge",
    "evented.transport_us",
    "server.transport_us",
    "trace.roundtrip_us",
    "trace.layer_sum_us",
    "trace.residual_us",
    "trace.residual_pct",
    "mix.read_after_write_frac",
    "control.kll_ns_per_value",
    "control.kll_drift_pct",
    "trace.overhead_pct",
    "trace.spans",
];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --server-bin PATH --workload ingest|monitor_seq|text_sequential \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut server_bin) =
        (None, None, None, None, None);
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("missing value for {}", args[i]));
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(server_bin)) =
        (workload, seed, seconds, trace, server_bin)
    else {
        return usage("every argument is required");
    };
    let run: fn(&Ctx, &mut Report, &mut Spans) -> Result<(), req_core::ReqError> =
        match workload.as_str() {
            "ingest" => ingest::run,
            "monitor_seq" => monitor::run,
            "text_sequential" => textseq::run,
            other => return usage(&format!("unknown workload {other}")),
        };
    let root = PathBuf::from(".bench_work");
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work: root.join(format!("{workload}-{seed}-{}", std::process::id())),
        server_bin,
    };
    // Before any thread or child process exists, so that all inherit it.
    match host::pin_to_one_cpu() {
        Some(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
        None => eprintln!("perfbench: could not pin to one CPU; running unpinned"),
    }
    if !host::batch_policy() {
        eprintln!("perfbench: could not switch to SCHED_BATCH");
    }
    trace::now_ns();
    let mut rep = Report::default();
    let mut spans = Spans::new(trace);
    let kll_start = kll_control();
    let result = run(&ctx, &mut rep, &mut spans);
    let kll_end = kll_control();
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = result {
        eprintln!("perfbench: {workload} failed: {e}");
        return ExitCode::from(2);
    }
    eprintln!("perfbench: control.kll_ns_per_value start {kll_start:.3} end {kll_end:.3}");
    if !trace {
        let attempted = rep.attempted.max(1) as f64;
        rep.metric(
            "ok_frac",
            (attempted - rep.failed as f64) / attempted,
            "ratio",
        );
    }
    if trace {
        rep.metric(
            "control.kll_ns_per_value",
            (kll_start + kll_end) / 2.0,
            "ns",
        );
        rep.metric(
            "control.kll_drift_pct",
            100.0 * (kll_end - kll_start) / kll_start,
            "%",
        );
        rep.metric("trace.spans", spans.len() as f64, "count");
        let path = root
            .join("traces")
            .join(format!("{workload}-seed{seed}.tsv"));
        match spans.write(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    for (name, value, unit) in &rep.metrics {
        eprintln!("perfbench: {workload} {name} = {value} {unit}");
    }
    // The result carries exactly the listed metrics, in list order; every
    // workload measures every one of them.
    let listed: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(listed.len());
    for name in listed {
        let Some((_, value, unit)) = rep.metrics.iter().find(|m| m.0 == *name) else {
            eprintln!("perfbench: {workload} did not measure {name}");
            return ExitCode::from(2);
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    let correct = rep.gate_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// reported as null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    /// The metric lists must match `BENCHMARK.json`, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).unwrap();
            let end = json[start..].find(']').unwrap() + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(section("end_to_end"), super::END_TO_END);
        assert_eq!(section("per_layer"), super::PER_LAYER);
    }
}
