//! Load generator for `xbar-serve`: drives N concurrent keep-alive
//! connections at a running server and reports latency percentiles and
//! throughput to `loadgen.csv` in the results directory (`XBAR_RESULTS_DIR`,
//! else the workspace `results/`).
//!
//! Usage: `cargo run --release -p xbar-bench --bin loadgen --
//! --addr 127.0.0.1:7878 [--connections 32] [--requests 25]
//! [--input-len 3072] [--interval-ms N] [--json-floats]
//! [--hist-out PATH]`
//!
//! The connection fleet, schedule, and outcome accounting live in
//! [`xbar_bench::loadcore`] — the same machinery the suite's `serve`
//! benchmark artifact uses, so external and in-process measurements
//! cannot drift apart. Latencies are recorded in a log-bucketed histogram
//! ([`xbar_obs::LogHistogram`]), so the tail percentiles stay accurate at
//! any request count; `--hist-out PATH` additionally writes the raw
//! histogram buckets as JSONL for offline analysis or CI artifacts.
//!
//! By default each connection runs closed-loop (next request after the
//! previous response). `--interval-ms N` switches to an open-loop
//! schedule: each connection *intends* to send every N ms and latency is
//! measured from the intended send time, so a stalled server inflates the
//! percentiles instead of silently slowing the workload —
//! coordinated-omission-honest reporting.
//!
//! Exit status is non-zero if any request failed with something other
//! than explicit overload — admission shedding (HTTP 429) and
//! backpressure (HTTP 503) are the server working as designed; the
//! acceptance bar for the serving demo is "zero dropped errors".

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use xbar_bench::loadcore::{self, LoadConfig};
use xbar_bench::report::Table;
use xbar_bench::runner::{Arity, RunContext};

fn quantile_ms(stats: &loadcore::LoadStats, q: f64) -> f64 {
    stats.quantile_us(q) as f64 / 1e3
}

fn parse_count(ctx: &RunContext, flag: &str, default: usize) -> usize {
    match ctx.args.get(flag) {
        None => default,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: {flag} must be a positive integer, got {raw:?}");
                std::process::exit(2);
            }
        },
    }
}

fn main() -> ExitCode {
    let mut ctx = RunContext::init(
        "loadgen",
        &[
            ("--addr", Arity::Value),
            ("--connections", Arity::Value),
            ("--requests", Arity::Value),
            ("--input-len", Arity::Value),
            ("--interval-ms", Arity::Value),
            ("--json-floats", Arity::Flag),
            ("--hist-out", Arity::Value),
        ],
    );
    let Some(addr) = ctx.args.get("--addr").map(str::to_string) else {
        eprintln!("error: --addr <host:port> is required (start a server with the serve binary)");
        return ExitCode::from(2);
    };
    let connections = parse_count(&ctx, "--connections", 32);
    let requests = parse_count(&ctx, "--requests", 25);
    let input_len = parse_count(&ctx, "--input-len", 3 * 32 * 32);
    // 0 = closed-loop (the default); N>0 = open-loop with an intended send
    // every N ms per connection.
    let interval_ms: u64 = match ctx.args.get("--interval-ms") {
        None => 0,
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("error: --interval-ms must be a non-negative integer, got {raw:?}");
                return ExitCode::from(2);
            }
        },
    };
    let hist_out = ctx.args.get("--hist-out").map(PathBuf::from);
    let as_json_floats = ctx.args.is_set("--json-floats");
    let seed = ctx.args.seed;
    ctx.config("addr", &addr);
    ctx.config("connections", connections);
    ctx.config("requests_per_connection", requests);
    ctx.config("interval_ms", interval_ms);

    eprintln!(
        "driving {connections} connections x {requests} requests at http://{addr} \
         ({} bodies, {})",
        if as_json_floats {
            "JSON float"
        } else {
            "base64"
        },
        if interval_ms > 0 {
            format!("open-loop every {interval_ms} ms")
        } else {
            "closed-loop".to_string()
        }
    );
    let all = loadcore::drive(&LoadConfig {
        addr,
        connections,
        requests_per_connection: requests,
        input_len,
        interval: Duration::from_millis(interval_ms),
        as_json_floats,
        seed,
        timeout: Duration::from_secs(30),
    });

    let mut table = Table::new(
        "Serving load test",
        &[
            "Connections",
            "Requests",
            "OK",
            "429",
            "503",
            "504",
            "Errors",
            "Retries",
            "Throughput (req/s)",
            "Mean (ms)",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "Max (ms)",
        ],
    );
    table.push_row(vec![
        connections.to_string(),
        (connections * requests).to_string(),
        all.ok.to_string(),
        all.shed.to_string(),
        all.backpressure.to_string(),
        all.timeouts.to_string(),
        (all.other_status + all.io_errors).to_string(),
        all.retries.to_string(),
        format!("{:.1}", all.throughput_rps()),
        format!("{:.2}", all.latency.mean() / 1e3),
        format!("{:.2}", quantile_ms(&all, 0.50)),
        format!("{:.2}", quantile_ms(&all, 0.95)),
        format!("{:.2}", quantile_ms(&all, 0.99)),
        format!(
            "{:.2}",
            if all.latency.is_empty() {
                0.0
            } else {
                all.latency.max() as f64 / 1e3
            }
        ),
    ]);
    println!("{}", table.to_markdown());
    let csv = table
        .write_csv(&ctx.args.results, "loadgen")
        .expect("write results");
    println!("[csv written to {}]", csv.display());
    if let Some(path) = &hist_out {
        match loadcore::write_histogram_jsonl(path, &all.latency) {
            Ok(()) => eprintln!("wrote latency histogram to {}", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ctx.finish();

    let dropped = all.dropped();
    if dropped > 0 || all.ok == 0 {
        eprintln!("FAILED: {dropped} non-overload errors, {} ok", all.ok);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
