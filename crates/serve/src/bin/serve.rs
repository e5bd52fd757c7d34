//! `serve` — host a mapped-model artifact over HTTP.
//!
//! ```text
//! serve --artifact results/vgg11.xbarmdl [--addr 127.0.0.1:7878]
//!       [--replicas N] [--max-connections N] [--admission-limit N]
//!       [--batch-size N] [--queue-cap N] [--timeout-ms N]
//!       [--trace-sample N] [--slow-ms N] [--trace-out PATH]
//!       [--sweep-interval-ms N] [--probe-count N]
//!       [--drift-tau-fast S] [--drift-tau-slow S] [--drift-test-hooks]
//! ```
//!
//! `--replicas` sets the inference replica count (each pulls its own
//! snapshot of the served model); `--max-connections` caps the epoll set;
//! `--admission-limit` caps admitted-but-unanswered classify requests
//! (0 auto-sizes to the pipeline capacity). `--batch-size` caps a
//! micro-batch: an idle replica takes what is queued, up to that many,
//! without waiting for more.
//!
//! The `XBAR_THREADS` environment variable bounds the compute worker pool
//! used by the tensor kernels; it is read once per process, and the
//! offline pipeline uses the same budget (see `xbar_tensor::threads`).
//! Exits gracefully on SIGTERM/SIGINT or `POST /admin/shutdown`.
//!
//! Tracing: `--trace-sample N` traces one classify request in N (the
//! response carries a `trace_id` and the queue → batch → solve → respond
//! spans land in the trace buffer); `--slow-ms N` dumps any slower request
//! to stderr with its stage breakdown and traces it, sampled or not;
//! `--trace-out PATH` writes the JSONL
//! observability sink (spans + metrics) at shutdown, ready for
//! `obs-report`.
//!
//! Drift lifecycle: `--sweep-interval-ms N` turns on periodic health
//! sweeps over a deterministic probe set, with the re-program → re-map →
//! hot-swap mitigation ladder behind them; `--drift-tau-fast`/`--drift-tau-slow`
//! set the retention time-constant range (seconds); `--drift-test-hooks`
//! enables `POST /admin/advance-time` for CI drift smoke tests.

use std::process::ExitCode;
use std::time::Duration;
use xbar_serve::{signals, ServeConfig, Server};

struct Args {
    artifact: String,
    cfg: ServeConfig,
    trace_out: Option<String>,
}

fn usage() -> &'static str {
    "usage: serve --artifact <path.xbarmdl> [--addr HOST:PORT]\n\
     \x20             [--replicas N] [--max-connections N] [--admission-limit N]\n\
     \x20             [--batch-size N] [--queue-cap N] [--timeout-ms N]\n\
     \x20             [--trace-sample N] [--slow-ms N] [--trace-out PATH]\n\
     \x20             [--sweep-interval-ms N] [--probe-count N]\n\
     \x20             [--drift-tau-fast S] [--drift-tau-slow S] [--drift-test-hooks]\n\
     \x20 --replicas N inference replicas\n\
     \x20 --max-connections caps concurrently open connections\n\
     \x20 --admission-limit caps in-flight classifies (0 = auto-size)\n\
     \x20 --batch-size N caps a micro-batch; an idle replica takes what is\n\
     \x20   queued, up to N, without waiting for more (default 32)\n\
     \x20 --trace-sample N traces 1-in-N classify requests (0 = off)\n\
     \x20 --slow-ms N dumps requests slower than N ms to stderr (0 = off)\n\
     \x20 --trace-out PATH writes the JSONL observability sink at shutdown\n\
     \x20 --sweep-interval-ms N runs a drift health sweep every N ms (0 = off)\n\
     \x20 --probe-count N sets the health-sweep probe set size\n\
     \x20 --drift-tau-fast/--drift-tau-slow set retention tau range (seconds)\n\
     \x20 --drift-test-hooks enables POST /admin/advance-time (tests only)"
}

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, name: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{name} needs a value"))
}

fn next_usize(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<usize, String> {
    let raw = next_value(it, name)?;
    raw.parse::<usize>()
        .map_err(|_| format!("{name}: {raw:?} is not a non-negative integer"))
}

fn next_f64(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<f64, String> {
    let raw = next_value(it, name)?;
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!("{name}: {raw:?} is not a positive number")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut artifact = None;
    let mut trace_out = None;
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServeConfig::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--artifact" => artifact = Some(next_value(&mut it, "--artifact")?.to_string()),
            "--addr" => cfg.addr = next_value(&mut it, "--addr")?.to_string(),
            "--replicas" => cfg.replicas = next_usize(&mut it, "--replicas")?.max(1),
            "--max-connections" => {
                cfg.max_connections = next_usize(&mut it, "--max-connections")?.max(1);
            }
            "--admission-limit" => {
                cfg.admission_limit = next_usize(&mut it, "--admission-limit")?;
            }
            "--batch-size" => {
                cfg.max_batch = next_usize(&mut it, "--batch-size")?.max(1);
            }
            "--queue-cap" => {
                cfg.queue_cap = next_usize(&mut it, "--queue-cap")?.max(1);
            }
            "--timeout-ms" => {
                cfg.request_timeout =
                    Duration::from_millis(next_usize(&mut it, "--timeout-ms")?.max(1) as u64);
            }
            "--trace-sample" => {
                cfg.trace_sample = next_usize(&mut it, "--trace-sample")? as u64;
            }
            "--slow-ms" => {
                cfg.slow_ms = next_usize(&mut it, "--slow-ms")? as u64;
            }
            "--trace-out" => {
                trace_out = Some(next_value(&mut it, "--trace-out")?.to_string());
            }
            "--sweep-interval-ms" => {
                cfg.lifecycle.sweep_interval =
                    Duration::from_millis(next_usize(&mut it, "--sweep-interval-ms")? as u64);
            }
            "--probe-count" => {
                cfg.lifecycle.probe_count = next_usize(&mut it, "--probe-count")?.max(1);
            }
            "--drift-tau-fast" => {
                cfg.lifecycle.tau_fast = next_f64(&mut it, "--drift-tau-fast")?;
            }
            "--drift-tau-slow" => {
                cfg.lifecycle.tau_slow = next_f64(&mut it, "--drift-tau-slow")?;
            }
            "--drift-test-hooks" => cfg.lifecycle.test_hooks = true,
            "--help" | "-h" => return Err(usage().into()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    let artifact = artifact.ok_or_else(|| format!("--artifact is required\n{}", usage()))?;
    Ok(Args {
        artifact,
        cfg,
        trace_out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // mmap, not read: weights deserialise straight out of the page cache.
    let xbar_core::ArtifactBundle { model, meta } =
        match xbar_core::load_artifact_bundle_mmap(&args.artifact) {
            Ok(loaded) => loaded,
            Err(e) => {
                eprintln!("cannot load artifact {:?}: {e}", args.artifact);
                return ExitCode::FAILURE;
            }
        };
    eprintln!(
        "loaded {:?}: {} ({} classes, input {:?}, {} crossbars of {}x{}, method {}, mean NF {:.4})",
        args.artifact,
        meta.label,
        meta.num_classes,
        meta.input_shape,
        meta.crossbar_count,
        meta.rows,
        meta.cols,
        meta.method,
        meta.mean_nf,
    );
    if args.cfg.lifecycle.active() {
        eprintln!(
            "drift lifecycle: sweep interval {:?}, {} probes, tau [{:.0}, {:.0}] s{}",
            args.cfg.lifecycle.sweep_interval,
            args.cfg.lifecycle.probe_count,
            args.cfg.lifecycle.tau_fast,
            args.cfg.lifecycle.tau_slow,
            if args.cfg.lifecycle.test_hooks {
                ", test hooks on"
            } else {
                ""
            },
        );
    }
    signals::install();
    let trace_sample = args.cfg.trace_sample;
    let server = match Server::start(model, meta, args.cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // CI and scripts parse this line for the resolved port.
    println!("listening on http://{}", server.local_addr());
    server.run_until_shutdown();
    if let Some(path) = args.trace_out {
        let run = xbar_obs::sink::RunInfo::new("serve")
            .config("artifact", &args.artifact)
            .config("trace_sample", trace_sample);
        match xbar_obs::sink::write_jsonl(&path, &run) {
            Ok(()) => eprintln!("wrote trace sink to {path:?}"),
            Err(e) => eprintln!("cannot write trace sink {path:?}: {e}"),
        }
    }
    eprintln!("shutdown complete");
    ExitCode::SUCCESS
}
