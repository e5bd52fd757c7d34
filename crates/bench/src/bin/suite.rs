//! One-command regeneration of every table and figure: enumerates the
//! artifact registry, trains each unique scenario exactly once, runs the
//! artifact generators concurrently with per-task timeouts and isolation,
//! and writes `suite.json` into the results directory (`XBAR_RESULTS_DIR`,
//! else the workspace `results/`). See `xbar_bench::suite` for the
//! orchestration semantics (resume, exclusivity, gate).
//!
//! Usage: `cargo run --release -p xbar-bench --bin suite --
//! [--smoke|--quick|--full] [--seed N] [--gate] [--fresh] [--list]
//! [--only a,b,...] [--skip a,b,...] [--fail a,b,...] [--timeout SECS]
//! [--tolerance F] [--workers N] [--quiet] [--trace-out <path>]`
//!
//! * `--gate` — exit nonzero on any failed artifact, regression vs the
//!   committed `BENCH_map.json`, `BENCH_solve.json` or `BENCH_serve.json`,
//!   or generate-phase training miss.
//! * `--fresh` — ignore a previous `suite.json` (no resume).
//! * `--fail` — replace the named artifacts' runs with injected failures
//!   (exercises the isolation/gate paths; used by tests and CI dry runs).
//!
//! Exit codes: 0 success, 1 artifact/gate failure, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use xbar_bench::report::Table;
use xbar_bench::runner::{Arity, RunContext};
use xbar_bench::suite::{default_timeout, run_suite, suite_json_path, SuiteConfig};
use xbar_bench::{artifacts, ExperimentScale};

fn parse_names(raw: Option<&str>) -> Vec<String> {
    raw.map(|s| {
        s.split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(str::to_string)
            .collect()
    })
    .unwrap_or_default()
}

fn list_registry(results: PathBuf) {
    let ctx = artifacts::ArtifactCtx::new(ExperimentScale::smoke(), "smoke", 42, results);
    let mut table = Table::new(
        "Suite artifacts",
        &["Artifact", "Reproduces", "Scenarios", "Exclusive"],
    );
    for spec in artifacts::registry() {
        table.push_row(vec![
            spec.name.to_string(),
            spec.paper_ref.to_string(),
            (spec.scenarios)(&ctx).len().to_string(),
            if spec.exclusive { "yes" } else { "no" }.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());
}

fn main() -> ExitCode {
    let mut ctx = RunContext::init(
        "suite",
        &[
            ("--gate", Arity::Flag),
            ("--fresh", Arity::Flag),
            ("--list", Arity::Flag),
            ("--only", Arity::Value),
            ("--skip", Arity::Value),
            ("--fail", Arity::Value),
            ("--timeout", Arity::Value),
            ("--tolerance", Arity::Value),
            ("--workers", Arity::Value),
        ],
    );
    if ctx.args.is_set("--list") {
        list_registry(ctx.args.results.clone());
        return ExitCode::SUCCESS;
    }
    // The suite prints its own one-line-per-artifact progress; the live
    // span/event echo of up to `workers` interleaved artifact runs is noise.
    xbar_obs::sink::stderr_echo(false);

    let mut cfg = SuiteConfig::new(
        ctx.args.scale,
        ctx.args.scale_name,
        ctx.args.results.clone(),
    );
    cfg.seed = ctx.args.seed;
    cfg.gate = ctx.args.is_set("--gate");
    cfg.fresh = ctx.args.is_set("--fresh");
    cfg.only = parse_names(ctx.args.get("--only"));
    cfg.skip = parse_names(ctx.args.get("--skip"));
    cfg.fail = parse_names(ctx.args.get("--fail"));
    cfg.progress = !ctx.args.quiet;
    if let Some(raw) = ctx.args.get("--timeout") {
        match raw.parse::<u64>() {
            Ok(secs) if secs > 0 => cfg.timeout = std::time::Duration::from_secs(secs),
            _ => {
                eprintln!("error: --timeout must be a positive integer (seconds)");
                return ExitCode::from(2);
            }
        }
    } else {
        cfg.timeout = default_timeout(ctx.args.scale_name);
    }
    if let Some(raw) = ctx.args.get("--tolerance") {
        match raw.parse::<f64>() {
            Ok(t) if (0.0..1.0).contains(&t) => cfg.tolerance = t,
            _ => {
                eprintln!("error: --tolerance must be a fraction in [0, 1)");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(raw) = ctx.args.get("--workers") {
        match raw.parse::<usize>() {
            Ok(n) if n > 0 => cfg.workers = n,
            _ => {
                eprintln!("error: --workers must be a positive integer");
                return ExitCode::from(2);
            }
        }
    }
    ctx.config("gate", cfg.gate);
    ctx.config("workers", cfg.workers);
    ctx.config("timeout_s", cfg.timeout.as_secs());

    let report = match run_suite(&cfg) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };

    let mut table = Table::new(
        format!(
            "Suite run: {} scale, seed {}, {} worker(s), {:.1}s",
            report.scale, report.seed, report.workers, report.wall_s
        ),
        &["Artifact", "Reproduces", "Status", "Wall (s)", "Outputs"],
    );
    for a in &report.artifacts {
        table.push_row(vec![
            a.name.clone(),
            a.paper_ref.clone(),
            a.status.as_str().to_string(),
            format!("{:.1}", a.wall_s),
            a.outputs.len().to_string(),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "scenarios: {} unique | prepare {} trained / {} cached | \
         generate {} cached / {} retrained",
        report.scenarios.unique,
        report.scenarios.prepare_misses,
        report.scenarios.prepare_hits,
        report.scenarios.generate_hits,
        report.scenarios.generate_misses,
    );
    let report_path = suite_json_path(&cfg.results);
    println!("[suite report written to {}]", report_path.display());
    for failure in &report.gate_failures {
        eprintln!("FAIL: {failure}");
    }
    ctx.finish();
    if report.failed() {
        eprintln!(
            "suite: {} failure(s); see {}",
            report.gate_failures.len(),
            report_path.display()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
