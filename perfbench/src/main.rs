//! The repository benchmark. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload <train|map|serve> [--seed N] [--seconds S]
//!           [--trace 0|1] [--out DIR]
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark compare <dirA> <dirB> [--bench BENCHMARK.json]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`). Without it, runs every
//! workload in a fresh child process of its own. `compare` judges two
//! directories of run reports against the bounds in `BENCHMARK.json`.

mod compare;
mod http;
mod metrics;
mod prom;
mod provenance;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Ctx, Outcome};
use xbar_obs::json::Json;

const USAGE: &str = "usage: benchmark [--workload train|map|serve] [--seed N] \
                     [--seconds S] [--trace 0|1] [--out DIR]\n       \
                     benchmark compare <dirA> <dirB> [--bench BENCHMARK.json]";

/// Spans kept in the Chrome trace file (the aggregates use all of them).
const CHROME_SPAN_LIMIT: usize = 20_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 35.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::ALL.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let result = match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare_main(argv: &[String]) -> ExitCode {
    let (dirs, bench) = match argv {
        [a, b] => ((a, b), Path::new("BENCHMARK.json")),
        [a, b, flag, path] if flag == "--bench" => ((a, b), Path::new(path.as_str())),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match compare::run(Path::new(dirs.0), Path::new(dirs.1), bench) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process; returns whether every check passed.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out: args.out.clone(),
        serve_bin: exe.with_file_name(format!("serve{}", std::env::consts::EXE_SUFFIX)),
    };
    if workload == "serve" && !ctx.serve_bin.exists() {
        return Err(format!(
            "{} is missing: build it with the benchmark (perfbench/run.sh)",
            ctx.serve_bin.display()
        ));
    }
    let provenance = provenance::collect(workload, args.seed, args.seconds, args.trace);
    let outcome: Outcome = match workload {
        "train" => workloads::train::run(&ctx),
        "map" => workloads::map::run(&ctx),
        "serve" => workloads::serve::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    let defs = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let metrics = outcome.metrics.to_json(&defs)?;
    let correct = outcome.checks.all_pass();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), metrics.clone()),
    ]);

    let stem = format!(
        "{workload}-seed{}{}",
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    let report = Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("digest".into(), Json::Str(outcome.digest.hex())),
        ("metrics".into(), metrics),
        (
            "checks".into(),
            Json::Arr(
                outcome
                    .checks
                    .0
                    .iter()
                    .map(|(name, ok)| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(name.clone())),
                            ("ok".into(), Json::Bool(*ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "phases_s".into(),
            Json::Obj(
                outcome
                    .phases
                    .iter()
                    .map(|(name, s)| (name.clone(), Json::Num(*s)))
                    .collect(),
            ),
        ),
        ("provenance".into(), provenance.clone()),
    ]);
    write(
        &args.out.join(format!("{stem}.json")),
        &report.to_json_pretty(),
    )?;
    if args.trace {
        write(
            &args.out.join(format!("{stem}.chrome.json")),
            &trace::chrome_json(&outcome.spans, CHROME_SPAN_LIMIT),
        )?;
        write(
            &args.out.join(format!("{stem}.layer_metrics.json")),
            &report.get("metrics").expect("metrics").to_json_pretty(),
        )?;
    }

    println!("provenance {}", provenance.to_json());
    println!(
        "{workload} seed {}: {} of {} checks passed, digest {}, {} attempted, {} failed",
        args.seed,
        outcome.checks.0.iter().filter(|(_, ok)| *ok).count(),
        outcome.checks.0.len(),
        outcome.digest.hex(),
        outcome.attempted,
        outcome.failed
    );
    for (name, unit, _) in &defs {
        let v = outcome.metrics.get(name).unwrap_or(f64::NAN);
        println!("  {name:<28} {v:>14.6} {unit}");
    }
    println!("{}", result.to_json());
    Ok(correct)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs every workload in a child process of its own, so the solve cache,
/// metrics registry and thread settings never leak between workloads and
/// each reports its own peak memory.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut merged = Vec::new();
    for w in workloads::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run workload {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let Some(result) = result.filter(|_| child.status.success()) else {
            eprintln!("workload {w} failed ({})", child.status);
            all_correct = false;
            continue;
        };
        all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(Json::Obj(ms)) = result.get("metrics") {
            merged.extend(ms.iter().map(|(k, v)| (format!("{w}.{k}"), v.clone())));
        }
    }
    let summary = Json::Obj(vec![
        ("correct".into(), Json::Bool(all_correct)),
        ("attempted".into(), Json::Num(attempted.max(1.0))),
        ("failed".into(), Json::Num(failed)),
        ("metrics".into(), Json::Obj(merged)),
    ]);
    println!("{}", summary.to_json());
    Ok(all_correct)
}
