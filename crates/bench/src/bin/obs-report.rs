//! `obs-report` — turn observability output into human-readable reports.
//!
//! ```text
//! obs-report --trace results/serve_trace.jsonl            # phase table
//! obs-report --trace run.jsonl --chrome trace.json        # Perfetto export
//! obs-report --check-prom metrics.txt                     # validate scrape
//! ```
//!
//! `--trace` ingests a JSONL sink written by `--trace-out` (see
//! `xbar_obs::sink`) and prints a per-phase wall-time breakdown (depth-0
//! spans aggregated by name) plus quantiles for every histogram in the
//! file. `--chrome` additionally converts the spans and
//! events into a Chrome-trace JSON loadable in `chrome://tracing` or
//! ui.perfetto.dev. `--check-prom` parses a Prometheus text-format scrape
//! (e.g. `curl .../metrics`) and exits nonzero if it is malformed — CI runs
//! it against the live `/metrics` endpoint during the smoke test.

use std::collections::BTreeMap;
use std::process::ExitCode;
use xbar_bench::report::Table;
use xbar_obs::chrome::chrome_trace;
use xbar_obs::json::Json;
use xbar_obs::metrics::validate_prometheus_text;
use xbar_obs::sink::parse_jsonl_metrics;
use xbar_obs::trace::{EventRecord, FieldValue, SpanRecord};

fn usage() -> &'static str {
    "usage: obs-report [--trace <sink.jsonl>] [--chrome <out.json>]\n\
     \x20                 [--check-prom <metrics.txt>]\n\
     \x20 --trace      print the per-phase wall-time breakdown of a JSONL sink\n\
     \x20 --chrome     also convert the sink to Chrome-trace JSON (needs --trace)\n\
     \x20 --check-prom validate a Prometheus text-format scrape (nonzero on error)"
}

/// Converts a parsed JSONL `fields` object back into span fields. Names in
/// [`SpanRecord`] are `&'static str` (interned literals in-process), so
/// parsed names are leaked — fine for a short-lived report tool.
fn parse_fields(doc: &Json) -> Vec<(&'static str, FieldValue)> {
    let Json::Obj(pairs) = doc else {
        return Vec::new();
    };
    pairs
        .iter()
        .map(|(k, v)| {
            let key: &'static str = Box::leak(k.clone().into_boxed_str());
            let value = match v {
                Json::Num(n) => FieldValue::F64(*n),
                Json::Bool(b) => FieldValue::Bool(*b),
                Json::Str(s) => FieldValue::Str(s.clone()),
                other => FieldValue::Str(other.to_json()),
            };
            (key, value)
        })
        .collect()
}

/// The span and event lines of a JSONL sink.
fn parse_trace(text: &str) -> Result<(Vec<SpanRecord>, Vec<EventRecord>), String> {
    let mut spans = Vec::new();
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = doc.get("type").and_then(Json::as_str).unwrap_or("");
        if kind != "span" && kind != "event" {
            continue;
        }
        let name: &'static str = Box::leak(
            doc.get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: {kind} without a name", lineno + 1))?
                .to_string()
                .into_boxed_str(),
        );
        let field = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        let fields = doc.get("fields").map(parse_fields).unwrap_or_default();
        if kind == "span" {
            spans.push(SpanRecord {
                name,
                fields,
                thread: field("thread"),
                depth: field("depth") as u32,
                start_us: field("start_us"),
                duration_us: field("duration_us"),
            });
        } else {
            events.push(EventRecord {
                name,
                fields,
                thread: field("thread"),
                depth: field("depth") as u32,
                at_us: field("at_us"),
            });
        }
    }
    Ok((spans, events))
}

/// Prints the per-phase wall-time table: depth-0 spans aggregated by name,
/// in order of first start — the same aggregation as
/// `xbar_obs::sink::phase_summaries`, but over a file instead of the live
/// process buffer.
fn print_phase_table(spans: &[SpanRecord]) {
    let mut order: Vec<&str> = Vec::new();
    let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut sorted: Vec<&SpanRecord> = spans.iter().filter(|s| s.depth == 0).collect();
    sorted.sort_by_key(|s| s.start_us);
    for span in &sorted {
        if !agg.contains_key(span.name) {
            order.push(span.name);
        }
        let entry = agg.entry(span.name).or_insert((0, 0));
        entry.0 += span.duration_us;
        entry.1 += 1;
    }
    let total_us: u64 = agg.values().map(|(us, _)| us).sum();
    let mut table = Table::new(
        "Per-phase wall time",
        &["Phase", "Total (s)", "Share (%)", "Count", "Mean (ms)"],
    );
    for name in order {
        let (us, count) = agg[name];
        table.push_row(vec![
            name.to_string(),
            format!("{:.3}", us as f64 / 1e6),
            format!("{:.1}", 100.0 * us as f64 / (total_us.max(1)) as f64),
            count.to_string(),
            format!("{:.2}", us as f64 / 1e3 / count.max(1) as f64),
        ]);
    }
    println!("{}", table.to_markdown());
}

/// Prints quantiles of every histogram in the sink, each in the unit its
/// series name carries (µs, a count, ppm).
fn print_histogram_table(text: &str) -> Result<(), String> {
    let snap = parse_jsonl_metrics(text)?;
    if snap.histograms.is_empty() {
        return Ok(());
    }
    let mut table = Table::new(
        "Histograms",
        &["Series", "Count", "p50", "p90", "p99", "Max", "Mean"],
    );
    for (name, h) in &snap.histograms {
        table.push_row(vec![
            name.clone(),
            h.count().to_string(),
            h.quantile(0.50).to_string(),
            h.quantile(0.90).to_string(),
            h.quantile(0.99).to_string(),
            if h.is_empty() { 0 } else { h.max() }.to_string(),
            format!("{:.0}", h.mean()),
        ]);
    }
    println!("{}", table.to_markdown());
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    let mut trace = None;
    let mut chrome = None;
    let mut check_prom = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--trace" => trace = Some(value("--trace")?),
            "--chrome" => chrome = Some(value("--chrome")?),
            "--check-prom" => check_prom = Some(value("--check-prom")?),
            "--help" | "-h" => return Err(usage().into()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if trace.is_none() && check_prom.is_none() {
        return Err(format!("nothing to do\n{}", usage()));
    }
    if chrome.is_some() && trace.is_none() {
        return Err(format!("--chrome needs --trace\n{}", usage()));
    }

    if let Some(path) = trace {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let (spans, events) = parse_trace(&text)?;
        eprintln!("{path}: {} span(s), {} event(s)", spans.len(), events.len());
        print_phase_table(&spans);
        print_histogram_table(&text)?;
        if let Some(out) = chrome {
            let doc = chrome_trace(&spans, &events, &BTreeMap::new());
            std::fs::write(&out, doc.to_json())
                .map_err(|e| format!("cannot write {out:?}: {e}"))?;
            println!("chrome trace written to {out} (load in chrome://tracing or ui.perfetto.dev)");
        }
    }
    if let Some(path) = check_prom {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let series = validate_prometheus_text(&text)
            .map_err(|e| format!("{path}: invalid Prometheus exposition: {e}"))?;
        println!("{path}: OK ({series} samples)");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
