//! Output sinks: the live stderr progress reporter and the JSONL
//! run-manifest writer behind `--trace-out`.
//!
//! # JSONL schema
//!
//! One JSON object per line; every line has a `"type"` member:
//!
//! | type        | members                                                              |
//! |-------------|----------------------------------------------------------------------|
//! | `manifest`  | `bin`, `seed`, `scale`, `config` (string→string object), `elapsed_us` |
//! | `span`      | `name`, `thread`, `depth`, `start_us`, `duration_us`, `fields`        |
//! | `event`     | `name`, `thread`, `depth`, `at_us`, `fields`                          |
//! | `counter`   | `name`, `value`                                                       |
//! | `gauge`     | `name`, `value`                                                       |
//! | `loghistogram` | `name`, `sub_bits`, `buckets` (array of `[edge, count]`), `sum`, `min`, `max`, `count` |
//! | `summary`   | `phases`: array of `{name, total_us, count}`                          |
//!
//! `fields` is an object with the `key = value` pairs from the `span!` /
//! `event!` call site. Timestamps are microseconds since the process trace
//! epoch. The `summary` line aggregates depth-0 spans by name, in first-
//! start order — the same data the phase-timing table prints. Readers skip
//! line types they do not know, such as the fixed-bucket `histogram` lines
//! of older files.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::hdr::LogHistogram;
use crate::json::{obj, Json};
use crate::metrics::MetricsSnapshot;
use crate::trace::{self, FieldValue};

/// Enables/disables live progress lines on stderr (events and top-level
/// span completions). Off by default.
pub fn stderr_echo(on: bool) {
    trace::set_stderr_echo(on);
}

/// Identity of a run, written as the JSONL `manifest` line.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// Binary or scenario name (`table1`, `fig3`, …).
    pub bin: String,
    /// Master RNG seed.
    pub seed: u64,
    /// Scale preset name (`smoke`, `quick`, `full`).
    pub scale: String,
    /// Free-form config pairs that make the run reconstructible
    /// (git-describable build, sparsity, crossbar sizes, …).
    pub config: Vec<(String, String)>,
}

impl RunInfo {
    pub fn new(bin: impl Into<String>) -> Self {
        RunInfo {
            bin: bin.into(),
            ..Default::default()
        }
    }

    pub fn config(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.config.push((key.into(), value.to_string()));
        self
    }
}

/// Total time and completion count of one top-level phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    pub name: &'static str,
    pub total_us: u64,
    pub count: u64,
}

/// Aggregates depth-0 spans by name, in order of first start. This is the
/// data behind both the `summary` JSONL line and the phase-timing table.
pub fn phase_summaries() -> Vec<PhaseSummary> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut agg: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut spans = trace::all_spans();
    spans.sort_by_key(|s| s.start_us);
    for span in spans.iter().filter(|s| s.depth == 0) {
        if !agg.contains_key(span.name) {
            order.push(span.name);
        }
        let entry = agg.entry(span.name).or_insert((0, 0));
        entry.0 += span.duration_us;
        entry.1 += 1;
    }
    order
        .into_iter()
        .map(|name| {
            let (total_us, count) = agg[name];
            PhaseSummary {
                name,
                total_us,
                count,
            }
        })
        .collect()
}

fn field_to_json(value: &FieldValue) -> Json {
    match value {
        FieldValue::U64(v) => Json::Num(*v as f64),
        FieldValue::I64(v) => Json::Num(*v as f64),
        FieldValue::F64(v) => Json::Num(*v),
        FieldValue::Bool(v) => Json::Bool(*v),
        FieldValue::Str(v) => Json::Str(v.clone()),
    }
}

pub(crate) fn fields_to_json(fields: &[(&'static str, FieldValue)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), field_to_json(v)))
            .collect(),
    )
}

fn histogram_to_json(name: &str, h: &LogHistogram) -> Json {
    obj(vec![
        ("type", Json::Str("loghistogram".into())),
        ("name", Json::Str(name.into())),
        ("sub_bits", Json::Num(h.sub_bits() as f64)),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .iter()
                    .map(|&(edge, count)| {
                        Json::Arr(vec![Json::Num(edge as f64), Json::Num(count as f64)])
                    })
                    .collect(),
            ),
        ),
        ("sum", Json::Num(h.sum() as f64)),
        (
            "min",
            if h.is_empty() {
                Json::Null
            } else {
                Json::Num(h.min() as f64)
            },
        ),
        (
            "max",
            if h.is_empty() {
                Json::Null
            } else {
                Json::Num(h.max() as f64)
            },
        ),
        ("count", Json::Num(h.count() as f64)),
    ])
}

/// Renders the full trace — manifest, spans, events, metrics, summary — as
/// JSONL text. [`write_jsonl`] wraps this with file output.
pub fn render_jsonl(run: &RunInfo) -> String {
    let mut lines: Vec<Json> = Vec::new();
    lines.push(obj(vec![
        ("type", Json::Str("manifest".into())),
        ("bin", Json::Str(run.bin.clone())),
        ("seed", Json::Num(run.seed as f64)),
        ("scale", Json::Str(run.scale.clone())),
        (
            "config",
            Json::Obj(
                run.config
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "elapsed_us",
            Json::Num(trace::epoch().elapsed().as_micros() as f64),
        ),
    ]));
    for span in trace::all_spans() {
        lines.push(obj(vec![
            ("type", Json::Str("span".into())),
            ("name", Json::Str(span.name.into())),
            ("thread", Json::Num(span.thread as f64)),
            ("depth", Json::Num(span.depth as f64)),
            ("start_us", Json::Num(span.start_us as f64)),
            ("duration_us", Json::Num(span.duration_us as f64)),
            ("fields", fields_to_json(&span.fields)),
        ]));
    }
    for event in trace::all_events() {
        lines.push(obj(vec![
            ("type", Json::Str("event".into())),
            ("name", Json::Str(event.name.into())),
            ("thread", Json::Num(event.thread as f64)),
            ("depth", Json::Num(event.depth as f64)),
            ("at_us", Json::Num(event.at_us as f64)),
            ("fields", fields_to_json(&event.fields)),
        ]));
    }
    let metrics = crate::metrics::snapshot();
    for (name, value) in &metrics.counters {
        lines.push(obj(vec![
            ("type", Json::Str("counter".into())),
            ("name", Json::Str(name.clone())),
            ("value", Json::Num(*value as f64)),
        ]));
    }
    for (name, value) in &metrics.gauges {
        lines.push(obj(vec![
            ("type", Json::Str("gauge".into())),
            ("name", Json::Str(name.clone())),
            ("value", Json::Num(*value)),
        ]));
    }
    for (name, histogram) in &metrics.histograms {
        lines.push(histogram_to_json(name, histogram));
    }
    lines.push(obj(vec![
        ("type", Json::Str("summary".into())),
        (
            "phases",
            Json::Arr(
                phase_summaries()
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("name", Json::Str(p.name.into())),
                            ("total_us", Json::Num(p.total_us as f64)),
                            ("count", Json::Num(p.count as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
    let mut out = String::new();
    for line in lines {
        out.push_str(&line.to_json());
        out.push('\n');
    }
    out
}

/// Writes the full trace as JSONL to `path`, creating parent directories.
pub fn write_jsonl(path: impl AsRef<Path>, run: &RunInfo) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_jsonl(run).as_bytes())?;
    file.flush()
}

/// Parses the metric lines out of JSONL text back into a
/// [`MetricsSnapshot`] — the inverse of the metric part of
/// [`render_jsonl`], used by round-trip tests and downstream tooling.
pub fn parse_jsonl_metrics(text: &str) -> Result<MetricsSnapshot, String> {
    let mut snap = MetricsSnapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing type", lineno + 1))?;
        let name = || -> Result<String, String> {
            doc.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing name", lineno + 1))
        };
        match kind {
            "counter" => {
                let value = doc
                    .get("value")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("line {}: bad counter value", lineno + 1))?;
                snap.counters.insert(name()?, value);
            }
            "gauge" => {
                let value = doc
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {}: bad gauge value", lineno + 1))?;
                snap.gauges.insert(name()?, value);
            }
            "loghistogram" => {
                let sub_bits = doc
                    .get("sub_bits")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("line {}: missing sub_bits", lineno + 1))?;
                let mut buckets = Vec::new();
                for pair in doc
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("line {}: missing buckets", lineno + 1))?
                {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| format!("line {}: bad bucket pair", lineno + 1))?;
                    let edge = pair[0]
                        .as_u64()
                        .ok_or_else(|| format!("line {}: bad bucket edge", lineno + 1))?;
                    let count = pair[1]
                        .as_u64()
                        .ok_or_else(|| format!("line {}: bad bucket count", lineno + 1))?;
                    buckets.push((edge, count));
                }
                let h = LogHistogram::restore(
                    sub_bits as u32,
                    &buckets,
                    doc.get("sum").and_then(Json::as_u64).unwrap_or(0) as u128,
                    doc.get("min").and_then(Json::as_u64).unwrap_or(u64::MAX),
                    doc.get("max").and_then(Json::as_u64).unwrap_or(0),
                )
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                snap.histograms.insert(name()?, h);
            }
            _ => {}
        }
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, span};

    #[test]
    fn jsonl_metrics_round_trip() {
        metrics::counter_add("test/sink/tiles", 7);
        metrics::gauge_set("test/sink/nf", 1.4375);
        for v in [3, 9, 150] {
            metrics::latency_record_us("test/sink/iters", v);
        }
        for us in [5u64, 800, 42_000] {
            metrics::latency_record_us("test/sink/lat_us", us);
        }
        let run = RunInfo::new("unit")
            .config("sparsity", 0.8)
            .config("git", "deadbeef");
        let text = render_jsonl(&run);
        // Manifest first, summary last.
        let first = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("manifest"));
        assert_eq!(first.get("bin").unwrap().as_str(), Some("unit"));
        assert_eq!(
            first
                .get("config")
                .unwrap()
                .get("sparsity")
                .unwrap()
                .as_str(),
            Some("0.8")
        );
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("type").unwrap().as_str(), Some("summary"));

        let snap = parse_jsonl_metrics(&text).expect("parses back");
        let full = metrics::snapshot();
        assert_eq!(
            snap.counters["test/sink/tiles"],
            full.counters["test/sink/tiles"]
        );
        assert_eq!(snap.gauges["test/sink/nf"], full.gauges["test/sink/nf"]);
        assert_eq!(
            snap.histograms["test/sink/iters"],
            full.histograms["test/sink/iters"]
        );
        assert_eq!(
            snap.histograms["test/sink/lat_us"],
            full.histograms["test/sink/lat_us"]
        );
    }

    #[test]
    fn fixed_bucket_histogram_lines_of_older_files_are_skipped() {
        let text = "{\"type\":\"histogram\",\"name\":\"sim/nf_column\",\"bounds\":[0.1],\
                    \"counts\":[2,0],\"sum\":0.1,\"min\":0.05,\"max\":0.05,\"count\":2}\n\
                    {\"type\":\"counter\",\"name\":\"map/crossbars\",\"value\":3}\n";
        let snap = parse_jsonl_metrics(text).expect("an unknown line type is not an error");
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.counters["map/crossbars"], 3);
    }

    #[test]
    fn write_jsonl_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!(
            "xbar-obs-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let path = dir.join("nested/trace.jsonl");
        write_jsonl(&path, &RunInfo::new("unit")).expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(text.lines().count() >= 2, "manifest + summary at least");
        for line in text.lines() {
            Json::parse(line).expect("every line parses");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phase_summary_aggregates_repeated_phases() {
        // Runs on its own thread names; global state shared with other
        // tests, so only assert on our own span names.
        {
            let _a = span!("test_sink_phase_x");
        }
        {
            let _b = span!("test_sink_phase_x");
        }
        let phases = phase_summaries();
        let x = phases
            .iter()
            .find(|p| p.name == "test_sink_phase_x")
            .expect("phase aggregated");
        assert!(x.count >= 2);
    }
}
