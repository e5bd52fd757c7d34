//! Metrics registry: named counters, gauges and log-bucketed histograms
//! behind a process-global, thread-safe store.
//!
//! Names are slash-separated paths (`sim/tile_solve_us`,
//! `map/layer3/nf_mean`) declared in [`crate::names`]; in debug builds the
//! recording functions reject names missing from that registry, so a typo
//! fails a test instead of silently minting a phantom series. `BTreeMap`
//! storage keeps snapshots and JSONL output deterministically ordered.
//!
//! Every distribution is a [`LogHistogram`] of non-negative integers
//! (whole `u64` range, ~3% relative error, no bounds to choose), recorded
//! through [`latency_record_us`] or, many samples under one lock,
//! [`latency_record_all`]. A series whose values are fractional
//! records them in a scaled integer unit that its name carries
//! (`sim/nf_column_ppm`).

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::hdr::LogHistogram;
use crate::names;

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

// Each recorder looks its series up before inserting, so only a series'
// first use allocates a key: `entry` would build a `String` on every
// update, under the lock every recording thread shares.

/// Adds `delta` to the named counter (creating it at zero).
pub fn counter_add(name: &str, delta: u64) {
    names::assert_registered(name);
    let mut reg = registry().lock().expect("metrics registry poisoned");
    match reg.counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            reg.counters.insert(name.to_string(), delta);
        }
    }
}

/// Sets the named gauge to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    names::assert_registered(name);
    let mut reg = registry().lock().expect("metrics registry poisoned");
    match reg.gauges.get_mut(name) {
        Some(g) => *g = value,
        None => {
            reg.gauges.insert(name.to_string(), value);
        }
    }
}

/// Records one non-negative integer sample: µs, a count or ppm, as the
/// series name says. The named histogram is created at default resolution
/// on first use.
pub fn latency_record_us(name: &str, value: u64) {
    latency_record_all(name, [value]);
}

/// Records every sample of `values` into the named histogram under one
/// registry lock, as [`latency_record_us`] would one at a time.
pub fn latency_record_all(name: &str, values: impl IntoIterator<Item = u64>) {
    names::assert_registered(name);
    let mut reg = registry().lock().expect("metrics registry poisoned");
    let histograms = &mut reg.histograms;
    let h = match histograms.get_mut(name) {
        Some(h) => h,
        None => histograms.entry(name.to_string()).or_default(),
    };
    for v in values {
        h.record(v);
    }
}

/// Point-in-time copy of the whole registry, deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, LogHistogram>,
}

pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock().expect("metrics registry poisoned");
    MetricsSnapshot {
        counters: reg.counters.clone(),
        gauges: reg.gauges.clone(),
        histograms: reg.histograms.clone(),
    }
}

/// Rewrites a metric path to the Prometheus name charset
/// (`[a-zA-Z0-9_]`, slashes and other punctuation become `_`).
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `name value` line per counter and gauge, and for each histogram
    /// cumulative `_bucket{le="..."}` lines over its non-empty buckets plus
    /// `_sum` and `_count`. Slashes in metric names are rewritten to
    /// underscores and `BTreeMap` iteration keeps series order
    /// deterministic, so the output always parses (see
    /// [`parse_prometheus_text`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (edge, count) in hist.nonzero_buckets() {
                cumulative += count;
                out.push_str(&format!("{name}_bucket{{le=\"{edge}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            out.push_str(&format!("{name}_sum {}\n", hist.sum()));
            out.push_str(&format!("{name}_count {}\n", hist.count()));
        }
        out
    }
}

/// Renders the current process-global registry as text (see
/// [`MetricsSnapshot::to_text`]) — the body of an HTTP `/metrics` endpoint.
pub fn to_text() -> String {
    snapshot().to_text()
}

/// One parsed sample line from Prometheus exposition text.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    pub name: String,
    /// `(label, unescaped value)` pairs in declaration order.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses Prometheus text exposition format into samples, rejecting any
/// line the scrape format would reject (the round-trip guard behind
/// `/metrics` tests and the `obs-report --check-prom` CI step). Comment
/// (`#`) and blank lines are skipped.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", lineno + 1);
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value_text) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("expected 'name value'"))?;
        let value = match value_text {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            other => other
                .parse::<f64>()
                .map_err(|_| err("unparseable sample value"))?,
        };
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set"))?;
                (name.to_string(), parse_labels(body).map_err(|m| err(&m))?)
            }
        };
        if !valid_metric_name(&name) {
            return Err(err("invalid metric name"));
        }
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let bytes = body.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() {
        let eq = body[pos..]
            .find('=')
            .map(|i| pos + i)
            .ok_or("label without '='")?;
        let key = &body[pos..eq];
        if !valid_metric_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        if bytes.get(eq + 1) != Some(&b'"') {
            return Err("label value not quoted".into());
        }
        let mut value = String::new();
        let mut i = eq + 2;
        loop {
            match bytes.get(i) {
                None => return Err("unterminated label value".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    match bytes.get(i + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("bad escape in label value".into()),
                    }
                    i += 2;
                }
                Some(_) => {
                    let rest = &body[i..];
                    let c = rest.chars().next().expect("non-empty by match");
                    value.push(c);
                    i += c.len_utf8();
                }
            }
        }
        labels.push((key.to_string(), value));
        pos = i + 1; // past closing quote
        match bytes.get(pos) {
            None => break,
            Some(b',') => pos += 1,
            Some(_) => return Err("expected ',' between labels".into()),
        }
    }
    Ok(labels)
}

/// Validates that `text` is scrapeable Prometheus exposition output.
/// Returns the number of sample lines on success.
pub fn validate_prometheus_text(text: &str) -> Result<usize, String> {
    parse_prometheus_text(text).map(|samples| samples.len())
}

/// Reads a single counter (0 if absent) — convenience for tests/reports.
pub fn counter_value(name: &str) -> u64 {
    registry()
        .lock()
        .expect("metrics registry poisoned")
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not declared")]
    fn unregistered_metric_name_rejected_in_debug() {
        counter_add("serve/definitely_a_typo", 1);
    }

    #[test]
    fn recorded_samples_read_back_with_quantiles() {
        for us in [100u64, 200, 400, 800, 100_000] {
            latency_record_us("test/metrics/lat_us", us);
        }
        let snap = snapshot();
        let h = &snap.histograms["test/metrics/lat_us"];
        assert_eq!(h.count(), 5);
        let p50 = h.quantile(0.5);
        assert!(p50 >= 400 && p50 - 400 <= h.bucket_width(400), "p50={p50}");
        assert!(!snap.histograms.contains_key("test/metrics/absent"));
    }

    #[test]
    fn text_exposition_renders_all_metric_kinds() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("serve/requests".into(), 7);
        snap.gauges.insert("serve/up".into(), 1.0);
        let mut h = LogHistogram::default();
        h.record(1);
        h.record(2);
        h.record(9);
        snap.histograms.insert("serve/batch_size".into(), h);
        let mut lh = LogHistogram::default();
        lh.record(100);
        lh.record(100_000);
        snap.histograms.insert("serve/infer_us".into(), lh);
        let text = snap.to_text();
        assert!(text.contains("serve_requests 7"), "{text}");
        assert!(text.contains("serve_up 1"), "{text}");
        assert!(
            text.contains("serve_batch_size_bucket{le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("serve_batch_size_bucket{le=\"2\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("serve_batch_size_bucket{le=\"9\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("serve_batch_size_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("serve_batch_size_sum 12"), "{text}");
        assert!(text.contains("serve_batch_size_count 3"), "{text}");
        assert!(text.contains("# TYPE serve_batch_size histogram"), "{text}");
        assert!(text.contains("# TYPE serve_infer_us histogram"), "{text}");
        assert!(text.contains("serve_infer_us_count 2"), "{text}");
        assert!(
            text.contains("serve_infer_us_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn text_exposition_is_deterministic_and_ordered() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("b/two".into(), 2);
        snap.counters.insert("a/one".into(), 1);
        snap.gauges.insert("z/late".into(), 0.5);
        let text = snap.to_text();
        assert_eq!(text, snap.to_text(), "same snapshot, same text");
        let a = text.find("a_one 1").unwrap();
        let b = text.find("b_two 2").unwrap();
        assert!(a < b, "counters render in sorted name order");
    }

    #[test]
    fn sanitize_never_emits_leading_digit() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("0weird/name".into(), 1);
        let text = snap.to_text();
        assert!(text.contains("_0weird_name 1"), "{text}");
        validate_prometheus_text(&text).expect("still parseable");
    }

    #[test]
    fn label_values_escape_and_round_trip() {
        // A quote, a backslash and a newline, each backslash-escaped the
        // way the exposition format writes them.
        let line = "m_bucket{le=\"a\\\"b\\\\c\\nd\"} 4\n";
        let samples = parse_prometheus_text(line).expect("parses");
        assert_eq!(samples.len(), 1);
        assert_eq!(
            samples[0].labels,
            vec![("le".into(), "a\"b\\c\nd".to_string())]
        );
        assert_eq!(samples[0].value, 4.0);
    }

    #[test]
    fn exposition_round_trips_through_parser() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("serve/requests".into(), 7);
        snap.gauges.insert("serve/nf".into(), 1.25);
        let mut h = LogHistogram::default();
        h.record(1);
        snap.histograms.insert("sim/widths".into(), h);
        let mut lh = LogHistogram::default();
        lh.record(12345);
        snap.histograms.insert("serve/lat_us".into(), lh);
        let samples = parse_prometheus_text(&snap.to_text()).expect("parses");
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(get("serve_requests").value, 7.0);
        assert_eq!(get("serve_nf").value, 1.25);
        assert_eq!(get("sim_widths_count").value, 1.0);
        assert_eq!(get("serve_lat_us_count").value, 1.0);
        assert_eq!(get("serve_lat_us_sum").value, 12345.0);
        let inf_bucket = samples
            .iter()
            .find(|s| {
                s.name == "sim_widths_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .expect("+Inf bucket present");
        assert_eq!(inf_bucket.value, 1.0);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "no_value",
            "1name 3",
            "name{le=\"unterminated} 1",
            "name{le=unquoted} 1",
            "name{le=\"x\" le=\"y\"} 1",
            "name{le=\"\\q\"} 1",
            "name notanumber",
        ] {
            assert!(
                parse_prometheus_text(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
        assert_eq!(
            validate_prometheus_text("# a comment\n\nm 1\nn{a=\"b\"} +Inf\n").unwrap(),
            2
        );
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        // Unique names: the registry is process-global and tests run in
        // parallel.
        counter_add("test/reg/counter", 2);
        counter_add("test/reg/counter", 3);
        gauge_set("test/reg/gauge", 1.5);
        gauge_set("test/reg/gauge", 2.5);
        latency_record_us("test/reg/hist", 4);
        latency_record_us("test/reg/hist", 40);
        let snap = snapshot();
        assert_eq!(snap.counters["test/reg/counter"], 5);
        assert_eq!(counter_value("test/reg/counter"), 5);
        assert_eq!(snap.gauges["test/reg/gauge"], 2.5);
        let h = &snap.histograms["test/reg/hist"];
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (2, 44, 4, 40));
    }

    #[test]
    fn recording_all_at_once_equals_recording_one_at_a_time() {
        let samples = [0u64, 1, 7, 7, 1_000, 41_983, u64::MAX];
        for &v in &samples {
            latency_record_us("test/record_all/singles", v);
        }
        latency_record_all("test/record_all/batch", samples);
        let snap = snapshot();
        assert_eq!(
            snap.histograms["test/record_all/singles"],
            snap.histograms["test/record_all/batch"]
        );
        assert_eq!(snap.histograms["test/record_all/batch"].count(), 7);
    }
}
