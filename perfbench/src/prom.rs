//! A reader for the Prometheus text format the server exports on
//! `/metrics` (and `xbar_obs` renders in-process): plain samples plus
//! cumulative `_bucket{le=".."}` histograms, differenced between two
//! scrapes to get what happened during one phase. Written here rather
//! than reusing the exporter's own parser, so a change to the exporter
//! cannot hide from, or break, the benchmark that reads its output.

use std::collections::BTreeMap;

/// Every sample of one scrape: plain values by full sample name, and
/// cumulative histogram buckets by histogram base name.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

/// One histogram: cumulative `(upper edge, count)` pairs ascending by edge
/// (the `+Inf` bucket last), plus `_sum` and `_count`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub buckets: Vec<(f64, f64)>,
    pub sum: f64,
    pub count: f64,
}

fn parse_value(raw: &str) -> Result<f64, String> {
    match raw {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => raw.parse().map_err(|_| format!("bad sample value {raw:?}")),
    }
}

/// Splits `name{labels}` into the name and the value of its `le` label.
fn split_labels(head: &str) -> Result<(&str, Option<String>), String> {
    let Some(open) = head.find('{') else {
        return Ok((head, None));
    };
    let body = head[open + 1..]
        .strip_suffix('}')
        .ok_or_else(|| format!("unterminated labels in {head:?}"))?;
    let mut le = None;
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find("=\"")
            .ok_or_else(|| format!("bad label in {head:?}"))?;
        let key = rest[..eq].trim();
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let end = loop {
            match chars.next() {
                Some((i, '"')) => break eq + 2 + i,
                Some((_, '\\')) => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, c)) => value.push(c),
                    None => return Err(format!("dangling escape in {head:?}")),
                },
                Some((_, c)) => value.push(c),
                None => return Err(format!("unterminated label value in {head:?}")),
            }
        };
        if key == "le" {
            le = Some(value);
        }
        rest = rest[end + 1..].trim_start_matches(',').trim_start();
    }
    Ok((&head[..open], le))
}

impl Scrape {
    /// Parses exposition text; `#` lines are comments.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut out = Scrape::default();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (head, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("no value on line {line:?}"))?;
            let value = parse_value(value)?;
            let (name, le) = split_labels(head.trim_end())?;
            match (name.strip_suffix("_bucket"), le) {
                (Some(base), Some(le)) => out
                    .buckets
                    .entry(base.to_string())
                    .or_default()
                    .push((parse_value(&le)?, value)),
                _ => {
                    out.values.insert(name.to_string(), value);
                }
            }
        }
        for b in out.buckets.values_mut() {
            b.sort_by(|x, y| x.0.total_cmp(&y.0));
        }
        Ok(out)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The histogram exported under `base` (already sanitised, e.g.
    /// `serve_infer_us`).
    pub fn histogram(&self, base: &str) -> Option<Histogram> {
        Some(Histogram {
            buckets: self.buckets.get(base)?.clone(),
            sum: self.value(&format!("{base}_sum"))?,
            count: self.value(&format!("{base}_count"))?,
        })
    }
}

impl Histogram {
    pub fn empty() -> Self {
        Histogram {
            buckets: Vec::new(),
            sum: 0.0,
            count: 0.0,
        }
    }

    /// Cumulative count at `edge`: the count of the largest listed edge at
    /// or below it (sparse exports omit empty buckets).
    fn cumulative_at(&self, edge: f64) -> f64 {
        self.buckets
            .iter()
            .take_while(|(e, _)| *e <= edge)
            .last()
            .map_or(0.0, |(_, c)| *c)
    }

    /// What was recorded between the `before` scrape and this one.
    pub fn since(&self, before: &Histogram) -> Histogram {
        Histogram {
            buckets: self
                .buckets
                .iter()
                .map(|&(e, c)| (e, c - before.cumulative_at(e)))
                .collect(),
            sum: self.sum - before.sum,
            count: self.count - before.count,
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// The `q`-quantile, interpolated linearly inside the bucket that holds
    /// it; a value in the `+Inf` bucket reads as the last finite edge.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.buckets.last().map_or(0.0, |b| b.1);
        if total <= 0.0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * total;
        let (mut lo_edge, mut lo_count) = (0.0, 0.0);
        for &(edge, count) in &self.buckets {
            if count >= target && count > lo_count {
                if edge.is_infinite() {
                    return lo_edge;
                }
                return lo_edge + (edge - lo_edge) * (target - lo_count) / (count - lo_count);
            }
            if edge.is_finite() {
                lo_edge = edge;
            }
            lo_count = count;
        }
        lo_edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE serve_request_us_classify histogram
serve_request_us_classify_bucket{le=\"1000\"} 2
serve_request_us_classify_bucket{le=\"+Inf\"} 2
serve_request_us_classify_sum 1500
serve_request_us_classify_count 2
# TYPE serve_http_requests counter
serve_http_requests 7
";

    const AFTER: &str = "\
# TYPE serve_request_us_classify histogram
serve_request_us_classify_bucket{le=\"1000\"} 2
serve_request_us_classify_bucket{le=\"2000\"} 6
serve_request_us_classify_bucket{le=\"4000\"} 12
serve_request_us_classify_bucket{le=\"+Inf\"} 12
serve_request_us_classify_sum 30500
serve_request_us_classify_count 12
serve_http_requests 19
odd_labels{path=\"a\\\"b}\",le=\"3\"} 4
";

    #[test]
    fn parses_values_buckets_and_escaped_labels() {
        let s = Scrape::parse(AFTER).unwrap();
        assert_eq!(s.value("serve_http_requests"), Some(19.0));
        assert_eq!(s.value("odd_labels"), Some(4.0));
        let h = s.histogram("serve_request_us_classify").unwrap();
        assert_eq!(h.buckets.len(), 4);
        assert!(h.buckets.last().unwrap().0.is_infinite());
        assert_eq!((h.sum, h.count), (30500.0, 12.0));
        assert!(Scrape::parse("no_value_here").is_err());
        assert!(Scrape::parse("m{le=\"1\" 3").is_err());
    }

    #[test]
    fn differences_scrapes_and_reads_quantiles() {
        let before = Scrape::parse(BEFORE)
            .unwrap()
            .histogram("serve_request_us_classify")
            .unwrap();
        let after = Scrape::parse(AFTER)
            .unwrap()
            .histogram("serve_request_us_classify")
            .unwrap();
        let d = after.since(&before);
        assert_eq!((d.sum, d.count), (29000.0, 10.0));
        assert_eq!(d.mean(), 2900.0);
        // Ten new samples: four in (1000, 2000], six in (2000, 4000].
        assert_eq!(d.quantile(0.4), 2000.0);
        assert_eq!(d.quantile(0.7), 3000.0);
        assert_eq!(d.quantile(1.0), 4000.0);
        assert_eq!(Histogram::empty().quantile(0.5), 0.0);
    }

    #[test]
    fn reads_the_in_process_registry_export() {
        xbar_obs::metrics::latency_record_us("serve/infer_us", 250);
        let s = Scrape::parse(&xbar_obs::metrics::to_text()).unwrap();
        let h = s.histogram("serve_infer_us").unwrap();
        assert!(h.count >= 1.0 && h.quantile(1.0) >= 250.0);
    }
}
