//! The metric names this benchmark reports, with units and direction. The
//! lists are the contract with `BENCHMARK.json` (a test pins the two
//! together): a run prints exactly the end-to-end list untraced and exactly
//! the per-layer list traced.

use std::collections::BTreeMap;
use xbar_obs::json::Json;

/// `(name, unit, better)`.
pub type MetricDef = (String, &'static str, &'static str);

/// Reported by every untraced run. An "item" is the workload's unit of
/// work (a training image, a mapped crossbar tile, a classify request) and
/// an "op" is one call a user waits on (a 32-image training step, one
/// `map_to_crossbars`, one request).
pub fn end_to_end() -> Vec<MetricDef> {
    [
        ("setup_s", "s", "lower"),
        ("items_per_s", "1/s", "higher"),
        ("op_p50_ms", "ms", "lower"),
        ("op_p90_ms", "ms", "lower"),
        ("peak_rss_mb", "MiB", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect()
}

/// Span-derived self times, named after the span (the metric minus its
/// `_ms` suffix), in milliseconds per op.
pub const SPAN_MS: &[&str] = &[
    "data.gather_ms",
    "nn.conv2d.fwd_ms",
    "nn.conv2d.bwd_ms",
    "nn.batchnorm2d.fwd_ms",
    "nn.batchnorm2d.bwd_ms",
    "nn.relu.fwd_ms",
    "nn.relu.bwd_ms",
    "nn.maxpool2d.fwd_ms",
    "nn.maxpool2d.bwd_ms",
    "nn.linear.fwd_ms",
    "nn.linear.bwd_ms",
    "nn.other_ms",
    "nn.loss_ms",
    "nn.metrics_ms",
    "nn.zero_grad_ms",
    "nn.sgd_ms",
    "nn.clone_ms",
    "nn.write_back_ms",
    "prune.constraint_ms",
    "prune.unroll_ms",
    "prune.transform_ms",
    "prune.invert_ms",
    "core.wct_cut_ms",
    "core.rearrange_ms",
    "core.partition_ms",
    "core.reassemble_ms",
    "sim.tile_ms",
];

/// The crates whose spans roll up into `layer.<crate>_ms`.
pub const LAYERS: &[&str] = &["data", "nn", "prune", "core", "sim", "serve", "client"];

/// Weighted (conv/linear) layers of VGG11.
pub const WEIGHTED_LAYERS: u32 = 9;

/// Reported by every traced run; a layer a workload never enters reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out: Vec<MetricDef> = Vec::new();
    let mut push = |name: String, unit: &'static str, better: &'static str| {
        out.push((name, unit, better));
    };
    for (name, unit, better) in [
        ("traced_wall_ms", "ms", "lower"),
        ("untraced_wall_ms", "ms", "lower"),
        ("unattributed_ms", "ms", "lower"),
        ("trace_overhead", "ratio", "lower"),
    ] {
        push(name.into(), unit, better);
    }
    for layer in LAYERS {
        push(format!("layer.{layer}_ms"), "ms", "lower");
    }
    for name in SPAN_MS {
        push(name.to_string(), "ms", "lower");
    }
    for (name, unit, better) in [
        ("sim.solve_ms", "ms", "lower"),
        ("sim.program_ms", "ms", "lower"),
        ("sim.tiles", "count", "lower"),
        ("sim.sweeps_per_tile", "count", "lower"),
        ("sim.fallback_tiles", "count", "lower"),
        ("sim.cache_hit_ratio_cold", "ratio", "higher"),
        ("sim.cache_hit_ratio_remap", "ratio", "higher"),
        ("core.parallel_speedup", "ratio", "higher"),
        ("map.cold_tiles_per_s", "1/s", "higher"),
        ("map.remap_tiles_per_s", "1/s", "higher"),
    ] {
        push(name.into(), unit, better);
    }
    for i in 0..WEIGHTED_LAYERS {
        push(format!("map.layer{i}.tiles"), "count", "lower");
    }
    for i in 0..WEIGHTED_LAYERS {
        push(format!("map.layer{i}.solve_ms"), "ms", "lower");
    }
    for i in 0..WEIGHTED_LAYERS {
        push(format!("nn.layer{i}.fwd_ms"), "ms", "lower");
    }
    for (name, unit, better) in [
        ("serve.closed_rps", "1/s", "higher"),
        ("serve.closed_p50_ms", "ms", "lower"),
        ("serve.closed_p99_ms", "ms", "lower"),
        ("serve.open_p99_ms", "ms", "lower"),
        ("serve.server_p50_ms", "ms", "lower"),
        ("serve.server_p99_ms", "ms", "lower"),
        ("serve.gap_p50_ms", "ms", "lower"),
        ("serve.infer_ms_mean", "ms", "lower"),
        ("serve.batch_size_mean", "count", "higher"),
        ("serve.http_frame_us", "us", "lower"),
        ("serve.json_decode_us", "us", "lower"),
        ("serve.b64_decode_us", "us", "lower"),
        ("serve.io_wait_ms", "ms", "lower"),
        ("serve.forward_b1_ms", "ms", "lower"),
        ("serve.forward_b2_ms", "ms", "lower"),
        ("loadgen.late_p99_ms", "ms", "lower"),
        ("data.generate_s", "s", "lower"),
        ("prune.mask_s", "s", "lower"),
        ("core.artifact_save_s", "s", "lower"),
        ("core.artifact_load_s", "s", "lower"),
        ("serve.ready_s", "s", "lower"),
    ] {
        push(name.into(), unit, better);
    }
    out
}

/// Values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: exactly the metrics of
    /// `defs`, in order, each with its unit. A metric missing, unknown or
    /// not finite is a benchmark bug, reported as an error.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<Json, String> {
        if let Some(extra) = self.0.keys().find(|k| !defs.iter().any(|d| &d.0 == *k)) {
            return Err(format!("metric {extra:?} is not declared"));
        }
        defs.iter()
            .map(|(name, unit, _)| {
                let v = self
                    .get(name)
                    .ok_or_else(|| format!("metric {name:?} was not measured"))?;
                if !v.is_finite() {
                    return Err(format!("metric {name:?} is {v}"));
                }
                Ok((
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                ))
            })
            .collect::<Result<_, _>>()
            .map(Json::Obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&json, "end_to_end"), ours(end_to_end()));
        assert_eq!(declared(&json, "per_layer"), ours(per_layer()));
    }

    #[test]
    fn names_are_unique_and_within_the_limits() {
        let mut all = end_to_end();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|d| d.0.as_str()).collect();
        assert!(names.len() <= 5 + 128);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for (name, unit, better) in &all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(["lower", "higher"].contains(better));
        }
    }

    #[test]
    fn to_json_requires_every_declared_metric() {
        let defs = end_to_end();
        let mut m = Metrics::default();
        for (name, ..) in &defs {
            m.set(name.clone(), 1.5);
        }
        let json = m.to_json(&defs).unwrap();
        assert_eq!(
            json.get("setup_s")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        m.set("bogus", 1.0);
        assert!(m.to_json(&defs).is_err());
        let mut partial = Metrics::default();
        partial.set("setup_s", f64::NAN);
        assert!(partial.to_json(&defs[..1]).is_err());
    }
}
