//! Fixtures shared by the end-to-end server tests in `server_e2e.rs` and
//! the in-crate ones in `src/server/tests.rs`: a tiny model mapped to
//! crossbars and reloaded through a real artifact file, its inputs, and
//! readers for the server's answers. Nothing here names an `xbar_serve`
//! item, so both crates compile it as is.

use std::sync::atomic::{AtomicUsize, Ordering};

use xbar_core::pipeline::{map_to_crossbars, MapConfig};
use xbar_core::{load_artifact_from_file, save_artifact_to_file, ArtifactMeta};
use xbar_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
use xbar_nn::{Layer, Sequential};
use xbar_obs::json::Json;
use xbar_sim::params::CrossbarParams;

pub const INPUT_SHAPE: [usize; 3] = [1, 8, 8];
pub const CLASSES: usize = 4;

pub fn tiny_model() -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 8, 3, 1, 1, 1)),
        Layer::ReLU(ReLU::new()),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(8 * 4 * 4, CLASSES, 2)),
    ])
}

/// A fresh temp directory for one artifact. Tests run in parallel and
/// several share a tag, so the name carries the pid and a per-call counter:
/// no test can remove another's directory mid-save.
pub fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xbar_serve_e2e_{}_{}_{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Maps the tiny model and returns (mapped model, meta) via a real
/// artifact file round-trip, exactly like production serving.
pub fn mapped_via_artifact(tag: &str) -> (Sequential, ArtifactMeta) {
    let model = tiny_model();
    let mut params = CrossbarParams::with_size(16);
    params.sigma_variation = 0.0;
    let cfg = MapConfig {
        params,
        ..Default::default()
    };
    let (mut noisy, report) = map_to_crossbars(&model, &cfg).expect("mapping succeeds");
    let mut meta = ArtifactMeta::from_mapping("e2e tiny model", &cfg, &report);
    meta.input_shape = INPUT_SHAPE.to_vec();
    let dir = unique_temp_dir(tag);
    let path = dir.join("model.xbarmdl");
    save_artifact_to_file(&mut noisy, &meta, &path).expect("save artifact");
    let loaded = load_artifact_from_file(&path).expect("load artifact");
    std::fs::remove_dir_all(&dir).ok();
    loaded
}

pub fn image(seed: usize) -> Vec<f32> {
    (0..INPUT_SHAPE.iter().product::<usize>())
        .map(|i| ((i * 31 + seed * 7) % 13) as f32 / 13.0 - 0.5)
        .collect()
}

pub fn image_json(seed: usize) -> String {
    let values: Vec<String> = image(seed).iter().map(|v| format!("{v}")).collect();
    format!("{{\"image\":[{}]}}", values.join(","))
}

/// Parses a counter's value out of the Prometheus exposition text.
pub fn counter_value(metrics_text: &str, name: &str) -> f64 {
    metrics_text
        .lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .and_then(|rest| rest.trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Extracts the softmax scores from a classify response body.
pub fn scores_of(body: &str) -> Vec<f64> {
    Json::parse(body)
        .expect("classify JSON")
        .get("scores")
        .and_then(Json::as_arr)
        .expect("scores array")
        .iter()
        .map(|v| v.as_f64().expect("score is a number"))
        .collect()
}
