//! Serving throughput/latency benchmark (`results/BENCH_serve.json`).
//!
//! Boots the real event-loop server (`xbar-serve`) on a tiny mapped-model
//! artifact and drives it with a thousand-connection open-loop fleet
//! through the shared [`crate::loadcore`] machinery — the same code path
//! the external `loadgen` binary uses. Reports served throughput, p50/p99
//! latency measured from intended send times (coordinated-omission
//! honest), and the overload shed rate, plus the per-bucket latency
//! histogram as `results/serve_hist.jsonl`.
//!
//! Correctness rides along: the same probe set is classified on a
//! single-replica server and on the loaded replica pool, and the scores
//! must match bit-for-bit (`bit_identical_replicas`) — replication and
//! micro-batching are throughput tools, never accuracy knobs. The
//! artifact hard-fails on lost bit-identity or a run that served
//! nothing; `suite --gate` additionally compares the fresh numbers
//! against the committed baseline.

use super::{ArtifactCtx, ArtifactOutput};
use crate::loadcore::{self, LoadConfig};
use std::time::Duration;
use xbar_core::pipeline::{map_to_crossbars, MapConfig};
use xbar_core::{save_artifact_to_file, ArtifactMeta};
use xbar_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
use xbar_nn::{Layer, Sequential};
use xbar_obs::json::Json;
use xbar_serve::{Client, ServeConfig, Server};
use xbar_sim::params::CrossbarParams;

/// Connection-fleet size the acceptance criterion is stated at.
pub const SERVE_BENCH_CONNECTIONS: usize = 1024;
/// Open-loop requests per connection.
pub const SERVE_BENCH_REQUESTS: usize = 8;
/// Intended-send interval per connection (ms).
pub const SERVE_BENCH_INTERVAL_MS: u64 = 500;
/// Replica-pool size of the loaded server.
pub const SERVE_BENCH_REPLICAS: usize = 2;
/// Probe images checked for replica bit-identity.
const PROBES: usize = 8;

const INPUT_SHAPE: [usize; 3] = [1, 8, 8];
const CLASSES: usize = 4;

/// The benchmark model: tiny but structurally real (conv → pool →
/// linear), so a classify request exercises the full mapped pipeline
/// while the cost per request stays small enough that the event loop and
/// batcher — not the matmul — are what the fleet stresses.
fn bench_model() -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 8, 3, 1, 1, 1)),
        Layer::ReLU(ReLU::new()),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(8 * 4 * 4, CLASSES, 2)),
    ])
}

/// Maps the benchmark model and persists it as a real `XBARMDL1` artifact
/// at `path` — the server loads it back through the production mmap path.
fn save_bench_artifact(path: &std::path::Path) -> Result<(), String> {
    let model = bench_model();
    let mut params = CrossbarParams::with_size(16);
    params.sigma_variation = 0.0;
    let cfg = MapConfig {
        params,
        ..Default::default()
    };
    let (mut noisy, report) =
        map_to_crossbars(&model, &cfg).map_err(|e| format!("mapping the bench model: {e}"))?;
    let mut meta = ArtifactMeta::from_mapping("serve bench tiny model", &cfg, &report);
    meta.input_shape = INPUT_SHAPE.to_vec();
    save_artifact_to_file(&mut noisy, &meta, path).map_err(|e| format!("saving artifact: {e}"))
}

/// Starts a server on the persisted artifact with `replicas` inference
/// replicas, via the same mmap load production serving uses.
fn start_server(path: &std::path::Path, replicas: usize) -> Result<Server, String> {
    let bundle = xbar_core::load_artifact_bundle_mmap(path)
        .map_err(|e| format!("loading bench artifact: {e}"))?;
    Server::start(
        bundle.model,
        bundle.meta,
        ServeConfig {
            replicas,
            max_batch: 64,
            queue_cap: 1024,
            request_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("starting bench server: {e}"))
}

fn shutdown(server: Server) {
    server
        .shutdown_handle()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    server.run_until_shutdown();
}

fn probe_body(seed: usize) -> String {
    let len = INPUT_SHAPE.iter().product::<usize>();
    let values: Vec<String> = loadcore::load_image(len, seed as u64)
        .iter()
        .map(|v| format!("{v}"))
        .collect();
    format!("{{\"image\":[{}]}}", values.join(","))
}

/// Classifies the probe set and returns each response's scores as raw
/// bits — the f32 → JSON → f64 round-trip is exact, so bit-equality here
/// is bit-equality of the served softmax.
fn probe_scores(addr: &str) -> Result<Vec<Vec<u64>>, String> {
    let mut client = Client::connect(addr, Duration::from_secs(20))
        .map_err(|e| format!("probe client connect: {e}"))?;
    (0..PROBES)
        .map(|seed| {
            let resp = client
                .post_json("/v1/classify", &probe_body(seed))
                .map_err(|e| format!("probe {seed}: {e}"))?;
            if resp.status != 200 {
                return Err(format!(
                    "probe {seed}: HTTP {} {}",
                    resp.status,
                    resp.text()
                ));
            }
            Json::parse(&resp.text())
                .map_err(|e| format!("probe {seed}: bad JSON: {e}"))?
                .get("scores")
                .and_then(Json::as_arr)
                .map(|scores| {
                    scores
                        .iter()
                        .filter_map(Json::as_f64)
                        .map(f64::to_bits)
                        .collect()
                })
                .ok_or_else(|| format!("probe {seed}: no scores array"))
        })
        .collect()
}

/// Open-loop serving benchmark at [`SERVE_BENCH_CONNECTIONS`] connections ×
/// [`SERVE_BENCH_REQUESTS`] requests, written to `results/BENCH_serve.json`
/// (plus the latency histogram as `results/serve_hist.jsonl`).
///
/// Timing-sensitive: the registry marks it `exclusive` so it never
/// shares the machine with concurrent artifact workers.
///
/// # Errors
///
/// Fails if the replica pool loses bit-identity against the single
/// instance, if nothing was served, or if any request was dropped with a
/// real error (429/503 overload is shed, not dropped).
pub fn serve_bench(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let (connections, requests) = (SERVE_BENCH_CONNECTIONS, SERVE_BENCH_REQUESTS);
    let dir = std::env::temp_dir().join(format!("xbar_serve_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create temp dir: {e}"))?;
    let artifact = dir.join("model.xbarmdl");
    save_bench_artifact(&artifact)?;

    // Ground truth: the probe set on a single replica, idle server.
    let single = start_server(&artifact, 1)?;
    let single_addr = single.local_addr().to_string();
    let baseline_scores = probe_scores(&single_addr)?;
    shutdown(single);

    // The measured server: a replica pool under the open-loop fleet.
    let server = start_server(&artifact, SERVE_BENCH_REPLICAS)?;
    let addr = server.local_addr().to_string();
    let stats = loadcore::drive(&LoadConfig {
        addr: addr.clone(),
        connections,
        requests_per_connection: requests,
        input_len: INPUT_SHAPE.iter().product(),
        interval: Duration::from_millis(SERVE_BENCH_INTERVAL_MS),
        as_json_floats: false,
        seed: ctx.seed,
        timeout: Duration::from_secs(30),
    });
    // Bit-identity is checked on the pool that just took the load: a
    // replica that drifted (stale weights, torn state) would answer the
    // probes differently from the idle single instance.
    let pool_scores = probe_scores(&addr)?;
    shutdown(server);
    std::fs::remove_dir_all(&dir).ok();
    let bit_identical_replicas = baseline_scores == pool_scores;

    let throughput_rps = stats.throughput_rps();
    let p50_us = stats.quantile_us(0.50) as f64;
    let p99_us = stats.quantile_us(0.99) as f64;
    let shed_rate = stats.shed_rate();

    std::fs::create_dir_all(&ctx.results).map_err(|e| format!("create results directory: {e}"))?;
    let hist_path = ctx.results.join("serve_hist.jsonl");
    loadcore::write_histogram_jsonl(&hist_path, &stats.latency)?;
    let json = Json::Obj(vec![
        ("bin".into(), Json::Str("serve".into())),
        ("scale".into(), Json::Str(ctx.scale_name.into())),
        ("connections".into(), Json::Num(connections as f64)),
        ("requests_per_connection".into(), Json::Num(requests as f64)),
        (
            "interval_ms".into(),
            Json::Num(SERVE_BENCH_INTERVAL_MS as f64),
        ),
        ("replicas".into(), Json::Num(SERVE_BENCH_REPLICAS as f64)),
        ("seed".into(), Json::Num(ctx.seed as f64)),
        ("ok".into(), Json::Num(stats.ok as f64)),
        ("shed".into(), Json::Num(stats.shed as f64)),
        ("backpressure".into(), Json::Num(stats.backpressure as f64)),
        ("dropped".into(), Json::Num(stats.dropped() as f64)),
        ("retries".into(), Json::Num(stats.retries as f64)),
        ("wall_s".into(), Json::Num(stats.wall_s)),
        ("throughput_rps".into(), Json::Num(throughput_rps)),
        ("p50_us".into(), Json::Num(p50_us)),
        ("p99_us".into(), Json::Num(p99_us)),
        ("shed_rate".into(), Json::Num(shed_rate)),
        (
            "bit_identical_replicas".into(),
            Json::Bool(bit_identical_replicas),
        ),
    ]);
    let path = ctx.write_json(&json, &mut out, "BENCH_serve.json")?;
    if !ctx.quiet {
        println!(
            "{connections} conns x {requests} reqs: {throughput_rps:.0} req/s served, \
             p50 {:.2} ms, p99 {:.2} ms, shed {:.1}% \
             (bit-identical replicas: {bit_identical_replicas}) -> {}",
            p50_us / 1e3,
            p99_us / 1e3,
            100.0 * shed_rate,
            path.display()
        );
    }
    out.outputs.push(hist_path);
    out.key("throughput_rps", throughput_rps);
    out.key("p50_us", p50_us);
    out.key("p99_us", p99_us);
    out.key("shed_rate", shed_rate);

    if !bit_identical_replicas {
        return Err(
            "replica pool diverged bitwise from the single-instance probe scores".to_string(),
        );
    }
    if stats.ok == 0 {
        return Err("the load run served nothing".to_string());
    }
    if stats.dropped() > 0 {
        return Err(format!(
            "{} request(s) dropped with real errors ({} timeouts, {} bad statuses, {} IO)",
            stats.dropped(),
            stats.timeouts,
            stats.other_status,
            stats.io_errors
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_bodies_are_deterministic_and_sized_for_the_model() {
        assert_eq!(probe_body(3), probe_body(3));
        assert_ne!(probe_body(3), probe_body(4));
        let json = Json::parse(&probe_body(0)).unwrap();
        let img = json.get("image").and_then(Json::as_arr).unwrap();
        assert_eq!(img.len(), INPUT_SHAPE.iter().product::<usize>());
    }

    #[test]
    fn bench_model_matches_the_declared_input_shape() {
        use xbar_nn::Mode;
        use xbar_tensor::Tensor;
        let mut model = bench_model();
        let len = INPUT_SHAPE.iter().product::<usize>();
        let x = Tensor::from_vec(vec![0.1; len], &[1, 1, 8, 8]).unwrap();
        let logits = model.forward(&x, Mode::Eval).unwrap();
        assert_eq!(logits.as_slice().len(), CLASSES);
    }
}
