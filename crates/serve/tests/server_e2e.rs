//! End-to-end server tests: map a tiny model to crossbars, persist it as
//! an `XBARMDL1` artifact, serve it, and drive it over real sockets.
//!
//! Tests that park requests in the batch queue must start the server with
//! its inference replicas held back, which only the crate itself can do;
//! they live in `src/server/tests.rs` and share the fixtures in
//! `support/`.

mod support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use support::{
    counter_value, image, image_json, mapped_via_artifact, scores_of, tiny_model, unique_temp_dir,
    CLASSES, INPUT_SHAPE,
};
use xbar_core::pipeline::{map_to_crossbars, MapConfig};
use xbar_core::{load_artifact_from_file, save_artifact_to_file, ArtifactMeta};
use xbar_nn::Mode;
use xbar_obs::json::Json;
use xbar_serve::{Client, LifecycleConfig, ServeConfig, Server};
use xbar_sim::params::CrossbarParams;
use xbar_tensor::Tensor;

fn start_server(cfg: ServeConfig) -> (Server, String) {
    let (model, meta) = mapped_via_artifact("shared");
    let server = Server::start(model, meta, cfg).expect("server starts");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(20)).expect("client connects")
}

#[test]
fn classify_healthz_metrics_and_graceful_shutdown() {
    let (server, addr) = start_server(ServeConfig::default());
    let mut client = connect(&addr);

    // healthz
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "{}", health.text());
    let health_json = Json::parse(&health.text()).expect("healthz is JSON");
    assert_eq!(health_json.get("status").and_then(Json::as_str), Some("ok"));

    // model summary
    let model_info = client.get("/v1/model").expect("model");
    assert_eq!(model_info.status, 200);
    let info = Json::parse(&model_info.text()).expect("model JSON");
    assert_eq!(
        info.get("label").and_then(Json::as_str),
        Some("e2e tiny model")
    );

    // classify (JSON array form) matches a local forward pass.
    let response = client
        .post_json("/v1/classify", &image_json(3))
        .expect("classify");
    assert_eq!(response.status, 200, "{}", response.text());
    let body = Json::parse(&response.text()).expect("classify JSON");
    let served_class = body.get("class").and_then(Json::as_u64).expect("class");
    let scores = body.get("scores").and_then(Json::as_arr).expect("scores");
    assert_eq!(scores.len(), CLASSES);
    let (mut local_model, _) = mapped_via_artifact("local");
    let x = Tensor::from_vec(image(3), &[1, 1, 8, 8]).unwrap();
    let logits = local_model.forward(&x, Mode::Eval).unwrap();
    let expected_class = logits
        .as_slice()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i as u64)
        .unwrap();
    assert_eq!(served_class, expected_class);
    assert!(body.get("model").and_then(|m| m.get("mean_nf")).is_some());

    // classify (base64 form) gives the same class.
    let b64_body = format!(
        "{{\"image_b64\":\"{}\"}}",
        xbar_serve::base64::encode_f32(&image(3))
    );
    let b64_response = client.post_json("/v1/classify", &b64_body).expect("b64");
    assert_eq!(b64_response.status, 200, "{}", b64_response.text());
    let b64_json = Json::parse(&b64_response.text()).unwrap();
    assert_eq!(
        b64_json.get("class").and_then(Json::as_u64),
        Some(expected_class)
    );

    // bad input: wrong length
    let bad = client
        .post_json("/v1/classify", "{\"image\":[1,2,3]}")
        .expect("bad classify");
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("expects"), "{}", bad.text());

    // unknown route
    let missing = client.get("/nope").expect("404");
    assert_eq!(missing.status, 404);

    // metrics expose the request counters and the batch-size, parse and
    // queue-wait histograms.
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("serve_classify_ok"), "{text}");
    assert!(text.contains("serve_http_requests"), "{text}");
    assert!(text.contains("serve_batch_size_bucket"), "{text}");
    assert!(text.contains("serve_parse_us_bucket"), "{text}");
    assert!(text.contains("serve_queue_us_bucket"), "{text}");

    // graceful shutdown via the admin endpoint.
    let stop = client.post_json("/admin/shutdown", "{}").expect("shutdown");
    assert_eq!(stop.status, 200);
    server.run_until_shutdown();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_survives() {
    // 1 MiB of `[` is far under the 32 MiB body limit. Without the parser's depth cap
    // it recursed once per byte and overflowed the event-loop thread.
    let (server, addr) = start_server(ServeConfig::default());
    let mut client = connect(&addr);
    let deep = "[".repeat(1 << 20);
    let resp = client.post_json("/v1/classify", &deep).expect("classify");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("nesting"), "{}", resp.text());
    let health = client.get("/healthz").expect("healthz after the deep body");
    assert_eq!(health.status, 200, "{}", health.text());
    let ok = client
        .post_json("/v1/classify", &image_json(1))
        .expect("classify after the deep body");
    assert_eq!(ok.status, 200, "{}", ok.text());
    server
        .shutdown_handle()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    server.run_until_shutdown();
}

#[test]
fn faulted_repaired_model_serves_degraded_but_alive() {
    // Map with stuck-device faults and repair enabled, with a fault
    // threshold so strict that some tiles stay flagged after repair: the
    // server must report degraded health (HTTP 200, not an error) while
    // continuing to answer classify requests.
    let model = tiny_model();
    let mut params = CrossbarParams::with_size(16);
    params.sigma_variation = 0.0;
    params.faults = xbar_sim::FaultModel {
        stuck_at_gmin: 0.02,
        stuck_at_gmax: 0.01,
    };
    let cfg = MapConfig {
        params,
        // No digital correction and a near-zero threshold: residual faults
        // the spares cannot cover must flag tiles as degraded.
        repair: Some(xbar_core::RepairConfig {
            tile_fault_threshold: 1e-9,
            digital_correction: false,
            ..xbar_core::RepairConfig::default()
        }),
        ..Default::default()
    };
    let (mut noisy, report) = map_to_crossbars(&model, &cfg).expect("faulted mapping succeeds");
    assert!(report.stuck_cells() > 0, "3% faults must hit some devices");
    let mut meta = ArtifactMeta::from_mapping("e2e faulted model", &cfg, &report);
    meta.input_shape = INPUT_SHAPE.to_vec();
    assert!(meta.is_degraded(), "threshold 1e-9 must flag tiles");

    // Full artifact round-trip, like production.
    let dir = unique_temp_dir("faulted");
    let path = dir.join("model.xbarmdl");
    save_artifact_to_file(&mut noisy, &meta, &path).expect("save artifact");
    let (model, meta) = load_artifact_from_file(&path).expect("load artifact");
    std::fs::remove_dir_all(&dir).ok();
    assert!(meta.is_degraded(), "degradation must survive the artifact");

    let server = Server::start(model, meta, ServeConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();
    let mut client = connect(&addr);

    // Degraded, not dead: 200 with status "degraded" and fault counts.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "{}", health.text());
    let health_json = Json::parse(&health.text()).expect("healthz is JSON");
    assert_eq!(
        health_json.get("status").and_then(Json::as_str),
        Some("degraded"),
        "{}",
        health.text()
    );
    assert!(
        health_json
            .get("degraded_tiles")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "{}",
        health.text()
    );
    assert!(
        health_json
            .get("stuck_cells")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "{}",
        health.text()
    );

    // The model summary exposes the fault/repair provenance.
    let info = client.get("/v1/model").expect("model");
    let info_json = Json::parse(&info.text()).expect("model JSON");
    assert!(
        info_json
            .get("degraded_tiles")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "{}",
        info.text()
    );

    // Classification still works.
    let response = client
        .post_json("/v1/classify", &image_json(5))
        .expect("classify on degraded server");
    assert_eq!(response.status, 200, "{}", response.text());
    let body = Json::parse(&response.text()).expect("classify JSON");
    assert!(body.get("class").and_then(Json::as_u64).is_some());

    server
        .shutdown_handle()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    server.run_until_shutdown();
}

#[test]
fn sampled_classify_requests_carry_joinable_trace_ids() {
    let (server, addr) = start_server(ServeConfig {
        trace_sample: 1, // trace every classify request
        ..ServeConfig::default()
    });
    let mut client = connect(&addr);

    let mut ids = Vec::new();
    for seed in 0..3 {
        let response = client
            .post_json("/v1/classify", &image_json(seed))
            .expect("classify");
        assert_eq!(response.status, 200, "{}", response.text());
        let body = Json::parse(&response.text()).expect("classify JSON");
        let id_text = body
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("sampled response carries trace_id")
            .to_string();
        let id = xbar_obs::TraceId::parse(&id_text).expect("well-formed trace id");
        ids.push(id);
    }

    // Every ID joins the spans emitted into the global buffer: the full
    // stage breakdown in order, then the whole request. (`Watch` is
    // per-thread; these spans come from the server's threads, so read the
    // global buffer and join on the unique trace IDs.)
    let spans = xbar_obs::trace::all_spans();
    for id in &ids {
        let hex = id.to_string();
        let tagged: Vec<_> = spans
            .iter()
            .filter(|s| {
                s.fields.iter().any(|(k, v)| {
                    *k == "trace_id" && matches!(v, xbar_obs::FieldValue::Str(h) if *h == hex)
                })
            })
            .collect();
        let names: Vec<&str> = tagged.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["queue", "batch", "solve", "respond", "request"],
            "stage breakdown for {id}"
        );
        let endpoint = ("endpoint", xbar_obs::FieldValue::Str("classify".into()));
        for span in &tagged {
            assert!(span.fields.contains(&endpoint), "{span:?}");
        }
        assert!(tagged[4].duration_us > 0, "total time recorded for {id}");
    }

    // /metrics is valid Prometheus text and includes the per-endpoint
    // latency histogram plus the sampling counter.
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    let samples = xbar_obs::metrics::parse_prometheus_text(&text).expect("exposition parses");
    assert!(!samples.is_empty());
    assert!(text.contains("serve_request_us_classify_bucket"), "{text}");
    assert!(text.contains("serve_trace_sampled"), "{text}");

    server
        .shutdown_handle()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    server.run_until_shutdown();
}

#[test]
fn full_batch_queue_is_backpressure_not_an_error() {
    // One inference replica taking one request at a time and a queue of
    // one: the queue fills, and the auto-sized admission limit (queue +
    // replica capacity = 2) sheds the overflow with 429 before it even
    // reaches the queue.
    let (server, addr) = start_server(ServeConfig {
        replicas: 1,
        max_batch: 1,
        queue_cap: 1,
        request_timeout: Duration::from_secs(20),
        ..ServeConfig::default()
    });
    let addr = Arc::new(addr);
    let handles: Vec<_> = (0..8)
        .map(|seed| {
            let addr = Arc::clone(&addr);
            thread::spawn(move || {
                let mut client = connect(&addr);
                client
                    .post_json("/v1/classify", &image_json(seed))
                    .expect("classify under pressure")
                    .status
            })
        })
        .collect();
    let statuses: Vec<u16> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 503 || *s == 429),
        "only success, backpressure, or admission shed allowed, got {statuses:?}"
    );
    assert!(
        statuses.contains(&200),
        "some requests must still get through: {statuses:?}"
    );
    server
        .shutdown_handle()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    server.run_until_shutdown();
}

/// Saves the tiny model as an artifact under `label` and returns the
/// directory (caller removes it) plus the file path. Unlike
/// `mapped_via_artifact`, the file stays on disk so the running server can
/// load it through `POST /admin/reload`.
fn saved_artifact(tag: &str, label: &str) -> (std::path::PathBuf, String) {
    let model = tiny_model();
    let mut params = CrossbarParams::with_size(16);
    params.sigma_variation = 0.0;
    let cfg = MapConfig {
        params,
        ..Default::default()
    };
    let (mut noisy, report) = map_to_crossbars(&model, &cfg).expect("mapping succeeds");
    let mut meta = ArtifactMeta::from_mapping(label, &cfg, &report);
    meta.input_shape = INPUT_SHAPE.to_vec();
    let dir = unique_temp_dir(tag);
    let path = dir.join("model.xbarmdl");
    save_artifact_to_file(&mut noisy, &meta, &path).expect("save artifact");
    (dir, path.to_string_lossy().into_owned())
}

#[test]
fn admin_reload_hot_swaps_without_dropping_in_flight_requests() {
    let (server, addr) = start_server(ServeConfig::default());
    let (dir, artifact_path) = saved_artifact("reload_target", "e2e reload target");

    // Sustained classify traffic across 4 connections while the artifact
    // is swapped underneath them: every single request must succeed —
    // in-flight batches finish on the old weights, new ones pick up the
    // published version.
    let stop = Arc::new(AtomicBool::new(false));
    let addr = Arc::new(addr);
    let workers: Vec<_> = (0..4)
        .map(|seed| {
            let addr = Arc::clone(&addr);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = connect(&addr);
                let mut okay = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let resp = client
                        .post_json("/v1/classify", &image_json(seed))
                        .expect("classify during reload");
                    assert_eq!(
                        resp.status,
                        200,
                        "in-flight classify must never fail during a hot swap: {}",
                        resp.text()
                    );
                    okay += 1;
                }
                okay
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(100));
    let mut admin = connect(&addr);
    // Swap repeatedly while traffic flows — each reload bumps the version.
    for round in 0..3 {
        let resp = admin
            .post_json(
                "/admin/reload",
                &format!("{{\"artifact\":\"{artifact_path}\"}}"),
            )
            .expect("reload");
        assert_eq!(resp.status, 200, "round {round}: {}", resp.text());
        let body = Json::parse(&resp.text()).unwrap();
        assert_eq!(
            body.get("status").and_then(Json::as_str),
            Some("reloaded"),
            "{}",
            resp.text()
        );
        thread::sleep(Duration::from_millis(50));
    }

    // The served model identity switched and the slot version advanced.
    let info = admin.get("/v1/model").expect("model");
    let info_json = Json::parse(&info.text()).expect("model JSON");
    assert_eq!(
        info_json.get("label").and_then(Json::as_str),
        Some("e2e reload target"),
        "{}",
        info.text()
    );
    assert!(
        info_json
            .get("model_version")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 4,
        "three reloads must leave version >= 4: {}",
        info.text()
    );

    thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    let total: u64 = workers
        .into_iter()
        .map(|h| h.join().expect("traffic thread"))
        .sum();
    assert!(total > 0, "traffic threads must have classified something");

    // A classify after the swaps is answered, and summarised, by the new
    // artifact.
    let after = admin
        .post_json("/v1/classify", &image_json(9))
        .expect("classify after reload");
    assert_eq!(after.status, 200, "{}", after.text());
    let after_json = Json::parse(&after.text()).expect("classify JSON");
    assert_eq!(
        after_json
            .get("model")
            .and_then(|m| m.get("label"))
            .and_then(Json::as_str),
        Some("e2e reload target"),
        "{}",
        after.text()
    );

    // Without test hooks the drift fast-forward endpoint does not exist.
    let hidden = admin
        .post_json("/admin/advance-time", "{\"seconds\":1}")
        .expect("advance-time");
    assert_eq!(hidden.status, 404, "{}", hidden.text());

    // Reload counter is visible on /metrics.
    let metrics = admin.get("/metrics").expect("metrics");
    assert!(
        metrics.text().contains("serve_reloads"),
        "{}",
        metrics.text()
    );

    std::fs::remove_dir_all(&dir).ok();
    server
        .shutdown_handle()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    server.run_until_shutdown();
}

#[test]
fn drift_lifecycle_fast_forward_sweeps_and_climbs_the_mitigation_ladder() {
    // Short retention taus so a simulated 1e7 s horizon decays the mapped
    // conductances essentially completely; test hooks expose the clock.
    let (server, addr) = start_server(ServeConfig {
        lifecycle: LifecycleConfig {
            test_hooks: true,
            tau_fast: 10.0,
            tau_slow: 1e5,
            ..LifecycleConfig::default()
        },
        ..ServeConfig::default()
    });
    let mut client = connect(&addr);

    // Pristine state: drift fields present, nothing swept yet.
    let health = client.get("/healthz").expect("healthz");
    let health_json = Json::parse(&health.text()).expect("healthz JSON");
    assert_eq!(
        health_json.get("health_sweeps").and_then(Json::as_u64),
        Some(0),
        "{}",
        health.text()
    );
    assert_eq!(
        health_json.get("probe_accuracy").and_then(Json::as_f64),
        Some(1.0),
        "{}",
        health.text()
    );
    assert_eq!(
        health_json.get("mitigation_rung").and_then(Json::as_u64),
        Some(0),
        "{}",
        health.text()
    );

    // Fast-forward far past tau_slow and run one synchronous sweep: the
    // probe accuracy collapse must trigger a mitigation rung, and the
    // mitigation must restore the probe set.
    let resp = client
        .post_json("/admin/advance-time", "{\"seconds\":1e7,\"sweep\":true}")
        .expect("advance-time");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body = Json::parse(&resp.text()).expect("advance JSON");
    assert!(
        body.get("drift_mean_decay")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.9,
        "1e7 s against tau_slow 1e5 must decay nearly everything: {}",
        resp.text()
    );
    let sweep = body.get("sweep").expect("synchronous sweep report");
    let rung = sweep.get("rung").and_then(Json::as_u64).expect("rung");
    let pre = sweep
        .get("pre_accuracy")
        .and_then(Json::as_f64)
        .expect("pre_accuracy");
    let post = sweep
        .get("post_accuracy")
        .and_then(Json::as_f64)
        .expect("post_accuracy");
    assert!(
        rung >= 1,
        "collapsed probes must trigger mitigation: {}",
        resp.text()
    );
    assert!(
        post >= pre && (post - 1.0).abs() < 1e-9,
        "mitigation must restore the probe set (pre {pre}, post {post}): {}",
        resp.text()
    );

    // The sweep and its outcome are visible on /healthz and /v1/model.
    let health = client.get("/healthz").expect("healthz after sweep");
    let health_json = Json::parse(&health.text()).unwrap();
    assert_eq!(
        health_json.get("health_sweeps").and_then(Json::as_u64),
        Some(1),
        "{}",
        health.text()
    );
    assert!(
        health_json
            .get("last_sweep_unix_s")
            .and_then(Json::as_u64)
            .is_some(),
        "{}",
        health.text()
    );
    assert_eq!(
        health_json.get("mitigation_rung").and_then(Json::as_u64),
        Some(rung),
        "{}",
        health.text()
    );
    let info = client.get("/v1/model").expect("model");
    let info_json = Json::parse(&info.text()).unwrap();
    assert!(
        info_json
            .get("probe_accuracy")
            .and_then(Json::as_f64)
            .is_some(),
        "{}",
        info.text()
    );

    // Drift metrics landed in the registry.
    let metrics = client.get("/metrics").expect("metrics");
    let text = metrics.text();
    for name in [
        "serve_health_sweeps",
        "serve_drift_elapsed_s",
        "serve_drift_mean_decay",
        "serve_probe_accuracy",
        "serve_mitigation_rung",
    ] {
        assert!(text.contains(name), "missing {name}: {text}");
    }

    // Classification still answers after the mitigation republished.
    let ok = client
        .post_json("/v1/classify", &image_json(2))
        .expect("classify after mitigation");
    assert_eq!(ok.status, 200, "{}", ok.text());

    // A manual in-place reload (rung 3 by hand) resets the ladder.
    let reload = client.post_json("/admin/reload", "").expect("reload");
    assert_eq!(reload.status, 200, "{}", reload.text());
    let health = client.get("/healthz").expect("healthz after reload");
    let health_json = Json::parse(&health.text()).unwrap();
    assert_eq!(
        health_json.get("mitigation_rung").and_then(Json::as_u64),
        Some(0),
        "{}",
        health.text()
    );
    assert_eq!(
        health_json.get("probe_accuracy").and_then(Json::as_f64),
        Some(1.0),
        "{}",
        health.text()
    );

    server
        .shutdown_handle()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    server.run_until_shutdown();
}

#[test]
fn replica_pool_answers_bit_identically_to_a_single_instance() {
    const PROBES: usize = 6;

    // Ground truth: a single-replica server classifies each probe.
    let (single, single_addr) = start_server(ServeConfig {
        replicas: 1,
        ..ServeConfig::default()
    });
    let mut client = connect(&single_addr);
    let mut expected: Vec<Vec<f64>> = Vec::new();
    for seed in 0..PROBES {
        let resp = client
            .post_json("/v1/classify", &image_json(seed))
            .expect("single-replica classify");
        assert_eq!(resp.status, 200, "{}", resp.text());
        expected.push(scores_of(&resp.text()));
    }
    single
        .shutdown_handle()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    single.run_until_shutdown();

    // A 3-replica pool under concurrent load: every answer must be
    // bit-identical to the single instance, and every replica must have
    // done real work (per-replica request counters all advance).
    let (server, addr) = start_server(ServeConfig {
        replicas: 3,
        max_batch: 1, // one request per batch spreads work across replicas
        ..ServeConfig::default()
    });
    let addr = Arc::new(addr);
    let expected = Arc::new(expected);
    let mut all_replicas_active = false;
    for _round in 0..12 {
        let workers: Vec<_> = (0..12)
            .map(|worker| {
                let addr = Arc::clone(&addr);
                let expected = Arc::clone(&expected);
                thread::spawn(move || {
                    let mut client = connect(&addr);
                    for rep in 0..PROBES {
                        let seed = (worker + rep) % PROBES;
                        let resp = client
                            .post_json("/v1/classify", &image_json(seed))
                            .expect("replica-pool classify");
                        assert_eq!(resp.status, 200, "{}", resp.text());
                        assert_eq!(
                            scores_of(&resp.text()),
                            expected[seed],
                            "probe {seed} must match the single instance bit-for-bit"
                        );
                    }
                })
            })
            .collect();
        for handle in workers {
            handle.join().expect("worker thread");
        }
        let mut probe = connect(&addr);
        let text = probe.get("/metrics").expect("metrics").text();
        if (0..3).all(|r| counter_value(&text, &format!("serve_replica_requests_{r}")) > 0.0) {
            all_replicas_active = true;
            break;
        }
    }
    assert!(
        all_replicas_active,
        "all three replicas must serve work under sustained concurrent load"
    );
    server
        .shutdown_handle()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    server.run_until_shutdown();
}
