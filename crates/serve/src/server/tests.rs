//! Server tests that park classify requests in the batch queue. Each starts
//! the server with its inference replicas held back (`Server::launch`
//! without `Server::spawn_replicas`), polls `/healthz` until the queue
//! holds the parked requests, checks what the server does meanwhile, and
//! only then releases the replicas: no timing window to win or lose.
//!
//! The `"tier"` test lives here too: it counts `serve_classify_bad_input`
//! exactly, and no other test in this binary sends a bad classify body
//! (the end-to-end suite does, in parallel, in its own process). Likewise
//! the slow-request test counts `serve_slow_requests` exactly, and no other
//! test in this binary sets `slow_ms`.

#[path = "../../tests/support/mod.rs"]
mod support;

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use super::{Replicas, ServeConfig, Server};
use crate::client::Client;
use support::{counter_value, image_json, mapped_via_artifact, scores_of};
use xbar_obs::json::Json;
use xbar_obs::{trace, FieldValue};

/// Starts a server on the mapped tiny model whose replicas stay held until
/// the test hands the returned [`Replicas`] to `spawn_replicas`.
fn start_held(cfg: ServeConfig) -> (Server, Replicas, String) {
    let (model, meta) = mapped_via_artifact("held");
    let (server, replicas) = Server::launch(model, meta, cfg).expect("server starts");
    let addr = server.local_addr().to_string();
    (server, replicas, addr)
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(20)).expect("client connects")
}

/// Polls `/healthz` until `depth` requests wait in the batch queue.
fn wait_for_queue_depth(client: &mut Client, depth: u64) {
    let give_up = Instant::now() + Duration::from_secs(20);
    loop {
        let health = client.get("/healthz").expect("healthz");
        let json = Json::parse(&health.text()).expect("healthz is JSON");
        if json.get("queue_depth").and_then(Json::as_u64) == Some(depth) {
            return;
        }
        assert!(
            Instant::now() < give_up,
            "the batch queue never held {depth} requests: {}",
            health.text()
        );
    }
}

#[test]
fn concurrent_clients_share_batches_and_agree_with_serial_answers() {
    let (mut server, replicas, addr) = start_held(ServeConfig {
        max_batch: 8,
        ..ServeConfig::default()
    });

    // 12 concurrent clients, one request each, all parked in the queue
    // until the replica is released.
    let addr = Arc::new(addr);
    let handles: Vec<_> = (0..12)
        .map(|seed| {
            let addr = Arc::clone(&addr);
            thread::spawn(move || {
                let mut client = connect(&addr);
                let response = client
                    .post_json("/v1/classify", &image_json(seed))
                    .expect("concurrent classify");
                assert_eq!(response.status, 200, "{}", response.text());
                let json = Json::parse(&response.text()).unwrap();
                (
                    json.get("class").and_then(Json::as_u64).unwrap(),
                    json.get("batch_size").and_then(Json::as_u64).unwrap(),
                )
            })
        })
        .collect();
    let mut serial = connect(&addr);
    wait_for_queue_depth(&mut serial, 12);
    server.spawn_replicas(replicas);
    let answers: Vec<(u64, u64)> = handles
        .into_iter()
        .map(|handle| handle.join().expect("client thread"))
        .collect();

    // Serial ground truth over one connection, each request alone.
    let mut expected = Vec::new();
    for seed in 0..12 {
        let response = serial
            .post_json("/v1/classify", &image_json(seed))
            .expect("serial classify");
        assert_eq!(response.status, 200);
        let json = Json::parse(&response.text()).unwrap();
        expected.push(json.get("class").and_then(Json::as_u64).unwrap());
    }

    let mut saw_shared_batch = false;
    for (seed, &(class, batch_size)) in answers.iter().enumerate() {
        assert_eq!(
            class, expected[seed],
            "request {seed}: batched answer must match serial answer"
        );
        saw_shared_batch |= batch_size > 1;
    }
    assert!(saw_shared_batch, "micro-batching never aggregated requests");
    // The released replica takes what is queued at once: 8, then the 4
    // left over.
    let mut sizes: Vec<u64> = answers.iter().map(|&(_, size)| size).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, [4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8]);
    server.join();
}

#[test]
fn backpressure_503_carries_a_retry_after_hint() {
    // One held replica and a queue of one: the first request parks in the
    // queue, so a second connection's request must be refused with 503
    // and the Retry-After hint the retrying client honours.
    let (mut server, replicas, addr) = start_held(ServeConfig {
        replicas: 1,
        max_batch: 64,
        queue_cap: 1,
        request_timeout: Duration::from_secs(20),
        ..ServeConfig::default()
    });
    let first_addr = addr.clone();
    let first = thread::spawn(move || {
        let mut client = connect(&first_addr);
        client
            .post_json("/v1/classify", &image_json(0))
            .expect("queued classify")
            .status
    });
    let mut client = connect(&addr);
    wait_for_queue_depth(&mut client, 1);
    let refused = client
        .post_json("/v1/classify", &image_json(1))
        .expect("refused classify");
    assert_eq!(refused.status, 503, "{}", refused.text());
    assert_eq!(
        refused.retry_after,
        Some(1),
        "backpressure must carry a Retry-After hint: {}",
        refused.text()
    );
    server.spawn_replicas(replicas);
    assert_eq!(first.join().expect("first client"), 200);
    server.join();
}

#[test]
fn saturated_admission_sheds_429_but_health_and_inflight_requests_survive() {
    // One held replica and an admission limit of one: the first classify
    // parks in flight until the replica is released. Meanwhile health
    // endpoints must keep answering 200 and a second classify must be
    // shed with 429 + Retry-After — and the parked request must still
    // complete, bit-identical to an unsaturated run of the same image.
    let (mut server, replicas, addr) = start_held(ServeConfig {
        replicas: 1,
        max_batch: 64,
        queue_cap: 1,
        admission_limit: 1,
        request_timeout: Duration::from_secs(20),
        ..ServeConfig::default()
    });
    let parked_addr = addr.clone();
    let parked = thread::spawn(move || {
        let mut client = connect(&parked_addr);
        let resp = client
            .post_json("/v1/classify", &image_json(2))
            .expect("parked classify");
        (resp.status, resp.text())
    });
    let mut client = connect(&addr);
    wait_for_queue_depth(&mut client, 1);

    // Health, model, and metrics ride the event loop's fast path: they
    // are never subject to admission control or the batch queue.
    let health = client.get("/healthz").expect("healthz while saturated");
    assert_eq!(health.status, 200, "{}", health.text());
    let model_info = client.get("/v1/model").expect("model while saturated");
    assert_eq!(model_info.status, 200);
    let metrics = client.get("/metrics").expect("metrics while saturated");
    assert_eq!(metrics.status, 200);

    // A second classify is over the admission limit: shed, not queued.
    let shed = client
        .post_json("/v1/classify", &image_json(3))
        .expect("shed classify");
    assert_eq!(shed.status, 429, "{}", shed.text());
    assert_eq!(
        shed.retry_after,
        Some(1),
        "admission shed must carry a Retry-After hint: {}",
        shed.text()
    );
    assert!(shed.text().contains("admission limit"), "{}", shed.text());
    let metrics_text = client.get("/metrics").expect("metrics").text();
    assert!(
        counter_value(&metrics_text, "serve_admission_shed") >= 1.0,
        "shed counter must register: {metrics_text}"
    );

    // The parked request completes despite the shedding around it...
    server.spawn_replicas(replicas);
    let (parked_status, parked_body) = parked.join().expect("parked thread");
    assert_eq!(parked_status, 200, "{parked_body}");
    // ...and its answer is bit-identical to the same image classified on
    // the now-idle server (batching and admission never perturb scores).
    let idle = client
        .post_json("/v1/classify", &image_json(2))
        .expect("idle classify");
    assert_eq!(idle.status, 200, "{}", idle.text());
    assert_eq!(
        scores_of(&parked_body),
        scores_of(&idle.text()),
        "saturated and idle scores must match bit-for-bit"
    );
    server.join();
}

#[test]
fn naming_a_tier_other_than_the_mapped_weights_is_a_400() {
    // One weight set is served: the mapped W', which older clients name
    // "exact". Any other tier is refused with a 400 saying so, never
    // answered from W' untold.
    let (model, meta) = mapped_via_artifact("tier");
    let server = Server::start(model, meta, ServeConfig::default()).expect("server starts");
    let mut client = connect(&server.local_addr().to_string());
    let bad_input = |client: &mut Client| {
        let text = client.get("/metrics").expect("metrics").text();
        counter_value(&text, "serve_classify_bad_input")
    };
    let with_tier = |tier: &str| image_json(1).replacen('{', &format!("{{\"tier\":{tier},"), 1);
    let before = bad_input(&mut client);
    let refused = ["\"ideal\"", "\"surrogate\"", "7"];
    for tier in refused {
        let resp = client
            .post_json("/v1/classify", &with_tier(tier))
            .expect("classify");
        assert_eq!(resp.status, 400, "{tier}: {}", resp.text());
        assert!(
            resp.text().contains("mapped weights"),
            "{tier}: {}",
            resp.text()
        );
    }
    // "exact" and no tier at all are served, on the same connection.
    for body in [with_tier("\"exact\""), image_json(1)] {
        let ok = client.post_json("/v1/classify", &body).expect("classify");
        assert_eq!(ok.status, 200, "{body}: {}", ok.text());
    }
    assert_eq!(bad_input(&mut client) - before, refused.len() as f64);
    server.join();
}

#[test]
fn a_slow_unsampled_classify_keeps_its_trace() {
    // Sampling is off, so only the slow-request path can trace this
    // classify. It waits in the queue, replicas held, until it is past the
    // 1 ms threshold.
    let (mut server, replicas, addr) = start_held(ServeConfig {
        slow_ms: 1,
        trace_sample: 0,
        ..ServeConfig::default()
    });
    let mut client = connect(&addr);
    let slow_requests = |client: &mut Client| {
        let text = client.get("/metrics").expect("metrics").text();
        counter_value(&text, "serve_slow_requests")
    };
    let before = slow_requests(&mut client);
    let parked_addr = addr.clone();
    let parked = thread::spawn(move || {
        let mut client = connect(&parked_addr);
        let resp = client
            .post_json("/v1/classify", &image_json(4))
            .expect("parked classify");
        (resp.status, resp.text())
    });
    wait_for_queue_depth(&mut client, 1);
    thread::sleep(Duration::from_millis(5));
    server.spawn_replicas(replicas);
    let (status, body) = parked.join().expect("parked thread");
    assert_eq!(status, 200, "{body}");
    let id = Json::parse(&body)
        .expect("classify JSON")
        .get("trace_id")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("a slow response carries a trace_id: {body}"))
        .to_string();
    assert_eq!(slow_requests(&mut client) - before, 1.0);

    // Its spans are in the one span buffer, joined on the trace ID.
    let tag = ("trace_id", FieldValue::Str(id.clone()));
    let names: Vec<&str> = trace::all_spans()
        .iter()
        .filter(|s| s.fields.contains(&tag))
        .map(|s| s.name)
        .collect();
    assert_eq!(
        names,
        ["queue", "batch", "solve", "respond", "request"],
        "spans of slow request {id}"
    );
    server.join();
}
