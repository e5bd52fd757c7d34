//! The HTTP inference server.
//!
//! Thread layout:
//!
//! ```text
//! xbar-eventloop thread ──► epoll-driven accept / read / write over every
//!       │                   connection (non-blocking, state machine each)
//!       │ admitted classify requests
//!       ▼
//! bounded BatchQueue ──► N inference replicas (micro-batching, own model
//!       ▲                 snapshot each, hot-swap aware)
//!       │ ResponseSlot notifier ──► completion list + wake pipe
//! ```
//!
//! One thread owns every socket: a hand-rolled epoll loop (the private
//! `event_loop` module) accepts, parses, and writes responses without a
//! per-connection thread. Classify requests pass **admission control**
//! before touching the batch queue: once the in-flight count reaches the
//! admission limit the server sheds load with a cheap `429` +
//! `Retry-After` instead of queueing work it cannot finish in time. A full
//! batch queue is still a `503` (backpressure), never a silent drop.
//! `/healthz` and `/metrics` are answered directly from the event loop's
//! fast path and are never shed.
//!
//! Shutdown (SIGTERM/SIGINT via [`signals`], or `POST /admin/shutdown`)
//! stops accepting, drains in-flight requests up to the request timeout,
//! closes the batch queue, and joins every thread.

use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::base64;
use crate::batcher::{BatchQueue, ClassifyOutcome, Pending, ResponseSlot, SubmitError};
use crate::event_loop::EventLoop;
use crate::http::{write_response_with_headers, HttpError, Request};
use crate::lifecycle::{
    replica_inference_loop, sweep_loop, DriftController, LifecycleConfig, ModelSlot,
};
use xbar_core::ArtifactMeta;
use xbar_nn::Sequential;
use xbar_obs::json::Json;
use xbar_obs::ring::{next_trace_id, RequestTrace, Sampler};
use xbar_obs::{metrics, names, trace};

/// POSIX signal handling without a libc crate: `std` already links libc on
/// unix, so declaring `signal(2)` ourselves is enough for a flag-setting
/// handler.
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    /// Whether SIGTERM/SIGINT has been received since [`install`].
    pub fn signalled() -> bool {
        SIGNALLED.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    pub fn install() {
        extern "C" fn on_signal(_signum: i32) {
            // Async-signal-safe: a single atomic store.
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

/// Largest accepted request body (32 MiB); a larger one gets a `413`.
pub(crate) const MAX_BODY: usize = 32 << 20;

/// Server tunables. `Default` suits tests and the demo; the `serve` binary
/// maps its flags onto these fields.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Inference replicas, each with its own snapshot of the served
    /// model pulled from the versioned slot.
    pub replicas: usize,
    /// Most requests one micro-batch carries. An idle replica takes what
    /// is queued, up to this many, without waiting for more.
    pub max_batch: usize,
    /// Bounded batch-queue capacity (overflow ⇒ 503).
    pub queue_cap: usize,
    /// Per-request wait budget before the client gets a 504.
    pub request_timeout: Duration,
    /// Most connections the event loop will keep registered; accepts past
    /// this are turned away with a `503`.
    pub max_connections: usize,
    /// Admission control: most classify requests allowed in flight at
    /// once — beyond it the server sheds with `429` + `Retry-After`
    /// *before* the batch queue. `0` auto-sizes to
    /// `queue_cap + replicas · max_batch` (everything the pipeline can
    /// actually hold).
    pub admission_limit: usize,
    /// Trace 1-in-N classify requests (0 disables tracing). Sampled
    /// requests get a `trace_id` in the response and their queue → batch →
    /// solve → respond breakdown lands in the span buffer.
    pub trace_sample: u64,
    /// Dump any classify request slower than this many milliseconds to
    /// stderr (with its stage breakdown) and trace it like a sampled one
    /// even when unsampled. 0 disables.
    pub slow_ms: u64,
    /// Drift lifecycle: health sweeps, mitigation ladder, test hooks. The
    /// default disables it (no drift model, no sweep thread).
    pub lifecycle: LifecycleConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 1,
            max_batch: 32,
            queue_cap: 256,
            request_timeout: Duration::from_secs(10),
            max_connections: 4096,
            admission_limit: 0,
            trace_sample: 0,
            slow_ms: 0,
            lifecycle: LifecycleConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The effective admission limit: the configured value, or the
    /// auto-sized pipeline capacity when 0.
    pub fn effective_admission_limit(&self) -> usize {
        if self.admission_limit > 0 {
            self.admission_limit
        } else {
            self.queue_cap + self.replicas.max(1) * self.max_batch.max(1)
        }
    }
}

/// `Retry-After` seconds attached to shed `429`s and backpressure `503`s:
/// micro-batches drain in milliseconds, so one second is a conservative
/// hint that still stops naive clients from hammering a saturated server.
const RETRY_AFTER_S: u64 = 1;

fn retry_after_header() -> [(&'static str, String); 1] {
    [("Retry-After", RETRY_AFTER_S.to_string())]
}

/// Shared request-handling context for the event loop.
pub(crate) struct Ctx {
    /// Versioned, hot-swappable holder of the served network and its
    /// metadata; `/admin/reload` and drift sweeps republish through it.
    pub(crate) slot: Arc<ModelSlot>,
    /// Drift lifecycle controller, present when the lifecycle is active.
    pub(crate) lifecycle: Option<Arc<DriftController>>,
    pub(crate) batch_queue: Arc<BatchQueue>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) cfg: ServeConfig,
    pub(crate) sampler: Sampler,
    /// Resolved admission limit (see [`ServeConfig::admission_limit`]).
    pub(crate) admission_limit: usize,
    /// Values per classify image. Fixed for the life of the server:
    /// reloads refuse an artifact with a different input shape.
    pub(crate) input_len: usize,
}

/// A classify request handed to the inference replicas, with everything
/// needed to finish its HTTP response once the slot fills (or times out).
pub(crate) struct InFlight {
    pub(crate) slot: Arc<ResponseSlot>,
    pub(crate) endpoint: &'static str,
    pub(crate) req_start_us: u64,
    pub(crate) started: Instant,
    pub(crate) deadline: Instant,
    pub(crate) sampled: bool,
    pub(crate) keep_alive: bool,
}

/// What handling one parsed request produced: either finished response
/// bytes, or an in-flight classify awaiting its inference result.
pub(crate) enum DispatchResult {
    Done { bytes: Vec<u8>, keep_alive: bool },
    Pending(Box<InFlight>),
}

fn done(bytes: Vec<u8>, keep_alive: bool) -> DispatchResult {
    DispatchResult::Done { bytes, keep_alive }
}

/// Serialises a full HTTP/1.1 response into a buffer the event loop can
/// write incrementally.
fn response_bytes(
    status: u16,
    reason: &str,
    content_type: &str,
    headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 256);
    write_response_with_headers(
        &mut out,
        status,
        reason,
        content_type,
        headers,
        body,
        keep_alive,
    )
    .expect("writing a response to a Vec cannot fail");
    out
}

fn json_bytes(status: u16, reason: &str, body: &Json, keep_alive: bool) -> Vec<u8> {
    response_bytes(
        status,
        reason,
        "application/json",
        &[],
        body.to_json().as_bytes(),
        keep_alive,
    )
}

fn error_json(detail: &str) -> Json {
    Json::Obj(vec![("error".into(), Json::Str(detail.into()))])
}

/// The inference replicas of a launched server, not yet running.
struct Replicas {
    slot: Arc<ModelSlot>,
    count: usize,
    max_batch: usize,
}

/// A running server; drop-in handle for tests, the binary, and CI smoke.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    loop_handle: Option<JoinHandle<()>>,
    infer_handles: Vec<JoinHandle<()>>,
    sweep_handle: Option<JoinHandle<()>>,
    batch_queue: Arc<BatchQueue>,
}

impl Server {
    /// Binds, spawns the event loop and replicas, and returns immediately,
    /// serving the mapped `model`.
    ///
    /// # Errors
    ///
    /// Returns the bind (or epoll setup) error, or `InvalidInput` when the
    /// drift lifecycle cannot model `model`.
    pub fn start(model: Sequential, meta: ArtifactMeta, cfg: ServeConfig) -> io::Result<Server> {
        let (mut server, replicas) = Server::launch(model, meta, cfg)?;
        server.spawn_replicas(replicas);
        Ok(server)
    }

    /// Everything `start` does except starting the inference replicas: the
    /// server accepts, parses and queues requests, and `spawn_replicas`
    /// starts serving them. Tests call the two apart to park requests in
    /// the queue.
    fn launch(
        model: Sequential,
        meta: ArtifactMeta,
        cfg: ServeConfig,
    ) -> io::Result<(Server, Replicas)> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let batch_queue = BatchQueue::new(cfg.queue_cap);

        let slot = Arc::new(ModelSlot::new(model, meta));
        let lifecycle = if cfg.lifecycle.active() {
            let controller = DriftController::new(cfg.lifecycle, Arc::clone(&slot))
                .map_err(|e| io::Error::new(ErrorKind::InvalidInput, e))?;
            Some(Arc::new(controller))
        } else {
            None
        };

        let replicas = Replicas {
            slot: Arc::clone(&slot),
            count: cfg.replicas.max(1),
            max_batch: cfg.max_batch,
        };

        let sweep_handle = match &lifecycle {
            Some(controller) if cfg.lifecycle.sweep_interval > Duration::ZERO => {
                let controller = Arc::clone(controller);
                let shutdown = Arc::clone(&shutdown);
                let interval = cfg.lifecycle.sweep_interval;
                Some(
                    thread::Builder::new()
                        .name("xbar-sweep".into())
                        .spawn(move || sweep_loop(&controller, &shutdown, interval))
                        .expect("spawn health-sweep thread"),
                )
            }
            _ => None,
        };

        let admission_limit = cfg.effective_admission_limit();
        let input_len = slot.meta().input_len();
        let ctx = Arc::new(Ctx {
            slot: Arc::clone(&slot),
            lifecycle,
            batch_queue: Arc::clone(&batch_queue),
            shutdown: Arc::clone(&shutdown),
            cfg: cfg.clone(),
            sampler: Sampler::new(cfg.trace_sample),
            admission_limit,
            input_len,
        });

        // Build the event loop before spawning so epoll/pipe setup errors
        // surface from start (not inside a dead thread).
        let event_loop = EventLoop::new(listener, Arc::clone(&ctx))?;
        let loop_handle = thread::Builder::new()
            .name("xbar-eventloop".into())
            .spawn(move || event_loop.run())
            .expect("spawn event loop");

        metrics::gauge_set(names::SERVE_UP, 1.0);
        let meta = ctx.slot.meta();
        metrics::gauge_set(
            names::SERVE_DEGRADED,
            if meta.is_degraded() { 1.0 } else { 0.0 },
        );
        metrics::gauge_set(names::SERVE_DEGRADED_TILES, meta.degraded_tiles as f64);
        metrics::gauge_set(names::SERVE_STUCK_CELLS, meta.stuck_cells as f64);
        metrics::gauge_set(names::SERVE_REPAIRED_COLUMNS, meta.repaired_columns as f64);
        metrics::gauge_set(names::SERVE_MAX_FAULT_SCORE, meta.max_fault_score);
        let server = Server {
            addr,
            shutdown,
            loop_handle: Some(loop_handle),
            infer_handles: Vec::new(),
            sweep_handle,
            batch_queue,
        };
        Ok((server, replicas))
    }

    /// Starts the inference replicas, each pulling micro-batches from the
    /// batch queue.
    fn spawn_replicas(&mut self, replicas: Replicas) {
        for i in 0..replicas.count {
            let slot = Arc::clone(&replicas.slot);
            let queue = Arc::clone(&self.batch_queue);
            let max_batch = replicas.max_batch;
            let handle = thread::Builder::new()
                .name(format!("xbar-infer-{i}"))
                .spawn(move || replica_inference_loop(&slot, &queue, max_batch, i))
                .expect("spawn inference replica");
            self.infer_handles.push(handle);
        }
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A flag other threads (or the admin endpoint) can set to stop the
    /// server; [`Server::run_until_shutdown`] also watches process signals.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Blocks until a shutdown is requested (signal, admin endpoint, or
    /// [`Server::shutdown_handle`]), then drains gracefully.
    pub fn run_until_shutdown(self) {
        while !self.shutdown.load(Ordering::SeqCst) && !signals::signalled() {
            thread::sleep(Duration::from_millis(50));
        }
        self.join();
    }

    /// Graceful drain: stop accepting, finish in-flight requests, flush the
    /// batch queue, join every thread.
    pub fn join(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The event loop polls the flag every tick, drops the listener,
        // drains in-flight connections, and exits.
        if let Some(handle) = self.loop_handle.take() {
            handle.join().expect("event loop panicked");
        }
        // No producers remain: close the batch queue so inference replicas
        // drain what is left and exit.
        self.batch_queue.close();
        for handle in self.infer_handles.drain(..) {
            handle.join().expect("inference replica panicked");
        }
        // The sweep thread polls the shutdown flag in short ticks.
        if let Some(handle) = self.sweep_handle.take() {
            handle.join().expect("health-sweep thread panicked");
        }
        // Final accounting: how much tracing data the bounded buffer shed.
        let (spans_dropped, events_dropped) = trace::dropped_counts();
        if spans_dropped + events_dropped > 0 {
            metrics::counter_add(
                names::OBS_TRACE_SPANS_DROPPED,
                spans_dropped + events_dropped,
            );
        }
        metrics::gauge_set(names::SERVE_UP, 0.0);
    }
}

/// Best-effort `503` for a socket turned away at the connection limit,
/// before it ever joins the poll set.
pub(crate) fn reject_connection(stream: TcpStream, max_connections: usize) {
    stream.set_nonblocking(true).ok();
    let body = error_json(&format!(
        "connection limit reached ({max_connections} open), retry later"
    ));
    let bytes = response_bytes(
        503,
        "Service Unavailable",
        "application/json",
        &retry_after_header(),
        body.to_json().as_bytes(),
        false,
    );
    let _ = (&stream).write(&bytes);
}

/// The response for a request that arrived after drain began.
pub(crate) fn shutting_down_response() -> Vec<u8> {
    response_bytes(
        503,
        "Service Unavailable",
        "application/json",
        &retry_after_header(),
        error_json("server is shutting down").to_json().as_bytes(),
        false,
    )
}

/// Maps a request-parse error to its response bytes (the connection
/// closes after them).
pub(crate) fn http_error_response(err: &HttpError) -> Vec<u8> {
    match err {
        HttpError::Bad(msg) => {
            metrics::counter_add(names::SERVE_BAD_REQUESTS, 1);
            json_bytes(400, "Bad Request", &error_json(msg), false)
        }
        HttpError::NeedsLength => json_bytes(
            411,
            "Length Required",
            &error_json("send Content-Length"),
            false,
        ),
        HttpError::BodyTooLarge { limit } => json_bytes(
            413,
            "Payload Too Large",
            &error_json(&format!("body exceeds {limit} bytes")),
            false,
        ),
    }
}

/// Stable low-cardinality label for the per-endpoint latency series.
fn endpoint_label(request: &Request) -> &'static str {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/metrics") => "metrics",
        ("GET", "/v1/model") => "model",
        ("POST", "/v1/classify") => "classify",
        ("POST", "/admin/shutdown") => "admin",
        ("POST", "/admin/reload") => "admin",
        ("POST", "/admin/advance-time") => "admin",
        _ => "other",
    }
}

/// Handles one parsed request from the event loop. `inflight_now` is the
/// loop's current count of admitted-but-unanswered classify requests (the
/// admission-control signal); `notify` is the completion callback a
/// pending classify must fire when its slot fills.
///
/// Finished (`Done`) requests land in the per-endpoint latency histogram
/// here; pending ones are recorded by [`finish_inflight`].
pub(crate) fn dispatch(
    request: &Request,
    ctx: &Ctx,
    inflight_now: usize,
    notify: Box<dyn FnOnce() + Send>,
) -> DispatchResult {
    let start = Instant::now();
    let endpoint = endpoint_label(request);
    metrics::counter_add(names::SERVE_HTTP_REQUESTS, 1);
    let keep_alive = request.keep_alive() && !ctx.shutdown.load(Ordering::SeqCst);
    let result = route(request, ctx, endpoint, inflight_now, keep_alive, notify);
    if let DispatchResult::Done { .. } = &result {
        metrics::latency_record_us(
            &names::serve_request_us(endpoint),
            start.elapsed().as_micros() as u64,
        );
    }
    result
}

fn route(
    request: &Request,
    ctx: &Ctx,
    endpoint: &'static str,
    inflight_now: usize,
    keep_alive: bool,
    notify: Box<dyn FnOnce() + Send>,
) -> DispatchResult {
    match (request.method.as_str(), request.path.as_str()) {
        // Health and metrics are answered straight off the fast path —
        // admission control and the batch queue never touch them, so
        // orchestrator probes keep working on a saturated server.
        ("GET", "/healthz") => done(
            json_bytes(200, "OK", &healthz_json(ctx), keep_alive),
            keep_alive,
        ),
        ("GET", "/metrics") => done(
            response_bytes(
                200,
                "OK",
                "text/plain; version=0.0.4",
                &[],
                metrics::to_text().as_bytes(),
                keep_alive,
            ),
            keep_alive,
        ),
        ("GET", "/v1/model") => done(
            json_bytes(200, "OK", &model_json(ctx), keep_alive),
            keep_alive,
        ),
        ("POST", "/v1/classify") => {
            classify_dispatch(request, ctx, endpoint, inflight_now, keep_alive, notify)
        }
        ("POST", "/admin/shutdown") => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            let body = Json::Obj(vec![("status".into(), Json::Str("shutting down".into()))]);
            done(json_bytes(200, "OK", &body, false), false)
        }
        ("POST", "/admin/reload") => {
            let (status, reason, body) = admin_reload(request, ctx);
            done(json_bytes(status, reason, &body, keep_alive), keep_alive)
        }
        ("POST", "/admin/advance-time") => {
            let (status, reason, body) = admin_advance_time(request, ctx);
            done(json_bytes(status, reason, &body, keep_alive), keep_alive)
        }
        _ => {
            let body = error_json(&format!("no route {} {}", request.method, request.path));
            done(json_bytes(404, "Not Found", &body, keep_alive), keep_alive)
        }
    }
}

/// The `/healthz` body: liveness, queue depth, degradation counters, and
/// (when active) the drift-lifecycle status.
fn healthz_json(ctx: &Ctx) -> Json {
    // Degraded ≠ dead: tiles past the repair threshold lower the reported
    // health but the server keeps classifying, so probes still get HTTP
    // 200 and orchestrators can alert without restarting a model that is
    // merely less accurate.
    let meta = ctx.slot.meta();
    let status = if meta.is_degraded() { "degraded" } else { "ok" };
    let mut fields = vec![
        ("status".into(), Json::Str(status.into())),
        ("model".into(), Json::Str(meta.label.clone())),
        (
            "queue_depth".into(),
            Json::Num(ctx.batch_queue.depth() as f64),
        ),
        (
            "degraded_tiles".into(),
            Json::Num(meta.degraded_tiles as f64),
        ),
        (
            "repaired_columns".into(),
            Json::Num(meta.repaired_columns as f64),
        ),
        ("stuck_cells".into(), Json::Num(meta.stuck_cells as f64)),
    ];
    fields.extend(lifecycle_fields(ctx));
    Json::Obj(fields)
}

/// The `/v1/model` body: the artifact's mapping summary extended with the
/// published model version and, when active, the drift-lifecycle status.
fn model_json(ctx: &Ctx) -> Json {
    let Json::Obj(mut fields) = ctx.slot.meta().summary_json() else {
        unreachable!("summary_json always returns an object");
    };
    fields.push(("model_version".into(), Json::Num(ctx.slot.version() as f64)));
    fields.extend(lifecycle_fields(ctx));
    Json::Obj(fields)
}

/// Drift-lifecycle fields shared by `/healthz` and `/v1/model`; empty when
/// the lifecycle is disabled, so static deployments keep their old bodies.
fn lifecycle_fields(ctx: &Ctx) -> Vec<(String, Json)> {
    let Some(controller) = &ctx.lifecycle else {
        return Vec::new();
    };
    let status = controller.status();
    vec![
        ("health_sweeps".into(), Json::Num(status.sweeps as f64)),
        (
            "last_sweep_unix_s".into(),
            status
                .last_sweep_unix_s
                .map_or(Json::Null, |t| Json::Num(t as f64)),
        ),
        ("probe_accuracy".into(), Json::Num(status.probe_accuracy)),
        ("probe_deviation".into(), Json::Num(status.probe_deviation)),
        (
            "probe_current_deviation".into(),
            Json::Num(status.probe_current_deviation),
        ),
        ("mitigation_rung".into(), Json::Num(f64::from(status.rung))),
        ("drift_elapsed_s".into(), Json::Num(status.drift_elapsed_s)),
        ("drift_mean_decay".into(), Json::Num(status.mean_decay)),
    ]
}

/// `POST /admin/reload` — hot artifact swap. Body `{"artifact": "<path>"}`
/// loads and swaps in that bundle (validated request-compatible); an empty
/// body re-programs the current artifact in place (a manual rung-3
/// recovery). In-flight requests finish on the old weights.
fn admin_reload(request: &Request, ctx: &Ctx) -> (u16, &'static str, Json) {
    let artifact = if request.body.is_empty() {
        None
    } else {
        match parse_body(&request.body) {
            Ok(json) => match json.get("artifact") {
                None | Some(Json::Null) => None,
                Some(Json::Str(path)) => Some(path.clone()),
                Some(other) => {
                    let msg = format!(
                        "\"artifact\" must be a path string, got {}",
                        other.to_json()
                    );
                    return (400, "Bad Request", error_json(&msg));
                }
            },
            Err(msg) => return (400, "Bad Request", error_json(&msg)),
        }
    };
    let result = match &ctx.lifecycle {
        Some(controller) => controller.reload(artifact.as_deref()),
        None => reload_without_lifecycle(&ctx.slot, artifact.as_deref()),
    };
    match result {
        Ok((version, label)) => (
            200,
            "OK",
            Json::Obj(vec![
                ("status".into(), Json::Str("reloaded".into())),
                ("model".into(), Json::Str(label)),
                ("model_version".into(), Json::Num(version as f64)),
            ]),
        ),
        Err(msg) => (409, "Conflict", error_json(&msg)),
    }
}

/// The slot-only reload path for deployments without a drift lifecycle:
/// still validates compatibility and swaps without dropping requests. The
/// artifact is mapped, not read — the tensor parser streams straight out
/// of the page cache.
fn reload_without_lifecycle(
    slot: &ModelSlot,
    artifact: Option<&str>,
) -> Result<(u64, String), String> {
    let (version, label) = match artifact {
        Some(path) => {
            let bundle = xbar_core::load_artifact_bundle_mmap(path)
                .map_err(|e| format!("cannot load artifact {path}: {e}"))?;
            let label = bundle.meta.label.clone();
            (slot.publish_bundle(bundle.model, bundle.meta)?, label)
        }
        None => {
            // Nothing drifts without a lifecycle; republish as-is so the
            // endpoint still answers (and bumps the version) uniformly.
            let model = slot.exact_model();
            (slot.publish_exact(model), slot.meta().label.clone())
        }
    };
    metrics::counter_add(names::SERVE_RELOADS, 1);
    Ok((version, label))
}

/// `POST /admin/advance-time` — test hook (404 unless enabled): advances
/// the simulated drift clock by `{"seconds": N}` and, with `"sweep": true`,
/// runs one synchronous health sweep so tests observe the mitigation
/// deterministically.
fn admin_advance_time(request: &Request, ctx: &Ctx) -> (u16, &'static str, Json) {
    if !ctx.cfg.lifecycle.test_hooks {
        // Hidden, not forbidden: indistinguishable from an unknown route.
        return (
            404,
            "Not Found",
            error_json(&format!("no route {} {}", request.method, request.path)),
        );
    }
    let Some(controller) = &ctx.lifecycle else {
        return (409, "Conflict", error_json("drift lifecycle is not active"));
    };
    let parsed = parse_body(&request.body).and_then(|json| {
        let seconds = json
            .get("seconds")
            .and_then(Json::as_f64)
            .ok_or("body needs \"seconds\" (number)")?;
        if !seconds.is_finite() || seconds < 0.0 {
            return Err(format!(
                "\"seconds\" must be finite and >= 0, got {seconds}"
            ));
        }
        let sweep = json.get("sweep").and_then(Json::as_bool).unwrap_or(false);
        Ok((seconds, sweep))
    });
    let (seconds, sweep) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => return (400, "Bad Request", error_json(&msg)),
    };
    let (elapsed, mean_decay) = controller.advance_time(seconds);
    let mut fields = vec![
        ("status".into(), Json::Str("advanced".into())),
        ("drift_elapsed_s".into(), Json::Num(elapsed)),
        ("drift_mean_decay".into(), Json::Num(mean_decay)),
    ];
    if sweep {
        let report = controller.sweep();
        fields.push((
            "sweep".into(),
            Json::Obj(vec![
                ("rung".into(), Json::Num(f64::from(report.rung))),
                ("pre_accuracy".into(), Json::Num(report.pre_accuracy)),
                ("post_accuracy".into(), Json::Num(report.post_accuracy)),
                (
                    "refreshed_cells".into(),
                    Json::Num(report.refreshed_cells as f64),
                ),
                (
                    "remapped_columns".into(),
                    Json::Num(report.remapped_columns as f64),
                ),
            ]),
        ));
    }
    (200, "OK", Json::Obj(fields))
}

/// Parses a classify body into JSON.
fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| format!("body is not valid JSON: {e}"))
}

/// Checks the optional `"tier"` body field. A server holds one weight set,
/// the solver-mapped `W'`, which older clients name `"exact"`; a request
/// naming anything else is refused rather than answered from `W'` untold.
fn check_tier(json: &Json) -> Result<(), String> {
    match json.get("tier") {
        None | Some(Json::Null) => Ok(()),
        Some(Json::Str(name)) if name == "exact" => Ok(()),
        Some(other) => Err(format!(
            "\"tier\" {} is not served: this server serves only the mapped \
             weights W' (\"exact\"); drop the field",
            other.to_json()
        )),
    }
}

/// Extracts the image from a classify body: `image` (JSON array of floats)
/// or `image_b64` (base64 little-endian f32 bytes).
fn parse_image(json: &Json, expected_len: usize) -> Result<Vec<f32>, String> {
    let image = if let Some(b64) = json.get("image_b64").and_then(Json::as_str) {
        base64::decode_f32(b64).map_err(|e| format!("image_b64: {e}"))?
    } else if let Some(values) = json.get("image").and_then(Json::as_arr) {
        values
            .iter()
            .map(|v| v.as_f64().map(|f| f as f32))
            .collect::<Option<Vec<f32>>>()
            .ok_or("\"image\" must be an array of numbers")?
    } else {
        return Err("body needs \"image\" (float array) or \"image_b64\" (LE f32 base64)".into());
    };
    if image.len() != expected_len {
        return Err(format!(
            "image has {} values, model expects {expected_len}",
            image.len()
        ));
    }
    if let Some(bad) = image.iter().find(|v| !v.is_finite()) {
        return Err(format!("image contains non-finite value {bad}"));
    }
    Ok(image)
}

/// Starts a classify request: admission control first (shed with 429
/// before any body parsing), then validation, then submission to the
/// batch queue with the completion notifier pre-registered.
fn classify_dispatch(
    request: &Request,
    ctx: &Ctx,
    endpoint: &'static str,
    inflight_now: usize,
    keep_alive: bool,
    notify: Box<dyn FnOnce() + Send>,
) -> DispatchResult {
    metrics::counter_add(names::SERVE_CLASSIFY_REQUESTS, 1);
    if inflight_now >= ctx.admission_limit {
        // Shed before spending anything on the body: the pipeline already
        // holds more work than it can finish inside the request timeout.
        metrics::counter_add(names::SERVE_ADMISSION_SHED, 1);
        let body = error_json(&format!(
            "admission limit reached ({inflight_now} requests in flight), retry later"
        ));
        return done(
            response_bytes(
                429,
                "Too Many Requests",
                "application/json",
                &retry_after_header(),
                body.to_json().as_bytes(),
                keep_alive,
            ),
            keep_alive,
        );
    }
    let req_start_us = trace::now_us();
    let sampled = ctx.sampler.sample();
    let parse_start = Instant::now();
    let parsed = parse_body(&request.body).and_then(|json| {
        check_tier(&json)?;
        parse_image(&json, ctx.input_len)
    });
    metrics::latency_record_us(
        names::SERVE_PARSE_US,
        parse_start.elapsed().as_micros() as u64,
    );
    let input = match parsed {
        Ok(input) => input,
        Err(msg) => {
            metrics::counter_add(names::SERVE_CLASSIFY_BAD_INPUT, 1);
            return done(
                json_bytes(400, "Bad Request", &error_json(&msg), keep_alive),
                keep_alive,
            );
        }
    };
    let slot = ResponseSlot::new();
    // Notifier before submit: a fill can race ahead of this line otherwise
    // and the completion would never reach the event loop.
    slot.set_notifier(notify);
    let pending = Pending::new(input, Arc::clone(&slot));
    if let Err(e) = ctx.batch_queue.submit(pending) {
        metrics::counter_add(names::SERVE_CLASSIFY_REJECTED, 1);
        let detail = match e {
            SubmitError::QueueFull { cap } => format!("queue full ({cap} waiting), retry later"),
            SubmitError::Closed => "server is shutting down".into(),
        };
        return done(
            response_bytes(
                503,
                "Service Unavailable",
                "application/json",
                &retry_after_header(),
                error_json(&detail).to_json().as_bytes(),
                keep_alive,
            ),
            keep_alive,
        );
    }
    let now = Instant::now();
    DispatchResult::Pending(Box::new(InFlight {
        slot,
        endpoint,
        req_start_us,
        started: now,
        deadline: now + ctx.cfg.request_timeout,
        sampled,
        keep_alive,
    }))
}

/// Finishes an in-flight classify: `None` means the request timed out
/// (504), `Some(Err)` an inference failure (500), `Some(Ok)` the answer.
/// Returns the response bytes and whether the connection stays open.
pub(crate) fn finish_inflight(
    inflight: InFlight,
    outcome: Option<Result<ClassifyOutcome, String>>,
    ctx: &Ctx,
) -> (Vec<u8>, bool) {
    let keep_alive = inflight.keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
    let bytes = match outcome {
        None => {
            metrics::counter_add(names::SERVE_CLASSIFY_TIMEOUT, 1);
            let body = error_json(&format!(
                "no result within {:?} — inference backlog",
                ctx.cfg.request_timeout
            ));
            json_bytes(504, "Gateway Timeout", &body, keep_alive)
        }
        Some(Err(msg)) => {
            metrics::counter_add(names::SERVE_CLASSIFY_FAILED, 1);
            json_bytes(500, "Internal Server Error", &error_json(&msg), keep_alive)
        }
        Some(Ok(outcome)) => {
            metrics::counter_add(names::SERVE_CLASSIFY_OK, 1);
            let respond_start_us = trace::now_us();
            let mut fields = vec![
                ("class".into(), Json::Num(outcome.class as f64)),
                (
                    "scores".into(),
                    Json::Arr(
                        outcome
                            .scores
                            .iter()
                            .map(|&s| Json::Num(f64::from(s)))
                            .collect(),
                    ),
                ),
                ("batch_size".into(), Json::Num(outcome.batch_size as f64)),
                ("model".into(), ctx.slot.meta().summary_json()),
            ];
            // Finish the per-request trace. The `respond` stage and total
            // run to just before the socket write — the trace ID has to be
            // serialised into the very response it describes.
            let now_us = trace::now_us();
            let total_us = now_us.saturating_sub(inflight.req_start_us);
            let slow = ctx.cfg.slow_ms > 0 && total_us > ctx.cfg.slow_ms * 1000;
            if inflight.sampled || slow {
                let mut rec =
                    RequestTrace::new(next_trace_id(), inflight.endpoint, inflight.req_start_us);
                rec.stages = outcome.stages;
                rec.push_stage(
                    "respond",
                    respond_start_us,
                    now_us.saturating_sub(respond_start_us),
                );
                rec.total_us = total_us;
                if inflight.sampled {
                    metrics::counter_add(names::SERVE_TRACE_SAMPLED, 1);
                }
                if slow {
                    metrics::counter_add(names::SERVE_SLOW_REQUESTS, 1);
                    eprintln!("[serve] slow request: {}", rec.describe());
                }
                // Spans before write: a client that sees the ID can find it.
                rec.emit_spans();
                fields.push(("trace_id".into(), Json::Str(rec.id.to_string())));
            }
            json_bytes(200, "OK", &Json::Obj(fields), keep_alive)
        }
    };
    metrics::latency_record_us(
        &names::serve_request_us(inflight.endpoint),
        inflight.started.elapsed().as_micros() as u64,
    );
    (bytes, keep_alive)
}

#[cfg(test)]
mod tests;
