//! `serve`: the `serve` binary with its default flags, hosting a saved
//! 32×32-mapped VGG11 artifact, over keep-alive connections. After a
//! second of untimed warm-up, the run alternates seven closed and open
//! segments of equal length. The closed loop runs from one client thread
//! over 2 connections, each sending its next request when its last
//! returns: its rate is the throughput two waiting callers get. The open
//! loop sends seeded Poisson arrivals at 20 req/s over 2 connections
//! (under a third of the closed-loop rate of a 2-core host even when a
//! noisy neighbour halves it), each request timed from when it was due, so
//! a stall shows as queueing. One body in four is JSON floats, the rest
//! base64. This is the only workload that runs `xbar-serve`: the event
//! loop, HTTP and JSON/base64 parsing, the micro-batcher's 2 ms deadline
//! and small-batch forward passes.
//!
//! The traced run records client-side spans per request (all spans of a
//! request share its ID), scrapes `/metrics` before and after the traced
//! phases for the server's own accounting, and times the parse and
//! forward calls in-process on the same mmap-loaded artifact.

use super::{per_layer_defaults, repeat_setup, span_metrics, Ctx, Outcome};
use crate::http::{scores, Conn};
use crate::prom::{Histogram, Scrape};
use crate::stats::{mean, median, percentile, poisson_schedule};
use crate::trace::{merge, Span, Totals, Tracer};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xbar_core::{load_artifact_bundle_mmap, map_to_crossbars, save_artifact_to_file, ArtifactMeta};
use xbar_data::Split;
use xbar_nn::{Mode, Sequential};
use xbar_prune::PruneMethod;
use xbar_tensor::Tensor;

/// Closed-loop connections, all driven from one thread: no more clients
/// than a 2-core host has cores, so the phase measures the server rather
/// than the scheduler.
const CLOSED_CONNECTIONS: usize = 2;
/// Open-loop connections, a free one taking the next request due.
const OPEN_CONNECTIONS: usize = 2;
const OPEN_RATE: f64 = 20.0;
/// Closed/open segment pairs per untraced run.
const SEGMENTS: usize = 7;
/// Untimed closed loop before any phase is measured.
const WARM_UP: Duration = Duration::from_secs(1);
const IMAGES: usize = 64;
const PROBES: usize = 8;
const CLASSES: usize = 10;
const CROSSBAR: usize = 32;
const INPUT_SHAPE: [usize; 3] = [3, 32, 32];

/// A running `serve` process. Dropping it stops the process and waits for
/// it to exit.
struct Server {
    child: Child,
    /// Held open: the server prints its address here and must never hit a
    /// closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn(bin: &Path, artifact: &Path, log: &Path) -> Result<Server, String> {
        let log =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("--artifact")
            .arg(artifact)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .map(str::to_string);
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
        };
        if read.is_err() || server.addr.is_empty() {
            return Err(format!("serve did not report its address (got {line:?})"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let healthy = Conn::connect(&server.addr)
                .and_then(|mut c| c.request("GET", "/healthz", b""))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok(server);
            }
            if Instant::now() > deadline || server.child.try_wait().ok().flatten().is_some() {
                return Err("serve never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn scrape(&self) -> Result<Scrape, String> {
        let resp = Conn::connect(&self.addr)
            .and_then(|mut c| c.request("GET", "/metrics", b""))
            .map_err(|e| format!("GET /metrics: {e}"))?;
        Scrape::parse(&String::from_utf8_lossy(&resp.body))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(mut c) = Conn::connect(&self.addr) {
            let _ = c.request("POST", "/admin/shutdown", b"");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One in this many requests sends a JSON float array, the rest base64:
/// the two differ several-fold in server parse cost, and a 1:3 mix keeps
/// the latency median inside one kind's mode instead of between the two.
const JSON_EVERY: usize = 4;

/// The request body for image `k`.
fn body(k: usize, image: &[f32]) -> Vec<u8> {
    if k.is_multiple_of(JSON_EVERY) {
        let values: Vec<String> = image.iter().map(|v| format!("{v}")).collect();
        format!("{{\"image\":[{}]}}", values.join(",")).into_bytes()
    } else {
        format!(
            "{{\"image_b64\":\"{}\"}}",
            xbar_serve::base64::encode_f32(image)
        )
        .into_bytes()
    }
}

struct Setup {
    server: Server,
    /// The artifact's exact weights, loaded in-process through mmap.
    model: Sequential,
    images: Vec<Vec<f32>>,
    /// `bodies[k]` carries `images[k]`; request `i` sends `bodies[i % IMAGES]`.
    bodies: Vec<Vec<u8>>,
    dir: PathBuf,
}

fn setup(ctx: &Ctx, st: &mut super::SetupTimes) -> Result<Setup, String> {
    let data = st.time("data.generate_s", || super::dataset(ctx.seed, 0, IMAGES));
    let len: usize = INPUT_SHAPE.iter().product();
    let images: Vec<Vec<f32>> = data
        .images(Split::Test)
        .as_slice()
        .chunks(len)
        .map(<[f32]>::to_vec)
        .collect();
    let model = super::vgg11(ctx.seed);
    let cfg = super::map::map_config(
        PruneMethod::None,
        None,
        CROSSBAR,
        super::mix(ctx.seed, 3, 0),
    );
    let (mut noisy, report) = map_to_crossbars(&model, &cfg).map_err(|e| e.to_string())?;
    let mut meta = ArtifactMeta::from_mapping("benchmark VGG11 32x32", &cfg, &report);
    meta.num_classes = CLASSES;
    meta.input_shape = INPUT_SHAPE.to_vec();
    let dir = ctx.out.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let artifact = dir.join("model.xbarmdl");
    st.time("core.artifact_save_s", || {
        save_artifact_to_file(&mut noisy, &meta, &artifact)
    })
    .map_err(|e| format!("save artifact: {e}"))?;
    let bundle = st
        .time("core.artifact_load_s", || {
            load_artifact_bundle_mmap(&artifact)
        })
        .map_err(|e| format!("load artifact: {e}"))?;
    let server = st.time("serve.ready_s", || {
        Server::spawn(&ctx.serve_bin, &artifact, &dir.join("serve.log"))
    })?;
    Ok(Setup {
        server,
        model: bundle.model,
        bodies: images
            .iter()
            .enumerate()
            .map(|(k, img)| body(k, img))
            .collect(),
        images,
        dir,
    })
}

/// What one load phase measured.
#[derive(Default)]
struct Load {
    ok: u64,
    failed: u64,
    /// Client-observed latency of each answered request, ms (open loop:
    /// from when it was due).
    latency_ms: Vec<f64>,
    /// How late each open-loop request was sent, ms.
    late_ms: Vec<f64>,
    wall_s: f64,
    spans: Vec<Span>,
}

impl Load {
    /// Adds another phase's (or connection's) counts, samples and spans;
    /// wall times add up.
    fn absorb(&mut self, other: Load) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.wall_s += other.wall_s;
        merge(&mut self.spans, other.spans);
    }
}

fn valid_scores(body: &[u8]) -> bool {
    scores(body).is_some_and(|s| s.len() == CLASSES && s.iter().all(|v| v.is_finite()))
}

/// A closed loop for `len`, driven from this one thread over
/// [`CLOSED_CONNECTIONS`] keep-alive connections: each connection sends its
/// next request as soon as its last is answered. The connections are read
/// in turn, so one whose answer comes first waits for the other's before it
/// sends again. Request `i` sends body `first + i`.
fn drive_closed(
    addr: &str,
    bodies: &[Vec<u8>],
    len: Duration,
    first: usize,
) -> Result<Load, String> {
    let connect = || Conn::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut next = first;
    let mut send = |conn: &mut Conn| -> Result<Instant, String> {
        let sent = Instant::now();
        conn.send("POST", "/v1/classify", &bodies[next % bodies.len()])
            .map_err(|e| format!("send: {e}"))?;
        next += 1;
        Ok(sent)
    };
    let start = Instant::now();
    let mut live = Vec::with_capacity(CLOSED_CONNECTIONS);
    for _ in 0..CLOSED_CONNECTIONS {
        let mut conn = connect()?;
        let sent = send(&mut conn)?;
        live.push((conn, sent));
    }
    let mut load = Load::default();
    while !live.is_empty() {
        let mut k = 0;
        while k < live.len() {
            let (conn, sent) = &mut live[k];
            match conn.recv() {
                Ok(r) if r.status == 200 && valid_scores(&r.body) => {
                    load.ok += 1;
                    load.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                }
                Ok(_) => load.failed += 1,
                Err(_) => {
                    // The connection is unusable after an I/O error.
                    load.failed += 1;
                    *conn = connect()?;
                }
            }
            if start.elapsed() >= len {
                live.swap_remove(k);
            } else {
                *sent = send(conn)?;
                k += 1;
            }
        }
    }
    load.wall_s = start.elapsed().as_secs_f64();
    Ok(load)
}

/// An open loop over [`OPEN_CONNECTIONS`] keep-alive connections, one
/// client thread each: requests are due at the `schedule` offsets (seconds
/// from the start), a free connection takes the next one due, and each is
/// timed from when it was due. Request `i` sends body `first + i`.
fn drive_open(
    addr: &str,
    bodies: &[Vec<u8>],
    schedule: &[f64],
    first: usize,
    tracer_on: bool,
    origin: Instant,
) -> Result<Load, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<Result<Load, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..OPEN_CONNECTIONS)
            .map(|tid| {
                let next = &next;
                scope.spawn(move || -> Result<Load, String> {
                    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut tr = Tracer::new(tracer_on, origin, tid as u32 + 1);
                    let mut load = Load::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&at) = schedule.get(i) else { break };
                        let due = start + Duration::from_secs_f64(at);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        tr.set_id((first + i) as u64);
                        let root = tr.begin_from("client.request", due);
                        let queued = tr.begin_from("client.queue", due);
                        tr.end(queued);
                        load.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        let sent = tr.time("client.write", || {
                            conn.send("POST", "/v1/classify", &bodies[(first + i) % bodies.len()])
                        });
                        let resp = sent.and_then(|()| tr.time("client.wait", || conn.recv()));
                        let good = match &resp {
                            Ok(r) => {
                                r.status == 200
                                    && tr.time("client.decode", || valid_scores(&r.body))
                            }
                            Err(_) => false,
                        };
                        tr.end(root);
                        if good {
                            load.ok += 1;
                            load.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        } else {
                            load.failed += 1;
                            if resp.is_err() {
                                // The connection is unusable after an I/O error.
                                conn =
                                    Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                            }
                        }
                    }
                    load.spans = tr.into_spans();
                    Ok(load)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = Load::default();
    for part in parts {
        total.absorb(part?);
    }
    total.wall_s = start.elapsed().as_secs_f64();
    Ok(total)
}

/// Served softmax scores for the probe images equal, bit for bit, an
/// in-process forward of the same mmap-loaded artifact.
fn probes_match(s: &mut Setup) -> Result<bool, String> {
    let mut conn = Conn::connect(&s.server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut shape = vec![1];
    shape.extend(INPUT_SHAPE);
    for k in 0..PROBES {
        let resp = conn
            .request("POST", "/v1/classify", &s.bodies[k])
            .map_err(|e| format!("probe {k}: {e}"))?;
        let served =
            scores(&resp.body).ok_or_else(|| format!("probe {k}: HTTP {}", resp.status))?;
        let x = Tensor::from_vec(s.images[k].clone(), &shape).map_err(|e| e.to_string())?;
        let logits = s.model.forward(&x, Mode::Eval).map_err(|e| e.to_string())?;
        let expected = xbar_serve::batcher::softmax(logits.as_slice());
        let same = served.len() == expected.len()
            && served
                .iter()
                .zip(&expected)
                .all(|(a, b)| a.to_bits() == f64::from(*b).to_bits());
        if !same {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Mean microseconds per call of `f` over `n` calls.
fn micros(n: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Median milliseconds of a batch-`b` forward pass on the loaded artifact.
fn forward_ms(s: &mut Setup, b: usize) -> Result<f64, String> {
    let mut shape = vec![b];
    shape.extend(INPUT_SHAPE);
    let data: Vec<f32> = s.images[..b].concat();
    let x = Tensor::from_vec(data, &shape).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        std::hint::black_box(s.model.forward(&x, Mode::Eval).map_err(|e| e.to_string())?);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}

/// In-process timings of the steps the server runs on a request before
/// its own latency clock starts — HTTP framing, JSON parsing and base64
/// decoding — as means per request over this run's body mix. Sets the
/// three metrics and returns their sum in milliseconds.
fn parse_costs(s: &Setup, m: &mut crate::metrics::Metrics) -> f64 {
    const REPEATS: usize = 5;
    let raw: Vec<Vec<u8>> = s
        .bodies
        .iter()
        .map(|body| {
            let mut req = format!(
                "POST /v1/classify HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            req.extend_from_slice(body);
            req
        })
        .collect();
    let texts: Vec<String> = s
        .bodies
        .iter()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .collect();
    let b64: Vec<String> = texts
        .iter()
        .filter_map(|t| {
            let json = xbar_obs::json::Json::parse(t).ok()?;
            json.get("image_b64")
                .and_then(xbar_obs::json::Json::as_str)
                .map(str::to_string)
        })
        .collect();
    let per_request = |total_us: f64| total_us / s.bodies.len() as f64;
    let frame = per_request(micros(REPEATS, || {
        for r in &raw {
            let _ = std::hint::black_box(xbar_serve::http::try_parse_request(r, 32 << 20));
        }
    }));
    let json = per_request(micros(REPEATS, || {
        for t in &texts {
            let _ = std::hint::black_box(xbar_obs::json::Json::parse(t));
        }
    }));
    let decode = per_request(micros(REPEATS, || {
        for t in &b64 {
            let _ = std::hint::black_box(xbar_serve::base64::decode_f32(t));
        }
    }));
    m.set("serve.http_frame_us", frame);
    m.set("serve.json_decode_us", json);
    m.set("serve.b64_decode_us", decode);
    (frame + json + decode) / 1e3
}

/// Mean wait, after the write, for the server's 404 answer to a request
/// carrying each body of the mix to an unrouted path: the event loop's
/// read, framing and response write plus the loopback transport, with no
/// parsing, batching or inference.
fn io_wait_ms(s: &Setup) -> Result<f64, String> {
    let mut conn = Conn::connect(&s.server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut total = 0.0;
    for body in &s.bodies {
        conn.send("POST", "/v1/io-probe", body)
            .map_err(|e| format!("io probe: {e}"))?;
        let t = Instant::now();
        let resp = conn.recv().map_err(|e| format!("io probe: {e}"))?;
        total += t.elapsed().as_secs_f64() * 1e3;
        if resp.status != 404 {
            return Err(format!(
                "io probe: HTTP {} from an unrouted path",
                resp.status
            ));
        }
    }
    Ok(total / s.bodies.len() as f64)
}

fn hist(s: &Scrape, base: &str) -> Histogram {
    s.histogram(base).unwrap_or_else(Histogram::empty)
}

fn count_load(out: &mut Outcome, name: &str, load: &Load) {
    out.attempted += load.ok + load.failed;
    out.failed += load.failed;
    out.checks.check(
        format!("serve: the {name} phase answered requests"),
        load.ok > 0,
    );
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let (mut s, setup_s, setup_times) = repeat_setup(|st| setup(ctx, st))?;
    out.phases
        .push(("setup".into(), t0.elapsed().as_secs_f64()));
    let addr = s.server.addr.clone();
    let origin = Instant::now();
    let open_seed = super::mix(ctx.seed, 5, 0);
    let secs = ctx.seconds;

    // Warm-up, untimed: pages the mmap-loaded weights into the server and
    // settles its buffers and the client's before anything is measured.
    let t = Instant::now();
    let warm = drive_closed(&addr, &s.bodies, WARM_UP, 0)?;
    count_load(&mut out, "warm-up", &warm);
    out.phases
        .push(("warm-up".into(), t.elapsed().as_secs_f64()));

    let t = Instant::now();
    let result = if !ctx.trace {
        // Alternating closed and open segments, so drift in the host's speed
        // falls on both; capacity is the median of the closed segments'
        // rates, so a burst of contention from another tenant of the host
        // costs one segment rather than the figure.
        let segment = secs / SEGMENTS as f64;
        let (mut closed, mut open, mut rates) = (Load::default(), Load::default(), Vec::new());
        for k in 0..SEGMENTS {
            let first = (k + 1) << 20;
            let c = drive_closed(
                &addr,
                &s.bodies,
                Duration::from_secs_f64(segment / 2.0),
                first,
            )?;
            rates.push(c.ok as f64 / c.wall_s);
            closed.absorb(c);
            let schedule =
                poisson_schedule(super::mix(open_seed, k as u64, 0), OPEN_RATE, segment / 2.0);
            open.absorb(drive_open(
                &addr,
                &s.bodies,
                &schedule,
                first + (1 << 19),
                false,
                origin,
            )?);
        }
        count_load(&mut out, "closed-loop", &closed);
        count_load(&mut out, "open-loop", &open);
        let rss = super::peak_rss_mb(Some(s.server.child.id()))?;
        let lat = if open.latency_ms.is_empty() {
            vec![0.0]
        } else {
            open.latency_ms
        };
        super::end_to_end(&mut out.metrics, setup_s, median(&rates), &lat, rss);
        Ok(())
    } else {
        traced(ctx, &mut s, &mut out, &setup_times, origin, open_seed)
    };
    out.phases
        .push(("measure".into(), t.elapsed().as_secs_f64()));
    result?;
    let probes = probes_match(&mut s)?;
    out.checks.check(
        "serve: served scores are bit-identical to the in-process forward",
        probes,
    );
    // Digest the probe set's in-process scores: a function of the mapped
    // artifact alone.
    let mut shape = vec![PROBES];
    shape.extend(INPUT_SHAPE);
    let x = Tensor::from_vec(s.images[..PROBES].concat(), &shape).map_err(|e| e.to_string())?;
    let logits = s.model.forward(&x, Mode::Eval).map_err(|e| e.to_string())?;
    out.digest.f32s(logits.as_slice());
    let dir = s.dir.clone();
    drop(s);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(out)
}

/// The traced run: the closed loop untraced (capacity), then the open loop
/// untraced and traced under the same arrival gaps. The per-layer split
/// comes from the traced open loop, where requests do not queue inside the
/// server before its own clock starts.
fn traced(
    ctx: &Ctx,
    s: &mut Setup,
    out: &mut Outcome,
    setup_times: &super::SetupTimes,
    origin: Instant,
    open_seed: u64,
) -> Result<(), String> {
    let addr = s.server.addr.clone();
    let closed = drive_closed(
        &addr,
        &s.bodies,
        Duration::from_secs_f64(ctx.seconds / 4.0),
        1 << 20,
    )?;
    let schedule = poisson_schedule(open_seed, OPEN_RATE, ctx.seconds * 3.0 / 8.0);
    let untraced = drive_open(&addr, &s.bodies, &schedule, 2 << 20, false, origin)?;
    let before = s.server.scrape()?;
    let traced = drive_open(&addr, &s.bodies, &schedule, 3 << 20, true, origin)?;
    let after = s.server.scrape()?;
    for (name, load) in [
        ("closed-loop", &closed),
        ("untraced open-loop", &untraced),
        ("traced open-loop", &traced),
    ] {
        count_load(out, name, load);
    }

    per_layer_defaults(&mut out.metrics, setup_times);
    let wall = span_metrics(
        &mut out.metrics,
        &mut out.checks,
        &traced.spans,
        mean(&untraced.latency_ms),
    );
    let m = &mut out.metrics;
    let t = Totals::of(&traced.spans);
    let ops = t.roots.max(1) as f64;
    let server = hist(&after, "serve_request_us_classify")
        .since(&hist(&before, "serve_request_us_classify"));
    let io_ms = io_wait_ms(s)?;
    m.set("serve.io_wait_ms", io_ms);
    let server_ms = server.mean() / 1e3 + parse_costs(s, m) + io_ms;
    let client_ms = (t.ms("client.queue") + t.ms("client.write") + t.ms("client.decode")) / ops;
    m.set("layer.client_ms", client_ms);
    m.set("layer.serve_ms", server_ms);
    m.set("unattributed_ms", wall - client_ms - server_ms);
    m.set("serve.closed_rps", closed.ok as f64 / closed.wall_s);
    if !closed.latency_ms.is_empty() {
        m.set("serve.closed_p50_ms", percentile(&closed.latency_ms, 0.50));
        m.set("serve.closed_p99_ms", percentile(&closed.latency_ms, 0.99));
    }
    m.set("serve.server_p50_ms", server.quantile(0.50) / 1e3);
    m.set("serve.server_p99_ms", server.quantile(0.99) / 1e3);
    let waits: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "client.wait")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    if !waits.is_empty() {
        m.set(
            "serve.gap_p50_ms",
            percentile(&waits, 0.5) - server.quantile(0.50) / 1e3,
        );
    }
    let infer = hist(&after, "serve_infer_us").since(&hist(&before, "serve_infer_us"));
    m.set("serve.infer_ms_mean", infer.mean() / 1e3);
    let batch = hist(&after, "serve_batch_size").since(&hist(&before, "serve_batch_size"));
    m.set("serve.batch_size_mean", batch.mean());
    if !traced.latency_ms.is_empty() {
        m.set("serve.open_p99_ms", percentile(&traced.latency_ms, 0.99));
        m.set("loadgen.late_p99_ms", percentile(&traced.late_ms, 0.99));
    }
    let b1 = forward_ms(s, 1)?;
    let b2 = forward_ms(s, 2)?;
    let m = &mut out.metrics;
    m.set("serve.forward_b1_ms", b1);
    m.set("serve.forward_b2_ms", b2);
    out.spans = traced.spans;
    Ok(())
}
