//! The three workloads and what they share: the model and data they build,
//! set-up timing, the measured-rounds loop, and the traced forward pass.

pub mod map;
pub mod serve;
pub mod train;

use crate::metrics::{Metrics, LAYERS, SPAN_MS, WEIGHTED_LAYERS};
use crate::stats::{median, percentile, Digest, SplitMix64};
use crate::trace::{Span, Totals, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use xbar_data::{CifarLikeConfig, Dataset};
use xbar_nn::vgg::{VggConfig, VggVariant};
use xbar_nn::{Layer, Mode, Sequential};
use xbar_tensor::{ShapeError, Tensor};

/// Every workload, in the order a full invocation runs them.
pub const ALL: &[&str] = &["train", "map", "serve"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Sparsity ratio of every pruned model (the paper's CIFAR10 setting).
pub const SPARSITY: f64 = 0.8;

/// Segment size of the crossbar-aware (XCS/XRS) pruning.
pub const SEGMENT: usize = 32;

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where reports, traces and scratch files go.
    pub out: PathBuf,
    /// The `serve` binary (built next to this one).
    pub serve_bin: PathBuf,
}

/// Correctness checks of one run.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("CHECK FAILED: {name}");
        }
        self.0.push((name, ok));
    }

    pub fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub metrics: Metrics,
    /// Digest of the first round's simulated outputs: equal seeds give
    /// equal digests on any commit that computes the same results.
    pub digest: Digest,
    /// Wall time of each phase of the run, seconds.
    pub phases: Vec<(String, f64)>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
}

/// Derives an independent sub-seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut r = SplitMix64::new(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407) ^ b.rotate_left(32));
    r.next_u64()
}

/// The benchmark's network: VGG11 with batch norm at width 0.25, seeded
/// initial weights.
pub fn vgg11(seed: u64) -> Sequential {
    VggConfig::new(VggVariant::Vgg11, 10)
        .width_multiplier(0.25)
        .build(mix(seed, 1, 0))
}

/// The CIFAR10-like synthetic set, generated from the run seed.
pub fn dataset(seed: u64, train: usize, test: usize) -> Dataset {
    CifarLikeConfig::cifar10_like()
        .train_size(train)
        .test_size(test)
        .generate(mix(seed, 2, 0))
}

/// Named durations measured inside each set-up, reported as medians.
#[derive(Debug, Default)]
pub struct SetupTimes(BTreeMap<&'static str, Vec<f64>>);

impl SetupTimes {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0
            .entry(name)
            .or_default()
            .push(t.elapsed().as_secs_f64());
        out
    }

    fn medians_into(&self, m: &mut Metrics) {
        for (name, v) in &self.0 {
            m.set(*name, median(v));
        }
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result, the
/// median set-up time, and the per-part timings.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(&mut SetupTimes) -> Result<T, String>,
) -> Result<(T, f64, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut totals = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so repeats cost the same.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(&mut times)?);
        totals.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&totals), times))
}

/// The measured phase of an offline workload.
pub struct Measured {
    /// Wall time of the timed rounds.
    pub secs: f64,
    /// Peak resident set through the warm-up round, MiB. Later rounds
    /// repeat its work under fresh seeds while the solve cache keeps
    /// filling, so the peak at the end would grow with the number of rounds
    /// a host manages in the time, not with what one round needs.
    pub rss_mb: f64,
}

/// Runs `round(0)` untimed as a warm-up (allocations, page faults and
/// caches settle), then times `round(r)` for r = 1, 2, … for about
/// `seconds`: another round starts only while it is expected to end less
/// than half a round past the deadline, and a round always finishes, so
/// every round does the same work.
pub fn rounds(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<Measured, String> {
    round(0)?;
    let rss_mb = peak_rss_mb(None)?;
    let start = Instant::now();
    for r in 1.. {
        round(r)?;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / r as f64 >= seconds {
            break;
        }
    }
    Ok(Measured {
        secs: start.elapsed().as_secs_f64(),
        rss_mb,
    })
}

/// Per-op latencies and per-round throughput of the timed rounds.
#[derive(Debug, Default)]
pub struct Tally {
    pub op_ms: Vec<f64>,
    /// (items, busy seconds) per round.
    pub rounds: Vec<(f64, f64)>,
}

impl Tally {
    /// Records one op of `round`; ops of the warm-up round 0 (see
    /// [`rounds`]) are left out.
    pub fn op(&mut self, round: usize, items: f64, secs: f64) {
        if round == 0 {
            return;
        }
        self.op_ms.push(secs * 1e3);
        if self.rounds.len() <= round {
            self.rounds.resize(round + 1, (0.0, 0.0));
        }
        self.rounds[round].0 += items;
        self.rounds[round].1 += secs;
    }

    /// Median over rounds of items per busy second.
    pub fn items_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .map(|(i, s)| i / s)
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            median(&rates)
        }
    }
}

/// Peak resident set (`VmHWM`) of `pid` (this process when `None`), MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".into(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// The end-to-end metrics every untraced run reports.
pub fn end_to_end(m: &mut Metrics, setup_s: f64, items_per_s: f64, op_ms: &[f64], rss_mb: f64) {
    m.set("setup_s", setup_s);
    m.set("items_per_s", items_per_s);
    m.set("op_p50_ms", percentile(op_ms, 0.50));
    m.set("op_p90_ms", percentile(op_ms, 0.90));
    m.set("peak_rss_mb", rss_mb);
}

/// Sets every per-layer metric to 0, so a workload only fills the layers
/// it enters; then the set-up part timings.
pub fn per_layer_defaults(m: &mut Metrics, setup: &SetupTimes) {
    for (name, ..) in crate::metrics::per_layer() {
        m.set(name, 0.0);
    }
    setup.medians_into(m);
}

/// Fills the span-derived per-layer metrics, per traced op (each root
/// span is one op). `untraced_ms` is the mean untraced wall time of the
/// same op. Returns the traced wall time per op.
pub fn span_metrics(m: &mut Metrics, checks: &mut Checks, spans: &[Span], untraced_ms: f64) -> f64 {
    let t = Totals::of(spans);
    let ops = t.roots.max(1) as f64;
    let wall = t.root_ms / ops;
    // Self times over the whole tree add back up to the roots' wall time.
    checks.check(
        "trace: span self times sum to the traced wall time",
        (t.all_self_ms - t.root_ms).abs() <= 1e-6 * t.root_ms.max(1.0),
    );
    for name in SPAN_MS {
        m.set(*name, t.ms(name.trim_end_matches("_ms")) / ops);
    }
    let mut attributed = 0.0;
    for layer in LAYERS {
        let ms = t.ms_prefix(&format!("{layer}.")) / ops;
        attributed += ms;
        m.set(format!("layer.{layer}_ms"), ms);
    }
    let unattributed = wall - attributed;
    if unattributed > 0.1 * wall {
        eprintln!(
            "note: {:.1}% of the traced wall time is unattributed",
            100.0 * unattributed / wall
        );
    }
    for i in 0..WEIGHTED_LAYERS {
        let fwd = t
            .self_ms_arg
            .get(&("nn.conv2d.fwd", i))
            .copied()
            .unwrap_or(0.0)
            + t.self_ms_arg
                .get(&("nn.linear.fwd", i))
                .copied()
                .unwrap_or(0.0);
        m.set(format!("nn.layer{i}.fwd_ms"), fwd / ops);
    }
    m.set("traced_wall_ms", wall);
    m.set("untraced_wall_ms", untraced_ms);
    m.set("unattributed_ms", unattributed);
    m.set(
        "trace_overhead",
        if untraced_ms > 0.0 {
            wall / untraced_ms
        } else {
            0.0
        },
    );
    wall
}

/// The forward span name of a layer, by kind.
fn fwd_name(layer: &Layer) -> &'static str {
    match layer {
        Layer::Conv2d(_) => "nn.conv2d.fwd",
        Layer::Linear(_) => "nn.linear.fwd",
        Layer::BatchNorm2d(_) => "nn.batchnorm2d.fwd",
        Layer::ReLU(_) => "nn.relu.fwd",
        Layer::MaxPool2d(_) => "nn.maxpool2d.fwd",
        _ => "nn.other",
    }
}

/// The backward span name of a layer, by kind.
fn bwd_name(layer: &Layer) -> &'static str {
    match layer {
        Layer::Conv2d(_) => "nn.conv2d.bwd",
        Layer::Linear(_) => "nn.linear.bwd",
        Layer::BatchNorm2d(_) => "nn.batchnorm2d.bwd",
        Layer::ReLU(_) => "nn.relu.bwd",
        Layer::MaxPool2d(_) => "nn.maxpool2d.bwd",
        _ => "nn.other",
    }
}

/// `Sequential::forward`, one span per layer; conv/linear spans carry the
/// weighted-layer ordinal.
pub fn forward_traced(
    model: &mut Sequential,
    x: &Tensor,
    mode: Mode,
    tr: &mut Tracer,
) -> Result<Tensor, ShapeError> {
    let mut cur = x.clone();
    let mut weighted = 0u32;
    for layer in model.layers_mut() {
        let name = fwd_name(layer);
        let mark = if matches!(layer, Layer::Conv2d(_) | Layer::Linear(_)) {
            weighted += 1;
            tr.begin_arg(name, weighted - 1)
        } else {
            tr.begin(name)
        };
        cur = layer.forward(&cur, mode)?;
        tr.end(mark);
    }
    Ok(cur)
}

/// `Sequential::backward`, one span per layer.
pub fn backward_traced(
    model: &mut Sequential,
    grad: &Tensor,
    tr: &mut Tracer,
) -> Result<Tensor, ShapeError> {
    let mut cur = grad.clone();
    for layer in model.layers_mut().iter_mut().rev() {
        let mark = tr.begin(bwd_name(layer));
        cur = layer.backward(&cur)?;
        tr.end(mark);
    }
    Ok(cur)
}

/// Every weight and state tensor of `model`, for bit-identity checks and
/// digests.
pub fn state_bits(model: &Sequential) -> Vec<u32> {
    let mut m = model.clone();
    m.state_tensors_mut()
        .into_iter()
        .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        .collect()
}

/// Digests every weight and state tensor of `model`.
pub fn digest_model(d: &mut Digest, model: &Sequential) {
    for bits in state_bits(model) {
        d.bytes(&bits.to_le_bytes());
    }
}
