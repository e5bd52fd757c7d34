//! The retention-drift artifact: accuracy-over-time curves under the
//! exponential relaxation model (`results/drift_sweep.csv`) plus the gated
//! mitigation-recovery benchmark (`results/BENCH_drift.json`).
//!
//! The paper's non-ideality analysis is static — device errors are injected
//! once at program time. This artifact extends the low-conductance-states
//! claim along the time axis: every mapped weight is programmed onto a
//! differential conductance pair whose cells relax toward `G_off` with
//! per-cell retention constants ([`xbar_core::ModelDriftState`]), and the
//! sweep advances the retention clock to the horizons where the model-wide
//! mean decay crosses [`DECAY_HORIZONS`], applying one of four maintenance
//! policies at each checkpoint:
//!
//! * `none` — drift accumulates unchecked (the lower bound);
//! * `refresh` — rung 1, program-and-verify rewrite of drifted cells;
//! * `remap` — rung 2, spare-column relocation of the worst columns only;
//! * `ladder` — the serving policy: probe-accuracy drop picks the rung
//!   (refresh → remap+refresh → full re-program) at serving's own drop
//!   thresholds ([`REFRESH_DROP`], [`REMAP_DROP`], [`RELOAD_DROP`] from
//!   `xbar_serve::lifecycle`), though it climbs a rung only on a drop
//!   strictly above a threshold, where serving climbs at it. Its refresh
//!   tolerance (`REFRESH_TOL`, 0.02) and remap threshold
//!   (`REMAP_COL_DECAY`, 0.10) are the artifact's own and differ from
//!   serving's (0.01 and 0.25).
//!
//! Probe accuracy is agreement with the pristine mapped model's predictions
//! over a fixed probe subset of the test split — the same online-detectable
//! signal the serving health sweep uses (no labels needed at runtime). The
//! gate fails the artifact (hence `suite --gate`) when the ladder recovers
//! fewer than [`RECOVERY_FLOOR_PP`] percentage points of probe accuracy
//! over `none` at the [`GATE_DECAY`] equivalent-drift horizon for the
//! channel/filter-pruned model — the sparse network the paper (and this
//! repo's serving default) is about, and the one drift damages most; the
//! unpruned model's recovery is reported informationally (its redundancy
//! caps the unmitigated drop well under the floor).

use super::{ArtifactCtx, ArtifactOutput};
use crate::report::{pct, Table};
use crate::runner::map_config;
use crate::scenario::Scenario;
use crate::DatasetKind;
use xbar_core::pipeline::map_to_crossbars;
use xbar_core::{DriftModel, ModelDriftState};
use xbar_data::Split;
use xbar_nn::train::{evaluate, DataRef};
use xbar_nn::vgg::VggVariant;
use xbar_nn::{Mode, Sequential};
use xbar_obs::json::Json;
use xbar_prune::PruneMethod;
use xbar_serve::lifecycle::{REFRESH_DROP, RELOAD_DROP, REMAP_DROP};

/// Crossbar size the drift sweep evaluates at (matches the fault sweep).
pub const DRIFT_SIZE: usize = 16;

/// Fastest retention time constant, seconds (minutes-scale tail).
pub const DRIFT_TAU_FAST: f64 = 60.0;

/// Slowest retention time constant, seconds (~1 month).
pub const DRIFT_TAU_SLOW: f64 = 3.0e6;

/// Mean-decay fractions defining the swept time horizons.
pub const DECAY_HORIZONS: [f64; 5] = [0.01, 0.02, 0.05, 0.10, 0.20];

/// The equivalent-drift horizon the recovery gate applies at.
pub const GATE_DECAY: f64 = 0.05;

/// Minimum probe-accuracy recovery (percentage points) of the `ladder`
/// policy over `none` at [`GATE_DECAY`], gated on the channel/filter-pruned
/// model (see the module docs for why the unpruned model is informational).
pub const RECOVERY_FLOOR_PP: f64 = 20.0;

/// The scenario the recovery gate applies to.
pub const GATE_METHOD: PruneMethod = PruneMethod::ChannelFilter;

/// Probe-set size (capped by the test split).
pub const PROBE_COUNT: usize = 256;

/// Rung-1 program-and-verify tolerance: cells past this decay fraction are
/// rewritten.
const REFRESH_TOL: f64 = 0.02;

/// Rung-2 column threshold: columns past this mean decay are relocated.
const REMAP_COL_DECAY: f64 = 0.10;

/// The pruning pair of the sweep: unpruned vs channel/filter-pruned.
const METHODS: [PruneMethod; 2] = [PruneMethod::None, PruneMethod::ChannelFilter];

/// Maintenance policies applied at every horizon checkpoint.
const POLICIES: [&str; 4] = ["none", "refresh", "remap", "ladder"];

/// The scenarios the drift sweep trains.
pub fn drift_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    METHODS
        .iter()
        .map(|&m| {
            Scenario::new(VggVariant::Vgg11, DatasetKind::Cifar10Like, m, ctx.scale)
                .with_seed(ctx.seed)
        })
        .collect()
}

/// Argmax classes of `model` over the first `limit` test images.
fn predict_classes(
    model: &mut Sequential,
    data: DataRef<'_>,
    limit: usize,
) -> Result<Vec<usize>, String> {
    let n = limit.min(data.len());
    let mut classes = Vec::with_capacity(n);
    let indices: Vec<usize> = (0..n).collect();
    for chunk in indices.chunks(64) {
        let (images, _) = data.gather(chunk);
        let logits = model
            .forward(&images, Mode::Eval)
            .map_err(|e| format!("probe forward: {e}"))?;
        let num_classes = logits.shape()[1];
        for row in logits.as_slice().chunks(num_classes) {
            let class = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            classes.push(class);
        }
    }
    Ok(classes)
}

/// Fraction of probes on which `model` agrees with the pristine reference.
fn probe_agreement(
    model: &mut Sequential,
    data: DataRef<'_>,
    reference: &[usize],
) -> Result<f64, String> {
    let classes = predict_classes(model, data, reference.len())?;
    let agree = classes
        .iter()
        .zip(reference)
        .filter(|(a, b)| a == b)
        .count();
    Ok(agree as f64 / reference.len().max(1) as f64)
}

/// One horizon checkpoint of one (method, policy) trajectory.
struct Checkpoint {
    decay_target: f64,
    horizon_s: f64,
    pre_decay: f64,
    probe_acc: f64,
    test_acc: f64,
    refreshed: usize,
    remapped: usize,
}

/// Advances one drift trajectory through every horizon under `policy`,
/// measuring post-maintenance probe agreement and test accuracy at each.
fn run_policy(
    policy: &str,
    pristine: &ModelDriftState,
    horizons: &[(f64, f64)],
    probes: DataRef<'_>,
    reference: &[usize],
    test: DataRef<'_>,
) -> Result<Vec<Checkpoint>, String> {
    let mut state = pristine.clone();
    let mut salt = 0u64;
    let mut points = Vec::with_capacity(horizons.len());
    for &(decay_target, horizon_s) in horizons {
        state.advance_time(horizon_s - state.elapsed());
        let pre_decay = state.mean_decay();
        let (refreshed, remapped) = match policy {
            "none" => (0, 0),
            "refresh" => (state.refresh(REFRESH_TOL), 0),
            "remap" => {
                salt += 1;
                (0, state.remap_worst_columns(REMAP_COL_DECAY, salt))
            }
            "ladder" => {
                let pre_probe = probe_agreement(&mut state.snapshot_model(), probes, reference)?;
                let drop = 1.0 - pre_probe;
                if drop > RELOAD_DROP {
                    (state.reprogram_all(), 0)
                } else if drop > REMAP_DROP {
                    salt += 1;
                    let cols = state.remap_worst_columns(REMAP_COL_DECAY, salt);
                    (state.refresh(REFRESH_TOL), cols)
                } else if drop > REFRESH_DROP {
                    (state.refresh(REFRESH_TOL), 0)
                } else {
                    (0, 0)
                }
            }
            other => return Err(format!("unknown drift policy {other:?}")),
        };
        let mut snapshot = state.snapshot_model();
        let probe_acc = probe_agreement(&mut snapshot, probes, reference)?;
        let test_acc = evaluate(&mut snapshot, test, 64)
            .map_err(|e| format!("drift evaluation ({policy}): {e}"))?;
        points.push(Checkpoint {
            decay_target,
            horizon_s,
            pre_decay,
            probe_acc,
            test_acc,
            refreshed,
            remapped,
        });
    }
    Ok(points)
}

/// The drift sweep: time horizons × maintenance policies for the unpruned
/// and channel/filter-pruned models, plus the gated recovery benchmark.
///
/// # Errors
///
/// Fails on pipeline errors, or when the ladder's probe-accuracy recovery
/// at [`GATE_DECAY`] falls below [`RECOVERY_FLOOR_PP`] (after writing
/// `BENCH_drift.json`, so the numbers are inspectable).
pub fn drift_sweep(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let drift = DriftModel::new(DRIFT_TAU_FAST, DRIFT_TAU_SLOW);
    let horizons: Vec<(f64, f64)> = DECAY_HORIZONS
        .iter()
        .map(|&f| (f, drift.horizon_for_decay(f)))
        .collect();

    let mut table = Table::new(
        format!(
            "Retention-drift sweep ({DRIFT_SIZE}x{DRIFT_SIZE}, tau {DRIFT_TAU_FAST:.0}..{DRIFT_TAU_SLOW:.0}s)"
        ),
        &[
            "Method",
            "Policy",
            "Target decay",
            "Horizon (s)",
            "Mean decay",
            "Probe acc (%)",
            "Test acc (%)",
            "Refreshed cells",
            "Remapped cols",
        ],
    );
    let mut method_entries = Vec::new();
    let mut gate_recovery_pp = f64::NAN;
    for sc in drift_scenarios(ctx) {
        let data = sc.dataset();
        let tm = sc.train_model_cached(&data, &ctx.results);
        let mut cfg = map_config(&tm, DRIFT_SIZE, ctx.seed);
        cfg.params.drift = drift;
        let (mut mapped, _) =
            map_to_crossbars(&tm.model, &cfg).map_err(|e| format!("drift mapping: {e}"))?;
        let test = DataRef::new(data.images(Split::Test), data.labels(Split::Test))
            .map_err(|e| format!("dataset well-formed: {e}"))?;
        let baseline_acc =
            evaluate(&mut mapped, test, 64).map_err(|e| format!("baseline evaluation: {e}"))?;
        let reference = predict_classes(&mut mapped, test, PROBE_COUNT)?;
        let pristine = ModelDriftState::new(&mapped, &cfg.params, ctx.seed)?;

        let method = tm.scenario.method.to_string();
        let method_key = method.replace('/', "");
        let mut gate_probe = std::collections::BTreeMap::new();
        let mut policy_entries = Vec::new();
        for policy in POLICIES {
            let points = run_policy(policy, &pristine, &horizons, test, &reference, test)?;
            let mut point_entries = Vec::new();
            for p in &points {
                if (p.decay_target - GATE_DECAY).abs() < 1e-12 {
                    gate_probe.insert(policy, p.probe_acc);
                }
                table.push_row(vec![
                    method.clone(),
                    policy.to_string(),
                    format!("{:.2}", p.decay_target),
                    format!("{:.0}", p.horizon_s),
                    format!("{:.4}", p.pre_decay),
                    pct(p.probe_acc),
                    pct(p.test_acc),
                    p.refreshed.to_string(),
                    p.remapped.to_string(),
                ]);
                point_entries.push(Json::Obj(vec![
                    ("decay_target".into(), Json::Num(p.decay_target)),
                    ("horizon_s".into(), Json::Num(p.horizon_s)),
                    ("mean_decay".into(), Json::Num(p.pre_decay)),
                    ("probe_acc".into(), Json::Num(p.probe_acc)),
                    ("test_acc".into(), Json::Num(p.test_acc)),
                    ("refreshed_cells".into(), Json::Num(p.refreshed as f64)),
                    ("remapped_columns".into(), Json::Num(p.remapped as f64)),
                ]));
            }
            policy_entries.push(Json::Obj(vec![
                ("policy".into(), Json::Str(policy.into())),
                ("points".into(), Json::Arr(point_entries)),
            ]));
        }
        let probe_none = gate_probe.get("none").copied().unwrap_or(f64::NAN);
        let probe_ladder = gate_probe.get("ladder").copied().unwrap_or(f64::NAN);
        let recovery_pp = 100.0 * (probe_ladder - probe_none);
        if tm.scenario.method == GATE_METHOD {
            gate_recovery_pp = recovery_pp;
        }
        eprintln!(
            "[drift] {method}: at {GATE_DECAY:.0e} decay horizon probe acc none {:.3}, \
             ladder {:.3} (+{recovery_pp:.1}pp)",
            probe_none, probe_ladder
        );
        out.key(format!("baseline_acc_{method_key}"), baseline_acc);
        out.key(format!("probe_none_{method_key}"), probe_none);
        out.key(format!("probe_ladder_{method_key}"), probe_ladder);
        out.key(format!("recovery_pp_{method_key}"), recovery_pp);
        method_entries.push(Json::Obj(vec![
            ("method".into(), Json::Str(method.clone())),
            ("baseline_acc".into(), Json::Num(baseline_acc)),
            ("probe_count".into(), Json::Num(reference.len() as f64)),
            ("gate_probe_none".into(), Json::Num(probe_none)),
            ("gate_probe_ladder".into(), Json::Num(probe_ladder)),
            ("gate_recovery_pp".into(), Json::Num(recovery_pp)),
            ("policies".into(), Json::Arr(policy_entries)),
        ]));
    }
    ctx.emit(&table, &mut out, "drift_sweep")?;

    let json = Json::Obj(vec![
        ("bin".into(), Json::Str("drift".into())),
        ("scale".into(), Json::Str(ctx.scale_name.into())),
        ("seed".into(), Json::Num(ctx.seed as f64)),
        ("size".into(), Json::Num(DRIFT_SIZE as f64)),
        ("tau_fast".into(), Json::Num(DRIFT_TAU_FAST)),
        ("tau_slow".into(), Json::Num(DRIFT_TAU_SLOW)),
        ("gate_decay".into(), Json::Num(GATE_DECAY)),
        ("gate_method".into(), Json::Str(GATE_METHOD.to_string())),
        ("recovery_floor_pp".into(), Json::Num(RECOVERY_FLOOR_PP)),
        ("gate_recovery_pp".into(), Json::Num(gate_recovery_pp)),
        ("methods".into(), Json::Arr(method_entries)),
    ]);
    let path = ctx.write_json(&json, &mut out, "BENCH_drift.json")?;
    if !ctx.quiet {
        println!(
            "drift mitigation recovery at the {GATE_DECAY:.0e} horizon: {gate_recovery_pp:.1}pp \
             (floor {RECOVERY_FLOOR_PP:.0}pp) -> {}",
            path.display()
        );
    }
    out.key("drift_recovery_pp", gate_recovery_pp);

    if !gate_recovery_pp.is_finite() || gate_recovery_pp < RECOVERY_FLOOR_PP {
        return Err(format!(
            "drift mitigation ladder recovers {gate_recovery_pp:.1}pp of probe accuracy for the \
             {GATE_METHOD} model at the {GATE_DECAY:.0e} equivalent-drift horizon, below the \
             {RECOVERY_FLOOR_PP:.0}pp floor"
        ));
    }
    Ok(out)
}
