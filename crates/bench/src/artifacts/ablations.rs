//! Ablation artifacts on the design choices `DESIGN.md` calls out, plus the
//! extension studies (BN recalibration, robustness, G'-folding fidelity).
//! The suite orchestrator runs each study as its own artifact.

use super::{ArtifactCtx, ArtifactOutput};
use crate::report::{pct, Table};
use crate::runner::{crossbar_accuracy_avg, map_config, relative_weight_error, DEFAULT_REPS};
use crate::scenario::Scenario;
use crate::DatasetKind;
use std::time::Instant;
use xbar_core::wct::{apply_wct, WctConfig};
use xbar_core::ColumnOrder;
use xbar_data::Split;
use xbar_nn::train::{DataRef, WeightConstraint};
use xbar_nn::vgg::VggVariant;
use xbar_prune::PruneMethod;
use xbar_sim::conductance::ConductanceMatrix;
use xbar_sim::params::CrossbarParams;
use xbar_sim::solve::{NonIdealSolver, SolveMethod};
use xbar_sim::MappingScale;

fn cf_vgg11_scenario(ctx: &ArtifactCtx) -> Scenario {
    Scenario::new(
        VggVariant::Vgg11,
        DatasetKind::Cifar10Like,
        PruneMethod::ChannelFilter,
        ctx.scale,
    )
    .with_seed(ctx.seed)
}

fn none_and_cf_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    [PruneMethod::None, PruneMethod::ChannelFilter]
        .into_iter()
        .map(|method| {
            Scenario::new(
                VggVariant::Vgg11,
                DatasetKind::Cifar10Like,
                method,
                ctx.scale,
            )
            .with_seed(ctx.seed)
        })
        .collect()
}

/// The scenario A1 trains.
pub fn mapping_scale_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    vec![cf_vgg11_scenario(ctx)]
}

/// A1: WCT benefit exists under Fixed scale and inverts under PerLayerMax.
pub fn mapping_scale(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let sc = cf_vgg11_scenario(ctx);
    let data = sc.dataset();
    let mut tm = sc.train_model_cached(&data, &ctx.results);
    let train_ref = DataRef::new(data.images(Split::Train), data.labels(Split::Train))
        .map_err(|e| format!("dataset: {e}"))?;
    let constraint: Option<&dyn WeightConstraint> =
        tm.masks.as_ref().map(|m| m as &dyn WeightConstraint);
    let wct_cfg = WctConfig::default();
    let mut wct_model = tm.model.clone();
    let outcome = apply_wct(&mut wct_model, train_ref, &wct_cfg, constraint)
        .map_err(|e| format!("WCT trains: {e}"))?;
    tm.model = wct_model;
    let mut table = Table::new(
        "Ablation A1: WCT mapping-scale choice (VGG11/CIFAR10-like, C/F s = 0.8, 64x64)",
        &[
            "Mapping scale",
            "Crossbar acc (%)",
            "Mean NF",
            "Low-G fraction",
        ],
    );
    for (label, mscale) in [
        ("Fixed(pre-clamp max)", outcome.mapping_scale()),
        ("PerLayerMax", MappingScale::PerLayerMax),
        ("PerTileMax", MappingScale::PerTileMax),
    ] {
        let mut cfg = map_config(&tm, 64, ctx.seed);
        cfg.scale = mscale;
        let (acc, report) = crossbar_accuracy_avg(&tm, &data, &cfg, DEFAULT_REPS);
        xbar_obs::event!(
            "progress",
            ablation = "mapping-scale",
            mapping_scale = label,
            accuracy = acc
        );
        out.key(format!("{label}/crossbar_acc"), acc);
        table.push_row(vec![
            label.to_string(),
            pct(acc),
            format!("{:.4}", report.mean_nf()),
            format!("{:.3}", report.mean_low_g_fraction()),
        ]);
    }
    ctx.emit(&table, &mut out, "ablation_mapping_scale")?;
    Ok(out)
}

/// A2: exact vs line-relaxation circuit solver. Trains nothing.
pub fn solver(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let mut table = Table::new(
        "Ablation A2: circuit solver agreement and speed",
        &[
            "Tile",
            "Max |dI| / I (exact vs lines)",
            "Exact (ms)",
            "Lines (ms)",
            "Speedup",
        ],
    );
    for n in [8usize, 16, 24] {
        let params = CrossbarParams::with_size(n);
        let mut g = ConductanceMatrix::filled(n, n, 0.0);
        let mut s = 77u64;
        for i in 0..n {
            for j in 0..n {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let f = (s % 1000) as f64 / 1000.0;
                g.set(i, j, params.g_min() + f * (params.g_max() - params.g_min()));
            }
        }
        let v = vec![params.v_read; n];
        let t0 = Instant::now();
        let exact = NonIdealSolver::new(params, SolveMethod::DenseExact)
            .effective_conductances(&g, &v)
            .map_err(|e| format!("exact solve: {e}"))?;
        let exact_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let lines = NonIdealSolver::new(params, SolveMethod::LineRelaxation)
            .effective_conductances(&g, &v)
            .map_err(|e| format!("line solve: {e}"))?;
        let lines_ms = t1.elapsed().as_secs_f64() * 1e3;
        let rel_err = exact
            .col_currents
            .iter()
            .zip(&lines.col_currents)
            .map(|(a, b)| ((a - b) / a).abs())
            .fold(0.0f64, f64::max);
        out.key(format!("{n}x{n}/max_rel_err"), rel_err);
        table.push_row(vec![
            format!("{n}x{n}"),
            format!("{rel_err:.2e}"),
            format!("{exact_ms:.2}"),
            format!("{lines_ms:.3}"),
            format!("{:.0}x", exact_ms / lines_ms.max(1e-9)),
        ]);
    }
    ctx.emit(&table, &mut out, "ablation_solver")?;
    Ok(out)
}

/// The scenario A3 trains.
pub fn rearrange_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    vec![cf_vgg11_scenario(ctx)]
}

/// A3: R column-order policies.
pub fn rearrange(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let sc = cf_vgg11_scenario(ctx);
    let data = sc.dataset();
    let tm = sc.train_model_cached(&data, &ctx.results);
    let mut table = Table::new(
        "Ablation A3: R column-order policy (VGG11/CIFAR10-like, C/F s = 0.8)",
        &[
            "Policy",
            "Acc @16 (%)",
            "Acc @64 (%)",
            "Rel W err @16",
            "Rel W err @64",
        ],
    );
    for (label, order) in [
        ("none", None),
        ("ascending", Some(ColumnOrder::Ascending)),
        ("descending", Some(ColumnOrder::Descending)),
        ("center-out", Some(ColumnOrder::CenterOut)),
        ("grouped-descending", Some(ColumnOrder::GroupedDescending)),
    ] {
        let mut accs = vec![];
        let mut errs = vec![];
        for size in [16usize, 64] {
            let mut cfg = map_config(&tm, size, ctx.seed);
            cfg.rearrange = order;
            let (acc, _) = crossbar_accuracy_avg(&tm, &data, &cfg, DEFAULT_REPS);
            // Deterministic weight-error comparison without variation noise.
            let mut det_cfg = cfg;
            det_cfg.params.sigma_variation = 0.0;
            let (mapped, _) = xbar_core::pipeline::map_to_crossbars(&tm.model, &det_cfg)
                .map_err(|e| format!("map: {e}"))?;
            let err = relative_weight_error(&tm.model, &mapped);
            xbar_obs::event!(
                "progress",
                ablation = "rearrange-policy",
                policy = label,
                size = size,
                accuracy = acc,
                rel_weight_err = err
            );
            out.key(format!("{label}/{size}x{size}/crossbar_acc"), acc);
            accs.push(pct(acc));
            errs.push(format!("{err:.4}"));
        }
        let mut row = vec![label.to_string()];
        row.extend(accs);
        row.extend(errs);
        table.push_row(row);
    }
    ctx.emit(&table, &mut out, "ablation_rearrange")?;
    Ok(out)
}

/// The scenarios A4 trains.
pub fn bn_recalibration_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    none_and_cf_scenarios(ctx)
}

/// A4 (extension): BatchNorm recalibration after mapping.
pub fn bn_recalibration(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    use xbar_core::recalibrate::recalibrate_batchnorm;
    let mut out = ArtifactOutput::default();
    let mut table = Table::new(
        "Ablation A4 (extension): BatchNorm recalibration after mapping (64x64)",
        &["Model", "Mapped acc (%)", "After BN recal (%)", "Gain (pp)"],
    );
    for sc in none_and_cf_scenarios(ctx) {
        let method = sc.method;
        let data = sc.dataset();
        let tm = sc.train_model_cached(&data, &ctx.results);
        let cfg = map_config(&tm, 64, ctx.seed);
        let (mapped, _) = xbar_core::pipeline::map_to_crossbars(&tm.model, &cfg)
            .map_err(|e| format!("map: {e}"))?;
        let test_ref = DataRef::new(data.images(Split::Test), data.labels(Split::Test))
            .map_err(|e| format!("dataset: {e}"))?;
        let train_ref = DataRef::new(data.images(Split::Train), data.labels(Split::Train))
            .map_err(|e| format!("dataset: {e}"))?;
        let mut plain = mapped.clone();
        let before =
            xbar_nn::train::evaluate(&mut plain, test_ref, 64).map_err(|e| format!("eval: {e}"))?;
        let mut recal = mapped;
        recalibrate_batchnorm(&mut recal, train_ref, 32, 8)
            .map_err(|e| format!("recalibrate: {e}"))?;
        let after =
            xbar_nn::train::evaluate(&mut recal, test_ref, 64).map_err(|e| format!("eval: {e}"))?;
        xbar_obs::event!(
            "progress",
            ablation = "bn-recalibration",
            method = method.to_string(),
            before = before,
            after = after
        );
        out.key(format!("{method}/before"), before);
        out.key(format!("{method}/after"), after);
        table.push_row(vec![
            method.to_string(),
            pct(before),
            pct(after),
            format!("{:+.1}", 100.0 * (after - before)),
        ]);
    }
    ctx.emit(&table, &mut out, "ablation_bn_recal")?;
    Ok(out)
}

/// The scenarios A5 trains.
pub fn robustness_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    none_and_cf_scenarios(ctx)
}

/// A5 (extension): conductance quantization and stuck-at faults — does the
/// paper's "sparse models are more fragile" conclusion extend to other
/// non-idealities?
pub fn robustness(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    use xbar_sim::faults::FaultModel;
    let mut out = ArtifactOutput::default();
    let mut table = Table::new(
        "Ablation A5 (extension): quantization levels and stuck-at faults (32x32)",
        &["Perturbation", "Unpruned acc (%)", "C/F acc (%)"],
    );
    let models: Vec<_> = none_and_cf_scenarios(ctx)
        .into_iter()
        .map(|sc| {
            let data = sc.dataset();
            let tm = sc.train_model_cached(&data, &ctx.results);
            (tm, data)
        })
        .collect();
    let seed = ctx.seed;
    let row = |out: &mut ArtifactOutput, label: &str, edit: &dyn Fn(&mut CrossbarParams)| {
        let mut cells = vec![label.to_string()];
        for (tm, data) in &models {
            let mut cfg = map_config(tm, 32, seed);
            edit(&mut cfg.params);
            let (acc, _) = crossbar_accuracy_avg(tm, data, &cfg, DEFAULT_REPS);
            xbar_obs::event!(
                "progress",
                ablation = "robustness",
                perturbation = label,
                method = tm.scenario.method.to_string(),
                accuracy = acc
            );
            out.key(format!("{label}/{}", tm.scenario.method), acc);
            cells.push(pct(acc));
        }
        cells
    };
    let baseline = row(&mut out, "baseline (analog, fault-free)", &|_| {});
    table.push_row(baseline);
    for levels in [32u32, 16, 8, 4] {
        let cells = row(
            &mut out,
            &format!("{levels} conductance levels"),
            &move |p| {
                p.levels = levels;
            },
        );
        table.push_row(cells);
    }
    for rate in [0.01f64, 0.05] {
        let cells = row(
            &mut out,
            &format!("{:.0}% stuck-at-Gmin", rate * 100.0),
            &move |p| {
                p.faults = FaultModel {
                    stuck_at_gmin: rate,
                    stuck_at_gmax: 0.0,
                };
            },
        );
        table.push_row(cells);
    }
    ctx.emit(&table, &mut out, "ablation_robustness")?;
    Ok(out)
}

/// A6 (extension): fidelity of the paper's methodology. The framework folds
/// non-idealities into effective conductances `G'` extracted once at the
/// nominal read voltage; real inference applies *varying* activation
/// patterns, for which the folding is an approximation. This ablation
/// measures the approximation error against exact per-input circuit solves.
/// Trains nothing.
#[allow(clippy::needless_range_loop)]
pub fn approximation(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let mut table = Table::new(
        "Ablation A6 (extension): G'-folding fidelity vs exact per-input solves",
        &["Tile", "Active rows", "Mean |dI|/I (%)", "Max |dI|/I (%)"],
    );
    for n in [16usize, 32, 64] {
        let mut params = CrossbarParams::with_size(n);
        params.sigma_variation = 0.0;
        let mut g = ConductanceMatrix::filled(n, n, 0.0);
        let mut s = 11u64;
        for i in 0..n {
            for j in 0..n {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let f = (s % 1000) as f64 / 1000.0;
                g.set(i, j, params.g_min() + f * (params.g_max() - params.g_min()));
            }
        }
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let nominal = vec![params.v_read; n];
        let eff = solver
            .effective_conductances(&g, &nominal)
            .map_err(|e| format!("nominal solve: {e}"))?;
        for active_fraction in [0.25f64, 0.5, 1.0] {
            let active = ((n as f64) * active_fraction).round() as usize;
            let v: Vec<f64> = (0..n)
                .map(|i| {
                    if i % (n / active.max(1)).max(1) == 0 || active == n {
                        params.v_read
                    } else {
                        0.0
                    }
                })
                .collect();
            let exact = solver
                .column_currents(&g, &v)
                .map_err(|e| format!("exact solve: {e}"))?;
            let mut sum_rel = 0.0f64;
            let mut max_rel = 0.0f64;
            let mut count = 0usize;
            for j in 0..n {
                let approx: f64 = (0..n).map(|i| eff.g_eff.at(i, j) * v[i]).sum();
                if exact[j].abs() > f64::MIN_POSITIVE {
                    let rel = ((approx - exact[j]) / exact[j]).abs();
                    sum_rel += rel;
                    max_rel = max_rel.max(rel);
                    count += 1;
                }
            }
            out.key(format!("{n}x{n}/active{active}/max_rel"), max_rel);
            table.push_row(vec![
                format!("{n}x{n}"),
                format!("{active}/{n}"),
                format!("{:.3}", 100.0 * sum_rel / count.max(1) as f64),
                format!("{:.3}", 100.0 * max_rel),
            ]);
        }
    }
    ctx.emit(&table, &mut out, "ablation_approximation")?;
    Ok(out)
}
