//! Figure-shaped artifacts: the paper's **Fig. 3** accuracy/NF panels, the
//! **Fig. 3(f)** weight heatmaps, and the **Fig. 4** mitigation panels
//! (R transformation and WCT), run by the suite orchestrator as library
//! calls, one panel per artifact.

use super::{ArtifactCtx, ArtifactOutput};
use crate::report::{pct, results_dir, Table};
use crate::runner::{crossbar_accuracy_avg, map_config, DEFAULT_REPS, SIZES};
use crate::scenario::Scenario;
use crate::{DatasetKind, TrainedModel};
use xbar_core::heatmap::{column_adjacency_score, Heatmap};
use xbar_core::rearrange::{ColumnOrder, Rearrangement};
use xbar_core::wct::{apply_wct, WctConfig};
use xbar_data::{Dataset, Split};
use xbar_nn::train::{evaluate, DataRef, WeightConstraint};
use xbar_nn::vgg::VggVariant;
use xbar_prune::transform::transform;
use xbar_prune::unroll::unrolled_matrices;
use xbar_prune::PruneMethod;

/// The four pruning methods Fig. 3(a)/(c) compare.
const FIG3_METHODS: [PruneMethod; 4] = [
    PruneMethod::None,
    PruneMethod::ChannelFilter,
    PruneMethod::XbarColumn,
    PruneMethod::XbarRow,
];

/// The C/F sparsities Fig. 3(b) sweeps.
const FIG3B_SPARSITIES: [f64; 3] = [0.5, 0.65, 0.8];

/// The scenarios a Fig. 3 panel trains.
pub fn fig3_scenarios(ctx: &ArtifactCtx, panel: &str) -> Vec<Scenario> {
    match panel {
        "a" | "c" => {
            let variant = if panel == "a" {
                VggVariant::Vgg11
            } else {
                VggVariant::Vgg16
            };
            FIG3_METHODS
                .into_iter()
                .map(|method| {
                    Scenario::new(variant, DatasetKind::Cifar10Like, method, ctx.scale)
                        .with_seed(ctx.seed)
                })
                .collect()
        }
        "b" => FIG3B_SPARSITIES
            .into_iter()
            .map(|s| {
                Scenario::new(
                    VggVariant::Vgg11,
                    DatasetKind::Cifar10Like,
                    PruneMethod::ChannelFilter,
                    ctx.scale,
                )
                .with_seed(ctx.seed)
                .with_sparsity(s)
            })
            .collect(),
        "d" => [PruneMethod::None, PruneMethod::ChannelFilter]
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
            .collect(),
        _ => Vec::new(),
    }
}

/// Regenerates one panel of the paper's **Fig. 3**:
///
/// * (a) accuracy vs crossbar size, VGG11/CIFAR10-like, four methods;
/// * (b) accuracy vs crossbar size for C/F at s ∈ {0.5, 0.65, 0.8};
/// * (c) as (a) for VGG16;
/// * (d) average NF, unpruned vs C/F, 32×32 → 64×64.
pub fn fig3_panel(ctx: &ArtifactCtx, panel: &str) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    match panel {
        "a" | "c" => {
            let variant = if panel == "a" {
                VggVariant::Vgg11
            } else {
                VggVariant::Vgg16
            };
            let mut table = Table::new(
                format!(
                    "Fig 3({panel}): accuracy vs crossbar size, {variant}/CIFAR10-like (s = 0.8)"
                ),
                &[
                    "Method",
                    "Software (%)",
                    "16x16 (%)",
                    "32x32 (%)",
                    "64x64 (%)",
                ],
            );
            for method in FIG3_METHODS {
                let sc = Scenario::new(variant, DatasetKind::Cifar10Like, method, ctx.scale)
                    .with_seed(ctx.seed);
                let data = sc.dataset();
                let tm = sc.train_model_cached(&data);
                let mut row = vec![method.to_string(), pct(tm.software_accuracy)];
                for size in SIZES {
                    let cfg = map_config(&tm, size, ctx.seed);
                    let (acc, _) = crossbar_accuracy_avg(&tm, &data, &cfg, DEFAULT_REPS);
                    xbar_obs::event!(
                        "progress",
                        panel = format!("fig3{panel}"),
                        method = method.to_string(),
                        size = size,
                        accuracy = acc
                    );
                    out.key(format!("{method}/{size}x{size}"), acc);
                    row.push(pct(acc));
                }
                table.push_row(row);
            }
            ctx.emit(&table, &mut out, &format!("fig3{panel}"))?;
        }
        "b" => {
            let mut table = Table::new(
                "Fig 3(b): accuracy vs crossbar size for C/F sparsities, VGG11/CIFAR10-like",
                &[
                    "Sparsity",
                    "Software (%)",
                    "16x16 (%)",
                    "32x32 (%)",
                    "64x64 (%)",
                ],
            );
            for s in FIG3B_SPARSITIES {
                let sc = Scenario::new(
                    VggVariant::Vgg11,
                    DatasetKind::Cifar10Like,
                    PruneMethod::ChannelFilter,
                    ctx.scale,
                )
                .with_seed(ctx.seed)
                .with_sparsity(s);
                let data = sc.dataset();
                let tm = sc.train_model_cached(&data);
                let mut row = vec![format!("{s:.2}"), pct(tm.software_accuracy)];
                for size in SIZES {
                    let cfg = map_config(&tm, size, ctx.seed);
                    let (acc, _) = crossbar_accuracy_avg(&tm, &data, &cfg, DEFAULT_REPS);
                    xbar_obs::event!(
                        "progress",
                        panel = "fig3b",
                        sparsity = s,
                        size = size,
                        accuracy = acc
                    );
                    out.key(format!("s{s:.2}/{size}x{size}"), acc);
                    row.push(pct(acc));
                }
                table.push_row(row);
            }
            ctx.emit(&table, &mut out, "fig3b")?;
        }
        "d" => {
            let mut table = Table::new(
                "Fig 3(d): average NF, unpruned vs C/F pruned VGG11/CIFAR10-like",
                &["Method", "NF @ 32x32", "NF @ 64x64", "Growth (x)"],
            );
            for method in [PruneMethod::None, PruneMethod::ChannelFilter] {
                let sc = Scenario::new(
                    VggVariant::Vgg11,
                    DatasetKind::Cifar10Like,
                    method,
                    ctx.scale,
                )
                .with_seed(ctx.seed);
                let data = sc.dataset();
                let tm = sc.train_model_cached(&data);
                let mut nfs = Vec::new();
                for size in [32usize, 64] {
                    let cfg = map_config(&tm, size, ctx.seed);
                    let (_, report) = crossbar_accuracy_avg(&tm, &data, &cfg, DEFAULT_REPS);
                    nfs.push(report.mean_nf());
                }
                xbar_obs::event!(
                    "progress",
                    panel = "fig3d",
                    method = method.to_string(),
                    nf_32 = nfs[0],
                    nf_64 = nfs[1]
                );
                out.key(format!("{method}/nf_32"), nfs[0]);
                out.key(format!("{method}/nf_64"), nfs[1]);
                table.push_row(vec![
                    method.to_string(),
                    format!("{:.4}", nfs[0]),
                    format!("{:.4}", nfs[1]),
                    format!("{:.2}", nfs[1] / nfs[0].max(1e-12)),
                ]);
            }
            ctx.emit(&table, &mut out, "fig3d")?;
        }
        other => return Err(format!("unknown fig3 panel {other:?}; supported: a b c d")),
    }
    Ok(out)
}

/// The scenario the Fig. 3(f) heatmaps train.
pub fn fig3f_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    vec![Scenario::new(
        VggVariant::Vgg16,
        DatasetKind::Cifar10Like,
        PruneMethod::ChannelFilter,
        ctx.scale,
    )
    .with_seed(ctx.seed)]
}

/// Regenerates the paper's **Fig. 3(f)**: weight-magnitude heatmaps of the
/// 3rd and 5th conv layers of the C/F-pruned VGG16 model before/after the R
/// transformation, plus the column-adjacency clustering score table.
pub fn fig3f(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let sc = fig3f_scenarios(ctx).remove(0);
    let data = sc.dataset();
    let tm = sc.train_model_cached(&data);
    let unrolled = unrolled_matrices(&tm.model);
    let mut table = Table::new(
        "Fig 3(f): column clustering score before/after R (lower = more clustered)",
        &[
            "Conv layer",
            "Score before R",
            "Score after R (centre-out)",
            "Score after R (ascending)",
            "Best reduction (%)",
        ],
    );
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create results dir: {e}"))?;
    // The paper shows the 3rd and 5th conv layers (1-indexed).
    for conv_ordinal in [3usize, 5] {
        let ul = &unrolled[conv_ordinal - 1];
        // Compact with T first, as the mapping pipeline does.
        let t = transform(&ul.matrix, PruneMethod::ChannelFilter, 32, 32);
        let panel = &t.panels[0].matrix;
        let r = Rearrangement::compute(panel, ColumnOrder::CenterOut, 32);
        let after = r.apply(panel);
        let before_score = column_adjacency_score(panel);
        let after_score = column_adjacency_score(&after);
        // The adjacency metric is minimised by a monotone ordering, so also
        // report the ascending score — the quantitative optimum.
        let asc = Rearrangement::compute(panel, ColumnOrder::Ascending, 32);
        let asc_score = column_adjacency_score(&asc.apply(panel));
        for (tag, matrix) in [("before", panel), ("after", &after)] {
            let hm = Heatmap::from_matrix(matrix, 128, 128);
            let path = dir.join(format!("fig3f_conv{conv_ordinal}_{tag}_r.csv"));
            std::fs::write(&path, hm.to_csv())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            if !ctx.quiet {
                println!("[heatmap written to {}]", path.display());
            }
            out.outputs.push(path);
        }
        out.key(format!("conv{conv_ordinal}/score_before"), before_score);
        out.key(format!("conv{conv_ordinal}/score_after"), after_score);
        table.push_row(vec![
            format!("conv{conv_ordinal}"),
            format!("{before_score:.5}"),
            format!("{after_score:.5}"),
            format!("{asc_score:.5}"),
            format!(
                "{:.1}",
                100.0 * (1.0 - after_score.min(asc_score) / before_score.max(1e-12))
            ),
        ]);
    }
    ctx.emit(&table, &mut out, "fig3f_scores")?;
    Ok(out)
}

/// The (variant, dataset) behind each Fig. 4 R-transformation panel.
fn fig4_r_case(panel: &str) -> Option<(VggVariant, DatasetKind)> {
    match panel {
        "a" => Some((VggVariant::Vgg11, DatasetKind::Cifar10Like)),
        "b" => Some((VggVariant::Vgg16, DatasetKind::Cifar10Like)),
        "c" => Some((VggVariant::Vgg11, DatasetKind::Cifar100Like)),
        "d" => Some((VggVariant::Vgg16, DatasetKind::Cifar100Like)),
        _ => None,
    }
}

/// The dataset behind each Fig. 4 WCT panel.
fn fig4_wct_case(panel: &str) -> Option<DatasetKind> {
    match panel {
        "e" => Some(DatasetKind::Cifar10Like),
        "f" => Some(DatasetKind::Cifar100Like),
        _ => None,
    }
}

/// The scenarios a Fig. 4 panel trains.
pub fn fig4_scenarios(ctx: &ArtifactCtx, panel: &str) -> Vec<Scenario> {
    let (variant, dataset) = match (fig4_r_case(panel), fig4_wct_case(panel)) {
        (Some((v, d)), _) => (v, d),
        (None, Some(d)) => (VggVariant::Vgg11, d),
        (None, None) => return Vec::new(),
    };
    [PruneMethod::None, PruneMethod::ChannelFilter]
        .into_iter()
        .map(|method| Scenario::new(variant, dataset, method, ctx.scale).with_seed(ctx.seed))
        .collect()
}

fn accuracy_row(
    out: &mut ArtifactOutput,
    label: &str,
    tm: &TrainedModel,
    data: &Dataset,
    seed: u64,
    rearrange: Option<ColumnOrder>,
    scale_override: Option<xbar_sim::MappingScale>,
) -> Vec<String> {
    let mut row = vec![label.to_string(), pct(tm.software_accuracy)];
    for size in SIZES {
        let mut cfg = map_config(tm, size, seed);
        cfg.rearrange = rearrange;
        if let Some(s) = scale_override {
            cfg.scale = s;
        }
        let (acc, _) = crossbar_accuracy_avg(tm, data, &cfg, DEFAULT_REPS);
        xbar_obs::event!("progress", model = label, size = size, accuracy = acc);
        out.key(format!("{label}/{size}x{size}"), acc);
        row.push(pct(acc));
    }
    row
}

/// Regenerates one panel of the paper's **Fig. 4**:
///
/// * (a)–(d) unpruned vs C/F vs C/F + R — VGG11/VGG16 on both datasets;
/// * (e)–(f) unpruned vs C/F vs WCT + C/F — VGG11 on both datasets.
pub fn fig4_panel(ctx: &ArtifactCtx, panel: &str) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let seed = ctx.seed;
    if let Some((variant, dataset)) = fig4_r_case(panel) {
        let mut table = Table::new(
            format!(
                "Fig 4({panel}): R transformation, {variant}/{} (s = {})",
                dataset.name(),
                dataset.paper_sparsity()
            ),
            &[
                "Model",
                "Software (%)",
                "16x16 (%)",
                "32x32 (%)",
                "64x64 (%)",
            ],
        );
        let unpruned =
            Scenario::new(variant, dataset, PruneMethod::None, ctx.scale).with_seed(seed);
        let data = unpruned.dataset();
        let tm_unpruned = unpruned.train_model_cached(&data);
        let row = accuracy_row(&mut out, "unpruned", &tm_unpruned, &data, seed, None, None);
        table.push_row(row);
        let cf =
            Scenario::new(variant, dataset, PruneMethod::ChannelFilter, ctx.scale).with_seed(seed);
        let tm_cf = cf.train_model_cached(&data);
        let row = accuracy_row(&mut out, "C/F", &tm_cf, &data, seed, None, None);
        table.push_row(row);
        let row = accuracy_row(
            &mut out,
            "C/F + R",
            &tm_cf,
            &data,
            seed,
            // The paper's R layout (Fig. 3(f)): light columns centre, dark at
            // the peripheries. See ablation A3 for the other orderings.
            Some(ColumnOrder::CenterOut),
            None,
        );
        table.push_row(row);
        ctx.emit(&table, &mut out, &format!("fig4{panel}"))?;
        return Ok(out);
    }
    let Some(dataset) = fig4_wct_case(panel) else {
        return Err(format!(
            "unknown fig4 panel {panel:?}; supported: a b c d e f"
        ));
    };
    let mut table = Table::new(
        format!(
            "Fig 4({panel}): WCT, VGG11/{} (s = {})",
            dataset.name(),
            dataset.paper_sparsity()
        ),
        &[
            "Model",
            "Software (%)",
            "16x16 (%)",
            "32x32 (%)",
            "64x64 (%)",
        ],
    );
    let unpruned =
        Scenario::new(VggVariant::Vgg11, dataset, PruneMethod::None, ctx.scale).with_seed(seed);
    let data = unpruned.dataset();
    let tm_unpruned = unpruned.train_model_cached(&data);
    let row = accuracy_row(&mut out, "unpruned", &tm_unpruned, &data, seed, None, None);
    table.push_row(row);
    let cf = Scenario::new(
        VggVariant::Vgg11,
        dataset,
        PruneMethod::ChannelFilter,
        ctx.scale,
    )
    .with_seed(seed);
    let tm_cf = cf.train_model_cached(&data);
    let row = accuracy_row(&mut out, "C/F", &tm_cf, &data, seed, None, None);
    table.push_row(row);
    // WCT on top of the C/F model: clamp + 2-epoch constrained retrain,
    // then map with the fixed pre-clamp scale.
    let mut tm_wct = tm_cf.clone();
    let train_ref = DataRef::new(data.images(Split::Train), data.labels(Split::Train))
        .map_err(|e| format!("dataset well-formed: {e}"))?;
    let mut wct_cfg = WctConfig::default();
    wct_cfg.train.batch_size = ctx.scale.batch_size;
    if let Ok(q) = std::env::var("XBAR_WCT_Q") {
        wct_cfg.quantile = q
            .parse()
            .map_err(|e| format!("XBAR_WCT_Q must be a float: {e}"))?;
    }
    let constraint: Option<&dyn WeightConstraint> =
        tm_wct.masks.as_ref().map(|m| m as &dyn WeightConstraint);
    let outcome = apply_wct(&mut tm_wct.model, train_ref, &wct_cfg, constraint)
        .map_err(|e| format!("WCT trains: {e}"))?;
    let test_ref = DataRef::new(data.images(Split::Test), data.labels(Split::Test))
        .map_err(|e| format!("dataset well-formed: {e}"))?;
    tm_wct.software_accuracy = evaluate(&mut tm_wct.model, test_ref, 64)
        .map_err(|e| format!("evaluation shape-safe: {e}"))?;
    xbar_obs::event!(
        "wct_applied",
        w_cut = outcome.w_cut,
        pre_clamp_abs_max = outcome.pre_clamp_abs_max,
        software_acc = tm_wct.software_accuracy
    );
    let row = accuracy_row(
        &mut out,
        "WCT + C/F",
        &tm_wct,
        &data,
        seed,
        None,
        Some(outcome.mapping_scale()),
    );
    table.push_row(row);
    ctx.emit(&table, &mut out, &format!("fig4{panel}"))?;
    Ok(out)
}
