//! Table-shaped artifacts: the paper's **Table I**, the sparsity/cost
//! trade-off table, the per-layer mapping inventory, and the stuck-at
//! fault-injection sweep, run by the suite orchestrator as library calls.

use super::{ArtifactCtx, ArtifactOutput};
use crate::report::{pct, rate, Table};
use crate::runner::{crossbar_accuracy, crossbar_accuracy_avg, map_config, DEFAULT_REPS};
use crate::scenario::Scenario;
use crate::DatasetKind;
use xbar_core::cost::{estimate_cost, CostModel};
use xbar_core::pipeline::map_to_crossbars;
use xbar_core::RepairConfig;
use xbar_nn::vgg::VggVariant;
use xbar_prune::compression::compression_rate;
use xbar_prune::PruneMethod;
use xbar_sim::FaultModel;

/// Crossbar size Table I evaluates at.
pub const TABLE1_SIZE: usize = 32;

/// Crossbar size the fault sweep evaluates at.
pub const FAULT_SWEEP_SIZE: usize = 16;

/// Crossbar size the layer inventory maps onto.
const INVENTORY_SIZE: usize = 32;

/// Stuck-at fault rates swept (fraction of devices).
pub const FAULT_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

fn table1_cases() -> Vec<(DatasetKind, VggVariant, PruneMethod)> {
    let mut cases = Vec::new();
    for variant in [VggVariant::Vgg11, VggVariant::Vgg16] {
        for method in [
            PruneMethod::None,
            PruneMethod::ChannelFilter,
            PruneMethod::XbarColumn,
            PruneMethod::XbarRow,
        ] {
            cases.push((DatasetKind::Cifar10Like, variant, method));
        }
    }
    for variant in [VggVariant::Vgg11, VggVariant::Vgg16] {
        for method in [PruneMethod::None, PruneMethod::ChannelFilter] {
            cases.push((DatasetKind::Cifar100Like, variant, method));
        }
    }
    cases
}

/// The scenarios Table I trains.
pub fn table1_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    table1_cases()
        .into_iter()
        .map(|(dataset, variant, method)| {
            Scenario::new(variant, dataset, method, ctx.scale).with_seed(ctx.seed)
        })
        .collect()
}

/// Regenerates **Table I**: software accuracies, crossbar-compression-rates
/// and 32×32 non-ideal crossbar accuracies for the unpruned and
/// structure-pruned VGG11/VGG16 models on both datasets.
pub fn table1(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let mut table = Table::new(
        "Table I: software accuracy and crossbar-compression-rate (32x32)",
        &[
            "Dataset",
            "Network",
            "Method",
            "Sparsity",
            "Software acc (%)",
            "Crossbar acc (%)",
            "Compression",
        ],
    );
    let mut solver_table = Table::new(
        "Table I mapping solver statistics (32x32)",
        &[
            "Dataset",
            "Network",
            "Method",
            "Crossbars",
            "Mean NF",
            "Solver iters",
            "Max residual",
            "Non-conv tiles",
        ],
    );
    for (dataset, variant, method) in table1_cases() {
        let sc = Scenario::new(variant, dataset, method, ctx.scale).with_seed(ctx.seed);
        let data = sc.dataset();
        let tm = sc.train_model_cached(&data);
        let compression = match method {
            PruneMethod::None => "-".to_string(),
            m => rate(compression_rate(&tm.model, m, TABLE1_SIZE, TABLE1_SIZE)),
        };
        let cfg = map_config(&tm, TABLE1_SIZE, ctx.seed);
        let (xbar_acc, report) = crossbar_accuracy(&tm, &data, &cfg);
        xbar_obs::event!(
            "case_done",
            dataset = dataset.name(),
            network = variant.to_string(),
            method = method.to_string(),
            software_acc = tm.software_accuracy,
            crossbar_acc = xbar_acc
        );
        out.key(
            format!("{}/{}/{}/crossbar_acc", dataset.name(), variant, method),
            xbar_acc,
        );
        table.push_row(vec![
            dataset.name().to_string(),
            variant.to_string(),
            method.to_string(),
            if method == PruneMethod::None {
                "-".to_string()
            } else {
                format!("{:.1}", sc.sparsity)
            },
            pct(tm.software_accuracy),
            pct(xbar_acc),
            compression,
        ]);
        solver_table.push_row(vec![
            dataset.name().to_string(),
            variant.to_string(),
            method.to_string(),
            report.crossbar_count().to_string(),
            format!("{:.4}", report.mean_nf()),
            report.solver_iterations().to_string(),
            format!("{:.2e}", report.max_residual()),
            report.non_converged().to_string(),
        ]);
    }
    ctx.emit(&table, &mut out, "table1")?;
    ctx.emit(&solver_table, &mut out, "table1_solver")?;
    Ok(out)
}

/// The C/F sparsity levels the trade-off table sweeps (0.0 = unpruned).
const TRADEOFF_SPARSITIES: [f64; 4] = [0.0, 0.5, 0.65, 0.8];

fn tradeoff_scenario(ctx: &ArtifactCtx, s: f64) -> Scenario {
    if s == 0.0 {
        // Sparsity is ignored for the unpruned run; keep the canonical
        // cache key.
        Scenario::new(
            VggVariant::Vgg11,
            DatasetKind::Cifar10Like,
            PruneMethod::None,
            ctx.scale,
        )
        .with_seed(ctx.seed)
    } else {
        Scenario::new(
            VggVariant::Vgg11,
            DatasetKind::Cifar10Like,
            PruneMethod::ChannelFilter,
            ctx.scale,
        )
        .with_seed(ctx.seed)
        .with_sparsity(s)
    }
}

/// The scenarios the trade-off table trains.
pub fn tradeoff_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    TRADEOFF_SPARSITIES
        .iter()
        .map(|&s| tradeoff_scenario(ctx, s))
        .collect()
}

/// Regenerates the sparsity-vs-cost-vs-accuracy trade-off table.
pub fn tradeoff(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let cost_model = CostModel::default();
    let mut table = Table::new(
        "Trade-off: C/F sparsity vs hardware cost vs crossbar accuracy (VGG11/CIFAR10-like, 32x32)",
        &[
            "Sparsity",
            "Software (%)",
            "Crossbar acc (%)",
            "Crossbars",
            "Area saving",
            "Energy saving",
        ],
    );
    let mut dense_cost = None;
    for s in TRADEOFF_SPARSITIES {
        let sc = tradeoff_scenario(ctx, s);
        let data = sc.dataset();
        let tm = sc.train_model_cached(&data);
        let cfg = map_config(&tm, 32, ctx.seed);
        let (acc, report) = crossbar_accuracy_avg(&tm, &data, &cfg, DEFAULT_REPS);
        let cost = estimate_cost(&tm.model, &cfg, &cost_model);
        let dense = *dense_cost.get_or_insert(cost);
        xbar_obs::event!(
            "progress",
            sparsity = s,
            accuracy = acc,
            crossbars = cost.crossbars
        );
        out.key(format!("s{s:.2}/crossbar_acc"), acc);
        table.push_row(vec![
            if s == 0.0 {
                "unpruned".into()
            } else {
                format!("{s:.2}")
            },
            pct(tm.software_accuracy),
            pct(acc),
            report.crossbar_count().to_string(),
            rate(cost.area_saving_vs(&dense)),
            rate(cost.energy_saving_vs(&dense)),
        ]);
    }
    ctx.emit(&table, &mut out, "tradeoff")?;
    Ok(out)
}

/// The scenario the inventory artifact trains.
pub fn inventory_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    vec![Scenario::new(
        VggVariant::Vgg11,
        DatasetKind::Cifar10Like,
        PruneMethod::ChannelFilter,
        ctx.scale,
    )
    .with_seed(ctx.seed)]
}

/// Regenerates the per-layer mapping inventory of the C/F-pruned VGG11
/// scenario on `INVENTORY_SIZE` crossbars.
pub fn inventory(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let size = INVENTORY_SIZE;
    let sc = inventory_scenarios(ctx).remove(0);
    let method = sc.method;
    let data = sc.dataset();
    let tm = sc.train_model_cached(&data);
    let cfg = map_config(&tm, size, ctx.seed);
    let (_, report) = map_to_crossbars(&tm.model, &cfg).map_err(|e| format!("mapping: {e}"))?;
    let mut table = Table::new(
        format!(
            "Layer inventory: VGG11 ({method}) on {size}x{size} crossbars — software acc {}%",
            pct(tm.software_accuracy)
        ),
        &[
            "Layer",
            "Kind",
            "Crossbars",
            "Mean NF",
            "NF std",
            "Low-G fraction",
            "Solver iters",
            "Max residual",
            "Non-conv",
        ],
    );
    for lr in &report.layers {
        let kind = tm.model.layers()[lr.layer_index].kind_name();
        table.push_row(vec![
            format!("#{}", lr.layer_index),
            kind.to_string(),
            lr.crossbar_count.to_string(),
            format!("{:.4}", lr.nf.mean()),
            format!("{:.4}", lr.nf.std()),
            format!("{:.3}", lr.low_g_fraction),
            lr.solver_iterations.to_string(),
            format!("{:.2e}", lr.max_residual),
            lr.non_converged.to_string(),
        ]);
    }
    ctx.emit(&table, &mut out, "inventory")?;
    let cost = estimate_cost(&tm.model, &cfg, &CostModel::default());
    if !ctx.quiet {
        println!(
            "total: {} crossbars, {:.2} mm^2, {:.1} uJ/inference (first-order model)",
            cost.crossbars,
            cost.area_um2 / 1e6,
            cost.energy_uj
        );
    }
    out.key("software_acc", tm.software_accuracy);
    out.key("crossbars", cost.crossbars as f64);
    out.key("mean_nf", report.mean_nf());
    Ok(out)
}

/// The scenarios the fault sweep trains.
pub fn fault_sweep_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
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

/// Regenerates the stuck-at fault-injection sweep (rates × repair on/off)
/// at [`FAULT_SWEEP_SIZE`].
pub fn fault_sweep(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let size = FAULT_SWEEP_SIZE;
    let mut table = Table::new(
        format!("Fault-injection sweep ({size}x{size}, stuck-at devices)"),
        &[
            "Method",
            "Fault rate (%)",
            "Repair",
            "Crossbar acc (%)",
            "Stuck cells",
            "Repaired cols",
            "Corrected cells",
            "Degraded tiles",
        ],
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
        for rate in FAULT_RATES {
            for repair in [false, true] {
                let mut cfg = map_config(&tm, size, ctx.seed);
                // Split like measured RRAM fault populations: stuck-low
                // (high-resistance, open) devices dominate stuck-high.
                cfg.params.faults = FaultModel {
                    stuck_at_gmin: 0.6 * rate,
                    stuck_at_gmax: 0.4 * rate,
                };
                if repair {
                    cfg.repair = Some(RepairConfig::default());
                }
                let (acc, report) = crossbar_accuracy(&tm, &data, &cfg);
                xbar_obs::event!(
                    "fault_case_done",
                    method = method.to_string(),
                    fault_rate = rate,
                    repair = repair,
                    crossbar_acc = acc,
                    stuck_cells = report.stuck_cells() as u64,
                    repaired_columns = report.repaired_columns() as u64,
                    degraded_tiles = report.degraded_tiles() as u64
                );
                out.key(
                    format!(
                        "{method}/rate{:.1}%/repair_{}",
                        100.0 * rate,
                        if repair { "on" } else { "off" }
                    ),
                    acc,
                );
                table.push_row(vec![
                    method.to_string(),
                    format!("{:.1}", 100.0 * rate),
                    if repair { "on" } else { "off" }.to_string(),
                    pct(acc),
                    report.stuck_cells().to_string(),
                    report.repaired_columns().to_string(),
                    report.corrected_cells().to_string(),
                    report.degraded_tiles().to_string(),
                ]);
            }
        }
    }
    ctx.emit(&table, &mut out, "fault_sweep")?;
    Ok(out)
}
