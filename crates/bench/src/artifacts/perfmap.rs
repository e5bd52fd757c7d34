//! The solver-performance benchmark (`results/BENCH_map.json`) and the
//! serving-artifact build (`results/model.xbarmdl`), shared by the suite
//! orchestrator and the `map` binary.

use super::{ArtifactCtx, ArtifactOutput};
use crate::report::{pct, Table};
use crate::runner::map_config;
use crate::scenario::Scenario;
use crate::DatasetKind;
use std::path::PathBuf;
use std::time::Instant;
use xbar_core::pipeline::{map_to_crossbars, MapConfig, MapReport};
use xbar_core::{save_artifact_to_file, ArtifactMeta};
use xbar_data::Split;
use xbar_nn::train::{evaluate, DataRef};
use xbar_nn::vgg::{VggConfig, VggVariant};
use xbar_nn::Sequential;
use xbar_obs::json::Json;
use xbar_obs::metrics::counter_value;
use xbar_obs::names;
use xbar_prune::PruneMethod;
use xbar_sim::params::CrossbarParams;

/// Crossbar size the solver-performance benchmark maps onto.
const PERF_SIZE: usize = 32;

/// What the serving-artifact build maps and where it writes the artifact.
#[derive(Debug, Clone)]
pub struct MapArtifactOptions {
    /// Network variant.
    pub variant: VggVariant,
    /// Dataset.
    pub dataset: DatasetKind,
    /// Pruning method.
    pub method: PruneMethod,
    /// Crossbar size.
    pub size: usize,
    /// Artifact path (`results/model.xbarmdl` when `None`).
    pub out: Option<PathBuf>,
}

impl Default for MapArtifactOptions {
    fn default() -> Self {
        MapArtifactOptions {
            variant: VggVariant::Vgg11,
            dataset: DatasetKind::Cifar10Like,
            method: PruneMethod::ChannelFilter,
            size: 32,
            out: None,
        }
    }
}

/// The scenario the artifact build trains.
pub fn map_artifact_scenarios(ctx: &ArtifactCtx, opts: &MapArtifactOptions) -> Vec<Scenario> {
    vec![Scenario::new(opts.variant, opts.dataset, opts.method, ctx.scale).with_seed(ctx.seed)]
}

/// Trains (with disk cache) a scenario, maps it onto non-ideal crossbars,
/// and persists the resulting `W'` network as an `XBARMDL1` artifact for
/// `xbar-serve`.
pub fn map_artifact(
    ctx: &ArtifactCtx,
    opts: &MapArtifactOptions,
) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let artifact_path = opts
        .out
        .clone()
        .unwrap_or_else(|| ctx.results.join("model.xbarmdl"));
    let sc = map_artifact_scenarios(ctx, opts).remove(0);
    let data = sc.dataset();
    let tm = sc.train_model_cached(&data, &ctx.results);
    let cfg = map_config(&tm, opts.size, ctx.seed);
    let (mut noisy, report) =
        map_to_crossbars(&tm.model, &cfg).map_err(|e| format!("mapping pipeline: {e}"))?;
    let test = DataRef::new(data.images(Split::Test), data.labels(Split::Test))
        .map_err(|e| format!("dataset well-formed: {e}"))?;
    let crossbar_accuracy =
        evaluate(&mut noisy, test, 64).map_err(|e| format!("evaluation shape-safe: {e}"))?;

    let (variant, dataset, method, size) = (opts.variant, opts.dataset, opts.method, opts.size);
    let label = format!(
        "{variant} {} {method} s={:.1} {size}x{size}",
        dataset.name(),
        sc.sparsity
    );
    let mut meta = ArtifactMeta::from_mapping(label, &cfg, &report);
    meta.software_accuracy = Some(tm.software_accuracy);
    meta.crossbar_accuracy = Some(crossbar_accuracy);
    if let Some(dir) = artifact_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create artifact directory: {e}"))?;
    }
    save_artifact_to_file(&mut noisy, &meta, &artifact_path)
        .map_err(|e| format!("write artifact: {e}"))?;

    let mut table = Table::new(
        "Mapped-model artifact",
        &[
            "Network",
            "Dataset",
            "Method",
            "Crossbar",
            "Software acc (%)",
            "Crossbar acc (%)",
            "Mean NF",
            "Artifact",
        ],
    );
    table.push_row(vec![
        variant.to_string(),
        dataset.name().to_string(),
        method.to_string(),
        format!("{size}x{size}"),
        pct(tm.software_accuracy),
        pct(crossbar_accuracy),
        format!("{:.4}", report.mean_nf()),
        artifact_path.display().to_string(),
    ]);
    ctx.emit(&table, &mut out, "map")?;
    if !ctx.quiet {
        // Scripts (CI smoke, demos) parse this line for the artifact path.
        println!("artifact written to {}", artifact_path.display());
    }
    out.outputs.push(artifact_path);
    out.key("software_acc", tm.software_accuracy);
    out.key("crossbar_acc", crossbar_accuracy);
    Ok(out)
}

/// Pools every synaptic weight of the mapped model for bitwise comparison.
fn synaptic_weights(model: &Sequential) -> Vec<f32> {
    let mut model = model.clone();
    let mut out = Vec::new();
    for p in model.params_mut() {
        if p.kind.is_synaptic() {
            out.extend_from_slice(p.value.as_slice());
        }
    }
    out
}

fn timed_map(model: &Sequential, cfg: &MapConfig) -> Result<(f64, Sequential, MapReport), String> {
    let start = Instant::now();
    let (mapped, report) =
        map_to_crossbars(model, cfg).map_err(|e| format!("mapping pipeline: {e}"))?;
    Ok((start.elapsed().as_secs_f64(), mapped, report))
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Solver-performance benchmark: cold vs cached mapping of a width-scaled
/// VGG11 on `PERF_SIZE` crossbars, written to `results/BENCH_map.json`.
/// Cold is the model's first map, which solves every array and fills the
/// solve cache, as any first map does; cached is the re-map, which replays
/// those solves.
///
/// Timing-sensitive, so the registry marks it `exclusive`.
///
/// # Errors
///
/// Fails if cached mapping diverges bitwise from the cold mapping or if
/// the cached re-map speedup falls below the 1.05× target. (The target was
/// 1.5× until cold mapping itself was pipelined over the work-stealing
/// thread pool and the solver vectorized — the cache's job is to never lose
/// to a from-scratch solve, and its relative margin legitimately shrank as
/// the from-scratch path got faster; at smoke scale fixed mapping overhead
/// dominates and the margin is thinnest.)
pub fn perf(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let size = PERF_SIZE;
    let width = ctx.scale.width;
    let seed = ctx.seed;

    let model = VggConfig::new(VggVariant::Vgg11, 10)
        .width_multiplier(width)
        .build(seed);
    let mut params = CrossbarParams::with_size(size);
    params.sigma_variation = 0.05;
    let cfg = MapConfig {
        params,
        seed,
        ..Default::default()
    };

    let (h0, m0) = (
        counter_value(names::SIM_SOLVE_CACHE_HITS),
        counter_value(names::SIM_SOLVE_CACHE_MISSES),
    );
    let (cold_s, cold_model, cold_report) = timed_map(&model, &cfg)?;
    eprintln!(
        "[perf] cold map: {cold_s:.3}s, {} solver sweeps",
        cold_report.solver_iterations()
    );
    let (cached_s, cached_model, cached_report) = timed_map(&model, &cfg)?;
    let hits = counter_value(names::SIM_SOLVE_CACHE_HITS) - h0;
    let misses = counter_value(names::SIM_SOLVE_CACHE_MISSES) - m0;
    eprintln!("[perf] cached re-map: {cached_s:.3}s ({hits} hits / {misses} misses)");

    let bit_identical_cached = bits_equal(
        &synaptic_weights(&cold_model),
        &synaptic_weights(&cached_model),
    );
    let speedup_cached = cold_s / cached_s.max(1e-12);

    let json = Json::Obj(vec![
        ("bin".into(), Json::Str("perf".into())),
        ("scale".into(), Json::Str(ctx.scale_name.into())),
        ("network".into(), Json::Str("vgg11".into())),
        ("width_multiplier".into(), Json::Num(width)),
        ("crossbar_size".into(), Json::Num(size as f64)),
        ("seed".into(), Json::Num(seed as f64)),
        ("cold_s".into(), Json::Num(cold_s)),
        ("cached_s".into(), Json::Num(cached_s)),
        ("speedup_cached".into(), Json::Num(speedup_cached)),
        ("cache_hits".into(), Json::Num(hits as f64)),
        ("cache_misses".into(), Json::Num(misses as f64)),
        (
            "solver_sweeps_cold".into(),
            Json::Num(cold_report.solver_iterations() as f64),
        ),
        (
            "solver_sweeps_cached".into(),
            Json::Num(cached_report.solver_iterations() as f64),
        ),
        (
            "bit_identical_cached".into(),
            Json::Bool(bit_identical_cached),
        ),
    ]);
    let path = ctx.write_json(&json, &mut out, "BENCH_map.json")?;
    if !ctx.quiet {
        println!(
            "cold {cold_s:.3}s | cached {cached_s:.3}s ({speedup_cached:.1}x) -> {}",
            path.display()
        );
    }
    out.key("cold_s", cold_s);
    out.key("cached_s", cached_s);
    out.key("speedup_cached", speedup_cached);

    if !bit_identical_cached {
        return Err("cached mapping diverged from cold".to_string());
    }
    if speedup_cached < 1.05 {
        return Err(format!(
            "cached re-map speedup {speedup_cached:.2}x below the 1.05x target"
        ));
    }
    Ok(out)
}
