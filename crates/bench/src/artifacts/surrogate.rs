//! The surrogate-fidelity artifact: the surrogate-accuracy table
//! (`results/surrogate_accuracy.csv`), the tile-eval micro-benchmark
//! (`results/BENCH_surrogate.json`, speedup-gated), and the tiered-bundle
//! build the `surrogate-train` binary and the CI serve smoke consume.
//!
//! The accuracy table answers "what does serving the surrogate-folded
//! `W''` cost in classification accuracy vs the exact-solver `W'`?",
//! across the unpruned / channel-filter-pruned / crossbar-column-pruned
//! scenarios. The micro-benchmark answers "how much faster is a surrogate
//! tile evaluation than an exact tile solve?" — the whole reason the
//! emulator exists — and fails the artifact (hence `suite --gate`) when
//! the speedup at the gate size drops below [`SPEEDUP_FLOOR`].

use super::{ArtifactCtx, ArtifactOutput};
use crate::report::{pct, results_dir, Table};
use crate::runner::map_config;
use crate::scenario::Scenario;
use crate::DatasetKind;
use std::path::PathBuf;
use std::time::Instant;
use xbar_core::artifact::surrogate_input_dim;
use xbar_core::pipeline::TileEmulator;
use xbar_core::pipeline::{map_to_crossbars, map_to_crossbars_with};
use xbar_core::{save_artifact_bundle_to_file, ArtifactBundle, ArtifactMeta};
use xbar_data::Split;
use xbar_nn::train::{evaluate, DataRef};
use xbar_nn::vgg::VggVariant;
use xbar_obs::json::Json;
use xbar_prune::PruneMethod;
use xbar_sim::params::CrossbarParams;
use xbar_sim::solve::{NonIdealSolver, SolveMethod};
use xbar_surrogate::{generate_pairs, train_surrogate, Surrogate, TrainConfig};

/// Crossbar size of the accuracy table — the paper's canonical 32.
pub const SURROGATE_SIZE: usize = 32;

/// Tile sizes the micro-benchmark sweeps.
pub const BENCH_SIZES: [usize; 3] = [16, 32, 64];

/// The size the speedup gate applies at. 64×64 is where the exact solve is
/// slowest and emulation pays; smaller tiles are reported informationally
/// (the fixed per-batch overhead erodes their ratio).
pub const GATE_SIZE: usize = 64;

/// Minimum surrogate-vs-exact tile-eval speedup at [`GATE_SIZE`].
///
/// Recalibrated from 20× when the exact solver gained its batched,
/// lane-vectorized path: the comparison is against the exact path users
/// actually run, so making the exact solver ~2× faster legitimately
/// narrowed the surrogate's relative advantage (~33× → ~15× at 64×64).
pub const SPEEDUP_FLOOR: f64 = 10.0;

/// The pruning trio of the accuracy table: unpruned, channel/filter
/// pruning, and crossbar-column pruning.
const METHODS: [PruneMethod; 3] = [
    PruneMethod::None,
    PruneMethod::ChannelFilter,
    PruneMethod::XbarColumn,
];

/// The scenarios the accuracy table trains.
pub fn surrogate_scenarios(ctx: &ArtifactCtx) -> Vec<Scenario> {
    METHODS
        .iter()
        .map(|&m| {
            Scenario::new(VggVariant::Vgg11, DatasetKind::Cifar10Like, m, ctx.scale)
                .with_seed(ctx.seed)
        })
        .collect()
}

/// Trains a surrogate for `params`-shaped tiles with the default recipe.
/// Training is seeded by the recipe itself (not `ctx.seed`): the surrogate
/// approximates fixed circuit physics, so every run of the suite trains the
/// bit-identical emulator.
fn trained_surrogate(params: CrossbarParams) -> Result<(Surrogate, f64), String> {
    let start = Instant::now();
    let s = train_surrogate(&TrainConfig::for_params(params))?;
    Ok((s, start.elapsed().as_secs_f64()))
}

/// The surrogate-accuracy table at [`SURROGATE_SIZE`] plus the gated
/// tile-eval micro-benchmark.
///
/// # Errors
///
/// Fails on pipeline errors, or when the micro-benchmark's speedup at
/// [`GATE_SIZE`] falls below [`SPEEDUP_FLOOR`] (after writing
/// `BENCH_surrogate.json`, so the numbers are inspectable).
pub fn surrogate_accuracy(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let size = SURROGATE_SIZE;

    // One surrogate serves all three scenarios: the tile physics it
    // emulates depends on the crossbar parameters, not the pruning method.
    let (surrogate, train_s) = trained_surrogate(CrossbarParams::with_size(size))?;
    let smeta = surrogate.meta().clone();
    eprintln!(
        "[surrogate] trained {size}x{size} emulator in {train_s:.2}s \
         (held-out max err {:.4}, rms {:.4})",
        smeta.val_max_err, smeta.val_rms_err
    );

    let mut table = Table::new(
        "Surrogate fidelity (exact W' vs surrogate W'' vs ideal software)",
        &[
            "Method",
            "Ideal acc (%)",
            "Exact acc (%)",
            "Surrogate acc (%)",
            "Acc gap (pp)",
            "Map exact (s)",
            "Map surrogate (s)",
            "Map speedup",
        ],
    );
    for sc in surrogate_scenarios(ctx) {
        let data = sc.dataset();
        let tm = sc.train_model_cached(&data);
        let cfg = map_config(&tm, size, ctx.seed);
        let test = DataRef::new(data.images(Split::Test), data.labels(Split::Test))
            .map_err(|e| format!("dataset well-formed: {e}"))?;

        let start = Instant::now();
        let (mut exact_model, _) =
            map_to_crossbars(&tm.model, &cfg).map_err(|e| format!("exact mapping: {e}"))?;
        let exact_map_s = start.elapsed().as_secs_f64();
        let exact_acc =
            evaluate(&mut exact_model, test, 64).map_err(|e| format!("exact evaluation: {e}"))?;

        let start = Instant::now();
        let (mut surr_model, _) = map_to_crossbars_with(&tm.model, &cfg, Some(&surrogate))
            .map_err(|e| format!("surrogate mapping: {e}"))?;
        let surr_map_s = start.elapsed().as_secs_f64();
        let surr_acc = evaluate(&mut surr_model, test, 64)
            .map_err(|e| format!("surrogate evaluation: {e}"))?;

        let gap_pp = (exact_acc - surr_acc) * 100.0;
        table.push_row(vec![
            tm.scenario.method.to_string(),
            pct(tm.software_accuracy),
            pct(exact_acc),
            pct(surr_acc),
            format!("{gap_pp:+.2}"),
            format!("{exact_map_s:.3}"),
            format!("{surr_map_s:.3}"),
            format!("{:.1}x", exact_map_s / surr_map_s.max(1e-12)),
        ]);
        let method = tm.scenario.method.to_string().replace('/', "");
        out.key(format!("exact_acc_{method}"), exact_acc);
        out.key(format!("surrogate_acc_{method}"), surr_acc);
    }
    ctx.emit(&table, &mut out, "surrogate_accuracy")?;
    out.key("surrogate_val_max_err", smeta.val_max_err);
    out.key("surrogate_val_rms_err", smeta.val_rms_err);

    // Tile-eval micro-benchmark: raw solver tile-solves/sec vs surrogate
    // tile-evals/sec over identical random arrays, per tile size.
    let n = 512usize;
    let mut size_entries = Vec::new();
    let mut gate_speedup = f64::NAN;
    for bench_size in BENCH_SIZES {
        let params = CrossbarParams::with_size(bench_size);
        let (s, size_train_s) = trained_surrogate(params)?;
        let arrays: Vec<_> = generate_pairs(&params, n, ctx.seed ^ 0xBE6C)
            .map_err(|e| format!("micro-bench arrays: {e}"))?
            .into_iter()
            .map(|p| p.g)
            .collect();
        let solver = NonIdealSolver::try_new(params, SolveMethod::LineRelaxation)
            .map_err(|e| format!("micro-bench solver: {e}"))?;
        let v = vec![params.v_read; bench_size];

        let start = Instant::now();
        for g in &arrays {
            solver
                .column_currents(g, &v)
                .map_err(|e| format!("exact tile solve: {e}"))?;
        }
        let exact_rate = n as f64 / start.elapsed().as_secs_f64();

        // Warm once (allocator, lazily-sized scratch), then time.
        s.column_currents_batch(&arrays)
            .map_err(|e| format!("surrogate tile eval: {e}"))?;
        let start = Instant::now();
        s.column_currents_batch(&arrays)
            .map_err(|e| format!("surrogate tile eval: {e}"))?;
        let surr_rate = n as f64 / start.elapsed().as_secs_f64();

        let speedup = surr_rate / exact_rate.max(1e-12);
        if bench_size == GATE_SIZE {
            gate_speedup = speedup;
        }
        eprintln!(
            "[surrogate] {bench_size}x{bench_size}: exact {exact_rate:.0} tiles/s, \
             surrogate {surr_rate:.0} tiles/s ({speedup:.1}x)"
        );
        let m = s.meta();
        size_entries.push(Json::Obj(vec![
            ("size".into(), Json::Num(bench_size as f64)),
            (
                "input_dim".into(),
                Json::Num(surrogate_input_dim(bench_size, bench_size) as f64),
            ),
            ("train_s".into(), Json::Num(size_train_s)),
            ("val_max_err".into(), Json::Num(m.val_max_err)),
            ("val_rms_err".into(), Json::Num(m.val_rms_err)),
            ("exact_tiles_per_s".into(), Json::Num(exact_rate)),
            ("surrogate_tiles_per_s".into(), Json::Num(surr_rate)),
            ("speedup".into(), Json::Num(speedup)),
        ]));
    }

    let json = Json::Obj(vec![
        ("bin".into(), Json::Str("surrogate".into())),
        ("scale".into(), Json::Str(ctx.scale_name.into())),
        ("seed".into(), Json::Num(ctx.seed as f64)),
        ("tiles_per_size".into(), Json::Num(n as f64)),
        ("gate_size".into(), Json::Num(GATE_SIZE as f64)),
        ("speedup_floor".into(), Json::Num(SPEEDUP_FLOOR)),
        ("gate_speedup".into(), Json::Num(gate_speedup)),
        ("sizes".into(), Json::Arr(size_entries)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create results directory: {e}"))?;
    let path = dir.join("BENCH_surrogate.json");
    std::fs::write(&path, json.to_json() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if !ctx.quiet {
        println!(
            "surrogate tile-eval speedup at {GATE_SIZE}x{GATE_SIZE}: {gate_speedup:.1}x \
             (floor {SPEEDUP_FLOOR:.0}x) -> {}",
            path.display()
        );
    }
    out.outputs.push(path);
    out.key("surrogate_speedup", gate_speedup);

    if gate_speedup.is_nan() || gate_speedup < SPEEDUP_FLOOR {
        return Err(format!(
            "surrogate tile-eval speedup {gate_speedup:.1}x at {GATE_SIZE}x{GATE_SIZE} \
             is below the {SPEEDUP_FLOOR:.0}x floor"
        ));
    }
    Ok(out)
}

/// What the tiered-bundle build trains and where it writes the bundle.
#[derive(Debug, Clone)]
pub struct SurrogateTrainOptions {
    /// Network variant.
    pub variant: VggVariant,
    /// Dataset.
    pub dataset: DatasetKind,
    /// Pruning method.
    pub method: PruneMethod,
    /// Crossbar size.
    pub size: usize,
    /// Bundle path (`results/model_tiered.xbarmdl` when `None`).
    pub out: Option<PathBuf>,
}

impl Default for SurrogateTrainOptions {
    fn default() -> Self {
        SurrogateTrainOptions {
            variant: VggVariant::Vgg11,
            dataset: DatasetKind::Cifar10Like,
            method: PruneMethod::ChannelFilter,
            size: SURROGATE_SIZE,
            out: None,
        }
    }
}

/// The scenario the bundle build trains.
pub fn surrogate_train_scenarios(ctx: &ArtifactCtx, opts: &SurrogateTrainOptions) -> Vec<Scenario> {
    vec![Scenario::new(opts.variant, opts.dataset, opts.method, ctx.scale).with_seed(ctx.seed)]
}

/// Trains a scenario and a tile surrogate, maps the model both ways (exact
/// `W'` and surrogate-folded `W''`), and persists all three serving tiers —
/// plus the surrogate net and its validation record — as one `XBARMDL1`
/// bundle for `xbar-serve --fidelity`.
pub fn surrogate_train(
    ctx: &ArtifactCtx,
    opts: &SurrogateTrainOptions,
) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let bundle_path = opts
        .out
        .clone()
        .unwrap_or_else(|| results_dir().join("model_tiered.xbarmdl"));
    let sc = surrogate_train_scenarios(ctx, opts).remove(0);
    let data = sc.dataset();
    let tm = sc.train_model_cached(&data);
    let cfg = map_config(&tm, opts.size, ctx.seed);
    let (surrogate, train_s) = trained_surrogate(cfg.params)?;

    let (mut exact_model, report) =
        map_to_crossbars(&tm.model, &cfg).map_err(|e| format!("exact mapping: {e}"))?;
    let (mut surr_model, _) = map_to_crossbars_with(&tm.model, &cfg, Some(&surrogate))
        .map_err(|e| format!("surrogate mapping: {e}"))?;
    let test = DataRef::new(data.images(Split::Test), data.labels(Split::Test))
        .map_err(|e| format!("dataset well-formed: {e}"))?;
    let exact_acc =
        evaluate(&mut exact_model, test, 64).map_err(|e| format!("exact evaluation: {e}"))?;
    let surr_acc =
        evaluate(&mut surr_model, test, 64).map_err(|e| format!("surrogate evaluation: {e}"))?;

    let (variant, dataset, method, size) = (opts.variant, opts.dataset, opts.method, opts.size);
    let label = format!(
        "{variant} {} {method} s={:.1} {size}x{size} tiered",
        dataset.name(),
        sc.sparsity
    );
    let mut meta = ArtifactMeta::from_mapping(label, &cfg, &report);
    meta.software_accuracy = Some(tm.software_accuracy);
    meta.crossbar_accuracy = Some(exact_acc);
    meta.surrogate_accuracy = Some(surr_acc);
    let (smeta, net) = surrogate.into_parts();
    let val_max_err = smeta.val_max_err;
    meta.surrogate = Some(smeta);
    let mut bundle = ArtifactBundle {
        model: exact_model,
        meta,
        ideal_model: Some(tm.model.clone()),
        surrogate_model: Some(surr_model),
        surrogate_net: Some(net),
    };
    if let Some(dir) = bundle_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create artifact directory: {e}"))?;
    }
    save_artifact_bundle_to_file(&mut bundle, &bundle_path)
        .map_err(|e| format!("write bundle: {e}"))?;

    let mut table = Table::new(
        "Tiered serving bundle",
        &[
            "Network",
            "Method",
            "Crossbar",
            "Ideal acc (%)",
            "Exact acc (%)",
            "Surrogate acc (%)",
            "Val max err",
            "Train (s)",
            "Bundle",
        ],
    );
    table.push_row(vec![
        variant.to_string(),
        method.to_string(),
        format!("{size}x{size}"),
        pct(tm.software_accuracy),
        pct(exact_acc),
        pct(surr_acc),
        format!("{val_max_err:.4}"),
        format!("{train_s:.2}"),
        bundle_path.display().to_string(),
    ]);
    ctx.emit(&table, &mut out, "surrogate_train")?;
    if !ctx.quiet {
        // Scripts (CI smoke) parse this line for the bundle path.
        println!("artifact written to {}", bundle_path.display());
    }
    out.outputs.push(bundle_path);
    out.key("ideal_acc", tm.software_accuracy);
    out.key("exact_acc", exact_acc);
    out.key("surrogate_acc", surr_acc);
    out.key("surrogate_val_max_err", val_max_err);
    Ok(out)
}
