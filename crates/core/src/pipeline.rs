//! The end-to-end crossbar mapping pipeline (paper Fig. 2).

use crate::partition::{partition, reassemble, Tile};
use crate::rearrange::{ColumnOrder, Rearrangement};
use crate::repair::{map_tile_plain, map_tile_with_repair, MappedTile, RepairConfig};
use std::fmt;
use xbar_nn::Sequential;
use xbar_obs::names;
use xbar_prune::transform::{transform, TransformedLayer};
use xbar_prune::unroll::{unrolled_matrices, write_back};
use xbar_prune::PruneMethod;
use xbar_sim::nf::NfAccumulator;
use xbar_sim::params::CrossbarParams;
use xbar_sim::solve::SolveMethod;
use xbar_sim::MappingScale;
use xbar_tensor::{ShapeError, Tensor};

/// Errors from the mapping pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// Tensor shape inconsistency.
    Shape(ShapeError),
    /// Circuit solver failure.
    Solve(xbar_linalg::SolveError),
    /// The mapping configuration itself is unusable.
    InvalidConfig(String),
    /// A pipeline stage failed; wraps the underlying error with which
    /// stage/layer/tile died.
    Stage {
        /// Human-readable stage description, e.g.
        /// `"simulate layer 3 panel 0 tile 7"`.
        stage: String,
        /// The underlying failure.
        source: Box<MapError>,
    },
    /// A tile worker thread panicked; the pipeline reports it instead of
    /// unwinding through the caller.
    WorkerPanic {
        /// Which stage the worker was running.
        stage: String,
    },
}

impl MapError {
    /// Wraps this error with the pipeline stage it occurred in.
    pub fn in_stage(self, stage: impl Into<String>) -> Self {
        MapError::Stage {
            stage: stage.into(),
            source: Box::new(self),
        }
    }
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Shape(e) => write!(f, "shape error: {e}"),
            MapError::Solve(e) => write!(f, "circuit solve error: {e}"),
            MapError::InvalidConfig(msg) => write!(f, "invalid mapping configuration: {msg}"),
            MapError::Stage { stage, source } => write!(f, "{stage}: {source}"),
            MapError::WorkerPanic { stage } => {
                write!(f, "{stage}: tile worker thread panicked")
            }
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapError::Stage { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ShapeError> for MapError {
    fn from(e: ShapeError) -> Self {
        MapError::Shape(e)
    }
}

impl From<xbar_linalg::SolveError> for MapError {
    fn from(e: xbar_linalg::SolveError) -> Self {
        match e {
            // A config error from deep inside a tile solve is the same
            // class of failure `MapConfig::validate` reports up front —
            // surface it as such instead of as an opaque solver error.
            xbar_linalg::SolveError::Config(msg) => MapError::InvalidConfig(msg),
            other => MapError::Solve(other),
        }
    }
}

/// Configuration of one crossbar mapping run.
#[derive(Debug, Clone, Copy)]
pub struct MapConfig {
    /// Crossbar tile parameters (size, parasitics, variation).
    pub params: CrossbarParams,
    /// Which `T` transformation to apply (must match how the model was
    /// pruned; `None` for unpruned models).
    pub method: PruneMethod,
    /// Optional R transformation applied per panel before partitioning.
    pub rearrange: Option<ColumnOrder>,
    /// Weight→conductance reference scale.
    pub scale: MappingScale,
    /// Circuit solver.
    pub solve: SolveMethod,
    /// Seed for device variation (deterministic per tile).
    pub seed: u64,
    /// Fault-tolerant mapping: spare-column remap and digital correction
    /// (`None` maps without repair, the historical behaviour).
    pub repair: Option<RepairConfig>,
}

impl Default for MapConfig {
    fn default() -> Self {
        Self {
            params: CrossbarParams::default(),
            method: PruneMethod::None,
            rearrange: None,
            scale: MappingScale::PerLayerMax,
            solve: SolveMethod::LineRelaxation,
            seed: 0,
            repair: None,
        }
    }
}

impl MapConfig {
    /// Usable tile width: the crossbar's columns minus any reserved spares.
    pub fn active_cols(&self) -> usize {
        match &self.repair {
            Some(r) => r.active_cols(&self.params),
            None => self.params.cols,
        }
    }

    /// Validates the full mapping configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidConfig`] with a descriptive message.
    pub fn validate(&self) -> Result<(), MapError> {
        self.params
            .validate()
            .map_err(|e| MapError::InvalidConfig(e.to_string()))?;
        if let Some(repair) = &self.repair {
            repair
                .validate(&self.params)
                .map_err(MapError::InvalidConfig)?;
        }
        Ok(())
    }
}

/// Per-layer mapping statistics.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Index of the layer within the model.
    pub layer_index: usize,
    /// Crossbar tiles used by this layer.
    pub crossbar_count: usize,
    /// NF observations across this layer's tiles.
    pub nf: NfAccumulator,
    /// Mean low-conductance-device fraction across tiles.
    pub low_g_fraction: f64,
    /// Total circuit-solver iterations over every tile (both arrays).
    pub solver_iterations: u64,
    /// Worst relative residual reported by any tile solve.
    pub max_residual: f64,
    /// Tiles whose first solve attempt did not converge (rescued by the
    /// extended-sweep fallback in `xbar-sim`).
    pub non_converged: usize,
    /// Stuck devices located while programming this layer's tiles.
    pub stuck_cells: usize,
    /// Faulty columns remapped onto spares.
    pub repaired_columns: usize,
    /// Stuck cells whose contribution was digitally corrected.
    pub corrected_cells: usize,
    /// Tiles whose post-repair fault score exceeded the degradation
    /// threshold.
    pub degraded_tiles: usize,
    /// Worst post-repair tile fault score in this layer.
    pub max_fault_score: f64,
}

/// Aggregate mapping statistics.
#[derive(Debug, Clone, Default)]
pub struct MapReport {
    /// Per-layer records in network order.
    pub layers: Vec<LayerReport>,
}

impl MapReport {
    /// Total crossbars used by the model.
    pub fn crossbar_count(&self) -> usize {
        self.layers.iter().map(|l| l.crossbar_count).sum()
    }

    /// Mean NF over every column of every tile of every layer.
    pub fn mean_nf(&self) -> f64 {
        let mut acc = NfAccumulator::new();
        for l in &self.layers {
            acc.merge(&l.nf);
        }
        acc.mean()
    }

    /// Total circuit-solver iterations across every layer.
    pub fn solver_iterations(&self) -> u64 {
        self.layers.iter().map(|l| l.solver_iterations).sum()
    }

    /// Worst relative solve residual across every layer.
    pub fn max_residual(&self) -> f64 {
        self.layers.iter().fold(0.0, |m, l| m.max(l.max_residual))
    }

    /// Tiles (over all layers) that needed the non-convergence fallback.
    pub fn non_converged(&self) -> usize {
        self.layers.iter().map(|l| l.non_converged).sum()
    }

    /// Total stuck devices located while programming.
    pub fn stuck_cells(&self) -> usize {
        self.layers.iter().map(|l| l.stuck_cells).sum()
    }

    /// Total faulty columns remapped onto spares.
    pub fn repaired_columns(&self) -> usize {
        self.layers.iter().map(|l| l.repaired_columns).sum()
    }

    /// Total stuck cells digitally corrected in the periphery.
    pub fn corrected_cells(&self) -> usize {
        self.layers.iter().map(|l| l.corrected_cells).sum()
    }

    /// Tiles still degraded after repair, over all layers.
    pub fn degraded_tiles(&self) -> usize {
        self.layers.iter().map(|l| l.degraded_tiles).sum()
    }

    /// Worst post-repair tile fault score across the model.
    pub fn max_fault_score(&self) -> f64 {
        self.layers
            .iter()
            .fold(0.0, |m, l| m.max(l.max_fault_score))
    }

    /// Crossbar-count-weighted mean low-conductance fraction.
    pub fn mean_low_g_fraction(&self) -> f64 {
        let total: usize = self.layers.iter().map(|l| l.crossbar_count).sum();
        if total == 0 {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.low_g_fraction * l.crossbar_count as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Maps every weighted layer of `model` onto non-ideal crossbars and returns
/// a clone of the model carrying the non-ideal weights `W'`, plus statistics.
///
/// The input model's weights must already reflect the pruning pattern
/// matching `cfg.method` (masks applied).
///
/// # Errors
///
/// Returns [`MapError`] on shape inconsistencies or circuit-solver failure.
pub fn map_to_crossbars(
    model: &Sequential,
    cfg: &MapConfig,
) -> Result<(Sequential, MapReport), MapError> {
    cfg.validate()?;
    let _map_span = xbar_obs::span!(
        "map",
        rows = cfg.params.rows,
        cols = cfg.params.cols,
        seed = cfg.seed
    );
    // Spare columns shrink the usable tile width: the panel is cut into
    // narrower tiles and the spares live past the active region.
    let active_cols = cfg.active_cols();
    let mut noisy = model.clone();
    let mut report = MapReport::default();

    // Phase 1 — plan: transform, rearrange, and partition every layer up
    // front, so the solve phase sees one flat list of independent tile jobs
    // spanning the whole model instead of one join barrier per panel.
    let mut layers: Vec<LayerWork> = Vec::new();
    for ul in unrolled_matrices(model) {
        let _layer_span = xbar_obs::span!("map_layer", layer = ul.layer_index);
        let layer_abs_max = ul.matrix.abs_max();
        let transformed: TransformedLayer =
            transform(&ul.matrix, cfg.method, cfg.params.rows, active_cols);
        let mut panels: Vec<PanelWork> = Vec::with_capacity(transformed.panels.len());
        for (panel_idx, panel) in transformed.panels.iter().enumerate() {
            let rearrangement = match cfg.rearrange {
                Some(order) => Rearrangement::compute(&panel.matrix, order, active_cols),
                None => Rearrangement::identity(panel.matrix.cols()),
            };
            let arranged = rearrangement.apply(&panel.matrix);
            let tiles = partition(&arranged, cfg.params.rows, active_cols);
            panels.push(PanelWork {
                rearrangement,
                arranged_rows: arranged.rows(),
                arranged_cols: arranged.cols(),
                tiles,
                seed_base: tile_seed_base(cfg.seed, ul.layer_index, panel_idx),
            });
        }
        layers.push(LayerWork {
            layer_index: ul.layer_index,
            layer_abs_max,
            transformed,
            panels,
        });
    }

    // Phase 2 — solve: every tile of every layer/panel goes onto one
    // work-stealing pool; a fast layer's workers steal straight into the
    // next layer's tiles with no per-layer join.
    let jobs: Vec<TileJob> = layers
        .iter()
        .enumerate()
        .flat_map(|(l, lw)| {
            lw.panels
                .iter()
                .enumerate()
                .flat_map(move |(p, pw)| (0..pw.tiles.len()).map(move |t| TileJob(l, p, t)))
        })
        .collect();
    let mut solved = solve_tile_jobs(&layers, &jobs, cfg)?.into_iter();

    // Phase 3 — stitch: fold the solved tiles (in job order, which is
    // network order) back into panels, layers, and the model.
    for mut lw in layers {
        let mut layer_report = LayerReport {
            layer_index: lw.layer_index,
            crossbar_count: 0,
            nf: NfAccumulator::new(),
            low_g_fraction: 0.0,
            solver_iterations: 0,
            max_residual: 0.0,
            non_converged: 0,
            stuck_cells: 0,
            repaired_columns: 0,
            corrected_cells: 0,
            degraded_tiles: 0,
            max_fault_score: 0.0,
        };
        let mut low_g_sum = 0.0f64;
        let mut noisy_panels: Vec<Tensor> = Vec::with_capacity(lw.panels.len());
        for pw in &mut lw.panels {
            // `zip` stops at the panel's last tile without pulling the next
            // panel's first result.
            for (tile, mapped_tile) in pw.tiles.iter_mut().zip(&mut solved) {
                let outcome = &mapped_tile.outcome;
                tile.weights = mapped_tile.weights;
                layer_report.nf.push(outcome.nf());
                low_g_sum += outcome.low_g_fraction;
                layer_report.solver_iterations += outcome.stats.iterations as u64;
                layer_report.max_residual = layer_report.max_residual.max(outcome.stats.residual);
                layer_report.non_converged += usize::from(outcome.fallback);
                layer_report.stuck_cells += outcome.fault_report.stuck_count();
                if let Some(repair) = &mapped_tile.repair {
                    layer_report.repaired_columns += repair.remapped.len();
                    layer_report.corrected_cells += repair.corrected_cells;
                    layer_report.degraded_tiles += usize::from(repair.degraded);
                    layer_report.max_fault_score =
                        layer_report.max_fault_score.max(repair.fault_score);
                } else {
                    layer_report.max_fault_score = layer_report
                        .max_fault_score
                        .max(outcome.fault_report.fault_score());
                }
            }
            layer_report.crossbar_count += pw.tiles.len();
            let noisy_arranged = reassemble(&pw.tiles, pw.arranged_rows, pw.arranged_cols);
            noisy_panels.push(pw.rearrangement.invert(&noisy_arranged));
        }
        layer_report.low_g_fraction = if layer_report.crossbar_count == 0 {
            0.0
        } else {
            low_g_sum / layer_report.crossbar_count as f64
        };
        let noisy_matrix = lw.transformed.invert(&noisy_panels);
        write_back(&mut noisy, lw.layer_index, &noisy_matrix);
        xbar_obs::metrics::counter_add(names::MAP_CROSSBARS, layer_report.crossbar_count as u64);
        xbar_obs::metrics::counter_add(
            names::MAP_SOLVER_ITERATIONS,
            layer_report.solver_iterations,
        );
        xbar_obs::metrics::gauge_set(
            &names::map_layer_gauge(lw.layer_index, "nf_mean"),
            layer_report.nf.mean(),
        );
        xbar_obs::metrics::gauge_set(
            &names::map_layer_gauge(lw.layer_index, "low_g_fraction"),
            layer_report.low_g_fraction,
        );
        if layer_report.stuck_cells > 0 || layer_report.repaired_columns > 0 {
            xbar_obs::metrics::counter_add(names::MAP_STUCK_CELLS, layer_report.stuck_cells as u64);
            xbar_obs::metrics::counter_add(
                names::MAP_REPAIRED_COLUMNS,
                layer_report.repaired_columns as u64,
            );
            xbar_obs::metrics::counter_add(
                names::MAP_CORRECTED_CELLS,
                layer_report.corrected_cells as u64,
            );
            xbar_obs::metrics::counter_add(
                names::MAP_DEGRADED_TILES,
                layer_report.degraded_tiles as u64,
            );
            xbar_obs::metrics::gauge_set(
                &names::map_layer_gauge(lw.layer_index, "fault_score"),
                layer_report.max_fault_score,
            );
        }
        report.layers.push(layer_report);
    }
    Ok((noisy, report))
}

fn tile_seed_base(seed: u64, layer_index: usize, panel_idx: usize) -> u64 {
    seed ^ (layer_index as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (panel_idx as u64).wrapping_mul(0xD1B54A32D192ED03)
}

/// Maps one tile, with or without fault-tolerant repair, labelling failures
/// with the tile index.
fn map_one_tile(
    tile: &Tile,
    cfg: &MapConfig,
    layer_abs_max: f32,
    seed: u64,
    tile_idx: usize,
) -> Result<MappedTile, MapError> {
    let result = match &cfg.repair {
        Some(repair) => map_tile_with_repair(
            &tile.weights,
            cfg.scale,
            layer_abs_max,
            &cfg.params,
            cfg.solve,
            seed,
            repair,
        ),
        None => map_tile_plain(
            &tile.weights,
            cfg.scale,
            layer_abs_max,
            &cfg.params,
            cfg.solve,
            seed,
        ),
    };
    result.map_err(|e| e.in_stage(format!("tile {tile_idx}")))
}

/// One planned-but-unsolved tile: `(layer slot, panel index, tile index)`
/// into the phase-1 [`LayerWork`] plan.
#[derive(Debug, Clone, Copy)]
struct TileJob(usize, usize, usize);

/// One panel of a layer after transform/rearrange/partition; the shared
/// tile pool (phase 2) solves its tiles.
struct PanelWork {
    rearrangement: Rearrangement,
    arranged_rows: usize,
    arranged_cols: usize,
    tiles: Vec<Tile>,
    seed_base: u64,
}

/// One layer's phase-1 plan.
struct LayerWork {
    layer_index: usize,
    layer_abs_max: f32,
    transformed: TransformedLayer,
    panels: Vec<PanelWork>,
}

/// Solves every planned tile job on one work-stealing pool: workers claim
/// jobs off a shared atomic cursor, so tiles of different layers and panels
/// interleave freely and no thread idles at a per-layer join while another
/// still grinds a slow panel. Per-tile variation seeds are position-derived
/// (`tile_seed_base + tile index`), so the schedule cannot change results —
/// only wall-clock. Returns results in job order.
fn solve_tile_jobs(
    layers: &[LayerWork],
    jobs: &[TileJob],
    cfg: &MapConfig,
) -> Result<Vec<MappedTile>, MapError> {
    let run_one = |&TileJob(l, p, t): &TileJob| -> Result<MappedTile, MapError> {
        let lw = &layers[l];
        let pw = &lw.panels[p];
        map_one_tile(
            &pw.tiles[t],
            cfg,
            lw.layer_abs_max,
            pw.seed_base.wrapping_add(t as u64),
            t,
        )
        .map_err(|e| e.in_stage(format!("simulate layer {} panel {p}", lw.layer_index)))
    };
    let workers = xbar_tensor::threads::max_threads().min(jobs.len().max(1));
    if workers <= 1 || jobs.len() < 4 {
        return jobs.iter().map(run_one).collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let abort = std::sync::atomic::AtomicBool::new(false);
    let per_worker = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, MappedTile)> = Vec::new();
                    loop {
                        if abort.load(std::sync::atomic::Ordering::Relaxed) {
                            break Ok(done);
                        }
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= jobs.len() {
                            break Ok(done);
                        }
                        match run_one(&jobs[i]) {
                            Ok(mapped) => done.push((i, mapped)),
                            Err(e) => {
                                abort.store(true, std::sync::atomic::Ordering::Relaxed);
                                break Err((i, e));
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err((
                        usize::MAX,
                        MapError::WorkerPanic {
                            stage: "simulate tiles".into(),
                        },
                    ))
                })
            })
            .collect::<Vec<_>>()
    });
    // Report the failure at the lowest job index so which error surfaces
    // does not depend on thread scheduling.
    let mut first_err: Option<(usize, MapError)> = None;
    let mut out: Vec<Option<MappedTile>> = jobs.iter().map(|_| None).collect();
    for result in per_worker {
        match result {
            Ok(done) => {
                for (i, mapped) in done {
                    out[i] = Some(mapped);
                }
            }
            Err((i, e)) => {
                if first_err.as_ref().is_none_or(|(fi, _)| i < *fi) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    Ok(out
        .into_iter()
        .map(|m| m.expect("every job claimed exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use xbar_nn::Layer;
    use xbar_prune::cf::prune_cf;

    fn tiny_model() -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 8, 3, 1, 1, 1)),
            Layer::ReLU(ReLU::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(8 * 4 * 4, 4, 2)),
        ])
    }

    fn small_cfg() -> MapConfig {
        let mut params = CrossbarParams::with_size(16);
        params.sigma_variation = 0.0;
        MapConfig {
            params,
            ..Default::default()
        }
    }

    #[test]
    fn mapping_preserves_architecture_and_perturbs_weights() {
        let model = tiny_model();
        let (noisy, report) = map_to_crossbars(&model, &small_cfg()).unwrap();
        assert_eq!(noisy.len(), model.len());
        assert_eq!(report.layers.len(), 2);
        // Weights changed but not wildly.
        let orig = &model.layers()[0].as_conv().unwrap().weight().value;
        let pert = &noisy.layers()[0].as_conv().unwrap().weight().value;
        assert_ne!(orig, pert);
        let rel: f32 = orig
            .as_slice()
            .iter()
            .zip(pert.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
            / orig.abs_max();
        assert!(rel < 1.0, "perturbation should be bounded, got {rel}");
    }

    #[test]
    fn ideal_params_leave_weights_nearly_unchanged() {
        let model = tiny_model();
        let mut cfg = small_cfg();
        cfg.params = cfg.params.ideal();
        let (noisy, report) = map_to_crossbars(&model, &cfg).unwrap();
        let orig = &model.layers()[0].as_conv().unwrap().weight().value;
        let pert = &noisy.layers()[0].as_conv().unwrap().weight().value;
        for (a, b) in orig.as_slice().iter().zip(pert.as_slice()) {
            assert!((a - b).abs() < 1e-4 * orig.abs_max().max(1.0));
        }
        assert!(report.mean_nf() < 1e-4);
    }

    #[test]
    fn crossbar_count_matches_compression_module() {
        let model = tiny_model();
        let cfg = small_cfg();
        let (_, report) = map_to_crossbars(&model, &cfg).unwrap();
        let expected =
            xbar_prune::compression::model_crossbar_count(&model, PruneMethod::None, 16, 16);
        assert_eq!(report.crossbar_count(), expected);
    }

    #[test]
    fn pruned_mapping_keeps_pruned_weights_zero() {
        let mut model = tiny_model();
        let masks = prune_cf(&model, 0.5);
        masks.apply_to(&mut model);
        let mut cfg = small_cfg();
        cfg.method = PruneMethod::ChannelFilter;
        let (noisy, _) = map_to_crossbars(&model, &cfg).unwrap();
        // Every weight that was exactly zero stays exactly zero (T⁻¹ leaves
        // eliminated positions untouched).
        for (li, layer) in model.layers().iter().enumerate() {
            let (orig, pert) = match (layer.as_conv(), noisy.layers()[li].as_conv()) {
                (Some(a), Some(b)) => (&a.weight().value, &b.weight().value),
                _ => continue,
            };
            for (a, b) in orig.as_slice().iter().zip(pert.as_slice()) {
                if *a == 0.0 {
                    assert_eq!(*b, 0.0);
                }
            }
        }
    }

    #[test]
    fn rearrangement_round_trips_structurally() {
        let model = tiny_model();
        let mut cfg = small_cfg();
        cfg.params = cfg.params.ideal();
        cfg.rearrange = Some(ColumnOrder::Ascending);
        let (noisy, _) = map_to_crossbars(&model, &cfg).unwrap();
        // With ideal params, R then R⁻¹ must reproduce the original weights.
        let orig = &model.layers()[0].as_conv().unwrap().weight().value;
        let pert = &noisy.layers()[0].as_conv().unwrap().weight().value;
        for (a, b) in orig.as_slice().iter().zip(pert.as_slice()) {
            assert!((a - b).abs() < 1e-4 * orig.abs_max().max(1.0));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let model = tiny_model();
        let mut cfg = small_cfg();
        cfg.params.sigma_variation = 0.1;
        let (a, _) = map_to_crossbars(&model, &cfg).unwrap();
        let (b, _) = map_to_crossbars(&model, &cfg).unwrap();
        cfg.seed = 99;
        let (c, _) = map_to_crossbars(&model, &cfg).unwrap();
        let wa = &a.layers()[0].as_conv().unwrap().weight().value;
        let wb = &b.layers()[0].as_conv().unwrap().weight().value;
        let wc = &c.layers()[0].as_conv().unwrap().weight().value;
        assert_eq!(wa, wb);
        assert_ne!(wa, wc);
    }

    #[test]
    fn mapping_emits_one_span_per_layer_and_solver_stats() {
        let model = tiny_model();
        let watch = xbar_obs::Watch::new();
        let (_, report) = map_to_crossbars(&model, &small_cfg()).unwrap();
        let spans = watch.spans();
        let map_spans: Vec<_> = spans.iter().filter(|s| s.name == "map").collect();
        let layer_spans: Vec<_> = spans.iter().filter(|s| s.name == "map_layer").collect();
        assert_eq!(map_spans.len(), 1);
        assert_eq!(layer_spans.len(), report.layers.len());
        // Layer spans nest inside the map span.
        assert!(layer_spans
            .iter()
            .all(|s| s.depth == map_spans[0].depth + 1));
        // The non-ideal solve is iterative, so some work must be reported.
        assert!(report.solver_iterations() > 0);
        assert!(report.max_residual() >= 0.0);
        assert_eq!(report.non_converged(), 0);
    }

    #[test]
    fn invalid_config_surfaces_a_descriptive_error() {
        let model = tiny_model();
        let mut cfg = small_cfg();
        cfg.params.faults.stuck_at_gmin = 2.0;
        let err = map_to_crossbars(&model, &cfg).unwrap_err();
        assert!(
            matches!(&err, MapError::InvalidConfig(msg) if msg.contains("fault rates")),
            "{err}"
        );
        let mut cfg = small_cfg();
        cfg.repair = Some(crate::repair::RepairConfig {
            spare_cols: 16,
            ..Default::default()
        });
        let err = map_to_crossbars(&model, &cfg).unwrap_err();
        assert!(
            matches!(&err, MapError::InvalidConfig(msg) if msg.contains("usable")),
            "{err}"
        );
    }

    #[test]
    fn fault_tolerant_mapping_repairs_and_reports() {
        let model = tiny_model();
        let mut cfg = small_cfg();
        cfg.params.faults = xbar_sim::faults::FaultModel {
            stuck_at_gmin: 0.02,
            stuck_at_gmax: 0.01,
        };
        let plain_report = map_to_crossbars(&model, &cfg).unwrap().1;
        assert!(plain_report.stuck_cells() > 0);
        assert_eq!(plain_report.repaired_columns(), 0);

        cfg.repair = Some(crate::repair::RepairConfig {
            column_threshold: 0.01,
            ..Default::default()
        });
        let (noisy, report) = map_to_crossbars(&model, &cfg).unwrap();
        assert_eq!(noisy.len(), model.len());
        assert!(report.stuck_cells() > 0);
        assert!(
            report.repaired_columns() + report.corrected_cells() > 0,
            "repair must act at 3% fault rate"
        );
        // Spare columns shrink usable width, so more tiles are needed.
        assert!(report.crossbar_count() >= plain_report.crossbar_count());
        assert!(report.max_fault_score() >= 0.0);

        // Repair reduces the model-level weight damage vs no repair.
        let damage = |mapped: &Sequential| -> f64 {
            let orig = &model.layers()[0].as_conv().unwrap().weight().value;
            let pert = &mapped.layers()[0].as_conv().unwrap().weight().value;
            orig.as_slice()
                .iter()
                .zip(pert.as_slice())
                .map(|(a, b)| f64::from((a - b).abs()))
                .sum()
        };
        let plain_model = {
            let mut c = cfg;
            c.repair = None;
            map_to_crossbars(&model, &c).unwrap().0
        };
        assert!(
            damage(&noisy) <= damage(&plain_model) * 1.05,
            "repair must not materially worsen weight damage: {} vs {}",
            damage(&noisy),
            damage(&plain_model)
        );
    }

    #[test]
    fn larger_crossbars_increase_nf() {
        let model = tiny_model();
        let mut nf = Vec::new();
        for n in [16usize, 64] {
            let mut cfg = small_cfg();
            cfg.params = CrossbarParams::with_size(n);
            cfg.params.sigma_variation = 0.0;
            let (_, report) = map_to_crossbars(&model, &cfg).unwrap();
            nf.push(report.mean_nf());
        }
        assert!(nf[1] > nf[0], "{nf:?}");
    }
}
