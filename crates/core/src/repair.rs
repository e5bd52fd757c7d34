//! Redundant-column repair and digital correction for faulty tiles.
//!
//! The paper shows pruned models are disproportionately fragile to crossbar
//! non-idealities; stuck-at device faults are the extreme case — a single
//! shorted cell can dominate a column current. Real deployments mitigate
//! this structurally, and this module implements the two standard schemes on
//! top of the per-tile fault reports from `xbar-sim`:
//!
//! * **Spare-column remap** — `k` physical columns per tile are reserved at
//!   partition time (the panel is cut into `cols − k`-wide tiles). Once
//!   programming has localised the faulty columns, the worst offenders are
//!   swapped onto the cleanest spares (a column permutation, the same
//!   machinery as the R rearrangement) and the tile is re-programmed with
//!   the *same* physical seed: the devices do not move, the weights do.
//! * **Digital column correction** — when spares run out (or a column is
//!   not bad enough to spend one on), the known stuck-cell contribution
//!   `±ΔG/span · w_ref` is subtracted in the digital periphery. This is
//!   first-order exact: it ignores the IR-drop coupling of the stuck device,
//!   so it is applied per cell only where the read-back actually improves.
//!
//! A repair is only *accepted* when it reduces the tile's total weight
//! error, so repair never makes a tile worse than leaving it alone — the
//! invariant the workspace proptests pin down. Tiles whose post-repair fault
//! score still exceeds a threshold are flagged *degraded*; serving stays up
//! and reports them (see `xbar-serve`).

use crate::pipeline::MapError;
use xbar_sim::params::CrossbarParams;
use xbar_sim::program::FaultReport;
use xbar_sim::solve::SolveMethod;
use xbar_sim::tile::{simulate_tile, simulate_tile_seeded, TileOutcome};
use xbar_sim::MappingScale;
use xbar_tensor::Tensor;

/// Configuration of fault-tolerant tile mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Physical columns reserved as spares per tile. The usable tile width
    /// becomes `params.cols − spare_cols`.
    pub spare_cols: usize,
    /// Minimum per-column fault-attributable error (relative conductance
    /// units, see [`FaultReport::column_error`]) before a column is worth a
    /// spare.
    pub column_threshold: f64,
    /// Whether to subtract known stuck-cell contributions in the periphery
    /// for columns that did not get (or did not deserve) a spare.
    pub digital_correction: bool,
    /// Post-repair fault score above which a tile is flagged degraded.
    pub tile_fault_threshold: f64,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            spare_cols: 2,
            column_threshold: 0.05,
            digital_correction: true,
            tile_fault_threshold: 0.5,
        }
    }
}

impl RepairConfig {
    /// Validates the repair configuration against the crossbar geometry.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when the spares would consume the whole
    /// tile or a threshold is negative.
    pub fn validate(&self, params: &CrossbarParams) -> Result<(), String> {
        if self.spare_cols >= params.cols {
            return Err(format!(
                "spare_cols = {} leaves no usable columns on a {}-column crossbar",
                self.spare_cols, params.cols
            ));
        }
        if self.column_threshold < 0.0 || self.tile_fault_threshold < 0.0 {
            return Err(format!(
                "repair thresholds must be non-negative, got column_threshold = {}, \
                 tile_fault_threshold = {}",
                self.column_threshold, self.tile_fault_threshold
            ));
        }
        Ok(())
    }

    /// Usable (non-spare) columns per tile.
    pub fn active_cols(&self, params: &CrossbarParams) -> usize {
        params.cols.saturating_sub(self.spare_cols).max(1)
    }
}

/// What repair did to one tile.
#[derive(Debug, Clone, Default)]
pub struct TileRepair {
    /// Accepted column remaps as `(faulty logical column, spare physical
    /// column)` pairs.
    pub remapped: Vec<(usize, usize)>,
    /// Stuck cells whose contribution was digitally corrected.
    pub corrected_cells: usize,
    /// Fault score over the usable columns before any repair.
    pub pre_fault_score: f64,
    /// Fault score over the usable columns after remap + correction.
    pub fault_score: f64,
    /// Whether faulty columns above threshold remained after the spares ran
    /// out.
    pub spares_exhausted: bool,
    /// Whether the post-repair fault score still exceeds the degradation
    /// threshold.
    pub degraded: bool,
}

/// One mapped tile: the usable weights plus simulation and repair verdicts.
#[derive(Debug, Clone)]
pub struct MappedTile {
    /// The non-ideal weights for the tile's usable columns (what gets
    /// reassembled into the panel).
    pub weights: Tensor,
    /// The underlying simulation outcome (full physical width; the fault
    /// report is in logical column order).
    pub outcome: TileOutcome,
    /// Repair actions, when fault-tolerant mapping was enabled.
    pub repair: Option<TileRepair>,
}

/// Maps one tile without repair: straight simulation at full width.
pub fn map_tile_plain(
    tile: &Tensor,
    scale: MappingScale,
    layer_abs_max: f32,
    params: &CrossbarParams,
    method: SolveMethod,
    seed: u64,
) -> Result<MappedTile, MapError> {
    let outcome = simulate_tile(tile, scale, layer_abs_max, params, method, seed)?;
    Ok(MappedTile {
        weights: outcome.weights.clone(),
        outcome,
        repair: None,
    })
}

/// Maps one `rows × active` tile onto a crossbar with `spare_cols` reserved
/// columns, applying spare-column remap and digital correction as needed.
pub fn map_tile_with_repair(
    tile: &Tensor,
    scale: MappingScale,
    layer_abs_max: f32,
    params: &CrossbarParams,
    method: SolveMethod,
    seed: u64,
    repair_cfg: &RepairConfig,
) -> Result<MappedTile, MapError> {
    let active = tile.cols();
    let phys_cols = params.cols;
    debug_assert!(active <= phys_cols);
    // Zero-pad the spare columns: unused devices sit at Gmin.
    let padded = tile.submatrix_padded(0, 0, tile.rows(), phys_cols);
    let (base, base_state) =
        simulate_tile_seeded(&padded, scale, layer_abs_max, params, method, seed, None)?;
    let pre_fault_score = active_fault_score(&base.fault_report, active);

    let mut repair = TileRepair {
        pre_fault_score,
        fault_score: pre_fault_score,
        ..TileRepair::default()
    };

    // Rank faulty usable columns worst-first and spare columns cleanest-first.
    let faulty: Vec<(usize, f64)> = base
        .fault_report
        .worst_columns()
        .into_iter()
        .filter(|&(c, e)| c < active && e > repair_cfg.column_threshold)
        .collect();
    let mut spares: Vec<(usize, f64)> = (active..phys_cols)
        .map(|c| (c, base.fault_report.column_error[c]))
        .collect();
    spares.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    repair.spares_exhausted = faulty.len() > spares.len();

    let swaps: Vec<(usize, usize)> = faulty
        .iter()
        .zip(&spares)
        // Only move a column onto a spare that is actually cleaner.
        .filter(|((_, fe), (_, se))| se < fe)
        .map(|(&(f, _), &(s, _))| (f, s))
        .collect();

    let mut chosen = base.clone();
    if !swaps.is_empty() {
        let permuted = swap_columns(&padded, &swaps);
        // Re-simulate warm-started from the base solve with its node
        // voltages permuted the same way — the circuit is nearly the same,
        // so relaxation settles in a few sweeps instead of from cold.
        let seed_state = base_state.swap_columns(phys_cols, &swaps);
        let (mut remapped, _) = simulate_tile_seeded(
            &permuted,
            scale,
            layer_abs_max,
            params,
            method,
            seed,
            Some(&seed_state),
        )?;
        // Undo the swap so weights and the fault report are in logical
        // column order again (a swap is its own inverse).
        remapped.weights = swap_columns(&remapped.weights, &swaps);
        unswap_report(&mut remapped.fault_report, &swaps);
        // Accept the remap only if it genuinely reduces the tile's total
        // weight error — repair must never make a tile worse.
        if total_weight_error(&padded, &remapped.weights, active)
            <= total_weight_error(&padded, &chosen.weights, active)
        {
            chosen = remapped;
            repair.remapped = swaps;
        }
    }

    // Digital correction: subtract the known stuck contribution for cells
    // still faulty in usable columns, wherever the read-back improves.
    let mut corrected_severity = vec![0.0f64; phys_cols];
    if repair_cfg.digital_correction {
        let w_ref = chosen.w_ref;
        let mut weights = chosen.weights.clone();
        for cell in &chosen.fault_report.stuck_cells {
            if cell.col >= active || cell.row >= weights.rows() {
                continue;
            }
            let ideal = padded.at2(cell.row, cell.col);
            let read = weights.at2(cell.row, cell.col);
            let fixed = read - cell.weight_error(w_ref);
            if (fixed - ideal).abs() < (read - ideal).abs() {
                weights.set2(cell.row, cell.col, fixed);
                corrected_severity[cell.col] += cell.severity();
                repair.corrected_cells += 1;
            }
        }
        chosen.weights = weights;
    }

    repair.fault_score = (0..active)
        .map(|c| (chosen.fault_report.column_error[c] - corrected_severity[c]).max(0.0))
        .fold(0.0, f64::max);
    repair.degraded = repair.fault_score > repair_cfg.tile_fault_threshold;

    let weights = chosen.weights.submatrix_padded(0, 0, tile.rows(), active);
    Ok(MappedTile {
        weights,
        outcome: chosen,
        repair: Some(repair),
    })
}

/// The worst fault-attributable column error over the first `active`
/// columns.
fn active_fault_score(report: &FaultReport, active: usize) -> f64 {
    report
        .column_error
        .iter()
        .take(active)
        .copied()
        .fold(0.0, f64::max)
}

/// Returns a copy of `t` with each `(a, b)` column pair swapped.
fn swap_columns(t: &Tensor, swaps: &[(usize, usize)]) -> Tensor {
    let mut out = t.clone();
    for &(a, b) in swaps {
        for r in 0..t.rows() {
            let va = out.at2(r, a);
            let vb = out.at2(r, b);
            out.set2(r, a, vb);
            out.set2(r, b, va);
        }
    }
    out
}

/// Maps a physically-indexed fault report back to logical column order
/// after [`swap_columns`] has been undone.
fn unswap_report(report: &mut FaultReport, swaps: &[(usize, usize)]) {
    for &(a, b) in swaps {
        report.column_error.swap(a, b);
        for cell in &mut report.stuck_cells {
            if cell.col == a {
                cell.col = b;
            } else if cell.col == b {
                cell.col = a;
            }
        }
    }
}

/// Total absolute weight error of `actual` vs `ideal` over the first
/// `active` columns.
fn total_weight_error(ideal: &Tensor, actual: &Tensor, active: usize) -> f64 {
    let mut err = 0.0f64;
    for r in 0..ideal.rows() {
        for c in 0..active {
            err += f64::from((ideal.at2(r, c) - actual.at2(r, c)).abs());
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_sim::faults::FaultModel;

    fn faulty_params(rate: f64) -> CrossbarParams {
        let mut p = CrossbarParams::with_size(8).ideal();
        p.faults = FaultModel {
            stuck_at_gmin: rate * 0.7,
            stuck_at_gmax: rate * 0.3,
        };
        p
    }

    fn tile(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut s = seed | 1;
        Tensor::from_fn(&[rows, cols], |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 1000.0
        })
    }

    fn weight_err(ideal: &Tensor, mapped: &Tensor) -> f64 {
        ideal
            .as_slice()
            .iter()
            .zip(mapped.as_slice())
            .map(|(a, b)| f64::from((a - b).abs()))
            .sum()
    }

    #[test]
    fn clean_tile_needs_no_repair() {
        let params = CrossbarParams::with_size(8).ideal();
        let t = tile(8, 6, 3);
        let mapped = map_tile_with_repair(
            &t,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            0,
            &RepairConfig::default(),
        )
        .unwrap();
        let repair = mapped.repair.unwrap();
        assert!(repair.remapped.is_empty());
        assert_eq!(repair.corrected_cells, 0);
        assert_eq!(repair.fault_score, 0.0);
        assert!(!repair.degraded);
        assert_eq!(mapped.weights.shape(), &[8, 6]);
    }

    #[test]
    fn repair_reduces_weight_error_under_faults() {
        let params = faulty_params(0.05);
        let cfg = RepairConfig {
            column_threshold: 0.01,
            ..RepairConfig::default()
        };
        let mut improved = 0usize;
        let mut acted = 0usize;
        for seed in 0..8u64 {
            let t = tile(8, 6, 100 + seed);
            let plain = map_tile_with_repair(
                &t,
                MappingScale::PerTileMax,
                1.0,
                &params,
                SolveMethod::LineRelaxation,
                seed,
                &RepairConfig {
                    spare_cols: 2,
                    digital_correction: false,
                    column_threshold: f64::INFINITY,
                    ..cfg
                },
            )
            .unwrap();
            let repaired = map_tile_with_repair(
                &t,
                MappingScale::PerTileMax,
                1.0,
                &params,
                SolveMethod::LineRelaxation,
                seed,
                &cfg,
            )
            .unwrap();
            let e_plain = weight_err(&t, &plain.weights);
            let e_rep = weight_err(&t, &repaired.weights);
            assert!(
                e_rep <= e_plain + 1e-9,
                "seed {seed}: repair made things worse ({e_rep} vs {e_plain})"
            );
            let r = repaired.repair.unwrap();
            if !r.remapped.is_empty() || r.corrected_cells > 0 {
                acted += 1;
            }
            if e_rep < e_plain - 1e-9 {
                improved += 1;
            }
        }
        assert!(acted > 0, "at 5% faults repair must trigger at least once");
        assert!(improved > 0, "repair must actually help at least once");
    }

    #[test]
    fn fault_score_drops_after_repair() {
        let params = faulty_params(0.08);
        let cfg = RepairConfig {
            column_threshold: 0.01,
            ..RepairConfig::default()
        };
        let mut pre_total = 0.0;
        let mut post_total = 0.0;
        for seed in 0..6u64 {
            let t = tile(8, 6, 40 + seed);
            let mapped = map_tile_with_repair(
                &t,
                MappingScale::PerTileMax,
                1.0,
                &params,
                SolveMethod::LineRelaxation,
                seed,
                &cfg,
            )
            .unwrap();
            let r = mapped.repair.unwrap();
            assert!(r.fault_score <= r.pre_fault_score + 1e-12);
            pre_total += r.pre_fault_score;
            post_total += r.fault_score;
        }
        assert!(
            post_total < pre_total,
            "repair must reduce aggregate fault score: {post_total} vs {pre_total}"
        );
    }

    #[test]
    fn config_validation_catches_bad_geometry() {
        let params = CrossbarParams::with_size(8);
        let bad = RepairConfig {
            spare_cols: 8,
            ..RepairConfig::default()
        };
        assert!(bad.validate(&params).unwrap_err().contains("usable"));
        let neg = RepairConfig {
            column_threshold: -1.0,
            ..RepairConfig::default()
        };
        assert!(neg.validate(&params).unwrap_err().contains("non-negative"));
        assert!(RepairConfig::default().validate(&params).is_ok());
        assert_eq!(RepairConfig::default().active_cols(&params), 6);
    }

    #[test]
    fn swap_columns_is_involution_and_report_follows() {
        let t = Tensor::from_fn(&[2, 4], |i| i as f32);
        let swaps = vec![(0, 3)];
        let once = swap_columns(&t, &swaps);
        assert_eq!(once.at2(0, 0), 3.0);
        assert_eq!(once.at2(0, 3), 0.0);
        assert_eq!(swap_columns(&once, &swaps), t);
        let mut report = FaultReport::clean(4);
        report.column_error = vec![0.5, 0.0, 0.0, 0.1];
        unswap_report(&mut report, &swaps);
        assert_eq!(report.column_error, vec![0.1, 0.0, 0.0, 0.5]);
    }
}
