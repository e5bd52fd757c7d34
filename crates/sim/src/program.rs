//! Open-loop device programming with per-tile fault reporting.
//!
//! Every device of an array is written once, as in the paper's RxNN-style
//! evaluation: the mitigations (R, WCT) act on the weights, not on a write
//! loop. Devices that are *stuck* (broken filament at `Gmin`, shorted cell
//! at `Gmax`) ignore the write and must be handled structurally (spare-column
//! repair or digital correction in `xbar-core`).
//!
//! Programming one conductance array:
//!
//! 1. program every device (Gaussian variation draw, [`apply_variation`]);
//! 2. stuck devices snap to their rail regardless of the write
//!    ([`FaultModel::mask`], drawn from its own seed so the same physical
//!    devices stay stuck whenever the array is programmed);
//! 3. locate every stuck device from the fault mask and emit a
//!    [`FaultReport`]: stuck coordinates and the per-column
//!    fault-attributable error.

use crate::conductance::ConductanceMatrix;
use crate::faults::{apply_mask, FaultKind, FaultModel};
use crate::variation::apply_variation;

/// Which array of the differential pair a device belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayKind {
    /// The positive-weight array (`G⁺`).
    Pos,
    /// The negative-weight array (`G⁻`).
    Neg,
}

/// One stuck device: pinned at a rail, with its programming error in both
/// conductance and (relative) weight space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckCell {
    /// Row (word line) inside the tile.
    pub row: usize,
    /// Column (bit line) inside the tile.
    pub col: usize,
    /// Which array of the differential pair.
    pub array: ArrayKind,
    /// What the device is stuck at.
    pub kind: FaultKind,
    /// The target conductance the write was aiming for, S.
    pub target: f64,
    /// The realized (rail) conductance, S.
    pub actual: f64,
    /// `(actual − target) / span` — the signed conductance error as a
    /// fraction of `Gmax − Gmin`.
    pub delta_rel: f64,
}

impl StuckCell {
    /// Magnitude of the relative conductance error.
    pub fn severity(&self) -> f64 {
        self.delta_rel.abs()
    }

    /// Signed contribution of this stuck device to the read-back *weight*
    /// at `(row, col)`: `w' ≈ w + weight_error`. A stuck `G⁺` device adds
    /// its conductance error, a stuck `G⁻` device subtracts it. This is what
    /// digital column correction removes in the periphery.
    pub fn weight_error(&self, w_ref: f32) -> f32 {
        let sign = match self.array {
            ArrayKind::Pos => 1.0,
            ArrayKind::Neg => -1.0,
        };
        (sign * self.delta_rel) as f32 * w_ref
    }
}

/// Per-tile verdict of programming both arrays: where the stuck devices are.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Stuck devices (both arrays) with their programming error.
    pub stuck_cells: Vec<StuckCell>,
    /// Fault-attributable error per tile column: sum of stuck-cell
    /// severities landing in that column, across both arrays. This is the
    /// signal the spare-column repair ranks columns by.
    pub column_error: Vec<f64>,
}

impl FaultReport {
    /// A report for a fault-free tile of `cols` columns.
    pub fn clean(cols: usize) -> Self {
        Self {
            column_error: vec![0.0; cols],
            ..Self::default()
        }
    }

    /// Number of stuck devices.
    pub fn stuck_count(&self) -> usize {
        self.stuck_cells.len()
    }

    /// Whether the tile has no stuck devices at all.
    pub fn is_clean(&self) -> bool {
        self.stuck_cells.is_empty()
    }

    /// The tile's fault score: the worst per-column fault-attributable
    /// error. `0` for a clean tile.
    pub fn fault_score(&self) -> f64 {
        self.column_error.iter().copied().fold(0.0, f64::max)
    }

    /// Columns with any fault-attributable error, worst first.
    pub fn worst_columns(&self) -> Vec<(usize, f64)> {
        let mut cols: Vec<(usize, f64)> = self
            .column_error
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, e)| e > 0.0)
            .collect();
        cols.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        cols
    }

    /// Indices of columns containing at least one stuck device.
    pub fn affected_columns(&self) -> Vec<usize> {
        self.worst_columns().into_iter().map(|(c, _)| c).collect()
    }

    /// Folds a per-array outcome into this tile-level report.
    fn absorb(&mut self, outcome: ArrayOutcome) {
        for cell in &outcome.stuck {
            self.column_error[cell.col] += cell.severity();
        }
        self.stuck_cells.extend(outcome.stuck);
    }

    /// Builds the tile report from the two array outcomes.
    pub fn from_arrays(cols: usize, pos: ArrayOutcome, neg: ArrayOutcome) -> Self {
        let mut report = Self::clean(cols);
        report.absorb(pos);
        report.absorb(neg);
        report
    }
}

/// Result of programming one array: the realized conductances and the
/// stuck devices among them.
#[derive(Debug, Clone)]
pub struct ArrayOutcome {
    /// The realized conductances after variation and faults.
    pub g: ConductanceMatrix,
    /// Devices stuck at a rail.
    pub stuck: Vec<StuckCell>,
}

/// Programs one array toward `targets` as described in the module docs:
/// the variation draw, then the stuck mask.
///
/// * `seed` drives the programming-noise draw;
/// * `fault_seed` drives the stuck-device mask — kept separate so the same
///   physical devices stay stuck whatever the variation draw.
#[allow(clippy::too_many_arguments)]
pub fn program_array(
    targets: &ConductanceMatrix,
    faults: &FaultModel,
    sigma: f64,
    g_min: f64,
    g_max: f64,
    seed: u64,
    fault_seed: u64,
    array: ArrayKind,
) -> ArrayOutcome {
    let (rows, cols) = (targets.rows(), targets.cols());
    let mask = faults.mask(rows, cols, fault_seed);
    let mut g = targets.clone();
    apply_variation(&mut g, sigma, g_min, seed);
    apply_mask(&mut g, &mask, g_min, g_max);

    let span = g_max - g_min;
    let stuck = mask
        .iter()
        .enumerate()
        .filter_map(|(i, kind)| {
            kind.map(|kind| {
                let target = targets.as_slice()[i];
                let actual = g.as_slice()[i];
                StuckCell {
                    row: i / cols,
                    col: i % cols,
                    array,
                    kind,
                    target,
                    actual,
                    delta_rel: (actual - target) / span,
                }
            })
        })
        .collect();
    ArrayOutcome { g, stuck }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(rows: usize, cols: usize) -> ConductanceMatrix {
        ConductanceMatrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| 1e-6 + (i % 10) as f64 * 1e-6)
                .collect(),
        )
    }

    const G_MIN: f64 = 1e-6;
    const G_MAX: f64 = 1e-5;

    #[test]
    fn programming_is_variation_then_stuck_mask() {
        let t = targets(8, 8);
        let fm = FaultModel {
            stuck_at_gmin: 0.1,
            stuck_at_gmax: 0.05,
        };
        let out = program_array(&t, &fm, 0.1, G_MIN, G_MAX, 7, 99, ArrayKind::Pos);
        // Reference: the variation draw, then the stuck mask.
        let mut expect = t.clone();
        apply_variation(&mut expect, 0.1, G_MIN, 7);
        fm.inject(&mut expect, G_MIN, G_MAX, 99);
        assert_eq!(out.g, expect);
    }

    #[test]
    fn stuck_cells_survive_retries_and_are_reported() {
        let t = targets(10, 10);
        let fm = FaultModel {
            stuck_at_gmin: 0.15,
            stuck_at_gmax: 0.05,
        };
        let out = program_array(&t, &fm, 0.1, G_MIN, G_MAX, 11, 21, ArrayKind::Neg);
        assert!(!out.stuck.is_empty());
        let mask = fm.mask(10, 10, 21);
        assert_eq!(
            out.stuck.len(),
            mask.iter().filter(|k| k.is_some()).count(),
            "every masked device must be reported stuck"
        );
        for cell in &out.stuck {
            let expected_rail = match cell.kind {
                FaultKind::StuckAtGmin => G_MIN,
                FaultKind::StuckAtGmax => G_MAX,
            };
            assert_eq!(cell.actual, expected_rail);
            assert_eq!(cell.array, ArrayKind::Neg);
            assert_eq!(out.g.at(cell.row, cell.col), expected_rail);
        }
    }

    #[test]
    fn report_aggregates_column_errors_and_scores() {
        let pos = ArrayOutcome {
            g: ConductanceMatrix::filled(2, 3, 5e-6),
            stuck: vec![StuckCell {
                row: 0,
                col: 1,
                array: ArrayKind::Pos,
                kind: FaultKind::StuckAtGmax,
                target: G_MIN,
                actual: G_MAX,
                delta_rel: 1.0,
            }],
        };
        let neg = ArrayOutcome {
            g: ConductanceMatrix::filled(2, 3, 5e-6),
            stuck: vec![StuckCell {
                row: 1,
                col: 2,
                array: ArrayKind::Neg,
                kind: FaultKind::StuckAtGmin,
                target: 5e-6,
                actual: G_MIN,
                delta_rel: -0.5,
            }],
        };
        let report = FaultReport::from_arrays(3, pos, neg);
        assert_eq!(report.stuck_count(), 2);
        assert_eq!(report.column_error, vec![0.0, 1.0, 0.5]);
        assert_eq!(report.fault_score(), 1.0);
        assert_eq!(report.worst_columns(), vec![(1, 1.0), (2, 0.5)]);
        assert_eq!(report.affected_columns(), vec![1, 2]);
    }

    #[test]
    fn weight_error_sign_follows_array() {
        let mut cell = StuckCell {
            row: 0,
            col: 0,
            array: ArrayKind::Pos,
            kind: FaultKind::StuckAtGmax,
            target: G_MIN,
            actual: G_MAX,
            delta_rel: 1.0,
        };
        assert!((cell.weight_error(2.0) - 2.0).abs() < 1e-6);
        cell.array = ArrayKind::Neg;
        assert!((cell.weight_error(2.0) + 2.0).abs() < 1e-6);
    }

    #[test]
    fn clean_report_for_no_faults() {
        let out = program_array(
            &targets(4, 4),
            &FaultModel::none(),
            0.0,
            G_MIN,
            G_MAX,
            0,
            0,
            ArrayKind::Pos,
        );
        let report = FaultReport::from_arrays(4, out.clone(), out);
        assert!(report.is_clean());
        assert_eq!(report.fault_score(), 0.0);
    }
}
