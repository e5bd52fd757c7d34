//! The non-ideality factor `NF = (I_ideal − I_non-ideal) / I_ideal`.
//!
//! NF is the paper's direct measure of crossbar non-ideality (Section II-A,
//! citing GENIEx): larger NF means a larger relative loss of dot-product
//! current, and Fig. 3(d) compares its growth with crossbar size for
//! unpruned vs C/F-pruned weight matrices.

use crate::solve::EffectiveSolve;

/// Per-column non-ideality factors of one solve. Columns whose ideal current
/// is (numerically) zero are skipped.
pub fn column_nf(solve: &EffectiveSolve) -> Vec<f64> {
    solve
        .ideal_currents
        .iter()
        .zip(&solve.col_currents)
        .filter(|(&ideal, _)| ideal.abs() > f64::MIN_POSITIVE)
        .map(|(&ideal, &actual)| (ideal - actual) / ideal)
        .collect()
}

/// Mean NF of one solve; `0.0` if no column carried current.
pub fn mean_nf(solve: &EffectiveSolve) -> f64 {
    let nfs = column_nf(solve);
    if nfs.is_empty() {
        0.0
    } else {
        nfs.iter().sum::<f64>() / nfs.len() as f64
    }
}

/// Running aggregate of NF across many tiles (Welford-free simple sums: NF
/// values are O(1) so plain accumulation is fine).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NfAccumulator {
    sum: f64,
    sum_sq: f64,
    count: usize,
}

impl NfAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one NF observation.
    pub fn push(&mut self, nf: f64) {
        self.sum += nf;
        self.sum_sq += nf * nf;
        self.count += 1;
    }

    /// Merges another accumulator (for parallel tile processing).
    pub fn merge(&mut self, other: &NfAccumulator) {
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.count += other.count;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean NF; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation; `0.0` when empty.
    pub fn std(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.count as f64 - mean * mean)
            .max(0.0)
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductance::ConductanceMatrix;

    fn fake_solve(ideal: Vec<f64>, actual: Vec<f64>) -> EffectiveSolve {
        EffectiveSolve {
            g_eff: ConductanceMatrix::filled(1, ideal.len(), 0.0),
            col_currents: actual,
            ideal_currents: ideal,
            stats: xbar_linalg::SolveStats::direct(),
        }
    }

    #[test]
    fn nf_of_perfect_solve_is_zero() {
        let s = fake_solve(vec![1.0, 2.0], vec![1.0, 2.0]);
        assert_eq!(column_nf(&s), vec![0.0, 0.0]);
        assert_eq!(mean_nf(&s), 0.0);
    }

    #[test]
    fn nf_measures_relative_loss() {
        let s = fake_solve(vec![2.0, 4.0], vec![1.0, 3.0]);
        let nfs = column_nf(&s);
        assert!((nfs[0] - 0.5).abs() < 1e-12);
        assert!((nfs[1] - 0.25).abs() < 1e-12);
        assert!((mean_nf(&s) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn zero_ideal_columns_are_skipped() {
        let s = fake_solve(vec![0.0, 2.0], vec![0.0, 1.0]);
        assert_eq!(column_nf(&s).len(), 1);
    }

    #[test]
    fn accumulator_mean_and_std() {
        let mut acc = NfAccumulator::new();
        acc.push(0.1);
        acc.push(0.3);
        assert_eq!(acc.count(), 2);
        assert!((acc.mean() - 0.2).abs() < 1e-12);
        assert!((acc.std() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn accumulator_merge_matches_sequential() {
        let mut a = NfAccumulator::new();
        a.push(0.1);
        let mut b = NfAccumulator::new();
        b.push(0.3);
        b.push(0.5);
        a.merge(&b);
        let mut seq = NfAccumulator::new();
        for v in [0.1, 0.3, 0.5] {
            seq.push(v);
        }
        assert!((a.mean() - seq.mean()).abs() < 1e-12);
        assert!((a.std() - seq.std()).abs() < 1e-12);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let acc = NfAccumulator::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.std(), 0.0);
    }
}
