//! Dense `f64` matrices and LU decomposition with partial pivoting.
//!
//! Used as the exact reference solver for small crossbar tiles (a `16×16`
//! tile has 512 circuit nodes), against which line relaxation is validated.

use crate::{Result, SolveError};

/// A dense, row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n_rows × n_cols` zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Creates the `n × n` identity.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Dimension`] if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            if row.len() != n_cols {
                return Err(SolveError::dim("rows of unequal length"));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            n_rows,
            n_cols,
            data,
        })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Reads element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n_cols + c]
    }

    /// Writes element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n_cols + c] = v;
    }

    /// Adds `v` to element `(r, c)` — the natural operation when stamping
    /// conductances into a nodal-analysis matrix.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n_cols + c] += v;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Dimension`] if `x.len() != n_cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n_cols {
            return Err(SolveError::dim(format!(
                "matvec: {} columns vs vector of {}",
                self.n_cols,
                x.len()
            )));
        }
        Ok((0..self.n_rows)
            .map(|i| {
                self.data[i * self.n_cols..(i + 1) * self.n_cols]
                    .iter()
                    .zip(x)
                    .map(|(&a, &b)| a * b)
                    .sum()
            })
            .collect())
    }

    /// Returns the row-major data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// LU decomposition with partial (row) pivoting: `P·A = L·U`.
///
/// # Example
///
/// ```
/// use xbar_linalg::dense::{DenseMatrix, LuDecomposition};
/// # fn main() -> Result<(), xbar_linalg::SolveError> {
/// let a = DenseMatrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]])?; // needs pivoting
/// let x = LuDecomposition::new(&a)?.solve(&[2.0, 3.0])?;
/// assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    n: usize,
    /// Combined L (below diagonal, unit diagonal implied) and U (on/above).
    lu: Vec<f64>,
    /// Row permutation applied to the right-hand side.
    perm: Vec<usize>,
    /// Sign of the permutation, for the determinant.
    perm_sign: f64,
}

impl LuDecomposition {
    /// Pivots smaller than this magnitude are treated as singular.
    const SINGULAR_TOL: f64 = 1e-300;

    /// Factorises a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Dimension`] for non-square input and
    /// [`SolveError::Singular`] if elimination encounters a zero pivot.
    pub fn new(a: &DenseMatrix) -> Result<Self> {
        if a.n_rows != a.n_cols {
            return Err(SolveError::dim("LU requires a square matrix"));
        }
        let n = a.n_rows;
        let mut lu = a.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        for k in 0..n {
            // Partial pivot: largest magnitude in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for r in (k + 1)..n {
                let v = lu[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < Self::SINGULAR_TOL {
                return Err(SolveError::Singular { pivot: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    lu.swap(k * n + c, pivot_row * n + c);
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[k * n + k];
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        lu[r * n + c] -= factor * lu[k * n + c];
                    }
                }
            }
        }
        Ok(Self {
            n,
            lu,
            perm,
            perm_sign,
        })
    }

    /// Solves `A·x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Dimension`] if `b.len()` differs from the
    /// matrix dimension.
    #[allow(clippy::needless_range_loop)] // triangular solves index y[j<i]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(SolveError::dim(format!(
                "solve: matrix is {0}x{0} but rhs has {1} entries",
                self.n,
                b.len()
            )));
        }
        let n = self.n;
        // Forward substitution with permuted rhs (L has unit diagonal).
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * y[j];
            }
            y[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * y[j];
            }
            y[i] = acc / self.lu[i * n + i];
        }
        Ok(y)
    }

    /// Determinant of the factorised matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.n {
            det *= self.lu[i * self.n + i];
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    #[test]
    fn identity_solve_returns_rhs() {
        let lu = LuDecomposition::new(&DenseMatrix::eye(4)).unwrap();
        let b = [1.0, -2.0, 3.0, 0.5];
        assert_eq!(lu.solve(&b).unwrap(), b.to_vec());
        assert!((lu.determinant() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn known_system() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = LuDecomposition::new(&a)
            .unwrap()
            .solve(&[3.0, 5.0])
            .unwrap();
        assert!(max_abs_diff(&x, &[0.8, 1.4]) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[7.0, 9.0]).unwrap();
        assert!(max_abs_diff(&x, &[9.0, 7.0]) < 1e-12);
        assert!((lu.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(SolveError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(SolveError::Dimension(_))
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let lu = LuDecomposition::new(&DenseMatrix::eye(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn determinant_of_triangular() {
        let a = DenseMatrix::from_rows(&[&[2.0, 5.0], &[0.0, 3.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn residual_small_on_random_dd_system() {
        // Deterministic pseudo-random diagonally dominant system.
        let n = 40;
        let mut s = 77u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 1000) as f64 - 500.0) / 500.0
        };
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = rnd();
                    a.set(i, j, v);
                    row_sum += v.abs();
                }
            }
            a.set(i, i, row_sum + 1.0);
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let x = LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!(max_abs_diff(&ax, &b) < 1e-10);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(DenseMatrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn matvec_checks_length() {
        let a = DenseMatrix::eye(2);
        assert!(a.matvec(&[1.0]).is_err());
    }
}
