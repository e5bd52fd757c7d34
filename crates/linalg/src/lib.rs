//! # xbar-linalg
//!
//! Linear-algebra kernels backing the non-ideal crossbar circuit simulator
//! of the `xbar-repro` workspace.
//!
//! The crossbar equivalent circuit of the paper's Fig. 1(a) — input drivers,
//! wire-segment parasitics, synaptic conductances and sense resistances —
//! discretises via Kirchhoff's current law into a sparse, symmetric,
//! diagonally-dominant linear system `A·v = b` over the crosspoint node
//! voltages. This crate provides:
//!
//! * [`dense::LuDecomposition`] — LU with partial pivoting, the exact
//!   reference solver used for small tiles and for validating line
//!   relaxation;
//! * [`tridiagonal`] — the Thomas algorithm, the inner step of line
//!   relaxation.
//!
//! All kernels are `f64`: conductances span three decades (`Gmin`..`Gmax`
//! with wire conductances far larger), so `f32` loses the IR-drop signal.
//!
//! # Example
//!
//! ```
//! use xbar_linalg::dense::{DenseMatrix, LuDecomposition};
//!
//! # fn main() -> Result<(), xbar_linalg::SolveError> {
//! let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuDecomposition::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod dense;
pub mod norms;
pub mod tridiagonal;

use std::fmt;

/// Error produced by the solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Matrix dimensions are inconsistent with the operation.
    Dimension(String),
    /// The matrix is singular (or numerically singular) to working precision.
    Singular {
        /// Pivot index at which elimination broke down.
        pivot: usize,
    },
    /// An iterative solver failed to reach the requested tolerance.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// The solver was configured with invalid parameters (e.g. physically
    /// inconsistent crossbar settings). Callers that validate configuration
    /// up front never see this; it exists so deep call paths can surface a
    /// descriptive error instead of panicking inside worker threads.
    Config(String),
}

impl SolveError {
    pub(crate) fn dim(msg: impl Into<String>) -> Self {
        SolveError::Dimension(msg.into())
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Dimension(msg) => write!(f, "dimension mismatch: {msg}"),
            SolveError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            SolveError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            SolveError::Config(msg) => write!(f, "invalid solver configuration: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Convergence statistics reported by the circuit solvers: how much work
/// a solve took and how good the answer is, instead of discarding both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Sweeps (line relaxation) or 1 (a direct solve) performed.
    pub iterations: usize,
    /// Relative `‖b − A·x‖∞ / ‖b‖∞` residual at exit.
    pub residual: f64,
    /// Whether the tolerance target was met.
    pub converged: bool,
}

impl Default for SolveStats {
    fn default() -> Self {
        SolveStats {
            iterations: 0,
            residual: 0.0,
            converged: true,
        }
    }
}

impl SolveStats {
    /// Stats for a direct (non-iterative) solve: one "iteration", exact.
    pub fn direct() -> Self {
        SolveStats {
            iterations: 1,
            residual: 0.0,
            converged: true,
        }
    }

    /// Combines stats of independent solves contributing to one result:
    /// iterations add, the worst residual dominates.
    pub fn accumulate(&mut self, other: SolveStats) {
        self.iterations += other.iterations;
        self.residual = self.residual.max(other.residual);
        self.converged &= other.converged;
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, SolveError>;
