//! Non-ideal crossbar circuit solving.
//!
//! The equivalent circuit (paper Fig. 1(a)) has two nodes per crosspoint:
//! a row-wire node `vr(i,j)` and a column-wire node `vc(i,j)`, connected by
//! the synapse conductance `G_ij`. Row nodes chain through `Rwire_row`
//! segments back to the driver (`Rdriver`, behind the input voltage `V_i`);
//! column nodes chain through `Rwire_col` segments down to the sense
//! resistance `Rsense` at the bottom. Kirchhoff's current law at every node
//! yields a sparse SPD system.
//!
//! Two solvers are provided:
//!
//! * [`SolveMethod::DenseExact`] assembles the full nodal matrix and LU-solves
//!   it — exact, used for small tiles and validation;
//! * [`SolveMethod::LineRelaxation`] alternates exact tridiagonal solves
//!   along rows and columns (block Gauss–Seidel with tridiagonal blocks).
//!   Because wire conductances exceed synaptic ones by ~10³, the inter-line
//!   coupling is weak and a handful of sweeps reaches circuit accuracy.
//!
//! Line relaxation comes in three bit-identical flavours:
//!
//! * the **scalar oracle** ([`NonIdealSolver::solve_nodes_scalar`]) — one
//!   Thomas solve per line per sweep, the reference implementation;
//! * the **vectorized path** (the default behind
//!   [`NonIdealSolver::solve_nodes`]) — the independent line solves of each
//!   sweep phase are laid out contiguously and processed in manual
//!   [`LANES`]-wide f64 chunks, with the per-line Thomas factorisations
//!   (which depend only on the conductances, never on the right-hand side)
//!   hoisted out of the sweep loop;
//! * the **batched path** ([`NonIdealSolver::solve_nodes_batch`]) — many
//!   input vectors solve through the same conductance matrix in one pass,
//!   lanes running across batch elements and the factorisation shared by
//!   the whole batch.
//!
//! All three perform the same IEEE-754 operations in the same order per
//! element, so their results are bit-identical (pinned by unit tests here
//! and proptests in `tests/proptests.rs`). On x86-64 the sweep kernels are
//! additionally compiled for AVX2 and dispatched at runtime; FMA is
//! deliberately *not* enabled, as contraction would change roundings.

use crate::conductance::ConductanceMatrix;
use crate::params::{CrossbarParams, InvalidParams};
use xbar_linalg::dense::{DenseMatrix, LuDecomposition};
use xbar_linalg::tridiagonal::solve_tridiagonal_into;
use xbar_linalg::{Result, SolveError, SolveStats};
use xbar_obs::names;

/// Conductance used for a zero-resistance (ideal) parasitic element.
const IDEAL_CONDUCTANCE: f64 = 1e9;

/// Convergence tolerance of line relaxation: a sweep that moves no node by
/// more than this fraction of the read voltage ends the solve.
const TOLERANCE: f64 = 1e-9;

fn g_of(r: f64) -> f64 {
    if r <= 0.0 {
        IDEAL_CONDUCTANCE
    } else {
        1.0 / r
    }
}

/// Which circuit solver to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Exact dense LU over the full nodal system (O(n³); small tiles only).
    DenseExact,
    /// Alternating row/column tridiagonal relaxation (fast, validated
    /// against `DenseExact`).
    LineRelaxation,
}

/// The crosspoint node voltages produced by a circuit solve, plus the work
/// it took. Node order is row-major: `vr[i·cols + j]` / `vc[i·cols + j]`.
///
/// Voltages are the solver's *state*: handing them back to a later solve as
/// a [`Warm`] start lets that solve resume where this one left off (the 4×
/// fallback retry) or verify-and-reuse a converged solution (repair's
/// re-simulation of a column-permuted tile) instead of rediscovering
/// everything from the cold initial guess. The solve cache stores them too,
/// and a hit reads its result straight off the stored voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeVoltages {
    /// Row-wire node voltages.
    pub vr: Vec<f64>,
    /// Column-wire node voltages.
    pub vc: Vec<f64>,
    /// Work and quality of the solve that produced these voltages;
    /// `converged == false` means the sweep cap was hit and the voltages
    /// are a partial (but deterministic) state, usable as a resume seed.
    pub stats: SolveStats,
}

impl NodeVoltages {
    /// Borrows these voltages as a warm start. `converged_seed` follows the
    /// stats: a converged solution is offered for verified reuse, a partial
    /// one for plain resumption.
    pub fn warm(&self) -> Warm<'_> {
        Warm {
            vr: &self.vr,
            vc: &self.vc,
            converged_seed: self.stats.converged,
        }
    }
}

/// A warm start for [`SolveMethod::LineRelaxation`]: initial node voltages
/// taken from a prior solve.
///
/// Two seed kinds, distinguished by `converged_seed`:
///
/// * `false` — *resume*: relaxation starts from the seed state and runs the
///   normal sweep loop. Because line relaxation is deterministic, resuming
///   from the state of an abandoned attempt reproduces **bit-for-bit** the
///   trajectory a cold solve with a larger sweep budget would have taken.
/// * `true` — *verify*: the seed claims to be a converged solution. One
///   trial sweep is run; if it moves no node by more than the tolerance,
///   the seed itself is returned unchanged (bit-identical reuse, 1 sweep of
///   work). Otherwise relaxation simply continues from the swept state.
///
/// [`SolveMethod::DenseExact`] ignores warm starts (it is direct).
#[derive(Debug, Clone, Copy)]
pub struct Warm<'a> {
    /// Seed row-wire node voltages (`rows·cols` entries).
    pub vr: &'a [f64],
    /// Seed column-wire node voltages (`rows·cols` entries).
    pub vc: &'a [f64],
    /// Whether the seed is a previously converged solution (verify-and-reuse
    /// semantics) rather than a partial state (resume semantics).
    pub converged_seed: bool,
}

/// Result of a non-ideal solve at a fixed input-voltage vector.
#[derive(Debug, Clone)]
pub struct EffectiveSolve {
    /// Effective per-synapse conductances `G'_ij = I_syn,ij / V_i`.
    pub g_eff: ConductanceMatrix,
    /// Non-ideal column currents through the sense resistors, A.
    pub col_currents: Vec<f64>,
    /// Ideal column currents `Σ_i G_ij·V_i`, A.
    pub ideal_currents: Vec<f64>,
    /// Solver work and quality ([`SolveStats::direct`] for the dense solver).
    pub stats: SolveStats,
}

/// A crossbar circuit solver bound to fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct NonIdealSolver {
    params: CrossbarParams,
    method: SolveMethod,
    /// Sweep cap for line relaxation.
    pub max_sweeps: usize,
}

impl NonIdealSolver {
    /// Creates a solver, validating the parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`InvalidParams`] message if `params` is physically
    /// inconsistent — worker threads deep in the mapping pipeline surface
    /// this as a descriptive error instead of panicking.
    pub fn try_new(
        params: CrossbarParams,
        method: SolveMethod,
    ) -> std::result::Result<Self, InvalidParams> {
        params.validate()?;
        Ok(Self {
            params,
            method,
            max_sweeps: 500,
        })
    }

    /// Creates a solver.
    ///
    /// # Panics
    ///
    /// Panics if `params` is physically inconsistent; callers that accept
    /// untrusted configuration should use [`NonIdealSolver::try_new`] (or
    /// run [`CrossbarParams::validate`] first) and surface the error.
    pub fn new(params: CrossbarParams, method: SolveMethod) -> Self {
        match Self::try_new(params, method) {
            Ok(solver) => solver,
            Err(e) => panic!("{e}"),
        }
    }

    /// The bound parameters.
    pub fn params(&self) -> &CrossbarParams {
        &self.params
    }

    /// The bound solve method.
    pub fn method(&self) -> SolveMethod {
        self.method
    }

    /// Solves the circuit for conductances `g` under input voltages `v` and
    /// extracts effective conductances and column currents.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Dimension`] if `v.len() != g.rows()` or any voltage is
    ///   non-positive (effective conductances need `V_i > 0`);
    /// * solver errors from the underlying factorisation/relaxation.
    pub fn effective_conductances(
        &self,
        g: &ConductanceMatrix,
        v: &[f64],
    ) -> Result<EffectiveSolve> {
        let rows = g.rows();
        if v.len() != rows {
            return Err(SolveError::Dimension(format!(
                "crossbar has {rows} rows but {} input voltages given",
                v.len()
            )));
        }
        if v.iter().any(|&x| x <= 0.0) {
            return Err(SolveError::Dimension(
                "effective-conductance extraction requires positive read voltages".into(),
            ));
        }
        let nodes = self.solve_nodes(g, v, None)?;
        if !nodes.stats.converged {
            return Err(SolveError::NoConvergence {
                iterations: nodes.stats.iterations,
                residual: nodes.stats.residual,
            });
        }
        self.extract(g, v, &nodes)
    }

    /// Solves the circuit's node voltages, optionally warm-started.
    ///
    /// Unlike [`NonIdealSolver::effective_conductances`], hitting the sweep
    /// cap is *not* an error here: the partial state comes back with
    /// `stats.converged == false` so callers can resume it (the fallback
    /// retry path) instead of throwing the work away.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Dimension`] if `v.len() != g.rows()` or a warm
    ///   start's vectors do not have `rows·cols` entries;
    /// * factorisation errors from the dense solver.
    pub fn solve_nodes(
        &self,
        g: &ConductanceMatrix,
        v: &[f64],
        warm: Option<Warm<'_>>,
    ) -> Result<NodeVoltages> {
        let rows = g.rows();
        if v.len() != rows {
            return Err(SolveError::Dimension(format!(
                "crossbar has {rows} rows but {} input voltages given",
                v.len()
            )));
        }
        match self.method {
            SolveMethod::DenseExact => Ok(self.solve_dense_batch(g, &[v.to_vec()])?.remove(0)),
            SolveMethod::LineRelaxation => {
                let (vr, vc, stats) = self.solve_lines_vec(g, v, warm)?;
                Ok(NodeVoltages { vr, vc, stats })
            }
        }
    }

    /// The scalar reference implementation of [`NonIdealSolver::solve_nodes`]
    /// — one Thomas solve per line per sweep, no lane chunking, no hoisted
    /// factorisation. This is the bit-identity oracle the vectorized and
    /// batched paths are validated against; it is never faster, only
    /// simpler.
    ///
    /// # Errors
    ///
    /// Identical to [`NonIdealSolver::solve_nodes`].
    pub fn solve_nodes_scalar(
        &self,
        g: &ConductanceMatrix,
        v: &[f64],
        warm: Option<Warm<'_>>,
    ) -> Result<NodeVoltages> {
        let rows = g.rows();
        if v.len() != rows {
            return Err(SolveError::Dimension(format!(
                "crossbar has {rows} rows but {} input voltages given",
                v.len()
            )));
        }
        match self.method {
            SolveMethod::DenseExact => Ok(self.solve_dense_batch(g, &[v.to_vec()])?.remove(0)),
            SolveMethod::LineRelaxation => {
                let (vr, vc, stats) = self.solve_lines(g, v, warm)?;
                Ok(NodeVoltages { vr, vc, stats })
            }
        }
    }

    /// Solves the circuit for many input vectors against the *same*
    /// conductance matrix in one pass, amortizing setup across the batch.
    ///
    /// For [`SolveMethod::LineRelaxation`] the per-line Thomas
    /// factorisations are computed once and shared by every element, and
    /// each sweep runs lane-parallel across batch elements; every element's
    /// trajectory is bit-identical to a cold
    /// [`NonIdealSolver::solve_nodes`] (and therefore to the scalar oracle)
    /// on that element alone. For [`SolveMethod::DenseExact`] the nodal
    /// matrix is factorised once and back-substituted per element.
    ///
    /// Batched solves are always cold: elements that need warm starts
    /// should use the single-vector path. Elements that hit the sweep cap
    /// come back with `stats.converged == false`, exactly like
    /// [`NonIdealSolver::solve_nodes`].
    ///
    /// # Errors
    ///
    /// * [`SolveError::Dimension`] if any element's length differs from
    ///   `g.rows()`;
    /// * factorisation errors from either solver.
    pub fn solve_nodes_batch(
        &self,
        g: &ConductanceMatrix,
        vs: &[Vec<f64>],
    ) -> Result<Vec<NodeVoltages>> {
        let rows = g.rows();
        for (idx, v) in vs.iter().enumerate() {
            if v.len() != rows {
                return Err(SolveError::Dimension(format!(
                    "crossbar has {rows} rows but batch element {idx} carries {} input voltages",
                    v.len()
                )));
            }
        }
        if vs.is_empty() {
            return Ok(Vec::new());
        }
        let out = match self.method {
            SolveMethod::DenseExact => self.solve_dense_batch(g, vs)?,
            SolveMethod::LineRelaxation => self.solve_lines_batch(g, vs)?,
        };
        xbar_obs::metrics::counter_add(names::SIM_SOLVE_BATCH_CALLS, 1);
        xbar_obs::metrics::latency_record_us(names::SIM_SOLVE_BATCH_SIZE, vs.len() as u64);
        for nodes in &out {
            xbar_obs::metrics::latency_record_us(
                names::SIM_SOLVE_BATCH_SWEEPS,
                nodes.stats.iterations as u64,
            );
        }
        Ok(out)
    }

    /// Exact non-ideal column currents for a whole batch of non-negative
    /// input vectors through the same conductance matrix — the batched
    /// sibling of [`NonIdealSolver::column_currents`], bit-identical to
    /// calling it once per element.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Dimension`] on a length mismatch or a negative
    ///   voltage in any element;
    /// * [`SolveError::NoConvergence`] if any element hits the sweep cap.
    pub fn column_currents_batch(
        &self,
        g: &ConductanceMatrix,
        vs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>> {
        let rows = g.rows();
        for (idx, v) in vs.iter().enumerate() {
            if v.len() != rows {
                return Err(SolveError::Dimension(format!(
                    "crossbar has {rows} rows but batch element {idx} carries {} input voltages",
                    v.len()
                )));
            }
            if v.iter().any(|&x| x < 0.0) {
                return Err(SolveError::Dimension(format!(
                    "column currents require non-negative input voltages (batch element {idx})"
                )));
            }
        }
        let solved = self.solve_nodes_batch(g, vs)?;
        solved
            .into_iter()
            .map(|nodes| {
                if !nodes.stats.converged {
                    return Err(SolveError::NoConvergence {
                        iterations: nodes.stats.iterations,
                        residual: nodes.stats.residual,
                    });
                }
                self.currents_of(g, &nodes)
            })
            .collect()
    }

    /// Column currents read off already-solved node voltages — the pure
    /// sense-resistor read-out shared by [`NonIdealSolver::column_currents`]
    /// and the cache-replay path (no per-synapse division, so it accepts
    /// any input sign).
    ///
    /// # Errors
    ///
    /// [`SolveError::Dimension`] if `nodes` does not match `g`'s shape.
    pub fn currents_of(&self, g: &ConductanceMatrix, nodes: &NodeVoltages) -> Result<Vec<f64>> {
        let (rows, cols) = (g.rows(), g.cols());
        if nodes.vr.len() != rows * cols || nodes.vc.len() != rows * cols {
            return Err(SolveError::Dimension(
                "node voltages do not match the crossbar shape".into(),
            ));
        }
        let g_sense = g_of(self.params.r_sense);
        Ok((0..cols)
            .map(|j| nodes.vc[(rows - 1) * cols + j] * g_sense)
            .collect())
    }

    /// Extracts effective conductances and column currents from solved node
    /// voltages (the pure read-out step of
    /// [`NonIdealSolver::effective_conductances`]).
    ///
    /// # Errors
    ///
    /// [`SolveError::Dimension`] on shape mismatch or non-positive read
    /// voltages (the per-synapse division needs `V_i > 0`).
    pub fn extract(
        &self,
        g: &ConductanceMatrix,
        v: &[f64],
        nodes: &NodeVoltages,
    ) -> Result<EffectiveSolve> {
        let (rows, cols) = (g.rows(), g.cols());
        if v.len() != rows || nodes.vr.len() != rows * cols || nodes.vc.len() != rows * cols {
            return Err(SolveError::Dimension(
                "node voltages do not match the crossbar shape".into(),
            ));
        }
        if v.iter().any(|&x| x <= 0.0) {
            return Err(SolveError::Dimension(
                "effective-conductance extraction requires positive read voltages".into(),
            ));
        }
        let (vr, vc) = (&nodes.vr, &nodes.vc);
        let mut g_eff = ConductanceMatrix::filled(rows, cols, 0.0);
        for i in 0..rows {
            for j in 0..cols {
                let i_syn = g.at(i, j) * (vr[i * cols + j] - vc[i * cols + j]);
                g_eff.set(i, j, i_syn / v[i]);
            }
        }
        let g_sense = g_of(self.params.r_sense);
        let col_currents: Vec<f64> = (0..cols)
            .map(|j| vc[(rows - 1) * cols + j] * g_sense)
            .collect();
        let ideal_currents: Vec<f64> = (0..cols)
            .map(|j| (0..rows).map(|i| g.at(i, j) * v[i]).sum())
            .collect();
        Ok(EffectiveSolve {
            g_eff,
            col_currents,
            ideal_currents,
            stats: nodes.stats,
        })
    }

    /// Exact non-ideal column currents for an arbitrary non-negative input
    /// vector (activations after ReLU are non-negative). Unlike
    /// [`NonIdealSolver::effective_conductances`], no per-synapse division
    /// by `V_i` is needed, so zero inputs are fine.
    ///
    /// This is the ground truth against which the paper's methodology —
    /// folding non-idealities into effective conductances `G'` extracted at
    /// the nominal read voltage — is validated (ablation A6 in
    /// `xbar-bench`).
    ///
    /// # Errors
    ///
    /// * [`SolveError::Dimension`] if `v.len() != g.rows()` or any voltage
    ///   is negative;
    /// * solver errors from the underlying relaxation.
    pub fn column_currents(&self, g: &ConductanceMatrix, v: &[f64]) -> Result<Vec<f64>> {
        let (rows, cols) = (g.rows(), g.cols());
        if v.len() != rows {
            return Err(SolveError::Dimension(format!(
                "crossbar has {rows} rows but {} input voltages given",
                v.len()
            )));
        }
        if v.iter().any(|&x| x < 0.0) {
            return Err(SolveError::Dimension(
                "column currents require non-negative input voltages".into(),
            ));
        }
        let nodes = self.solve_nodes(g, v, None)?;
        if !nodes.stats.converged {
            return Err(SolveError::NoConvergence {
                iterations: nodes.stats.iterations,
                residual: nodes.stats.residual,
            });
        }
        let g_sense = g_of(self.params.r_sense);
        Ok((0..cols)
            .map(|j| nodes.vc[(rows - 1) * cols + j] * g_sense)
            .collect())
    }

    /// The dense nodal matrix of the circuit. Node order: all row nodes
    /// (`i·cols + j`) then all column nodes (`rows·cols + i·cols + j`).
    fn nodal_matrix(&self, g: &ConductanceMatrix) -> DenseMatrix {
        let p = &self.params;
        let (rows, cols) = (g.rows(), g.cols());
        let n = 2 * rows * cols;
        let (g_drv, g_wr, g_wc, g_sns) = (
            g_of(p.r_driver),
            g_of(p.r_wire_row),
            g_of(p.r_wire_col),
            g_of(p.r_sense),
        );
        let mut a = DenseMatrix::zeros(n, n);
        // Stamps a two-terminal conductance between nodes `x` and `y`.
        let stamp = |a: &mut DenseMatrix, x: usize, y: usize, gv: f64| {
            a.add_at(x, x, gv);
            a.add_at(y, y, gv);
            a.add_at(x, y, -gv);
            a.add_at(y, x, -gv);
        };
        let rnode = |i: usize, j: usize| i * cols + j;
        let cnode = |i: usize, j: usize| rows * cols + i * cols + j;
        for i in 0..rows {
            for j in 0..cols {
                // Synapse between row and column nodes.
                stamp(&mut a, rnode(i, j), cnode(i, j), g.at(i, j));
                // Row wire to the right neighbour.
                if j + 1 < cols {
                    stamp(&mut a, rnode(i, j), rnode(i, j + 1), g_wr);
                }
                // Column wire to the node below.
                if i + 1 < rows {
                    stamp(&mut a, cnode(i, j), cnode(i + 1, j), g_wc);
                }
            }
            // Driver at the left end of the row: conductance to the source.
            a.add_at(rnode(i, 0), rnode(i, 0), g_drv);
        }
        for j in 0..cols {
            // Sense resistor to ground at the bottom of the column.
            a.add_at(cnode(rows - 1, j), cnode(rows - 1, j), g_sns);
        }
        a
    }

    /// Dense solve: the nodal matrix depends only on `g`, so it is
    /// assembled and LU-factorised once and back-substituted per element.
    /// The single-vector paths call this with a one-element batch.
    fn solve_dense_batch(
        &self,
        g: &ConductanceMatrix,
        vs: &[Vec<f64>],
    ) -> Result<Vec<NodeVoltages>> {
        let (rows, cols) = (g.rows(), g.cols());
        let g_drv = g_of(self.params.r_driver);
        let lu = LuDecomposition::new(&self.nodal_matrix(g))?;
        vs.iter()
            .map(|v| {
                let mut b = vec![0.0f64; 2 * rows * cols];
                // Each row's driver feeds its leftmost row node.
                for i in 0..rows {
                    b[i * cols] += g_drv * v[i];
                }
                let x = lu.solve(&b)?;
                let (vr, vc) = x.split_at(rows * cols);
                Ok(NodeVoltages {
                    vr: vr.to_vec(),
                    vc: vc.to_vec(),
                    stats: SolveStats::direct(),
                })
            })
            .collect()
    }

    /// Vectorized line relaxation: the default implementation behind
    /// [`NonIdealSolver::solve_nodes`]. Same warm-start semantics, same
    /// convergence bookkeeping, and bit-identical trajectories to the
    /// scalar [`NonIdealSolver::solve_lines`] oracle — the per-line Thomas
    /// factorisations are hoisted out of the sweep loop (they depend only
    /// on `g` and the parameters) and each sweep phase runs its independent
    /// lines in contiguous lane chunks.
    fn solve_lines_vec(
        &self,
        g: &ConductanceMatrix,
        v: &[f64],
        warm: Option<Warm<'_>>,
    ) -> Result<(Vec<f64>, Vec<f64>, SolveStats)> {
        let p = &self.params;
        let (rows, cols) = (g.rows(), g.cols());
        let (mut vr, mut vc, verify_seed): (Vec<f64>, Vec<f64>, bool) = match warm {
            Some(w) => {
                if w.vr.len() != rows * cols || w.vc.len() != rows * cols {
                    return Err(SolveError::Dimension(format!(
                        "warm start has {}+{} node voltages but the crossbar needs {} each",
                        w.vr.len(),
                        w.vc.len(),
                        rows * cols
                    )));
                }
                (w.vr.to_vec(), w.vc.to_vec(), w.converged_seed)
            }
            None => (
                (0..rows * cols).map(|k| v[k / cols]).collect(),
                vec![0.0f64; rows * cols],
                false,
            ),
        };
        let seed = if verify_seed {
            Some((vr.clone(), vc.clone()))
        } else {
            None
        };
        // The scalar oracle re-derives every line's elimination
        // coefficients each sweep and would surface a singular pivot during
        // sweep 1; factorising up front hits the identical pivot (the bands
        // never change between sweeps).
        let factors = LineFactors::new(g, p)?;
        let tol = TOLERANCE * p.v_read;
        let gs = g.as_slice();
        let mut work = vec![0.0f64; rows * cols];
        let mut sweeps = 0usize;
        loop {
            sweeps += 1;
            let max_delta = sweep_lines(&factors, rows, cols, gs, v, &mut vr, &mut vc, &mut work);
            if max_delta < tol {
                let stats = SolveStats {
                    iterations: sweeps,
                    residual: max_delta / p.v_read,
                    converged: true,
                };
                if sweeps == 1 {
                    if let Some((seed_vr, seed_vc)) = seed {
                        return Ok((seed_vr, seed_vc, stats));
                    }
                }
                return Ok((vr, vc, stats));
            }
            if sweeps >= self.max_sweeps {
                let stats = SolveStats {
                    iterations: sweeps,
                    residual: max_delta / p.v_read,
                    converged: false,
                };
                return Ok((vr, vc, stats));
            }
        }
    }

    /// Batched line relaxation: lanes run across batch elements, which all
    /// share one conductance matrix and therefore one set of per-line
    /// Thomas factorisations. Each element's operation sequence is exactly
    /// the scalar oracle's, so trajectories are bit-identical per element;
    /// elements converge (and are snapshotted) individually, and the sweep
    /// loop keeps running until every element converged or hit the cap.
    fn solve_lines_batch(
        &self,
        g: &ConductanceMatrix,
        vs: &[Vec<f64>],
    ) -> Result<Vec<NodeVoltages>> {
        let factors = LineFactors::new(g, &self.params)?;
        // Elements are independent lanes — the sweep never mixes them — so
        // the batch is processed in LANES-wide sub-batches. That caps the
        // interleaved working set at LANES·rows·cols voltages per array
        // (L2-resident for 64×64 tiles) instead of scaling with the caller's
        // batch, while each element's trajectory stays bit-identical to a
        // solo solve whatever the chunking.
        let (rows, cols) = (g.rows(), g.cols());
        let n = rows * cols;
        // One scratch arena shared by every sub-batch: each chunk rewrites
        // the state it reads (vct is re-zeroed below), so reuse is invisible
        // — and it avoids faulting in ~half a megabyte of fresh pages per
        // chunk.
        let mut scratch = BatchScratch {
            vt: vec![0.0f64; rows * LANES],
            vrt: vec![0.0f64; n * LANES],
            vct: vec![0.0f64; n * LANES],
            work: vec![0.0f64; ILINES * rows.max(cols) * LANES],
        };
        let mut out = Vec::with_capacity(vs.len());
        for chunk in vs.chunks(LANES) {
            out.extend(self.solve_lines_subbatch(g, &factors, chunk, &mut scratch));
        }
        Ok(out)
    }

    /// One lane-interleaved sub-batch of [`NonIdealSolver::solve_lines_batch`].
    fn solve_lines_subbatch(
        &self,
        g: &ConductanceMatrix,
        factors: &LineFactors,
        vs: &[Vec<f64>],
        scratch: &mut BatchScratch,
    ) -> Vec<NodeVoltages> {
        let p = &self.params;
        let (rows, cols) = (g.rows(), g.cols());
        let n = rows * cols;
        let nb = vs.len();
        // Lane-interleaved state at a compile-time width: element b of node
        // k lives at [k·LANES + b], so every inner loop over the sub-batch
        // is unit-stride AND fully unrolled (no runtime trip count). A tail
        // sub-batch is padded with copies of element 0 — pad lanes ride
        // along and are discarded, they never touch a real lane.
        let BatchScratch { vt, vrt, vct, work } = scratch;
        for b in 0..LANES {
            let v = &vs[if b < nb { b } else { 0 }];
            for i in 0..rows {
                vt[i * LANES + b] = v[i];
            }
        }
        // Cold guess, as in the scalar path: source voltage on row nodes,
        // ground on column nodes. (`work` needs no reset — every position is
        // written before it is read.)
        vct.fill(0.0);
        for k in 0..n {
            let i = k / cols;
            vrt[k * LANES..(k + 1) * LANES].copy_from_slice(&vt[i * LANES..(i + 1) * LANES]);
        }
        let tol = TOLERANCE * p.v_read;
        let gs = g.as_slice();
        let mut md = [0.0f64; LANES];
        let mut out: Vec<Option<NodeVoltages>> = vec![None; nb];
        let mut open = nb;
        let snapshot = |vrt: &[f64], vct: &[f64], b: usize, stats: SolveStats| NodeVoltages {
            vr: (0..n).map(|k| vrt[k * LANES + b]).collect(),
            vc: (0..n).map(|k| vct[k * LANES + b]).collect(),
            stats,
        };
        let mut sweeps = 0usize;
        loop {
            sweeps += 1;
            md.fill(0.0);
            sweep_lines_batch(factors, rows, cols, gs, vt, vrt, vct, work, &mut md);
            for b in 0..nb {
                // Converged elements keep being swept (their lanes ride
                // along harmlessly) but were snapshotted the sweep they
                // first met tolerance — exactly where a solo solve stops.
                if out[b].is_none() && md[b] < tol {
                    let stats = SolveStats {
                        iterations: sweeps,
                        residual: md[b] / p.v_read,
                        converged: true,
                    };
                    out[b] = Some(snapshot(vrt, vct, b, stats));
                    open -= 1;
                }
            }
            if open == 0 {
                break;
            }
            if sweeps >= self.max_sweeps {
                for b in 0..nb {
                    if out[b].is_none() {
                        let stats = SolveStats {
                            iterations: sweeps,
                            residual: md[b] / p.v_read,
                            converged: false,
                        };
                        out[b] = Some(snapshot(vrt, vct, b, stats));
                    }
                }
                break;
            }
        }
        out.into_iter()
            .map(|nodes| nodes.expect("filled"))
            .collect()
    }

    /// Alternating tridiagonal line solves, optionally warm-started.
    ///
    /// Never errors on hitting the sweep cap: the partial state is returned
    /// with `converged == false` so the caller can resume it.
    fn solve_lines(
        &self,
        g: &ConductanceMatrix,
        v: &[f64],
        warm: Option<Warm<'_>>,
    ) -> Result<(Vec<f64>, Vec<f64>, SolveStats)> {
        let p = &self.params;
        let (rows, cols) = (g.rows(), g.cols());
        let (g_drv, g_wr, g_wc, g_sns) = (
            g_of(p.r_driver),
            g_of(p.r_wire_row),
            g_of(p.r_wire_col),
            g_of(p.r_sense),
        );
        let (mut vr, mut vc, verify_seed): (Vec<f64>, Vec<f64>, bool) = match warm {
            Some(w) => {
                if w.vr.len() != rows * cols || w.vc.len() != rows * cols {
                    return Err(SolveError::Dimension(format!(
                        "warm start has {}+{} node voltages but the crossbar needs {} each",
                        w.vr.len(),
                        w.vc.len(),
                        rows * cols
                    )));
                }
                (w.vr.to_vec(), w.vc.to_vec(), w.converged_seed)
            }
            // Cold initial guess: full source voltage on rows, ground on
            // columns.
            None => (
                (0..rows * cols).map(|k| v[k / cols]).collect(),
                vec![0.0f64; rows * cols],
                false,
            ),
        };
        // Kept so a verified seed can be returned unchanged (bit-identical
        // reuse) when the trial sweep confirms it still meets tolerance.
        let seed = if verify_seed {
            Some((vr.clone(), vc.clone()))
        } else {
            None
        };
        let tol = TOLERANCE * p.v_read;
        let mut sweeps = 0usize;
        // Line buffers reused across every line of every sweep: bands, the
        // tridiagonal solution, and its elimination scratch.
        let n = rows.max(cols);
        let mut sub = vec![0.0f64; n];
        let mut diag = vec![0.0f64; n];
        let mut sup = vec![0.0f64; n];
        let mut rhs = vec![0.0f64; n];
        let mut x = vec![0.0f64; n];
        let mut scratch = vec![0.0f64; n];
        loop {
            sweeps += 1;
            let mut max_delta = 0.0f64;
            // Row lines: unknowns vr(i, 0..cols), with vc held fixed.
            for i in 0..rows {
                for j in 0..cols {
                    let left = if j == 0 { g_drv } else { g_wr };
                    let right = if j + 1 < cols { g_wr } else { 0.0 };
                    diag[j] = left + right + g.at(i, j);
                    sub[j] = if j == 0 { 0.0 } else { -g_wr };
                    sup[j] = if j + 1 < cols { -g_wr } else { 0.0 };
                    rhs[j] =
                        g.at(i, j) * vc[i * cols + j] + if j == 0 { g_drv * v[i] } else { 0.0 };
                }
                solve_tridiagonal_into(
                    &sub[..cols],
                    &diag[..cols],
                    &sup[..cols],
                    &rhs[..cols],
                    &mut x[..cols],
                    &mut scratch[..cols],
                )?;
                for (j, &val) in x[..cols].iter().enumerate() {
                    max_delta = max_delta.max((val - vr[i * cols + j]).abs());
                    vr[i * cols + j] = val;
                }
            }
            // Column lines: unknowns vc(0..rows, j), with vr held fixed.
            for j in 0..cols {
                for i in 0..rows {
                    let up = if i == 0 { 0.0 } else { g_wc };
                    let down = if i + 1 < rows { g_wc } else { g_sns };
                    diag[i] = up + down + g.at(i, j);
                    sub[i] = if i == 0 { 0.0 } else { -g_wc };
                    sup[i] = if i + 1 < rows { -g_wc } else { 0.0 };
                    rhs[i] = g.at(i, j) * vr[i * cols + j];
                }
                solve_tridiagonal_into(
                    &sub[..rows],
                    &diag[..rows],
                    &sup[..rows],
                    &rhs[..rows],
                    &mut x[..rows],
                    &mut scratch[..rows],
                )?;
                for (i, &val) in x[..rows].iter().enumerate() {
                    max_delta = max_delta.max((val - vc[i * cols + j]).abs());
                    vc[i * cols + j] = val;
                }
            }
            if max_delta < tol {
                let stats = SolveStats {
                    iterations: sweeps,
                    residual: max_delta / p.v_read,
                    converged: true,
                };
                if sweeps == 1 {
                    if let Some((seed_vr, seed_vc)) = seed {
                        // The verified seed moved less than the tolerance
                        // under a full sweep — it is still a fixed point by
                        // the same criterion a cold solve uses, so hand it
                        // back unchanged.
                        return Ok((seed_vr, seed_vc, stats));
                    }
                }
                return Ok((vr, vc, stats));
            }
            if sweeps >= self.max_sweeps {
                let stats = SolveStats {
                    iterations: sweeps,
                    residual: max_delta / p.v_read,
                    converged: false,
                };
                return Ok((vr, vc, stats));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized sweep kernels
// ---------------------------------------------------------------------------

/// f64 lanes per manually chunked vector operation. Eight doubles are two
/// AVX2 registers (or one AVX-512), enough for the autovectorizer to emit
/// full-width code while the remainder loop stays short.
pub const LANES: usize = 8;

/// `x[k] /= d[k]` in lane chunks.
#[inline(always)]
fn vdiv(x: &mut [f64], d: &[f64]) {
    let mut xs = x.chunks_exact_mut(LANES);
    let mut ds = d.chunks_exact(LANES);
    for (x, d) in (&mut xs).zip(&mut ds) {
        for l in 0..LANES {
            x[l] /= d[l];
        }
    }
    for (x, d) in xs.into_remainder().iter_mut().zip(ds.remainder()) {
        *x /= *d;
    }
}

/// Forward elimination step `cur[k] = (cur[k] - sub·prev[k]) / d[k]` in
/// lane chunks — the exact expression the scalar Thomas solve evaluates.
#[inline(always)]
fn vfwd(cur: &mut [f64], prev: &[f64], d: &[f64], sub: f64) {
    let mut cs = cur.chunks_exact_mut(LANES);
    let mut ps = prev.chunks_exact(LANES);
    let mut ds = d.chunks_exact(LANES);
    for ((c, p), d) in (&mut cs).zip(&mut ps).zip(&mut ds) {
        for l in 0..LANES {
            c[l] = (c[l] - sub * p[l]) / d[l];
        }
    }
    for ((c, p), d) in cs
        .into_remainder()
        .iter_mut()
        .zip(ps.remainder())
        .zip(ds.remainder())
    {
        *c = (*c - sub * *p) / *d;
    }
}

/// Back-substitution step `cur[k] -= cp[k]·next[k]` in lane chunks.
#[inline(always)]
fn vback(cur: &mut [f64], next: &[f64], cp: &[f64]) {
    let mut cs = cur.chunks_exact_mut(LANES);
    let mut ns = next.chunks_exact(LANES);
    let mut cps = cp.chunks_exact(LANES);
    for ((c, n), cp) in (&mut cs).zip(&mut ns).zip(&mut cps) {
        for l in 0..LANES {
            c[l] -= cp[l] * n[l];
        }
    }
    for ((c, n), cp) in cs
        .into_remainder()
        .iter_mut()
        .zip(ns.remainder())
        .zip(cps.remainder())
    {
        *c -= *cp * *n;
    }
}

/// `out[k] = a[k]·b[k]` in lane chunks.
#[inline(always)]
fn vmul(out: &mut [f64], a: &[f64], b: &[f64]) {
    let mut os = out.chunks_exact_mut(LANES);
    let mut as_ = a.chunks_exact(LANES);
    let mut bs = b.chunks_exact(LANES);
    for ((o, a), b) in (&mut os).zip(&mut as_).zip(&mut bs) {
        for l in 0..LANES {
            o[l] = a[l] * b[l];
        }
    }
    for ((o, a), b) in os
        .into_remainder()
        .iter_mut()
        .zip(as_.remainder())
        .zip(bs.remainder())
    {
        *o = *a * *b;
    }
}

/// Writes `x` over `state` and returns the largest `|x[k] - state[k]|`.
/// NaN deltas are ignored, matching the scalar oracle's `f64::max`
/// accumulation (`0.0.max(NaN) == 0.0`).
#[inline(always)]
fn vdelta_writeback(x: &[f64], state: &mut [f64]) -> f64 {
    let mut md = 0.0f64;
    for (x, s) in x.iter().zip(state.iter_mut()) {
        let d = (*x - *s).abs();
        if d > md {
            md = d;
        }
        *s = *x;
    }
    md
}

/// Scratch buffers for one batched line-relaxation solve, allocated once in
/// [`NonIdealSolver::solve_lines_batch`] and reused by every `LANES`-wide
/// sub-batch (each chunk rewrites everything it reads).
struct BatchScratch {
    /// Lane-interleaved input voltages, `[row·LANES + b]`.
    vt: Vec<f64>,
    /// Lane-interleaved row-node voltages, `[node·LANES + b]`.
    vrt: Vec<f64>,
    /// Lane-interleaved column-node voltages, `[node·LANES + b]`.
    vct: Vec<f64>,
    /// `ILINES` in-flight line solution buffers for the sweep kernel.
    work: Vec<f64>,
}

/// Per-line Thomas factorisations for one conductance matrix, hoisted out
/// of the sweep loop: the tridiagonal bands of every row and column line
/// depend only on the conductances and the circuit parameters, never on
/// the right-hand side, so the forward-elimination denominators and
/// coefficients (`c'`) are sweep-invariant. Stored position-major
/// (`[pos·lines + line]`) so the single-solve kernel reads contiguous
/// lanes across lines and the batch kernel broadcasts one scalar per
/// position.
struct LineFactors {
    /// `g` transposed (`[j·rows + i]`), for contiguous row-phase reads.
    g_t: Vec<f64>,
    /// Row-line elimination denominators, `[j·rows + i]`.
    row_denom: Vec<f64>,
    /// Row-line elimination coefficients `c'`, `[j·rows + i]`.
    row_cp: Vec<f64>,
    /// Column-line elimination denominators, `[i·cols + j]` (row-major).
    col_denom: Vec<f64>,
    /// Column-line elimination coefficients `c'`, `[i·cols + j]`.
    col_cp: Vec<f64>,
    g_drv: f64,
    g_wr: f64,
    g_wc: f64,
}

impl LineFactors {
    /// Mirrors `solve_tridiagonal_into`'s elimination recurrence exactly —
    /// `c'[0] = sup[0]/diag[0]`, `denom[i] = diag[i] - sub[i]·c'[i-1]`,
    /// `c'[i] = sup[i]/denom[i]` — line by line in the scalar oracle's
    /// order (row lines ascending, then column lines ascending), so a
    /// singular pivot surfaces with the identical error.
    fn new(g: &ConductanceMatrix, p: &CrossbarParams) -> Result<Self> {
        let (rows, cols) = (g.rows(), g.cols());
        let n = rows * cols;
        let (g_drv, g_wr, g_wc, g_sns) = (
            g_of(p.r_driver),
            g_of(p.r_wire_row),
            g_of(p.r_wire_col),
            g_of(p.r_sense),
        );
        let gs = g.as_slice();
        let mut g_t = vec![0.0f64; n];
        for i in 0..rows {
            for j in 0..cols {
                g_t[j * rows + i] = gs[i * cols + j];
            }
        }
        let mut row_denom = vec![0.0f64; n];
        let mut row_cp = vec![0.0f64; n];
        for i in 0..rows {
            let right0 = if 1 < cols { g_wr } else { 0.0 };
            let diag0 = g_drv + right0 + gs[i * cols];
            if diag0 == 0.0 {
                return Err(SolveError::Singular { pivot: 0 });
            }
            let sup0 = if 1 < cols { -g_wr } else { 0.0 };
            row_denom[i] = diag0;
            row_cp[i] = sup0 / diag0;
            for j in 1..cols {
                let right = if j + 1 < cols { g_wr } else { 0.0 };
                let diag = g_wr + right + gs[i * cols + j];
                let sub = -g_wr;
                let denom = diag - sub * row_cp[(j - 1) * rows + i];
                if denom == 0.0 {
                    return Err(SolveError::Singular { pivot: j });
                }
                let sup = if j + 1 < cols { -g_wr } else { 0.0 };
                row_denom[j * rows + i] = denom;
                row_cp[j * rows + i] = sup / denom;
            }
        }
        let mut col_denom = vec![0.0f64; n];
        let mut col_cp = vec![0.0f64; n];
        for j in 0..cols {
            let down0 = if 1 < rows { g_wc } else { g_sns };
            let diag0 = 0.0 + down0 + gs[j];
            if diag0 == 0.0 {
                return Err(SolveError::Singular { pivot: 0 });
            }
            let sup0 = if 1 < rows { -g_wc } else { 0.0 };
            col_denom[j] = diag0;
            col_cp[j] = sup0 / diag0;
            for i in 1..rows {
                let down = if i + 1 < rows { g_wc } else { g_sns };
                let diag = g_wc + down + gs[i * cols + j];
                let sub = -g_wc;
                let denom = diag - sub * col_cp[(i - 1) * cols + j];
                if denom == 0.0 {
                    return Err(SolveError::Singular { pivot: i });
                }
                let sup = if i + 1 < rows { -g_wc } else { 0.0 };
                col_denom[i * cols + j] = denom;
                col_cp[i * cols + j] = sup / denom;
            }
        }
        Ok(Self {
            g_t,
            row_denom,
            row_cp,
            col_denom,
            col_cp,
            g_drv,
            g_wr,
            g_wc,
        })
    }
}

/// One Gauss–Seidel sweep of a single solve: the row phase runs all row
/// lines lane-parallel (position-major layout, lanes across rows), the
/// column phase all column lines (row-major layout is already
/// position-major there). Returns the sweep's max voltage delta — the same
/// value the scalar oracle accumulates, since `max` over non-NaN deltas is
/// order-independent.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_lines_impl(
    f: &LineFactors,
    rows: usize,
    cols: usize,
    gs: &[f64],
    v: &[f64],
    vr: &mut [f64],
    vc: &mut [f64],
    work: &mut [f64],
) -> f64 {
    if rows == 0 || cols == 0 {
        return 0.0;
    }
    let mut max_delta = 0.0f64;
    // --- Row phase: unknowns vr(i, ·), vc held fixed -----------------------
    let sub_r = -f.g_wr;
    for j in 0..cols {
        let wj = &mut work[j * rows..(j + 1) * rows];
        let gj = &f.g_t[j * rows..(j + 1) * rows];
        if j == 0 {
            for i in 0..rows {
                wj[i] = gj[i] * vc[i * cols] + f.g_drv * v[i];
            }
        } else {
            // The literal `+ 0.0` matches the scalar oracle's rhs term for
            // j > 0, which normalises a -0.0 product to +0.0.
            for i in 0..rows {
                wj[i] = gj[i] * vc[i * cols + j] + 0.0;
            }
        }
    }
    vdiv(&mut work[..rows], &f.row_denom[..rows]);
    for j in 1..cols {
        let (prev, cur) = work[(j - 1) * rows..(j + 1) * rows].split_at_mut(rows);
        vfwd(cur, prev, &f.row_denom[j * rows..(j + 1) * rows], sub_r);
    }
    for j in (0..cols - 1).rev() {
        let (cur, next) = work[j * rows..(j + 2) * rows].split_at_mut(rows);
        vback(cur, next, &f.row_cp[j * rows..(j + 1) * rows]);
    }
    for j in 0..cols {
        let xj = &work[j * rows..(j + 1) * rows];
        for i in 0..rows {
            let d = (xj[i] - vr[i * cols + j]).abs();
            if d > max_delta {
                max_delta = d;
            }
            vr[i * cols + j] = xj[i];
        }
    }
    // --- Column phase: unknowns vc(·, j), vr held fixed --------------------
    let sub_c = -f.g_wc;
    let n = rows * cols;
    vmul(&mut work[..n], gs, vr);
    vdiv(&mut work[..cols], &f.col_denom[..cols]);
    for i in 1..rows {
        let (prev, cur) = work[(i - 1) * cols..(i + 1) * cols].split_at_mut(cols);
        vfwd(cur, prev, &f.col_denom[i * cols..(i + 1) * cols], sub_c);
    }
    for i in (0..rows - 1).rev() {
        let (cur, next) = work[i * cols..(i + 2) * cols].split_at_mut(cols);
        vback(cur, next, &f.col_cp[i * cols..(i + 1) * cols]);
    }
    let d = vdelta_writeback(&work[..n], vc);
    if d > max_delta {
        max_delta = d;
    }
    max_delta
}

/// One Gauss–Seidel sweep of a batched solve: lanes run across the LANES
/// sub-batch elements (`[node·LANES + b]` interleave), each line's
/// factorisation scalar broadcast over the whole sub-batch. The lane width
/// is a compile-time constant, so every inner lane loop unrolls into
/// straight-line SIMD with no per-loop trip-count overhead. Accumulates
/// each element's max voltage delta into `md`.
// needless_range_loop: the `s in 0..live` loops index a fixed array of
// slot buffers by position on purpose — the interleave order across the
// in-flight lines is the whole point of the kernel.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[inline(always)]
fn sweep_lines_batch_impl(
    f: &LineFactors,
    rows: usize,
    cols: usize,
    gs: &[f64],
    vt: &[f64],
    vrt: &mut [f64],
    vct: &mut [f64],
    work: &mut [f64],
    md: &mut [f64; LANES],
) {
    if rows == 0 || cols == 0 {
        return;
    }
    let (vtl, _) = vt.as_chunks::<LANES>();
    let (vrl, _) = vrt.as_chunks_mut::<LANES>();
    let (vcl, _) = vct.as_chunks_mut::<LANES>();
    let (wl, _) = work.as_chunks_mut::<LANES>();
    // ILINES independent lines are kept in flight per phase: the Thomas
    // forward sweep is a serial dependency chain with a division at every
    // step, so a single line runs at division *latency*; interleaving the
    // chains of ILINES lines (they never read each other's unknowns within
    // a phase) lets the divider run at *throughput*. Per-element arithmetic
    // is untouched — only the schedule across lines changes.
    let (w0, rest) = wl.split_at_mut(rows.max(cols));
    let (w1, rest) = rest.split_at_mut(rows.max(cols));
    let (w2, rest) = rest.split_at_mut(rows.max(cols));
    let (w3, _) = rest.split_at_mut(rows.max(cols));
    let mut slots = [w0, w1, w2, w3];
    // --- Row phase ---------------------------------------------------------
    let sub_r = -f.g_wr;
    let mut i0 = 0usize;
    while i0 < rows {
        let live = ILINES.min(rows - i0);
        for s in 0..live {
            let i = i0 + s;
            let w = &mut slots[s];
            for j in 0..cols {
                let vcn = &vcl[i * cols + j];
                let gij = gs[i * cols + j];
                if j == 0 {
                    let vi = &vtl[i];
                    for b in 0..LANES {
                        w[j][b] = gij * vcn[b] + f.g_drv * vi[b];
                    }
                } else {
                    // Literal `+ 0.0` as in the scalar oracle's rhs for
                    // j > 0.
                    for b in 0..LANES {
                        w[j][b] = gij * vcn[b] + 0.0;
                    }
                }
            }
            let d0 = f.row_denom[i];
            for x in w[0].iter_mut() {
                *x /= d0;
            }
        }
        for j in 1..cols {
            for s in 0..live {
                let (prev, cur) = slots[s].split_at_mut(j);
                fwd_lanes(
                    &mut cur[0],
                    &prev[j - 1],
                    f.row_denom[j * rows + i0 + s],
                    sub_r,
                );
            }
        }
        for j in (0..cols - 1).rev() {
            for s in 0..live {
                let (cur, next) = slots[s].split_at_mut(j + 1);
                back_lanes(&mut cur[j], &next[0], f.row_cp[j * rows + i0 + s]);
            }
        }
        for s in 0..live {
            let i = i0 + s;
            for j in 0..cols {
                let x = &slots[s][j];
                let dst = &mut vrl[i * cols + j];
                for b in 0..LANES {
                    let d = (x[b] - dst[b]).abs();
                    if d > md[b] {
                        md[b] = d;
                    }
                    dst[b] = x[b];
                }
            }
        }
        i0 += live;
    }
    // --- Column phase ------------------------------------------------------
    let sub_c = -f.g_wc;
    let mut j0 = 0usize;
    while j0 < cols {
        let live = ILINES.min(cols - j0);
        for s in 0..live {
            let j = j0 + s;
            let w = &mut slots[s];
            for i in 0..rows {
                let vrn = &vrl[i * cols + j];
                let gij = gs[i * cols + j];
                for b in 0..LANES {
                    w[i][b] = gij * vrn[b];
                }
            }
            let d0 = f.col_denom[j];
            for x in w[0].iter_mut() {
                *x /= d0;
            }
        }
        for i in 1..rows {
            for s in 0..live {
                let (prev, cur) = slots[s].split_at_mut(i);
                fwd_lanes(
                    &mut cur[0],
                    &prev[i - 1],
                    f.col_denom[i * cols + j0 + s],
                    sub_c,
                );
            }
        }
        for i in (0..rows - 1).rev() {
            for s in 0..live {
                let (cur, next) = slots[s].split_at_mut(i + 1);
                back_lanes(&mut cur[i], &next[0], f.col_cp[i * cols + j0 + s]);
            }
        }
        for s in 0..live {
            let j = j0 + s;
            for i in 0..rows {
                let x = &slots[s][i];
                let dst = &mut vcl[i * cols + j];
                for b in 0..LANES {
                    let d = (x[b] - dst[b]).abs();
                    if d > md[b] {
                        md[b] = d;
                    }
                    dst[b] = x[b];
                }
            }
        }
        j0 += live;
    }
}

/// How many independent tridiagonal lines the batch sweep keeps in flight
/// (see [`sweep_lines_batch_impl`]): enough chains to hide the division
/// latency on every x86-64 generation in use, small enough that the live
/// working set stays register/L1-friendly.
const ILINES: usize = 4;

/// Forward elimination across one position's LANES batch lanes, with the
/// line's broadcast factorisation scalar — `cur = (cur − sub·prev) / d`,
/// the exact expression the scalar Thomas solve evaluates.
#[inline(always)]
fn fwd_lanes(cur: &mut [f64; LANES], prev: &[f64; LANES], d: f64, sub: f64) {
    for b in 0..LANES {
        cur[b] = (cur[b] - sub * prev[b]) / d;
    }
}

/// Back-substitution across one position's LANES batch lanes.
#[inline(always)]
fn back_lanes(cur: &mut [f64; LANES], next: &[f64; LANES], cp: f64) {
    for b in 0..LANES {
        cur[b] -= cp * next[b];
    }
}

/// Runtime-dispatched single-solve sweep: AVX2 build on x86-64 CPUs that
/// support it, portable build elsewhere. Both compile the identical IEEE
/// add/sub/mul/div sequence (FMA stays off), so results are bit-identical
/// across dispatch targets.
#[allow(clippy::too_many_arguments)]
fn sweep_lines(
    f: &LineFactors,
    rows: usize,
    cols: usize,
    gs: &[f64],
    v: &[f64],
    vr: &mut [f64],
    vc: &mut [f64],
    work: &mut [f64],
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was verified at runtime just above.
            return unsafe { sweep_lines_avx512(f, rows, cols, gs, v, vr, vc, work) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { sweep_lines_avx2(f, rows, cols, gs, v, vr, vc, work) };
        }
    }
    sweep_lines_impl(f, rows, cols, gs, v, vr, vc, work)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_lines_avx512(
    f: &LineFactors,
    rows: usize,
    cols: usize,
    gs: &[f64],
    v: &[f64],
    vr: &mut [f64],
    vc: &mut [f64],
    work: &mut [f64],
) -> f64 {
    sweep_lines_impl(f, rows, cols, gs, v, vr, vc, work)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_lines_avx2(
    f: &LineFactors,
    rows: usize,
    cols: usize,
    gs: &[f64],
    v: &[f64],
    vr: &mut [f64],
    vc: &mut [f64],
    work: &mut [f64],
) -> f64 {
    sweep_lines_impl(f, rows, cols, gs, v, vr, vc, work)
}

/// Runtime-dispatched batch sweep; see [`sweep_lines`].
#[allow(clippy::too_many_arguments)]
fn sweep_lines_batch(
    f: &LineFactors,
    rows: usize,
    cols: usize,
    gs: &[f64],
    vt: &[f64],
    vrt: &mut [f64],
    vct: &mut [f64],
    work: &mut [f64],
    md: &mut [f64; LANES],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was verified at runtime just above.
            return unsafe { sweep_lines_batch_avx512(f, rows, cols, gs, vt, vrt, vct, work, md) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { sweep_lines_batch_avx2(f, rows, cols, gs, vt, vrt, vct, work, md) };
        }
    }
    sweep_lines_batch_impl(f, rows, cols, gs, vt, vrt, vct, work, md)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_lines_batch_avx512(
    f: &LineFactors,
    rows: usize,
    cols: usize,
    gs: &[f64],
    vt: &[f64],
    vrt: &mut [f64],
    vct: &mut [f64],
    work: &mut [f64],
    md: &mut [f64; LANES],
) {
    sweep_lines_batch_impl(f, rows, cols, gs, vt, vrt, vct, work, md)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_lines_batch_avx2(
    f: &LineFactors,
    rows: usize,
    cols: usize,
    gs: &[f64],
    vt: &[f64],
    vrt: &mut [f64],
    vct: &mut [f64],
    work: &mut [f64],
    md: &mut [f64; LANES],
) {
    sweep_lines_batch_impl(f, rows, cols, gs, vt, vrt, vct, work, md)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_g(rows: usize, cols: usize, params: &CrossbarParams) -> ConductanceMatrix {
        ConductanceMatrix::filled(rows, cols, params.g_max())
    }

    #[test]
    fn ideal_crossbar_reproduces_dot_product() {
        let params = CrossbarParams::with_size(4).ideal();
        let g = uniform_g(4, 4, &params);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let v = vec![0.25; 4];
        let out = solver.effective_conductances(&g, &v).unwrap();
        for (i_n, i_i) in out.col_currents.iter().zip(&out.ideal_currents) {
            assert!((i_n - i_i).abs() / i_i < 1e-5, "{i_n} vs {i_i}");
        }
        for (e, p) in out.g_eff.as_slice().iter().zip(g.as_slice()) {
            assert!((e - p).abs() / p < 1e-5);
        }
    }

    #[test]
    fn line_relaxation_matches_dense_exact() {
        let params = CrossbarParams::with_size(6);
        let mut g = ConductanceMatrix::filled(6, 6, 0.0);
        let mut s = 9u64;
        for i in 0..6 {
            for j in 0..6 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let frac = (s % 1000) as f64 / 1000.0;
                g.set(
                    i,
                    j,
                    params.g_min() + frac * (params.g_max() - params.g_min()),
                );
            }
        }
        let v = vec![params.v_read; 6];
        let exact = NonIdealSolver::new(params, SolveMethod::DenseExact)
            .effective_conductances(&g, &v)
            .unwrap();
        let lines = NonIdealSolver::new(params, SolveMethod::LineRelaxation)
            .effective_conductances(&g, &v)
            .unwrap();
        for (a, b) in exact.g_eff.as_slice().iter().zip(lines.g_eff.as_slice()) {
            assert!((a - b).abs() / a.abs().max(1e-12) < 1e-5, "{a} vs {b}");
        }
        for (a, b) in exact.col_currents.iter().zip(&lines.col_currents) {
            assert!((a - b).abs() / a < 1e-5);
        }
    }

    #[test]
    fn parasitics_always_lose_current() {
        let params = CrossbarParams::with_size(16);
        let g = uniform_g(16, 16, &params);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let v = vec![params.v_read; 16];
        let out = solver.effective_conductances(&g, &v).unwrap();
        for (i_n, i_i) in out.col_currents.iter().zip(&out.ideal_currents) {
            assert!(i_n < i_i, "non-ideal current must be below ideal");
            assert!(*i_n > 0.0);
        }
    }

    #[test]
    fn larger_crossbars_have_larger_relative_drop() {
        let mut drops = Vec::new();
        for n in [8usize, 16, 32] {
            let params = CrossbarParams::with_size(n);
            let g = uniform_g(n, n, &params);
            let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
            let v = vec![params.v_read; n];
            let out = solver.effective_conductances(&g, &v).unwrap();
            let nf: f64 = out
                .col_currents
                .iter()
                .zip(&out.ideal_currents)
                .map(|(n, i)| (i - n) / i)
                .sum::<f64>()
                / n as f64;
            drops.push(nf);
        }
        assert!(drops[0] < drops[1] && drops[1] < drops[2], "{drops:?}");
    }

    #[test]
    fn low_conductance_reduces_drop() {
        let params = CrossbarParams::with_size(16);
        let dense_g = uniform_g(16, 16, &params);
        let sparse_g = ConductanceMatrix::filled(16, 16, params.g_min());
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let v = vec![params.v_read; 16];
        let nf = |g: &ConductanceMatrix| {
            let out = solver.effective_conductances(g, &v).unwrap();
            out.col_currents
                .iter()
                .zip(&out.ideal_currents)
                .map(|(n, i)| (i - n) / i)
                .sum::<f64>()
                / 16.0
        };
        assert!(
            nf(&sparse_g) < nf(&dense_g),
            "low-G crossbar must suffer less IR drop"
        );
    }

    #[test]
    fn column_currents_accept_zero_inputs() {
        let params = CrossbarParams::with_size(6);
        let g = uniform_g(6, 6, &params);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let v = vec![0.0, 0.25, 0.0, 0.25, 0.0, 0.25];
        let currents = solver.column_currents(&g, &v).unwrap();
        assert!(currents.iter().all(|&i| i > 0.0));
        // Negative inputs rejected.
        assert!(solver.column_currents(&g, &[-0.1; 6]).is_err());
    }

    #[test]
    fn column_currents_match_effective_solve_at_nominal_input() {
        let params = CrossbarParams::with_size(8);
        let g = uniform_g(8, 8, &params);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let v = vec![params.v_read; 8];
        let exact = solver.column_currents(&g, &v).unwrap();
        let eff = solver.effective_conductances(&g, &v).unwrap();
        for (a, b) in exact.iter().zip(&eff.col_currents) {
            assert!((a - b).abs() / a < 1e-9);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn effective_g_approximation_is_close_for_varied_inputs() {
        // The paper's methodology folds non-idealities into G' extracted at
        // the nominal read voltage; for a different input pattern the
        // approximation error should be small but non-zero.
        let params = CrossbarParams::with_size(8);
        let g = uniform_g(8, 8, &params);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let nominal = vec![params.v_read; 8];
        let eff = solver.effective_conductances(&g, &nominal).unwrap();
        // Half the rows active.
        let v: Vec<f64> = (0..8)
            .map(|i| if i % 2 == 0 { params.v_read } else { 0.0 })
            .collect();
        let exact = solver.column_currents(&g, &v).unwrap();
        for j in 0..8 {
            let approx: f64 = (0..8).map(|i| eff.g_eff.at(i, j) * v[i]).sum();
            let rel = (approx - exact[j]).abs() / exact[j];
            assert!(rel < 0.05, "approximation should be within 5%: {rel}");
        }
    }

    fn random_g(n: usize, params: &CrossbarParams, mut s: u64) -> ConductanceMatrix {
        let mut g = ConductanceMatrix::filled(n, n, 0.0);
        for i in 0..n {
            for j in 0..n {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let frac = (s % 1000) as f64 / 1000.0;
                g.set(
                    i,
                    j,
                    params.g_min() + frac * (params.g_max() - params.g_min()),
                );
            }
        }
        g
    }

    #[test]
    fn warm_resume_reproduces_cold_trajectory_bitwise() {
        let params = CrossbarParams::with_size(12);
        let g = random_g(12, &params, 21);
        let v = vec![params.v_read; 12];
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let cold = solver.solve_nodes(&g, &v, None).unwrap();
        assert!(cold.stats.converged);
        let total = cold.stats.iterations;
        assert!(total >= 2);
        // Stop partway, then resume: line relaxation is deterministic, so
        // the resumed trajectory must land on the cold answer bit-for-bit.
        let mut partial_solver = solver;
        partial_solver.max_sweeps = total - 1;
        let partial = partial_solver.solve_nodes(&g, &v, None).unwrap();
        assert!(!partial.stats.converged);
        let resumed = solver.solve_nodes(&g, &v, Some(partial.warm())).unwrap();
        assert!(resumed.stats.converged);
        assert_eq!(resumed.vr, cold.vr);
        assert_eq!(resumed.vc, cold.vc);
        assert_eq!(
            partial.stats.iterations + resumed.stats.iterations,
            total,
            "split trajectory must cover the cold sweep count exactly"
        );
    }

    #[test]
    fn verified_seed_is_returned_unchanged() {
        let params = CrossbarParams::with_size(10);
        let g = random_g(10, &params, 33);
        let v = vec![params.v_read; 10];
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let cold = solver.solve_nodes(&g, &v, None).unwrap();
        assert!(cold.stats.converged);
        let reused = solver.solve_nodes(&g, &v, Some(cold.warm())).unwrap();
        // One verifying sweep, then the seed handed back bit-identical.
        assert_eq!(reused.stats.iterations, 1);
        assert_eq!(reused.vr, cold.vr);
        assert_eq!(reused.vc, cold.vc);
    }

    #[test]
    fn warm_start_with_wrong_shape_is_rejected() {
        let params = CrossbarParams::with_size(4);
        let g = uniform_g(4, 4, &params);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let short = vec![0.0; 7];
        let warm = Warm {
            vr: &short,
            vc: &short,
            converged_seed: false,
        };
        assert!(matches!(
            solver.solve_nodes(&g, &[0.25; 4], Some(warm)),
            Err(SolveError::Dimension(_))
        ));
    }

    #[test]
    fn try_new_rejects_invalid_params() {
        let mut params = CrossbarParams::with_size(4);
        params.r_driver = -1.0;
        assert!(NonIdealSolver::try_new(params, SolveMethod::LineRelaxation).is_err());
        assert!(
            NonIdealSolver::try_new(CrossbarParams::with_size(4), SolveMethod::LineRelaxation)
                .is_ok()
        );
    }

    #[test]
    fn input_validation() {
        let params = CrossbarParams::with_size(4);
        let g = uniform_g(4, 4, &params);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        assert!(solver.effective_conductances(&g, &[0.25; 3]).is_err());
        assert!(solver
            .effective_conductances(&g, &[0.25, 0.25, 0.25, 0.0])
            .is_err());
    }

    #[test]
    fn effective_conductances_follow_ir_drop_gradient() {
        // Rows farther along the column (higher i) see less degradation at
        // the sense end... but more wire in between; the clear invariant is
        // that all effective conductances are below programmed ones.
        let params = CrossbarParams::with_size(8);
        let g = uniform_g(8, 8, &params);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let v = vec![params.v_read; 8];
        let out = solver.effective_conductances(&g, &v).unwrap();
        for (e, p) in out.g_eff.as_slice().iter().zip(g.as_slice()) {
            assert!(e < p);
            assert!(*e > 0.0);
        }
    }

    fn random_g_rect(
        rows: usize,
        cols: usize,
        params: &CrossbarParams,
        mut s: u64,
    ) -> ConductanceMatrix {
        let mut g = ConductanceMatrix::filled(rows, cols, 0.0);
        for i in 0..rows {
            for j in 0..cols {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let frac = (s % 1000) as f64 / 1000.0;
                g.set(
                    i,
                    j,
                    params.g_min() + frac * (params.g_max() - params.g_min()),
                );
            }
        }
        g
    }

    #[test]
    fn vectorized_path_matches_scalar_oracle_bitwise() {
        // Sizes deliberately off the lane width (LANES = 8): 3, 5, 12, 13.
        for n in [3usize, 5, 8, 12, 13] {
            let params = CrossbarParams::with_size(n);
            let g = random_g(n, &params, 7 + n as u64);
            let v = vec![params.v_read; n];
            let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
            let vec_path = solver.solve_nodes(&g, &v, None).unwrap();
            let scalar = solver.solve_nodes_scalar(&g, &v, None).unwrap();
            assert_eq!(vec_path.vr, scalar.vr, "vr diverged at n={n}");
            assert_eq!(vec_path.vc, scalar.vc, "vc diverged at n={n}");
            assert_eq!(vec_path.stats, scalar.stats, "stats diverged at n={n}");
        }
    }

    #[test]
    fn vectorized_path_matches_scalar_on_rectangular_tiles() {
        let params = CrossbarParams::with_size(16);
        for (rows, cols) in [(5usize, 11usize), (11, 5), (1, 9), (9, 1), (1, 1)] {
            let g = random_g_rect(rows, cols, &params, 1000 + (rows * 31 + cols) as u64);
            let v = vec![params.v_read; rows];
            let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
            let vec_path = solver.solve_nodes(&g, &v, None).unwrap();
            let scalar = solver.solve_nodes_scalar(&g, &v, None).unwrap();
            assert_eq!(vec_path.vr, scalar.vr, "vr diverged at {rows}x{cols}");
            assert_eq!(vec_path.vc, scalar.vc, "vc diverged at {rows}x{cols}");
            assert_eq!(vec_path.stats, scalar.stats);
        }
    }

    #[test]
    fn vectorized_warm_paths_match_scalar_oracle() {
        let params = CrossbarParams::with_size(12);
        let g = random_g(12, &params, 55);
        let v = vec![params.v_read; 12];
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let cold = solver.solve_nodes_scalar(&g, &v, None).unwrap();
        assert!(cold.stats.converged && cold.stats.iterations >= 2);
        // Resume semantics: starve, then resume through both paths.
        let mut starved = solver;
        starved.max_sweeps = cold.stats.iterations - 1;
        let partial = starved.solve_nodes(&g, &v, None).unwrap();
        let resumed_vec = solver.solve_nodes(&g, &v, Some(partial.warm())).unwrap();
        let resumed_scalar = solver
            .solve_nodes_scalar(&g, &v, Some(partial.warm()))
            .unwrap();
        assert_eq!(resumed_vec.vr, resumed_scalar.vr);
        assert_eq!(resumed_vec.vc, resumed_scalar.vc);
        assert_eq!(resumed_vec.stats, resumed_scalar.stats);
        // Verify semantics: a converged seed is returned unchanged by both.
        let verified_vec = solver.solve_nodes(&g, &v, Some(cold.warm())).unwrap();
        let verified_scalar = solver
            .solve_nodes_scalar(&g, &v, Some(cold.warm()))
            .unwrap();
        assert_eq!(verified_vec.vr, cold.vr);
        assert_eq!(verified_vec.vr, verified_scalar.vr);
        assert_eq!(verified_vec.vc, verified_scalar.vc);
        assert_eq!(verified_vec.stats, verified_scalar.stats);
    }

    #[test]
    fn batch_solve_matches_scalar_oracle_bitwise() {
        let n = 13usize; // off the lane width
        let params = CrossbarParams::with_size(16);
        let g = random_g(n, &params, 99);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let vs: Vec<Vec<f64>> = vec![
            vec![params.v_read; n],
            (0..n)
                .map(|i| if i % 2 == 0 { params.v_read } else { 0.0 })
                .collect(),
            (0..n)
                .map(|i| (i + 1) as f64 / n as f64 * params.v_read)
                .collect(),
            vec![0.0; n],
            vec![params.v_read * 0.125; n],
        ];
        let batch = solver.solve_nodes_batch(&g, &vs).unwrap();
        assert_eq!(batch.len(), vs.len());
        for (b, v) in vs.iter().enumerate() {
            let solo = solver.solve_nodes_scalar(&g, v, None).unwrap();
            assert_eq!(batch[b].vr, solo.vr, "vr diverged for element {b}");
            assert_eq!(batch[b].vc, solo.vc, "vc diverged for element {b}");
            assert_eq!(batch[b].stats, solo.stats, "stats diverged for element {b}");
        }
    }

    /// Property sweep: rectangular tiles off the lane width × batch sizes
    /// spanning under, at, and past a full lane chunk — the batched solver
    /// must stay bitwise on the scalar oracle everywhere, including the
    /// sub-batch tail padding paths.
    #[test]
    fn property_batch_solve_matches_oracle_across_shapes_and_batch_sizes() {
        let params = CrossbarParams::with_size(16);
        for (rows, cols) in [(5usize, 11usize), (11, 5), (9, 9), (1, 7)] {
            let g = random_g_rect(rows, cols, &params, 4242 + (rows * 131 + cols) as u64);
            let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
            for nb in [1usize, 2, 7, 32] {
                let mut s = (rows * 1_000_003 + cols * 1009 + nb) as u64 | 1;
                let vs: Vec<Vec<f64>> = (0..nb)
                    .map(|_| {
                        (0..rows)
                            .map(|_| {
                                s ^= s << 13;
                                s ^= s >> 7;
                                s ^= s << 17;
                                (s % 1000) as f64 / 999.0 * params.v_read
                            })
                            .collect()
                    })
                    .collect();
                let batch = solver.solve_nodes_batch(&g, &vs).unwrap();
                for (b, v) in vs.iter().enumerate() {
                    let solo = solver.solve_nodes_scalar(&g, v, None).unwrap();
                    assert_eq!(batch[b].vr, solo.vr, "{rows}x{cols} nb={nb} el {b}: vr");
                    assert_eq!(batch[b].vc, solo.vc, "{rows}x{cols} nb={nb} el {b}: vc");
                    assert_eq!(batch[b].stats, solo.stats, "{rows}x{cols} nb={nb} el {b}");
                }
            }
        }
    }

    #[test]
    fn column_currents_batch_matches_singles_bitwise() {
        let n = 9usize;
        let params = CrossbarParams::with_size(16);
        let g = random_g(n, &params, 123);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let vs: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                (0..n)
                    .map(|i| if (i + k) % 3 == 0 { 0.0 } else { params.v_read })
                    .collect()
            })
            .collect();
        let batch = solver.column_currents_batch(&g, &vs).unwrap();
        for (b, v) in vs.iter().enumerate() {
            let solo = solver.column_currents(&g, v).unwrap();
            assert_eq!(batch[b], solo, "currents diverged for element {b}");
        }
        // Negative inputs rejected with the offending element named.
        let mut bad = vs.clone();
        bad[2][0] = -0.1;
        assert!(matches!(
            solver.column_currents_batch(&g, &bad),
            Err(SolveError::Dimension(_))
        ));
    }

    #[test]
    fn batch_dense_factorises_once_and_matches_singles() {
        let n = 5usize;
        let params = CrossbarParams::with_size(8);
        let g = random_g(n, &params, 8);
        let solver = NonIdealSolver::new(params, SolveMethod::DenseExact);
        let vs: Vec<Vec<f64>> = vec![
            vec![params.v_read; n],
            (0..n).map(|i| (i + 1) as f64 * 0.05).collect(),
        ];
        let batch = solver.solve_nodes_batch(&g, &vs).unwrap();
        for (b, v) in vs.iter().enumerate() {
            let solo = solver.solve_nodes(&g, v, None).unwrap();
            assert_eq!(batch[b].vr, solo.vr);
            assert_eq!(batch[b].vc, solo.vc);
        }
    }

    #[test]
    fn batch_nonconvergence_is_reported_per_element() {
        let n = 12usize;
        let params = CrossbarParams::with_size(16);
        let g = random_g(n, &params, 42);
        let mut solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        solver.max_sweeps = 1;
        let vs = vec![vec![params.v_read; n]; 3];
        let batch = solver.solve_nodes_batch(&g, &vs).unwrap();
        for nodes in &batch {
            assert!(!nodes.stats.converged);
            assert_eq!(nodes.stats.iterations, 1);
        }
        assert!(matches!(
            solver.column_currents_batch(&g, &vs),
            Err(SolveError::NoConvergence { .. })
        ));
    }

    #[test]
    fn batch_rejects_mismatched_element_and_handles_empty() {
        let params = CrossbarParams::with_size(4);
        let g = uniform_g(4, 4, &params);
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        assert!(solver.solve_nodes_batch(&g, &[]).unwrap().is_empty());
        let vs = vec![vec![0.25; 4], vec![0.25; 3]];
        assert!(matches!(
            solver.solve_nodes_batch(&g, &vs),
            Err(SolveError::Dimension(_))
        ));
    }
}
