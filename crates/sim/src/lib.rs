//! # xbar-sim
//!
//! A device-agnostic, non-ideal memristive crossbar circuit simulator — the
//! functional-modelling stage of the paper's hardware evaluation framework
//! (Fig. 2).
//!
//! A crossbar tile holds a matrix of synaptic conductances `G` programmed
//! between `Gmin = 1/Rmax` and `Gmax = 1/Rmin`. Ideally the column currents
//! are `I_j = Σ_i G_ij·V_i`; in reality the circuit of Fig. 1(a) interposes
//! parasitic resistances — `Rdriver` at each row input, `Rwire_row` between
//! row crosspoints, `Rwire_col` between column crosspoints and `Rsense` at
//! each column output — and the devices carry Gaussian programming
//! variations. This crate:
//!
//! * models the full equivalent circuit with two nodes per crosspoint and
//!   solves the Kirchhoff nodal equations exactly ([`solve::SolveMethod::DenseExact`])
//!   or with a fast *line relaxation* (alternating exact tridiagonal solves
//!   along rows and columns, [`solve::SolveMethod::LineRelaxation`]) that
//!   converges in a handful of sweeps because wire conductances dominate
//!   synaptic ones;
//! * extracts *effective non-ideal conductances* `G'_ij = I_syn,ij / V_i`
//!   under a nominal read voltage, which fold the parasitic drops back into
//!   per-synapse values exactly as the paper converts `G'` back into
//!   non-ideal weights `W'`;
//! * applies Gaussian device variation ([`variation`]);
//! * computes the non-ideality factor `NF = (I_ideal − I_non-ideal)/I_ideal`
//!   ([`nf`]) used in Fig. 3(d);
//! * maps signed weights to differential conductance pairs and back
//!   ([`conductance`]).
//!
//! # Example
//!
//! ```
//! use xbar_sim::params::CrossbarParams;
//! use xbar_sim::solve::{NonIdealSolver, SolveMethod};
//! use xbar_sim::conductance::ConductanceMatrix;
//!
//! # fn main() -> Result<(), xbar_linalg::SolveError> {
//! let params = CrossbarParams::with_size(16);
//! let g = ConductanceMatrix::filled(16, 16, params.g_max());
//! let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
//! let v = vec![0.25; 16];
//! let out = solver.effective_conductances(&g, &v)?;
//! // Parasitics always lose current: every effective conductance is below
//! // the programmed one.
//! assert!(out.g_eff.as_slice().iter().zip(g.as_slice()).all(|(e, p)| e < p));
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod conductance;
pub mod drift;
pub mod faults;
pub mod ideal;
pub mod nf;
pub mod params;
pub mod program;
pub mod quantize;
pub mod solve;
pub mod tile;
pub mod variation;

pub use cache::{clear_solve_cache, set_solve_cache_mode, solve_cache_mode, CacheMode};
pub use conductance::{ConductanceMatrix, MappingScale};
pub use drift::{DriftModel, ProgrammedPair};
pub use faults::{FaultKind, FaultModel};
pub use params::{CrossbarParams, InvalidParams};
pub use program::{FaultReport, ProgramConfig, StuckCell};
pub use solve::{NodeVoltages, NonIdealSolver, SolveMethod, Warm};
pub use tile::{
    simulate_tile, simulate_tile_seeded, solve_currents_batch, TileOutcome, TileSolveState,
};
