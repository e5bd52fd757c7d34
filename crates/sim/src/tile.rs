//! End-to-end simulation of one weight tile on a non-ideal crossbar pair.
//!
//! This is the per-tile unit of the paper's Fig. 2 pipeline: weights →
//! conductances (differential pair) → Gaussian variation → non-ideal circuit
//! solve → effective conductances `G'` → non-ideal weights `W'`, plus NF
//! statistics for Fig. 3(d).

use crate::cache::{self, SolveCache};
use crate::conductance::{
    conductances_to_weights, weights_to_conductances, ConductanceMatrix, DifferentialPair,
    MappingScale,
};
use crate::nf::column_nf;
use crate::params::CrossbarParams;
use crate::program::{program_array, ArrayKind, FaultReport};
use crate::quantize::quantize_conductances;
use crate::solve::{EffectiveSolve, NodeVoltages, NonIdealSolver, SolveMethod, Warm};
use xbar_linalg::{Result, SolveError, SolveStats};
use xbar_obs::names;
use xbar_tensor::Tensor;

/// Result of simulating one tile.
#[derive(Debug, Clone)]
pub struct TileOutcome {
    /// The non-ideal weights `W'` read back from the crossbar pair.
    pub weights: Tensor,
    /// Mean NF over the positive array's columns.
    pub nf_pos: f64,
    /// Mean NF over the negative array's columns.
    pub nf_neg: f64,
    /// Fraction of devices (both arrays) within 1 % of `Gmin` — the
    /// low-conductance-synapse proportion the mitigations maximise.
    pub low_g_fraction: f64,
    /// Combined solver work over both arrays (iterations add, the worst
    /// residual dominates).
    pub stats: SolveStats,
    /// Whether either array needed the extended-sweep fallback retry.
    pub fallback: bool,
    /// Stuck devices and per-column fault error over both arrays.
    pub fault_report: FaultReport,
    /// The weight reference `w_ref` the tile was mapped with — needed to
    /// translate stuck-cell conductance errors back into weight space for
    /// digital correction.
    pub w_ref: f32,
}

impl TileOutcome {
    /// Mean NF over both arrays.
    pub fn nf(&self) -> f64 {
        0.5 * (self.nf_pos + self.nf_neg)
    }
}

/// The solved node voltages of both crossbar arrays of a tile — the state a
/// later solve of a related tile can warm-start from (see
/// [`simulate_tile_seeded`]).
#[derive(Debug, Clone)]
pub struct TileSolveState {
    /// Positive-array node voltages.
    pub pos: NodeVoltages,
    /// Negative-array node voltages.
    pub neg: NodeVoltages,
}

impl TileSolveState {
    /// Returns a copy with each `(a, b)` physical column pair swapped in
    /// both arrays — the right seed for re-simulating a column-permuted
    /// tile (spare-column repair). Column position affects the row-wire
    /// path, so the permuted voltages are a near-solution, not an exact
    /// one; the warm-start's verifying sweep settles the difference.
    ///
    /// # Panics
    ///
    /// Panics if a swap index is out of range for the array geometry, or if
    /// the stored voltages are not a whole number of `cols`-wide rows (a
    /// seed from a different tile geometry).
    pub fn swap_columns(&self, cols: usize, swaps: &[(usize, usize)]) -> TileSolveState {
        let mut out = self.clone();
        for nodes in [&mut out.pos, &mut out.neg] {
            assert!(
                cols > 0 && nodes.vr.len() % cols == 0,
                "seed holds {} node voltages, not a whole number of {cols}-wide rows",
                nodes.vr.len()
            );
            let rows = nodes.vr.len() / cols;
            for &(a, b) in swaps {
                assert!(
                    a < cols && b < cols,
                    "swap ({a}, {b}) outside {cols} columns"
                );
                for i in 0..rows {
                    nodes.vr.swap(i * cols + a, i * cols + b);
                    nodes.vc.swap(i * cols + a, i * cols + b);
                }
            }
        }
        out
    }
}

/// A tile's differential conductance pair after the full programming
/// pipeline — quantization, programming with write noise and stuck-at
/// faults — ready for the circuit solve.
struct PreparedTile {
    /// The programmed differential conductance pair.
    pair: DifferentialPair,
    /// Stuck devices over both arrays.
    fault_report: FaultReport,
    /// Fraction of devices (both arrays) within 1 % of `Gmin`.
    low_g_fraction: f64,
}

/// Programs one weight tile onto a differential crossbar pair without
/// solving the circuit: weights → conductances, quantization, and
/// programming with write noise and stuck-at faults — the state
/// [`simulate_tile_seeded`] hands to the circuit solver.
///
/// # Errors
///
/// Returns [`SolveError::Config`] if `params` fails validation.
///
/// # Panics
///
/// Panics if `tile` is not 2-D.
fn prepare_tile_conductances(
    tile: &Tensor,
    scale: MappingScale,
    layer_abs_max: f32,
    params: &CrossbarParams,
    seed: u64,
) -> Result<PreparedTile> {
    // Validate before any conductance math: inconsistent params would
    // otherwise panic in quantization or the solver, which a worker thread
    // can only report as an opaque panic.
    params
        .validate()
        .map_err(|e| SolveError::Config(e.to_string()))?;
    let mut pair = weights_to_conductances(tile, scale, layer_abs_max, params);
    let g_min = params.g_min();
    let low_g = {
        let tol = 0.01 * g_min;
        0.5 * (pair.pos.low_conductance_fraction(g_min, tol)
            + pair.neg.low_conductance_fraction(g_min, tol))
    };
    let g_max = params.g_max();
    quantize_conductances(&mut pair.pos, g_min, g_max, params.levels);
    quantize_conductances(&mut pair.neg, g_min, g_max, params.levels);
    // Gaussian write noise, then stuck-at overrides; reports every stuck
    // device.
    let pos_programmed = program_array(
        &pair.pos,
        &params.faults,
        params.sigma_variation,
        g_min,
        g_max,
        seed,
        seed.wrapping_add(0xFA17_0001),
        ArrayKind::Pos,
    );
    let neg_programmed = program_array(
        &pair.neg,
        &params.faults,
        params.sigma_variation,
        g_min,
        g_max,
        seed.wrapping_add(0x5DEECE66D),
        seed.wrapping_add(0xFA17_0002),
        ArrayKind::Neg,
    );
    pair.pos = pos_programmed.g.clone();
    pair.neg = neg_programmed.g.clone();
    let fault_report = FaultReport::from_arrays(tile.cols(), pos_programmed, neg_programmed);
    if !fault_report.is_clean() {
        xbar_obs::metrics::counter_add(names::SIM_STUCK_CELLS, fault_report.stuck_count() as u64);
    }
    Ok(PreparedTile {
        pair,
        fault_report,
        low_g_fraction: low_g,
    })
}

/// Simulates one weight tile on a non-ideal differential crossbar pair.
///
/// * `tile` — `rows × cols` weights (padded with zeros to the full crossbar
///   size by the caller; zero cells sit at `Gmin` like unused devices);
/// * `scale`/`layer_abs_max` — weight→conductance reference (see
///   [`MappingScale`]);
/// * `seed` — deterministic variation seed (derive per tile).
///
/// # Errors
///
/// Propagates circuit-solver errors.
///
/// # Panics
///
/// Panics if `tile` is not 2-D.
pub fn simulate_tile(
    tile: &Tensor,
    scale: MappingScale,
    layer_abs_max: f32,
    params: &CrossbarParams,
    method: SolveMethod,
    seed: u64,
) -> Result<TileOutcome> {
    simulate_tile_seeded(tile, scale, layer_abs_max, params, method, seed, None)
        .map(|(outcome, _)| outcome)
}

/// [`simulate_tile`], plus warm-start plumbing: the returned
/// [`TileSolveState`] holds the solved node voltages of both arrays, and a
/// related later simulation (repair's column-permuted re-run) can pass it
/// back as `warm` to start relaxation from that state instead of the cold
/// guess.
///
/// Both entry points share the process-wide solve cache: an array whose
/// solve is already cached replays that cold solve bit-for-bit. A
/// warm-started solve is never inserted, so the cache only ever holds
/// genuine cold results.
///
/// # Errors
///
/// * [`SolveError::Config`] if `params` fails validation;
/// * circuit-solver errors, including final non-convergence after the
///   extended-sweep fallback.
#[allow(clippy::too_many_arguments)]
pub fn simulate_tile_seeded(
    tile: &Tensor,
    scale: MappingScale,
    layer_abs_max: f32,
    params: &CrossbarParams,
    method: SolveMethod,
    seed: u64,
    warm: Option<&TileSolveState>,
) -> Result<(TileOutcome, TileSolveState)> {
    simulate_tile_in(
        SolveCache::shared(),
        tile,
        scale,
        layer_abs_max,
        params,
        method,
        seed,
        warm,
    )
}

/// [`simulate_tile_seeded`] through the given solve cache.
#[allow(clippy::too_many_arguments)]
fn simulate_tile_in(
    cache: &SolveCache,
    tile: &Tensor,
    scale: MappingScale,
    layer_abs_max: f32,
    params: &CrossbarParams,
    method: SolveMethod,
    seed: u64,
    warm: Option<&TileSolveState>,
) -> Result<(TileOutcome, TileSolveState)> {
    let PreparedTile {
        pair,
        fault_report,
        low_g_fraction: low_g,
    } = prepare_tile_conductances(tile, scale, layer_abs_max, params, seed)?;
    let solver =
        NonIdealSolver::try_new(*params, method).map_err(|e| SolveError::Config(e.to_string()))?;
    let v = vec![params.v_read; tile.rows()];
    // A seed whose shape disagrees with the prepared tile (left over from a
    // pre-repair geometry, a remap, or a column permutation against the
    // wrong width) must not reach the solver: drop it and solve cold — one
    // normal cold solve, counted once — instead of failing the tile.
    let n = tile.rows() * tile.cols();
    let warm = warm.filter(|w| {
        [&w.pos, &w.neg]
            .iter()
            .all(|nodes| nodes.vr.len() == n && nodes.vc.len() == n)
    });
    let solve_start = std::time::Instant::now();
    let (pos_solve, pos_nodes, pos_fallback) =
        solve_array(cache, &solver, &pair.pos, &v, warm.map(|w| w.pos.warm()))?;
    let (neg_solve, neg_nodes, neg_fallback) =
        solve_array(cache, &solver, &pair.neg, &v, warm.map(|w| w.neg.warm()))?;
    // Rounded, not truncated: a cache-hit solve takes a few µs, and
    // truncating it would bias the histogram's sum low.
    let solve_us = (solve_start.elapsed().as_nanos() + 500) / 1000;
    let mut stats = pos_solve.stats;
    stats.accumulate(neg_solve.stats);
    xbar_obs::metrics::latency_record_us(names::SIM_TILE_SOLVE_US, solve_us as u64);
    xbar_obs::metrics::latency_record_us(names::SIM_TILE_SWEEPS, stats.iterations as u64);
    let outcome_pair = DifferentialPair {
        pos: pos_solve.g_eff.clone(),
        neg: neg_solve.g_eff.clone(),
        w_ref: pair.w_ref,
    };
    let weights = conductances_to_weights(&outcome_pair, params);
    let nf_pos_cols = column_nf(&pos_solve);
    let nf_neg_cols = column_nf(&neg_solve);
    // One registry lock for the whole tile. The cast saturates, so a
    // rounding-level negative NF records as 0.
    xbar_obs::metrics::latency_record_all(
        names::SIM_NF_COLUMN_PPM,
        nf_pos_cols
            .iter()
            .chain(&nf_neg_cols)
            .map(|&nf| (nf * 1e6).round() as u64),
    );
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let outcome = TileOutcome {
        weights,
        nf_pos: mean(&nf_pos_cols),
        nf_neg: mean(&nf_neg_cols),
        low_g_fraction: low_g,
        stats,
        fallback: pos_fallback || neg_fallback,
        fault_report,
        w_ref: pair.w_ref,
    };
    let state = TileSolveState {
        pos: pos_nodes,
        neg: neg_nodes,
    };
    Ok((outcome, state))
}

/// Solves one array through `cache`. A hit replays the stored cold solve
/// (extraction is pure, so the result is bit-identical to the solve that
/// populated the entry). A miss solves, resuming through
/// [`resume_fallback`] if needed, and inserts the result unless the caller
/// seeded the solve. Cache traffic is counted in `sim/solve_cache_hits` /
/// `_misses`.
fn solve_array(
    cache: &SolveCache,
    solver: &NonIdealSolver,
    g: &ConductanceMatrix,
    v: &[f64],
    warm: Option<Warm<'_>>,
) -> Result<(EffectiveSolve, NodeVoltages, bool)> {
    let key = cache::solve_key(solver, g, v);
    if let Some(hit) = cache.lookup(key) {
        xbar_obs::metrics::counter_add(names::SIM_SOLVE_CACHE_HITS, 1);
        let solve = solver.extract(g, v, &hit.nodes)?;
        return Ok((solve, hit.nodes, hit.fallback));
    }
    xbar_obs::metrics::counter_add(names::SIM_SOLVE_CACHE_MISSES, 1);
    let caller_seeded = warm.is_some();
    let first = solver.solve_nodes(g, v, warm)?;
    let (nodes, fallback) = resume_fallback(solver, g, v, first)?;
    let solve = solver.extract(g, v, &nodes)?;
    if !caller_seeded {
        cache.insert(key, nodes.clone(), fallback);
    }
    Ok((solve, nodes, fallback))
}

/// Finishes a solve that may have hit the sweep cap: if `first` did not
/// converge, resumes it once with a 4× sweep budget. Returns the converged
/// voltages and whether the fallback ran.
///
/// The fallback *resumes* from the abandoned state instead of re-running
/// from the cold guess, so the abandoned sweeps are paid for (and counted
/// in `stats.iterations`) exactly once; because relaxation is
/// deterministic, the resumed trajectory is bit-for-bit the one a single
/// solve with a larger budget would have taken. Fallbacks and terminal
/// failures are counted in the `sim/tile_fallbacks` / `sim/tile_failures`
/// metrics.
fn resume_fallback(
    solver: &NonIdealSolver,
    g: &ConductanceMatrix,
    v: &[f64],
    first: NodeVoltages,
) -> Result<(NodeVoltages, bool)> {
    if first.stats.converged {
        return Ok((first, false));
    }
    xbar_obs::metrics::counter_add(names::SIM_TILE_FALLBACKS, 1);
    let abandoned = first.stats.iterations;
    let mut retry = *solver;
    retry.max_sweeps *= 4;
    let mut resumed = retry.solve_nodes(g, v, Some(first.warm()))?;
    // Total work of the single logical trajectory: the abandoned sweeps
    // plus the resumed ones, each counted once.
    resumed.stats.iterations += abandoned;
    if !resumed.stats.converged {
        xbar_obs::metrics::counter_add(names::SIM_TILE_FAILURES, 1);
        return Err(SolveError::NoConvergence {
            iterations: resumed.stats.iterations,
            residual: resumed.stats.residual,
        });
    }
    Ok((resumed, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rand_tile(rows: usize, cols: usize, seed: u64, amp: f32) -> Tensor {
        let mut s = seed;
        Tensor::from_fn(&[rows, cols], |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 1000.0 * amp
        })
    }

    #[test]
    fn ideal_params_round_trip_weights() {
        let params = CrossbarParams::with_size(8).ideal();
        let tile = rand_tile(8, 8, 3, 1.0);
        let out = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            0,
        )
        .unwrap();
        for (a, b) in tile.as_slice().iter().zip(out.weights.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(out.nf() < 1e-4);
    }

    #[test]
    fn non_ideal_tile_shrinks_weights_and_has_positive_nf() {
        let mut params = CrossbarParams::with_size(16);
        params.sigma_variation = 0.0; // isolate IR drop
        let tile = Tensor::ones(&[16, 16]);
        let out = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            0,
        )
        .unwrap();
        assert!(out.nf() > 0.0);
        // All-positive tile: every non-ideal weight below the programmed 1.0.
        assert!(out.weights.as_slice().iter().all(|&w| w < 1.0 && w > 0.0));
    }

    #[test]
    fn tile_series_keep_the_exported_names_the_benchmark_scrapes() {
        let params = CrossbarParams::with_size(8);
        simulate_tile(
            &rand_tile(8, 8, 5, 1.0),
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            0,
        )
        .unwrap();
        // The registry is process-global and shared with parallel tests,
        // so only the presence of each series is checked.
        let text = xbar_obs::metrics::to_text();
        for series in [
            "sim_tile_sweeps_bucket",
            "sim_tile_sweeps_sum",
            "sim_tile_sweeps_count",
            "sim_tile_solve_us_sum",
            "sim_nf_column_ppm_count",
        ] {
            assert!(text.contains(series), "{series} missing from:\n{text}");
        }
    }

    #[test]
    fn bigger_tiles_suffer_more() {
        let mut nfs = Vec::new();
        for n in [8usize, 32] {
            let mut params = CrossbarParams::with_size(n);
            params.sigma_variation = 0.0;
            let tile = Tensor::ones(&[n, n]);
            let out = simulate_tile(
                &tile,
                MappingScale::PerTileMax,
                1.0,
                &params,
                SolveMethod::LineRelaxation,
                0,
            )
            .unwrap();
            nfs.push(out.nf());
        }
        assert!(nfs[1] > nfs[0], "{nfs:?}");
    }

    #[test]
    fn low_magnitude_tiles_have_lower_nf() {
        let mut params = CrossbarParams::with_size(16);
        params.sigma_variation = 0.0;
        let strong = Tensor::ones(&[16, 16]);
        let weak = Tensor::filled(&[16, 16], 0.05);
        // Fixed scale so the weak tile genuinely maps to low conductances.
        let nf = |t: &Tensor| {
            simulate_tile(
                t,
                MappingScale::Fixed(1.0),
                1.0,
                &params,
                SolveMethod::LineRelaxation,
                0,
            )
            .unwrap()
            .nf()
        };
        assert!(nf(&weak) < nf(&strong));
    }

    #[test]
    fn variation_is_deterministic_per_seed() {
        let params = CrossbarParams::with_size(8);
        let tile = rand_tile(8, 8, 11, 0.5);
        let a = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            5,
        )
        .unwrap();
        let b = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            5,
        )
        .unwrap();
        let c = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            6,
        )
        .unwrap();
        assert_eq!(a.weights, b.weights);
        assert_ne!(a.weights, c.weights);
    }

    #[test]
    fn quantization_degrades_round_trip_boundedly() {
        let mut params = CrossbarParams::with_size(8).ideal();
        params.levels = 8;
        let tile = rand_tile(8, 8, 21, 1.0);
        let out = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            0,
        )
        .unwrap();
        // Max error bounded by half a quantization step per array (two
        // arrays → one step of the weight range).
        let step = 1.0 / 7.0;
        for (a, b) in tile.as_slice().iter().zip(out.weights.as_slice()) {
            assert!((a - b).abs() <= step / 2.0 + 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn stuck_faults_change_weights() {
        let mut params = CrossbarParams::with_size(8).ideal();
        params.faults = crate::faults::FaultModel {
            stuck_at_gmin: 0.3,
            stuck_at_gmax: 0.0,
        };
        let tile = Tensor::ones(&[8, 8]);
        let out = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            1,
        )
        .unwrap();
        // Some positive weights got their pos device stuck at Gmin → ~0.
        let zeroed = out
            .weights
            .as_slice()
            .iter()
            .filter(|&&w| w.abs() < 1e-3)
            .count();
        assert!(
            zeroed > 5,
            "expected stuck devices to zero weights, got {zeroed}"
        );
    }

    #[test]
    fn fault_report_localises_stuck_devices() {
        let mut params = CrossbarParams::with_size(8).ideal();
        params.faults = crate::faults::FaultModel {
            stuck_at_gmin: 0.1,
            stuck_at_gmax: 0.05,
        };
        let tile = Tensor::ones(&[8, 8]);
        let out = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            3,
        )
        .unwrap();
        let report = &out.fault_report;
        assert!(report.stuck_count() > 0);
        assert_eq!(report.column_error.len(), 8);
        assert!(report.fault_score() > 0.0);
        assert!(report.affected_columns().iter().all(|&c| c < 8));
        // Every stuck cell lands inside the tile and at a rail.
        for cell in &report.stuck_cells {
            assert!(cell.row < 8 && cell.col < 8);
            assert!(cell.actual == params.g_min() || cell.actual == params.g_max());
        }
        // A fault-free tile has a clean report.
        let clean = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &CrossbarParams::with_size(8).ideal(),
            SolveMethod::LineRelaxation,
            3,
        )
        .unwrap();
        assert!(clean.fault_report.is_clean());
        assert_eq!(clean.fault_report.fault_score(), 0.0);
    }

    #[test]
    fn cached_and_warm_started_tiles_match_cold_bitwise() {
        let params = CrossbarParams::with_size(16);
        let tile = rand_tile(16, 16, 42, 1.0);
        let run = |cache: &SolveCache, warm: Option<&TileSolveState>| {
            simulate_tile_in(
                cache,
                &tile,
                MappingScale::PerTileMax,
                1.0,
                &params,
                SolveMethod::LineRelaxation,
                9,
                warm,
            )
            .unwrap()
        };
        let cache = SolveCache::default();
        let (cold, state) = run(&cache, None);
        assert_eq!(cache.len(), 2, "one entry per array");
        // A hit replays the stored cold solve: weights AND stats
        // bit-identical.
        let (hit, _) = run(&cache, None);
        assert_eq!(hit.weights, cold.weights);
        assert_eq!(hit.stats, cold.stats);
        assert_eq!(hit.fallback, cold.fallback);
        // A verified warm start from the cold state, on an empty cache so it
        // cannot hit: weights still bit-identical, stats honestly ~1 sweep
        // per array.
        let (warm, _) = run(&SolveCache::default(), Some(&state));
        assert_eq!(warm.weights, cold.weights);
        assert!(
            warm.stats.iterations < cold.stats.iterations,
            "verified reuse must be cheaper: {} vs {} sweeps",
            warm.stats.iterations,
            cold.stats.iterations
        );
    }

    #[test]
    fn caller_seeded_resimulation_matches_cold_within_tolerance() {
        let params = CrossbarParams::with_size(12);
        let tile = rand_tile(12, 12, 7, 1.0);
        // Every run on an empty cache, so none of them replays another.
        let run = |t: &Tensor, warm: Option<&TileSolveState>| {
            simulate_tile_in(
                &SolveCache::default(),
                t,
                MappingScale::PerTileMax,
                1.0,
                &params,
                SolveMethod::LineRelaxation,
                4,
                warm,
            )
            .unwrap()
        };
        let (_, state) = run(&tile, None);
        // Re-simulate a column-swapped variant warm-started from the
        // permuted base state; compare with its cold solve.
        let mut swapped = tile.clone();
        for r in 0..12 {
            let (a, b) = (swapped.at2(r, 2), swapped.at2(r, 9));
            swapped.set2(r, 2, b);
            swapped.set2(r, 9, a);
        }
        let (cold_swap, _) = run(&swapped, None);
        let seed = state.swap_columns(12, &[(2, 9)]);
        let (warm_swap, _) = run(&swapped, Some(&seed));
        assert!(
            warm_swap.stats.iterations <= cold_swap.stats.iterations,
            "warm start must not do more work: {} vs {}",
            warm_swap.stats.iterations,
            cold_swap.stats.iterations
        );
        // Both states satisfy the same convergence tolerance, so the
        // read-back weights agree to circuit accuracy.
        for (a, b) in cold_swap
            .weights
            .as_slice()
            .iter()
            .zip(warm_swap.weights.as_slice())
        {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn fallback_resume_is_bit_identical_and_counts_sweeps_once() {
        let params = CrossbarParams::with_size(16);
        let g = {
            let mut g = ConductanceMatrix::filled(16, 16, 0.0);
            let mut s = 3u64;
            for i in 0..16 {
                for j in 0..16 {
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
        };
        let v = vec![params.v_read; 16];
        let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
        let (cold, _, cold_fb) =
            solve_array(&SolveCache::default(), &solver, &g, &v, None).unwrap();
        assert!(!cold_fb);
        let n = cold.stats.iterations;
        assert!(n >= 2, "need a multi-sweep solve to starve ({n} sweeps)");
        // Starve the base budget by one sweep to force the fallback; the
        // resumed trajectory must land on the same answer bit-for-bit and
        // count the abandoned sweeps exactly once.
        let mut starved = solver;
        starved.max_sweeps = n - 1;
        let (fb, _, used_fallback) =
            solve_array(&SolveCache::default(), &starved, &g, &v, None).unwrap();
        assert!(used_fallback);
        assert_eq!(fb.g_eff.as_slice(), cold.g_eff.as_slice());
        assert_eq!(fb.col_currents, cold.col_currents);
        assert_eq!(
            fb.stats.iterations, n,
            "abandoned sweeps must be counted exactly once"
        );
    }

    fn rand_g(n: usize, seed: u64, params: &CrossbarParams) -> ConductanceMatrix {
        let mut g = ConductanceMatrix::filled(n, n, 0.0);
        let mut s = seed;
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

    /// Property sweep for the batched solver: over tile edges that are not
    /// multiples of the 8-wide lane chunk and batch sizes {1, 2, 7, 32},
    /// with stuck-at faults injected and the conductances routed through
    /// the drift layer at `dt = 0` (a bit-identical passthrough by
    /// contract), the batched currents must equal the single-vector path's
    /// bit for bit.
    #[test]
    fn property_batched_currents_bitwise_match_singles() {
        use crate::drift::{DriftModel, ProgrammedPair};
        use crate::faults::FaultModel;
        for n in [5usize, 9, 13] {
            let params = CrossbarParams::with_size(n.max(8));
            let mut g = rand_g(n, 0xF00D ^ n as u64, &params);
            let faults = FaultModel {
                stuck_at_gmin: 0.08,
                stuck_at_gmax: 0.08,
            };
            faults.inject(&mut g, params.g_min(), params.g_max(), 0xFA ^ n as u64);
            let pair = DifferentialPair {
                pos: g,
                neg: ConductanceMatrix::filled(n, n, params.g_min()),
                w_ref: 1.0,
            };
            let mut programmed =
                ProgrammedPair::new(pair, DriftModel::new(1e3, 1e5), params.g_min(), 11)
                    .expect("valid drift model");
            programmed.advance_time(0.0);
            let g = programmed.current().pos;
            let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
            let mut s = 0x5EED ^ (n as u64) << 8;
            let mut xorshift = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f64 / 999.0
            };
            for nb in [1usize, 2, 7, 32] {
                let vs: Vec<Vec<f64>> = (0..nb)
                    .map(|_| (0..n).map(|_| xorshift() * params.v_read).collect())
                    .collect();
                let singles: Vec<Vec<f64>> = vs
                    .iter()
                    .map(|v| solver.column_currents(&g, v).unwrap())
                    .collect();
                let batch = solver.column_currents_batch(&g, &vs).unwrap();
                assert!(
                    bits_eq(&batch, &singles),
                    "n={n} nb={nb}: batch diverged from singles"
                );
            }
        }
    }

    fn bits_eq(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            })
    }

    #[test]
    fn stale_shape_warm_seed_falls_back_to_cold_bitwise() {
        let params = CrossbarParams::with_size(12);
        // Every run on an empty cache, so the seeded run cannot replay the
        // cold one.
        let run = |t: &Tensor, warm: Option<&TileSolveState>| {
            simulate_tile_in(
                &SolveCache::default(),
                t,
                MappingScale::PerTileMax,
                1.0,
                &params,
                SolveMethod::LineRelaxation,
                4,
                warm,
            )
            .unwrap()
        };
        // A seed from a 12×12 geometry handed to an 8×8 re-map (the remap /
        // hot-swap path after repair changed the tile shape) must be dropped,
        // not fed to the solver: the run degrades to exactly the cold solve.
        let (_, stale) = run(&rand_tile(12, 12, 31, 1.0), None);
        let small = rand_tile(8, 8, 32, 1.0);
        let (cold, _) = run(&small, None);
        let (warmed, _) = run(&small, Some(&stale));
        assert_eq!(warmed.weights, cold.weights);
        assert_eq!(
            warmed.stats, cold.stats,
            "stale seed must cost nothing extra"
        );
        assert_eq!(warmed.fallback, cold.fallback);
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn swap_columns_rejects_mismatched_geometry() {
        let params = CrossbarParams::with_size(8);
        let (_, state) = simulate_tile_seeded(
            &rand_tile(8, 8, 17, 1.0),
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            2,
            None,
        )
        .unwrap();
        // 64 voltages are not a whole number of 5-wide rows.
        let _ = state.swap_columns(5, &[(0, 1)]);
    }

    #[test]
    fn invalid_params_surface_as_config_error() {
        let mut params = CrossbarParams::with_size(8);
        params.r_min = -5.0;
        let tile = Tensor::ones(&[8, 8]);
        let err = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            0,
        )
        .unwrap_err();
        assert!(
            matches!(&err, SolveError::Config(_)),
            "expected a config error, got {err:?}"
        );
    }

    #[test]
    fn zero_padded_tile_reports_high_low_g_fraction() {
        let params = CrossbarParams::with_size(8);
        let mut tile = Tensor::zeros(&[8, 8]);
        tile.set2(0, 0, 1.0);
        let out = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            0,
        )
        .unwrap();
        assert!(out.low_g_fraction > 0.95);
    }

    fn weight_tile() -> impl Strategy<Value = Tensor> {
        (3usize..9, 3usize..7).prop_flat_map(|(rows, cols)| {
            proptest::collection::vec(-1.2f32..1.2, rows * cols)
                .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]).expect("consistent"))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The solve cache must be invisible: random tiles simulated under
        /// differing variation seeds and circuit parameters, populated into
        /// one cache and then replayed from it, are bit-identical to each
        /// combination solved on an empty cache, and the cache holds exactly
        /// one entry per distinct array. A mis-keyed cache (one that ignored
        /// the conductance content, the parasitics, or the voltage vector)
        /// would hand a tile some other tile's solution, or hold too few
        /// entries, within a case or two.
        #[test]
        fn solve_cache_is_keyed_correctly_across_seeds_and_params(
            tile in weight_tile(),
            seed_a in 0u64..200,
            seed_b in 200u64..400,
            wire_scale in 1u32..4,
        ) {
            let mut params_a = CrossbarParams::with_size(8);
            params_a.sigma_variation = 0.05;
            let mut params_b = params_a;
            params_b.r_wire_row *= f64::from(wire_scale);
            let combos = [
                (seed_a, params_a), (seed_b, params_a),
                (seed_a, params_b), (seed_b, params_b),
            ];
            let run = |cache: &SolveCache, seed: u64, params: &CrossbarParams| {
                simulate_tile_in(
                    cache, &tile, MappingScale::PerTileMax, 1.0, params,
                    SolveMethod::LineRelaxation, seed, None,
                )
                .unwrap()
                .0
            };
            let cold: Vec<TileOutcome> = combos
                .iter()
                .map(|(seed, params)| run(&SolveCache::default(), *seed, params))
                .collect();
            // Two arrays per combination; at `wire_scale == 1` the last two
            // combinations repeat the first two.
            let distinct = if wire_scale == 1 { 4 } else { 8 };
            let cache = SolveCache::default();
            let run_all = || -> Vec<TileOutcome> {
                combos.iter().map(|(seed, params)| run(&cache, *seed, params)).collect()
            };
            let populate = run_all();
            prop_assert_eq!(cache.len(), distinct);
            // Each combination must hit its own entry, not a neighbour's.
            let replay = run_all();
            prop_assert_eq!(cache.len(), distinct);
            for (k, ((c, p), r)) in cold.iter().zip(&populate).zip(&replay).enumerate() {
                prop_assert_eq!(&c.weights, &p.weights, "combo {} differed while populating", k);
                prop_assert_eq!(&c.weights, &r.weights, "combo {} differed on cache replay", k);
                prop_assert_eq!(c.stats, r.stats, "combo {} replayed other stats", k);
            }
            // Different seeds genuinely produce different devices — the cache
            // had real discrimination work to do above.
            prop_assert!(cold[0].weights != cold[1].weights, "different seeds must differ");
        }
    }
}
