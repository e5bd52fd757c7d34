//! Cold tile-solve throughput benchmark (`results/BENCH_solve.json`).
//!
//! Measures how many cold circuit solves per second the batched,
//! lane-vectorized path ([`NonIdealSolver::solve_nodes_batch`]) sustains on
//! one tile against the scalar oracle
//! ([`NonIdealSolver::solve_nodes_scalar`]) solving the same vectors one at
//! a time — the oracle the batched path is bit-identical to by
//! construction, which this benchmark also re-verifies on the measured
//! currents. The artifact hard-fails if the batch loses bit-identity or
//! the speedup falls under the 5× acceptance floor; `suite --gate`
//! additionally compares the fresh numbers against the committed baseline.

use super::{ArtifactCtx, ArtifactOutput};
use std::time::Instant;
use xbar_obs::json::Json;
use xbar_sim::params::CrossbarParams;
use xbar_sim::{ConductanceMatrix, NonIdealSolver, SolveMethod};

/// Tile edge the acceptance criterion is stated at.
pub const SOLVE_BENCH_SIZE: usize = 64;
/// Batch width the acceptance criterion is stated at.
pub const SOLVE_BENCH_BATCH: usize = 32;
/// Acceptance floor: batched cold throughput over the scalar oracle.
pub const SOLVE_SPEEDUP_FLOOR: f64 = 5.0;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A deterministic conductance matrix spanning the full `[Gmin, Gmax]`
/// device range — a representative programmed tile, not a pathological one.
fn bench_matrix(n: usize, seed: u64, params: &CrossbarParams) -> ConductanceMatrix {
    let mut g = ConductanceMatrix::filled(n, n, 0.0);
    let mut s = seed | 1;
    for i in 0..n {
        for j in 0..n {
            let frac = (xorshift(&mut s) % 1000) as f64 / 1000.0;
            g.set(
                i,
                j,
                params.g_min() + frac * (params.g_max() - params.g_min()),
            );
        }
    }
    g
}

/// Deterministic non-negative read voltages, one vector per batch element.
fn bench_inputs(n: usize, batch: usize, seed: u64, v_read: f64) -> Vec<Vec<f64>> {
    let mut s = seed | 1;
    (0..batch)
        .map(|_| {
            (0..n)
                .map(|_| (xorshift(&mut s) % 1000) as f64 / 999.0 * v_read)
                .collect()
        })
        .collect()
}

fn bits_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Cold-solve throughput benchmark at [`SOLVE_BENCH_SIZE`] with
/// [`SOLVE_BENCH_BATCH`] input vectors, written to
/// `results/BENCH_solve.json`.
///
/// Timing-sensitive: the registry marks it `exclusive` so it never shares
/// the machine with concurrent artifact workers.
///
/// # Errors
///
/// Fails if the batched currents diverge bitwise from the scalar oracle's
/// or the batched speedup falls below [`SOLVE_SPEEDUP_FLOOR`].
pub fn solve_bench(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    let mut out = ArtifactOutput::default();
    let (size, batch) = (SOLVE_BENCH_SIZE, SOLVE_BENCH_BATCH);
    let mut params = CrossbarParams::with_size(size);
    params.sigma_variation = 0.0; // the matrix itself carries the spread
    params
        .validate()
        .map_err(|e| format!("bench params: {e}"))?;
    let solver = NonIdealSolver::new(params, SolveMethod::LineRelaxation);
    let g = bench_matrix(size, ctx.seed ^ 0x0005_014E, &params);
    let vs = bench_inputs(size, batch, ctx.seed ^ 0xBA7C4, params.v_read);

    let currents = |nodes: &xbar_sim::NodeVoltages| -> Result<Vec<f64>, String> {
        if !nodes.stats.converged {
            return Err("bench solve did not converge".to_string());
        }
        solver
            .currents_of(&g, nodes)
            .map_err(|e| format!("current read-out: {e}"))
    };

    // Correctness first, timing second: one un-timed round pins down
    // bit-identity (and warms caches/branch predictors for both paths).
    let scalar_ref: Vec<Vec<f64>> = vs
        .iter()
        .map(|v| {
            solver
                .solve_nodes_scalar(&g, v, None)
                .map_err(|e| format!("scalar oracle: {e}"))
                .and_then(|nodes| currents(&nodes))
        })
        .collect::<Result<_, _>>()?;
    let batch_ref: Vec<Vec<f64>> = solver
        .solve_nodes_batch(&g, &vs)
        .map_err(|e| format!("batched solve: {e}"))?
        .iter()
        .map(currents)
        .collect::<Result<_, _>>()?;
    let bit_identical_batch = bits_equal(&scalar_ref, &batch_ref);
    let sweeps = solver
        .solve_nodes_batch(&g, &vs)
        .map_err(|e| format!("batched solve: {e}"))?
        .iter()
        .map(|n| n.stats.iterations as u64)
        .sum::<u64>();

    // Time both paths over whole batches; every solve is cold (no warm
    // seeds, no cache — the solver-level API never touches the
    // process-global solve cache). One timing window:
    let time_window = |run: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let mut reps = 0u64;
        let start = Instant::now();
        loop {
            run()?;
            reps += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if (elapsed >= 0.3 && reps >= 2) || elapsed >= 2.0 {
                return Ok(reps as f64 * batch as f64 / elapsed);
            }
        }
    };
    let mut scalar_run = || {
        for v in &vs {
            let nodes = solver
                .solve_nodes_scalar(&g, v, None)
                .map_err(|e| format!("scalar oracle: {e}"))?;
            std::hint::black_box(currents(&nodes)?);
        }
        Ok(())
    };
    let mut batch_run = || {
        let solved = solver
            .solve_nodes_batch(&g, &vs)
            .map_err(|e| format!("batched solve: {e}"))?;
        for nodes in &solved {
            std::hint::black_box(currents(nodes)?);
        }
        Ok(())
    };
    // Alternate windows and keep the best rate per path: interference from
    // whatever shares the machine only ever slows a window down, so the max
    // over windows is the least-contended estimate for each path, and the
    // ratio of maxes is stable where a single-window ratio would swing with
    // whichever path drew the noisy window.
    let (mut scalar_solves_per_s, mut batch_solves_per_s) = (0.0f64, 0.0f64);
    for _ in 0..4 {
        scalar_solves_per_s = scalar_solves_per_s.max(time_window(&mut scalar_run)?);
        batch_solves_per_s = batch_solves_per_s.max(time_window(&mut batch_run)?);
    }
    let speedup_batch = batch_solves_per_s / scalar_solves_per_s.max(1e-12);

    let json = Json::Obj(vec![
        ("bin".into(), Json::Str("solve".into())),
        ("scale".into(), Json::Str(ctx.scale_name.into())),
        ("crossbar_size".into(), Json::Num(size as f64)),
        ("batch".into(), Json::Num(batch as f64)),
        ("seed".into(), Json::Num(ctx.seed as f64)),
        ("scalar_solves_per_s".into(), Json::Num(scalar_solves_per_s)),
        ("tile_solves_per_s".into(), Json::Num(batch_solves_per_s)),
        ("speedup_batch".into(), Json::Num(speedup_batch)),
        ("solver_sweeps".into(), Json::Num(sweeps as f64)),
        (
            "bit_identical_batch".into(),
            Json::Bool(bit_identical_batch),
        ),
    ]);
    let path = ctx.write_json(&json, &mut out, "BENCH_solve.json")?;
    if !ctx.quiet {
        println!(
            "scalar {scalar_solves_per_s:.0}/s | batched {batch_solves_per_s:.0}/s \
             ({speedup_batch:.1}x, bit-identical: {bit_identical_batch}) -> {}",
            path.display()
        );
    }
    out.key("scalar_solves_per_s", scalar_solves_per_s);
    out.key("tile_solves_per_s", batch_solves_per_s);
    out.key("speedup_batch", speedup_batch);

    if !bit_identical_batch {
        return Err("batched solve diverged bitwise from the scalar oracle".to_string());
    }
    if speedup_batch < SOLVE_SPEEDUP_FLOOR {
        return Err(format!(
            "batched cold-solve speedup {speedup_batch:.2}x below the \
             {SOLVE_SPEEDUP_FLOOR:.0}x target"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_workload_is_deterministic_and_in_range() {
        let params = CrossbarParams::with_size(SOLVE_BENCH_SIZE);
        let a = bench_matrix(8, 7, &params);
        let b = bench_matrix(8, 7, &params);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(a.at(i, j).to_bits(), b.at(i, j).to_bits());
                assert!(a.at(i, j) >= params.g_min() && a.at(i, j) <= params.g_max());
            }
        }
        let vs = bench_inputs(8, 4, 7, params.v_read);
        assert_eq!(vs, bench_inputs(8, 4, 7, params.v_read));
        assert!(vs
            .iter()
            .flatten()
            .all(|&v| (0.0..=params.v_read).contains(&v)));
    }

    #[test]
    fn bits_equal_is_exact() {
        let a = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(bits_equal(&a, &a.clone()));
        let mut b = a.clone();
        b[1][0] = f64::from_bits(3.0f64.to_bits() + 1); // one ULP off
        assert!(!bits_equal(&a, &b));
        assert!(!bits_equal(&a, &a[..1]));
    }
}
