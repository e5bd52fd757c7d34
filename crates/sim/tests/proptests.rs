//! Property-based tests for the crossbar simulator's physical invariants.

use proptest::prelude::*;
use xbar_sim::conductance::{
    conductances_to_weights, weights_to_conductances, ConductanceMatrix, MappingScale,
};
use xbar_sim::drift::{DriftModel, ProgrammedPair};
use xbar_sim::faults::FaultModel;
use xbar_sim::params::CrossbarParams;
use xbar_sim::quantize::{quantization_error_bound, quantize_conductances};
use xbar_sim::solve::{NonIdealSolver, SolveMethod};
use xbar_sim::tile::simulate_tile;
use xbar_tensor::Tensor;

fn weight_tile() -> impl Strategy<Value = Tensor> {
    (2usize..10).prop_flat_map(|n| {
        proptest::collection::vec(-1.5f32..1.5, n * n)
            .prop_map(move |data| Tensor::from_vec(data, &[n, n]).expect("consistent"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mapping_round_trip_and_bounds(tile in weight_tile()) {
        let params = CrossbarParams::with_size(tile.rows());
        let pair = weights_to_conductances(&tile, MappingScale::PerTileMax, 1.0, &params);
        for g in pair.pos.as_slice().iter().chain(pair.neg.as_slice()) {
            prop_assert!(*g >= params.g_min() - 1e-15 && *g <= params.g_max() + 1e-15);
        }
        let back = conductances_to_weights(&pair, &params);
        for (a, b) in tile.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-5 * tile.abs_max().max(1.0));
        }
    }

    #[test]
    fn non_ideal_tile_never_amplifies(tile in weight_tile(), seed in 0u64..100) {
        let mut params = CrossbarParams::with_size(tile.rows());
        params.sigma_variation = 0.0;
        let out = simulate_tile(
            &tile,
            MappingScale::PerTileMax,
            1.0,
            &params,
            SolveMethod::LineRelaxation,
            seed,
        )
        .unwrap();
        // Each array only loses current, so |weight| cannot grow beyond a
        // small differential-pair asymmetry: a zero weight sits at Gmin on
        // both arrays, and the two arrays' IR drops differ by at most
        // NF·Gmin/(Gmax−Gmin) of the reference scale (≈1% here).
        for (orig, noisy) in tile.as_slice().iter().zip(out.weights.as_slice()) {
            prop_assert!(
                noisy.abs() <= orig.abs() + 0.02 * tile.abs_max().max(1.0),
                "{} grew to {}",
                orig,
                noisy
            );
        }
        prop_assert!(out.nf() >= 0.0);
    }

    #[test]
    fn quantization_error_respects_bound(
        values in proptest::collection::vec(1e-6f64..1e-5, 1..50),
        levels in 2u32..33,
    ) {
        let (g_min, g_max) = (1e-6f64, 1e-5f64);
        let bound = quantization_error_bound(g_min, g_max, levels);
        let n = values.len();
        let mut g = ConductanceMatrix::from_vec(1, n, values.clone());
        quantize_conductances(&mut g, g_min, g_max, levels);
        for (q, v) in g.as_slice().iter().zip(&values) {
            prop_assert!((q - v).abs() <= bound + 1e-18);
            prop_assert!(*q >= g_min - 1e-18 && *q <= g_max + 1e-18);
        }
    }

    #[test]
    fn fault_injection_rates_are_statistically_sane(rate in 0.0f64..0.4, seed in 0u64..50) {
        let fm = FaultModel {
            stuck_at_gmin: rate,
            stuck_at_gmax: 0.0,
        };
        let mut g = ConductanceMatrix::filled(40, 40, 5e-6);
        let n = fm.inject(&mut g, 1e-6, 1e-5, seed);
        let frac = n as f64 / 1600.0;
        // Binomial(1600, rate): allow 5 sigma.
        let sigma = (rate * (1.0 - rate) / 1600.0).sqrt();
        prop_assert!((frac - rate).abs() <= 5.0 * sigma + 1e-9, "{} vs {}", frac, rate);
    }

    #[test]
    fn drift_is_seed_deterministic(tile in weight_tile(), seed in 0u64..1000, dt in 1.0f64..1e6) {
        let params = CrossbarParams::with_size(tile.rows());
        let model = DriftModel::new(10.0, 1e5);
        let pair = weights_to_conductances(&tile, MappingScale::PerTileMax, 1.0, &params);
        let mut a = ProgrammedPair::new(pair.clone(), model, params.g_min(), seed).unwrap();
        let mut b = ProgrammedPair::new(pair, model, params.g_min(), seed).unwrap();
        a.advance_time(dt);
        b.advance_time(dt);
        prop_assert_eq!(a.current(), b.current());
        prop_assert_eq!(a.mean_decay(), b.mean_decay());
    }

    #[test]
    fn advance_time_composes_and_is_order_independent_across_tiles(
        tile in weight_tile(),
        seed in 0u64..1000,
        a in 1.0f64..1e5,
        b in 1.0f64..1e5,
    ) {
        let params = CrossbarParams::with_size(tile.rows());
        let model = DriftModel::new(10.0, 1e5);
        let pair = weights_to_conductances(&tile, MappingScale::PerTileMax, 1.0, &params);
        // advance(a); advance(b) on one tile == advance(a + b) in one step.
        let mut two_steps = ProgrammedPair::new(pair.clone(), model, params.g_min(), seed).unwrap();
        two_steps.advance_time(a);
        two_steps.advance_time(b);
        let mut one_step = ProgrammedPair::new(pair.clone(), model, params.g_min(), seed).unwrap();
        one_step.advance_time(a + b);
        prop_assert_eq!(two_steps.current(), one_step.current());
        // Interleaving order across independent tiles does not matter: tile
        // x advanced before tile y reads the same as y before x.
        let mut x1 = ProgrammedPair::new(pair.clone(), model, params.g_min(), seed).unwrap();
        let mut y1 = ProgrammedPair::new(pair.clone(), model, params.g_min(), seed ^ 1).unwrap();
        x1.advance_time(a);
        y1.advance_time(b);
        let mut y2 = ProgrammedPair::new(pair.clone(), model, params.g_min(), seed ^ 1).unwrap();
        let mut x2 = ProgrammedPair::new(pair, model, params.g_min(), seed).unwrap();
        y2.advance_time(b);
        x2.advance_time(a);
        prop_assert_eq!(x1.current(), x2.current());
        prop_assert_eq!(y1.current(), y2.current());
    }

    #[test]
    fn zero_dt_is_bit_identical_to_undrifted(tile in weight_tile(), seed in 0u64..1000) {
        // The degenerate setting must be indistinguishable from the
        // feature being absent, down to the bit.
        let params = CrossbarParams::with_size(tile.rows());
        let model = DriftModel::new(10.0, 1e5);
        let pair = weights_to_conductances(&tile, MappingScale::PerTileMax, 1.0, &params);
        let mut pp = ProgrammedPair::new(pair.clone(), model, params.g_min(), seed).unwrap();
        pp.advance_time(0.0);
        prop_assert_eq!(pp.current(), pair.clone());
        prop_assert!(pp.is_pristine());
        prop_assert_eq!(pp.mean_decay(), 0.0);
        // And a disabled model never drifts regardless of elapsed time.
        let mut off = ProgrammedPair::new(pair.clone(), DriftModel::disabled(), params.g_min(), seed).unwrap();
        off.advance_time(1e9);
        prop_assert_eq!(off.current(), pair);
    }

    #[test]
    fn solver_is_monotone_in_parasitics(level in 0.1f64..1.0, n in 4usize..12) {
        // Doubling every parasitic resistance can only lose more current.
        let mild = {
            let mut p = CrossbarParams::with_size(n);
            p.sigma_variation = 0.0;
            p
        };
        let harsh = {
            let mut p = mild;
            p.r_driver *= 2.0;
            p.r_sense *= 2.0;
            p.r_wire_row *= 2.0;
            p.r_wire_col *= 2.0;
            p
        };
        let g_val = mild.g_min() + level * (mild.g_max() - mild.g_min());
        let g = ConductanceMatrix::filled(n, n, g_val);
        let v = vec![mild.v_read; n];
        let i_mild = NonIdealSolver::new(mild, SolveMethod::LineRelaxation)
            .effective_conductances(&g, &v)
            .unwrap();
        let i_harsh = NonIdealSolver::new(harsh, SolveMethod::LineRelaxation)
            .effective_conductances(&g, &v)
            .unwrap();
        for (a, b) in i_mild.col_currents.iter().zip(&i_harsh.col_currents) {
            prop_assert!(b <= a, "harsher parasitics must not gain current");
        }
    }
}
