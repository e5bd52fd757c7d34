//! Cross-crate property-based tests (proptest) on the invariants the
//! reproduction relies on:
//!
//! * `T⁻¹ ∘ T = id` and `R⁻¹ ∘ R = id` on random sparse matrices;
//! * partition/reassemble round trips for arbitrary panel and tile sizes;
//! * the weight ↔ conductance mapping round-trips and stays within device
//!   bounds;
//! * the circuit solvers agree and never create current from nothing;
//! * pruning masks hit the requested sparsity at segment granularity.

use proptest::prelude::*;
use xbar_repro::core::partition::{partition, reassemble};
use xbar_repro::core::rearrange::{ColumnOrder, Rearrangement};
use xbar_repro::prune::transform::transform;
use xbar_repro::prune::PruneMethod;
use xbar_repro::sim::conductance::{
    conductances_to_weights, weights_to_conductances, ConductanceMatrix, MappingScale,
};
use xbar_repro::sim::params::CrossbarParams;
use xbar_repro::sim::solve::{NonIdealSolver, SolveMethod};
use xbar_repro::tensor::Tensor;

/// Strategy: a small 2-D matrix with some exact zeros (sparse structure).
fn sparse_matrix() -> impl Strategy<Value = Tensor> {
    ((1usize..12), (1usize..12)).prop_flat_map(|(r, c)| {
        proptest::collection::vec(prop_oneof![3 => -2.0f32..2.0, 2 => Just(0.0f32)], r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]).expect("consistent shape"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transform_invert_is_identity(m in sparse_matrix(), rows in 1usize..6, cols in 1usize..6) {
        for method in [
            PruneMethod::None,
            PruneMethod::ChannelFilter,
            PruneMethod::XbarColumn,
            PruneMethod::XbarRow,
        ] {
            let t = transform(&m, method, rows, cols);
            let panels: Vec<Tensor> = t.panels.iter().map(|p| p.matrix.clone()).collect();
            let back = t.invert(&panels);
            // T⁻¹∘T restores every weight that T kept; everything else was
            // exactly zero in the original (T only eliminates zeros).
            prop_assert_eq!(back.shape(), m.shape());
            for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
                if *b != 0.0 || method == PruneMethod::None {
                    prop_assert_eq!(a, b);
                }
            }
            // Elements dropped by T must have been zero.
            for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
                if *b == 0.0 {
                    prop_assert!(*a == 0.0 || method != PruneMethod::None);
                }
            }
        }
    }

    #[test]
    fn rearrange_invert_is_identity(m in sparse_matrix(), tile in 1usize..8) {
        for order in [
            ColumnOrder::Ascending,
            ColumnOrder::Descending,
            ColumnOrder::CenterOut,
            ColumnOrder::GroupedDescending,
        ] {
            let r = Rearrangement::compute(&m, order, tile);
            let round = r.invert(&r.apply(&m));
            prop_assert_eq!(&round, &m);
        }
    }

    #[test]
    fn partition_reassemble_round_trips(
        m in sparse_matrix(),
        rows in 1usize..9,
        cols in 1usize..9,
    ) {
        let tiles = partition(&m, rows, cols);
        prop_assert_eq!(
            tiles.len(),
            m.rows().div_ceil(rows) * m.cols().div_ceil(cols)
        );
        for t in &tiles {
            prop_assert_eq!(t.weights.shape(), &[rows, cols]);
        }
        let back = reassemble(&tiles, m.rows(), m.cols());
        prop_assert_eq!(&back, &m);
    }

    #[test]
    fn conductance_round_trip(m in sparse_matrix()) {
        let params = CrossbarParams::with_size(8);
        let pair = weights_to_conductances(&m, MappingScale::PerTileMax, 1.0, &params);
        // Every device within physical bounds.
        for g in pair.pos.as_slice().iter().chain(pair.neg.as_slice()) {
            prop_assert!(*g >= params.g_min() - 1e-15);
            prop_assert!(*g <= params.g_max() + 1e-15);
        }
        let back = conductances_to_weights(&pair, &params);
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-5 * m.abs_max().max(1.0), "{} vs {}", a, b);
        }
    }

    #[test]
    fn circuit_never_creates_current(level in 0.0f64..1.0, n in 2usize..12) {
        let params = CrossbarParams::with_size(n).ideal();
        let mut nonideal = CrossbarParams::with_size(n);
        nonideal.sigma_variation = 0.0;
        let g_val = params.g_min() + level * (params.g_max() - params.g_min());
        let g = ConductanceMatrix::filled(n, n, g_val);
        let v = vec![nonideal.v_read; n];
        let out = NonIdealSolver::new(nonideal, SolveMethod::LineRelaxation)
            .effective_conductances(&g, &v)
            .expect("solves");
        for (actual, ideal) in out.col_currents.iter().zip(&out.ideal_currents) {
            prop_assert!(*actual > 0.0);
            prop_assert!(actual <= ideal, "parasitics cannot amplify current");
        }
    }

    #[test]
    fn solvers_agree_on_random_crossbars(
        seed in 0u64..1000,
        rows in 1usize..8,
        cols in 1usize..8,
    ) {
        let params = CrossbarParams::with_size(rows.max(cols));
        let mut g = ConductanceMatrix::filled(rows, cols, 0.0);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for i in 0..rows {
            for j in 0..cols {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let f = (s % 1000) as f64 / 1000.0;
                g.set(i, j, params.g_min() + f * (params.g_max() - params.g_min()));
            }
        }
        let v = vec![params.v_read; rows];
        let exact = NonIdealSolver::new(params, SolveMethod::DenseExact)
            .effective_conductances(&g, &v)
            .expect("exact");
        let lines = NonIdealSolver::new(params, SolveMethod::LineRelaxation)
            .effective_conductances(&g, &v)
            .expect("lines");
        prop_assert_eq!(exact.col_currents.len(), cols);
        prop_assert_eq!(lines.col_currents.len(), cols);
        for (a, b) in exact.col_currents.iter().zip(&lines.col_currents) {
            prop_assert!(((a - b) / a).abs() < 1e-5);
        }
    }

    #[test]
    fn xcs_masks_preserve_segment_structure(
        s in 0.0f64..0.9,
        seg in prop_oneof![Just(4usize), Just(8usize)],
    ) {
        use xbar_repro::nn::layers::Linear;
        use xbar_repro::nn::{Layer, Sequential};
        use xbar_repro::prune::xcs::prune_xcs;
        let model = Sequential::new(vec![Layer::Linear(Linear::new(16, 12, 3))]);
        let masks = prune_xcs(&model, s, seg);
        if s == 0.0 {
            prop_assert!(masks.masks().is_empty());
        } else if let Some(lm) = masks.for_layer(0) {
            // Every segment (stored row = unrolled column) all-or-nothing.
            for r in 0..12 {
                let row = lm.mask.row(r);
                for chunk in row.chunks(seg) {
                    let all_zero = chunk.iter().all(|&x| x == 0.0);
                    let all_one = chunk.iter().all(|&x| x == 1.0);
                    prop_assert!(all_zero || all_one);
                }
            }
        }
    }
}
