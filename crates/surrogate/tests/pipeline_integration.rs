//! End-to-end: a trained surrogate plugged into the mapping pipeline must
//! reproduce the exact solver's `W'` weights closely, and must do so
//! deterministically from run to run. (That the tensor kernels give the same
//! bits at any worker count is `xbar-tensor`'s own test.)

use proptest::prelude::*;
use xbar_core::pipeline::{map_to_crossbars, map_to_crossbars_with, MapConfig};
use xbar_nn::layers::Linear;
use xbar_nn::{Layer, Sequential};
use xbar_sim::conductance::ConductanceMatrix;
use xbar_sim::params::CrossbarParams;
use xbar_surrogate::{train_surrogate, TrainConfig};

fn quick_train(seed: u64) -> TrainConfig {
    let mut params = CrossbarParams::with_size(8);
    params.sigma_variation = 0.0;
    TrainConfig {
        pairs: 320,
        holdout: 48,
        hidden: 32,
        epochs: 240,
        batch: 32,
        lr: 0.05,
        seed,
        params,
    }
}

#[test]
fn emulated_mapping_tracks_the_exact_solver() {
    let cfg = quick_train(11);
    let surrogate = train_surrogate(&cfg).unwrap();
    let model = Sequential::new(vec![Layer::Linear(Linear::new(8, 8, 5))]);
    let map_cfg = MapConfig {
        params: cfg.params,
        ..Default::default()
    };
    let (exact, exact_report) = map_to_crossbars(&model, &map_cfg).unwrap();
    let (emulated, emu_report) = map_to_crossbars_with(&model, &map_cfg, Some(&surrogate)).unwrap();

    // The emulated fold is per-column (coarser than the exact per-synapse
    // G'), so weights agree to a few percent of the weight scale, not
    // bit-for-bit.
    let w_scale = model
        .layers()
        .iter()
        .flat_map(|l| l.as_linear())
        .map(|l| l.weight().value.abs_max())
        .fold(0.0f32, f32::max);
    let mut max_diff = 0.0f32;
    for (a, b) in exact
        .layers()
        .iter()
        .zip(emulated.layers())
        .flat_map(|(a, b)| a.as_linear().zip(b.as_linear()))
        .flat_map(|(a, b)| {
            a.weight()
                .value
                .as_slice()
                .iter()
                .zip(b.weight().value.as_slice())
        })
    {
        max_diff = max_diff.max((a - b).abs());
    }
    assert!(
        max_diff < 0.05 * w_scale,
        "emulated W'' drifted {max_diff} from exact W' (scale {w_scale})"
    );
    // Both mappings see the same non-ideality regime.
    assert!(
        (exact_report.mean_nf() - emu_report.mean_nf()).abs() < 0.02,
        "mean NF disagrees: exact {} vs emulated {}",
        exact_report.mean_nf(),
        emu_report.mean_nf()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite: surrogate training and inference are deterministic across
    /// runs for a fixed seed.
    #[test]
    fn inference_is_deterministic_across_runs(seed in 0u64..1u64 << 16) {
        let cfg = {
            // Train fast: determinism, not accuracy, is under test.
            let mut c = quick_train(seed);
            c.pairs = 48;
            c.holdout = 8;
            c.epochs = 4;
            c
        };
        let a = train_surrogate(&cfg).unwrap();
        let b = train_surrogate(&cfg).unwrap();
        prop_assert_eq!(a.meta(), b.meta());

        let g = ConductanceMatrix::from_vec(
            8,
            8,
            (0..64).map(|i| 1e-6 + (i as f64 % 9.0) * 1e-6).collect(),
        );
        let v = vec![cfg.params.v_read; 8];
        let one = a.predict_currents(&g, &v).unwrap();
        let other = b.predict_currents(&g, &v).unwrap();
        prop_assert_eq!(one, other, "a second run changed the prediction");
    }
}
