//! Property-based tests for fault-tolerant tile mapping, and a model
//! re-map through the solve cache.
//!
//! The repair path promises monotonicity by construction: a spare-column
//! remap is only accepted when it reduces the tile's total weight error,
//! and digital correction is applied per cell only where the read-back
//! actually improves. These properties pin that down across random tiles,
//! fault rates, and seeds — repair must never leave a tile *less* accurate
//! than not repairing it.
//!
//! The solve cache promises invisibility: memoising tile circuit solves by
//! content hash may only skip work, never change a single bit of the mapped
//! weights. Its keying is tested where it lives (`xbar-sim`'s unit tests);
//! here a whole model is mapped twice, the second time from the cache.
//!
//! The artifact loader promises that an untrusted file fails with a typed
//! error: a truncated or bit-flipped XBARMDL artifact either loads or
//! returns an `ArtifactError`, and never panics.

use proptest::prelude::*;
use std::sync::OnceLock;
use xbar_core::artifact::{load_artifact, save_artifact, ArtifactError, ArtifactMeta};
use xbar_core::pipeline::{map_to_crossbars, MapConfig};
use xbar_core::repair::{map_tile_with_repair, RepairConfig};
use xbar_obs::metrics::counter_value;
use xbar_obs::names;
use xbar_sim::faults::FaultModel;
use xbar_sim::params::CrossbarParams;
use xbar_sim::solve::SolveMethod;
use xbar_sim::MappingScale;
use xbar_tensor::Tensor;

fn weight_tile() -> impl Strategy<Value = Tensor> {
    (3usize..9, 3usize..7).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(-1.2f32..1.2, rows * cols)
            .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]).expect("consistent"))
    })
}

fn params_with_faults(rate: f64) -> CrossbarParams {
    let mut p = CrossbarParams::with_size(8).ideal();
    p.faults = FaultModel {
        stuck_at_gmin: rate * 0.6,
        stuck_at_gmax: rate * 0.4,
    };
    p
}

/// Per-column absolute weight error of `mapped` vs the ideal `tile`.
fn column_errors(tile: &Tensor, mapped: &Tensor) -> Vec<f64> {
    (0..tile.cols())
        .map(|c| {
            (0..tile.rows())
                .map(|r| f64::from((tile.at2(r, c) - mapped.at2(r, c)).abs()))
                .sum()
        })
        .collect()
}

/// The same physical layout as repaired mapping but with every repair
/// mechanism disabled: spares exist (so the geometry matches) yet no column
/// ever qualifies for one and no correction runs.
fn no_repair_cfg(cfg: &RepairConfig) -> RepairConfig {
    RepairConfig {
        column_threshold: f64::INFINITY,
        digital_correction: false,
        ..*cfg
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Repair never decreases accuracy versus no-repair, at any fault rate
    /// (including zero): the summed column-level weight error of the
    /// repaired tile is bounded by the unrepaired one, and the reported
    /// fault score never rises.
    #[test]
    fn repair_is_never_worse_than_no_repair(
        tile in weight_tile(),
        // 0 covers the fault-free edge; 6% is past the paper's 5% sweep.
        rate in 0.0f64..0.06,
        seed in 0u64..500,
    ) {
        let params = params_with_faults(rate);
        let cfg = RepairConfig {
            column_threshold: 0.01,
            ..RepairConfig::default()
        };
        let plain = map_tile_with_repair(
            &tile, MappingScale::PerTileMax, 1.0, &params,
            SolveMethod::LineRelaxation, seed, &no_repair_cfg(&cfg),
        ).unwrap();
        let repaired = map_tile_with_repair(
            &tile, MappingScale::PerTileMax, 1.0, &params,
            SolveMethod::LineRelaxation, seed, &cfg,
        ).unwrap();

        let e_plain: f64 = column_errors(&tile, &plain.weights).iter().sum();
        let e_rep: f64 = column_errors(&tile, &repaired.weights).iter().sum();
        prop_assert!(
            e_rep <= e_plain + 1e-9,
            "rate {rate}, seed {seed}: repair worsened weight error {e_rep} vs {e_plain}"
        );

        let r = repaired.repair.as_ref().expect("repair verdict present");
        prop_assert!(
            r.fault_score <= r.pre_fault_score + 1e-12,
            "fault score rose from {} to {}", r.pre_fault_score, r.fault_score
        );
        // With no faults, repair must be a no-op.
        if rate == 0.0 {
            prop_assert!(r.remapped.is_empty());
            prop_assert_eq!(r.corrected_cells, 0);
            prop_assert_eq!(r.fault_score, 0.0);
        }
    }

    /// The repaired tile keeps the logical shape the pipeline reassembles:
    /// repair works in physical (padded) space but must hand back exactly
    /// `rows × active` weights.
    #[test]
    fn repair_preserves_logical_tile_shape(
        tile in weight_tile(),
        rate in 0.0f64..0.06,
        seed in 0u64..500,
    ) {
        let params = params_with_faults(rate);
        let mapped = map_tile_with_repair(
            &tile, MappingScale::PerTileMax, 1.0, &params,
            SolveMethod::LineRelaxation, seed, &RepairConfig::default(),
        ).unwrap();
        prop_assert_eq!(mapped.weights.shape(), tile.shape());
    }
}

/// Builds a small two-layer model with deterministic pseudo-random weights.
fn tiny_model(seed: u64) -> xbar_nn::Sequential {
    use xbar_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use xbar_nn::Layer;
    xbar_nn::Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 8, 3, 1, 1, seed)),
        Layer::ReLU(ReLU::new()),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(8 * 4 * 4, 4, seed.wrapping_add(1))),
    ])
}

fn layer_weights(model: &xbar_nn::Sequential) -> Vec<&Tensor> {
    let mut out = Vec::new();
    for layer in model.layers() {
        if let Some(conv) = layer.as_conv() {
            out.push(&conv.weight().value);
        }
        if let Some(lin) = layer.as_linear() {
            out.push(&lin.weight().value);
        }
    }
    out
}

/// A re-map replays the solve cache: mapping the same model twice gives
/// bit-identical weights and equal solver work, and every array of the
/// second map is a cache hit. Sibling tests only ever add hits, so the
/// counter check cannot fail falsely.
#[test]
fn remapping_replays_cached_solves_bit_identically() {
    let model = tiny_model(11);
    let mut params = CrossbarParams::with_size(16);
    params.sigma_variation = 0.05;
    let cfg = MapConfig {
        params,
        seed: 3,
        ..Default::default()
    };
    let run = || map_to_crossbars(&model, &cfg).unwrap();

    let (first, first_report) = run();
    let hits_before = counter_value(names::SIM_SOLVE_CACHE_HITS);
    let (second, second_report) = run();
    let hits = counter_value(names::SIM_SOLVE_CACHE_HITS) - hits_before;

    let reference = layer_weights(&first);
    let weights = layer_weights(&second);
    assert_eq!(weights.len(), reference.len());
    for (i, (a, b)) in reference.iter().zip(&weights).enumerate() {
        assert_eq!(a, b, "layer weight {i} not bit-identical on re-map");
    }
    // A hit replays the stored cold solve's stats.
    assert_eq!(
        second_report.solver_iterations(),
        first_report.solver_iterations()
    );
    // Two arrays (positive and negative) per crossbar tile.
    let arrays = 2 * second_report.crossbar_count() as u64;
    assert!(
        hits >= arrays,
        "re-map of {arrays} arrays made only {hits} cache hits"
    );
}

/// A small saved artifact whose mapped model has every layer kind, so every
/// spec parser runs.
fn saved_artifact() -> &'static [u8] {
    use xbar_nn::layers::{BatchNorm2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU};
    use xbar_nn::Layer;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let model = xbar_nn::Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, 1)),
            Layer::BatchNorm2d(BatchNorm2d::new(2)),
            Layer::ReLU(ReLU::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dropout(Dropout::new(0.25, 3)),
            Layer::Linear(Linear::new(2 * 2 * 2, 3, 2)),
        ]);
        let cfg = MapConfig {
            params: CrossbarParams::with_size(8).ideal(),
            ..Default::default()
        };
        let (mut noisy, report) = map_to_crossbars(&model, &cfg).unwrap();
        let mut meta = ArtifactMeta::from_mapping("corruption target", &cfg, &report);
        meta.input_shape = vec![1, 4, 4];
        let mut bytes = Vec::new();
        save_artifact(&mut noisy, &meta, &mut bytes).unwrap();
        load_artifact(bytes.as_slice()).expect("the intact artifact loads");
        bytes
    })
}

/// Loads `bytes` as an artifact; a panic fails the calling test, and an
/// I/O error cannot happen on an in-memory buffer.
fn load_typed(bytes: &[u8]) -> Result<(), String> {
    match load_artifact(bytes) {
        Ok(_) => Ok(()),
        Err(ArtifactError::Io(e)) => panic!("an in-memory load failed with I/O: {e}"),
        Err(e) => Err(e.to_string()),
    }
}

/// Every single-bit flip of the magic, the meta length prefix and the JSON
/// meta — where the parsers and the spec checks run — loads or fails typed.
#[test]
fn every_header_bit_flip_loads_or_fails_typed() {
    let bytes = saved_artifact();
    let header = 16 + u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let mut flipped = bytes.to_vec();
    let mut failures = 0usize;
    for bit in 0..8 * header {
        flipped[bit / 8] ^= 1 << (bit % 8);
        failures += usize::from(load_typed(&flipped).is_err());
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    assert!(failures > 0, "no flip of {header} header bytes was caught");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cutting a saved artifact short anywhere, or flipping any one bit of
    /// it, gives a model or a typed error from `load_artifact`, never a
    /// panic; a cut is always an error.
    #[test]
    fn truncated_or_bit_flipped_artifacts_fail_typed(
        truncate in prop_oneof![Just(true), Just(false)],
        at in 0.0f64..1.0,
    ) {
        let bytes = saved_artifact();
        if truncate {
            let cut = (at * bytes.len() as f64) as usize;
            prop_assert!(load_typed(&bytes[..cut]).is_err(), "a {cut}-byte prefix loaded");
        } else {
            let bit = (at * (8 * bytes.len()) as f64) as usize;
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = load_typed(&flipped);
        }
    }
}
