//! Area and energy cost model for crossbar-mapped DNNs.
//!
//! The paper motivates structured pruning by hardware resource-efficiency:
//! fewer crossbars mean less array area, fewer peripherals and less energy.
//! This module turns the mapping's crossbar counts into first-order area and
//! energy estimates, so the trade-off the paper describes — efficiency up,
//! accuracy down — can be quantified on both axes (the `tradeoff` artifact
//! in `xbar-bench` prints it).
//!
//! The constants follow the ISAAC/PUMA line of accelerator papers at a 32 nm
//! feature size; they are first-order (no wire/buffer modelling) and only
//! relative numbers are meaningful — which is all the trade-off needs.

use crate::pipeline::MapConfig;
use xbar_nn::{Layer, Sequential};
use xbar_prune::transform::transform;
use xbar_prune::unroll::unrolled_matrices;

/// First-order device/peripheral cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Feature size, nm.
    pub feature_nm: f64,
    /// Memristor cell area in F² (4F² for a crosspoint cell).
    pub cell_area_f2: f64,
    /// Per-cell read energy per MAC, fJ.
    pub cell_read_energy_fj: f64,
    /// ADC energy per column conversion, pJ.
    pub adc_energy_pj: f64,
    /// DAC/driver energy per row activation, pJ.
    pub dac_energy_pj: f64,
    /// Peripheral (ADC + DAC + mux) area per crossbar tile, µm².
    pub peripheral_area_um2: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            feature_nm: 32.0,
            cell_area_f2: 4.0,
            cell_read_energy_fj: 1.0,
            adc_energy_pj: 2.0,
            dac_energy_pj: 0.5,
            peripheral_area_um2: 1500.0,
        }
    }
}

/// Cost estimate for one mapped model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Crossbar tiles used (differential pairs count once; the factor 2 is
    /// inside the area/energy numbers).
    pub crossbars: usize,
    /// Total array + peripheral area, µm².
    pub area_um2: f64,
    /// Energy per inference (one 32×32 image), µJ.
    pub energy_uj: f64,
}

impl CostEstimate {
    /// Ratio of another estimate's area to this one's.
    pub fn area_saving_vs(&self, other: &CostEstimate) -> f64 {
        other.area_um2 / self.area_um2.max(f64::MIN_POSITIVE)
    }

    /// Ratio of another estimate's energy to this one's.
    pub fn energy_saving_vs(&self, other: &CostEstimate) -> f64 {
        other.energy_uj / self.energy_uj.max(f64::MIN_POSITIVE)
    }
}

/// Walks a model over a `32×32` input and estimates the mapped area and
/// per-inference energy under `cfg`'s crossbar size and pruning method.
///
/// Each weighted layer contributes:
/// * area: `tiles × 2 × rows × cols × cell_area + tiles × peripheral_area`;
/// * energy: every tile is activated once per output position
///   (`out_h·out_w` for convs, once for linears); each activation reads
///   `2·rows·cols` cells, drives `rows` DACs and converts `cols` ADC
///   samples.
pub fn estimate_cost(model: &Sequential, cfg: &MapConfig, cost: &CostModel) -> CostEstimate {
    let f_um = cost.feature_nm * 1e-3; // nm → µm
    let cell_area_um2 = cost.cell_area_f2 * f_um * f_um;
    let (rows, cols) = (cfg.params.rows, cfg.params.cols);
    let tile_array_area = 2.0 * (rows * cols) as f64 * cell_area_um2;

    // Walk spatial dims to know each conv's activation count.
    let mut h = 32usize;
    let mut w = 32usize;
    let mut estimate = CostEstimate::default();
    let unrolled = unrolled_matrices(model);
    let mut next_unrolled = unrolled.iter().peekable();
    for layer in model.layers() {
        let activations = match layer {
            Layer::Conv2d(conv) => {
                let geom = xbar_tensor::conv::ConvGeom {
                    in_c: conv.in_channels(),
                    h,
                    w,
                    kh: conv.kernel_size(),
                    kw: conv.kernel_size(),
                    stride: 1,
                    pad: 1,
                };
                let acts = geom.out_h() * geom.out_w();
                h = geom.out_h();
                w = geom.out_w();
                Some(acts)
            }
            Layer::Linear(_) => Some(1),
            Layer::MaxPool2d(p) => {
                h /= p.kernel_size();
                w /= p.kernel_size();
                None
            }
            _ => None,
        };
        let Some(activations) = activations else {
            continue;
        };
        let ul = next_unrolled.next().expect("weighted layers in sync");
        let t = transform(&ul.matrix, cfg.method, rows, cols);
        let tiles: usize = t
            .panels
            .iter()
            .map(|p| p.matrix.rows().div_ceil(rows) * p.matrix.cols().div_ceil(cols))
            .sum();
        estimate.crossbars += tiles;
        estimate.area_um2 += tiles as f64 * (tile_array_area + cost.peripheral_area_um2);
        let per_activation_pj = 2.0 * (rows * cols) as f64 * cost.cell_read_energy_fj * 1e-3
            + cols as f64 * cost.adc_energy_pj
            + rows as f64 * cost.dac_energy_pj;
        estimate.energy_uj += tiles as f64 * activations as f64 * per_activation_pj * 1e-6;
    }
    estimate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MapConfig;
    use xbar_nn::vgg::{VggConfig, VggVariant};
    use xbar_prune::cf::prune_cf;
    use xbar_prune::PruneMethod;
    use xbar_sim::params::CrossbarParams;

    fn model() -> Sequential {
        VggConfig::new(VggVariant::Vgg11, 10)
            .width_multiplier(0.125)
            .build(1)
    }

    #[test]
    fn dense_cost_is_positive_and_counts_match_compression_module() {
        let m = model();
        let cfg = MapConfig {
            params: CrossbarParams::with_size(32),
            ..Default::default()
        };
        let est = estimate_cost(&m, &cfg, &CostModel::default());
        assert!(est.area_um2 > 0.0 && est.energy_uj > 0.0);
        let expected = xbar_prune::compression::model_crossbar_count(&m, PruneMethod::None, 32, 32);
        assert_eq!(est.crossbars, expected);
    }

    #[test]
    fn pruning_saves_area_and_energy() {
        let mut m = model();
        let masks = prune_cf(&m, 0.7);
        masks.apply_to(&mut m);
        let dense_cfg = MapConfig {
            params: CrossbarParams::with_size(32),
            ..Default::default()
        };
        let pruned_cfg = MapConfig {
            method: PruneMethod::ChannelFilter,
            ..dense_cfg
        };
        let cost = CostModel::default();
        let dense = estimate_cost(&m, &dense_cfg, &cost);
        let pruned = estimate_cost(&m, &pruned_cfg, &cost);
        assert!(pruned.crossbars < dense.crossbars);
        assert!(pruned.area_saving_vs(&dense) > 1.0);
        assert!(pruned.energy_saving_vs(&dense) > 1.0);
    }

    #[test]
    fn bigger_tiles_fewer_crossbars_but_pricier_each() {
        let m = model();
        let cost = CostModel::default();
        let small = estimate_cost(
            &m,
            &MapConfig {
                params: CrossbarParams::with_size(16),
                ..Default::default()
            },
            &cost,
        );
        let large = estimate_cost(
            &m,
            &MapConfig {
                params: CrossbarParams::with_size(64),
                ..Default::default()
            },
            &cost,
        );
        assert!(large.crossbars < small.crossbars);
        // Peripheral sharing means large tiles win on area for dense layers.
        assert!(large.area_um2 < small.area_um2);
    }

    #[test]
    fn energy_scales_with_activation_count() {
        // A conv layer is activated per output pixel; the same weights as a
        // linear layer would be activated once.
        let mut conv_model = Sequential::new(vec![xbar_nn::Layer::Conv2d(
            xbar_nn::layers::Conv2d::new(3, 8, 3, 1, 1, 1),
        )]);
        let lin_model = Sequential::new(vec![xbar_nn::Layer::Linear(
            xbar_nn::layers::Linear::new(27, 8, 1),
        )]);
        let cfg = MapConfig {
            params: CrossbarParams::with_size(32),
            ..Default::default()
        };
        let cost = CostModel::default();
        let conv_cost = estimate_cost(&conv_model, &cfg, &cost);
        let lin_cost = estimate_cost(&lin_model, &cfg, &cost);
        assert_eq!(conv_cost.crossbars, lin_cost.crossbars);
        assert!(conv_cost.energy_uj > 100.0 * lin_cost.energy_uj);
        let _ = conv_model.num_params();
    }
}
