//! # xbar-core
//!
//! The paper's hardware evaluation framework (Fig. 2) and its two
//! non-ideality mitigation strategies, built on the workspace substrates:
//!
//! 1. **Unroll** — every conv/linear layer becomes a `fan_in × fan_out`
//!    weight matrix (`xbar_prune::unroll`);
//! 2. **T transformation** — pruning structure is eliminated before mapping
//!    (`xbar_prune::transform`);
//! 3. **R transformation** ([`rearrange`]) — optional crossbar-column
//!    rearrangement: columns ordered by `(μ·σ)^½` so low-conductance columns
//!    share tiles (Section VI-A);
//! 4. **Partition** ([`partition`]) — panels are tiled into crossbar
//!    instances, zero-padded at the edges;
//! 5. **Functional modelling** — each tile is simulated on a non-ideal
//!    differential crossbar pair (`xbar_sim`), producing non-ideal weights
//!    `W'` and NF statistics;
//! 6. **Inverse transformations** — `R⁻¹` and `T⁻¹` reassemble each layer,
//!    and the perturbed weights are written back into a clone of the model
//!    for inference ([`pipeline`]).
//!
//! [`wct`] implements Weight-Constrained-Training (Section VI-B): a cut-off
//! `W_cut` from the trained weight distribution, clamping, and a short
//! constrained retrain; mapped with a *fixed* conductance scale so the
//! clamped network genuinely occupies low conductances (see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use xbar_core::pipeline::{map_to_crossbars, MapConfig};
//! use xbar_nn::vgg::{VggConfig, VggVariant};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = VggConfig::new(VggVariant::Vgg11, 10)
//!     .width_multiplier(0.125)
//!     .build(0);
//! let cfg = MapConfig::default();
//! let (noisy, report) = map_to_crossbars(&model, &cfg)?;
//! assert_eq!(noisy.len(), model.len());
//! assert!(report.mean_nf() >= 0.0);
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod cost;
pub mod drift;
pub mod evaluate;
pub mod exact_inference;
pub mod heatmap;
pub mod mmap;
pub mod partition;
pub mod pipeline;
pub mod rearrange;
pub mod recalibrate;
pub mod repair;
pub mod wct;

pub use artifact::{
    load_artifact_bundle_mmap, load_artifact_from_file, save_artifact_to_file, ArtifactBundle,
    ArtifactMeta,
};
pub use drift::{DriftModel, DriftStatus, ModelDriftState};
pub use mmap::MappedFile;
pub use pipeline::{map_to_crossbars, MapConfig, MapError, MapReport};
pub use rearrange::{ColumnOrder, Rearrangement};
pub use repair::RepairConfig;
