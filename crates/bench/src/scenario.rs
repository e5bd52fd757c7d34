//! Experiment scenarios: dataset + model + pruning + training.

use std::path::Path;
use xbar_data::{CifarLikeConfig, Dataset, Split};
use xbar_nn::train::{evaluate, train, DataRef, TrainConfig, WeightConstraint};
use xbar_nn::vgg::{VggConfig, VggVariant};
use xbar_nn::Sequential;
use xbar_prune::{cf::prune_cf, xcs::prune_xcs, xrs::prune_xrs, MaskSet, PruneMethod};

/// Which synthetic dataset regime to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 10-class CIFAR10-like task (paper uses s = 0.8 here).
    Cifar10Like,
    /// 100-class CIFAR100-like task (paper uses s = 0.6 here).
    Cifar100Like,
}

impl DatasetKind {
    /// Paper display name of the dataset being mimicked.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Cifar10Like => "CIFAR10-like",
            DatasetKind::Cifar100Like => "CIFAR100-like",
        }
    }

    /// The sparsity ratio the paper pairs with this dataset.
    pub fn paper_sparsity(&self) -> f64 {
        match self {
            DatasetKind::Cifar10Like => 0.8,
            DatasetKind::Cifar100Like => 0.6,
        }
    }
}

/// How large to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// VGG width multiplier.
    pub width: f64,
    /// Training examples.
    pub train_size: usize,
    /// Test examples.
    pub test_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl ExperimentScale {
    /// CPU-minutes scale used by default: width-1/4 VGG, ~1k synthetic
    /// training images, 6 epochs. This is the setting the circuit defaults
    /// were calibrated against; it reproduces the paper's relative effects
    /// with magnitudes close to Table I / Fig. 3.
    pub fn quick() -> Self {
        Self {
            width: 0.25,
            train_size: 1000,
            test_size: 400,
            epochs: 6,
            batch_size: 32,
        }
    }

    /// A larger setting (width-1/2, more data/epochs) for `--full` runs.
    pub fn full() -> Self {
        Self {
            width: 0.5,
            train_size: 4000,
            test_size: 1000,
            epochs: 10,
            batch_size: 32,
        }
    }

    /// Tiny setting for tests and `suite --smoke`.
    pub fn smoke() -> Self {
        Self {
            width: 0.125,
            train_size: 200,
            test_size: 100,
            epochs: 2,
            batch_size: 32,
        }
    }
}

/// A fully specified experiment scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// VGG11 or VGG16.
    pub variant: VggVariant,
    /// Dataset regime.
    pub dataset: DatasetKind,
    /// Structured-pruning method.
    pub method: PruneMethod,
    /// Sparsity ratio `s` (ignored for `PruneMethod::None`).
    pub sparsity: f64,
    /// Crossbar segment size used by XCS/XRS pruning (the paper's canonical
    /// 32).
    pub segment: usize,
    /// Run size.
    pub scale: ExperimentScale,
    /// Master seed.
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the paper's canonical sparsity for the dataset.
    pub fn new(
        variant: VggVariant,
        dataset: DatasetKind,
        method: PruneMethod,
        scale: ExperimentScale,
    ) -> Self {
        Self {
            variant,
            dataset,
            method,
            sparsity: dataset.paper_sparsity(),
            segment: 32,
            scale,
            seed: 42,
        }
    }

    /// Overrides the sparsity ratio.
    pub fn with_sparsity(mut self, s: f64) -> Self {
        self.sparsity = s;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the scenario's dataset (deterministic).
    pub fn dataset(&self) -> Dataset {
        let base = match self.dataset {
            DatasetKind::Cifar10Like => CifarLikeConfig::cifar10_like(),
            DatasetKind::Cifar100Like => CifarLikeConfig::cifar100_like(),
        };
        // 100-class runs need more examples per class to train at all; scale
        // both splits up rather than starving them (10 images/class at the
        // quick scale would be meaningless).
        let factor = match self.dataset {
            DatasetKind::Cifar10Like => 1,
            DatasetKind::Cifar100Like => 2,
        };
        base.train_size(self.scale.train_size * factor)
            .test_size(self.scale.test_size * factor)
            .generate(self.seed ^ 0xDA7A)
    }

    /// The training recipe for this scenario. VGG16 is deep enough that the
    /// VGG11 recipe diverges early at this batch size; it gets a gentler
    /// learning rate and proportionally more epochs so unpruned and pruned
    /// models reach comparable software accuracy (the paper's iso-accuracy
    /// setup).
    fn train_recipe(&self) -> TrainConfig {
        let (lr, epochs) = match self.variant {
            VggVariant::Vgg11 => (0.05f32, self.scale.epochs),
            VggVariant::Vgg16 => (0.02, self.scale.epochs * 3 / 2),
        };
        let mut cfg = TrainConfig {
            epochs,
            batch_size: self.scale.batch_size,
            lr_decay: 0.4,
            lr_decay_epochs: vec![epochs * 6 / 10, epochs * 8 / 10],
            seed: self.seed,
            ..TrainConfig::default()
        };
        cfg.sgd.lr = lr;
        cfg
    }

    /// Builds, prunes (at initialisation) and trains the model; returns the
    /// trained model, its masks and the software test accuracy.
    ///
    /// # Panics
    ///
    /// Panics if training fails on an internal shape error (a bug, not a
    /// user error).
    pub fn train_model(&self, data: &Dataset) -> TrainedModel {
        let num_classes = data.num_classes();
        let (mut model, masks) = self.build_model(num_classes);
        let train_cfg = self.train_recipe();
        let train_ref = DataRef::new(data.images(Split::Train), data.labels(Split::Train))
            .expect("dataset is well-formed");
        let constraint: Option<&dyn WeightConstraint> =
            masks.as_ref().map(|m| m as &dyn WeightConstraint);
        train(&mut model, train_ref, &train_cfg, constraint).expect("training is shape-safe");
        let test_ref = DataRef::new(data.images(Split::Test), data.labels(Split::Test))
            .expect("dataset is well-formed");
        let software_accuracy =
            evaluate(&mut model, test_ref, 64).expect("evaluation is shape-safe");
        TrainedModel {
            model,
            masks,
            software_accuracy,
            scenario: *self,
        }
    }
}

/// A trained (possibly pruned) model ready for crossbar mapping.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The trained network (masks already applied).
    pub model: Sequential,
    /// Pruning masks, if any.
    pub masks: Option<MaskSet>,
    /// Software test accuracy.
    pub software_accuracy: f64,
    /// The scenario that produced it.
    pub scenario: Scenario,
}

impl Scenario {
    /// Builds the scenario's untrained (but pruned-at-init) model and its
    /// masks. Deterministic in the seed, which is what lets the disk cache
    /// below store only trained parameter values.
    pub fn build_model(&self, num_classes: usize) -> (Sequential, Option<MaskSet>) {
        let model_cfg =
            VggConfig::new(self.variant, num_classes).width_multiplier(self.scale.width);
        let mut model = model_cfg.build(self.seed);
        let masks = match self.method {
            PruneMethod::None => None,
            PruneMethod::ChannelFilter => Some(prune_cf(&model, self.sparsity)),
            PruneMethod::XbarColumn => Some(prune_xcs(&model, self.sparsity, self.segment)),
            PruneMethod::XbarRow => Some(prune_xrs(&model, self.sparsity, self.segment)),
        };
        if let Some(masks) = &masks {
            masks.apply_to(&mut model);
        }
        (model, masks)
    }

    /// A deterministic cache key covering every field that affects training,
    /// including the recipe (so recipe changes invalidate stale entries).
    ///
    /// Public because the suite orchestrator also uses it as the identity
    /// under which scenarios shared by several artifacts are deduplicated:
    /// two scenarios with equal keys train to bit-identical models.
    pub fn cache_key(&self) -> String {
        let recipe = self.train_recipe();
        // Bumped when a pruning method's semantics change (v2: XCS/XRS
        // exempt the input layer).
        let prune_version = match self.method {
            PruneMethod::XbarColumn | PruneMethod::XbarRow => "v2_",
            _ => "",
        };
        format!(
            "{prune_version}{}_{}_{}_s{:.3}_seg{}_w{:.3}_n{}_e{}_b{}_lr{:.4}_seed{}",
            self.variant,
            self.dataset.name().replace('-', ""),
            self.method.to_string().replace('/', ""),
            self.sparsity,
            self.segment,
            self.scale.width,
            self.scale.train_size,
            recipe.epochs,
            self.scale.batch_size,
            recipe.sgd.lr,
            self.seed,
        )
    }

    /// Like [`Scenario::train_model`] but backed by a disk cache in the
    /// `cache/` directory of `results`, so the many artifacts and runs that
    /// share scenarios (e.g. the unpruned VGG11 baseline) train each model
    /// only once. An entry that is missing,
    /// unreadable or in an older format is a miss: the scenario retrains
    /// and the entry is rewritten.
    ///
    /// Hits and misses are counted in the `bench/scenario_cache_hits` /
    /// `bench/scenario_cache_misses` metrics; the suite orchestrator uses
    /// the deltas to prove each unique scenario trained at most once.
    ///
    /// # Panics
    ///
    /// Panics if the cache entry cannot be written.
    pub fn train_model_cached(&self, data: &Dataset, results: &Path) -> TrainedModel {
        let dir = results.join("cache");
        let path = dir.join(format!("{}.xbarmodel", self.cache_key()));
        if let Some(tm) = self.try_load(&path, data) {
            xbar_obs::metrics::counter_add(xbar_obs::names::BENCH_SCENARIO_CACHE_HITS, 1);
            xbar_obs::event!("cache_loaded", path = path.display().to_string());
            return tm;
        }
        xbar_obs::metrics::counter_add(xbar_obs::names::BENCH_SCENARIO_CACHE_MISSES, 1);
        let tm = self.train_model(data);
        std::fs::create_dir_all(&dir).expect("create cache dir");
        let mut model = tm.model.clone();
        cache_io::save(&path, &mut model, tm.software_accuracy).expect("write model cache");
        tm
    }

    fn try_load(&self, path: &Path, data: &Dataset) -> Option<TrainedModel> {
        let (mut model, masks) = self.build_model(data.num_classes());
        let software_accuracy = cache_io::load_into(path, &mut model)?;
        Some(TrainedModel {
            model,
            masks,
            software_accuracy,
            scenario: *self,
        })
    }
}

mod cache_io {
    //! Cached trained models: the parameter checkpoint (via
    //! `xbar_nn::checkpoint`) followed by the software accuracy as
    //! little-endian f64.

    use std::io::Write;
    use std::path::Path;
    use xbar_nn::checkpoint::{load_params, save_params};
    use xbar_nn::Sequential;

    pub fn save(path: &Path, model: &mut Sequential, acc: f64) -> std::io::Result<()> {
        let mut buf: Vec<u8> = Vec::new();
        save_params(model, &mut buf).map_err(std::io::Error::other)?;
        buf.extend_from_slice(&acc.to_le_bytes());
        // Atomic rename so a killed run cannot leave a truncated cache
        // entry that poisons every later run of the scenario.
        xbar_nn::serialize::write_file_atomic(path, |f| f.write_all(&buf))
    }

    /// Loads the cached state into `model` and returns the cached software
    /// accuracy, or `None` for a missing, corrupt, older-format or
    /// mismatched entry.
    pub fn load_into(path: &Path, model: &mut Sequential) -> Option<f64> {
        let bytes = std::fs::read(path).ok()?;
        let (ckpt, acc_bytes) = bytes.split_at(bytes.len().checked_sub(8)?);
        load_params(model, ckpt).ok()?;
        Some(f64::from_le_bytes(acc_bytes.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_results(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xbar_cache_test_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn cache_round_trip_restores_model_and_accuracy() {
        let dir = temp_results("round_trip");
        let sc = Scenario::new(
            VggVariant::Vgg11,
            DatasetKind::Cifar10Like,
            PruneMethod::ChannelFilter,
            ExperimentScale::smoke(),
        );
        let data = sc.dataset();
        let trained = sc.train_model_cached(&data, &dir); // miss → train + save
        let loaded = sc.train_model_cached(&data, &dir); // hit → load
        assert_eq!(loaded.software_accuracy, trained.software_accuracy);
        let mut a = trained.model.clone();
        let mut b = loaded.model.clone();
        let sa: Vec<xbar_tensor::Tensor> = a
            .state_tensors_mut()
            .into_iter()
            .map(|t| t.clone())
            .collect();
        let sb: Vec<xbar_tensor::Tensor> = b
            .state_tensors_mut()
            .into_iter()
            .map(|t| t.clone())
            .collect();
        assert_eq!(sa, sb, "full state (incl. BN stats) must round-trip");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_format_cache_entry_is_a_miss_and_is_rewritten() {
        let dir = temp_results("old_format");
        let sc = Scenario::new(
            VggVariant::Vgg11,
            DatasetKind::Cifar10Like,
            PruneMethod::None,
            ExperimentScale::smoke(),
        );
        let data = sc.dataset();
        let path = dir
            .join("cache")
            .join(format!("{}.xbarmodel", sc.cache_key()));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        // A current-format entry of the untrained model loads...
        let (mut model, _) = sc.build_model(data.num_classes());
        cache_io::save(&path, &mut model, 0.5).unwrap();
        assert_eq!(sc.try_load(&path, &data).unwrap().software_accuracy, 0.5);
        // ...but the retired layout, parameters without BatchNorm statistics
        // under either magic it was written with, is a miss.
        let params = model.params_mut();
        let mut body = Vec::new();
        xbar_nn::serialize::write_tensor_block(&mut body, params.iter().map(|p| &p.value)).unwrap();
        for magic in [b"XBARCKP1", b"XBARMDL1"] {
            let mut old = magic.to_vec();
            old.extend_from_slice(&body);
            old.extend_from_slice(&0.5f64.to_le_bytes());
            std::fs::write(&path, &old).unwrap();
            assert!(sc.try_load(&path, &data).is_none(), "{magic:?} must miss");
        }
        // The cached path retrains and rewrites the entry in today's format.
        let trained = sc.train_model_cached(&data, &dir);
        let reloaded = sc.try_load(&path, &data).expect("rewritten entry loads");
        assert_eq!(reloaded.software_accuracy, trained.software_accuracy);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn smoke_scenario_trains_and_masks() {
        let sc = Scenario::new(
            VggVariant::Vgg11,
            DatasetKind::Cifar10Like,
            PruneMethod::ChannelFilter,
            ExperimentScale::smoke(),
        );
        let data = sc.dataset();
        let tm = sc.train_model(&data);
        assert!(tm.software_accuracy >= 0.0 && tm.software_accuracy <= 1.0);
        let masks = tm.masks.as_ref().unwrap();
        let mut model = tm.model.clone();
        // Masks held through training.
        assert!(masks.observed_sparsity(&mut model) > 0.4);
    }

    #[test]
    fn unpruned_scenario_has_no_masks() {
        let sc = Scenario::new(
            VggVariant::Vgg11,
            DatasetKind::Cifar10Like,
            PruneMethod::None,
            ExperimentScale::smoke(),
        );
        let data = sc.dataset();
        let tm = sc.train_model(&data);
        assert!(tm.masks.is_none());
    }

    #[test]
    fn dataset_kind_metadata() {
        assert_eq!(DatasetKind::Cifar10Like.paper_sparsity(), 0.8);
        assert_eq!(DatasetKind::Cifar100Like.paper_sparsity(), 0.6);
        assert!(DatasetKind::Cifar100Like.name().contains("100"));
    }
}
