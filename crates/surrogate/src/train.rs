//! Surrogate training: plain MSE regression with SGD over solver-labelled
//! pairs, with a held-out validation split whose error becomes the
//! artifact's accuracy contract.

use crate::net::{current_scale, encode_query, Surrogate, RATIO_CLAMP, RATIO_GAIN};
use crate::pairs::generate_pairs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xbar_core::artifact::{surrogate_input_dim, SurrogateMeta};
use xbar_nn::layers::{Linear, ReLU};
use xbar_nn::optim::{Sgd, SgdConfig};
use xbar_nn::{Layer, Mode, Sequential};
use xbar_obs::{metrics, names};
use xbar_sim::params::CrossbarParams;
use xbar_tensor::Tensor;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Tile geometry and device parameters the surrogate is trained for.
    pub params: CrossbarParams,
    /// Total solver-labelled pairs to generate.
    pub pairs: usize,
    /// Pairs held out of training; their error is the validation contract.
    pub holdout: usize,
    /// Hidden width of the MLP.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Initial learning rate (stepped down late in training).
    pub lr: f32,
    /// Seed for pair sampling, net init, and shuffling.
    pub seed: u64,
}

impl TrainConfig {
    /// Defaults that land low-single-digit-percent held-out max error on
    /// 16×16–64×64 tiles in a few seconds of CPU training. The hidden
    /// width is deliberately small: with the aggregate feature layout the
    /// ratio-deviation target is near-linear, and a wider net buys no
    /// accuracy while eroding the tile-eval speedup the bench gate
    /// enforces.
    pub fn for_params(params: CrossbarParams) -> Self {
        Self {
            params,
            pairs: 768,
            holdout: 128,
            hidden: 32,
            epochs: 160,
            batch: 32,
            lr: 0.05,
            seed: 0xCBA8,
        }
    }
}

/// Trains a surrogate for `cfg.params`-shaped tiles against the exact
/// solver, recording held-out max/RMS current error (relative to the
/// largest exact current in the split) in the returned surrogate's meta
/// and as `surrogate/val_*` gauges.
///
/// Deterministic for a fixed config: pair sampling, initialisation, and
/// shuffling all derive from `cfg.seed`.
///
/// # Errors
///
/// Returns a descriptive message for inconsistent configuration, solver
/// failures during pair generation, or shape errors during training.
pub fn train_surrogate(cfg: &TrainConfig) -> Result<Surrogate, String> {
    if cfg.holdout == 0 || cfg.pairs <= cfg.holdout {
        return Err(format!(
            "training needs pairs > holdout > 0, got pairs = {}, holdout = {}",
            cfg.pairs, cfg.holdout
        ));
    }
    if cfg.hidden == 0 || cfg.epochs == 0 || cfg.batch == 0 {
        return Err(format!(
            "hidden, epochs, and batch must be positive, got {}, {}, {}",
            cfg.hidden, cfg.epochs, cfg.batch
        ));
    }
    let p = &cfg.params;
    let (rows, cols) = (p.rows, p.cols);
    let in_dim = surrogate_input_dim(rows, cols);
    let mut meta = SurrogateMeta {
        rows,
        cols,
        g_min: p.g_min(),
        g_max: p.g_max(),
        v_read: p.v_read,
        val_max_err: 0.0,
        val_rms_err: 0.0,
        train_pairs: cfg.pairs - cfg.holdout,
        seed: cfg.seed,
        arch: Vec::new(),
    };

    let pairs = generate_pairs(p, cfg.pairs, cfg.seed)?;
    let scale = current_scale(&meta);
    let mut features = Vec::with_capacity(cfg.pairs * in_dim);
    let mut targets = Vec::with_capacity(cfg.pairs * cols);
    for pair in &pairs {
        encode_query(&meta, &pair.g, &pair.v, &mut features);
        // The net learns the amplified per-column current-ratio deviation
        // from the ideal current (its own last feature block) — see
        // `net::RATIO_GAIN`.
        let row = features.len() - in_dim;
        for (c, &exact) in pair.currents.iter().enumerate() {
            let ideal = features[row + in_dim - cols + c] as f64;
            let dev = if ideal > 0.0 {
                (exact / scale / ideal - 1.0).clamp(-RATIO_CLAMP, RATIO_CLAMP)
            } else {
                0.0
            };
            targets.push((dev * RATIO_GAIN) as f32);
        }
    }

    // Deterministic split: shuffle indices, first `holdout` become the
    // validation set.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5D0_77E5);
    let mut order: Vec<usize> = (0..cfg.pairs).collect();
    shuffle(&mut order, &mut rng);
    let (val_idx, train_idx) = order.split_at(cfg.holdout);

    let mut net = Sequential::new(vec![
        Layer::Linear(Linear::new(in_dim, cfg.hidden, cfg.seed)),
        Layer::ReLU(ReLU::new()),
        Layer::Linear(Linear::new(
            cfg.hidden,
            cols,
            cfg.seed ^ 0x9E37_79B9_7F4A_7C15,
        )),
    ]);

    let mut train_idx = train_idx.to_vec();
    for epoch in 0..cfg.epochs {
        // Step the learning rate down twice: the net is fitting
        // sub-percent residuals by the back half of training.
        let lr = if 5 * epoch >= 4 * cfg.epochs {
            cfg.lr * 0.02
        } else if 2 * epoch >= cfg.epochs {
            cfg.lr * 0.2
        } else {
            cfg.lr
        };
        let sgd = Sgd::new(SgdConfig {
            lr,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        shuffle(&mut train_idx, &mut rng);
        for chunk in train_idx.chunks(cfg.batch) {
            let x = gather(&features, chunk, in_dim);
            let t = gather(&targets, chunk, cols);
            let pred = net
                .forward(&x, Mode::Train)
                .map_err(|e| format!("surrogate forward: {e}"))?;
            // Mean over the batch, sum over columns: with a per-element
            // mean the gradient shrinks with the tile width and the net
            // never learns past the bias.
            let n = chunk.len() as f32;
            let grad = Tensor::from_fn(pred.shape(), |i| {
                2.0 * (pred.as_slice()[i] - t.as_slice()[i]) / n
            });
            net.backward(&grad)
                .map_err(|e| format!("surrogate backward: {e}"))?;
            sgd.step(&mut net);
            net.zero_grad();
        }
    }

    // Held-out validation, in physical units, relative to the largest
    // exact current in the split — the contract recorded in artifact meta.
    let x = gather(&features, val_idx, in_dim);
    let t = gather(&targets, val_idx, cols);
    let pred = net
        .forward(&x, Mode::Eval)
        .map_err(|e| format!("surrogate validation forward: {e}"))?;
    // Reconstruct currents (normalised units) from the ratio deviations;
    // errors are reported relative to the split's largest exact current.
    let current_at = |dev: f64, row: usize, c: usize| {
        let ideal = x.as_slice()[row * in_dim + in_dim - cols + c] as f64;
        ideal * (1.0 + (dev / RATIO_GAIN).clamp(-RATIO_CLAMP, RATIO_CLAMP))
    };
    let mut largest = f32::MIN_POSITIVE as f64;
    let mut exact = Vec::with_capacity(t.as_slice().len());
    for (i, &e) in t.as_slice().iter().enumerate() {
        let cur = current_at(e as f64, i / cols, i % cols);
        largest = largest.max(cur.abs());
        exact.push(cur);
    }
    let mut max_err = 0.0f64;
    let mut sq_sum = 0.0f64;
    for (i, (&p, e)) in pred.as_slice().iter().zip(&exact).enumerate() {
        let cur = current_at(p as f64, i / cols, i % cols).max(0.0);
        let err = (cur - e).abs() / largest;
        max_err = max_err.max(err);
        sq_sum += err * err;
    }
    meta.val_max_err = max_err;
    meta.val_rms_err = (sq_sum / t.as_slice().len() as f64).sqrt();
    meta.arch = xbar_nn::arch::spec_of(&net);
    metrics::gauge_set(names::SURROGATE_VAL_MAX_ERR, meta.val_max_err);
    metrics::gauge_set(names::SURROGATE_VAL_RMS_ERR, meta.val_rms_err);
    Surrogate::from_parts(meta, net)
}

/// Fisher–Yates with the compat `StdRng` — deterministic for a fixed seed.
fn shuffle(indices: &mut [usize], rng: &mut StdRng) {
    for i in (1..indices.len()).rev() {
        let j = rng.gen_range(0..=i);
        indices.swap(i, j);
    }
}

/// Gathers `rows` of width `width` from a flat buffer into a 2-D tensor.
fn gather(flat: &[f32], rows: &[usize], width: usize) -> Tensor {
    let mut out = Vec::with_capacity(rows.len() * width);
    for &r in rows {
        out.extend_from_slice(&flat[r * width..(r + 1) * width]);
    }
    Tensor::from_vec(out, &[rows.len(), width]).expect("gather buffer matches shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_sim::conductance::ConductanceMatrix;
    use xbar_sim::solve::{NonIdealSolver, SolveMethod};

    fn quick_config() -> TrainConfig {
        let mut params = CrossbarParams::with_size(8);
        params.sigma_variation = 0.0;
        TrainConfig {
            pairs: 320,
            holdout: 48,
            hidden: 32,
            epochs: 240,
            batch: 32,
            lr: 0.05,
            seed: 11,
            params,
        }
    }

    #[test]
    fn trains_to_small_validation_error_and_beats_ideal() {
        let cfg = quick_config();
        let s = train_surrogate(&cfg).unwrap();
        let m = s.meta();
        assert!(m.val_rms_err > 0.0);
        assert!(
            m.val_max_err < 0.08,
            "held-out max error too large: {}",
            m.val_max_err
        );
        assert!(m.val_rms_err <= m.val_max_err);
        assert_eq!(m.train_pairs, 272);

        // On fresh arrays the surrogate must predict the *non-ideal*
        // current better than the ideal dot product does.
        let p = &cfg.params;
        let solver = NonIdealSolver::try_new(*p, SolveMethod::LineRelaxation).unwrap();
        let v = vec![p.v_read; p.rows];
        let mut surr_err = 0.0f64;
        let mut ideal_err = 0.0f64;
        for k in 0..4 {
            let g = ConductanceMatrix::from_vec(
                p.rows,
                p.cols,
                (0..p.rows * p.cols)
                    .map(|i| {
                        let t = ((i * 131 + k * 977) % 97) as f64 / 96.0;
                        p.g_min() + t * (p.g_max() - p.g_min())
                    })
                    .collect(),
            );
            let exact = solver.column_currents(&g, &v).unwrap();
            let pred = s.predict_currents(&g, &v).unwrap();
            for c in 0..p.cols {
                let ideal: f64 = (0..p.rows).map(|r| g.at(r, c) * v[r]).sum();
                surr_err += (pred[c] - exact[c]).abs();
                ideal_err += (ideal - exact[c]).abs();
            }
        }
        assert!(
            surr_err < ideal_err * 0.5,
            "surrogate ({surr_err:.3e} A) should at least halve the ideal \
             model's error ({ideal_err:.3e} A)"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = quick_config();
        let a = train_surrogate(&cfg).unwrap();
        let b = train_surrogate(&cfg).unwrap();
        assert_eq!(a.meta(), b.meta());
        let g = ConductanceMatrix::filled(8, 8, 5e-6);
        let v = vec![cfg.params.v_read; 8];
        assert_eq!(
            a.predict_currents(&g, &v).unwrap(),
            b.predict_currents(&g, &v).unwrap()
        );
    }

    #[test]
    fn inconsistent_configs_are_rejected() {
        let mut cfg = quick_config();
        cfg.holdout = cfg.pairs;
        let err = train_surrogate(&cfg).unwrap_err();
        assert!(err.contains("pairs > holdout"), "{err}");
        let mut cfg = quick_config();
        cfg.epochs = 0;
        let err = train_surrogate(&cfg).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }
}
