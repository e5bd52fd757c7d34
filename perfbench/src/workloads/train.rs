//! `train`: the paper's three training jobs — the unpruned baseline, the
//! C/F model pruned at initialisation under its mask constraint, and WCT
//! (clamp at q = 0.97 plus the masks) on the C/F model. Each op is one SGD
//! step at batch 32 through the job's production entry point (`train`, or
//! `apply_wct`, which also recomputes the cut-off), on an epoch of one
//! batch; rounds rotate through the sixteen batches of a 512-image
//! training set. Forward and backward passes in `nn`/`tensor` do nearly all
//! the work; `sim`, `core` mapping and `serve` do none.
//!
//! The traced run replays `xbar_nn::train::train` from its public pieces
//! with a span around every layer call, and checks that the replay leaves
//! weights bit-identical to `train` itself.

use super::{
    backward_traced, digest_model, end_to_end, forward_traced, per_layer_defaults, repeat_setup,
    rounds, span_metrics, state_bits, Ctx, Outcome, Tally, SPARSITY,
};
use crate::stats::mean;
use crate::trace::Tracer;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use xbar_core::wct::{apply_wct, determine_w_cut, synaptic_abs_max, CombinedConstraint, WctConfig};
use xbar_data::Split;
use xbar_nn::loss::softmax_cross_entropy;
use xbar_nn::metrics::accuracy;
use xbar_nn::optim::{Sgd, SgdConfig};
use xbar_nn::train::{train, ClampConstraint, DataRef, TrainConfig, WeightConstraint};
use xbar_nn::{Mode, Sequential};
use xbar_prune::cf::prune_cf;
use xbar_prune::MaskSet;
use xbar_tensor::{ShapeError, Tensor};

const TRAIN_IMAGES: usize = 512;
/// The batch size, and the images of one op: a one-step epoch.
const BATCH: usize = 32;
const WCT_QUANTILE: f64 = 0.97;

#[derive(Clone, Copy, Debug)]
enum Job {
    Baseline,
    Cf,
    Wct,
}

const JOBS: [Job; 3] = [Job::Baseline, Job::Cf, Job::Wct];

struct Setup {
    models: [Sequential; 3],
    masks: MaskSet,
    slices: Vec<(Tensor, Vec<usize>)>,
}

fn setup(ctx: &Ctx, st: &mut super::SetupTimes) -> Result<Setup, String> {
    let data = st.time("data.generate_s", || {
        super::dataset(ctx.seed, TRAIN_IMAGES, BATCH)
    });
    let all = DataRef::new(data.images(Split::Train), data.labels(Split::Train))
        .map_err(|e| e.to_string())?;
    let slices = (0..TRAIN_IMAGES / BATCH)
        .map(|s| all.gather(&(s * BATCH..(s + 1) * BATCH).collect::<Vec<_>>()))
        .collect();
    let base = super::vgg11(ctx.seed);
    let masks = st.time("prune.mask_s", || prune_cf(&base, SPARSITY));
    let mut cf = base.clone();
    masks.apply_to(&mut cf);
    Ok(Setup {
        models: [base, cf.clone(), cf],
        masks,
        slices,
    })
}

/// The epoch recipe: the suite's VGG11 learning rate for the baseline and
/// C/F jobs, the WCT default for the constrained retraining.
fn train_config(job: Job, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        lr_decay_epochs: vec![],
        seed,
        ..TrainConfig::default()
    };
    cfg.sgd.lr = match job {
        Job::Wct => WctConfig::default().train.sgd.lr,
        _ => 0.05,
    };
    cfg
}

/// One op through the production entry points. Returns the epoch loss
/// (`None` for WCT, whose entry point reports the cut-off instead) and the
/// WCT cut-off.
fn run_op(
    job: Job,
    model: &mut Sequential,
    masks: &MaskSet,
    data: DataRef<'_>,
    cfg: &TrainConfig,
) -> Result<(Option<f64>, Option<f32>), ShapeError> {
    match job {
        Job::Baseline => Ok((Some(train(model, data, cfg, None)?[0].loss), None)),
        Job::Cf => Ok((Some(train(model, data, cfg, Some(masks))?[0].loss), None)),
        Job::Wct => {
            let wct = WctConfig {
                quantile: WCT_QUANTILE,
                train: cfg.clone(),
            };
            let out = apply_wct(model, data, &wct, Some(masks))?;
            Ok((None, Some(out.w_cut)))
        }
    }
}

/// `train`, replayed from public pieces with a span around each call.
fn replay_epochs(
    model: &mut Sequential,
    data: DataRef<'_>,
    cfg: &TrainConfig,
    constraint: Option<&dyn WeightConstraint>,
    tr: &mut Tracer,
) -> Result<(), ShapeError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut lr = cfg.sgd.lr;
    if let Some(c) = constraint {
        tr.time("prune.constraint", || c.apply(model));
    }
    let mut order: Vec<usize> = (0..data.len()).collect();
    for epoch in 0..cfg.epochs {
        if cfg.lr_decay_epochs.contains(&epoch) {
            lr *= cfg.lr_decay;
        }
        let sgd = Sgd::new(SgdConfig { lr, ..cfg.sgd });
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let (images, labels) = tr.time("data.gather", || data.gather(chunk));
            tr.time("nn.zero_grad", || model.zero_grad());
            let logits = forward_traced(model, &images, Mode::Train, tr)?;
            let out = tr.time("nn.loss", || softmax_cross_entropy(&logits, &labels))?;
            tr.time("nn.metrics", || accuracy(&logits, &labels));
            backward_traced(model, &out.grad, tr)?;
            tr.time("nn.sgd", || sgd.step(model));
            if let Some(c) = constraint {
                tr.time("prune.constraint", || c.apply(model));
            }
        }
    }
    Ok(())
}

/// One op replayed: `train` for the baseline and C/F jobs, `apply_wct`
/// for WCT.
fn replay_op(
    job: Job,
    model: &mut Sequential,
    masks: &MaskSet,
    data: DataRef<'_>,
    cfg: &TrainConfig,
    tr: &mut Tracer,
) -> Result<(), ShapeError> {
    match job {
        Job::Baseline => replay_epochs(model, data, cfg, None, tr),
        Job::Cf => replay_epochs(model, data, cfg, Some(masks), tr),
        Job::Wct => {
            let mark = tr.begin("core.wct_cut");
            synaptic_abs_max(model);
            let clamp = ClampConstraint {
                limit: determine_w_cut(model, WCT_QUANTILE),
            };
            tr.end(mark);
            let combined = CombinedConstraint::new(vec![masks as &dyn WeightConstraint, &clamp]);
            replay_epochs(model, data, cfg, Some(&combined), tr)
        }
    }
}

/// Every masked weight is still exactly zero.
fn masks_hold(model: &Sequential, masks: &MaskSet) -> bool {
    masks.masks().iter().all(|lm| {
        let w = match &model.layers()[lm.layer_index] {
            xbar_nn::Layer::Conv2d(c) => &c.weight().value,
            xbar_nn::Layer::Linear(l) => &l.weight().value,
            _ => return false,
        };
        w.as_slice()
            .iter()
            .zip(lm.mask.as_slice())
            .all(|(w, m)| *m != 0.0 || *w == 0.0)
    })
}

fn weights_within(model: &Sequential, limit: f32) -> bool {
    let mut m = model.clone();
    m.params_mut()
        .iter()
        .filter(|p| p.kind.is_synaptic())
        .all(|p| p.value.as_slice().iter().all(|w| w.abs() <= limit))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let (mut s, setup_s, setup_times) = repeat_setup(|st| setup(ctx, st))?;
    out.phases
        .push(("setup".into(), t0.elapsed().as_secs_f64()));

    let mut tally = Tally::default();
    let mut untraced_ms = Vec::new();
    let origin = Instant::now();
    let mut tracer = Tracer::new(ctx.trace, origin, 0);
    let mut losses_finite = true;
    let mut replay_identical = true;
    let mut last_cut = f32::INFINITY;
    let mut op_id = 0u64;
    let measured = rounds(ctx.seconds, |r| {
        let (images, labels) = &s.slices[r % s.slices.len()];
        let data = DataRef::new(images, labels).map_err(|e| e.to_string())?;
        for (j, job) in JOBS.into_iter().enumerate() {
            let cfg = train_config(job, super::mix(ctx.seed, r as u64, j as u64));
            let model = &mut s.models[j];
            out.attempted += 1;
            if ctx.trace {
                // Production call on a copy (the untraced reference), then
                // the traced replay on the model itself.
                let mut reference = model.clone();
                let t = Instant::now();
                run_op(job, &mut reference, &s.masks, data, &cfg).map_err(|e| e.to_string())?;
                untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                op_id += 1;
                tracer.set_id(op_id);
                let mark = tracer.begin("train.op");
                let replayed = replay_op(job, model, &s.masks, data, &cfg, &mut tracer);
                tracer.end(mark);
                replayed.map_err(|e| e.to_string())?;
                replay_identical &= state_bits(&reference) == state_bits(model);
                continue;
            }
            let t = Instant::now();
            match run_op(job, model, &s.masks, data, &cfg) {
                Ok((loss, cut)) => {
                    tally.op(r, BATCH as f64, t.elapsed().as_secs_f64());
                    losses_finite &= loss.is_none_or(f64::is_finite);
                    if let Some(cut) = cut {
                        last_cut = cut;
                    }
                }
                Err(e) => {
                    eprintln!("train {job:?}: {e}");
                    out.failed += 1;
                }
            }
        }
        if r == 0 {
            for model in &s.models {
                digest_model(&mut out.digest, model);
            }
        }
        Ok(())
    })?;
    out.phases.push(("measure".into(), measured.secs));

    let [base, cf, wct] = &s.models;
    out.checks
        .check("train: epoch losses are finite", losses_finite);
    out.checks.check(
        "train: weights are finite",
        [base, cf, wct]
            .iter()
            .all(|m| state_bits(m).iter().all(|b| f32::from_bits(*b).is_finite())),
    );
    out.checks.check(
        "train: C/F masks hold after training",
        masks_hold(cf, &s.masks),
    );
    out.checks
        .check("train: C/F masks hold after WCT", masks_hold(wct, &s.masks));
    if ctx.trace {
        out.checks.check(
            "train: traced replay is bit-identical to train()/apply_wct()",
            replay_identical,
        );
        per_layer_defaults(&mut out.metrics, &setup_times);
        out.spans = tracer.into_spans();
        span_metrics(
            &mut out.metrics,
            &mut out.checks,
            &out.spans,
            mean(&untraced_ms),
        );
    } else {
        out.checks.check(
            "train: WCT weights stay within the last cut-off",
            weights_within(wct, last_cut),
        );
        end_to_end(
            &mut out.metrics,
            setup_s,
            tally.items_per_s(),
            &tally.op_ms,
            measured.rss_mb,
        );
    }
    Ok(out)
}
