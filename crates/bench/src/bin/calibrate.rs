//! Calibration tool: prints software vs crossbar accuracy and NF for the
//! unpruned and C/F-pruned VGG11/CIFAR10-like models across crossbar sizes,
//! for the current default circuit parameters. Used to sanity-check that the
//! paper's qualitative trends hold before running the full figure harnesses.

use xbar_bench::runner::{Arity, RunContext};
use xbar_bench::{DatasetKind, Scenario};
use xbar_core::pipeline::{map_to_crossbars, MapConfig};
use xbar_data::Split;
use xbar_nn::train::{evaluate, DataRef};
use xbar_nn::vgg::VggVariant;
use xbar_prune::PruneMethod;
use xbar_sim::params::CrossbarParams;

fn main() {
    const OVERRIDES: [(&str, Arity); 10] = [
        ("--train", Arity::Value),
        ("--epochs", Arity::Value),
        ("--width", Arity::Value),
        ("--rmin", Arity::Value),
        ("--rmax", Arity::Value),
        ("--sigma", Arity::Value),
        ("--driver", Arity::Value),
        ("--sense", Arity::Value),
        ("--wire-row", Arity::Value),
        ("--wire-col", Arity::Value),
    ];
    let ctx = RunContext::init("calibrate", &OVERRIDES);
    let mut scale = ctx.args.scale;
    let mut base = CrossbarParams::default();
    let get = |flag: &str| -> Option<f64> {
        ctx.args.get(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} takes a number, got {v:?}"))
        })
    };
    if let Some(v) = get("--train") {
        scale.train_size = v as usize;
    }
    if let Some(v) = get("--epochs") {
        scale.epochs = v as usize;
    }
    if let Some(v) = get("--width") {
        scale.width = v;
    }
    if let Some(v) = get("--rmin") {
        base.r_min = v;
    }
    if let Some(v) = get("--rmax") {
        base.r_max = v;
    }
    if let Some(v) = get("--sigma") {
        base.sigma_variation = v;
    }
    if let Some(v) = get("--driver") {
        base.r_driver = v;
    }
    if let Some(v) = get("--sense") {
        base.r_sense = v;
    }
    if let Some(v) = get("--wire-row") {
        base.r_wire_row = v;
    }
    if let Some(v) = get("--wire-col") {
        base.r_wire_col = v;
    }
    for method in [PruneMethod::None, PruneMethod::ChannelFilter] {
        let sc = Scenario::new(VggVariant::Vgg11, DatasetKind::Cifar10Like, method, scale);
        let data = sc.dataset();
        let tm = sc.train_model_cached(&data, &ctx.args.results);
        xbar_obs::event!(
            "calibrate_software",
            method = method.to_string(),
            accuracy = tm.software_accuracy
        );
        let test = DataRef::new(data.images(Split::Test), data.labels(Split::Test)).unwrap();
        for size in [16usize, 32, 64] {
            let mut params = base;
            params.rows = size;
            params.cols = size;
            let mut variants = vec![("full", params)];
            let mut ir_only = params;
            ir_only.sigma_variation = 0.0;
            variants.push(("ir-only", ir_only));
            let mut var_only = params;
            var_only.r_driver = 0.0;
            var_only.r_sense = 0.0;
            var_only.r_wire_row = 0.0;
            var_only.r_wire_col = 0.0;
            variants.push(("var-only", var_only));
            for (tag, params) in variants {
                let cfg = MapConfig {
                    params,
                    method,
                    seed: 7,
                    ..Default::default()
                };
                let (mut noisy, report) = map_to_crossbars(&tm.model, &cfg).unwrap();
                let acc = evaluate(&mut noisy, test, 64).unwrap();
                xbar_obs::event!(
                    "calibrate_point",
                    method = method.to_string(),
                    size = size,
                    variant = tag,
                    accuracy = acc,
                    drop_pp = 100.0 * (tm.software_accuracy - acc),
                    nf_mean = report.mean_nf(),
                    low_g_fraction = report.mean_low_g_fraction(),
                    crossbars = report.crossbar_count()
                );
            }
        }
    }
    ctx.finish();
}
