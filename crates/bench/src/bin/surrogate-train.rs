//! Trains (with disk cache) a scenario plus a tile surrogate, maps the
//! model through both the exact solver (`W'`) and the surrogate (`W''`),
//! and persists all three serving tiers as one `XBARMDL1` bundle for
//! `xbar-serve --fidelity`.
//!
//! Thin CLI wrapper over
//! [`xbar_bench::artifacts::surrogate::surrogate_train`].
//!
//! Usage: `cargo run --release -p xbar-bench --bin surrogate-train --
//! [--smoke|--full] [--seed N] [--network vgg11|vgg16]
//! [--dataset cifar10|cifar100] [--method none|cf|xcs|xrs] [--size N]
//! [--out <path>]`
//!
//! The compute-thread budget comes from `XBAR_THREADS` (see
//! `xbar_tensor::threads`); the bundle lands in the results directory
//! (`XBAR_RESULTS_DIR`, else the workspace `results/`) unless `--out` names
//! a path.

use std::process::ExitCode;
use xbar_bench::artifacts::{surrogate, ArtifactCtx};
use xbar_bench::runner::{Arity, RunContext};
use xbar_bench::DatasetKind;
use xbar_nn::vgg::VggVariant;
use xbar_prune::PruneMethod;

fn main() -> ExitCode {
    let mut ctx = RunContext::init(
        "surrogate-train",
        &[
            ("--network", Arity::Value),
            ("--dataset", Arity::Value),
            ("--method", Arity::Value),
            ("--size", Arity::Value),
            ("--out", Arity::Value),
        ],
    );
    let variant = match ctx.args.get("--network").unwrap_or("vgg11") {
        "vgg11" => VggVariant::Vgg11,
        "vgg16" => VggVariant::Vgg16,
        other => {
            eprintln!("error: --network must be vgg11 or vgg16, got {other:?}");
            return ExitCode::from(2);
        }
    };
    let dataset = match ctx.args.get("--dataset").unwrap_or("cifar10") {
        "cifar10" => DatasetKind::Cifar10Like,
        "cifar100" => DatasetKind::Cifar100Like,
        other => {
            eprintln!("error: --dataset must be cifar10 or cifar100, got {other:?}");
            return ExitCode::from(2);
        }
    };
    let method = match ctx.args.get("--method").unwrap_or("cf") {
        "none" => PruneMethod::None,
        "cf" => PruneMethod::ChannelFilter,
        "xcs" => PruneMethod::XbarColumn,
        "xrs" => PruneMethod::XbarRow,
        other => {
            eprintln!("error: --method must be none, cf, xcs or xrs, got {other:?}");
            return ExitCode::from(2);
        }
    };
    let size = match ctx
        .args
        .get("--size")
        .unwrap_or(&surrogate::SURROGATE_SIZE.to_string())
        .parse()
    {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("error: --size must be a positive integer");
            return ExitCode::from(2);
        }
    };
    let opts = surrogate::SurrogateTrainOptions {
        variant,
        dataset,
        method,
        size,
        out: ctx.args.get("--out").map(std::path::PathBuf::from),
    };
    ctx.config("crossbar_size", opts.size);
    if let Some(out) = &opts.out {
        ctx.config("artifact", out.display());
    }
    let actx = ArtifactCtx::new(
        ctx.args.scale,
        ctx.args.scale_name,
        ctx.args.seed,
        ctx.args.results.clone(),
    );
    let result = surrogate::surrogate_train(&actx, &opts);
    ctx.finish();
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
