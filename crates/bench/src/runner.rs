//! Shared helpers for the experiment binaries: CLI parsing, run-lifecycle
//! observability ([`RunContext`]) and crossbar-accuracy evaluation of
//! trained scenarios.

use crate::report::Table;
use crate::scenario::{ExperimentScale, TrainedModel};
use std::path::PathBuf;
use xbar_core::pipeline::{map_to_crossbars, MapConfig, MapReport};
use xbar_data::{Dataset, Split};
use xbar_nn::train::{evaluate, DataRef};
use xbar_obs::sink::{self, RunInfo};
use xbar_prune::PruneMethod;
use xbar_sim::params::CrossbarParams;

/// Crossbar sizes swept by the paper's figures.
pub const SIZES: [usize; 3] = [16, 32, 64];

/// Whether a binary-specific flag stands alone or consumes the next
/// argument as its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// A boolean switch (`--gate`).
    Flag,
    /// Takes one value (`--only fig3a`).
    Value,
}

/// The CLI flags shared by every experiment binary, plus whatever
/// binary-specific flags the caller declared.
///
/// Common flags: `--full` / `--smoke` / `--quick` (scale preset),
/// `--seed <n>`, `--quiet`, `--trace-out <path>`.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Experiment scale preset.
    pub scale: ExperimentScale,
    /// Name of the chosen preset (`quick`, `full`, `smoke`).
    pub scale_name: &'static str,
    /// Master seed.
    pub seed: u64,
    /// Suppress live stderr progress.
    pub quiet: bool,
    /// Where to write the JSONL trace, if anywhere.
    pub trace_out: Option<PathBuf>,
    extras: Vec<(String, Option<String>)>,
}

impl CommonArgs {
    /// Parses `args` (without the program name) against the common flags
    /// plus the caller's `extra` flag declarations. Unknown flags and
    /// missing values produce an error message instead of being silently
    /// swallowed.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending argument.
    pub fn try_parse(
        args: impl IntoIterator<Item = String>,
        extra: &[(&str, Arity)],
    ) -> Result<Self, String> {
        let mut out = CommonArgs {
            scale: ExperimentScale::quick(),
            scale_name: "quick",
            seed: 42,
            quiet: false,
            trace_out: None,
            extras: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => {
                    out.scale = ExperimentScale::full();
                    out.scale_name = "full";
                }
                "--smoke" => {
                    out.scale = ExperimentScale::smoke();
                    out.scale_name = "smoke";
                }
                "--quick" => {
                    out.scale = ExperimentScale::quick();
                    out.scale_name = "quick";
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    out.seed = v
                        .parse()
                        .map_err(|_| format!("--seed must be an integer, got {v:?}"))?;
                }
                "--quiet" => out.quiet = true,
                "--trace-out" => {
                    let v = args.next().ok_or("--trace-out needs a path")?;
                    out.trace_out = Some(PathBuf::from(v));
                }
                other => match extra.iter().find(|(flag, _)| *flag == other) {
                    Some((flag, Arity::Flag)) => out.extras.push((flag.to_string(), None)),
                    Some((flag, Arity::Value)) => {
                        let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                        out.extras.push((flag.to_string(), Some(v)));
                    }
                    None => {
                        let mut supported = String::from(
                            "--full --smoke --quick --seed <n> --quiet --trace-out <path>",
                        );
                        for (flag, arity) in extra {
                            supported.push(' ');
                            supported.push_str(flag);
                            if *arity == Arity::Value {
                                supported.push_str(" <v>");
                            }
                        }
                        return Err(format!(
                            "unknown argument {other:?}; supported: {supported}"
                        ));
                    }
                },
            }
        }
        Ok(out)
    }

    /// The value of a declared `Arity::Value` flag, if given (last wins).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.extras
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether a declared flag appeared at all.
    pub fn is_set(&self, flag: &str) -> bool {
        self.extras.iter().any(|(f, _)| f == flag)
    }
}

/// Run lifecycle for an experiment binary: parses the CLI, switches the
/// live stderr reporter on (unless `--quiet`), accumulates manifest config,
/// and on [`RunContext::finish`] prints the phase-timing table and writes
/// the JSONL trace (if `--trace-out` was given).
#[derive(Debug)]
pub struct RunContext {
    /// Parsed CLI flags.
    pub args: CommonArgs,
    info: RunInfo,
}

impl RunContext {
    /// Parses the process arguments; on a CLI error prints the message to
    /// stderr and exits with status 2.
    pub fn init(bin: &str, extra: &[(&str, Arity)]) -> Self {
        match CommonArgs::try_parse(std::env::args().skip(1), extra) {
            Ok(args) => Self::from_args(bin, args),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Builds a context from already-parsed arguments (testable core of
    /// [`RunContext::init`]).
    pub fn from_args(bin: &str, args: CommonArgs) -> Self {
        sink::stderr_echo(!args.quiet);
        let mut info = RunInfo::new(bin);
        info.seed = args.seed;
        info.scale = args.scale_name.to_string();
        for (flag, value) in &args.extras {
            info.config.push((
                flag.trim_start_matches('-').to_string(),
                value.clone().unwrap_or_else(|| "true".to_string()),
            ));
        }
        RunContext { args, info }
    }

    /// Adds a manifest config pair (sparsity, crossbar size, …).
    pub fn config(&mut self, key: impl Into<String>, value: impl ToString) {
        self.info.config.push((key.into(), value.to_string()));
    }

    /// Prints the phase-timing summary table and writes the JSONL trace if
    /// `--trace-out` was given. Call once, at the end of `main`.
    pub fn finish(self) {
        let phases = sink::phase_summaries();
        if !phases.is_empty() {
            let mut table = Table::new("Phase timings", &["Phase", "Total (s)", "Count"]);
            for p in &phases {
                table.push_row(vec![
                    p.name.to_string(),
                    format!("{:.2}", p.total_us as f64 / 1e6),
                    p.count.to_string(),
                ]);
            }
            println!("{}", table.to_markdown());
        }
        if let Some(path) = &self.args.trace_out {
            match sink::write_jsonl(path, &self.info) {
                Ok(()) => println!("[trace written to {}]", path.display()),
                Err(e) => eprintln!("error: failed writing trace {}: {e}", path.display()),
            }
        }
    }
}

/// Builds the [`MapConfig`] for a trained model at a given crossbar size,
/// matching the model's pruning method for the `T` transformation.
pub fn map_config(tm: &TrainedModel, size: usize, seed: u64) -> MapConfig {
    MapConfig {
        params: CrossbarParams::with_size(size),
        method: effective_method(tm),
        seed,
        ..Default::default()
    }
}

fn effective_method(tm: &TrainedModel) -> PruneMethod {
    if tm.masks.is_some() {
        tm.scenario.method
    } else {
        PruneMethod::None
    }
}

/// Maps a trained model onto non-ideal crossbars and evaluates test
/// accuracy.
///
/// # Panics
///
/// Panics on internal pipeline errors (bugs, not user errors).
pub fn crossbar_accuracy(tm: &TrainedModel, data: &Dataset, cfg: &MapConfig) -> (f64, MapReport) {
    let (mut noisy, report) = map_to_crossbars(&tm.model, cfg).expect("mapping pipeline");
    let test = DataRef::new(data.images(Split::Test), data.labels(Split::Test))
        .expect("dataset well-formed");
    let acc = evaluate(&mut noisy, test, 64).expect("evaluation shape-safe");
    (acc, report)
}

/// Number of device-variation seeds averaged per reported accuracy.
pub const DEFAULT_REPS: usize = 3;

/// Relative synaptic weight error `‖W′−W‖₂ / ‖W‖₂` between a model and its
/// crossbar-mapped version, pooled over every conv/linear weight. This is a
/// deterministic, classification-noise-free measure of how much damage the
/// mapping did, naturally weighted toward the large (important) weights.
///
/// # Panics
///
/// Panics if the models have different architectures.
pub fn relative_weight_error(original: &xbar_nn::Sequential, mapped: &xbar_nn::Sequential) -> f64 {
    let mut orig = original.clone();
    let mut map = mapped.clone();
    let o_params = orig.params_mut();
    let mut m_params = map.params_mut();
    assert_eq!(o_params.len(), m_params.len(), "architecture mismatch");
    let mut err_sq = 0.0f64;
    let mut norm_sq = 0.0f64;
    for (o, m) in o_params.into_iter().zip(m_params.iter_mut()) {
        if !o.kind.is_synaptic() {
            continue;
        }
        for (&a, &b) in o.value.as_slice().iter().zip(m.value.as_slice()) {
            let d = (a - b) as f64;
            err_sq += d * d;
            norm_sq += (a as f64) * (a as f64);
        }
    }
    (err_sq / norm_sq.max(f64::MIN_POSITIVE)).sqrt()
}

/// Like [`crossbar_accuracy`] but averaged over `reps` device-variation
/// seeds (the circuit is deterministic; only the Gaussian programming
/// variation changes between repetitions). Returns the mean accuracy and the
/// last repetition's report (NF statistics barely vary between seeds).
///
/// # Panics
///
/// Panics if `reps` is zero or on internal pipeline errors.
pub fn crossbar_accuracy_avg(
    tm: &TrainedModel,
    data: &Dataset,
    cfg: &MapConfig,
    reps: usize,
) -> (f64, MapReport) {
    assert!(reps > 0, "need at least one repetition");
    let mut total = 0.0f64;
    let mut last_report = None;
    for r in 0..reps {
        let mut rep_cfg = *cfg;
        rep_cfg.seed = cfg.seed.wrapping_add(1000 * r as u64);
        let (acc, report) = crossbar_accuracy(tm, data, &rep_cfg);
        total += acc;
        last_report = Some(report);
    }
    (total / reps as f64, last_report.expect("reps > 0"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DatasetKind, Scenario};
    use xbar_nn::vgg::VggVariant;

    #[test]
    fn try_parse_defaults() {
        let args = CommonArgs::try_parse(Vec::new(), &[]).unwrap();
        assert_eq!(args.scale_name, "quick");
        assert_eq!(args.seed, 42);
        assert!(!args.quiet);
        assert!(args.trace_out.is_none());
    }

    #[test]
    fn try_parse_common_flags() {
        let argv = [
            "--smoke",
            "--seed",
            "7",
            "--quiet",
            "--trace-out",
            "t.jsonl",
        ];
        let args = CommonArgs::try_parse(argv.iter().map(|s| s.to_string()), &[]).unwrap();
        assert_eq!(args.scale_name, "smoke");
        assert_eq!(args.seed, 7);
        assert!(args.quiet);
        assert_eq!(
            args.trace_out.as_deref(),
            Some(std::path::Path::new("t.jsonl"))
        );
    }

    #[test]
    fn try_parse_extras_value_and_flag() {
        let argv = ["--only", "fig3b", "--gate"];
        let extra = [("--only", Arity::Value), ("--gate", Arity::Flag)];
        let args = CommonArgs::try_parse(argv.iter().map(|s| s.to_string()), &extra).unwrap();
        assert_eq!(args.get("--only"), Some("fig3b"));
        assert!(args.is_set("--gate"));
        assert!(!args.is_set("--other"));
    }

    #[test]
    fn try_parse_rejects_unknown_flag() {
        let err = CommonArgs::try_parse(["--bogus".to_string()], &[]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(
            err.contains("--trace-out"),
            "usage should list flags: {err}"
        );
    }

    #[test]
    fn try_parse_rejects_missing_value() {
        let err = CommonArgs::try_parse(["--seed".to_string()], &[]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let extra = [("--only", Arity::Value)];
        let err = CommonArgs::try_parse(["--only".to_string()], &extra).unwrap_err();
        assert!(err.contains("--only"), "{err}");
    }

    #[test]
    fn try_parse_rejects_bad_seed() {
        let argv = ["--seed", "abc"];
        let err = CommonArgs::try_parse(argv.iter().map(|s| s.to_string()), &[]).unwrap_err();
        assert!(err.contains("integer"), "{err}");
    }

    #[test]
    fn try_parse_does_not_swallow_following_flag() {
        // The old parser silently consumed the argument after any unknown
        // "--flag"; the rewrite must reject the unknown flag instead.
        let argv = ["--panle", "a", "--smoke"];
        let err = CommonArgs::try_parse(argv.iter().map(|s| s.to_string()), &[]).unwrap_err();
        assert!(err.contains("--panle"), "{err}");
    }

    #[test]
    fn relative_weight_error_is_zero_for_identical_models() {
        let m = xbar_nn::vgg::VggConfig::new(VggVariant::Vgg11, 10)
            .width_multiplier(0.125)
            .build(3);
        assert_eq!(relative_weight_error(&m, &m.clone()), 0.0);
    }

    #[test]
    fn relative_weight_error_scales_with_perturbation() {
        let m = xbar_nn::vgg::VggConfig::new(VggVariant::Vgg11, 10)
            .width_multiplier(0.125)
            .build(4);
        let mut perturbed = m.clone();
        for p in perturbed.params_mut() {
            if p.kind.is_synaptic() {
                p.value.map_in_place(|x| x * 1.1);
            }
        }
        let err = relative_weight_error(&m, &perturbed);
        assert!((err - 0.1).abs() < 1e-3, "10% scale = 10% error, got {err}");
    }

    #[test]
    fn accuracy_averaging_reduces_to_single_run_for_reps_one() {
        let sc = Scenario::new(
            VggVariant::Vgg11,
            DatasetKind::Cifar10Like,
            PruneMethod::None,
            ExperimentScale::smoke(),
        );
        let data = sc.dataset();
        let tm = sc.train_model(&data);
        let cfg = map_config(&tm, 16, 5);
        let (single, _) = crossbar_accuracy(&tm, &data, &cfg);
        let (avg, _) = crossbar_accuracy_avg(&tm, &data, &cfg, 1);
        assert_eq!(single, avg);
    }

    #[test]
    fn map_config_inherits_method() {
        let sc = Scenario::new(
            VggVariant::Vgg11,
            DatasetKind::Cifar10Like,
            PruneMethod::ChannelFilter,
            ExperimentScale::smoke(),
        );
        let data = sc.dataset();
        let tm = sc.train_model(&data);
        let cfg = map_config(&tm, 32, 1);
        assert_eq!(cfg.method, PruneMethod::ChannelFilter);
        assert_eq!(cfg.params.rows, 32);
        let (acc, report) = crossbar_accuracy(&tm, &data, &cfg);
        assert!((0.0..=1.0).contains(&acc));
        assert!(report.crossbar_count() > 0);
    }
}
