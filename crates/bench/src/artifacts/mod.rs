//! Every table/figure/ablation of the reproduction as a library function.
//!
//! The [`crate::suite`] orchestrator enumerates, deduplicates and runs all
//! of them behind one entry point; `suite --only <artifact>` regenerates
//! one.
//!
//! Each artifact is described by an [`ArtifactSpec`]:
//!
//! * `run` regenerates the artifact (tables/CSVs/JSON under `results/`) and
//!   reports which files it wrote plus a few key numbers;
//! * `scenarios` enumerates every train-and-cache scenario the artifact
//!   will consume, letting the orchestrator train each *unique* scenario
//!   exactly once before any artifact runs;
//! * `exclusive` marks timing-sensitive artifacts (the `perf` benchmark)
//!   that must not share the machine with concurrent workers.
//!
//! [`registry`] is the single source of truth for what "every table and
//! figure" means.

pub mod ablations;
pub mod drift;
pub mod figures;
pub mod perfmap;
pub mod serveperf;
pub mod solveperf;
pub mod surrogate;
pub mod tables;

use crate::report::Table;
use crate::scenario::{ExperimentScale, Scenario};
use std::path::PathBuf;

/// Everything an artifact generator needs to know about the run: the scale
/// preset, the master seed, and whether to keep stdout quiet (the suite
/// runs artifacts concurrently, where interleaved markdown is noise).
#[derive(Debug, Clone, Copy)]
pub struct ArtifactCtx {
    /// Experiment scale preset.
    pub scale: ExperimentScale,
    /// Name of the preset (`smoke`, `quick`, `full`).
    pub scale_name: &'static str,
    /// Master seed.
    pub seed: u64,
    /// Suppress per-table stdout printing (CSV files are always written).
    pub quiet: bool,
}

impl ArtifactCtx {
    /// A context printing tables to stdout — the standalone-binary default.
    pub fn new(scale: ExperimentScale, scale_name: &'static str, seed: u64) -> Self {
        ArtifactCtx {
            scale,
            scale_name,
            seed,
            quiet: false,
        }
    }

    /// Returns the context with stdout printing suppressed.
    pub fn quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }

    /// Prints the table (unless quiet), writes its CSV under `results/`,
    /// and records the written path in `out`.
    pub(crate) fn emit(
        &self,
        table: &Table,
        out: &mut ArtifactOutput,
        file_stem: &str,
    ) -> Result<(), String> {
        if !self.quiet {
            println!("{}", table.to_markdown());
        }
        let path = table
            .write_csv(file_stem)
            .map_err(|e| format!("writing {file_stem}.csv: {e}"))?;
        if !self.quiet {
            println!("[csv written to {}]", path.display());
        }
        out.outputs.push(path);
        Ok(())
    }
}

/// What an artifact produced: the files it wrote and the key numbers worth
/// surfacing in `results/suite.json` (accuracies, speedups).
#[derive(Debug, Clone, Default)]
pub struct ArtifactOutput {
    /// Files written under `results/`.
    pub outputs: Vec<PathBuf>,
    /// Named scalar results, in insertion order.
    pub key_numbers: Vec<(String, f64)>,
}

impl ArtifactOutput {
    /// Records a key number.
    pub fn key(&mut self, name: impl Into<String>, value: f64) {
        self.key_numbers.push((name.into(), value));
    }
}

/// How an artifact is generated and what it needs.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactSpec {
    /// Stable artifact name; also the stem of its primary output file.
    pub name: &'static str,
    /// The paper table/figure (or extension) the artifact reproduces.
    pub paper_ref: &'static str,
    /// Timing-sensitive artifacts run alone, after the concurrent batch.
    pub exclusive: bool,
    /// Regenerates the artifact.
    pub run: fn(&ArtifactCtx) -> Result<ArtifactOutput, String>,
    /// Enumerates every cached-training scenario `run` will consume.
    pub scenarios: fn(&ArtifactCtx) -> Vec<Scenario>,
}

fn no_scenarios(_: &ArtifactCtx) -> Vec<Scenario> {
    Vec::new()
}

macro_rules! fig_panel {
    ($fn_name:ident, $scen_name:ident, $module:ident :: $runner:ident / $scens:ident, $panel:literal) => {
        fn $fn_name(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
            $module::$runner(ctx, $panel)
        }
        fn $scen_name(ctx: &ArtifactCtx) -> Vec<Scenario> {
            $module::$scens(ctx, $panel)
        }
    };
}

fig_panel!(
    run_fig3a,
    scen_fig3a,
    figures::fig3_panel / fig3_scenarios,
    "a"
);
fig_panel!(
    run_fig3b,
    scen_fig3b,
    figures::fig3_panel / fig3_scenarios,
    "b"
);
fig_panel!(
    run_fig3c,
    scen_fig3c,
    figures::fig3_panel / fig3_scenarios,
    "c"
);
fig_panel!(
    run_fig3d,
    scen_fig3d,
    figures::fig3_panel / fig3_scenarios,
    "d"
);
fig_panel!(
    run_fig4a,
    scen_fig4a,
    figures::fig4_panel / fig4_scenarios,
    "a"
);
fig_panel!(
    run_fig4b,
    scen_fig4b,
    figures::fig4_panel / fig4_scenarios,
    "b"
);
fig_panel!(
    run_fig4c,
    scen_fig4c,
    figures::fig4_panel / fig4_scenarios,
    "c"
);
fig_panel!(
    run_fig4d,
    scen_fig4d,
    figures::fig4_panel / fig4_scenarios,
    "d"
);
fig_panel!(
    run_fig4e,
    scen_fig4e,
    figures::fig4_panel / fig4_scenarios,
    "e"
);
fig_panel!(
    run_fig4f,
    scen_fig4f,
    figures::fig4_panel / fig4_scenarios,
    "f"
);

fn run_map(ctx: &ArtifactCtx) -> Result<ArtifactOutput, String> {
    perfmap::map_artifact(ctx, &perfmap::MapArtifactOptions::default())
}

fn scen_map(ctx: &ArtifactCtx) -> Vec<Scenario> {
    perfmap::map_artifact_scenarios(ctx, &perfmap::MapArtifactOptions::default())
}

/// Every artifact the suite regenerates, in a stable order: the paper's
/// tables and figures first, then the ablations and the extensions.
pub fn registry() -> Vec<ArtifactSpec> {
    vec![
        ArtifactSpec {
            name: "table1",
            paper_ref: "Table I",
            exclusive: false,
            run: tables::table1,
            scenarios: tables::table1_scenarios,
        },
        ArtifactSpec {
            name: "fig3a",
            paper_ref: "Fig. 3(a)",
            exclusive: false,
            run: run_fig3a,
            scenarios: scen_fig3a,
        },
        ArtifactSpec {
            name: "fig3b",
            paper_ref: "Fig. 3(b)",
            exclusive: false,
            run: run_fig3b,
            scenarios: scen_fig3b,
        },
        ArtifactSpec {
            name: "fig3c",
            paper_ref: "Fig. 3(c)",
            exclusive: false,
            run: run_fig3c,
            scenarios: scen_fig3c,
        },
        ArtifactSpec {
            name: "fig3d",
            paper_ref: "Fig. 3(d)",
            exclusive: false,
            run: run_fig3d,
            scenarios: scen_fig3d,
        },
        ArtifactSpec {
            name: "fig3f",
            paper_ref: "Fig. 3(f)",
            exclusive: false,
            run: figures::fig3f,
            scenarios: figures::fig3f_scenarios,
        },
        ArtifactSpec {
            name: "fig4a",
            paper_ref: "Fig. 4(a)",
            exclusive: false,
            run: run_fig4a,
            scenarios: scen_fig4a,
        },
        ArtifactSpec {
            name: "fig4b",
            paper_ref: "Fig. 4(b)",
            exclusive: false,
            run: run_fig4b,
            scenarios: scen_fig4b,
        },
        ArtifactSpec {
            name: "fig4c",
            paper_ref: "Fig. 4(c)",
            exclusive: false,
            run: run_fig4c,
            scenarios: scen_fig4c,
        },
        ArtifactSpec {
            name: "fig4d",
            paper_ref: "Fig. 4(d)",
            exclusive: false,
            run: run_fig4d,
            scenarios: scen_fig4d,
        },
        ArtifactSpec {
            name: "fig4e",
            paper_ref: "Fig. 4(e)",
            exclusive: false,
            run: run_fig4e,
            scenarios: scen_fig4e,
        },
        ArtifactSpec {
            name: "fig4f",
            paper_ref: "Fig. 4(f)",
            exclusive: false,
            run: run_fig4f,
            scenarios: scen_fig4f,
        },
        ArtifactSpec {
            name: "tradeoff",
            paper_ref: "trade-off table (ours)",
            exclusive: false,
            run: tables::tradeoff,
            scenarios: tables::tradeoff_scenarios,
        },
        ArtifactSpec {
            name: "inventory",
            paper_ref: "layer inventory (ours)",
            exclusive: false,
            run: tables::inventory,
            scenarios: tables::inventory_scenarios,
        },
        ArtifactSpec {
            name: "fault_sweep",
            paper_ref: "fault sweep (ours)",
            exclusive: false,
            run: tables::fault_sweep,
            scenarios: tables::fault_sweep_scenarios,
        },
        ArtifactSpec {
            name: "ablation_mapping_scale",
            paper_ref: "ablation A1",
            exclusive: false,
            run: ablations::mapping_scale,
            scenarios: ablations::mapping_scale_scenarios,
        },
        ArtifactSpec {
            name: "ablation_solver",
            paper_ref: "ablation A2",
            exclusive: false,
            run: ablations::solver,
            scenarios: no_scenarios,
        },
        ArtifactSpec {
            name: "ablation_rearrange",
            paper_ref: "ablation A3",
            exclusive: false,
            run: ablations::rearrange,
            scenarios: ablations::rearrange_scenarios,
        },
        ArtifactSpec {
            name: "ablation_bn_recal",
            paper_ref: "ablation A4 (extension)",
            exclusive: false,
            run: ablations::bn_recalibration,
            scenarios: ablations::bn_recalibration_scenarios,
        },
        ArtifactSpec {
            name: "ablation_robustness",
            paper_ref: "ablation A5 (extension)",
            exclusive: false,
            run: ablations::robustness,
            scenarios: ablations::robustness_scenarios,
        },
        ArtifactSpec {
            name: "ablation_approximation",
            paper_ref: "ablation A6 (extension)",
            exclusive: false,
            run: ablations::approximation,
            scenarios: no_scenarios,
        },
        ArtifactSpec {
            name: "map",
            paper_ref: "serving artifact (ours)",
            exclusive: false,
            run: run_map,
            scenarios: scen_map,
        },
        ArtifactSpec {
            name: "perf",
            paper_ref: "solver-performance bench (ours)",
            exclusive: true,
            run: perfmap::perf,
            scenarios: no_scenarios,
        },
        ArtifactSpec {
            name: "solve",
            paper_ref: "batched-solve bench (ours)",
            exclusive: true,
            run: solveperf::solve_bench,
            scenarios: no_scenarios,
        },
        ArtifactSpec {
            name: "serve",
            paper_ref: "serving throughput bench (ours)",
            exclusive: true,
            run: serveperf::serve_bench,
            scenarios: no_scenarios,
        },
        ArtifactSpec {
            name: "surrogate",
            paper_ref: "surrogate fidelity & speedup (ours)",
            exclusive: true,
            run: surrogate::surrogate_accuracy,
            scenarios: surrogate::surrogate_scenarios,
        },
        ArtifactSpec {
            name: "drift",
            paper_ref: "retention-drift lifecycle (ours)",
            exclusive: true,
            run: drift::drift_sweep,
            scenarios: drift::drift_scenarios,
        },
    ]
}

/// Looks an artifact up by name.
pub fn find(name: &str) -> Option<ArtifactSpec> {
    registry().into_iter().find(|spec| spec.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let specs = registry();
        assert!(specs.len() >= 20, "every table and figure is registered");
        for (i, a) in specs.iter().enumerate() {
            assert!(!a.name.is_empty() && !a.paper_ref.is_empty());
            for b in &specs[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate artifact name");
            }
            assert!(find(a.name).is_some());
        }
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn scenario_enumeration_is_deterministic() {
        let ctx = ArtifactCtx::new(ExperimentScale::smoke(), "smoke", 42);
        for spec in registry() {
            let a: Vec<String> = (spec.scenarios)(&ctx)
                .iter()
                .map(Scenario::cache_key)
                .collect();
            let b: Vec<String> = (spec.scenarios)(&ctx)
                .iter()
                .map(Scenario::cache_key)
                .collect();
            assert_eq!(a, b, "{} scenarios unstable", spec.name);
        }
    }
}
