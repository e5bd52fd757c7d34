//! Suite-orchestrator integration tests: end-to-end `run_suite` runs against
//! a temporary results directory.
//!
//! The artifact under test is `ablation_approximation` (study A6): it needs
//! no training, has no wall-time columns, and derives all randomness from a
//! fixed xorshift seed — so it is cheap and its CSV must be byte-identical
//! across runs. `XBAR_RESULTS_DIR` is process-global, so every test
//! serialises on one mutex and points the variable at its own directory.

use std::path::PathBuf;
use std::sync::Mutex;
use xbar_bench::scenario::ExperimentScale;
use xbar_bench::suite::{run_suite, suite_json_path, ArtifactStatus, SuiteConfig};
use xbar_obs::json::Json;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Points `XBAR_RESULTS_DIR` at a fresh per-test directory; restores on drop.
struct ResultsDirGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
    dir: PathBuf,
    previous: Option<std::ffi::OsString>,
}

impl ResultsDirGuard {
    fn new(tag: &str) -> Self {
        let lock = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir()
            .join(format!("xbar_suite_test_{}_{tag}", std::process::id()))
            .join("results");
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let previous = std::env::var_os("XBAR_RESULTS_DIR");
        std::env::set_var("XBAR_RESULTS_DIR", &dir);
        ResultsDirGuard {
            _lock: lock,
            dir,
            previous,
        }
    }
}

impl Drop for ResultsDirGuard {
    fn drop(&mut self) {
        match self.previous.take() {
            Some(value) => std::env::set_var("XBAR_RESULTS_DIR", value),
            None => std::env::remove_var("XBAR_RESULTS_DIR"),
        }
        std::fs::remove_dir_all(self.dir.parent().unwrap()).ok();
    }
}

fn quiet_cfg(only: &[&str]) -> SuiteConfig {
    let mut cfg = SuiteConfig::new(ExperimentScale::smoke(), "smoke");
    cfg.only = only.iter().map(|s| s.to_string()).collect();
    cfg.progress = false;
    cfg.workers = 1;
    cfg
}

fn status_of<'r>(report: &'r xbar_bench::suite::SuiteReport, name: &str) -> &'r ArtifactStatus {
    &report
        .artifacts
        .iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("artifact {name} missing from report"))
        .status
}

/// Satellite test 1: one smoke artifact, run twice through the orchestrator,
/// must produce byte-identical CSV and identical key numbers.
#[test]
fn suite_artifact_runs_are_deterministic() {
    let guard = ResultsDirGuard::new("determinism");
    let mut cfg = quiet_cfg(&["ablation_approximation"]);
    cfg.fresh = true; // never resume: both runs must regenerate for real

    let first = run_suite(&cfg).expect("first run");
    assert_eq!(
        *status_of(&first, "ablation_approximation"),
        ArtifactStatus::Ok
    );
    let csv = guard.dir.join("ablation_approximation.csv");
    let bytes_a = std::fs::read(&csv).expect("first CSV");

    let second = run_suite(&cfg).expect("second run");
    assert_eq!(
        *status_of(&second, "ablation_approximation"),
        ArtifactStatus::Ok
    );
    let bytes_b = std::fs::read(&csv).expect("second CSV");

    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "suite re-run must be byte-identical");
    let key = |r: &xbar_bench::suite::SuiteReport| {
        r.artifacts
            .iter()
            .find(|a| a.name == "ablation_approximation")
            .unwrap()
            .key_numbers
            .clone()
    };
    assert_eq!(key(&first), key(&second), "key numbers must match");
}

/// Satellite test 2: `--fail` injects an artifact failure; the suite must
/// finish, write a complete `suite.json` naming the culprit, and report
/// failure (nonzero exit in the binary). A follow-up run without the
/// injection resumes the good artifact and recovers the failed one.
#[test]
fn injected_failure_gates_then_resume_recovers() {
    let guard = ResultsDirGuard::new("gate");
    let mut cfg = quiet_cfg(&["ablation_approximation", "ablation_solver"]);
    cfg.gate = true;
    cfg.fail = vec!["ablation_solver".to_string()];

    let report = run_suite(&cfg).expect("config is valid");
    assert!(report.failed(), "injected failure must gate the run");
    assert_eq!(
        *status_of(&report, "ablation_approximation"),
        ArtifactStatus::Ok
    );
    assert!(
        matches!(status_of(&report, "ablation_solver"), ArtifactStatus::Failed(m) if m.contains("injected")),
        "injected artifact must be marked failed"
    );
    assert!(
        report
            .gate_failures
            .iter()
            .any(|f| f.contains("ablation_solver")),
        "gate failures must name the culprit: {:?}",
        report.gate_failures
    );

    // suite.json is complete despite the failure, with the culprit named.
    let text = std::fs::read_to_string(suite_json_path()).expect("suite.json written");
    let json = Json::parse(&text).expect("suite.json parses");
    assert_eq!(json.get("passed").and_then(Json::as_bool), Some(false));
    let arts = json.get("artifacts").and_then(Json::as_arr).unwrap();
    assert_eq!(arts.len(), 2, "every selected artifact is recorded");
    let solver = arts
        .iter()
        .find(|a| a.get("name").and_then(Json::as_str) == Some("ablation_solver"))
        .unwrap();
    assert_eq!(solver.get("status").and_then(Json::as_str), Some("failed"));
    assert!(solver
        .get("error")
        .and_then(Json::as_str)
        .is_some_and(|e| e.contains("injected")));
    let failures = json.get("gate_failures").and_then(Json::as_arr).unwrap();
    assert!(failures
        .iter()
        .any(|f| f.as_str().is_some_and(|s| s.contains("ablation_solver"))));

    // Re-run without the injection: the ok artifact resumes (not re-run),
    // the failed one is retried and recovers, and the gate clears.
    cfg.fail.clear();
    let resumed = run_suite(&cfg).expect("resume run");
    assert!(!resumed.failed(), "{:?}", resumed.gate_failures);
    assert_eq!(
        *status_of(&resumed, "ablation_approximation"),
        ArtifactStatus::Resumed
    );
    assert_eq!(*status_of(&resumed, "ablation_solver"), ArtifactStatus::Ok);
    drop(guard);
}

/// Satellite test 2 (second half): an out-of-tolerance committed baseline
/// makes `--gate` fail with a named perf culprit. Exercised through the
/// pure comparison plus the report plumbing (`gate_failures` → `failed()` →
/// nonzero exit in the binary) so the test stays cheap; running the real
/// perf benchmark under the gate is covered by CI's `--smoke --gate` run.
#[test]
fn perf_baseline_regression_fails_the_gate() {
    let baseline = Json::parse(
        r#"{"speedup_cached": 40.0, "speedup_warm": 4.0,
            "bit_identical_cached": true, "bit_identical_warm": true}"#,
    )
    .unwrap();
    let fresh = Json::parse(
        r#"{"speedup_cached": 2.0, "speedup_warm": 3.9,
            "bit_identical_cached": true, "bit_identical_warm": true}"#,
    )
    .unwrap();
    let failures = xbar_bench::suite::perf_gate_failures(&baseline, &fresh, 0.5);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("speedup_cached"), "{}", failures[0]);

    // The plumbing: any gate failure flips the report to failed → exit code.
    let mut report = xbar_bench::suite::SuiteReport {
        scale: "smoke".to_string(),
        seed: 42,
        gate: true,
        workers: 1,
        artifacts: Vec::new(),
        scenarios: Default::default(),
        gate_failures: Vec::new(),
        wall_s: 0.0,
    };
    assert!(!report.failed());
    report.gate_failures = failures;
    assert!(report.failed());
    let json = report.to_json();
    assert_eq!(json.get("passed").and_then(Json::as_bool), Some(false));
}
