//! The conditions a result was measured under.

use std::path::Path;
use xbar_obs::json::Json;

/// The tile-solver SIMD path, probed in the same order `xbar_sim::solve`
/// dispatches on.
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// The checked-out revision, read from `.git` in the working directory
/// (never from a parent directory), or `None` outside a git checkout.
fn git_revision() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_string())
}

fn git_dirty() -> Option<bool> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then_some(!out.stdout.is_empty())
}

/// Host, build and run conditions, as a JSON object.
pub fn collect(workload: &str, seed: u64, seconds: f64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = git_revision();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("git_rev".into(), rev.map_or(Json::Null, Json::Str)),
        (
            "git_dirty".into(),
            git_dirty().map_or(Json::Null, Json::Bool),
        ),
        ("simd".into(), Json::Str(simd_path().into())),
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "tensor_threads".into(),
            Json::Num(xbar_tensor::threads::max_threads() as f64),
        ),
        (
            "serve_replicas".into(),
            Json::Num(xbar_serve::ServeConfig::default().replicas as f64),
        ),
        (
            "model".into(),
            Json::Str("VGG11-BN width 0.25, CIFAR10-like synthetic data".into()),
        ),
    ])
}
