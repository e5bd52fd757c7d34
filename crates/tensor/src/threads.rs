//! Worker-thread budget shared by every parallel section in the workspace.
//!
//! Parallel kernels (the GEMM kernel, tile simulation, the inference server's
//! worker pools) all ask [`max_threads`] how many workers they may spawn.
//! The budget resolves, in priority order:
//!
//! 1. a programmatic override set via [`set_max_threads`] (CLI `--threads`;
//!    `0` clears the override and falls through to the next step);
//! 2. the `XBAR_THREADS` environment variable (parsed once);
//! 3. `available_parallelism()` capped at 8 — the historical default, which
//!    keeps small boxes responsive and avoids oversubscription on large
//!    ones unless the user explicitly asks for more.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cap applied to the auto-detected default (not to explicit requests).
const DEFAULT_CAP: usize = 8;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("XBAR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(0)
    })
}

/// Sets the process-wide worker budget, overriding `XBAR_THREADS` and the
/// auto-detected default.
///
/// Passing `0` clears any previous override, restoring auto-detection
/// (`XBAR_THREADS`, then `available_parallelism()` capped at 8) — it does
/// *not* mean "one thread". CLI `--threads` flags document the same
/// convention.
pub fn set_max_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// The number of worker threads parallel sections may use.
pub fn max_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced >= 1 {
        return forced;
    }
    let env = env_threads();
    if env >= 1 {
        return env;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(DEFAULT_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_positive_and_capped() {
        // No override in this process (tests must not call set_max_threads
        // globally — it is process-wide).
        let n = max_threads();
        assert!(n >= 1);
        if OVERRIDE.load(Ordering::Relaxed) == 0 && env_threads() == 0 {
            assert!(n <= DEFAULT_CAP);
        }
    }

    #[test]
    fn override_wins_and_zero_resets_to_auto() {
        // Save and restore OVERRIDE state: it is process-wide.
        let before = OVERRIDE.load(Ordering::Relaxed);
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        // 0 clears the override: the budget returns to the auto default
        // (env or detected parallelism), not to a single thread.
        set_max_threads(0);
        let auto = max_threads();
        assert!(auto >= 1);
        if env_threads() == 0 {
            assert!(auto <= DEFAULT_CAP);
        }
        OVERRIDE.store(before, Ordering::Relaxed);
    }
}
