//! Worker-thread budget shared by every parallel section in the workspace.
//!
//! Parallel kernels (the GEMM kernel, tile simulation, the inference server's
//! worker pools) all ask [`max_threads`] how many workers they may spawn.
//! The budget is read once per process, on first use: the `XBAR_THREADS`
//! environment variable if it holds an integer ≥ 1, else
//! `available_parallelism()` capped at 8, which keeps small boxes
//! responsive and avoids oversubscription on large ones unless the user
//! explicitly asks for more. Nothing changes it afterwards.

use std::sync::OnceLock;

/// Cap applied to the auto-detected default (not to explicit requests).
const DEFAULT_CAP: usize = 8;

/// The number of worker threads parallel sections may use.
pub fn max_threads() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("XBAR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(DEFAULT_CAP)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_positive_and_capped() {
        let n = max_threads();
        assert!(n >= 1);
        if std::env::var_os("XBAR_THREADS").is_none() {
            assert!(n <= DEFAULT_CAP);
        }
        assert_eq!(max_threads(), n, "the budget is read once");
    }
}
