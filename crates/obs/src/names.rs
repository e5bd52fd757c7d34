//! Central registry of every metric name the workspace records.
//!
//! String-keyed [`crate::metrics`] calls silently create a brand-new series
//! on a typo; this module closes that hole. Every metric is declared here
//! once — as a constant the call sites reference — together with its kind
//! and a one-line meaning, and the registry functions in `metrics` reject
//! (under `debug_assertions`) any name that is neither registered here nor
//! under a test-only prefix.
//!
//! A few series are *families* keyed by a runtime value (per-layer gauges,
//! per-endpoint latencies); those are declared with a trailing `*` wildcard
//! and constructed through the helper functions below so the prefix still
//! lives in exactly one place.
//!
//! [`reference_markdown`] renders the registry as the metrics-reference
//! table in `README.md`; a test pins the two together so the table cannot
//! rot.

/// What a registered series is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    /// Log-bucketed histogram of integer samples (see
    /// [`crate::hdr::LogHistogram`]).
    Histogram,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered metric (or, with a trailing `*`, a metric family).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Full name, or a prefix ending in `*` for runtime-keyed families.
    pub name: &'static str,
    pub kind: MetricKind,
    /// One-line meaning, used for the README reference table.
    pub help: &'static str,
}

// --- serving -------------------------------------------------------------
pub const SERVE_UP: &str = "serve/up";
pub const SERVE_DEGRADED: &str = "serve/degraded";
pub const SERVE_DEGRADED_TILES: &str = "serve/degraded_tiles";
pub const SERVE_STUCK_CELLS: &str = "serve/stuck_cells";
pub const SERVE_REPAIRED_COLUMNS: &str = "serve/repaired_columns";
pub const SERVE_MAX_FAULT_SCORE: &str = "serve/max_fault_score";
pub const SERVE_QUEUE_DEPTH: &str = "serve/queue_depth";
pub const SERVE_CONNECTIONS: &str = "serve/connections";
pub const SERVE_CONNECTIONS_REJECTED: &str = "serve/connections_rejected";
pub const SERVE_BAD_REQUESTS: &str = "serve/bad_requests";
pub const SERVE_HTTP_REQUESTS: &str = "serve/http_requests";
pub const SERVE_CLASSIFY_REQUESTS: &str = "serve/classify_requests";
pub const SERVE_CLASSIFY_BAD_INPUT: &str = "serve/classify_bad_input";
pub const SERVE_CLASSIFY_REJECTED: &str = "serve/classify_rejected";
pub const SERVE_CLASSIFY_TIMEOUT: &str = "serve/classify_timeout";
pub const SERVE_CLASSIFY_FAILED: &str = "serve/classify_failed";
pub const SERVE_CLASSIFY_OK: &str = "serve/classify_ok";
pub const SERVE_QUEUE_REJECTIONS: &str = "serve/queue_rejections";
pub const SERVE_BATCHES: &str = "serve/batches";
pub const SERVE_BATCH_SIZE: &str = "serve/batch_size";
pub const SERVE_INFER_US: &str = "serve/infer_us";
pub const SERVE_PARSE_US: &str = "serve/parse_us";
pub const SERVE_QUEUE_US: &str = "serve/queue_us";
pub const SERVE_SLOW_REQUESTS: &str = "serve/slow_requests";
pub const SERVE_TRACE_SAMPLED: &str = "serve/trace_sampled";
pub const SERVE_DRIFT_ELAPSED_S: &str = "serve/drift_elapsed_s";
pub const SERVE_DRIFT_MEAN_DECAY: &str = "serve/drift_mean_decay";
pub const SERVE_HEALTH_SWEEPS: &str = "serve/health_sweeps";
pub const SERVE_SWEEP_US: &str = "serve/sweep_us";
pub const SERVE_PROBE_ACCURACY: &str = "serve/probe_accuracy";
pub const SERVE_PROBE_DEVIATION: &str = "serve/probe_deviation";
pub const SERVE_PROBE_CURRENT_DEVIATION: &str = "serve/probe_current_deviation";
pub const SERVE_MITIGATION_RUNG: &str = "serve/mitigation_rung";
pub const SERVE_DRIFT_REFRESHED_CELLS: &str = "serve/drift_refreshed_cells";
pub const SERVE_DRIFT_REMAPPED_COLUMNS: &str = "serve/drift_remapped_columns";
pub const SERVE_RELOADS: &str = "serve/reloads";
pub const SERVE_ADMISSION_SHED: &str = "serve/admission_shed";
pub const SERVE_OPEN_CONNECTIONS: &str = "serve/open_connections";
pub const SERVE_INFLIGHT: &str = "serve/inflight";
/// Family prefix for the per-replica classify-request counters.
const SERVE_REPLICA_REQUESTS_PREFIX: &str = "serve/replica_requests/";

/// Per-replica request counter name (`serve/replica_requests/<i>`), one
/// series per inference replica in the pool.
pub fn serve_replica_requests(replica: usize) -> String {
    format!("{SERVE_REPLICA_REQUESTS_PREFIX}{replica}")
}

/// Family prefix for the per-endpoint request-latency log histograms.
const SERVE_REQUEST_US_PREFIX: &str = "serve/request_us/";

/// Per-endpoint request-latency series name for a route label
/// (`classify`, `healthz`, `metrics`, `model`, `admin`, `other`).
pub fn serve_request_us(endpoint: &'static str) -> String {
    format!("{SERVE_REQUEST_US_PREFIX}{endpoint}")
}

// --- simulator -----------------------------------------------------------
pub const SIM_STUCK_CELLS: &str = "sim/stuck_cells";
pub const SIM_TILE_SOLVE_US: &str = "sim/tile_solve_us";
pub const SIM_TILE_SWEEPS: &str = "sim/tile_sweeps";
pub const SIM_NF_COLUMN_PPM: &str = "sim/nf_column_ppm";
pub const SIM_SOLVE_CACHE_HITS: &str = "sim/solve_cache_hits";
pub const SIM_SOLVE_CACHE_MISSES: &str = "sim/solve_cache_misses";
pub const SIM_TILE_FALLBACKS: &str = "sim/tile_fallbacks";
pub const SIM_TILE_FAILURES: &str = "sim/tile_failures";
pub const SIM_SOLVE_BATCH_CALLS: &str = "sim/solve_batch_calls";
pub const SIM_SOLVE_BATCH_SIZE: &str = "sim/solve_batch_size";
pub const SIM_SOLVE_BATCH_SWEEPS: &str = "sim/solve_batch_sweeps";

// --- mapping pipeline ----------------------------------------------------
pub const MAP_CROSSBARS: &str = "map/crossbars";
pub const MAP_SOLVER_ITERATIONS: &str = "map/solver_iterations";
pub const MAP_STUCK_CELLS: &str = "map/stuck_cells";
pub const MAP_REPAIRED_COLUMNS: &str = "map/repaired_columns";
pub const MAP_CORRECTED_CELLS: &str = "map/corrected_cells";
pub const MAP_DEGRADED_TILES: &str = "map/degraded_tiles";
const MAP_LAYER_PREFIX: &str = "map/layer";

/// Per-layer gauge name (`map/layer<i>/<stat>`), e.g.
/// `map_layer_gauge(3, "nf_mean")`.
pub fn map_layer_gauge(layer: usize, stat: &'static str) -> String {
    format!("{MAP_LAYER_PREFIX}{layer}/{stat}")
}

// --- bench harness -------------------------------------------------------
pub const BENCH_SCENARIO_CACHE_HITS: &str = "bench/scenario_cache_hits";
pub const BENCH_SCENARIO_CACHE_MISSES: &str = "bench/scenario_cache_misses";

// --- observability self-metrics ------------------------------------------
pub const OBS_TRACE_SPANS_DROPPED: &str = "obs/trace_spans_dropped";

/// The full registry, one entry per metric or family. Keep alphabetised
/// within each group; the README table renders in this order.
pub const REGISTRY: &[MetricDef] = &[
    MetricDef {
        name: SERVE_UP,
        kind: MetricKind::Gauge,
        help: "1 while the server is accepting, 0 after drain",
    },
    MetricDef {
        name: SERVE_DEGRADED,
        kind: MetricKind::Gauge,
        help: "1 when any tile is past the repair threshold",
    },
    MetricDef {
        name: SERVE_DEGRADED_TILES,
        kind: MetricKind::Gauge,
        help: "tiles still degraded after repair",
    },
    MetricDef {
        name: SERVE_STUCK_CELLS,
        kind: MetricKind::Gauge,
        help: "stuck cells reported by the served artifact",
    },
    MetricDef {
        name: SERVE_REPAIRED_COLUMNS,
        kind: MetricKind::Gauge,
        help: "spare-column repairs in the served artifact",
    },
    MetricDef {
        name: SERVE_MAX_FAULT_SCORE,
        kind: MetricKind::Gauge,
        help: "worst per-tile fault score in the served artifact",
    },
    MetricDef {
        name: SERVE_QUEUE_DEPTH,
        kind: MetricKind::Gauge,
        help: "classify requests waiting in the batch queue",
    },
    MetricDef {
        name: SERVE_CONNECTIONS,
        kind: MetricKind::Counter,
        help: "TCP connections accepted",
    },
    MetricDef {
        name: SERVE_CONNECTIONS_REJECTED,
        kind: MetricKind::Counter,
        help: "connections turned away with 503 (--max-connections cap)",
    },
    MetricDef {
        name: SERVE_BAD_REQUESTS,
        kind: MetricKind::Counter,
        help: "malformed HTTP requests answered 400",
    },
    MetricDef {
        name: SERVE_HTTP_REQUESTS,
        kind: MetricKind::Counter,
        help: "HTTP requests parsed (all routes)",
    },
    MetricDef {
        name: SERVE_CLASSIFY_REQUESTS,
        kind: MetricKind::Counter,
        help: "POST /v1/classify requests received",
    },
    MetricDef {
        name: SERVE_CLASSIFY_BAD_INPUT,
        kind: MetricKind::Counter,
        help: "classify bodies rejected with 400",
    },
    MetricDef {
        name: SERVE_CLASSIFY_REJECTED,
        kind: MetricKind::Counter,
        help: "classify requests shed with 503 (batch queue full)",
    },
    MetricDef {
        name: SERVE_CLASSIFY_TIMEOUT,
        kind: MetricKind::Counter,
        help: "classify requests answered 504 (inference backlog)",
    },
    MetricDef {
        name: SERVE_CLASSIFY_FAILED,
        kind: MetricKind::Counter,
        help: "classify requests failed in the forward pass (500)",
    },
    MetricDef {
        name: SERVE_CLASSIFY_OK,
        kind: MetricKind::Counter,
        help: "classify requests answered 200",
    },
    MetricDef {
        name: SERVE_QUEUE_REJECTIONS,
        kind: MetricKind::Counter,
        help: "batch-queue submits refused at capacity",
    },
    MetricDef {
        name: SERVE_BATCHES,
        kind: MetricKind::Counter,
        help: "micro-batches executed",
    },
    MetricDef {
        name: SERVE_BATCH_SIZE,
        kind: MetricKind::Histogram,
        help: "requests per executed micro-batch",
    },
    MetricDef {
        name: SERVE_INFER_US,
        kind: MetricKind::Histogram,
        help: "forward-pass wall time per micro-batch (µs)",
    },
    MetricDef {
        name: SERVE_SLOW_REQUESTS,
        kind: MetricKind::Counter,
        help: "requests slower than the --slow-ms threshold",
    },
    MetricDef {
        name: SERVE_TRACE_SAMPLED,
        kind: MetricKind::Counter,
        help: "classify requests given a trace ID (--trace-sample)",
    },
    MetricDef {
        name: "serve/request_us/*",
        kind: MetricKind::Histogram,
        help: "request latency per endpoint (µs): classify, healthz, metrics, model, admin, other",
    },
    MetricDef {
        name: SERVE_PARSE_US,
        kind: MetricKind::Histogram,
        help: "classify body parse on the event-loop thread: JSON and image (µs)",
    },
    MetricDef {
        name: SERVE_QUEUE_US,
        kind: MetricKind::Histogram,
        help: "classify request wait in the batch queue, enqueue to batch start (µs)",
    },
    MetricDef {
        name: SERVE_DRIFT_ELAPSED_S,
        kind: MetricKind::Gauge,
        help: "simulated seconds of retention drift since the model was programmed",
    },
    MetricDef {
        name: SERVE_DRIFT_MEAN_DECAY,
        kind: MetricKind::Gauge,
        help: "mean per-cell decay fraction toward G_off at the last sweep",
    },
    MetricDef {
        name: SERVE_HEALTH_SWEEPS,
        kind: MetricKind::Counter,
        help: "background health sweeps executed",
    },
    MetricDef {
        name: SERVE_SWEEP_US,
        kind: MetricKind::Histogram,
        help: "wall time per health sweep, probe replay plus mitigation (µs)",
    },
    MetricDef {
        name: SERVE_PROBE_ACCURACY,
        kind: MetricKind::Gauge,
        help: "probe-set agreement with the pristine model at the last sweep",
    },
    MetricDef {
        name: SERVE_PROBE_DEVIATION,
        kind: MetricKind::Gauge,
        help: "mean per-probe total-variation distance of probe softmax rows vs the pristine model",
    },
    MetricDef {
        name: SERVE_PROBE_CURRENT_DEVIATION,
        kind: MetricKind::Gauge,
        help: "relative drift of batched probe column currents vs pristine devices",
    },
    MetricDef {
        name: SERVE_MITIGATION_RUNG,
        kind: MetricKind::Gauge,
        help: "ladder rung applied at the last sweep (0 none, 1 refresh, 2 remap, 3 reload)",
    },
    MetricDef {
        name: SERVE_DRIFT_REFRESHED_CELLS,
        kind: MetricKind::Counter,
        help: "cells rewritten by program-and-verify refresh sweeps",
    },
    MetricDef {
        name: SERVE_DRIFT_REMAPPED_COLUMNS,
        kind: MetricKind::Counter,
        help: "columns relocated onto spare devices by remap sweeps",
    },
    MetricDef {
        name: SERVE_RELOADS,
        kind: MetricKind::Counter,
        help: "hot artifact swaps through /admin/reload (plus rung-3 re-maps)",
    },
    MetricDef {
        name: SERVE_ADMISSION_SHED,
        kind: MetricKind::Counter,
        help: "classify requests shed with 429 before the batch queue",
    },
    MetricDef {
        name: SERVE_OPEN_CONNECTIONS,
        kind: MetricKind::Gauge,
        help: "connections currently registered with the event loop",
    },
    MetricDef {
        name: SERVE_INFLIGHT,
        kind: MetricKind::Gauge,
        help: "admitted classify requests awaiting an inference result",
    },
    MetricDef {
        name: "serve/replica_requests/*",
        kind: MetricKind::Counter,
        help: "classify requests executed per inference replica",
    },
    MetricDef {
        name: SIM_STUCK_CELLS,
        kind: MetricKind::Counter,
        help: "stuck devices located while programming tiles",
    },
    MetricDef {
        name: SIM_TILE_SOLVE_US,
        kind: MetricKind::Histogram,
        help: "wall time per tile circuit solve (µs)",
    },
    MetricDef {
        name: SIM_TILE_SWEEPS,
        kind: MetricKind::Histogram,
        help: "relaxation sweeps per tile solve",
    },
    MetricDef {
        name: SIM_NF_COLUMN_PPM,
        kind: MetricKind::Histogram,
        help: "per-column non-ideality factor (parts per million)",
    },
    MetricDef {
        name: SIM_SOLVE_CACHE_HITS,
        kind: MetricKind::Counter,
        help: "solve-cache lookups that hit",
    },
    MetricDef {
        name: SIM_SOLVE_CACHE_MISSES,
        kind: MetricKind::Counter,
        help: "solve-cache lookups that missed",
    },
    MetricDef {
        name: SIM_TILE_FALLBACKS,
        kind: MetricKind::Counter,
        help: "tile solves that needed the 4× sweep-budget resume",
    },
    MetricDef {
        name: SIM_TILE_FAILURES,
        kind: MetricKind::Counter,
        help: "tile solves that never converged",
    },
    MetricDef {
        name: SIM_SOLVE_BATCH_CALLS,
        kind: MetricKind::Counter,
        help: "batched circuit-solve invocations",
    },
    MetricDef {
        name: SIM_SOLVE_BATCH_SIZE,
        kind: MetricKind::Histogram,
        help: "input vectors per batched circuit solve",
    },
    MetricDef {
        name: SIM_SOLVE_BATCH_SWEEPS,
        kind: MetricKind::Histogram,
        help: "relaxation sweeps per batch element",
    },
    MetricDef {
        name: MAP_CROSSBARS,
        kind: MetricKind::Counter,
        help: "crossbar tiles mapped",
    },
    MetricDef {
        name: MAP_SOLVER_ITERATIONS,
        kind: MetricKind::Counter,
        help: "total solver sweeps across the mapping",
    },
    MetricDef {
        name: MAP_STUCK_CELLS,
        kind: MetricKind::Counter,
        help: "stuck cells found while mapping",
    },
    MetricDef {
        name: MAP_REPAIRED_COLUMNS,
        kind: MetricKind::Counter,
        help: "columns remapped onto spares while mapping",
    },
    MetricDef {
        name: MAP_CORRECTED_CELLS,
        kind: MetricKind::Counter,
        help: "cells fixed by digital column correction",
    },
    MetricDef {
        name: MAP_DEGRADED_TILES,
        kind: MetricKind::Counter,
        help: "tiles left degraded after repair",
    },
    MetricDef {
        name: "map/layer*",
        kind: MetricKind::Gauge,
        help: "per-layer mapping stats: nf_mean, low_g_fraction, fault_score",
    },
    MetricDef {
        name: BENCH_SCENARIO_CACHE_HITS,
        kind: MetricKind::Counter,
        help: "scenario trainings served from the disk cache",
    },
    MetricDef {
        name: BENCH_SCENARIO_CACHE_MISSES,
        kind: MetricKind::Counter,
        help: "scenario trainings that actually trained",
    },
    MetricDef {
        name: OBS_TRACE_SPANS_DROPPED,
        kind: MetricKind::Counter,
        help: "spans/events evicted from the bounded global trace buffer",
    },
];

/// Whether a concrete metric name is declared in the registry.
///
/// Exact entries match literally; family entries (trailing `*`) match any
/// name starting with the prefix before the `*`. Names under `test/` or
/// `doc/` are always accepted — unit tests and doc examples record ad-hoc
/// series without registering them.
pub fn is_registered(name: &str) -> bool {
    if name.starts_with("test/") || name.starts_with("doc/") {
        return true;
    }
    REGISTRY.iter().any(|def| match def.name.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => def.name == name,
    })
}

/// Debug-only guard used by the `metrics` registry functions: panics (in
/// debug builds) when a call site records an unregistered name, which is
/// how typos used to mint phantom series.
#[track_caller]
pub(crate) fn assert_registered(name: &str) {
    debug_assert!(
        is_registered(name),
        "metric name {name:?} is not declared in xbar_obs::names::REGISTRY \
         (add a constant there, or use a test/-prefixed name in tests)"
    );
}

/// Renders the registry as the markdown metrics-reference table embedded in
/// `README.md` (a test asserts the README stays in sync).
pub fn reference_markdown() -> String {
    let mut out = String::from("| Metric | Type | Meaning |\n|---|---|---|\n");
    for def in REGISTRY {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            def.name,
            def.kind.as_str(),
            def.help
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_slash_pathed() {
        for (i, a) in REGISTRY.iter().enumerate() {
            assert!(a.name.contains('/'), "{} is not a path", a.name);
            assert!(!a.help.is_empty(), "{} lacks help text", a.name);
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate registry entry");
            }
        }
    }

    #[test]
    fn exact_wildcard_and_test_names_match() {
        assert!(is_registered(SERVE_UP));
        assert!(is_registered(&serve_request_us("classify")));
        assert!(is_registered(&map_layer_gauge(7, "nf_mean")));
        assert!(is_registered("test/anything/goes"));
        assert!(is_registered("doc/tiles"));
        assert!(!is_registered("serve/tpyo"));
        assert!(!is_registered(""));
    }

    #[test]
    fn constants_are_all_registered() {
        for name in [
            SERVE_UP,
            SERVE_QUEUE_DEPTH,
            SERVE_INFER_US,
            SERVE_PARSE_US,
            SERVE_QUEUE_US,
            SERVE_SLOW_REQUESTS,
            SERVE_TRACE_SAMPLED,
            SIM_TILE_SOLVE_US,
            SIM_NF_COLUMN_PPM,
            SIM_SOLVE_CACHE_HITS,
            MAP_CROSSBARS,
            BENCH_SCENARIO_CACHE_HITS,
            OBS_TRACE_SPANS_DROPPED,
        ] {
            assert!(is_registered(name), "{name}");
        }
    }

    #[test]
    fn reference_table_lists_every_entry() {
        let table = reference_markdown();
        for def in REGISTRY {
            assert!(table.contains(def.name), "{} missing from table", def.name);
        }
    }

    #[test]
    fn readme_metrics_table_in_sync_with_registry() {
        // The README embeds the reference table verbatim, so a changed
        // name, kind or meaning fails here until the table is regenerated
        // with `names::reference_markdown()`.
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        assert!(
            readme.contains(&reference_markdown()),
            "README.md metrics table differs from the registry; paste the output of \
             xbar_obs::names::reference_markdown() into the metrics section"
        );
    }
}
