//! # xbar-obs
//!
//! Zero-dependency observability layer for the train → prune → map →
//! simulate pipeline: structured spans and events ([`trace`]), a metrics
//! registry with counters, gauges, and log-bucketed histograms
//! ([`metrics`]), and pluggable sinks — a human-readable stderr progress
//! reporter and a JSONL run-manifest writer ([`sink`]).
//!
//! Everything funnels into one process-global recorder so library crates
//! can instrument hot paths without threading a context object through
//! every call; the bench binaries decide at exit what to do with the data
//! (print a phase summary, write `--trace-out` JSONL, or both).
//!
//! ## Spans and events
//!
//! ```
//! use xbar_obs::{event, span};
//!
//! let _phase = span!("map");                       // timed until dropped
//! for layer in 0..3 {
//!     let _s = span!("map_layer", layer = layer);  // nested span
//!     event!("tile_done", layer = layer, nf = 1.25_f64);
//! }
//! ```
//!
//! ## Metrics
//!
//! ```
//! use xbar_obs::metrics;
//!
//! metrics::counter_add("doc/tiles", 1);
//! metrics::gauge_set("doc/layer0/nf", 1.31);
//! metrics::latency_record_us("doc/solver_iters", 17);
//! ```
//!
//! ## Sinks
//!
//! [`sink::write_jsonl`] serialises the manifest, every span/event, every
//! metric, and a per-phase timing summary as one JSON object per line; the
//! schema is documented on that function. [`sink::stderr_echo`] toggles
//! live progress lines (`--quiet` turns them off).
//! [`chrome::write_chrome_trace`] renders the same span data as a Chrome
//! Trace Event file loadable in `chrome://tracing` / Perfetto.
//!
//! ## Request tracing
//!
//! [`ring`] adds per-*request* observability on top of the span tracer:
//! traced requests collect per-stage timings as they cross worker pools
//! and finish with a [`ring::TraceId`], their stages published as spans in
//! the one bounded span buffer. [`metrics::latency_record_us`] feeds every
//! distribution — latencies, counts, scaled ratios — into log-bucketed
//! [`hdr::LogHistogram`]s whose quantiles stay within ~3% without
//! hand-picked bucket bounds. Metric names are declared once in [`names`];
//! debug builds reject unregistered names at the record site.

pub mod chrome;
pub mod hdr;
pub mod json;
pub mod metrics;
pub mod names;
pub mod ring;
pub mod sink;
pub mod trace;

pub use hdr::LogHistogram;
pub use ring::{RequestTrace, Sampler, TraceId};
pub use trace::{EventRecord, FieldValue, SpanGuard, SpanRecord, Watch};

/// Starts a timed, nested span; the returned [`SpanGuard`] records the span
/// when dropped. Fields are `key = value` pairs where the value converts
/// into a [`FieldValue`].
///
/// ```
/// # use xbar_obs::span;
/// let _guard = span!("solve_tile", rows = 32_usize, tol = 1e-9);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::trace::SpanGuard::enter(
            $name,
            vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*],
        )
    };
}

/// Records an instantaneous structured event (and echoes it to stderr when
/// the progress reporter is enabled).
///
/// ```
/// # use xbar_obs::event;
/// event!("train_epoch", epoch = 3_usize, loss = 0.42_f64);
/// ```
#[macro_export]
macro_rules! event {
    ($name:literal $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::trace::record_event(
            $name,
            vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*],
        )
    };
}
