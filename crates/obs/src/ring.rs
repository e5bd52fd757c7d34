//! Per-request tracing: trace IDs, sampling, and per-stage timings.
//!
//! The span tracer in [`crate::trace`] answers "where did this *process*
//! spend time"; this module answers "where did this *request* spend time".
//! A traced request accumulates per-stage timings (queue → batch → solve →
//! respond) as it moves through the worker pools and finishes as one
//! [`RequestTrace`] with a fresh [`TraceId`].
//!
//! [`RequestTrace::emit_spans`] publishes a finished trace into the global
//! span buffer (each stage becomes a span tagged with the trace ID). That
//! buffer is bounded, so a long-running server keeps the most recent
//! traces and counts what it evicted, and a JSONL sink written at shutdown
//! lets `obs-report` join a response's trace ID to its queue/batch/solve
//! breakdown.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::{self, FieldValue};

/// A 64-bit request trace identifier, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl TraceId {
    /// Parses the 16-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// SplitMix64 finaliser — turns a sequential counter into well-spread IDs.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Returns a fresh process-unique trace ID. IDs are never zero and don't
/// repeat within a process; distinct processes are distinguished by a
/// seed mixed from the wall clock and the PID.
pub fn next_trace_id() -> TraceId {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        nanos ^ ((std::process::id() as u64) << 32)
    });
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let id = mix(seed.wrapping_add(n.wrapping_mul(0x9e3779b97f4a7c15)));
    TraceId(if id == 0 { 1 } else { id })
}

/// 1-in-N sampling decision shared across worker threads.
///
/// `every == 0` disables sampling entirely; `every == 1` samples every
/// request. The decision is deterministic (a shared counter), so load
/// tests sample a predictable fraction.
#[derive(Debug)]
pub struct Sampler {
    every: u64,
    seq: AtomicU64,
}

impl Sampler {
    pub fn new(every: u64) -> Self {
        Sampler {
            every,
            seq: AtomicU64::new(0),
        }
    }

    /// Returns `true` for one request in every `N`.
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
    }
}

/// One timed stage of a request's life (offsets share the process trace
/// epoch, so stages from different threads line up).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    pub stage: &'static str,
    pub start_us: u64,
    pub duration_us: u64,
}

/// A finished, traced request: its ID, route, and per-stage breakdown.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    pub id: TraceId,
    pub endpoint: &'static str,
    pub start_us: u64,
    pub total_us: u64,
    pub stages: Vec<StageTiming>,
}

impl RequestTrace {
    pub fn new(id: TraceId, endpoint: &'static str, start_us: u64) -> Self {
        RequestTrace {
            id,
            endpoint,
            start_us,
            total_us: 0,
            stages: Vec::new(),
        }
    }

    pub fn push_stage(&mut self, stage: &'static str, start_us: u64, duration_us: u64) {
        self.stages.push(StageTiming {
            stage,
            start_us,
            duration_us,
        });
    }

    /// Publishes each stage as a span in the global trace buffer, tagged
    /// `trace_id = <hex>`, so JSONL sinks carry the request breakdown and
    /// readers can join on the ID a client saw in its response.
    pub fn emit_spans(&self) {
        let id = self.id.to_string();
        for stage in &self.stages {
            trace::record_span_raw(
                stage.stage,
                vec![
                    ("trace_id", FieldValue::Str(id.clone())),
                    ("endpoint", FieldValue::Str(self.endpoint.to_string())),
                ],
                stage.start_us,
                stage.duration_us,
            );
        }
        trace::record_span_raw(
            "request",
            vec![
                ("trace_id", FieldValue::Str(id)),
                ("endpoint", FieldValue::Str(self.endpoint.to_string())),
            ],
            self.start_us,
            self.total_us,
        );
    }

    /// One-line human-readable stage breakdown, for slow-request dumps:
    /// `a1b2... classify 12345us (queue 10us, batch 40us, solve 12000us)`.
    pub fn describe(&self) -> String {
        let stages = self
            .stages
            .iter()
            .map(|s| format!("{} {}us", s.stage, s.duration_us))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{} {} {}us ({stages})",
            self.id, self.endpoint, self.total_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_unique_nonzero_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = next_trace_id();
            assert_ne!(id.0, 0);
            assert!(seen.insert(id), "duplicate id {id}");
            let text = id.to_string();
            assert_eq!(text.len(), 16);
            assert_eq!(TraceId::parse(&text), Some(id));
        }
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse("0123"), None);
    }

    #[test]
    fn sampler_takes_one_in_n() {
        let s = Sampler::new(4);
        let hits = (0..100).filter(|_| s.sample()).count();
        assert_eq!(hits, 25);
        let off = Sampler::new(0);
        assert!((0..10).all(|_| !off.sample()));
        let all = Sampler::new(1);
        assert!((0..10).all(|_| all.sample()));
    }

    #[test]
    fn stages_and_unaccounted_time() {
        let mut t = RequestTrace::new(TraceId(7), "classify", 100);
        t.push_stage("queue", 100, 40);
        t.push_stage("solve", 140, 50);
        t.total_us = 100;
        // The total sits next to the stages, so the 10us no stage covers
        // shows in the dump.
        let line = t.describe();
        assert!(line.contains("classify 100us"), "{line}");
        assert!(line.contains("queue 40us"), "{line}");
        assert!(line.contains("solve 50us"), "{line}");
        assert!(line.contains("0000000000000007"), "{line}");
    }

    #[test]
    fn emit_spans_lands_in_global_buffer_with_trace_id() {
        let watch = crate::trace::Watch::new();
        let id = next_trace_id();
        let mut t = RequestTrace::new(id, "classify", 5);
        t.push_stage("queue", 5, 2);
        t.total_us = 9;
        t.emit_spans();
        let spans = watch.spans();
        assert_eq!(spans.len(), 2, "stage + request spans");
        let hex = id.to_string();
        for s in &spans {
            assert!(
                s.fields
                    .iter()
                    .any(|(k, v)| *k == "trace_id" && matches!(v, FieldValue::Str(h) if *h == hex)),
                "span {} missing trace_id",
                s.name
            );
        }
    }
}
