//! Span/event tracer: thread-safe collection of timed, nested spans and
//! instantaneous events into a bounded, process-global buffer.
//!
//! Design notes:
//!
//! * Spans are recorded **on drop** (end time known), so the buffer holds
//!   finished spans in completion order. Nesting depth is tracked per
//!   thread; a span started while another is open on the same thread gets
//!   `depth + 1`.
//! * Timestamps are microsecond offsets from a process-wide epoch (first
//!   use), which keeps records `Copy`-cheap and makes JSONL output
//!   machine-diffable without wall-clock noise.
//! * The buffer is a ring: a long-running server keeps the most recent
//!   [`BUFFER_CAPACITY`] records per kind and counts what it evicted
//!   (`obs/trace_spans_dropped`) instead of growing without bound.
//!   Positions handed to [`Watch`] are *logical* (monotonic since process
//!   start), so a watch survives evictions — it just sees fewer records.
//! * Tests observe the global buffer through a [`Watch`], which remembers
//!   the buffer position at construction and filters to the calling
//!   thread, so parallel tests don't see each other's records.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.6}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}
field_from! {
    u64 => U64 as u64,
    u32 => U64 as u64,
    u16 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    isize => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Key/value pairs attached to a record.
pub type Fields = Vec<(&'static str, FieldValue)>;

/// A finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub fields: Fields,
    /// Small dense per-thread index (0 = first thread to trace).
    pub thread: u64,
    /// Nesting depth on its thread: 0 for top-level phases.
    pub depth: u32,
    /// Start offset from the process trace epoch, microseconds.
    pub start_us: u64,
    pub duration_us: u64,
}

/// An instantaneous event.
#[derive(Debug, Clone)]
pub struct EventRecord {
    pub name: &'static str,
    pub fields: Fields,
    pub thread: u64,
    /// Depth of the enclosing span plus one (0 = outside any span).
    pub depth: u32,
    /// Offset from the process trace epoch, microseconds.
    pub at_us: u64,
}

/// Per-kind (spans, events) buffer capacity: enough for every record a
/// bench run produces, small enough (a few MB) to hold resident in a
/// server.
pub const BUFFER_CAPACITY: usize = 65_536;

#[derive(Default)]
struct Buffer {
    spans: VecDeque<SpanRecord>,
    events: VecDeque<EventRecord>,
    /// Logical index of `spans[0]` — grows as old records are evicted.
    spans_base: usize,
    events_base: usize,
    dropped_spans: u64,
    dropped_events: u64,
}

impl Buffer {
    fn push_span(&mut self, record: SpanRecord, cap: usize) {
        while self.spans.len() >= cap {
            self.spans.pop_front();
            self.spans_base += 1;
            self.dropped_spans += 1;
        }
        self.spans.push_back(record);
    }

    fn push_event(&mut self, record: EventRecord, cap: usize) {
        while self.events.len() >= cap {
            self.events.pop_front();
            self.events_base += 1;
            self.dropped_events += 1;
        }
        self.events.push_back(record);
    }
}

fn buffer() -> &'static Mutex<Buffer> {
    static BUFFER: OnceLock<Mutex<Buffer>> = OnceLock::new();
    BUFFER.get_or_init(|| Mutex::new(Buffer::default()))
}

/// Process-wide trace epoch: all timestamps are offsets from this instant.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch — the clock every span and
/// event timestamp shares. Public so request tracing can timestamp stages
/// measured outside a `SpanGuard`.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

static STDERR_ECHO: AtomicBool = AtomicBool::new(false);

/// Enables/disables the live stderr progress reporter (events and
/// shallow span completions). Off by default; bench binaries turn it on
/// unless `--quiet` is given.
pub(crate) fn set_stderr_echo(on: bool) {
    STDERR_ECHO.store(on, Ordering::Relaxed);
}

pub(crate) fn stderr_echo_enabled() -> bool {
    STDERR_ECHO.load(Ordering::Relaxed)
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

fn format_fields(fields: &Fields) -> String {
    let mut out = String::new();
    for (k, v) in fields {
        out.push(' ');
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
    }
    out
}

fn echo_line(kind: &str, name: &str, detail: &str) {
    let secs = now_us() as f64 / 1e6;
    eprintln!("[{secs:8.2}s] {kind} {name}{detail}");
}

/// RAII guard created by the `span!` macro; records the span when dropped.
#[must_use = "a span is timed until the guard is dropped"]
pub struct SpanGuard {
    name: &'static str,
    fields: Fields,
    depth: u32,
    start: Instant,
    start_us: u64,
}

impl SpanGuard {
    pub fn enter(name: &'static str, fields: Fields) -> Self {
        let depth = DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur + 1);
            cur
        });
        SpanGuard {
            name,
            fields,
            depth,
            start: Instant::now(),
            start_us: now_us(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let record = SpanRecord {
            name: self.name,
            fields: std::mem::take(&mut self.fields),
            thread: thread_index(),
            depth: self.depth,
            start_us: self.start_us,
            duration_us: self.start.elapsed().as_micros() as u64,
        };
        if stderr_echo_enabled() && record.depth == 0 {
            echo_line(
                "phase",
                record.name,
                &format!(
                    " done in {:.2}s{}",
                    record.duration_us as f64 / 1e6,
                    format_fields(&record.fields)
                ),
            );
        }
        buffer()
            .lock()
            .expect("trace buffer poisoned")
            .push_span(record, BUFFER_CAPACITY);
    }
}

/// Records a pre-timed span directly — for stage timings measured across
/// threads (request tracing) where no RAII guard can bracket the work.
/// Depth and thread are taken from the calling thread at record time.
pub fn record_span_raw(name: &'static str, fields: Fields, start_us: u64, duration_us: u64) {
    let record = SpanRecord {
        name,
        fields,
        thread: thread_index(),
        depth: DEPTH.with(|d| d.get()),
        start_us,
        duration_us,
    };
    buffer()
        .lock()
        .expect("trace buffer poisoned")
        .push_span(record, BUFFER_CAPACITY);
}

/// Records an instantaneous event; used via the `event!` macro.
pub fn record_event(name: &'static str, fields: Fields) {
    let record = EventRecord {
        name,
        fields,
        thread: thread_index(),
        depth: DEPTH.with(|d| d.get()),
        at_us: now_us(),
    };
    if stderr_echo_enabled() {
        echo_line("event", record.name, &format_fields(&record.fields));
    }
    buffer()
        .lock()
        .expect("trace buffer poisoned")
        .push_event(record, BUFFER_CAPACITY);
}

/// Snapshot of the retained spans (all threads), in completion order.
pub fn all_spans() -> Vec<SpanRecord> {
    buffer()
        .lock()
        .expect("trace buffer poisoned")
        .spans
        .iter()
        .cloned()
        .collect()
}

/// Snapshot of the retained events (all threads), in record order.
pub fn all_events() -> Vec<EventRecord> {
    buffer()
        .lock()
        .expect("trace buffer poisoned")
        .events
        .iter()
        .cloned()
        .collect()
}

/// `(spans, events)` evicted from the ring so far — nonzero means a trace
/// export is missing the oldest records.
pub fn dropped_counts() -> (u64, u64) {
    let buf = buffer().lock().expect("trace buffer poisoned");
    (buf.dropped_spans, buf.dropped_events)
}

/// A race-free window onto the global trace buffer for tests: only records
/// produced *after* construction *on the constructing thread* are visible,
/// so concurrently running tests don't pollute each other. Positions are
/// logical, so ring evictions shrink the window instead of corrupting it.
pub struct Watch {
    spans_from: usize,
    events_from: usize,
    thread: u64,
}

impl Watch {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let buf = buffer().lock().expect("trace buffer poisoned");
        Watch {
            spans_from: buf.spans_base + buf.spans.len(),
            events_from: buf.events_base + buf.events.len(),
            thread: thread_index(),
        }
    }

    /// Spans completed on this thread since the watch began (and still
    /// retained by the ring).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let buf = buffer().lock().expect("trace buffer poisoned");
        let skip = self.spans_from.saturating_sub(buf.spans_base);
        buf.spans
            .iter()
            .skip(skip)
            .filter(|s| s.thread == self.thread)
            .cloned()
            .collect()
    }

    /// Events recorded on this thread since the watch began (and still
    /// retained by the ring).
    pub fn events(&self) -> Vec<EventRecord> {
        let buf = buffer().lock().expect("trace buffer poisoned");
        let skip = self.events_from.saturating_sub(buf.events_base);
        buf.events
            .iter()
            .skip(skip)
            .filter(|e| e.thread == self.thread)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, span};

    #[test]
    fn spans_nest_and_time_monotonically() {
        let watch = Watch::new();
        {
            let _outer = span!("outer", tag = "t");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("inner", layer = 3_usize);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let spans = watch.spans();
        assert_eq!(spans.len(), 2, "two spans recorded");
        // Inner finishes first.
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_us >= outer.start_us, "inner starts after outer");
        assert!(
            outer.duration_us >= inner.duration_us,
            "outer ({}us) envelops inner ({}us)",
            outer.duration_us,
            inner.duration_us
        );
        assert!(inner.duration_us >= 1_000, "sleep must register");
        assert_eq!(inner.fields, vec![("layer", FieldValue::U64(3))]);
    }

    #[test]
    fn depth_recovers_after_drop() {
        let watch = Watch::new();
        {
            let _a = span!("a");
        }
        {
            let _b = span!("b");
        }
        let spans = watch.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.depth == 0), "siblings both depth 0");
    }

    #[test]
    fn events_carry_enclosing_depth() {
        let watch = Watch::new();
        event!("outside");
        {
            let _s = span!("phase");
            event!("inside", step = 1_usize, ok = true);
        }
        let events = watch.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].depth, 0);
        assert_eq!(events[1].depth, 1);
        assert_eq!(
            events[1].fields,
            vec![("step", FieldValue::U64(1)), ("ok", FieldValue::Bool(true)),]
        );
        assert!(events[0].at_us <= events[1].at_us, "event order preserved");
    }

    #[test]
    fn raw_spans_record_given_timing() {
        let watch = Watch::new();
        record_span_raw("raw_stage", vec![("k", FieldValue::U64(1))], 123, 456);
        let spans = watch.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "raw_stage");
        assert_eq!(spans[0].start_us, 123);
        assert_eq!(spans[0].duration_us, 456);
    }

    #[test]
    fn watch_does_not_see_other_threads() {
        let watch = Watch::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _s = span!("other_thread_span");
                event!("other_thread_event");
            });
        });
        assert!(watch.spans().is_empty());
        assert!(watch.events().is_empty());
        assert!(
            all_spans().iter().any(|s| s.name == "other_thread_span"),
            "global view still includes it"
        );
    }

    fn raw(name: &'static str, start: u64) -> SpanRecord {
        SpanRecord {
            name,
            fields: vec![],
            thread: 0,
            depth: 0,
            start_us: start,
            duration_us: 1,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_tracks_logical_base() {
        // Exercises the eviction path on a private buffer so the shared
        // global ring (and every parallel test watching it) is untouched.
        let mut buf = Buffer::default();
        for i in 0..20 {
            buf.push_span(raw("ring_test_span", i), 8);
        }
        assert_eq!(buf.spans.len(), 8, "ring bounded");
        assert_eq!(buf.dropped_spans, 12);
        assert_eq!(buf.spans_base, 12, "base advances with evictions");
        assert_eq!(buf.spans.front().unwrap().start_us, 12, "oldest evicted");
        assert_eq!(buf.spans.back().unwrap().start_us, 19, "newest retained");

        // A watch taken at logical position 15 skips 15 - base = 3 records
        // and still sees the last 5 — the arithmetic Watch::spans uses.
        let skip = 15usize.saturating_sub(buf.spans_base);
        assert_eq!(buf.spans.iter().skip(skip).count(), 5);
        // A watch older than everything retained sees the whole ring.
        let skip = 2usize.saturating_sub(buf.spans_base);
        assert_eq!(buf.spans.iter().skip(skip).count(), 8);
    }

    #[test]
    fn event_ring_evicts_and_counts() {
        let mut buf = Buffer::default();
        for i in 0..5 {
            buf.push_event(
                EventRecord {
                    name: "ring_test_event",
                    fields: vec![],
                    thread: 0,
                    depth: 0,
                    at_us: i,
                },
                3,
            );
        }
        assert_eq!(buf.events.len(), 3);
        assert_eq!(buf.dropped_events, 2);
        assert_eq!(buf.events_base, 2);
    }
}
