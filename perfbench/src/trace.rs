//! In-memory spans recorded around the benchmark's calls into each layer,
//! their self times, and the Chrome-trace export.
//!
//! A span is recorded by the benchmark, never inside the system crates: it
//! brackets one public call (a layer's forward pass, one tile simulation,
//! one HTTP round trip). A [`Tracer`] that is off records nothing and does
//! not read the clock, so the same replay code runs traced and untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// Spans that belong to one operation (one serve request, one map
    /// call) share this ID.
    pub id: u64,
    /// Optional small argument, e.g. the weighted-layer ordinal.
    pub arg: Option<u32>,
    /// Recording thread (Chrome-trace lane).
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when the tracer is off.
#[must_use = "pass the mark to Tracer::end"]
pub struct Mark(Option<usize>);

/// Records nested spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, tid: u32) -> Self {
        Tracer {
            on,
            origin,
            tid,
            id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An inert tracer for untraced runs of the replay code.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    /// Sets the operation ID stamped on spans begun from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    pub fn begin(&mut self, name: &'static str) -> Mark {
        self.begin_at(name, None, None)
    }

    pub fn begin_arg(&mut self, name: &'static str, arg: u32) -> Mark {
        self.begin_at(name, Some(arg), None)
    }

    /// Begins a span at an explicit earlier instant (an open-loop request
    /// starts when it was due, not when the client got to it).
    pub fn begin_from(&mut self, name: &'static str, start: Instant) -> Mark {
        self.begin_at(name, None, Some(start))
    }

    fn begin_at(&mut self, name: &'static str, arg: Option<u32>, start: Option<Instant>) -> Mark {
        if !self.on {
            return Mark(None);
        }
        let at = start.unwrap_or_else(Instant::now);
        let start_ns = at.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id: self.id,
            arg,
            tid: self.tid,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Mark(Some(idx))
    }

    /// Ends the span `mark` opened (and any still open inside it).
    pub fn end(&mut self, mark: Mark) {
        let Some(idx) = mark.0 else { return };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Times `f` as one leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let mark = self.begin(name);
        let out = f();
        self.end(mark);
        out
    }

    /// Like [`Tracer::time`], tagging the span with `arg`.
    pub fn time_arg<T>(&mut self, name: &'static str, arg: u32, f: impl FnOnce() -> T) -> T {
        let mark = self.begin_arg(name, arg);
        let out = f();
        self.end(mark);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (recorded by another tracer with the same origin) to
/// `spans`, re-basing its parent indices.
pub fn merge(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Children that overlap
/// each other (recorded on several threads) are counted once, and any part
/// of a child outside its parent is ignored.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut run: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list, in milliseconds.
#[derive(Debug, Default)]
pub struct Totals {
    /// Summed self time by span name.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Summed self time by (span name, argument).
    pub self_ms_arg: BTreeMap<(&'static str, u32), f64>,
    /// Number of spans by (span name, argument).
    pub count_arg: BTreeMap<(&'static str, u32), u64>,
    /// Summed duration of root spans.
    pub root_ms: f64,
    /// Number of root spans.
    pub roots: u64,
    /// Summed self time of every span.
    pub all_self_ms: f64,
}

impl Totals {
    pub fn of(spans: &[Span]) -> Self {
        let mut t = Totals::default();
        for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            let ms = self_ns as f64 / 1e6;
            *t.self_ms.entry(s.name).or_default() += ms;
            t.all_self_ms += ms;
            if let Some(arg) = s.arg {
                *t.self_ms_arg.entry((s.name, arg)).or_default() += ms;
                *t.count_arg.entry((s.name, arg)).or_default() += 1;
            }
            if s.parent.is_none() {
                t.root_ms += s.dur_ns() as f64 / 1e6;
                t.roots += 1;
            }
        }
        t
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Summed self time of every span whose name starts with `prefix`.
    pub fn ms_prefix(&self, prefix: &str) -> f64 {
        self.self_ms
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold(0.0, |acc, (_, ms)| acc + ms)
    }
}

/// Renders spans as Chrome-trace JSON (`chrome://tracing`, Perfetto),
/// keeping at most `limit` spans so a long run stays a loadable file.
pub fn chrome_json(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(a) = s.arg {
            let _ = write!(out, ",\"arg\":{a}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            arg: None,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        let t = Totals::of(&spans);
        assert_eq!(t.all_self_ms, t.root_ms, "self times add up to the wall");
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("t1", 10, 60, Some(0)),
            span("t2", 40, 80, Some(0)),
            // Sticks out past the parent: only [90, 100) is covered.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_an_off_tracer_records_nothing() {
        let mut on = Tracer::new(true, Instant::now(), 3);
        on.set_id(9);
        let outer = on.begin("outer");
        on.time_arg("inner", 2, || std::hint::black_box(1 + 1));
        on.end(outer);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].id, spans[1].arg, spans[1].tid), (9, Some(2), 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        let m = off.begin("x");
        off.end(m);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents_and_chrome_json_is_bounded() {
        let mut spans = vec![span("a", 0, 10, None)];
        merge(
            &mut spans,
            vec![span("b", 0, 5, None), span("c", 1, 2, Some(0))],
        );
        assert_eq!(spans[2].parent, Some(1));
        let json = chrome_json(&spans, 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        xbar_obs::json::Json::parse(&json).expect("valid JSON");
    }
}
