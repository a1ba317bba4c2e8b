//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! workspace's public functions (no crate is instrumented from inside),
//! kept in memory as `(name, start, end, parent, request id)` and written
//! out once the run ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::io::Write;
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One closed span; times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `models.step`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or batch) the span belongs to; spans of one request
    /// share it.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only span store with a shared time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a closed span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        req: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span { name, start, end, parent, req });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`]. Children may be
    /// recorded against the returned id before it closes.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let t = self.now();
        self.record(name, t, t, parent, None)
    }

    /// Closes a span opened with [`Tracer::open`] at the current time.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, None);
        out
    }

    /// Total duration, in seconds, of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur() as f64).sum::<f64>() * 1e-9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of span `id` in seconds: see [`self_time_ns`].
    pub fn self_time_s(&self, id: SpanId) -> f64 {
        self_time_ns(&self.spans, id) as f64 * 1e-9
    }

    /// Writes every span as a tab-separated line
    /// `id name start_ns end_ns parent req` (`-` for none).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req)
            )?;
        }
        Ok(())
    }
}

/// Self time of `spans[id]` in nanoseconds: its duration minus the union
/// of its direct children's intervals, clipped to the parent's interval
/// (overlapping children — e.g. from several threads — are counted once).
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let p = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(p.start), s.end.min(p.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    p.dur() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start, end, parent, req: None }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("fit", 0, 100, None),
            span("step", 10, 30, Some(0)),
            span("step", 50, 60, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 70);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two worker threads' children overlap in [20, 30).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 40, 50, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 60);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 0, 50, Some(0)),
            span("grandchild", 60, 90, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50);
        // The grandchild lies outside its parent's interval: clipped away.
        assert_eq!(self_time_ns(&spans, 1), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 5);
    }

    #[test]
    fn tracer_totals_and_self_time_by_id() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("fit", 0, 100, None, None);
        t.record("step", 10, 40, Some(root), Some(0));
        t.record("step", 50, 60, Some(root), Some(1));
        assert_eq!(t.count("step"), 2);
        assert!((t.total_s("step") - 40e-9).abs() < 1e-15);
        assert!((t.self_time_s(root) - 60e-9).abs() < 1e-15);
    }
}
