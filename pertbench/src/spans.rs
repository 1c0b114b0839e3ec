//! Spans recorded from the bench's own files around calls into each
//! layer: `{name, start, end, parent, workload}`, kept in memory and
//! written out once at exit. Spans inside the library crates are a later
//! change.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.shard.split`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Records nested spans for one workload. When built with
/// `enabled = false` (every timed pass) `span` only calls the closure.
pub struct Tracer {
    workload: &'static str,
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; records only when `enabled`.
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Tracer {
            workload,
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Total duration of every span called `name`, seconds (0 when none).
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span with its self time.
    pub fn to_json(&self) -> String {
        let selfs = self_ns(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"workload\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, self.workload
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap here
/// (one thread, strictly nested), so the cover is the sum.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("split", 10, 30, Some(0)),
            span("epochs", 30, 90, Some(0)),
            span("mailbox", 40, 50, Some(2)),
        ];
        // run: 100 − 20 − 60; epochs: 60 − 10; grandchildren are charged
        // to their own parent only.
        assert_eq!(self_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::new("w", true);
        let x = t.span("outer", |t| t.span("inner", |_| 1) + t.span("inner", |_| 2));
        assert_eq!(x, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(t.total_s("inner") <= t.total_s("outer"));
        assert_eq!(t.total_s("absent"), 0.0);
        assert!(t.to_json().contains("\"workload\":\"w\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", false);
        assert_eq!(t.span("a", |t| t.span("b", |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
