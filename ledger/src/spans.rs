//! In-memory spans around the calls the ledger makes into each layer.
//!
//! Spans are recorded from outside the crates, kept in memory, and written
//! out when the traced run ends.  A layer's self time is its span minus the
//! part of that interval its child spans cover.

use crate::json::{obj, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<module>.<step>`, the layer the call belongs to.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The injection run the span worked for; spans of one run share it.
    pub run: Option<u32>,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, run: Option<u32>) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it) and returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
        (end - self.spans[id].start) as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result with the duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        run: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(name, run);
        let r = f();
        (r, self.exit(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * 1e-9)
            .collect()
    }

    /// Total self time per span name, in seconds, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let own = self_times(&self.spans);
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(own) {
            match totals.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, t)) => *t += ns as f64 * 1e-9,
                None => totals.push((span.name, ns as f64 * 1e-9)),
            }
        }
        totals
    }

    /// The span dump written beside the results.
    pub fn to_json(&self) -> Value {
        let num = |v: u64| Value::Num(v as f64);
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", Value::from(s.name)),
                        ("start_ns", num(s.start)),
                        ("end_ns", num(s.end)),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("run", s.run.map_or(Value::Null, |r| num(u64::from(r)))),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span in nanoseconds: its duration minus the union of
/// its direct children's intervals, clipped to the span.  Children may
/// overlap one another (work handed to parallel helpers); the union counts
/// an overlapped stretch once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (start, end) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("run", 0, 100, None),
            span("restore", 10, 30, Some(0)),
            span("sim", 30, 90, Some(0)),
            span("mem", 40, 60, Some(2)),
        ];
        // Grandchildren reduce their parent's self time, not the root's.
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span("campaign", 0, 100, None),
            span("worker", 10, 60, Some(0)),
            span("worker", 40, 80, Some(0)),
            span("worker", 50, 55, Some(0)),
            // A child running past its parent is clipped to it.
            span("journal", 90, 130, Some(0)),
        ];
        // Union of children inside the parent: [10, 80) and [90, 100).
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_closes_inner_spans() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", Some(7));
        let inner = t.enter("inner", Some(7));
        let _leaked = t.enter("leaked", None);
        // Closing `inner` also closes what was left open inside it.
        t.exit(inner);
        let ((), _) = t.time("sibling", None, || ());
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[2].parent, Some(inner));
        assert_eq!(s[3].parent, Some(outer));
        assert!(s[2].end == s[1].end && s[0].end >= s[3].end);
        assert_eq!(t.durations("inner").len(), 1);
        let own: f64 = t.self_times().iter().map(|(_, v)| v).sum();
        let total = (s[0].end - s[0].start) as f64 * 1e-9;
        assert!(
            (own - total).abs() < 1e-9,
            "self times must add up to the root span"
        );
    }
}
