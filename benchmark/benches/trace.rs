//! Spans recorded by the benchmark around each call into a product
//! layer. Held in memory, written out when the run ends. With tracing
//! off [`Tracer::begin`] and [`Tracer::end`] do nothing, so the
//! end-to-end metrics are measured without them.

use std::time::Instant;

use crate::json::Value;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Shared by every span of one workload run.
    trace_id: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, trace_id: String) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            trace_id,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans close innermost first");
    }

    /// Seconds spent inside spans called `name`, children included.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The trace document: every span with its self time.
    pub fn to_json(&self, workload: &str) -> Value {
        let selfs = self_times(&self.spans);
        Value::obj([
            ("schema", Value::str("ethmeter-benchmark-trace/v1")),
            ("workload", Value::str(workload)),
            ("trace_id", Value::str(&self.trace_id)),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .zip(selfs)
                        .map(|(s, self_ns)| {
                            Value::obj([
                                ("name", Value::str(&s.name)),
                                ("start_ns", Value::Num(s.start_ns as f64)),
                                ("end_ns", Value::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                                ),
                                ("self_ns", Value::Num(self_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children may overlap one another (threads)
/// or stick out of the parent (clock granularity); covered time is the
/// union of their intervals clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if clipped.0 < clipped.1 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 5 and is counted once where both run.
            span("b", 25, 50, Some(0)),
            // A grandchild takes time from `b`, not from the root.
            span("b.inner", 30, 40, Some(2)),
            // Sticks out of its parent: only [90, 100) is covered.
            span("late", 90, 120, Some(0)),
            span("sibling-root", 200, 260, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 15, 10, 30, 60]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "x".into());
        let open = t.begin("a");
        t.end(open);
        assert!(t.spans.is_empty());
        assert_eq!(t.total_s("a"), 0.0);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true, "x".into());
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        let again = t.begin("inner");
        t.end(again);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        assert_eq!(self_times(&t.spans).len(), 3);
    }
}
