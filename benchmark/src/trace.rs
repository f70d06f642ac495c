//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded by the benchmark's own (single) driving thread, kept
//! in memory and written out once, in Chrome trace format, when the run
//! ends. A disabled tracer costs one branch per span, which is how the
//! traced run measures its own overhead.

use std::cell::RefCell;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one repetition share a run id.
    pub run_id: u64,
}

#[derive(Debug)]
struct State {
    enabled: bool,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            state: RefCell::new(State {
                enabled,
                run_id: 0,
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.state.borrow().enabled
    }

    /// Switch recording on or off (between spans, not inside one).
    pub fn set_enabled(&self, enabled: bool) {
        let mut state = self.state.borrow_mut();
        assert!(state.open.is_empty(), "toggled inside an open span");
        state.enabled = enabled;
    }

    /// Start a new repetition: later spans carry the next run id.
    pub fn next_run(&self) {
        self.state.borrow_mut().run_id += 1;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut state = self.state.borrow_mut();
            if !state.enabled {
                drop(state);
                return f();
            }
            let span = Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: state.open.last().copied(),
                run_id: state.run_id,
            };
            state.spans.push(span);
            let index = state.spans.len() - 1;
            state.open.push(index);
            // Read the clock last so the bookkeeping above lands outside.
            state.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
            index
        };
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut state = self.state.borrow_mut();
        state.spans[index].end_ns = end_ns;
        assert_eq!(state.open.pop(), Some(index), "spans close innermost first");
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Chrome trace format (open in `chrome://tracing` or Perfetto): one
    /// complete ("X") event per span, times in microseconds.
    pub fn chrome_trace(&self) -> Value {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let events = spans
            .iter()
            .zip(&self_ns)
            .map(|(span, &self_ns)| {
                Value::object([
                    ("name", Value::str(&span.name)),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(span.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Value::Num((span.end_ns - span.start_ns) as f64 / 1e3),
                    ),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::object([
                            (
                                "parent",
                                span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("run_id", Value::Num(span.run_id as f64)),
                            ("self_us", Value::Num(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::object([
            ("displayTimeUnit", Value::str("ms")),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let within = &spans[parent];
            let start = span.start_ns.max(within.start_ns);
            let end = span.end_ns.min(within.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
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
            run_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a by 10
            span("leaf", 15, 20, Some(1)),
            span("c", 90, 120, Some(0)), // spills past the parent
        ];
        // root: 100 − (a ∪ b = 50) − (c clipped = 10); grandchildren only
        // count against their own parent.
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30]);
    }

    #[test]
    fn nesting_and_run_ids_are_recorded() {
        let tracer = Tracer::new(true);
        tracer.next_run();
        let out = tracer.span("outer", || tracer.span("inner", || 7));
        assert_eq!(out, 7);
        tracer.set_enabled(false);
        tracer.span("ignored", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent),
            ("inner", Some(0))
        );
        assert!(spans
            .iter()
            .all(|s| s.run_id == 1 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let trace = tracer.chrome_trace();
        let Some(Value::Arr(events)) = trace.get("traceEvents") else {
            panic!("no events");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("args").unwrap().get("parent"),
            Some(&Value::Num(0.0))
        );
    }
}
