//! In-memory spans around the benchmark's calls into each layer.
//!
//! A traced run opens one iteration span per timed iteration; every layer
//! span recorded while it is open names it as parent. Set-up spans have no
//! parent. Spans stay in memory until the run ends and are then written
//! out as JSON. With tracing off every method is a pass-through, so the
//! untraced loop pays one branch per call.

use serde_json::Value;
use std::time::Instant;

/// One closed span, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing iteration span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of the per-iteration parent span.
pub const ITERATION: &str = "iteration";

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open,
        });
        out
    }

    /// Runs `f` as one iteration: the parent of every span it records.
    pub fn iteration<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: ITERATION,
            start_ns,
            end_ns: start_ns,
            parent: None,
        });
        self.open = Some(index);
        let out = f(self);
        self.open = None;
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("start_ns".to_string(), Value::U64(s.start_ns)),
                    ("end_ns".to_string(), Value::U64(s.end_ns)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![("spans".to_string(), Value::Array(spans))])
    }
}

/// Per-iteration summary of a finished trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub iterations: usize,
    /// Total iteration-span time, ns.
    pub iteration_ns: u64,
    /// Iteration time covered by child spans, ns.
    pub covered_ns: u64,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Self {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut summary = Summary {
            iterations: 0,
            iteration_ns: 0,
            covered_ns: 0,
        };
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            if s.name == ITERATION {
                summary.iterations += 1;
                summary.iteration_ns += s.duration_ns();
                summary.covered_ns += covered(kids);
            }
        }
        summary
    }

    /// Share of iteration time inside layer spans.
    pub fn coverage(&self) -> f64 {
        if self.iteration_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.iteration_ns as f64
        }
    }

    /// Iteration self time (duration minus child coverage) per iteration, ms.
    pub fn self_ms(&self) -> f64 {
        per_iteration_ms(self.iteration_ns - self.covered_ns, self.iterations)
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Time inside iterations spent in spans named `name`, per iteration, ms.
pub fn layer_ms(spans: &[Span], name: &str, iterations: usize) -> f64 {
    per_iteration_ms(total_ns(spans, name, true), iterations)
}

/// Time in set-up spans (no parent) named `name`, ms.
pub fn setup_ms(spans: &[Span], name: &str) -> f64 {
    per_iteration_ms(total_ns(spans, name, false), 1)
}

fn total_ns(spans: &[Span], name: &str, in_iteration: bool) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some() == in_iteration)
        .map(Span::duration_ns)
        .sum()
}

fn per_iteration_ms(ns: u64, iterations: usize) -> f64 {
    ns as f64 / 1e6 / iterations.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(ITERATION, 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span(ITERATION, 100, 200, None),
            span("a", 100, 190, Some(3)),
            span("setup", 0, 500, None),
        ];
        let s = Summary::of(&spans);
        assert_eq!(s.iterations, 2);
        assert_eq!(s.iteration_ns, 200);
        assert_eq!(s.covered_ns, 50 + 90);
        assert!((s.coverage() - 0.7).abs() < 1e-12);
        assert!((s.self_ms() - 30e-6).abs() < 1e-15);
        assert!((layer_ms(&spans, "a", 2) - 60e-6).abs() < 1e-15);
        assert_eq!(layer_ms(&spans, "setup", 2), 0.0);
        assert!((setup_ms(&spans, "setup") - 500e-6).abs() < 1e-15);
        assert_eq!(setup_ms(&spans, "a"), 0.0);
    }

    #[test]
    fn tracer_links_layer_spans_to_their_iteration() {
        let mut t = Tracer::new(true);
        t.span("setup", || ());
        let v = t.iteration(|t| t.span("layer", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, ITERATION);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[1].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[1].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.iteration(|t| t.span("layer", || 3)), 3);
        assert!(off.spans().is_empty());
    }
}
