//! In-memory span recording for the traced run.
//!
//! A span is a name, a start, an end and the span that was open when it
//! began. Spans are recorded by the benchmark's own code around calls into
//! the program's public functions; the program itself carries no tracing.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::time::Instant;

/// One closed (or still open) span. Times are seconds since the trace began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `certify.segments`.
    pub name: String,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Start, seconds since the trace's origin.
    pub start: f64,
    /// End, seconds since the trace's origin.
    pub end: f64,
    /// A probe span measures extra work the command itself does not do (a
    /// second, differently configured call). Its time is excluded from the
    /// traced total that `trace_overhead_frac` compares.
    pub probe: bool,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A single-threaded span recorder. A disabled recorder runs the same code
/// and records nothing.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// Starts an empty trace whose origin is now.
    pub fn new() -> Trace {
        Trace {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Trace {
        Trace {
            enabled: false,
            ..Trace::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn enter(&mut self, name: &str, probe: bool) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start,
            end: start,
            probe,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.enter(name, false);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Runs `f` inside a probe span (see [`Span::probe`]).
    pub fn probe<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.enter(name, true);
        let out = f(self);
        self.exit(id);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (lo, hi) in kids {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Sums the self time of every span whose name is `name`.
pub fn self_time_of(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            start,
            end,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        // root [0,10) ─┬─ a [1,4) ── a1 [2,3)
        //              ├─ b [3,6)      (overlaps a: union [1,6) = 5)
        //              └─ c [9,12)     (clipped to the root: 1)
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("a1", Some(1), 2.0, 3.0),
            span("b", Some(0), 3.0, 6.0),
            span("c", Some(0), 9.0, 12.0),
        ];
        let t = self_times(&spans);
        let want = [10.0 - 5.0 - 1.0, 3.0 - 1.0, 1.0, 3.0, 3.0];
        for (got, want) in t.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{t:?}");
        }
        assert!((self_time_of(&spans, "a") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut t = Trace::new();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.probe("side", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[2].probe && !s[1].probe);
        assert!(s.iter().all(|s| s.end >= s.start));
        assert!(s[0].end >= s[2].end);
        let mut off = Trace::off();
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
