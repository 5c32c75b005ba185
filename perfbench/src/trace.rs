//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own side of each call into a
//! layer's public API: name, start, end, parent span and op id. They stay
//! in memory while the run measures and are written out once at exit.
//! Self time is a span's duration minus the time its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Records a work count measured at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// Adds to a work count (a layer called once per job, say).
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// The counts recorded since the last call.
    pub fn take_counts(&mut self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut self.counts)
    }

    /// Self time of every span: duration minus the summed durations of
    /// its direct children (children of one parent never overlap).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| span.duration_ns().saturating_sub(children))
            .collect()
    }

    /// Total duration of the spans named `name` under each root span
    /// named `root`, one entry per such root, in root order. A layer
    /// called several times within one op (one call per job, say) sums
    /// into that op's entry.
    pub fn per_root_totals_ns(&self, root: &str, name: &str) -> Vec<u64> {
        let mut roots: BTreeMap<usize, u64> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() && span.name == root {
                roots.insert(index, 0);
            }
        }
        for span in &self.spans {
            if span.name != name {
                continue;
            }
            if let Some(top) = self.root_of(span) {
                if let Some(total) = roots.get_mut(&top) {
                    *total += span.duration_ns();
                }
            }
        }
        roots.into_values().collect()
    }

    /// Durations of the root spans named `name`, in order.
    pub fn root_durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|span| span.parent.is_none() && span.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self times of the root spans named `name`, in order.
    pub fn root_self_times_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(span, _)| span.parent.is_none() && span.name == name)
            .map(|(_, self_ns)| self_ns)
            .collect()
    }

    fn root_of(&self, span: &Span) -> Option<usize> {
        let mut parent = span.parent?;
        while let Some(next) = self.spans[parent].parent {
            parent = next;
        }
        Some(parent)
    }

    /// The spans as JSON lines, each with its self time.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}, \"self_ns\": {}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op, self_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_totals_group_by_root() {
        let mut tracer = Tracer::new();
        for op in 0..2 {
            tracer.set_op(op);
            tracer.span("op", |t| {
                t.span("layer", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                t.span("layer", |_| ());
            });
        }
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].op, 1);
        let self_ns = tracer.self_times_ns();
        assert_eq!(
            self_ns[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        let totals = tracer.per_root_totals_ns("op", "layer");
        assert_eq!(totals.len(), 2);
        assert!(totals[0] >= 2_000_000);
        assert_eq!(tracer.to_json_lines().lines().count(), 6);
    }
}
