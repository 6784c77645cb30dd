//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (host nanoseconds since the
//! tracer's epoch), the span that caused it and, for daemon jobs, the job
//! digest. Spans stay in memory while the run measures and are written
//! out as JSON lines when it ends. A disabled tracer records nothing, so
//! untraced runs pay one branch per call site.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (its index in the tracer).
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `engine.advance`.
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// The daemon job this span belongs to.
    pub digest: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; records nothing unless `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `at`.
    fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns_at(Instant::now());
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            digest: None,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns_at(Instant::now());
        out
    }

    /// Records a span measured elsewhere (another thread, or an event
    /// timestamped on receipt) under `parent`.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        (start, end): (Instant, Instant),
        digest: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns_at(start);
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: self.ns_at(end).max(start_ns),
            parent,
            digest,
        });
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<SpanId> {
        self.open.last().copied()
    }

    /// The last recorded span named `name` whose interval holds `at`.
    pub fn enclosing(&self, name: &str, at: Instant) -> Option<SpanId> {
        let at = self.ns_at(at);
        self.spans
            .iter()
            .rposition(|s| s.name == name && s.start_ns <= at && at <= s.end_ns)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration in nanoseconds of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Checks that every span ends no earlier than it starts and lies
    /// within its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (id, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {id} {} ends before it starts", s.name));
            }
            if let Some(p) = s.parent.map(|p| &self.spans[p]) {
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {id} {} [{}, {}] outlasts its parent {} [{}, {}]",
                        s.name, s.start_ns, s.end_ns, p.name, p.start_ns, p.end_ns
                    ));
                }
            }
        }
        Ok(())
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(d) = s.digest {
                let _ = write!(out, ",\"digest\":\"{d:016x}\"");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_stay_inside_them() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
            let now = Instant::now();
            let parent = t.current();
            t.record("event", parent, (now, now), Some(7));
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].digest, Some(7));
        t.check_nesting().unwrap();
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
