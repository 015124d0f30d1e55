//! In-memory span recorder and per-layer self-time accounting.
//!
//! A span is `(name, start, end, parent, input)`. Spans nest properly
//! (every child lies inside its parent), so a span's *self time* — its
//! duration minus its children's — partitions the root span exactly:
//! the self times of all spans sum to the traced pass time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`core.convert`, `egraph.search`, …).
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the benchmark input the span belongs to.
    pub input: Option<usize>,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans against a fixed epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        input: Option<usize>,
    ) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            input,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        input: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, input);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-closed span from two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        input: Option<usize>,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch);
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            input,
        });
        self.spans.len() - 1
    }

    /// Spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"input\": {}}}",
                    s.name,
                    s.start.as_secs_f64() * 1e6,
                    s.end.as_secs_f64() * 1e6,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.input.map_or("null".to_owned(), |i| i.to_string()),
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n "))
    }
}

/// Self time per span name: each span's duration minus its direct
/// children's durations, summed over spans of the same name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_default() += s.duration().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let ms = Duration::from_millis;
        let span = |name, a, b, parent| Span {
            name,
            start: ms(a),
            end: ms(b),
            parent,
            input: None,
        };
        let spans = vec![
            span("pass", 0, 100, None),
            span("core.convert", 5, 20, Some(0)),
            span("core.saturate", 20, 90, Some(0)),
            span("egraph.search", 30, 70, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["pass"], ms(15));
        assert_eq!(st["core.convert"], ms(15));
        assert_eq!(st["core.saturate"], ms(30));
        assert_eq!(st["egraph.search"], ms(40));
        assert_eq!(st.values().sum::<Duration>(), ms(100));
    }
}
