//! In-memory spans around the calls the traced run makes into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. A disabled tracer records
//! nothing and reads no clock, so the same code measures the untraced
//! baseline the tracing overhead is taken against.

use btr_wire::MapBuilder;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to.
    pub request: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// `layer.stage` name.
    pub name: &'static str,
    /// Offset of the start from the tracer's epoch.
    pub start: Duration,
    /// Offset of the end from the tracer's epoch.
    pub end: Duration,
}

/// A span recorder for one workload.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    requests: u64,
}

/// A handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer for `workload`'s spans, recording from the start.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// A fresh request identifier.
    pub fn next_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Opens a span.
    pub fn enter(&mut self, request: u64, parent: SpanId, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            request,
            parent,
            name,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span.
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed();
        }
    }

    /// Runs `f` inside a span.
    pub fn stage<T>(
        &mut self,
        request: u64,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(request, parent, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Milliseconds per request spent in spans named `name` (summed within
    /// a request), one value per request that has such a span.
    pub fn per_request_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(span.request).or_default() +=
                span.end.saturating_sub(span.start).as_secs_f64() * 1e3;
        }
        sums.into_values().collect()
    }

    /// Appends every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let mut line = MapBuilder::new()
                .field("workload", self.workload)
                .field("request", span.request)
                .field("span", id as u64)
                .field("name", span.name)
                .field("start_us", span.start.as_secs_f64() * 1e6)
                .field("end_us", span.end.as_secs_f64() * 1e6);
            if let Some(parent) = span.parent {
                line = line.field("parent", parent as u64);
            }
            let text = btr_wire::json::to_string(&line.build())
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            writeln!(out, "{text}")?;
        }
        Ok(())
    }

    /// Writes every span to `path` as JSON lines.
    pub fn write_to(tracers: &[&Tracer], path: &Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for tracer in tracers {
            tracer.write_jsonl(&mut file)?;
        }
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_request() {
        let mut t = Tracer::new("test");
        for _ in 0..2 {
            let req = t.next_request();
            let root = t.enter(req, None, "request");
            t.stage(req, root, "leaf", || {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.stage(req, root, "leaf", || {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.exit(root);
        }
        let leaf = t.per_request_ms("leaf");
        assert_eq!(leaf.len(), 2);
        assert!(leaf.iter().all(|ms| *ms >= 4.0), "{leaf:?}");
        let request = t.per_request_ms("request");
        assert!(request.iter().zip(&leaf).all(|(r, l)| r >= l));
        assert_eq!(t.spans()[1].parent, Some(0));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("in-memory write");
        assert_eq!(String::from_utf8_lossy(&buf).lines().count(), 6);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new("test");
        t.set_enabled(false);
        let req = t.next_request();
        let id = t.enter(req, None, "request");
        assert_eq!(id, None);
        assert_eq!(t.stage(req, id, "leaf", || 7), 7);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
