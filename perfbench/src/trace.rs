//! In-memory spans recorded around the calls the benchmark makes into each
//! layer's public functions.
//!
//! A span has a name (the layer, e.g. `graph.prune`), a start and an end,
//! the span that caused it and the request it belongs to. Spans are kept in
//! memory while the workload runs and written out as JSON lines when it
//! ends. A layer's *self time* is its span's duration minus the part of it
//! that its child spans cover.
//!
//! The untraced measurement passes `None` wherever a tracer is accepted, so
//! the end-to-end figures are taken without any of this bookkeeping.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<u64>,
    /// Request (operation) the span belongs to.
    pub request: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// A deliberate stall inside every span of one name, so a test can show
    /// that a slowed layer moves that layer's metric and no other.
    delay: Option<(&'static str, Duration)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            delay: None,
        }
    }
}

impl Tracer {
    /// Sleep for `delay` inside every span named `name`.
    #[cfg(test)]
    pub fn with_delay(mut self, name: &'static str, delay: Duration) -> Tracer {
        self.delay = Some((name, delay));
        self
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserve a span id, for a span whose children are recorded before it
    /// ends (see [`Tracer::record`]).
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span whose bounds the caller measured itself.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking workload thread")
            .push(span);
    }

    /// Run `f` inside a span; `f` gets the span's id to parent children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.reserve();
        let start = Instant::now();
        if let Some((slowed, delay)) = self.delay {
            if slowed == name {
                std::thread::sleep(delay);
            }
        }
        let value = f(id);
        self.record(id, name, parent, request, start, Instant::now());
        value
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking workload thread")
            .clone()
    }

    /// Self time of every span in ms, summed per (name, request).
    pub fn self_ms(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for span in &spans {
            let covered = children.get(&span.id).map_or(0, |c| covered_ns(span, c));
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered);
            *out.entry(span.name)
                .or_default()
                .entry(span.request)
                .or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Per-request self time of one layer in ms (empty when never seen).
    pub fn layer_ms(&self, name: &str) -> Vec<f64> {
        self.self_ms()
            .get(name)
            .map(|per_request| per_request.values().copied().collect())
            .unwrap_or_default()
    }

    /// Per-request wall time of one span name in ms, children included.
    pub fn duration_ms(&self, name: &str) -> Vec<f64> {
        let mut per_request: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans().iter().filter(|s| s.name == name) {
            *per_request.entry(span.request).or_default() +=
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e6;
        }
        per_request.into_values().collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `span` covered by the union of `children` intervals
/// (clipped to the span; children on other threads may overlap).
fn covered_ns(span: &Span, children: &[(u64, u64)]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Run `f` inside a span when tracing, or bare when not: the one call shape
/// the workloads use for both their traced and untraced passes.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, parent, request, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::default();
        tracer.span("outer", None, 7, |outer| {
            std::thread::sleep(Duration::from_millis(4));
            tracer.span("inner", Some(outer), 7, |_| {
                std::thread::sleep(Duration::from_millis(20));
            });
        });
        let outer = tracer.layer_ms("outer")[0];
        let inner = tracer.layer_ms("inner")[0];
        assert!(inner >= 20.0, "inner {inner}");
        assert!((4.0..20.0).contains(&outer), "outer {outer}");
        assert!(tracer.layer_ms("missing").is_empty());
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let span = Span {
            id: 1,
            parent: None,
            request: 0,
            name: "s",
            start_ns: 0,
            end_ns: 100,
        };
        assert_eq!(covered_ns(&span, &[(10, 50), (40, 60), (90, 200)]), 60);
    }
}
