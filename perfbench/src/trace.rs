//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only in the traced pass, kept in memory, and written
//! as JSON lines when the benchmark ends. A span's layer is its name up to
//! the first `.`; its self time is its duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (unique within the run).
    pub id: u32,
    /// Id of the span that caused this one.
    pub parent: Option<u32>,
    /// Request id (plan index) the span belongs to.
    pub req: usize,
    /// `layer.operation` name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span is attributed to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder shared by the load generator and its waiter threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserve a span id (so a parent can be named before it ends).
    pub fn id(&self) -> u32 {
        // A counter that publishes no other data.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span under a reserved id.
    pub fn record(
        &self,
        id: u32,
        parent: Option<u32>,
        req: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the span lock")
            .push(span);
    }

    /// Time `f` as a span named `name`; returns its result and duration.
    pub fn time<T>(
        &self,
        parent: Option<u32>,
        req: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(id, parent, req, name, start, end);
        (out, end - start)
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder panicked while holding the span lock")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time and span count of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans attributed to the layer.
    pub spans: u64,
    /// Total duration of those spans.
    pub total_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
}

/// Per-layer self time: each span's duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = out.entry(s.layer()).or_default();
        e.spans += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, "request", 0, 100),
            span(1, Some(0), "service.submit", 10, 20),
            span(2, Some(0), "service.wait", 15, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].self_ns, 100 - 80);
        assert_eq!(t["service"].total_ns, 10 + 75);
        assert_eq!(t["service"].self_ns, 85);
    }
}
