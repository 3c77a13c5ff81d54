//! Distributed tracing.
//!
//! §3.2: the mesh's position directly below the application gives it
//! visibility that lower layers lack, exercised through distributed
//! tracing — and the paper's prototype *depends* on it: priority
//! propagation rides the same `x-request-id` correlation that tracing
//! uses. This module provides Zipkin-style spans, a collector with three
//! sampling modes (including the *coordinated bursty tracing* of \[4] that
//! §3.2 proposes adapting to meshes), and trace-tree reconstruction with
//! critical-path extraction.

use meshlayer_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Globally unique trace identifier (one per end-to-end request tree).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct TraceId(pub u64);

/// Span identifier, unique within a trace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct SpanId(pub u64);

/// Which side of an RPC a span describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// The caller's view (sidecar outbound).
    Client,
    /// The callee's view (sidecar inbound + app handling).
    Server,
}

/// One span: a request's execution within one microservice hop.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Owning trace.
    pub trace: TraceId,
    /// This span.
    pub id: SpanId,
    /// Parent span (`None` for the root).
    pub parent: Option<SpanId>,
    /// Service the span executed in.
    pub service: String,
    /// Client or server side.
    pub kind: SpanKind,
    /// Start time.
    pub start: SimTime,
    /// End time (== start until finished).
    pub end: SimTime,
    /// Free-form tags (priority class, status, retry count, ...).
    pub tags: Vec<(String, String)>,
}

impl Span {
    /// Span duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// First value of a tag.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Trace sampling strategy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Sampling {
    /// Record every trace.
    Always,
    /// Record a trace with this probability (decided at the root).
    Probabilistic(f64),
    /// Coordinated bursty tracing: record everything during a `burst`-long
    /// window at the start of every `period`, nothing otherwise. All
    /// sidecars share the simulation clock, so bursts are coordinated
    /// across the fleet for free — the property \[4] works to achieve.
    Bursty {
        /// Window period.
        period: SimDuration,
        /// Length of the recording burst at the start of each period.
        burst: SimDuration,
    },
}

impl Sampling {
    /// Whether a trace rooted at `now` should be recorded. `coin` is a
    /// uniform draw in `[0,1)` supplied by the caller.
    pub fn sample(&self, now: SimTime, coin: f64) -> bool {
        match self {
            Sampling::Always => true,
            Sampling::Probabilistic(p) => coin < *p,
            Sampling::Bursty { period, burst } => {
                let pos = now.as_nanos() % period.as_nanos().max(1);
                pos < burst.as_nanos()
            }
        }
    }
}

/// Collects finished spans.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    dropped: u64,
    /// Hard cap to bound memory in long runs.
    capacity: usize,
}

impl Tracer {
    /// A tracer retaining up to `capacity` spans (oldest kept; overflow
    /// counted in [`Tracer::dropped`]).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            spans: Vec::new(),
            dropped: 0,
            capacity,
        }
    }

    /// Record a finished span.
    pub fn record(&mut self, span: Span) {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.spans.push(span);
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans dropped due to the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Group spans into per-trace trees.
    pub fn traces(&self) -> Vec<TraceTree> {
        let mut by_trace: HashMap<TraceId, Vec<&Span>> = HashMap::new();
        for s in &self.spans {
            by_trace.entry(s.trace).or_default().push(s);
        }
        let mut out: Vec<TraceTree> = by_trace
            .into_iter()
            .map(|(id, spans)| TraceTree {
                trace: id,
                spans: spans.into_iter().cloned().collect(),
            })
            .collect();
        out.sort_by_key(|t| t.trace);
        out
    }
}

/// All spans of one trace, with tree queries.
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// The trace id.
    pub trace: TraceId,
    /// The spans (unordered).
    pub spans: Vec<Span>,
}

impl TraceTree {
    /// The root span (no parent). `None` for incomplete traces.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Direct children of a span, ordered by start time.
    pub fn children(&self, id: SpanId) -> Vec<&Span> {
        let mut c: Vec<&Span> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
        c.sort_by_key(|s| s.start);
        c
    }

    /// End-to-end duration (root span duration).
    pub fn duration(&self) -> Option<SimDuration> {
        self.root().map(|r| r.duration())
    }

    /// Depth of the tree (root = 1).
    pub fn depth(&self) -> usize {
        fn go(t: &TraceTree, id: SpanId, budget: usize) -> usize {
            if budget == 0 {
                return 0;
            }
            1 + t
                .children(id)
                .iter()
                .map(|c| go(t, c.id, budget - 1))
                .max()
                .unwrap_or(0)
        }
        self.root().map_or(0, |r| go(self, r.id, 64))
    }

    /// The critical path: from the root, repeatedly descend into the child
    /// whose end time is latest. Returns the service names along the path,
    /// with consecutive duplicates collapsed (a client span and the server
    /// span it called into count as one hop for the caller's service).
    ///
    /// Ties on end time break deterministically on `(end, start, SpanId)`
    /// so the same tree always yields the same path regardless of span
    /// insertion order.
    pub fn critical_path(&self) -> Vec<&str> {
        let mut path: Vec<&str> = Vec::new();
        let Some(mut cur) = self.root() else {
            return path;
        };
        path.push(cur.service.as_str());
        for _ in 0..64 {
            let kids = self.children(cur.id);
            match kids.into_iter().max_by_key(|c| (c.end, c.start, c.id)) {
                Some(next) => {
                    if path.last() != Some(&next.service.as_str()) {
                        path.push(next.service.as_str());
                    }
                    cur = next;
                }
                None => break,
            }
        }
        path
    }

    /// Render an indented ASCII tree (for the trace-explorer example).
    pub fn render(&self) -> String {
        fn go(t: &TraceTree, s: &Span, depth: usize, out: &mut String) {
            out.push_str(&format!(
                "{}{} [{:?}] {} ({})\n",
                "  ".repeat(depth),
                s.service,
                s.kind,
                s.duration(),
                s.tag("priority").unwrap_or("-"),
            ));
            for c in t.children(s.id) {
                go(t, c, depth + 1, out);
            }
        }
        let mut out = format!("trace {:?}\n", self.trace);
        if let Some(r) = self.root() {
            go(self, r, 1, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        service: &str,
        start_ms: u64,
        end_ms: u64,
    ) -> Span {
        Span {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: parent.map(SpanId),
            service: service.into(),
            kind: SpanKind::Server,
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            tags: vec![("priority".into(), "high".into())],
        }
    }

    fn demo_tracer() -> Tracer {
        let mut t = Tracer::new(1000);
        // frontend -> (details, reviews -> ratings)
        t.record(span(1, 1, None, "frontend", 0, 100));
        t.record(span(1, 2, Some(1), "details", 10, 30));
        t.record(span(1, 3, Some(1), "reviews", 10, 90));
        t.record(span(1, 4, Some(3), "ratings", 20, 80));
        t
    }

    #[test]
    fn trace_tree_structure() {
        let tracer = demo_tracer();
        let traces = tracer.traces();
        assert_eq!(traces.len(), 1);
        let tree = &traces[0];
        assert_eq!(tree.root().unwrap().service, "frontend");
        assert_eq!(tree.children(SpanId(1)).len(), 2);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.duration(), Some(SimDuration::from_millis(100)));
    }

    #[test]
    fn critical_path_follows_latest_child() {
        let tracer = demo_tracer();
        let traces = tracer.traces();
        assert_eq!(
            traces[0].critical_path(),
            vec!["frontend", "reviews", "ratings"]
        );
    }

    #[test]
    fn critical_path_tie_breaks_deterministically() {
        // Two children end at the same instant: the later-starting one
        // wins; among identical (end, start) the larger SpanId wins. The
        // result must not depend on recording order.
        for order in [[2u64, 3], [3, 2]] {
            let mut t = Tracer::new(100);
            t.record(span(1, 1, None, "root", 0, 100));
            for id in order {
                let svc = if id == 2 { "early" } else { "late" };
                let start = if id == 2 { 10 } else { 20 };
                t.record(span(1, id, Some(1), svc, start, 90));
            }
            let traces = t.traces();
            assert_eq!(traces[0].critical_path(), vec!["root", "late"]);
        }
        // Fully identical intervals: highest SpanId wins, both orders.
        for order in [[5u64, 6], [6, 5]] {
            let mut t = Tracer::new(100);
            t.record(span(1, 1, None, "root", 0, 100));
            for id in order {
                let svc = if id == 5 { "low-id" } else { "high-id" };
                t.record(span(1, id, Some(1), svc, 10, 90));
            }
            let traces = t.traces();
            assert_eq!(traces[0].critical_path(), vec!["root", "high-id"]);
        }
    }

    #[test]
    fn children_sorted_by_start() {
        let mut t = Tracer::new(100);
        t.record(span(1, 1, None, "root", 0, 100));
        t.record(span(1, 3, Some(1), "later", 50, 60));
        t.record(span(1, 2, Some(1), "earlier", 10, 20));
        let traces = t.traces();
        let kids = traces[0].children(SpanId(1));
        assert_eq!(kids[0].service, "earlier");
        assert_eq!(kids[1].service, "later");
    }

    #[test]
    fn multiple_traces_grouped() {
        let mut t = Tracer::new(100);
        t.record(span(1, 1, None, "a", 0, 10));
        t.record(span(2, 2, None, "b", 0, 20));
        let traces = t.traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].trace, TraceId(1));
        assert_eq!(traces[1].trace, TraceId(2));
    }

    #[test]
    fn capacity_drops_and_counts() {
        let mut t = Tracer::new(2);
        for i in 0..5 {
            t.record(span(1, i, None, "s", 0, 1));
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn sampling_always_and_probabilistic() {
        assert!(Sampling::Always.sample(SimTime::ZERO, 0.999));
        assert!(Sampling::Probabilistic(0.5).sample(SimTime::ZERO, 0.4));
        assert!(!Sampling::Probabilistic(0.5).sample(SimTime::ZERO, 0.6));
        assert!(!Sampling::Probabilistic(0.0).sample(SimTime::ZERO, 0.0));
    }

    #[test]
    fn bursty_sampling_windows() {
        let s = Sampling::Bursty {
            period: SimDuration::from_secs(10),
            burst: SimDuration::from_secs(1),
        };
        // Within the first second of each 10 s period.
        assert!(s.sample(SimTime::from_millis(500), 0.0));
        assert!(s.sample(SimTime::from_millis(10_500), 0.0));
        // Outside the burst.
        assert!(!s.sample(SimTime::from_secs(5), 0.0));
        assert!(!s.sample(SimTime::from_millis(1_001), 0.0));
    }

    #[test]
    fn bursty_sampling_exact_period_edges() {
        let s = Sampling::Bursty {
            period: SimDuration::from_secs(10),
            burst: SimDuration::from_secs(1),
        };
        // The instant a period starts is inside the burst (pos == 0)...
        assert!(s.sample(SimTime::ZERO, 0.0));
        assert!(s.sample(SimTime::from_secs(10), 0.0));
        assert!(s.sample(SimTime::from_secs(20), 0.0));
        // ...the instant the burst ends is outside (pos == burst, half-open).
        assert!(!s.sample(SimTime::from_secs(1), 0.0));
        assert!(!s.sample(SimTime::from_secs(11), 0.0));
        // One nanosecond before each boundary flips the answer.
        assert!(s.sample(SimTime::from_nanos(1_000_000_000 - 1), 0.0));
        assert!(!s.sample(SimTime::from_nanos(10_000_000_000 - 1), 0.0));
        // burst == period records everything; burst == 0 records nothing.
        let all = Sampling::Bursty {
            period: SimDuration::from_secs(10),
            burst: SimDuration::from_secs(10),
        };
        assert!(all.sample(SimTime::from_secs(3), 0.0));
        assert!(all.sample(SimTime::from_secs(10), 0.0));
        let none = Sampling::Bursty {
            period: SimDuration::from_secs(10),
            burst: SimDuration::ZERO,
        };
        assert!(!none.sample(SimTime::ZERO, 0.0));
        assert!(!none.sample(SimTime::from_secs(10), 0.0));
    }

    #[test]
    fn span_tags_and_duration() {
        let s = span(1, 1, None, "svc", 10, 35);
        assert_eq!(s.duration(), SimDuration::from_millis(25));
        assert_eq!(s.tag("priority"), Some("high"));
        assert_eq!(s.tag("missing"), None);
    }

    #[test]
    fn render_indents_by_depth() {
        let tracer = demo_tracer();
        let out = tracer.traces()[0].render();
        assert!(out.contains("  frontend"));
        assert!(out.contains("    reviews"));
        assert!(out.contains("      ratings"));
    }
}
