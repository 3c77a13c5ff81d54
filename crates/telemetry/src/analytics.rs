//! Trace-derived analytics.
//!
//! Aggregates the tracer's span dump into two views the paper's
//! observability story calls for: which critical paths dominate (how often
//! each root-to-leaf latest-child chain occurs, and how slow it is), and
//! where time is actually spent per service (exclusive "self" time: a
//! span's duration minus the time covered by its children).

use meshlayer_mesh::{Span, TraceTree};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// One distinct critical path and its frequency.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CriticalPathStat {
    /// Service names from root to leaf along the path.
    pub path: Vec<String>,
    /// Traces whose critical path this is.
    pub count: u64,
    /// Mean end-to-end duration of those traces, milliseconds.
    pub mean_ms: f64,
    /// Maximum end-to-end duration, milliseconds.
    pub max_ms: f64,
}

/// Exclusive time attribution for one service.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceSelfTime {
    /// Service name.
    pub service: String,
    /// Spans attributed to the service.
    pub spans: u64,
    /// Total exclusive time across those spans, milliseconds.
    pub self_ms: f64,
    /// Total inclusive (span) time, milliseconds.
    pub total_ms: f64,
}

/// Aggregated trace analytics for a run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TraceAnalytics {
    /// Traces analyzed.
    pub traces: u64,
    /// Critical paths, most frequent first.
    pub critical_paths: Vec<CriticalPathStat>,
    /// Per-service exclusive time, largest first.
    pub self_times: Vec<ServiceSelfTime>,
}

impl TraceAnalytics {
    /// Compute analytics from a span dump (as stored in run metrics).
    pub fn from_spans(spans: &[Span]) -> TraceAnalytics {
        let mut by_trace: HashMap<u64, Vec<Span>> = HashMap::new();
        for s in spans {
            by_trace.entry(s.trace.0).or_default().push(s.clone());
        }
        let mut trees: Vec<TraceTree> = by_trace
            .into_values()
            .map(|spans| TraceTree {
                trace: spans[0].trace,
                spans,
            })
            .collect();
        trees.sort_by_key(|t| t.trace);

        // Critical-path frequency.
        struct PathAgg {
            count: u64,
            sum_ms: f64,
            max_ms: f64,
        }
        let mut paths: BTreeMap<Vec<String>, PathAgg> = BTreeMap::new();
        let mut traces = 0u64;
        for tree in &trees {
            let Some(root) = tree.root() else { continue };
            traces += 1;
            let path: Vec<String> = tree.critical_path().iter().map(|s| s.to_string()).collect();
            let dur_ms = root.duration().as_millis_f64();
            let agg = paths.entry(path).or_insert(PathAgg {
                count: 0,
                sum_ms: 0.0,
                max_ms: 0.0,
            });
            agg.count += 1;
            agg.sum_ms += dur_ms;
            agg.max_ms = agg.max_ms.max(dur_ms);
        }
        let mut critical_paths: Vec<CriticalPathStat> = paths
            .into_iter()
            .map(|(path, a)| CriticalPathStat {
                path,
                count: a.count,
                mean_ms: a.sum_ms / a.count as f64,
                max_ms: a.max_ms,
            })
            .collect();
        critical_paths.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.path.cmp(&b.path)));

        // Per-service exclusive time. A span's self time is its duration
        // minus the union of its children's intervals (clipped to the
        // span), so overlapping fan-out children are not double-counted.
        let mut self_by_service: BTreeMap<String, ServiceSelfTime> = BTreeMap::new();
        for tree in &trees {
            for span in &tree.spans {
                let total_ms = span.duration().as_millis_f64();
                let mut intervals: Vec<(u64, u64)> = tree
                    .children(span.id)
                    .iter()
                    .map(|c| {
                        (
                            c.start
                                .as_nanos()
                                .clamp(span.start.as_nanos(), span.end.as_nanos()),
                            c.end
                                .as_nanos()
                                .clamp(span.start.as_nanos(), span.end.as_nanos()),
                        )
                    })
                    .collect();
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start.as_nanos();
                for (lo, hi) in intervals {
                    let lo = lo.max(cursor);
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
                let self_ns = span.duration().as_nanos().saturating_sub(covered);
                let e = self_by_service
                    .entry(span.service.clone())
                    .or_insert_with(|| ServiceSelfTime {
                        service: span.service.clone(),
                        spans: 0,
                        self_ms: 0.0,
                        total_ms: 0.0,
                    });
                e.spans += 1;
                e.self_ms += self_ns as f64 / 1e6;
                e.total_ms += total_ms;
            }
        }
        let mut self_times: Vec<ServiceSelfTime> = self_by_service.into_values().collect();
        self_times.sort_by(|a, b| {
            b.self_ms
                .partial_cmp(&a.self_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.service.cmp(&b.service))
        });

        TraceAnalytics {
            traces,
            critical_paths,
            self_times,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshlayer_mesh::{SpanId, SpanKind, TraceId};
    use meshlayer_simcore::SimTime;

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
            tags: Vec::new(),
        }
    }

    fn demo_spans() -> Vec<Span> {
        vec![
            // Trace 1: frontend -> (details, reviews -> ratings)
            span(1, 1, None, "frontend", 0, 100),
            span(1, 2, Some(1), "details", 10, 30),
            span(1, 3, Some(1), "reviews", 10, 90),
            span(1, 4, Some(3), "ratings", 20, 80),
            // Trace 2: frontend -> details only
            span(2, 5, None, "frontend", 0, 40),
            span(2, 6, Some(5), "details", 5, 35),
        ]
    }

    #[test]
    fn critical_paths_aggregated() {
        let a = TraceAnalytics::from_spans(&demo_spans());
        assert_eq!(a.traces, 2);
        assert_eq!(a.critical_paths.len(), 2);
        // Both paths occur once; tie broken by path name.
        let paths: Vec<Vec<String>> = a.critical_paths.iter().map(|p| p.path.clone()).collect();
        assert!(paths.contains(&vec![
            "frontend".to_string(),
            "reviews".to_string(),
            "ratings".to_string()
        ]));
        assert!(paths.contains(&vec!["frontend".to_string(), "details".to_string()]));
    }

    #[test]
    fn self_time_excludes_children() {
        let a = TraceAnalytics::from_spans(&demo_spans());
        let self_time = |service: &str| a.self_times.iter().find(|s| s.service == service).unwrap();
        // Trace 1 frontend: 100 total, children cover [10,30] and [10,90]
        // (union 80) -> 20 self. Trace 2 frontend: 40 total, child covers
        // 30 -> 10 self. Total 30 ms.
        let fe = self_time("frontend");
        assert_eq!(fe.spans, 2);
        assert!((fe.self_ms - 30.0).abs() < 1e-6, "self {}", fe.self_ms);
        assert!((fe.total_ms - 140.0).abs() < 1e-6);
        // ratings has no children: self == total == 60.
        let r = self_time("ratings");
        assert!((r.self_ms - 60.0).abs() < 1e-6);
    }

    #[test]
    fn empty_input_is_empty() {
        let a = TraceAnalytics::from_spans(&[]);
        assert_eq!(a.traces, 0);
        assert!(a.critical_paths.is_empty());
        assert!(a.self_times.is_empty());
    }
}
