//! Wall-clock timers for the event loop.
//!
//! The loop reports to the profiler at its timed events only (see
//! `EvMeter` in `meshlayer-core`), handing over a clock read it already
//! took; the intervals between reports aggregate into ~1 ms trace
//! slices, so a trace stays small and loadable.
//!
//! Everything here is wall-clock measurement of *host* behaviour:
//! enabling profiling never reads or writes simulation state.

use crate::trace::{TraceBook, TraceSpan};
use std::time::Instant;

/// Stored-span cap per profiled run (totals keep accumulating past it).
const TRACE_CAP: usize = 50_000;

/// Slice width: reported intervals merge into spans of roughly this
/// wall-clock length.
const SLICE_NS: u64 = 1_000_000;

/// Totals of one (or several merged) profiled runs.
#[derive(Clone, Debug, Default)]
pub struct PhaseSummary {
    /// Events handled while profiled.
    pub events: u64,
    /// Event-loop wall clock, nanoseconds.
    pub wall_ns: u64,
    /// Trace spans stored (post-cap).
    pub trace_spans: u64,
    /// Trace spans dropped at the cap.
    pub trace_dropped: u64,
}

impl PhaseSummary {
    /// Fold another summary into this one — used to aggregate the runs
    /// of a sweep.
    pub fn merge(&mut self, other: &PhaseSummary) {
        self.events += other.events;
        self.wall_ns += other.wall_ns;
        self.trace_spans += other.trace_spans;
        self.trace_dropped += other.trace_dropped;
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "profile: {} events, {:.1}ms loop wall ({:.0} ns/event), {} trace spans ({} dropped)\n",
            self.events,
            self.wall_ns as f64 / 1e6,
            self.wall_ns as f64 / self.events.max(1) as f64,
            self.trace_spans,
            self.trace_dropped
        )
    }
}

/// The result of one profiled run: the summary plus the span book.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Aggregated totals.
    pub summary: PhaseSummary,
    /// Bounded trace spans for Chrome trace-event export.
    pub trace: TraceBook,
}

impl ProfileReport {
    /// Render the summary.
    pub fn render(&self) -> String {
        self.summary.render()
    }
}

/// Live wall-clock profiler one engine run feeds (see module docs).
#[derive(Debug)]
pub struct PhaseProfiler {
    epoch: Instant,
    events: u64,
    /// Open slice: (start_ns, busy_ns, events).
    slice: Option<(u64, u64, u64)>,
    /// End of the last interval the loop reported.
    reported_ns: u64,
    trace: TraceBook,
}

impl PhaseProfiler {
    /// A profiler whose epoch is now.
    pub fn start() -> PhaseProfiler {
        let mut trace = TraceBook::new(TRACE_CAP);
        trace.name_thread(0, "engine");
        PhaseProfiler {
            epoch: Instant::now(),
            events: 0,
            slice: None,
            reported_ns: 0,
            trace,
        }
    }

    /// The instant all span timestamps are measured against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// `events` more events ran since the previous call (or the epoch),
    /// ending at `now`. The whole interval — pops, handlers, untimed
    /// events — lands in the open slice, which flushes a trace span per
    /// ~1 ms of wall clock.
    #[inline]
    pub fn on_events(&mut self, now: Instant, events: u64) {
        let now_ns = now.duration_since(self.epoch).as_nanos() as u64;
        let spent_ns = now_ns.saturating_sub(self.reported_ns);
        self.reported_ns = now_ns;
        self.events += events;
        let (start, busy, evs) = self
            .slice
            .get_or_insert((now_ns.saturating_sub(spent_ns), 0, 0));
        *busy += spent_ns;
        *evs += events;
        if now_ns.saturating_sub(*start) >= SLICE_NS {
            let span = TraceSpan {
                name: "events".into(),
                ts_ns: *start,
                dur_ns: now_ns - *start,
                tid: 0,
                events: *evs,
            };
            self.trace.push(span);
            self.slice = None;
        }
    }

    /// Close the run: flush the open slice and derive the summary.
    pub fn finish(mut self, wall_ns: u64) -> ProfileReport {
        if let Some((start, busy, evs)) = self.slice.take() {
            self.trace.push(TraceSpan {
                name: "events".into(),
                ts_ns: start,
                dur_ns: busy,
                tid: 0,
                events: evs,
            });
        }
        ProfileReport {
            summary: PhaseSummary {
                events: self.events,
                wall_ns,
                trace_spans: self.trace.spans().len() as u64,
                trace_dropped: self.trace.dropped(),
            },
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn five_reports() -> ProfileReport {
        let mut p = PhaseProfiler::start();
        // Five reports 1 us apart, 16 events each.
        for i in 1..=5 {
            let now = p.epoch() + std::time::Duration::from_micros(i);
            p.on_events(now, 16);
        }
        p.finish(50_000)
    }

    #[test]
    fn reports_accumulate_into_one_flushed_slice() {
        let r = five_reports();
        assert_eq!(r.summary.events, 80);
        assert_eq!(r.summary.wall_ns, 50_000);
        let spans = r.trace.spans();
        assert_eq!(spans.len(), 1, "flushed slice span");
        assert_eq!((spans[0].ts_ns, spans[0].dur_ns), (0, 5_000));
        assert_eq!(spans[0].events, 80);
        assert!(r.render().contains("80 events"));
    }

    #[test]
    fn merge_sums() {
        let mut a = five_reports().summary;
        a.merge(&five_reports().summary);
        assert_eq!(a.events, 160);
        assert_eq!(a.wall_ns, 100_000);
        assert_eq!(a.trace_spans, 2);
    }
}
