//! Latency recording.
//!
//! Latency is measured from the request's *intended* send time to response
//! completion (wrk2's coordinated-omission correction): if the system
//! stalls, queued-but-unsent requests still accrue latency. Results are
//! kept per class (workload) in a [`Histogram`] — the simcore quantile
//! sketch at its fixed 8-sub-bit (≤ 0.4 %) resolution — restricted to a
//! measurement window that excludes warm-up and cool-down, exactly like
//! the paper's 5-minute runs "excluding warm-up and cool-down periods".

use meshlayer_simcore::{Histogram, LatencyMs, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Summary statistics for one class.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassSummary {
    /// Class (workload) name.
    pub class: String,
    /// Completed requests inside the measurement window.
    pub completed: u64,
    /// Failed requests (error status) inside the window.
    pub failed: u64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Maximum, milliseconds.
    pub max_ms: f64,
}

/// Per-class latency recorder with a measurement window.
#[derive(Debug)]
pub struct Recorder {
    window_start: SimTime,
    window_end: SimTime,
    classes: BTreeMap<String, ClassState>,
}

#[derive(Debug, Default)]
struct ClassState {
    hist: Histogram,
    failed: u64,
}

impl Recorder {
    /// Record only completions whose *intended start* falls inside
    /// `[window_start, window_end)`.
    pub fn new(window_start: SimTime, window_end: SimTime) -> Self {
        assert!(window_end > window_start, "empty measurement window");
        Recorder {
            window_start,
            window_end,
            classes: BTreeMap::new(),
        }
    }

    /// Record a successful completion.
    pub fn record_ok(&mut self, class: &str, intended_at: SimTime, completed_at: SimTime) {
        // Entry first: a class gets a summary row even when none of its
        // requests falls inside the window.
        let state = self.classes.entry(class.to_string()).or_default();
        if intended_at < self.window_start || intended_at >= self.window_end {
            return;
        }
        let latency = completed_at.saturating_since(intended_at);
        state.hist.record(latency.as_nanos());
    }

    /// Record a failed request (not added to the latency distribution).
    pub fn record_failure(&mut self, class: &str, intended_at: SimTime) {
        let state = self.classes.entry(class.to_string()).or_default();
        if intended_at < self.window_start || intended_at >= self.window_end {
            return;
        }
        state.failed += 1;
    }

    /// Per-class summaries, sorted by class name.
    pub fn summaries(&self) -> Vec<ClassSummary> {
        self.classes
            .iter()
            .map(|(name, st)| {
                let LatencyMs {
                    mean,
                    p50,
                    p90,
                    p99,
                    max,
                } = st.hist.latency_ms();
                ClassSummary {
                    class: name.clone(),
                    completed: st.hist.count(),
                    failed: st.failed,
                    mean_ms: mean,
                    p50_ms: p50,
                    p90_ms: p90,
                    p99_ms: p99,
                    max_ms: max,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshlayer_simcore::{SimDuration, SimRng};

    fn rec() -> Recorder {
        Recorder::new(SimTime::from_secs(10), SimTime::from_secs(70))
    }

    fn p50(r: &Recorder, class: &str) -> SimDuration {
        SimDuration::from_nanos(r.classes[class].hist.value_at_quantile(0.5))
    }

    #[test]
    fn records_latency_from_intended_time() {
        let mut r = rec();
        // Intended at 20 s, completed at 20.150 s -> 150 ms.
        r.record_ok("ls", SimTime::from_secs(20), SimTime::from_millis(20_150));
        let p50 = p50(&r, "ls");
        assert!((p50.as_millis_f64() - 150.0).abs() < 1.0, "{p50}");
    }

    #[test]
    fn window_excludes_warmup_and_cooldown() {
        let mut r = rec();
        r.record_ok("ls", SimTime::from_secs(5), SimTime::from_secs(6)); // warm-up
        r.record_ok("ls", SimTime::from_secs(71), SimTime::from_secs(72)); // cool-down
        r.record_ok("ls", SimTime::from_secs(30), SimTime::from_secs(31)); // inside
        assert_eq!(r.classes["ls"].hist.count(), 1);
        assert_eq!(r.summaries()[0].completed, 1);
    }

    #[test]
    fn failures_counted_separately() {
        let mut r = rec();
        r.record_ok("ls", SimTime::from_secs(20), SimTime::from_secs(21));
        r.record_failure("ls", SimTime::from_secs(20));
        r.record_failure("ls", SimTime::from_secs(5)); // outside window
        let s = &r.summaries()[0];
        assert_eq!(s.completed, 1);
        assert_eq!(s.failed, 1);
    }

    #[test]
    fn classes_kept_separate_and_sorted() {
        let mut r = rec();
        r.record_ok("batch", SimTime::from_secs(20), SimTime::from_secs(30));
        r.record_ok("ls", SimTime::from_secs(20), SimTime::from_millis(20_010));
        let sums = r.summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].class, "batch");
        assert_eq!(sums[1].class, "ls");
        assert!(sums[0].p50_ms > sums[1].p50_ms * 100.0);
    }

    #[test]
    fn unseen_class_is_empty() {
        let r = rec();
        assert!(r.summaries().is_empty());
    }

    #[test]
    fn coordinated_omission_stall_inflates_latency() {
        // A request intended at t=20 but only completed at t=25 (system
        // stalled) must show 5 s latency even if "service time" was tiny.
        let mut r = rec();
        r.record_ok("ls", SimTime::from_secs(20), SimTime::from_secs(25));
        let p50 = p50(&r, "ls");
        assert!((p50.as_secs_f64() - 5.0).abs() < 0.05);
    }

    /// A fixed seeded sample set spanning 2⁸ ns to 2³⁵ ns, summary row
    /// pinned bit for bit: the tables print these numbers, so a change
    /// to the bucketing, the rank rule or the millisecond arithmetic
    /// must fail here rather than within a tolerance.
    #[test]
    fn summary_row_pinned_to_the_histogram_values() {
        let mut r = rec();
        let mut rng = SimRng::new(35);
        for i in 0..5_000u64 {
            let at = SimTime::from_secs(20) + SimDuration::from_micros(i * 997);
            let ns = rng.below(1u64 << (8 + i % 28));
            r.record_ok("pinned", at, at + SimDuration::from_nanos(ns));
        }
        let s = &r.summaries()[0];
        assert_eq!(s.completed, 5_000);
        assert_eq!(s.mean_ms, 1187.21078786);
        assert_eq!(s.p50_ms, 1.021952);
        assert_eq!(s.p90_ms, 2692.743168);
        assert_eq!(s.p99_ms, 23420.993536);
        assert_eq!(s.max_ms, 34267.334093);
    }

    #[test]
    #[should_panic(expected = "empty measurement window")]
    fn empty_window_rejected() {
        Recorder::new(SimTime::from_secs(5), SimTime::from_secs(5));
    }
}
