//! Deterministic online anomaly detection over the interval series.
//!
//! The detector runs inside the telemetry scrape loop — simulated time
//! only, integer/f64 arithmetic on deterministic inputs — so the stream
//! of [`AnomalyEvent`]s is bit-identical from run to run, like every
//! other telemetry artifact.
//!
//! Three detectors, all windowed and hysteretic (one event per
//! excursion, not one per interval):
//!
//! * **latency change-points** — a class's per-interval p99 jumps above
//!   `LATENCY_FACTOR ×` (or drops below `1/LATENCY_FACTOR ×`) the median
//!   of its trailing baseline window;
//! * **error-rate bursts** — a class's per-interval error rate crosses
//!   `ERROR_RATE` while its baseline rate was quiet;
//! * **queue-depth growth** — a link or compute queue gauge grows
//!   monotonically across the trailing window to `QUEUE_FACTOR ×` its
//!   starting depth.

use crate::series::{IntervalStats, LatencySeries, SeriesPoint};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// What kind of anomaly an event reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// Per-interval p99 latency shifted vs. the trailing baseline.
    LatencyShift,
    /// Per-interval error rate burst vs. a quiet baseline.
    ErrorBurst,
    /// Sustained monotone queue-depth growth on a link or pod.
    QueueGrowth,
}

impl AnomalyKind {
    /// Stable wire discriminant (part of the flight-recorder format).
    pub fn code(self) -> u8 {
        match self {
            AnomalyKind::LatencyShift => 0,
            AnomalyKind::ErrorBurst => 1,
            AnomalyKind::QueueGrowth => 2,
        }
    }

    /// Inverse of [`AnomalyKind::code`].
    pub fn from_code(code: u8) -> Option<AnomalyKind> {
        Some(match code {
            0 => AnomalyKind::LatencyShift,
            1 => AnomalyKind::ErrorBurst,
            2 => AnomalyKind::QueueGrowth,
            _ => return None,
        })
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::LatencyShift => "latency-shift",
            AnomalyKind::ErrorBurst => "error-burst",
            AnomalyKind::QueueGrowth => "queue-growth",
        }
    }
}

/// One detected anomaly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnomalyEvent {
    /// Detection time: the start of the interval that crossed, seconds.
    pub at_s: f64,
    /// What kind of anomaly.
    pub kind: AnomalyKind,
    /// The class (latency/errors) or gauge instance (queues) affected.
    pub subject: String,
    /// The offending measurement (p99 ms, error rate, queue depth).
    pub value: f64,
    /// The baseline it was compared against.
    pub baseline: f64,
    /// Shift direction: +1 up, -1 down (recovery), 0 not applicable.
    pub direction: i8,
    /// Human-readable specifics.
    pub detail: String,
}

// Detector thresholds. Deliberately conservative: the acceptance bar is
// zero false positives on a steady baseline, with real shifts (the A6 flip
// is > 4×) still flagged within an interval or two of the baseline window
// filling.

/// Trailing closed intervals forming the baseline (median).
const BASELINE_INTERVALS: usize = 8;
/// Minimum samples in an interval for latency detection.
const MIN_COUNT: u64 = 5;
/// Shift factor: p99 above `LATENCY_FACTOR × baseline` (or below
/// `baseline / LATENCY_FACTOR`) is a change-point.
const LATENCY_FACTOR: f64 = 3.0;
/// Absolute guard: the shift must also exceed this many ms.
const MIN_SHIFT_MS: f64 = 20.0;
/// Error-rate threshold for a burst.
const ERROR_RATE: f64 = 0.2;
/// Minimum absolute errors in the interval for a burst.
const MIN_ERRORS: u64 = 5;
/// Trailing gauge points forming the queue-growth window.
const QUEUE_WINDOW: usize = 5;
/// Growth factor across the window that flags a queue.
const QUEUE_FACTOR: f64 = 4.0;
/// Absolute guard: the final depth must exceed this.
const MIN_QUEUE: f64 = 16.0;

/// Per-class detector state.
#[derive(Default)]
struct ClassState {
    /// Trailing per-interval p99s (counted intervals only), newest last.
    p99_hist: VecDeque<f64>,
    /// Trailing per-interval error rates, newest last.
    err_hist: VecDeque<f64>,
    /// Closed intervals of this class already scanned.
    seen_closed: u64,
    /// Direction of the active latency excursion (0 = in band).
    shift_dir: i8,
    /// Whether an error burst is currently active.
    bursting: bool,
}

/// The online detector. Feed it each class's newly closed intervals and
/// the queue gauges every scrape; it appends events to the output.
#[derive(Default)]
pub struct AnomalyDetector {
    classes: BTreeMap<String, ClassState>,
    /// (metric, instance) → queue currently flagged as growing.
    queues: BTreeMap<(String, String), bool>,
}

/// Median of a trailing window (upper median for even sizes) — a plain
/// deterministic sort, no interpolation.
fn median(window: &VecDeque<f64>) -> f64 {
    let mut v: Vec<f64> = window.iter().copied().collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

impl AnomalyDetector {
    /// A detector with no state yet.
    pub fn new() -> AnomalyDetector {
        AnomalyDetector::default()
    }

    /// Scan a class's newly closed fine intervals (everything closed
    /// since the last scan), appending any events to `out`.
    pub fn scan_class(&mut self, class: &str, series: &LatencySeries, out: &mut Vec<AnomalyEvent>) {
        let state = self.classes.entry(class.to_string()).or_default();
        let new = (series.closed_count() - state.seen_closed) as usize;
        state.seen_closed = series.closed_count();
        if new == 0 {
            return;
        }
        let fresh: Vec<IntervalStats> = series
            .recent_fine(new)
            .map(IntervalStats::from_interval)
            .collect();
        for stats in &fresh {
            Self::scan_interval(state, class, stats, out);
        }
    }

    /// One closed interval against the class's trailing baseline.
    fn scan_interval(
        state: &mut ClassState,
        class: &str,
        stats: &IntervalStats,
        out: &mut Vec<AnomalyEvent>,
    ) {
        // --- latency change-point ---
        if stats.count >= MIN_COUNT {
            if state.p99_hist.len() >= BASELINE_INTERVALS {
                let baseline = median(&state.p99_hist);
                let up = stats.p99_ms > baseline * LATENCY_FACTOR
                    && stats.p99_ms - baseline > MIN_SHIFT_MS;
                let down = stats.p99_ms < baseline / LATENCY_FACTOR
                    && baseline - stats.p99_ms > MIN_SHIFT_MS;
                let dir = if up {
                    1
                } else if down {
                    -1
                } else {
                    0
                };
                if dir == 0 {
                    state.shift_dir = 0;
                } else if state.shift_dir != dir {
                    state.shift_dir = dir;
                    out.push(AnomalyEvent {
                        at_s: stats.t_s,
                        kind: AnomalyKind::LatencyShift,
                        subject: class.to_string(),
                        value: stats.p99_ms,
                        baseline,
                        direction: dir,
                        detail: format!(
                            "p99 {} {:.1}ms -> {:.1}ms over {} intervals",
                            if dir > 0 { "up" } else { "down" },
                            baseline,
                            stats.p99_ms,
                            state.p99_hist.len()
                        ),
                    });
                }
            }
            state.p99_hist.push_back(stats.p99_ms);
            while state.p99_hist.len() > BASELINE_INTERVALS {
                state.p99_hist.pop_front();
            }
        }

        // --- error-rate burst ---
        let seen = stats.count + stats.errors;
        if seen > 0 {
            let rate = stats.errors as f64 / seen as f64;
            if state.err_hist.len() >= BASELINE_INTERVALS {
                let base_rate = median(&state.err_hist);
                let burst = stats.errors >= MIN_ERRORS
                    && rate >= ERROR_RATE
                    && base_rate < ERROR_RATE / 2.0;
                if burst && !state.bursting {
                    state.bursting = true;
                    out.push(AnomalyEvent {
                        at_s: stats.t_s,
                        kind: AnomalyKind::ErrorBurst,
                        subject: class.to_string(),
                        value: rate,
                        baseline: base_rate,
                        direction: 1,
                        detail: format!(
                            "error rate {:.1}% ({} of {}) vs baseline {:.1}%",
                            rate * 100.0,
                            stats.errors,
                            seen,
                            base_rate * 100.0
                        ),
                    });
                } else if rate < ERROR_RATE / 2.0 {
                    state.bursting = false;
                }
            }
            state.err_hist.push_back(rate);
            while state.err_hist.len() > BASELINE_INTERVALS {
                state.err_hist.pop_front();
            }
        }
    }

    /// Scan one queue-depth gauge after its scrape sample landed.
    pub fn scan_queue(
        &mut self,
        metric: &str,
        instance: &str,
        points: &[SeriesPoint],
        out: &mut Vec<AnomalyEvent>,
    ) {
        if points.len() < QUEUE_WINDOW {
            return;
        }
        let window = &points[points.len() - QUEUE_WINDOW..];
        let first = window[0].value;
        let last = window[QUEUE_WINDOW - 1].value;
        let monotone = window.windows(2).all(|w| w[1].value >= w[0].value);
        let growing = monotone && last >= MIN_QUEUE && last >= first * QUEUE_FACTOR && last > first;
        let flagged = self
            .queues
            .entry((metric.to_string(), instance.to_string()))
            .or_insert(false);
        if growing && !*flagged {
            *flagged = true;
            out.push(AnomalyEvent {
                at_s: window[QUEUE_WINDOW - 1].t_s,
                kind: AnomalyKind::QueueGrowth,
                subject: format!("{metric}:{instance}"),
                value: last,
                baseline: first,
                direction: 1,
                detail: format!(
                    "depth {first:.0} -> {last:.0} over {} scrapes",
                    QUEUE_WINDOW
                ),
            });
        } else if !monotone || last < first {
            *flagged = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshlayer_simcore::{SimDuration, SimTime};

    fn run_series(latencies_ms: &[u64]) -> Vec<AnomalyEvent> {
        let mut s = LatencySeries::new(SimDuration::from_millis(100));
        let mut det = AnomalyDetector::new();
        let mut out = Vec::new();
        for (i, &ms) in latencies_ms.iter().enumerate() {
            // 10 samples per interval, all at the given latency.
            for k in 0..10u64 {
                s.record(
                    SimTime::from_millis(i as u64 * 100 + k * 9 + 1),
                    SimDuration::from_millis(ms),
                );
            }
            s.advance_to(SimTime::from_millis((i as u64 + 1) * 100));
            det.scan_class("ls", &s, &mut out);
        }
        out
    }

    #[test]
    fn steady_series_has_no_anomalies() {
        let out = run_series(&[10; 40]);
        assert!(out.is_empty(), "false positives: {out:?}");
    }

    #[test]
    fn latency_step_flags_once_each_direction() {
        // 12 quiet intervals, a 10x step for 12, then recovery.
        let mut lat = vec![10u64; 12];
        lat.extend([100u64; 12]);
        lat.extend([10u64; 12]);
        let out = run_series(&lat);
        let shifts: Vec<&AnomalyEvent> = out
            .iter()
            .filter(|e| e.kind == AnomalyKind::LatencyShift)
            .collect();
        assert_eq!(shifts.len(), 2, "one event per excursion: {out:?}");
        assert_eq!(shifts[0].direction, 1);
        assert!(
            (shifts[0].at_s - 1.2).abs() < 1e-9,
            "flagged at first shifted interval"
        );
        assert_eq!(shifts[1].direction, -1);
    }

    #[test]
    fn error_burst_flags_once() {
        let mut s = LatencySeries::new(SimDuration::from_millis(100));
        let mut det = AnomalyDetector::new();
        let mut out = Vec::new();
        for i in 0..30u64 {
            for k in 0..10u64 {
                let now = SimTime::from_millis(i * 100 + k * 9 + 1);
                // Intervals 15..20: every other observation fails.
                if (15..20).contains(&i) && k % 2 == 0 {
                    s.record_error(now);
                } else {
                    s.record(now, SimDuration::from_millis(5));
                }
            }
            s.advance_to(SimTime::from_millis((i + 1) * 100));
            det.scan_class("ls", &s, &mut out);
        }
        let bursts: Vec<&AnomalyEvent> = out
            .iter()
            .filter(|e| e.kind == AnomalyKind::ErrorBurst)
            .collect();
        assert_eq!(bursts.len(), 1, "{out:?}");
        assert!((bursts[0].at_s - 1.5).abs() < 1e-9);
    }

    #[test]
    fn queue_growth_flags_sustained_monotone_rise() {
        let mut det = AnomalyDetector::new();
        let mut out = Vec::new();
        let mk = |vals: &[f64]| -> Vec<SeriesPoint> {
            vals.iter()
                .enumerate()
                .map(|(i, &v)| SeriesPoint {
                    t_s: i as f64 * 0.1,
                    value: v,
                })
                .collect()
        };
        // Flat: nothing.
        det.scan_queue("link_queue_depth", "a->b", &mk(&[3.0; 8]), &mut out);
        assert!(out.is_empty());
        // Monotone growth 4 -> 32 over the window: flags once.
        let pts = mk(&[2.0, 3.0, 4.0, 8.0, 16.0, 24.0, 32.0]);
        det.scan_queue("link_queue_depth", "a->b", &pts, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, AnomalyKind::QueueGrowth);
        // Still growing: no second event while flagged.
        let pts = mk(&[3.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0]);
        det.scan_queue("link_queue_depth", "a->b", &pts, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in [
            AnomalyKind::LatencyShift,
            AnomalyKind::ErrorBurst,
            AnomalyKind::QueueGrowth,
        ] {
            assert_eq!(AnomalyKind::from_code(k.code()), Some(k));
        }
        assert_eq!(AnomalyKind::from_code(9), None);
    }
}
