//! Interval-bucketed time series with bounded, age-tiered retention.
//!
//! Two shapes cover everything the scraper collects: [`LatencySeries`]
//! aggregates latency samples into fixed intervals through a streaming
//! [`QuantileSketch`] (one sketch per open interval, closed at each
//! boundary), and [`GaugeSeries`] records point-in-time samples of
//! instantaneous values (link utilization, queue depths, counter deltas).
//!
//! Neither grows with run length. Closed latency intervals are kept at
//! full resolution only for the most recent [`FINE_CAP`] intervals;
//! beyond that the oldest [`ROLLUP_FACTOR`] fine intervals roll into one
//! coarse interval by sketch merge, and the coarse tier caps itself at
//! [`COARSE_CAP`] by merging its two oldest entries (their span
//! doubles). Steady-state memory is O(classes × sketch size) however
//! long the run: old history loses time resolution, never its quantile
//! fidelity. Gauge series cap their points at [`GAUGE_CAP`] by
//! pairwise-averaging the oldest half on overflow.
//!
//! At the default 100 ms scrape interval that is 4.8 s of
//! full-resolution history (past every SLO burn window), then 800 ms
//! coarse intervals, ≤ 73 sketches per class forever.

use crate::sketch::{IntervalSketch, SUB_BITS};
use meshlayer_simcore::{LatencyMs, QuantileSketch, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Closed fine intervals kept at scrape resolution before roll-up.
pub const FINE_CAP: usize = 48;
/// Fine intervals merged into one coarse interval per roll-up.
pub const ROLLUP_FACTOR: usize = 8;
/// Coarse intervals kept; overflow merges the two oldest (their span
/// doubles, so the count never exceeds this cap).
pub const COARSE_CAP: usize = 24;
/// Points kept per gauge series before the oldest half is
/// pairwise-averaged down.
pub const GAUGE_CAP: usize = 1024;

/// Summary of one closed latency interval.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IntervalStats {
    /// Interval start, seconds of simulated time.
    pub t_s: f64,
    /// Interval length, seconds — the scrape interval for fine
    /// intervals, a multiple of it for rolled-up ones.
    pub len_s: f64,
    /// Samples recorded in the interval.
    pub count: u64,
    /// Failures observed in the interval (recorded alongside latencies).
    pub errors: u64,
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

impl IntervalStats {
    /// Summarize one closed interval sketch.
    pub fn from_interval(iv: &IntervalSketch) -> IntervalStats {
        let LatencyMs {
            mean,
            p50,
            p90,
            p99,
            max,
        } = iv.sketch.latency_ms();
        IntervalStats {
            t_s: iv.start.as_secs_f64(),
            len_s: iv.len.as_secs_f64(),
            count: iv.sketch.count(),
            errors: iv.errors,
            mean_ms: mean,
            p50_ms: p50,
            p90_ms: p90,
            p99_ms: p99,
            max_ms: max,
        }
    }
}

/// Per-interval latency quantiles computed from streaming sketches, with
/// age-based roll-up keeping total memory bounded.
#[derive(Clone, Debug)]
pub struct LatencySeries {
    interval: SimDuration,
    cur_start: SimTime,
    cur: QuantileSketch,
    cur_errors: u64,
    /// Recent closed intervals at scrape resolution, oldest first.
    fine: VecDeque<IntervalSketch>,
    /// Rolled-up intervals, oldest first (spans grow toward the front).
    coarse: VecDeque<IntervalSketch>,
    /// Fine intervals absorbed into the coarse tier so far.
    rolled_up: u64,
    /// Total intervals closed so far (monotone; drives roll-up).
    closed: u64,
}

impl LatencySeries {
    /// Series bucketing samples into intervals of the given length.
    pub fn new(interval: SimDuration) -> LatencySeries {
        assert!(interval > SimDuration::ZERO, "zero telemetry interval");
        LatencySeries {
            interval,
            cur_start: SimTime::ZERO,
            cur: QuantileSketch::new(SUB_BITS),
            cur_errors: 0,
            fine: VecDeque::new(),
            coarse: VecDeque::new(),
            rolled_up: 0,
            closed: 0,
        }
    }

    /// The configured interval length.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    fn close_current(&mut self) {
        let mut iv = IntervalSketch::new(self.cur_start, self.interval);
        std::mem::swap(&mut iv.sketch, &mut self.cur);
        iv.errors = self.cur_errors;
        self.fine.push_back(iv);
        self.cur_errors = 0;
        self.cur_start += self.interval;
        self.closed += 1;
        self.enforce_retention();
    }

    /// Age-based roll-up: oldest [`ROLLUP_FACTOR`] fine intervals merge
    /// into one coarse interval; the coarse tier caps itself by merging
    /// its two oldest entries. Triggered purely by closed-interval
    /// counts, so it is bit-deterministic for a given observation stream.
    fn enforce_retention(&mut self) {
        while self.fine.len() > FINE_CAP {
            let mut merged = self.fine.pop_front().expect("nonempty");
            for _ in 1..ROLLUP_FACTOR {
                let next = self.fine.pop_front().expect("len checked");
                merged.absorb(&next);
            }
            self.rolled_up += ROLLUP_FACTOR as u64;
            self.coarse.push_back(merged);
            while self.coarse.len() > COARSE_CAP {
                let mut oldest = self.coarse.pop_front().expect("nonempty");
                let next = self.coarse.pop_front().expect("cap >= 2");
                oldest.absorb(&next);
                self.coarse.push_front(oldest);
            }
        }
    }

    /// Close every interval that ends at or before `now`.
    pub fn advance_to(&mut self, now: SimTime) {
        while now >= self.cur_start + self.interval {
            self.close_current();
        }
    }

    /// Record one latency sample observed at `now`.
    pub fn record(&mut self, now: SimTime, latency: SimDuration) {
        self.advance_to(now);
        self.cur.record_duration(latency);
    }

    /// Record one failure observed at `now` (no latency attached).
    pub fn record_error(&mut self, now: SimTime) {
        self.advance_to(now);
        self.cur_errors += 1;
    }

    /// Close the open interval (if it holds anything) at end of run.
    pub fn finish(&mut self, now: SimTime) {
        self.advance_to(now);
        if !self.cur.is_empty() || self.cur_errors > 0 {
            self.close_current();
        }
    }

    /// All closed intervals, oldest first (coarse history, then the
    /// fine window), summarized.
    pub fn points(&self) -> Vec<IntervalStats> {
        self.coarse
            .iter()
            .chain(self.fine.iter())
            .map(IntervalStats::from_interval)
            .collect()
    }

    /// The retained closed intervals (coarse then fine), with sketches.
    pub fn intervals(&self) -> impl Iterator<Item = &IntervalSketch> {
        self.coarse.iter().chain(self.fine.iter())
    }

    /// Intervals closed so far (monotone, unaffected by roll-up).
    pub fn closed_count(&self) -> u64 {
        self.closed
    }

    /// The `n` most recently closed intervals still at fine resolution,
    /// oldest first. Feeds the anomaly detector.
    pub fn recent_fine(&self, n: usize) -> impl Iterator<Item = &IntervalSketch> {
        self.fine.iter().skip(self.fine.len().saturating_sub(n))
    }

    /// Fine intervals absorbed into the coarse tier so far.
    pub fn rolled_up(&self) -> u64 {
        self.rolled_up
    }

    /// Consume into the closed points.
    pub fn into_points(mut self, now: SimTime) -> Vec<IntervalStats> {
        self.finish(now);
        self.points()
    }

    /// Estimated footprint in bytes (sketch buckets dominate).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.cur.mem_bytes()
            + self
                .fine
                .iter()
                .chain(self.coarse.iter())
                .map(IntervalSketch::mem_bytes)
                .sum::<usize>()
    }
}

/// One sample of an instantaneous value.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Sample time, seconds of simulated time.
    pub t_s: f64,
    /// Sampled value.
    pub value: f64,
}

/// A named series of point-in-time samples with bounded retention: when
/// `cap` ([`GAUGE_CAP`]) is reached, the oldest half of the points is pairwise-averaged
/// (each pair keeps its earlier timestamp), halving its resolution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GaugeSeries {
    /// Metric name (Prometheus-style, e.g. `link_utilization`).
    pub name: String,
    /// Instance label (link name, pod id, ...).
    pub instance: String,
    /// The samples, in scrape order.
    pub points: Vec<SeriesPoint>,
    /// Retention cap (compaction halves the oldest half on overflow).
    pub cap: usize,
}

impl GaugeSeries {
    /// New empty series.
    pub fn new(name: impl Into<String>, instance: impl Into<String>) -> GaugeSeries {
        GaugeSeries {
            name: name.into(),
            instance: instance.into(),
            points: Vec::new(),
            cap: GAUGE_CAP,
        }
    }

    /// Append one sample, compacting the oldest half if at capacity.
    pub fn push(&mut self, now: SimTime, value: f64) {
        if self.points.len() >= self.cap {
            self.compact_oldest_half();
        }
        self.points.push(SeriesPoint {
            t_s: now.as_secs_f64(),
            value,
        });
    }

    /// Pairwise-average the oldest half of the points: each adjacent
    /// pair becomes one point at the earlier timestamp with the mean
    /// value. Deterministic, keeps chronological order.
    fn compact_oldest_half(&mut self) {
        let half = self.points.len() / 2;
        let mut compacted = Vec::with_capacity(self.points.len() - half / 2);
        let mut i = 0;
        while i < half {
            if i + 1 < half {
                compacted.push(SeriesPoint {
                    t_s: self.points[i].t_s,
                    value: (self.points[i].value + self.points[i + 1].value) / 2.0,
                });
                i += 2;
            } else {
                compacted.push(self.points[i].clone());
                i += 1;
            }
        }
        compacted.extend(self.points[half..].iter().cloned());
        self.points = compacted;
    }

    /// Latest sampled value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }

    /// Estimated footprint in bytes.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.name.len()
            + self.instance.len()
            + self.points.capacity() * std::mem::size_of::<SeriesPoint>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_close_in_order() {
        let mut s = LatencySeries::new(SimDuration::from_millis(100));
        s.record(SimTime::from_millis(10), SimDuration::from_millis(5));
        s.record(SimTime::from_millis(50), SimDuration::from_millis(7));
        // Jump two intervals: the empty one in between must still appear.
        s.record(SimTime::from_millis(250), SimDuration::from_millis(9));
        s.finish(SimTime::from_millis(300));
        let pts = s.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].count, 2);
        assert_eq!(pts[1].count, 0);
        assert_eq!(pts[2].count, 1);
        assert!(pts[0].t_s < pts[1].t_s && pts[1].t_s < pts[2].t_s);
        assert!((pts[0].len_s - 0.1).abs() < 1e-9);
        assert!((pts[2].p99_ms - 9.0).abs() / 9.0 < 0.02);
    }

    #[test]
    fn quantiles_per_interval() {
        let mut s = LatencySeries::new(SimDuration::from_millis(100));
        for i in 1..=100u64 {
            s.record(SimTime::from_millis(10), SimDuration::from_millis(i));
        }
        s.finish(SimTime::from_millis(100));
        let pts = s.points();
        let p = &pts[0];
        assert_eq!(p.count, 100);
        assert!((p.p50_ms - 50.0).abs() / 50.0 < 0.02, "p50 {}", p.p50_ms);
        assert!((p.p99_ms - 99.0).abs() / 99.0 < 0.02, "p99 {}", p.p99_ms);
        assert!((p.max_ms - 100.0).abs() < 1e-9);
    }

    #[test]
    fn errors_counted_per_interval() {
        let mut s = LatencySeries::new(SimDuration::from_millis(100));
        s.record_error(SimTime::from_millis(10));
        s.record_error(SimTime::from_millis(150));
        s.finish(SimTime::from_millis(200));
        let pts = s.points();
        assert_eq!(pts[0].errors, 1);
        assert_eq!(pts[1].errors, 1);
    }

    #[test]
    fn rollup_caps_retained_intervals() {
        let mut s = LatencySeries::new(SimDuration::from_millis(100));
        // 1,000 closed intervals, one sample each: enough to fill the
        // coarse tier and make it merge its oldest entries.
        for i in 0..1_000u64 {
            s.record(
                SimTime::from_millis(i * 100 + 10),
                SimDuration::from_millis(5),
            );
        }
        s.finish(SimTime::from_secs(100));
        assert_eq!(s.closed_count(), 1_000);
        let pts = s.points();
        // Bounded: at most FINE_CAP + COARSE_CAP intervals ever retained.
        assert!(
            pts.len() <= FINE_CAP + COARSE_CAP,
            "retained {} intervals",
            pts.len()
        );
        // Nothing lost: counts survive the roll-up.
        assert_eq!(pts.iter().map(|p| p.count).sum::<u64>(), 1_000);
        // Chronological, non-overlapping, spans grow toward the front.
        for w in pts.windows(2) {
            assert!(w[0].t_s + w[0].len_s <= w[1].t_s + 1e-9);
        }
        assert!(pts[0].len_s > (ROLLUP_FACTOR as f64 * 0.1) + 1e-9);
        assert!(pts[0].len_s > pts.last().unwrap().len_s);
        assert!(s.rolled_up() > 0);
    }

    #[test]
    fn rollup_of_fine_equals_one_coarse_interval() {
        // Recording the same stream into (a) 100 ms intervals, more than
        // FINE_CAP of them so the oldest ROLLUP_FACTOR roll up once, and
        // (b) 800 ms intervals, too few ever to roll up, yields
        // byte-identical sketches for the first 800 ms.
        let mut fine = LatencySeries::new(SimDuration::from_millis(100));
        let mut coarse = LatencySeries::new(SimDuration::from_millis(100 * ROLLUP_FACTOR as u64));
        let fine_intervals = (FINE_CAP + ROLLUP_FACTOR) as u64;
        for i in 0..fine_intervals * 10 {
            let now = SimTime::from_millis(i * 10);
            let v = SimDuration::from_micros(i * 997 + 5);
            fine.record(now, v);
            coarse.record(now, v);
        }
        let end = SimTime::from_millis(fine_intervals * 100);
        fine.advance_to(end);
        coarse.advance_to(end);
        assert_eq!(fine.rolled_up(), ROLLUP_FACTOR as u64);
        assert_eq!(coarse.rolled_up(), 0);
        let rolled = fine.intervals().next().expect("rolled-up interval");
        let direct = coarse.intervals().next().expect("direct interval");
        assert_eq!(rolled.len, direct.len);
        assert_eq!(rolled, direct);
    }

    #[test]
    fn memory_stays_bounded_over_long_runs() {
        let mut s = LatencySeries::new(SimDuration::from_millis(100));
        let mut peak_after_warm = 0usize;
        for i in 0..20_000u64 {
            s.record(
                SimTime::from_millis(i * 100 + 1),
                SimDuration::from_micros(500 + (i % 97) * 300),
            );
            if i == 1_000 {
                peak_after_warm = s.mem_bytes();
            }
        }
        // 20x more intervals than at the measuring point, same memory
        // order: the roll-up keeps the footprint flat.
        assert!(
            s.mem_bytes() <= peak_after_warm * 2,
            "memory grew from {} to {} bytes",
            peak_after_warm,
            s.mem_bytes()
        );
    }

    #[test]
    fn gauge_series_appends() {
        let mut g = GaugeSeries::new("link_utilization", "a->b");
        g.push(SimTime::from_millis(100), 0.5);
        g.push(SimTime::from_millis(200), 0.7);
        assert_eq!(g.points.len(), 2);
        assert_eq!(g.last(), Some(0.7));
    }

    #[test]
    fn gauge_series_caps_points() {
        let mut g = GaugeSeries::new("pod_compute_queue", "pod-0");
        for i in 0..10_000u64 {
            g.push(SimTime::from_millis(i * 100), i as f64);
        }
        assert!(
            g.points.len() <= GAUGE_CAP,
            "{} points retained",
            g.points.len()
        );
        // Still chronological and the newest sample is intact.
        for w in g.points.windows(2) {
            assert!(w[0].t_s < w[1].t_s);
        }
        assert_eq!(g.last(), Some(9_999.0));
    }
}
