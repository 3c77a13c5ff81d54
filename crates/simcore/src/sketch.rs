//! Deterministic mergeable quantile sketches — the one quantile
//! structure of the simulator.
//!
//! The paper measures p50/p99 HTTP request latency with `wrk2`, whose
//! defining feature is an HdrHistogram recording latencies *relative to
//! the intended send time* (avoiding coordinated omission). The workload
//! crate provides the intended-send-time half of that methodology; this
//! module provides the histogram half, and the telemetry plane's
//! per-interval series and roll-ups use the same structure.
//!
//! A [`QuantileSketch`] is the DDSketch idea — relative-error-bounded
//! quantiles from logarithmically spaced buckets — on HdrHistogram's
//! integer log-linear bucketing instead of floating-point logarithms:
//! values below `2^sub_bits` get unit-width buckets, and each
//! power-of-two band above is split into `2^(sub_bits-1)` buckets of
//! equal width, a relative error of at most `2^-sub_bits`. Every
//! operation is exact integer arithmetic, so recording, merging and
//! roll-up are bit-deterministic on any host and in any order. Merging is
//! element-wise count addition, which makes it exactly associative and
//! commutative (property-tested in `tests/props.rs`).
//!
//! The bucket array is stored in canonical trimmed form (first and last
//! stored bucket are non-empty), so two sketches holding the same
//! distribution are byte-identical however they were assembled, and an
//! idle sketch costs a few dozen bytes. Counts are `u32` per bucket
//! (saturating): no recorder class or telemetry interval comes near
//! ~4 × 10⁹ samples in one bucket, and halving the footprint matters
//! more at fleet scale.
//!
//! [`Histogram`] is the workload recorder's view: a sketch whose
//! resolution is fixed at [`HISTOGRAM_SUB_BITS`].

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::ops::Deref;

/// A mergeable log-linear quantile sketch over `u64` values
/// (nanoseconds throughout the simulator).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    /// Sub-bucket exponent: `1 << sub_bits` linear buckets per band.
    sub_bits: u32,
    /// Bucket index of `counts[0]` (canonical: `counts` is trimmed).
    base: u32,
    counts: Vec<u32>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

/// The five numbers every latency table reports, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyMs {
    /// Exact mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

impl QuantileSketch {
    /// An empty sketch with `1 << sub_bits` sub-buckets per band; the
    /// relative error of any quantile is bounded by [`Self::relative_error`].
    pub fn new(sub_bits: u32) -> QuantileSketch {
        assert!(
            (1..=16).contains(&sub_bits),
            "sub_bits {sub_bits} out of range 1..=16"
        );
        QuantileSketch {
            sub_bits,
            base: 0,
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Guaranteed relative error bound for any quantile: `2^-sub_bits`.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.sub_bits) as f64
    }

    /// Index of the bucket holding `v`.
    fn index(&self, v: u64) -> u32 {
        let sub = 1u64 << self.sub_bits;
        if v < sub {
            return v as u32;
        }
        let msb = 63 - v.leading_zeros();
        let band = msb - self.sub_bits;
        let shift = band + 1;
        let within = ((v >> shift) & (sub / 2 - 1)) as u32;
        sub as u32 + band * (sub / 2) as u32 + within
    }

    /// Lowest value mapping to bucket `i` (inverse of [`Self::index`]).
    fn bucket_low(&self, i: u32) -> u64 {
        let sub = 1u64 << self.sub_bits;
        if (i as u64) < sub {
            return i as u64;
        }
        let rel = i as u64 - sub;
        let half = sub / 2;
        let band = (rel / half) as u32;
        let within = rel % half;
        let base = sub << band;
        let width = 1u64 << (band + 1);
        base + within * width
    }

    /// Midpoint of bucket `i` (the reported representative value).
    fn bucket_mid(&self, i: u32) -> u64 {
        let lo = self.bucket_low(i);
        let hi = self.bucket_low(i + 1);
        lo + hi.saturating_sub(lo) / 2
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let idx = self.index(v);
        if self.counts.is_empty() {
            self.base = idx;
            self.counts.push(0);
        } else if idx < self.base {
            let grow = (self.base - idx) as usize;
            let mut counts = vec![0u32; grow + self.counts.len()];
            counts[grow..].copy_from_slice(&self.counts);
            self.counts = counts;
            self.base = idx;
        } else if idx - self.base >= self.counts.len() as u32 {
            self.counts.resize((idx - self.base + 1) as usize, 0);
        }
        let slot = &mut self.counts[(idx - self.base) as usize];
        *slot = slot.saturating_add(1);
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact minimum recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0,1]`, within the relative error bound
    /// of the recorded exact-rank value (1-based ceil rank, like
    /// HdrHistogram; clamped to the observed extremes so p0 and p100
    /// are exact). Returns 0 if empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= target {
                return self
                    .bucket_mid(self.base + i as u32)
                    .clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean, p50, p90, p99 and max of nanosecond samples, in
    /// milliseconds: the row every latency table prints.
    pub fn latency_ms(&self) -> LatencyMs {
        let ms = |ns: u64| ns as f64 / 1e6;
        LatencyMs {
            mean: self.mean() / 1e6,
            p50: ms(self.value_at_quantile(0.50)),
            p90: ms(self.value_at_quantile(0.90)),
            p99: ms(self.value_at_quantile(0.99)),
            max: ms(self.max()),
        }
    }

    /// Merge another sketch into this one: element-wise count addition,
    /// exactly associative and commutative. Panics if the sub-bucket
    /// schemes differ (merging across resolutions is not meaningful).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.sub_bits, other.sub_bits,
            "cannot merge sketches with different resolutions"
        );
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.base = other.base;
            self.counts = other.counts.clone();
        } else {
            let lo = self.base.min(other.base);
            let hi =
                (self.base + self.counts.len() as u32).max(other.base + other.counts.len() as u32);
            let mut counts = vec![0u32; (hi - lo) as usize];
            for (i, &c) in self.counts.iter().enumerate() {
                counts[(self.base - lo) as usize + i] = c;
            }
            for (i, &c) in other.counts.iter().enumerate() {
                let slot = &mut counts[(other.base - lo) as usize + i];
                *slot = slot.saturating_add(c);
            }
            self.base = lo;
            self.counts = counts;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimated heap + inline footprint in bytes.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.capacity() * std::mem::size_of::<u32>()
    }
}

/// Sub-bucket exponent of [`Histogram`]: 256 sub-buckets per band, a
/// relative error under 0.4 %, comfortably below run-to-run noise.
pub const HISTOGRAM_SUB_BITS: u32 = 8;

/// The workload recorder's latency histogram: a [`QuantileSketch`] at
/// [`HISTOGRAM_SUB_BITS`]. The type fixes the resolution; every query
/// goes through `Deref` to the sketch.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram(QuantileSketch);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(QuantileSketch::new(HISTOGRAM_SUB_BITS))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.0.record(v);
    }
}

impl Deref for Histogram {
    type Target = QuantileSketch;

    fn deref(&self) -> &QuantileSketch {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports_quantiles() {
        let mut s = QuantileSketch::new(6);
        for v in 1..=10_000u64 {
            s.record(v);
        }
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 10_000);
        for (q, expect) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = s.value_at_quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel <= s.relative_error(), "q={q}: {got} vs {expect}");
        }
    }

    #[test]
    fn canonical_form_is_trimmed() {
        let mut s = QuantileSketch::new(6);
        s.record(1_000_000);
        s.record(2_000_000);
        assert!(*s.counts.first().unwrap() > 0);
        assert!(*s.counts.last().unwrap() > 0);
        // Recording a smaller value extends the front.
        s.record(1_000);
        assert!(*s.counts.first().unwrap() > 0);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn merge_matches_combined_recording_exactly() {
        let mut a = QuantileSketch::new(6);
        let mut b = QuantileSketch::new(6);
        let mut both = QuantileSketch::new(6);
        for v in 0..2_000u64 {
            let x = v * 7919 + 13;
            if v % 3 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a, both, "merge must equal direct recording byte-for-byte");
    }

    #[test]
    fn merge_empty_is_identity() {
        let mut a = QuantileSketch::new(6);
        a.record(42);
        let before = a.clone();
        a.merge(&QuantileSketch::new(6));
        assert_eq!(a, before);
        let mut e = QuantileSketch::new(6);
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_sketch_is_zeroes() {
        let s = QuantileSketch::new(6);
        assert!(s.is_empty());
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.value_at_quantile(0.99), 0);
    }

    #[test]
    fn mem_bytes_tracks_buckets() {
        let mut s = QuantileSketch::new(6);
        let empty = s.mem_bytes();
        for v in 0..100u64 {
            s.record(v * 1_000_003);
        }
        assert!(s.mem_bytes() > empty);
    }

    #[test]
    fn index_monotone_and_invertible() {
        let s = Histogram::new();
        let mut prev_idx = 0;
        for v in (0..100_000u64).step_by(7) {
            let idx = s.index(v);
            assert!(idx >= prev_idx, "index not monotone at {v}");
            prev_idx = idx;
            let lo = s.bucket_low(idx);
            assert!(lo <= v, "bucket_low({idx})={lo} > {v}");
            // v must be below the next bucket's low.
            let next_lo = s.bucket_low(idx + 1);
            assert!(v < next_lo, "{v} >= next bucket low {next_lo}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        let sub = 1u64 << HISTOGRAM_SUB_BITS;
        for v in 0..sub {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), sub - 1);
        for v in [0, 1, 100, sub - 1] {
            let q = (v + 1) as f64 / sub as f64;
            assert_eq!(h.value_at_quantile(q), v, "unit-width bucket {v}");
        }
    }

    #[test]
    fn mean_and_extremes_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1_000_000);
        assert!((h.mean() - 250_015.0).abs() < 1e-6);
    }

    #[test]
    fn single_value_all_quantiles() {
        let mut h = Histogram::new();
        h.record(123_456_789);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), 123_456_789, "q={q}");
        }
    }

    /// Exact quantile of a sorted sample using the same 1-based ceil rank
    /// rule as `value_at_quantile`.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as u64;
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        sorted[(target - 1) as usize]
    }

    fn check_quantiles_against_exact(samples: &[u64]) -> Result<(), String> {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let got = h.value_at_quantile(q);
            let rel = (got as f64 - exact as f64).abs() / (exact as f64).max(1.0);
            if rel > h.relative_error() {
                return Err(format!(
                    "q={q}: histogram {got} vs exact {exact} (rel {rel:.5}, n={})",
                    sorted.len()
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn quantiles_exact_on_degenerate_samples() {
        // Single value: one occupied bucket, min == max.
        for v in [0u64, 1, 255, 256, 1_000_003, u32::MAX as u64 * 7, u64::MAX] {
            check_quantiles_against_exact(&[v]).unwrap();
        }
        // Constant samples (min == max, many counts in one bucket).
        check_quantiles_against_exact(&[42_000_000; 257]).unwrap();
        // All samples inside one unit-width bucket.
        check_quantiles_against_exact(&[7u64; 256]).unwrap();
    }
}
