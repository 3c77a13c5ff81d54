//! HDR-style log-linear histogram.
//!
//! The paper measures p50/p99 HTTP request latency with `wrk2`, whose
//! defining feature is an HdrHistogram recording latencies *relative to the
//! intended send time* (avoiding coordinated omission). This module provides
//! the histogram half of that methodology; the workload crate provides the
//! intended-send-time half.
//!
//! Layout: values are bucketed into half-open ranges whose width doubles
//! every `sub_buckets` entries, giving a bounded relative error of
//! `1 / sub_buckets` anywhere in the range — the same scheme as
//! HdrHistogram with `significant_figures ≈ log10(sub_buckets)`.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Number of linear sub-buckets per power-of-two band. 256 gives a relative
/// error under 0.4 %, comfortably below run-to-run noise.
const SUB_BUCKETS: u64 = 256;
const SUB_BITS: u32 = 8; // log2(SUB_BUCKETS)

/// A log-linear histogram of `u64` values (we record nanoseconds).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Index of the bucket holding `v`.
    ///
    /// Values `0..SUB_BUCKETS` map to their own unit-width buckets; beyond
    /// that, each power-of-two band above `SUB_BUCKETS` is split into
    /// `SUB_BUCKETS/2` buckets of equal width.
    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        // Highest set bit position.
        let msb = 63 - v.leading_zeros();
        // Which band (0 = values in [SUB_BUCKETS, 2*SUB_BUCKETS)).
        let band = msb - SUB_BITS;
        // Position within the band: take the SUB_BITS-1 bits below the msb.
        let shift = band + 1;
        let within = ((v >> shift) & ((SUB_BUCKETS / 2) - 1)) as usize;
        SUB_BUCKETS as usize + band as usize * (SUB_BUCKETS / 2) as usize + within
    }

    /// Lowest value that maps to bucket `i` (inverse of [`Histogram::index`]).
    fn bucket_low(i: usize) -> u64 {
        if i < SUB_BUCKETS as usize {
            return i as u64;
        }
        let rel = i - SUB_BUCKETS as usize;
        let half = (SUB_BUCKETS / 2) as usize;
        let band = (rel / half) as u32;
        let within = (rel % half) as u64;
        let base = SUB_BUCKETS << band; // first value of this power-of-two band
        let width = 1u64 << (band + 1); // bucket width within the band
        base + within * width
    }

    /// Representative (midpoint) value for bucket `i`.
    fn bucket_mid(i: usize) -> u64 {
        let lo = Self::bucket_low(i);
        let hi = if i + 1 < usize::MAX {
            Self::bucket_low(i + 1)
        } else {
            lo
        };
        lo + (hi.saturating_sub(lo)) / 2
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let idx = Self::index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
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

    /// Value at quantile `q` in `[0,1]`, accurate to the bucket width
    /// (≤ 0.4 % relative error). Returns 0 if empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based ceil like HdrHistogram.
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp to observed extremes so p0/p100 are exact.
                return Self::bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50) as a duration.
    pub fn p50(&self) -> SimDuration {
        SimDuration::from_nanos(self.value_at_quantile(0.50))
    }

    /// p90 as a duration.
    pub fn p90(&self) -> SimDuration {
        SimDuration::from_nanos(self.value_at_quantile(0.90))
    }

    /// p99 as a duration.
    pub fn p99(&self) -> SimDuration {
        SimDuration::from_nanos(self.value_at_quantile(0.99))
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }

    /// A compact one-line summary (durations in milliseconds).
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.3}ms p50={:.3}ms p90={:.3}ms p99={:.3}ms max={:.3}ms",
            self.total,
            self.mean() / 1e6,
            self.p50().as_millis_f64(),
            self.p90().as_millis_f64(),
            self.p99().as_millis_f64(),
            self.max as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_monotone_and_invertible() {
        let mut prev_idx = 0;
        for v in (0..100_000u64).step_by(7) {
            let idx = Histogram::index(v);
            assert!(idx >= prev_idx, "index not monotone at {v}");
            prev_idx = idx;
            let lo = Histogram::bucket_low(idx);
            assert!(lo <= v, "bucket_low({idx})={lo} > {v}");
            // v must be below the next bucket's low.
            let next_lo = Histogram::bucket_low(idx + 1);
            assert!(v < next_lo, "{v} >= next bucket low {next_lo}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
        assert_eq!(h.value_at_quantile(0.0), 0);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = Histogram::new();
        // 1..=100_000 uniformly: pN must be close to N% of 100_000.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.value_at_quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.01, "q={q}: got {got}, want ~{expect} (rel {rel})");
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
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.99), 0);
    }

    #[test]
    fn single_value_all_quantiles() {
        let mut h = Histogram::new();
        h.record(123_456_789);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let got = h.value_at_quantile(q) as f64;
            assert!((got - 123_456_789.0).abs() / 123_456_789.0 < 0.01);
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 37)
            } else {
                b.record(v * 37)
            }
            both.record(v * 37);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.value_at_quantile(q), both.value_at_quantile(q));
        }
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn record_duration_records_nanos() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_millis(5));
        let p50 = h.p50();
        assert!((p50.as_millis_f64() - 5.0).abs() / 5.0 < 0.01);
    }

    #[test]
    fn summary_contains_count() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert!(h.summary().contains("n=1"));
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
            if rel > 0.004 {
                return Err(format!(
                    "q={q}: histogram {got} vs exact {exact} (rel {rel:.5} > 0.004, n={})",
                    sorted.len()
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The documented accuracy contract: any quantile of any sample
        /// set is within 0.4 % relative error of the exact sorted-sample
        /// quantile (ties broken by the same ceil-rank rule).
        #[test]
        fn quantiles_track_exact_sorted_samples(
            n in 1usize..400,
            lo in 0u64..100_000,
            span_exp in 0u32..30,
            seed in 0u64..10_000,
        ) {
            // Xorshift samples across wildly different scales: `span_exp`
            // sweeps from sub-bucket (exact) ranges up to multi-band ones.
            let span = 1u64 << span_exp;
            let mut x = seed.wrapping_mul(2_685_821_657_736_338_717).max(1);
            let samples: Vec<u64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    lo + x % span
                })
                .collect();
            if let Err(e) = check_quantiles_against_exact(&samples) {
                return Err(proptest::prelude::TestCaseError::fail(e));
            }
        }
    }

    #[test]
    fn quantiles_exact_on_degenerate_samples() {
        // Single value: one occupied bucket, min == max.
        for v in [0u64, 1, 255, 256, 1_000_003, u32::MAX as u64 * 7] {
            check_quantiles_against_exact(&[v]).unwrap();
        }
        // Constant samples (min == max, many counts in one bucket).
        check_quantiles_against_exact(&[42_000_000; 257]).unwrap();
        // All samples inside one unit-width bucket band.
        check_quantiles_against_exact(&(0..SUB_BUCKETS).map(|_| 7u64).collect::<Vec<_>>()).unwrap();
    }
}
