//! Property tests for the telemetry plane's roll-up pyramid. The sketch
//! algebra it rests on (exact merge associativity and commutativity, the
//! relative-error bound) is property-tested with the sketch, in
//! simcore's `tests/props.rs`.
//!
//! * absorbing N fine intervals produces the same coarse interval,
//!   byte for byte, as recording every sample into one coarse interval
//!   directly — the invariant that makes age-based roll-up lossless at
//!   interval granularity;
//! * the retention pyramid bounds the intervals a series holds.

use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_telemetry::series::{COARSE_CAP, FINE_CAP};
use meshlayer_telemetry::{IntervalSketch, LatencySeries};
use proptest::prelude::*;

/// Deterministic xorshift stream seeded per case.
fn samples(n: usize, lo: u64, span_exp: u32, seed: u64) -> Vec<u64> {
    let span = 1u64 << span_exp;
    let mut x = seed.wrapping_mul(2_685_821_657_736_338_717).max(1);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            lo + x % span
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Roll-up losslessness: absorbing N adjacent fine intervals yields
    /// the same coarse interval, byte for byte, as recording every
    /// sample (and error) into a single interval spanning all of them.
    #[test]
    fn rollup_of_fine_intervals_equals_one_coarse_interval(
        n_intervals in 1usize..12,
        per in 0usize..40,
        lo in 0u64..50_000,
        span_exp in 0u32..28,
        seed in 0u64..10_000,
    ) {
        let step = SimDuration::from_millis(100);
        let mut fine = Vec::new();
        let mut coarse = IntervalSketch::new(
            SimTime::ZERO,
            SimDuration::from_nanos(step.as_nanos() * n_intervals as u64),
        );
        for i in 0..n_intervals {
            let vals = samples(per, lo, span_exp, seed.wrapping_add(i as u64));
            let mut iv = IntervalSketch::new(SimTime::from_nanos(step.as_nanos() * i as u64), step);
            iv.errors = (seed.wrapping_add(i as u64)) % 3;
            for &v in &vals {
                iv.sketch.record(v);
                coarse.sketch.record(v);
            }
            coarse.errors += iv.errors;
            fine.push(iv);
        }
        let mut rolled = fine[0].clone();
        for iv in &fine[1..] {
            rolled.absorb(iv);
        }
        prop_assert_eq!(&rolled, &coarse, "roll-up must be lossless byte-for-byte");
    }

    /// The retention pyramid bounds memory for any workload shape:
    /// after any number of closed intervals, the series never holds
    /// more than `FINE_CAP + COARSE_CAP` sketches.
    #[test]
    fn retention_bounds_interval_count(
        intervals in 1u64..400,
        per in 1u64..20,
        seed in 0u64..1_000,
    ) {
        let step = SimDuration::from_millis(100);
        let mut series = LatencySeries::new(step);
        for i in 0..intervals {
            let t = SimTime::from_nanos(step.as_nanos() * i + 1);
            for k in 0..per {
                let v = (seed + 1) * 31 + i * 7 + k * 13;
                series.record(t, SimDuration::from_nanos(v));
            }
        }
        series.finish(SimTime::from_nanos(step.as_nanos() * intervals + 1));
        let held = series.intervals().count();
        prop_assert!(
            held <= FINE_CAP + COARSE_CAP + 1,
            "{held} intervals retained exceeds pyramid cap"
        );
        // Nothing is dropped: total sample count survives roll-up.
        let total: u64 = series.intervals().map(|iv| iv.sketch.count()).sum();
        prop_assert_eq!(total, intervals * per);
    }
}
