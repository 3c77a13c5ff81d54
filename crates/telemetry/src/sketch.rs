//! The telemetry plane's sketch resolution and its unit of roll-up.
//!
//! Every latency series and per-pod roll-up records into a
//! [`QuantileSketch`] (the simcore quantile structure) at [`SUB_BITS`],
//! so any two telemetry sketches merge.

use meshlayer_simcore::{QuantileSketch, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Sketch resolution of the telemetry plane: 2⁶ = 64 linear
/// sub-buckets per power-of-two band, a relative error bound of
/// 1/64 ≈ 1.6 % — inside every accuracy margin the experiment suite
/// asserts, at a quarter of the recorder histogram's footprint.
pub const SUB_BITS: u32 = 6;

/// One closed telemetry interval backed by a sketch: the unit the
/// age-based roll-up merges. Fine intervals have `len` equal to the
/// scrape interval; rolled-up intervals cover [`ROLLUP_FACTOR`](crate::series::ROLLUP_FACTOR) (or more)
/// of them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IntervalSketch {
    /// Interval start (simulated time).
    pub start: SimTime,
    /// Interval length (a multiple of the base scrape interval).
    pub len: SimDuration,
    /// Failures observed in the interval.
    pub errors: u64,
    /// Latency samples.
    pub sketch: QuantileSketch,
}

impl IntervalSketch {
    /// An empty interval `[start, start + len)`.
    pub fn new(start: SimTime, len: SimDuration) -> IntervalSketch {
        IntervalSketch {
            start,
            len,
            errors: 0,
            sketch: QuantileSketch::new(SUB_BITS),
        }
    }

    /// Absorb a (chronologically later, adjacent) interval: the spans
    /// concatenate and the sketches merge.
    pub fn absorb(&mut self, next: &IntervalSketch) {
        self.len += next.len;
        self.errors += next.errors;
        self.sketch.merge(&next.sketch);
    }

    /// Estimated footprint in bytes.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<QuantileSketch>()
            + self.sketch.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_absorb_concatenates() {
        let mut a = IntervalSketch::new(SimTime::ZERO, SimDuration::from_millis(100));
        a.sketch.record(1_000);
        a.errors = 1;
        let mut b = IntervalSketch::new(SimTime::from_millis(100), SimDuration::from_millis(100));
        b.sketch.record(3_000);
        a.absorb(&b);
        assert_eq!(a.len, SimDuration::from_millis(200));
        assert_eq!(a.errors, 1);
        assert_eq!(a.sketch.count(), 2);
    }
}
