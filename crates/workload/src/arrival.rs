//! The inter-arrival process.

use meshlayer_simcore::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// wrk2's arrival process, the paper's choice ("uniformly random
/// inter-arrival times", §4.3): each gap is uniform in `[0, 2/rps)`, so
/// the mean gap is `1/rps`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// Mean arrival rate, requests/second.
    pub rps: f64,
}

impl Arrival {
    /// Draw the next inter-arrival gap.
    ///
    /// # Panics
    /// Panics if the rate is not positive.
    pub fn next_gap(&self, rng: &mut SimRng) -> SimDuration {
        assert!(self.rps > 0.0, "non-positive arrival rate");
        let mean = 1.0 / self.rps;
        SimDuration::from_secs_f64(rng.f64() * 2.0 * mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mean_matches_rate() {
        let a = Arrival { rps: 50.0 };
        let mut rng = SimRng::new(1);
        let n = 100_000;
        let m = (0..n)
            .map(|_| a.next_gap(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((m - 0.02).abs() < 0.001, "mean gap {m}");
    }

    #[test]
    fn uniform_bounded_by_twice_mean() {
        let a = Arrival { rps: 10.0 };
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            let g = a.next_gap(&mut rng).as_secs_f64();
            assert!((0.0..0.2).contains(&g));
        }
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_rate_panics() {
        Arrival { rps: 0.0 }.next_gap(&mut SimRng::new(1));
    }
}
