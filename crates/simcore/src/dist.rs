//! Sampling distributions for workload and service-time modelling.
//!
//! Service times and message sizes in microservice fleets are commonly
//! modelled as constant, exponential or log-normal (heavy-ish tail); those
//! three are provided here, implemented from first principles on top of
//! [`SimRng`]. Request *arrivals* are not drawn from here: they follow
//! `wrk2`'s uniformly random inter-arrival times (`meshlayer-workload`).

use crate::rng::SimRng;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// A sampling distribution over non-negative real values.
///
/// `Dist` is a plain enum rather than a trait object so experiment specs can
/// be serialized, diffed, and embedded in results files.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Always `value`.
    Constant {
        /// The value returned by every sample.
        value: f64,
    },
    /// Exponential with the given mean (`1/λ`).
    Exp {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Log-normal parameterised by the *target* mean and the σ of the
    /// underlying normal (shape). Heavier tail as `sigma` grows.
    LogNormal {
        /// Desired mean of the sampled values.
        mean: f64,
        /// Standard deviation of the underlying normal distribution.
        sigma: f64,
    },
}

impl Dist {
    /// A constant distribution.
    pub fn constant(value: f64) -> Dist {
        Dist::Constant { value }
    }

    /// An exponential distribution with the given mean.
    pub fn exp(mean: f64) -> Dist {
        Dist::Exp { mean }
    }

    /// A log-normal with target mean `mean` and shape `sigma`.
    pub fn lognormal(mean: f64, sigma: f64) -> Dist {
        Dist::LogNormal { mean, sigma }
    }

    /// Draw one sample. All samples are clamped to be non-negative.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let v = match self {
            Dist::Constant { value } => *value,
            Dist::Exp { mean } => {
                // Inverse CDF; guard the log argument away from 0.
                let u = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
            Dist::LogNormal { mean, sigma } => {
                // If X ~ N(mu, sigma^2) then E[e^X] = e^(mu + sigma^2/2).
                // Choose mu so that the sampled mean equals `mean`.
                let mu = mean.max(f64::MIN_POSITIVE).ln() - sigma * sigma / 2.0;
                (mu + sigma * standard_normal(rng)).exp()
            }
        };
        v.max(0.0)
    }

    /// Sample and interpret the value as *seconds*, returning a duration.
    pub fn sample_duration(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.sample(rng))
    }

    /// Sample and interpret the value as a byte count (rounded, >= 0).
    pub fn sample_bytes(&self, rng: &mut SimRng) -> u64 {
        self.sample(rng).round().max(0.0) as u64
    }

    /// Analytic mean of the distribution.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Constant { value } => *value,
            Dist::Exp { mean } | Dist::LogNormal { mean, .. } => *mean,
        }
    }
}

/// One standard-normal draw via Box–Muller (the non-cached variant; a cached
/// pair would make draw counts depend on call sites, hurting determinism
/// reasoning).
fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.f64().max(f64::MIN_POSITIVE);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &Dist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = SimRng::new(1);
        let d = Dist::constant(3.5);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn exp_mean_converges() {
        let d = Dist::exp(0.25);
        assert!((mean_of(&d, 100_000, 4) - 0.25).abs() < 0.01);
    }

    #[test]
    fn lognormal_mean_converges() {
        let d = Dist::lognormal(10.0, 0.5);
        assert!((mean_of(&d, 200_000, 5) - 10.0).abs() < 0.2);
    }

    #[test]
    fn sample_duration_and_bytes() {
        let mut rng = SimRng::new(11);
        let d = Dist::constant(0.002);
        assert_eq!(d.sample_duration(&mut rng).as_millis(), 2);
        let d = Dist::constant(1536.4);
        assert_eq!(d.sample_bytes(&mut rng), 1536);
    }

    #[test]
    fn serde_round_trip() {
        let d = Dist::LogNormal {
            mean: 5.0,
            sigma: 0.25,
        };
        let s = serde_json::to_string(&d).unwrap();
        let back: Dist = serde_json::from_str(&s).unwrap();
        assert_eq!(d, back);
    }
}
