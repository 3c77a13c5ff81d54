//! Online statistics: an exponentially weighted moving average.
//!
//! Sidecars keep one per upstream endpoint: the latency EWMAs drive the
//! EWMA load-balancing policy.

use serde::{Deserialize, Serialize};

/// Exponentially weighted moving average with a configurable smoothing
/// factor `alpha` (weight of the newest sample).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Record a sample.
    pub fn push(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current average, or `default` if no samples yet.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Current average, if any sample has been recorded.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Whether any sample has been recorded.
    pub fn is_primed(&self) -> bool {
        self.value.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.2);
        assert!(!e.is_primed());
        assert_eq!(e.get_or(7.0), 7.0);
        for _ in 0..200 {
            e.push(3.0);
        }
        assert!((e.get().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_sample_is_exact() {
        let mut e = Ewma::new(0.1);
        e.push(42.0);
        assert_eq!(e.get(), Some(42.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }
}
