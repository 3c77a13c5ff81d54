//! RTT estimation and retransmission timeout (Jacobson/Karels, RFC 6298).

use meshlayer_simcore::SimDuration;

/// Smoothed RTT estimator producing the RTO.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl RttEstimator {
    /// Estimator with datacenter-appropriate RTO clamps (10 ms – 2 s).
    ///
    /// The classic 1 s minimum RTO would dominate every latency number at
    /// sub-millisecond datacenter RTTs, so we use a 10 ms floor — the same
    /// compromise Linux makes via `TCP_RTO_MIN` tuning in DC deployments.
    pub fn new() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rto: SimDuration::from_millis(10),
            max_rto: SimDuration::from_secs(2),
        }
    }

    /// Incorporate a new RTT sample.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = SimDuration::from_nanos(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                // RFC 6298: alpha = 1/8, beta = 1/4.
                let err = if rtt >= srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar =
                    SimDuration::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + rtt.as_nanos()) / 8,
                ));
            }
        }
    }

    /// Current smoothed RTT, if any sample has arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        match self.srtt {
            None => self.max_rto.min(SimDuration::from_millis(200)),
            Some(srtt) => {
                let rto = srtt + self.rttvar.saturating_mul(4);
                rto.max(self.min_rto).min(self.max_rto)
            }
        }
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new();
        assert!(e.srtt().is_none());
        e.on_sample(SimDuration::from_millis(4));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(4)));
        // rto = srtt + 4 * (srtt/2) = 3*srtt = 12 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(12));
    }

    #[test]
    fn converges_on_constant_rtt() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.on_sample(SimDuration::from_millis(2));
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_millis_f64() - 2.0).abs() < 0.01);
        // Variance decays; RTO approaches the floor.
        assert!(e.rto() <= SimDuration::from_millis(10) + SimDuration::from_micros(100));
    }

    #[test]
    fn rto_clamped_to_bounds() {
        let mut e = RttEstimator::new();
        e.on_sample(SimDuration::from_micros(100));
        assert_eq!(e.rto(), SimDuration::from_millis(10));
        let mut e2 = RttEstimator::new();
        e2.on_sample(SimDuration::from_secs(10));
        assert_eq!(e2.rto(), SimDuration::from_secs(2));
    }

    #[test]
    fn variance_tracks_jitter() {
        let mut stable = RttEstimator::new();
        let mut jittery = RttEstimator::new();
        for i in 0..100 {
            stable.on_sample(SimDuration::from_millis(5));
            jittery.on_sample(SimDuration::from_millis(if i % 2 == 0 { 1 } else { 9 }));
        }
        assert!(jittery.rto() > stable.rto());
    }

    #[test]
    fn default_rto_before_any_sample() {
        let e = RttEstimator::new();
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }
}
