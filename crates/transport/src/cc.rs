//! Congestion-control algorithms.
//!
//! The paper's §4.2(b) proposes running *scavenger* transports
//! (TCP-LP \[34], LEDBAT \[45], Proteus \[39]) for latency-insensitive
//! requests in the sidecar-to-sidecar channel, with no application change.
//! This module provides the loss-based baselines ([`Reno`], [`CubicLite`])
//! and two delay-based scavengers ([`Ledbat`], [`TcpLp`]) behind one trait
//! so the sidecar can select the algorithm per connection pool.
//!
//! All windows are in bytes. Algorithms are intentionally compact models —
//! enough fidelity to reproduce the *qualitative* behaviour (scavengers
//! yield to loss-based flows at a shared bottleneck) without kernel-level
//! detail.

use meshlayer_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Maximum segment size used throughout the simulation (payload bytes).
pub const MSS: u64 = 1448;

/// Initial congestion window (10 segments, RFC 6928).
pub const INIT_CWND: u64 = 10 * MSS;

/// Upper bound on any congestion window (1 GiB — far beyond any
/// bandwidth-delay product in the simulated topologies; prevents unbounded
/// slow-start growth on lossless paths).
pub const MAX_CWND: u64 = 1 << 30;

/// A congestion-control algorithm, driven by the sender's ack clock.
pub trait CongestionControl: Send {
    /// `acked` new bytes were cumulatively acknowledged; `rtt` is the
    /// freshest RTT sample (measured via timestamp echo).
    fn on_ack(&mut self, acked: u64, rtt: SimDuration, now: SimTime);

    /// Loss inferred via triple duplicate ack (fast retransmit).
    fn on_loss(&mut self, now: SimTime);

    /// Retransmission timeout fired.
    fn on_timeout(&mut self, now: SimTime);

    /// Current congestion window, bytes.
    fn cwnd(&self) -> u64;

    /// Algorithm name for telemetry.
    fn name(&self) -> &'static str;
}

/// Which congestion controller to instantiate (serializable config).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CcAlgo {
    /// Classic NewReno-style AIMD.
    Reno,
    /// CUBIC-shaped window growth.
    Cubic,
    /// LEDBAT-style delay-based scavenger (RFC 6817).
    Ledbat,
    /// TCP-LP-style scavenger (early congestion inference + backoff).
    TcpLp,
}

impl CcAlgo {
    /// Instantiate the algorithm.
    pub fn build(self) -> Box<dyn CongestionControl> {
        match self {
            CcAlgo::Reno => Box::new(Reno::new()),
            CcAlgo::Cubic => Box::new(CubicLite::new()),
            CcAlgo::Ledbat => Box::new(Ledbat::new()),
            CcAlgo::TcpLp => Box::new(TcpLp::new()),
        }
    }
}

// ---------------------------------------------------------------------------
// Reno
// ---------------------------------------------------------------------------

/// NewReno-style AIMD: slow start to `ssthresh`, then +1 MSS per RTT;
/// multiplicative decrease on loss.
pub struct Reno {
    cwnd: u64,
    ssthresh: u64,
}

impl Default for Reno {
    fn default() -> Self {
        Self::new()
    }
}

impl Reno {
    /// Fresh flow in slow start.
    pub fn new() -> Self {
        Reno {
            cwnd: INIT_CWND,
            ssthresh: u64::MAX,
        }
    }
}

impl CongestionControl for Reno {
    fn on_ack(&mut self, acked: u64, _rtt: SimDuration, _now: SimTime) {
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per acked MSS, capped at ssthresh.
            self.cwnd = self
                .cwnd
                .saturating_add(acked)
                .min(self.ssthresh.max(INIT_CWND))
                .min(MAX_CWND);
        } else {
            // Congestion avoidance: +MSS per cwnd of acked bytes.
            self.cwnd = self
                .cwnd
                .saturating_add((MSS.saturating_mul(acked) / self.cwnd).max(1))
                .min(MAX_CWND);
        }
    }

    fn on_loss(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(2 * MSS);
        self.cwnd = self.ssthresh;
    }

    fn on_timeout(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(2 * MSS);
        self.cwnd = MSS;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

// ---------------------------------------------------------------------------
// CUBIC (lite)
// ---------------------------------------------------------------------------

/// CUBIC window growth: `W(t) = C (t - K)^3 + W_max`, with fast convergence
/// omitted. Falls back to slow start below `ssthresh`.
pub struct CubicLite {
    cwnd: u64,
    ssthresh: u64,
    w_max: f64,
    epoch_start: Option<SimTime>,
    k: f64,
}

/// CUBIC aggressiveness constant (segments/s³), per RFC 8312.
const CUBIC_C: f64 = 0.4;
/// Multiplicative decrease factor.
const CUBIC_BETA: f64 = 0.7;

impl Default for CubicLite {
    fn default() -> Self {
        Self::new()
    }
}

impl CubicLite {
    /// Fresh flow in slow start.
    pub fn new() -> Self {
        CubicLite {
            cwnd: INIT_CWND,
            ssthresh: u64::MAX,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
        }
    }
}

impl CongestionControl for CubicLite {
    fn on_ack(&mut self, acked: u64, _rtt: SimDuration, now: SimTime) {
        if self.cwnd < self.ssthresh {
            self.cwnd = self.cwnd.saturating_add(acked).min(MAX_CWND);
            return;
        }
        let epoch = *self.epoch_start.get_or_insert(now);
        let t = now.saturating_since(epoch).as_secs_f64();
        // Window target in segments.
        let target = CUBIC_C * (t - self.k).powi(3) + self.w_max;
        let target_bytes = (target.max(2.0) * MSS as f64) as u64;
        if target_bytes > self.cwnd {
            // Approach the cubic target over roughly one RTT of acks.
            let step = ((target_bytes - self.cwnd).saturating_mul(acked) / self.cwnd.max(1)).max(1);
            self.cwnd = self.cwnd.saturating_add(step).min(MAX_CWND);
        } else {
            // TCP-friendly floor: grow at least like Reno.
            self.cwnd = self
                .cwnd
                .saturating_add((MSS.saturating_mul(acked) / self.cwnd.max(1)).max(1))
                .min(MAX_CWND);
        }
    }

    fn on_loss(&mut self, _now: SimTime) {
        self.w_max = self.cwnd as f64 / MSS as f64;
        self.cwnd = ((self.cwnd as f64 * CUBIC_BETA) as u64).max(2 * MSS);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        self.k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.on_loss(now);
        self.cwnd = MSS;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

// ---------------------------------------------------------------------------
// LEDBAT
// ---------------------------------------------------------------------------

/// LEDBAT-style scavenger (RFC 6817): target a small queuing delay; ramp
/// proportionally to how far below target the queue is, back off linearly
/// above it, and halve on loss. Yields the bottleneck to any loss-based
/// flow, which keeps the queue above LEDBAT's target.
pub struct Ledbat {
    cwnd: u64,
    /// Target queuing delay.
    target: SimDuration,
    /// Minimum observed RTT (base delay proxy).
    base_rtt: SimDuration,
    gain: f64,
}

impl Ledbat {
    /// Scavenger with the default 5 ms queuing-delay target (datacenter
    /// scale; RFC 6817 uses 100 ms for WANs).
    pub fn new() -> Self {
        Self::with_target(SimDuration::from_millis(5))
    }

    /// Scavenger with an explicit queuing-delay target.
    pub fn with_target(target: SimDuration) -> Self {
        Ledbat {
            cwnd: INIT_CWND,
            target,
            base_rtt: SimDuration::MAX,
            gain: 1.0,
        }
    }
}

impl Default for Ledbat {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Ledbat {
    fn on_ack(&mut self, acked: u64, rtt: SimDuration, _now: SimTime) {
        self.base_rtt = self.base_rtt.min(rtt);
        let queuing = rtt.saturating_sub(self.base_rtt);
        let off_target =
            (self.target.as_secs_f64() - queuing.as_secs_f64()) / self.target.as_secs_f64();
        // off_target in (-inf, 1]; positive grows, negative shrinks.
        let delta = self.gain * off_target * acked as f64 * MSS as f64 / self.cwnd.max(1) as f64;
        let next = self.cwnd as f64 + delta;
        self.cwnd = (next.max(MSS as f64) as u64).min(MAX_CWND);
    }

    fn on_loss(&mut self, _now: SimTime) {
        self.cwnd = (self.cwnd / 2).max(MSS);
    }

    fn on_timeout(&mut self, _now: SimTime) {
        self.cwnd = MSS;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "ledbat"
    }
}

// ---------------------------------------------------------------------------
// TCP-LP
// ---------------------------------------------------------------------------

/// TCP-LP-style scavenger: infer congestion *early* from one-way-delay
/// crossing a threshold between min and max observed delay; on first
/// indication halve the window, on a second within the inference window
/// drop to one MSS and hold.
pub struct TcpLp {
    cwnd: u64,
    min_rtt: SimDuration,
    max_rtt: SimDuration,
    /// End of the current inference phase, if any.
    inference_until: Option<SimTime>,
    /// Threshold position between min and max delay (paper: 15 %).
    delta: f64,
}

impl TcpLp {
    /// Scavenger with the standard 15 % early-congestion threshold.
    pub fn new() -> Self {
        TcpLp {
            cwnd: INIT_CWND,
            min_rtt: SimDuration::MAX,
            max_rtt: SimDuration::ZERO,
            inference_until: None,
            delta: 0.15,
        }
    }
}

impl Default for TcpLp {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for TcpLp {
    fn on_ack(&mut self, acked: u64, rtt: SimDuration, now: SimTime) {
        self.min_rtt = self.min_rtt.min(rtt);
        self.max_rtt = self.max_rtt.max(rtt);
        let span = self.max_rtt.saturating_sub(self.min_rtt);
        let threshold = self.min_rtt + span.mul_f64(self.delta);
        let congested = span > SimDuration::from_micros(100) && rtt > threshold;
        if congested {
            match self.inference_until {
                // Second indication within the inference phase: minimal rate.
                Some(until) if now < until => {
                    self.cwnd = MSS;
                }
                _ => {
                    self.cwnd = (self.cwnd / 2).max(MSS);
                    // Inference phase lasts ~3 RTTs.
                    self.inference_until = Some(now + rtt.saturating_mul(3));
                }
            }
            return;
        }
        if let Some(until) = self.inference_until {
            if now < until {
                // Hold during inference.
                return;
            }
            self.inference_until = None;
        }
        // Additive increase like Reno congestion avoidance.
        self.cwnd = self
            .cwnd
            .saturating_add((MSS.saturating_mul(acked) / self.cwnd.max(1)).max(1))
            .min(MAX_CWND);
    }

    fn on_loss(&mut self, now: SimTime) {
        self.cwnd = MSS;
        self.inference_until = Some(now + self.max_rtt.saturating_mul(3));
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.on_loss(now);
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "tcp-lp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTT: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut cc = Reno::new();
        let w0 = cc.cwnd();
        // Ack a full window: slow start adds acked bytes -> doubles.
        cc.on_ack(w0, RTT, SimTime::ZERO);
        assert_eq!(cc.cwnd(), 2 * w0);
    }

    #[test]
    fn reno_ca_adds_one_mss_per_rtt() {
        let mut cc = Reno::new();
        cc.on_loss(SimTime::ZERO); // enter CA with ssthresh = cwnd/2
        let w = cc.cwnd();
        cc.on_ack(w, RTT, SimTime::ZERO); // one full window acked
        assert!(
            cc.cwnd() >= w + MSS && cc.cwnd() <= w + MSS + 8,
            "{}",
            cc.cwnd()
        );
    }

    #[test]
    fn reno_halves_on_loss_and_floors() {
        let mut cc = Reno::new();
        cc.on_ack(100 * MSS, RTT, SimTime::ZERO);
        let w = cc.cwnd();
        cc.on_loss(SimTime::ZERO);
        assert_eq!(cc.cwnd(), w / 2);
        for _ in 0..20 {
            cc.on_loss(SimTime::ZERO);
        }
        assert_eq!(cc.cwnd(), 2 * MSS, "floor");
        cc.on_timeout(SimTime::ZERO);
        assert_eq!(cc.cwnd(), MSS);
    }

    #[test]
    fn cubic_recovers_toward_wmax() {
        let mut cc = CubicLite::new();
        // Grow, lose, then verify growth resumes toward the old plateau.
        cc.on_ack(200 * MSS, RTT, SimTime::ZERO);
        let before = cc.cwnd();
        cc.on_loss(SimTime::from_millis(10));
        let after_loss = cc.cwnd();
        assert!(after_loss < before);
        let mut now = SimTime::from_millis(10);
        for _ in 0..2000 {
            now += RTT;
            cc.on_ack(cc.cwnd(), RTT, now);
        }
        assert!(cc.cwnd() > before, "cubic failed to grow past w_max");
    }

    #[test]
    fn cubic_timeout_resets_to_one_mss() {
        let mut cc = CubicLite::new();
        cc.on_ack(100 * MSS, RTT, SimTime::ZERO);
        cc.on_timeout(SimTime::from_millis(5));
        assert_eq!(cc.cwnd(), MSS);
    }

    #[test]
    fn ledbat_grows_when_queue_below_target() {
        let mut cc = Ledbat::new();
        let w0 = cc.cwnd();
        // RTT equals base RTT: zero queuing delay, full gain.
        for _ in 0..50 {
            cc.on_ack(cc.cwnd(), RTT, SimTime::ZERO);
        }
        assert!(cc.cwnd() > w0);
    }

    #[test]
    fn ledbat_backs_off_above_target() {
        let mut cc = Ledbat::new();
        // Prime base RTT at 1 ms.
        cc.on_ack(MSS, SimDuration::from_millis(1), SimTime::ZERO);
        let grown = {
            for _ in 0..100 {
                cc.on_ack(cc.cwnd(), SimDuration::from_millis(1), SimTime::ZERO);
            }
            cc.cwnd()
        };
        // Queuing delay of 20 ms >> 5 ms target: window must shrink.
        for _ in 0..100 {
            cc.on_ack(cc.cwnd(), SimDuration::from_millis(21), SimTime::ZERO);
        }
        assert!(cc.cwnd() < grown / 2, "{} !< {}", cc.cwnd(), grown / 2);
        assert!(cc.cwnd() >= MSS);
    }

    #[test]
    fn ledbat_yields_faster_than_reno() {
        // Under identical standing queues, the scavenger must end with a
        // much smaller window than Reno — that's the §4.2(b) property.
        let mut reno = Reno::new();
        let mut led = Ledbat::new();
        led.on_ack(MSS, SimDuration::from_millis(1), SimTime::ZERO); // base
        for _ in 0..200 {
            // 15 ms standing queue, no loss.
            reno.on_ack(reno.cwnd(), SimDuration::from_millis(16), SimTime::ZERO);
            led.on_ack(led.cwnd(), SimDuration::from_millis(16), SimTime::ZERO);
        }
        assert!(
            led.cwnd() * 10 < reno.cwnd(),
            "led={} reno={}",
            led.cwnd(),
            reno.cwnd()
        );
    }

    #[test]
    fn tcplp_backs_off_on_delay_inflection() {
        let mut cc = TcpLp::new();
        let t = SimTime::ZERO;
        // Establish min and max.
        cc.on_ack(MSS, SimDuration::from_millis(1), t);
        cc.on_ack(MSS, SimDuration::from_millis(10), t); // max=10ms, congested already
        let w = cc.cwnd();
        // High delay again within inference -> minimal window.
        cc.on_ack(
            MSS,
            SimDuration::from_millis(10),
            t + SimDuration::from_millis(1),
        );
        assert_eq!(cc.cwnd(), MSS, "second indication should floor (w was {w})");
    }

    #[test]
    fn tcplp_grows_when_uncongested() {
        let mut cc = TcpLp::new();
        let w0 = cc.cwnd();
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            now += RTT;
            cc.on_ack(cc.cwnd(), RTT, now);
        }
        assert!(cc.cwnd() > w0);
    }

    #[test]
    fn algo_enum_builds_and_classifies() {
        for (algo, name) in [
            (CcAlgo::Reno, "reno"),
            (CcAlgo::Cubic, "cubic"),
            (CcAlgo::Ledbat, "ledbat"),
            (CcAlgo::TcpLp, "tcp-lp"),
        ] {
            assert_eq!(algo.build().name(), name);
        }
    }
}
