//! Weighted request-class mixes for production-scale load.
//!
//! Scale sweeps drive a fabric with one *total* offered rate split
//! across several request classes (interactive browse traffic, heavier
//! checkout calls, background analytics). [`weighted_mix`] turns a
//! total RPS plus per-class weights into one [`WorkloadSpec`] per class
//! with rates proportional to the weights, so a sweep can move a single
//! number from 10⁵ to 10⁶ RPS while holding the mix shape fixed.

use crate::generator::{Granularity, WorkloadSpec};
use meshlayer_simcore::Dist;

/// One class of a traffic mix.
#[derive(Clone, Debug)]
pub struct MixClass {
    /// Class (and workload) name; also the latency-summary label.
    pub name: String,
    /// Request path sent by this class.
    pub path: String,
    /// Relative weight (any positive scale; normalized over the mix).
    pub weight: f64,
    /// Constant request body size, bytes (0 for header-only requests).
    pub body_bytes: u64,
    /// Simulation granularity of the class.
    pub granularity: Granularity,
}

impl MixClass {
    /// A per-packet class with the given name, path and weight.
    pub fn new(name: impl Into<String>, path: impl Into<String>, weight: f64) -> MixClass {
        MixClass {
            name: name.into(),
            path: path.into(),
            weight,
            body_bytes: 0,
            granularity: Granularity::Packet,
        }
    }

    /// Builder: constant request body size in bytes.
    pub fn with_body_bytes(mut self, bytes: u64) -> MixClass {
        self.body_bytes = bytes;
        self
    }

    /// Builder: simulation granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> MixClass {
        self.granularity = granularity;
        self
    }
}

/// Split `total_rps` across `classes` proportionally to their weights.
///
/// Weights are normalized, so `[7.0, 2.0, 1.0]` and `[0.7, 0.2, 0.1]`
/// produce the same mix. Classes with non-positive weight are dropped.
///
/// # Panics
/// Panics if `total_rps` is not positive or no class has positive
/// weight.
pub fn weighted_mix(total_rps: f64, classes: &[MixClass]) -> Vec<WorkloadSpec> {
    assert!(total_rps > 0.0, "non-positive total rate");
    let total_w: f64 = classes.iter().map(|c| c.weight.max(0.0)).sum();
    assert!(total_w > 0.0, "no class with positive weight");
    classes
        .iter()
        .filter(|c| c.weight > 0.0)
        .map(|c| {
            WorkloadSpec::get(&c.name, &c.path, total_rps * c.weight / total_w)
                .with_body(Dist::constant(c.body_bytes as f64))
                .with_granularity(c.granularity)
        })
        .collect()
}

/// The standard scale-sweep mix: 70% interactive browse, 20% checkout,
/// 10% background analytics, all against the generated tree's `/op`
/// handler.
pub fn scale_mix(total_rps: f64) -> Vec<WorkloadSpec> {
    weighted_mix(
        total_rps,
        &[
            MixClass::new("browse", "/op", 0.7),
            MixClass::new("checkout", "/op", 0.2),
            MixClass::new("analytics", "/op", 0.1),
        ],
    )
}

/// Request body of one elephant bulk-ingest call, bytes. Big enough that
/// the class's load is dominated by bandwidth, small enough that the
/// aggregate demand stays below fabric link rates at 10⁵ total RPS.
pub const ELEPHANT_BODY_BYTES: u64 = 8 * 1024;

/// The background-heavy mix of the fluid-plane experiments: a small
/// per-packet foreground (10% browse + 5% checkout) under a dominant
/// background of 20% analytics and 65% elephant bulk ingest
/// ([`ELEPHANT_BODY_BYTES`] request bodies). With `fluid` set, the two
/// background classes run at [`Granularity::Fluid`] — same offered load,
/// but their streams become rate flows instead of per-packet traffic.
pub fn scale_mix_bg(total_rps: f64, fluid: bool) -> Vec<WorkloadSpec> {
    let g = if fluid {
        Granularity::Fluid
    } else {
        Granularity::Packet
    };
    weighted_mix(
        total_rps,
        &[
            MixClass::new("browse", "/op", 0.10),
            MixClass::new("checkout", "/op", 0.05),
            MixClass::new("analytics", "/op", 0.20).with_granularity(g),
            MixClass::new("elephant", "/op", 0.65)
                .with_body_bytes(ELEPHANT_BODY_BYTES)
                .with_granularity(g),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::OpenLoopGen;
    use meshlayer_simcore::{SimRng, SimTime};

    #[test]
    fn weights_normalize_and_split() {
        let specs = weighted_mix(
            100_000.0,
            &[
                MixClass::new("a", "/op", 7.0),
                MixClass::new("b", "/op", 2.0),
                MixClass::new("c", "/op", 1.0),
            ],
        );
        let rates: Vec<f64> = specs.iter().map(|s| s.arrival.rps).collect();
        assert_eq!(rates, vec![70_000.0, 20_000.0, 10_000.0]);
        let total: f64 = rates.iter().sum();
        assert!((total - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn bg_mix_marks_background_classes_fluid() {
        let specs = scale_mix_bg(100_000.0, true);
        let by_name = |n: &str| specs.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("browse").granularity, Granularity::Packet);
        assert_eq!(by_name("checkout").granularity, Granularity::Packet);
        assert_eq!(by_name("analytics").granularity, Granularity::Fluid);
        assert_eq!(by_name("elephant").granularity, Granularity::Fluid);
        assert_eq!(by_name("elephant").body.mean(), ELEPHANT_BODY_BYTES as f64);
        // Same classes, rates and bodies either way; only granularity flips.
        let packet = scale_mix_bg(100_000.0, false);
        for (a, b) in specs.iter().zip(packet.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.arrival.rps, b.arrival.rps);
            assert_eq!(a.body.mean(), b.body.mean());
            assert_eq!(b.granularity, Granularity::Packet);
        }
        let total: f64 = specs.iter().map(|s| s.arrival.rps).sum();
        assert!((total - 100_000.0).abs() < 1e-6);
        // The offered byte rate the fluid solver will see: elephant
        // dominates (65k rps × ~8 KiB ≈ 4.3 Gbps).
        let bps = by_name("elephant").offered_bps(66);
        assert!((4.2e9..4.4e9).contains(&(bps as f64)), "elephant {bps} bps");
    }

    #[test]
    fn zero_weight_classes_dropped() {
        let specs = weighted_mix(
            1000.0,
            &[
                MixClass::new("a", "/op", 1.0),
                MixClass::new("dead", "/op", 0.0),
            ],
        );
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name, "a");
    }

    /// The tentpole's load axis: at 10⁶ RPS the mean inter-arrival gap
    /// is 1000 ns, so the generator must keep sub-microsecond
    /// precision. Run one simulated second of the whole mix and check
    /// the aggregate emitted count lands within 0.1% of the 10⁶
    /// offered (per-class counts carry ~0.2% statistical noise at this
    /// horizon; a nanosecond-rounding bias would blow the aggregate
    /// bound immediately), with non-decreasing arrival times
    /// throughout.
    #[test]
    fn million_rps_open_loop_precision() {
        let mut total = 0.0f64;
        for (i, spec) in scale_mix(1_000_000.0).into_iter().enumerate() {
            let offered = spec.arrival.rps;
            let mut g = OpenLoopGen::new(spec, SimTime::ZERO, SimRng::new(42 + i as u64));
            let end = SimTime::from_secs(1);
            let mut prev = SimTime::ZERO;
            while g.next_at() < end {
                let at = g.next_at();
                assert!(at >= prev, "arrival times must be monotonic");
                prev = at;
                let r = g.emit();
                assert_eq!(r.intended_at, at);
            }
            let emitted = g.emitted() as f64;
            let err = (emitted - offered).abs() / offered;
            assert!(
                err < 5e-3,
                "offered {offered} rps but emitted {emitted} (err {err:.4})"
            );
            total += emitted;
        }
        let err = (total - 1_000_000.0).abs() / 1_000_000.0;
        assert!(
            err < 1e-3,
            "mix emitted {total} of 1e6 offered (err {err:.4})"
        );
    }

    /// Gap quantization: 10⁶ RPS uniform-random gaps fall in
    /// `[0, 2000)` ns; every nanosecond-rounded gap must stay in range
    /// and the running clock must stay far from u64 overflow over a
    /// long horizon.
    #[test]
    fn million_rps_gaps_keep_nanosecond_resolution() {
        let spec = crate::generator::WorkloadSpec::get("hot", "/op", 1_000_000.0);
        let mut g = OpenLoopGen::new(spec, SimTime::ZERO, SimRng::new(7));
        let mut last = SimTime::ZERO;
        let mut sub_us_gaps = 0u64;
        for _ in 0..100_000 {
            let at = g.next_at();
            let gap = at.as_nanos() - last.as_nanos();
            // Gaps are drawn from [0, 2000) ns and rounded to the
            // nearest nanosecond, so 2000 itself is reachable.
            assert!(gap <= 2_000, "uniform gap out of range: {gap} ns");
            if gap < 1_000 {
                sub_us_gaps += 1;
            }
            last = at;
            g.emit();
        }
        // Roughly half the gaps are sub-microsecond; if rounding
        // collapsed them the distribution (and the offered rate) would
        // skew.
        assert!(sub_us_gaps > 40_000, "only {sub_us_gaps} sub-µs gaps");
        // 10⁵ arrivals at ~1 µs each ≈ 0.1 s of sim time: nowhere near
        // the ~584-year u64 nanosecond horizon.
        assert!(last.as_nanos() < u64::MAX / 1_000_000);
    }
}
