//! Open-loop request generators.

use crate::arrival::Arrival;
use meshlayer_http::{HeaderMap, Method, Request};
use meshlayer_simcore::{Dist, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// How the engine simulates a workload's traffic.
///
/// Per-packet simulation models every request, hop and queue occupancy
/// individually — the right tool for the foreground classes the paper's
/// §4 mechanisms act on. Background/elephant classes only matter through
/// the *aggregate* bandwidth they impose, so simulating their packets is
/// pure event-count overhead; declaring them [`Granularity::Fluid`]
/// collapses the stream into deterministic piecewise-constant rate flows
/// that reserve link capacity in bulk (see `meshlayer-core`'s
/// `sim/fluid.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// Every request is generated, routed and transmitted packet by
    /// packet (the default).
    #[default]
    Packet,
    /// The request stream becomes rate flows (src→dst, bytes/sec) that
    /// consume link capacity inside the qdisc model; no per-request
    /// packets are simulated.
    Fluid,
}

/// Declarative description of one workload hitting the ingress gateway.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name (also the measurement class label).
    pub name: String,
    /// Arrival process.
    pub arrival: Arrival,
    /// Target authority (the ingress routes on it).
    pub authority: String,
    /// Request path (selects the app behaviour, e.g. `/product` vs
    /// `/analytics`).
    pub path: String,
    /// HTTP method.
    pub method: Method,
    /// Request body size (bytes).
    pub body: Dist,
    /// Headers stamped on every request (e.g. nothing — the paper's
    /// classification happens *at the ingress*, not at the client).
    pub headers: Vec<(String, String)>,
    /// Simulation granularity of this class's traffic.
    pub granularity: Granularity,
}

impl WorkloadSpec {
    /// A GET workload named `name` at `rps` requests/second (uniform
    /// random arrivals, as in the paper).
    pub fn get(name: impl Into<String>, path: impl Into<String>, rps: f64) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            arrival: Arrival { rps },
            authority: "frontend".into(),
            path: path.into(),
            method: Method::Get,
            body: Dist::constant(0.0),
            headers: Vec::new(),
            granularity: Granularity::Packet,
        }
    }

    /// Builder: change the arrival rate.
    pub fn with_rps(mut self, rps: f64) -> Self {
        self.arrival.rps = rps;
        self
    }

    /// Builder: target authority.
    pub fn with_authority(mut self, authority: impl Into<String>) -> Self {
        self.authority = authority.into();
        self
    }

    /// Builder: stamp a header on every request.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Builder: request body size distribution.
    pub fn with_body(mut self, body: Dist) -> Self {
        self.body = body;
        self
    }

    /// Builder: simulation granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// The class's offered byte rate in bits/second: arrival rate × mean
    /// request wire size (body plus `overhead_bytes` of per-request
    /// framing). This is the demand a [`Granularity::Fluid`] class
    /// presents to the fluid solver.
    pub fn offered_bps(&self, overhead_bytes: u64) -> u64 {
        let bytes = self.body.mean().max(0.0) + overhead_bytes as f64;
        (self.arrival.rps * bytes * 8.0).round() as u64
    }
}

/// A generated request with its open-loop metadata.
#[derive(Clone, Debug)]
pub struct GenRequest {
    /// The request to inject at the ingress.
    pub request: Request,
    /// The *intended* send time (latency is measured from here, avoiding
    /// coordinated omission).
    pub intended_at: SimTime,
    /// Generator-scoped sequence number.
    pub seq: u64,
    /// The workload (class) name.
    pub class: String,
}

/// The open-loop generator: arrivals are scheduled from the arrival
/// process alone, never gated on responses (wrk2's constant-throughput
/// mode).
pub struct OpenLoopGen {
    spec: WorkloadSpec,
    rng: SimRng,
    next_at: SimTime,
    seq: u64,
}

impl OpenLoopGen {
    /// Create a generator; the first arrival is one gap after `start`.
    pub fn new(spec: WorkloadSpec, start: SimTime, mut rng: SimRng) -> Self {
        let first_gap = spec.arrival.next_gap(&mut rng);
        OpenLoopGen {
            spec,
            rng,
            next_at: start + first_gap,
            seq: 0,
        }
    }

    /// The workload spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Time of the next arrival.
    pub fn next_at(&self) -> SimTime {
        self.next_at
    }

    /// Emit the request due now and schedule the next arrival.
    pub fn emit(&mut self) -> GenRequest {
        let at = self.next_at;
        let mut headers = HeaderMap::new();
        for (n, v) in &self.spec.headers {
            headers.set(n, v.clone());
        }
        let request = Request {
            method: self.spec.method,
            path: self.spec.path.clone(),
            authority: self.spec.authority.clone(),
            headers,
            body_len: self.spec.body.sample_bytes(&mut self.rng),
        };
        let gr = GenRequest {
            request,
            intended_at: at,
            seq: self.seq,
            class: self.spec.name.clone(),
        };
        self.seq += 1;
        self.next_at = at + self.spec.arrival.next_gap(&mut self.rng);
        gr
    }

    /// Total requests emitted.
    pub fn emitted(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(rps: f64) -> OpenLoopGen {
        OpenLoopGen::new(
            WorkloadSpec::get("latency-sensitive", "/product", rps),
            SimTime::ZERO,
            SimRng::new(7),
        )
    }

    #[test]
    fn emits_at_roughly_target_rate() {
        let mut g = gen(50.0);
        let end = SimTime::from_secs(10);
        let mut n = 0;
        while g.next_at() < end {
            g.emit();
            n += 1;
        }
        // 500 expected; uniform arrivals give tight concentration.
        assert!((450..550).contains(&n), "emitted {n}");
        assert_eq!(g.emitted(), n);
    }

    #[test]
    fn intended_times_are_monotone_nondecreasing() {
        let mut g = gen(100.0);
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let r = g.emit();
            assert!(r.intended_at >= last);
            last = r.intended_at;
        }
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut g = gen(10.0);
        assert_eq!(g.emit().seq, 0);
        assert_eq!(g.emit().seq, 1);
        assert_eq!(g.emit().seq, 2);
    }

    #[test]
    fn requests_carry_spec_shape() {
        let spec = WorkloadSpec::get("batch-analytics", "/analytics", 5.0)
            .with_authority("frontend")
            .with_header("x-batch", "1");
        let mut g = OpenLoopGen::new(spec, SimTime::ZERO, SimRng::new(1));
        let r = g.emit();
        assert_eq!(r.class, "batch-analytics");
        assert_eq!(r.request.path, "/analytics");
        assert_eq!(r.request.authority, "frontend");
        assert_eq!(r.request.headers.get("x-batch"), Some("1"));
        assert_eq!(r.request.method, Method::Get);
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = gen(25.0);
        let mut b = gen(25.0);
        for _ in 0..100 {
            let (x, y) = (a.emit(), b.emit());
            assert_eq!(x.intended_at, y.intended_at);
            assert_eq!(x.request.body_len, y.request.body_len);
        }
    }

    #[test]
    fn with_rps_builder_changes_rate_only() {
        let s = WorkloadSpec::get("w", "/p", 10.0).with_rps(40.0);
        assert_eq!(s.arrival.rps, 40.0);
        assert_eq!(s.path, "/p");
    }
}
