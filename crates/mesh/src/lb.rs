//! Load-balancing policies.
//!
//! §2 lists "load balancing between replicas" among core sidecar functions
//! and §3.4 calls out *adaptive replica selection* \[30] as a technique the
//! sidecar makes deployable. This module implements the standard Envoy
//! policies (round robin, random, least-request P2C, ring hash) plus a
//! latency-EWMA policy (linkerd's default, and the adaptive-selection
//! stand-in): score = latency EWMA × (outstanding + 1), pick the minimum.

use meshlayer_cluster::PodId;
use meshlayer_simcore::{Ewma, SimDuration, SimRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which policy a [`LoadBalancer`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LbPolicy {
    /// Cycle through endpoints.
    #[default]
    RoundRobin,
    /// Uniformly random endpoint.
    Random,
    /// Power-of-two-choices on outstanding request count.
    LeastRequest,
    /// Latency EWMA × (outstanding + 1), global minimum (linkerd-style).
    PeakEwma,
    /// Consistent hashing on a caller-provided key (session affinity).
    RingHash,
}

impl LbPolicy {
    /// Stable human-readable name (decision logs, capture formats).
    pub fn name(self) -> &'static str {
        match self {
            LbPolicy::RoundRobin => "round-robin",
            LbPolicy::Random => "random",
            LbPolicy::LeastRequest => "least-request",
            LbPolicy::PeakEwma => "peak-ewma",
            LbPolicy::RingHash => "ring-hash",
        }
    }
}

/// Per-endpoint signals the balancer needs from the caller.
pub struct PickCtx<'a> {
    /// Outstanding (in-flight) requests per endpoint, from the sidecar.
    pub outstanding: &'a dyn Fn(PodId) -> usize,
    /// Hash key for [`LbPolicy::RingHash`] (e.g. user id); `None` hashes 0.
    pub hash: Option<u64>,
}

/// A load balancer instance (one per upstream cluster per sidecar).
pub struct LoadBalancer {
    policy: LbPolicy,
    rr_next: usize,
    /// Latency EWMA per endpoint (PeakEwma).
    ewma: HashMap<PodId, Ewma>,
    /// Decay factor for new latency samples.
    ewma_alpha: f64,
    /// Virtual nodes per endpoint on the hash ring.
    ring_replicas: u32,
}

impl LoadBalancer {
    /// Create a balancer with the given policy.
    pub fn new(policy: LbPolicy) -> Self {
        LoadBalancer {
            policy,
            rr_next: 0,
            ewma: HashMap::new(),
            ewma_alpha: 0.3,
            ring_replicas: 16,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> LbPolicy {
        self.policy
    }

    /// Record a latency observation for an endpoint (feeds PeakEwma).
    pub fn observe(&mut self, pod: PodId, latency: SimDuration) {
        self.ewma
            .entry(pod)
            .or_insert_with(|| Ewma::new(self.ewma_alpha))
            .push(latency.as_secs_f64());
    }

    /// Choose an endpoint among `candidates`. Returns `None` iff empty.
    pub fn pick(
        &mut self,
        candidates: &[PodId],
        ctx: &PickCtx<'_>,
        rng: &mut SimRng,
    ) -> Option<PodId> {
        if candidates.is_empty() {
            return None;
        }
        if candidates.len() == 1 {
            return Some(candidates[0]);
        }
        Some(match self.policy {
            LbPolicy::RoundRobin => {
                let pick = candidates[self.rr_next % candidates.len()];
                self.rr_next = self.rr_next.wrapping_add(1);
                pick
            }
            LbPolicy::Random => *rng.choose(candidates).expect("non-empty"),
            LbPolicy::LeastRequest => {
                let a = *rng.choose(candidates).expect("non-empty");
                let b = *rng.choose(candidates).expect("non-empty");
                if (ctx.outstanding)(a) <= (ctx.outstanding)(b) {
                    a
                } else {
                    b
                }
            }
            LbPolicy::PeakEwma => *candidates
                .iter()
                .min_by(|&&a, &&b| {
                    let sa = self.score(a, ctx);
                    let sb = self.score(b, ctx);
                    sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty"),
            LbPolicy::RingHash => {
                let key = ctx.hash.unwrap_or(0);
                self.ring_lookup(candidates, key)
            }
        })
    }

    /// PeakEwma score: latency estimate × (outstanding + 1). Endpoints with
    /// no estimate yet get a tiny optimistic latency so they receive
    /// traffic and acquire one.
    fn score(&self, pod: PodId, ctx: &PickCtx<'_>) -> f64 {
        let lat = self.ewma.get(&pod).and_then(|e| e.get()).unwrap_or(1e-6);
        lat * ((ctx.outstanding)(pod) as f64 + 1.0)
    }

    /// Consistent-hash lookup: hash each (endpoint, vnode) onto a ring and
    /// take the first point clockwise of the key.
    fn ring_lookup(&self, candidates: &[PodId], key: u64) -> PodId {
        let key_point = splitmix(key);
        let mut best: Option<(u64, PodId)> = None; // (distance, pod)
        for &pod in candidates {
            for v in 0..self.ring_replicas {
                let point = splitmix(((pod.0 as u64) << 32) | v as u64);
                let dist = point.wrapping_sub(key_point);
                if best.is_none_or(|(d, _)| dist < d) {
                    best = Some((dist, pod));
                }
            }
        }
        best.expect("non-empty").1
    }
}

/// SplitMix64 — a well-distributed integer hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pods(n: u32) -> Vec<PodId> {
        (0..n).map(PodId).collect()
    }

    fn no_load() -> impl Fn(PodId) -> usize {
        |_| 0
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut lb = LoadBalancer::new(LbPolicy::RoundRobin);
        let f = no_load();
        let ctx = PickCtx {
            outstanding: &f,
            hash: None,
        };
        assert!(lb.pick(&[], &ctx, &mut SimRng::new(1)).is_none());
    }

    #[test]
    fn round_robin_cycles() {
        let mut lb = LoadBalancer::new(LbPolicy::RoundRobin);
        let cands = pods(3);
        let f = no_load();
        let ctx = PickCtx {
            outstanding: &f,
            hash: None,
        };
        let mut rng = SimRng::new(1);
        let picks: Vec<u32> = (0..6)
            .map(|_| lb.pick(&cands, &ctx, &mut rng).unwrap().0)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_covers_all_endpoints() {
        let mut lb = LoadBalancer::new(LbPolicy::Random);
        let cands = pods(4);
        let f = no_load();
        let ctx = PickCtx {
            outstanding: &f,
            hash: None,
        };
        let mut rng = SimRng::new(2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[lb.pick(&cands, &ctx, &mut rng).unwrap().0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn least_request_prefers_idle() {
        let mut lb = LoadBalancer::new(LbPolicy::LeastRequest);
        let cands = pods(2);
        // Pod 0 is heavily loaded.
        let load = |p: PodId| if p.0 == 0 { 100 } else { 0 };
        let ctx = PickCtx {
            outstanding: &load,
            hash: None,
        };
        let mut rng = SimRng::new(3);
        let to_idle = (0..200)
            .filter(|_| lb.pick(&cands, &ctx, &mut rng).unwrap().0 == 1)
            .count();
        // P2C with one loaded pod: idle pod wins whenever it is sampled,
        // i.e. ~75 % of the time.
        assert!(to_idle > 120, "idle pod picked only {to_idle}/200");
    }

    #[test]
    fn peak_ewma_avoids_slow_replica() {
        let mut lb = LoadBalancer::new(LbPolicy::PeakEwma);
        let cands = pods(2);
        for _ in 0..10 {
            lb.observe(PodId(0), SimDuration::from_millis(100)); // slow
            lb.observe(PodId(1), SimDuration::from_millis(1)); // fast
        }
        let f = no_load();
        let ctx = PickCtx {
            outstanding: &f,
            hash: None,
        };
        let mut rng = SimRng::new(4);
        for _ in 0..20 {
            assert_eq!(lb.pick(&cands, &ctx, &mut rng).unwrap(), PodId(1));
        }
        assert!(lb.ewma[&PodId(0)].get().unwrap() > lb.ewma[&PodId(1)].get().unwrap());
    }

    #[test]
    fn peak_ewma_inflight_penalty_spills_over() {
        let mut lb = LoadBalancer::new(LbPolicy::PeakEwma);
        let cands = pods(2);
        for _ in 0..10 {
            lb.observe(PodId(0), SimDuration::from_millis(1));
            lb.observe(PodId(1), SimDuration::from_millis(2));
        }
        // Pod 0 is 2x faster but has 9 outstanding: score 1*(9+1)=10 vs 2*1=2.
        let load = |p: PodId| if p.0 == 0 { 9 } else { 0 };
        let ctx = PickCtx {
            outstanding: &load,
            hash: None,
        };
        assert_eq!(
            lb.pick(&cands, &ctx, &mut SimRng::new(5)).unwrap(),
            PodId(1)
        );
    }

    #[test]
    fn unobserved_endpoint_gets_probed() {
        let mut lb = LoadBalancer::new(LbPolicy::PeakEwma);
        let cands = pods(2);
        lb.observe(PodId(0), SimDuration::from_millis(5));
        // Pod 1 has no estimate: optimistic scoring must route to it.
        let f = no_load();
        let ctx = PickCtx {
            outstanding: &f,
            hash: None,
        };
        assert_eq!(
            lb.pick(&cands, &ctx, &mut SimRng::new(6)).unwrap(),
            PodId(1)
        );
    }

    #[test]
    fn ring_hash_is_sticky() {
        let mut lb = LoadBalancer::new(LbPolicy::RingHash);
        let cands = pods(5);
        let f = no_load();
        let mut rng = SimRng::new(7);
        for key in [1u64, 42, 4096] {
            let ctx = PickCtx {
                outstanding: &f,
                hash: Some(key),
            };
            let first = lb.pick(&cands, &ctx, &mut rng).unwrap();
            for _ in 0..10 {
                assert_eq!(lb.pick(&cands, &ctx, &mut rng).unwrap(), first);
            }
        }
    }

    #[test]
    fn ring_hash_mostly_stable_under_membership_change() {
        let mut lb = LoadBalancer::new(LbPolicy::RingHash);
        let all = pods(10);
        let fewer = pods(9); // pod 9 removed
        let f = no_load();
        let mut rng = SimRng::new(8);
        let mut moved = 0;
        let n = 500;
        for key in 0..n {
            let ctx = PickCtx {
                outstanding: &f,
                hash: Some(key),
            };
            let a = lb.pick(&all, &ctx, &mut rng).unwrap();
            let b = lb.pick(&fewer, &ctx, &mut rng).unwrap();
            if a != b {
                moved += 1;
            }
        }
        // Consistent hashing: only ~1/10 of keys should move.
        assert!(moved < n / 4, "{moved}/{n} keys moved");
    }

    #[test]
    fn single_candidate_shortcut() {
        for policy in [
            LbPolicy::RoundRobin,
            LbPolicy::Random,
            LbPolicy::LeastRequest,
            LbPolicy::PeakEwma,
            LbPolicy::RingHash,
        ] {
            let mut lb = LoadBalancer::new(policy);
            let f = no_load();
            let ctx = PickCtx {
                outstanding: &f,
                hash: None,
            };
            assert_eq!(
                lb.pick(&[PodId(7)], &ctx, &mut SimRng::new(9)).unwrap(),
                PodId(7)
            );
        }
    }
}
