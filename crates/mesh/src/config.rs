//! Mesh configuration.
//!
//! The control plane "offers the administrator a centralized location for
//! defining configuration which is then pushed to the individual data
//! plane elements" (§2). [`MeshConfig`] is that configuration: routing
//! rules, per-upstream traffic policies, tracing, and the proxy's own
//! cost model.

use crate::lb::LbPolicy;
use crate::resilience::{BreakerConfig, OutlierConfig, RetryPolicy};
use crate::tracing::Sampling;
use meshlayer_http::RouteTable;
use meshlayer_simcore::{Dist, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Traffic policy for one upstream cluster (Envoy cluster config analogue).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterPolicy {
    /// Load-balancing policy.
    pub lb: LbPolicy,
    /// Retry policy.
    pub retry: RetryPolicy,
    /// Overall request timeout (sidecar returns 504 past this).
    pub timeout: SimDuration,
    /// Per-attempt timeout (a retry may fire before `timeout`).
    pub per_try_timeout: SimDuration,
    /// Circuit breaking.
    pub breaker: BreakerConfig,
    /// Outlier ejection.
    pub outlier: OutlierConfig,
    /// Request hedging (§3.4's "issuing redundant requests"): if set, a
    /// duplicate attempt is sent to another replica when the first has not
    /// answered within this delay; the first response wins.
    pub hedge_after: Option<SimDuration>,
}

impl Default for ClusterPolicy {
    fn default() -> Self {
        ClusterPolicy {
            lb: LbPolicy::RoundRobin,
            retry: RetryPolicy::default(),
            timeout: SimDuration::from_secs(15),
            per_try_timeout: SimDuration::from_secs(5),
            breaker: BreakerConfig::default(),
            outlier: OutlierConfig::default(),
            hedge_after: None,
        }
    }
}

/// The whole mesh's configuration, versioned and pushed by the control
/// plane.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Virtual-service routing rules (first match wins).
    pub routes: RouteTable,
    /// Default upstream policy.
    pub default_policy: ClusterPolicy,
    /// Per-cluster overrides.
    pub cluster_policies: HashMap<String, ClusterPolicy>,
    /// Trace sampling strategy.
    pub sampling: Sampling,
    /// Per-hop sidecar processing overhead (seconds). Istio reports about
    /// 3 ms added at p99 by the two sidecars on a request path (§3.6); the
    /// default lognormal reproduces that order of magnitude.
    pub proxy_overhead: Dist,
    /// Whether sidecar-to-sidecar traffic is mTLS-encrypted; adds
    /// `mtls_overhead` per hop and certificate management at the control
    /// plane.
    pub mtls: bool,
    /// Extra per-hop latency when mTLS is on.
    pub mtls_overhead: Dist,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            routes: RouteTable::new(),
            default_policy: ClusterPolicy::default(),
            cluster_policies: HashMap::new(),
            sampling: Sampling::Always,
            // Lognormal with 0.4 ms mean and a heavy-ish tail: two of these
            // per hop lands p99 in the low milliseconds, matching Istio's
            // published overhead numbers.
            proxy_overhead: Dist::lognormal(0.0004, 0.8),
            mtls: false,
            mtls_overhead: Dist::lognormal(0.0001, 0.5),
        }
    }
}

impl MeshConfig {
    /// The policy for `cluster` (override or default).
    pub fn policy(&self, cluster: &str) -> &ClusterPolicy {
        self.cluster_policies
            .get(cluster)
            .unwrap_or(&self.default_policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_lookup_falls_back_to_default() {
        let mut cfg = MeshConfig::default();
        assert_eq!(cfg.policy("anything").lb, LbPolicy::RoundRobin);
        cfg.cluster_policies.insert(
            "reviews".into(),
            ClusterPolicy {
                lb: LbPolicy::PeakEwma,
                ..ClusterPolicy::default()
            },
        );
        assert_eq!(cfg.policy("reviews").lb, LbPolicy::PeakEwma);
        assert_eq!(cfg.policy("details").lb, LbPolicy::RoundRobin);
    }

    #[test]
    fn default_overhead_is_sub_millisecond_mean() {
        let cfg = MeshConfig::default();
        assert!(cfg.proxy_overhead.mean() < 0.001);
        assert!(cfg.proxy_overhead.mean() > 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = MeshConfig::default();
        let s = serde_json::to_string(&cfg).unwrap();
        let back: MeshConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(back.mtls, cfg.mtls);
        assert_eq!(back.default_policy.lb, cfg.default_policy.lb);
    }
}
