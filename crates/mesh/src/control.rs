//! The control plane.
//!
//! Fig 1's boxes, as code: configuration management (versioned
//! [`MeshConfig`] snapshots pulled by sidecars, xDS-style), certificate
//! management (a toy CA issuing per-pod workload certificates with
//! rotation). Sidecar counters are scraped by the telemetry hub, not
//! reported here. Service discovery itself lives in
//! [`meshlayer_cluster::Cluster::endpoints`]; the control plane fronts it
//! in the simulation driver.

use crate::config::MeshConfig;
use meshlayer_cluster::PodId;
use meshlayer_simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// A per-pod workload certificate (SPIFFE-flavoured).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadCert {
    /// Identity, e.g. `spiffe://mesh/ns/default/sa/reviews`.
    pub spiffe_id: String,
    /// Monotonic serial number.
    pub serial: u64,
    /// Issuance time.
    pub issued_at: SimTime,
    /// Expiry time.
    pub expires_at: SimTime,
}

impl WorkloadCert {
    /// Whether the cert is valid at `now`.
    pub fn valid_at(&self, now: SimTime) -> bool {
        now >= self.issued_at && now < self.expires_at
    }
}

/// The mesh control plane.
pub struct ControlPlane {
    config: MeshConfig,
    version: u64,
    next_serial: u64,
    cert_ttl: SimDuration,
    certs: HashMap<PodId, WorkloadCert>,
}

impl ControlPlane {
    /// Start a control plane with an initial configuration (version 1).
    pub fn new(config: MeshConfig) -> Self {
        ControlPlane {
            config,
            version: 1,
            next_serial: 1,
            cert_ttl: SimDuration::from_secs(24 * 3600),
            certs: HashMap::new(),
        }
    }

    /// Current config version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Read the current configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Mutate the configuration; bumps the version so sidecars re-sync.
    pub fn configure(&mut self, f: impl FnOnce(&mut MeshConfig)) -> u64 {
        f(&mut self.config);
        self.version += 1;
        self.version
    }

    /// A sidecar at `known_version` pulls config: `Some((version, config))`
    /// if newer config exists (xDS-style delta check), else `None`.
    pub fn sync(&self, known_version: u64) -> Option<(u64, MeshConfig)> {
        (self.version > known_version).then(|| (self.version, self.config.clone()))
    }

    /// Issue (or rotate) the certificate for a pod.
    pub fn issue_cert(&mut self, pod: PodId, service: &str, now: SimTime) -> WorkloadCert {
        let cert = WorkloadCert {
            spiffe_id: format!("spiffe://mesh/ns/default/sa/{service}"),
            serial: self.next_serial,
            issued_at: now,
            expires_at: now + self.cert_ttl,
        };
        self.next_serial += 1;
        self.certs.insert(pod, cert.clone());
        cert
    }

    /// The currently issued certificate for a pod.
    pub fn cert(&self, pod: PodId) -> Option<&WorkloadCert> {
        self.certs.get(&pod)
    }

    /// Rotate every certificate expiring within `horizon` of `now`;
    /// returns how many were rotated.
    pub fn rotate_expiring(&mut self, now: SimTime, horizon: SimDuration) -> usize {
        let expiring: Vec<(PodId, String)> = self
            .certs
            .iter()
            .filter(|(_, c)| c.expires_at <= now + horizon)
            .map(|(&p, c)| {
                let service = c
                    .spiffe_id
                    .rsplit('/')
                    .next()
                    .unwrap_or_default()
                    .to_string();
                (p, service)
            })
            .collect();
        let n = expiring.len();
        for (pod, service) in expiring {
            self.issue_cert(pod, &service, now);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::LbPolicy;

    #[test]
    fn config_versioning_and_sync() {
        let mut cp = ControlPlane::new(MeshConfig::default());
        assert_eq!(cp.version(), 1);
        assert!(cp.sync(1).is_none(), "up to date");
        let v = cp.configure(|c| c.default_policy.lb = LbPolicy::PeakEwma);
        assert_eq!(v, 2);
        let (v2, cfg) = cp.sync(1).expect("newer config");
        assert_eq!(v2, 2);
        assert_eq!(cfg.default_policy.lb, LbPolicy::PeakEwma);
        assert!(cp.sync(2).is_none());
    }

    #[test]
    fn cert_issue_and_validity() {
        let mut cp = ControlPlane::new(MeshConfig::default());
        let t0 = SimTime::from_secs(100);
        let cert = cp.issue_cert(PodId(0), "reviews", t0);
        assert_eq!(cert.spiffe_id, "spiffe://mesh/ns/default/sa/reviews");
        assert!(cert.valid_at(t0));
        assert!(cert.valid_at(t0 + SimDuration::from_secs(3600)));
        assert!(!cert.valid_at(t0 + SimDuration::from_secs(25 * 3600)));
        assert!(!cert.valid_at(SimTime::ZERO), "not valid before issuance");
        assert_eq!(cp.cert(PodId(0)), Some(&cert));
        assert!(cp.cert(PodId(9)).is_none());
    }

    #[test]
    fn serials_increase_on_rotation() {
        let mut cp = ControlPlane::new(MeshConfig::default());
        let a = cp.issue_cert(PodId(0), "svc", SimTime::ZERO);
        let b = cp.issue_cert(PodId(0), "svc", SimTime::from_secs(1));
        assert!(b.serial > a.serial);
        assert_eq!(cp.cert(PodId(0)).unwrap().serial, b.serial);
    }

    #[test]
    fn rotate_expiring_only_rotates_near_expiry() {
        let mut cp = ControlPlane::new(MeshConfig::default());
        cp.issue_cert(PodId(0), "a", SimTime::ZERO);
        cp.issue_cert(PodId(1), "b", SimTime::from_secs(20 * 3600));
        // At t = 23h, pod 0's cert (exp 24h) is within a 2h horizon;
        // pod 1's (exp 44h) is not.
        let rotated = cp.rotate_expiring(
            SimTime::from_secs(23 * 3600),
            SimDuration::from_secs(2 * 3600),
        );
        assert_eq!(rotated, 1);
        assert!(cp
            .cert(PodId(0))
            .unwrap()
            .valid_at(SimTime::from_secs(30 * 3600)));
    }

    #[test]
    fn valid_at_expiry_boundary_is_exclusive() {
        let mut cp = ControlPlane::new(MeshConfig::default());
        let t0 = SimTime::from_secs(10);
        let cert = cp.issue_cert(PodId(0), "svc", t0);
        // Issuance is inclusive, expiry is exclusive: a cert presented at
        // exactly `expires_at` must be rejected (TLS notAfter semantics),
        // one nanosecond earlier must pass.
        assert!(cert.valid_at(cert.issued_at));
        assert!(cert.valid_at(SimTime::from_nanos(cert.expires_at.as_nanos() - 1)));
        assert!(!cert.valid_at(cert.expires_at));
    }

    #[test]
    fn serials_stay_monotonic_across_bulk_rotation() {
        let mut cp = ControlPlane::new(MeshConfig::default());
        let mut seen = Vec::new();
        for pod in 0..3 {
            seen.push(cp.issue_cert(PodId(pod), "svc", SimTime::ZERO).serial);
        }
        // Two rotation sweeps that each renew the whole fleet.
        for round in 1..=2u64 {
            let now = SimTime::from_secs(round * 23 * 3600);
            let rotated = cp.rotate_expiring(now, SimDuration::from_secs(2 * 3600));
            assert_eq!(rotated, 3, "round {round} renews every cert");
            for pod in 0..3 {
                seen.push(cp.cert(PodId(pod)).unwrap().serial);
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "no serial reuse: {seen:?}");
        // Each sweep's serials are strictly above every earlier one.
        for (i, w) in seen.chunks(3).enumerate().skip(1) {
            let prev_max = seen[..i * 3].iter().max().unwrap();
            assert!(w.iter().all(|s| s > prev_max), "{seen:?}");
        }
    }
}
