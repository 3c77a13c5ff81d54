//! Runtime policy-plane handlers: the in-sim push/ack protocol.
//!
//! A [`super::Ev::PolicyPush`] renders the snapshot's mesh config, bumps
//! the xDS config version, and fans out one [`super::Ev::PolicyApply`]
//! per sidecar (with deterministic per-pod jitter, modelling staggered
//! xDS convergence) plus one per fleet-wide layer. Each apply goes
//! through the layer's [`ApplyPolicy`] implementation, is recorded as a
//! flight-recorder `policy-apply` decision frame, and acks back to the
//! [`crate::PolicyPlane`]; the version is *converged* once every ack is
//! in.

use super::{Ev, Simulation};
use crate::policy::{ApplyPolicy, FabricPrioSurface, HostTcSurface, PolicyCtx, PolicyLayer};
use crate::provenance::Priority;
use meshlayer_cluster::PodId;
use meshlayer_simcore::{SimDuration, SimTime};

/// Base propagation delay for a policy push: each layer applies this
/// long after the push (sidecars add deterministic per-pod jitter on
/// top, xDS-style staggered convergence).
const POLICY_PUSH_DELAY: SimDuration = SimDuration::from_millis(10);

/// `pod` operand of a fleet-wide (non-sidecar) apply event.
pub(crate) const FLEET_POD: u32 = u32::MAX;

impl Simulation {
    /// The control plane starts pushing `version`.
    pub(crate) fn on_policy_push(&mut self, version: u64, now: SimTime) {
        let Some(snap) = self.policy.snapshot(version).cloned() else {
            return;
        };
        // Render the route table for this snapshot from the base routes
        // and publish it — sidecars pick the new config version up in
        // their apply events.
        let mut routes = self.base_routes.clone();
        {
            let mut ctx = PolicyCtx {
                cluster: Some(&self.cluster),
                now,
                mesh: None,
                base_routes: Some(&self.base_routes),
            };
            routes.apply_policy(&snap, &mut ctx);
        }
        self.control.configure(|c| c.routes = routes);

        let pods: Vec<PodId> = self.sidecars.iter().map(|(pid, _)| pid).collect();
        self.policy
            .begin_push(version, pods.len() + PolicyLayer::GLOBAL.len());

        let jitter_span = (POLICY_PUSH_DELAY.as_nanos() / 2).max(1);
        for pod in pods {
            let jitter = SimDuration::from_nanos(self.rng.u64() % jitter_span);
            self.push_ev(
                now + POLICY_PUSH_DELAY + jitter,
                Ev::PolicyApply {
                    version,
                    layer: PolicyLayer::Mesh.code(),
                    pod: pod.0,
                },
            );
        }
        for layer in PolicyLayer::GLOBAL {
            self.push_ev(
                now + POLICY_PUSH_DELAY,
                Ev::PolicyApply {
                    version,
                    layer: layer.code(),
                    pod: FLEET_POD,
                },
            );
        }
    }

    /// One layer applies `version` at simulated time `now`.
    pub(crate) fn on_policy_apply(&mut self, version: u64, layer: u8, pod: u32, now: SimTime) {
        let Some(layer) = PolicyLayer::from_code(layer) else {
            return;
        };
        let Some(snap) = self.policy.snapshot(version).cloned() else {
            return;
        };
        let (who, detail) = match layer {
            PolicyLayer::Mesh => {
                let pid = PodId(pod);
                let known = match self.sidecars.get(pid) {
                    Some(sc) => sc.config_version(),
                    None => return,
                };
                let sync = self.control.sync(known);
                let sc = self.sidecars.get_mut(pid).expect("sidecar exists");
                let mut ctx = PolicyCtx {
                    cluster: Some(&self.cluster),
                    now,
                    mesh: sync.as_ref().map(|(v, c)| (*v, c)),
                    base_routes: None,
                };
                let detail = sc.apply_policy(&snap, &mut ctx);
                let name = sc.name().to_string();
                // Ingress-resident toggles go live when the ingress
                // sidecar converges: classification, subset routing and
                // congestion-aware endpoint selection all act there.
                if pid == self.ingress_pod {
                    self.live.classify = snap.xlayer.classify;
                    self.live.mesh_subset_routing = snap.xlayer.mesh_subset_routing;
                    self.live.sdn_lb = snap.xlayer.sdn_lb;
                    if self.live.sdn_lb && !self.sdn_armed {
                        self.sdn_armed = true;
                        let t = now + super::engine::SDN_TICK;
                        if t < self.end_at {
                            self.push_ev(t, Ev::SdnTick);
                        }
                    }
                }
                (name, detail)
            }
            PolicyLayer::Transport => {
                self.live.scavenger_batch = snap.xlayer.scavenger_batch;
                self.live.scavenger_algo = snap.xlayer.scavenger_algo;
                self.live.dscp_tagging = snap.xlayer.dscp_tagging;
                let default_cc = self.spec.config.default_cc;
                let mut reprofiled = 0usize;
                for pair in self.conns.iter_mut() {
                    let prio = if pair.class == 0 {
                        Priority::High
                    } else {
                        Priority::Low
                    };
                    let (_, dscp, cc) = self.live.transport_class(prio, default_cc);
                    pair.a.set_profile(dscp, cc);
                    pair.b.set_profile(dscp, cc);
                    reprofiled += 1;
                }
                (
                    "control-plane".to_string(),
                    format!(
                        "reprofiled_conns={reprofiled} dscp_tagging={} scavenger_batch={}",
                        self.live.dscp_tagging, self.live.scavenger_batch
                    ),
                )
            }
            PolicyLayer::HostTc => {
                self.live.host_tc = snap.xlayer.host_tc;
                let mut ctx = PolicyCtx {
                    cluster: Some(&self.cluster),
                    now,
                    mesh: None,
                    base_routes: None,
                };
                let detail = HostTcSurface(&mut self.fabric).apply_policy(&snap, &mut ctx);
                ("control-plane".to_string(), detail)
            }
            PolicyLayer::Fabric => {
                self.live.net_prio = snap.xlayer.net_prio;
                let mut ctx = PolicyCtx {
                    cluster: Some(&self.cluster),
                    now,
                    mesh: None,
                    base_routes: None,
                };
                let detail = FabricPrioSurface(&mut self.fabric).apply_policy(&snap, &mut ctx);
                ("control-plane".to_string(), detail)
            }
            PolicyLayer::Compute => {
                self.live.compute_prio = snap.xlayer.compute_prio;
                let mut ctx = PolicyCtx {
                    cluster: None,
                    now,
                    mesh: None,
                    base_routes: None,
                };
                let detail = self.cluster.apply_policy(&snap, &mut ctx);
                ("control-plane".to_string(), detail)
            }
        };
        if let Some(fr) = self.flight_rec() {
            fr.record_policy_apply(&who, now, version, layer.label(), &detail);
        }
        self.policy.ack(version, now);
    }
}
