//! Runtime policy-plane handlers: the in-sim push/ack protocol.
//!
//! A [`super::Ev::PolicyPush`] renders the snapshot's mesh config, bumps
//! the xDS config version, and fans out one [`super::Ev::PolicyApply`]
//! per sidecar (with deterministic per-pod jitter, modelling staggered
//! xDS convergence) plus one per fleet-wide layer. Each apply calls the
//! layer's function in [`crate::xlayer`], is recorded as a
//! flight-recorder `policy-apply` decision frame, and acks back to the
//! [`crate::PolicyPlane`]; the version is *converged* once every ack is
//! in.
//!
//! [`PolicyRt`] owns the policy plane's state.

use super::{Ev, SimSpec, Simulation};
use crate::policy::{AdaptationController, PolicyLayer, PolicyPlane};
use crate::provenance::Priority;
use crate::xlayer::{self, XLayerConfig};
use meshlayer_cluster::PodId;
use meshlayer_http::RouteTable;
use meshlayer_simcore::{SimDuration, SimTime};

/// Base propagation delay for a policy push: each layer applies this
/// long after the push (sidecars add deterministic per-pod jitter on
/// top, xDS-style staggered convergence).
const POLICY_PUSH_DELAY: SimDuration = SimDuration::from_millis(10);

/// `pod` operand of a fleet-wide (non-sidecar) apply event.
pub(crate) const FLEET_POD: u32 = u32::MAX;

/// The policy plane's runtime state.
pub(crate) struct PolicyRt {
    /// The *live* cross-layer configuration: starts as policy v1 and
    /// changes only through policy-apply events. Hot paths read this,
    /// never `spec.xlayer`.
    pub live: XLayerConfig,
    /// Passthrough routes as built, before any priority rules — the base
    /// every route rebuild starts from.
    pub base_routes: RouteTable,
    /// Versioned policy history + push/ack state.
    pub plane: PolicyPlane,
    /// Closed-loop adaptation controller, when configured.
    pub adapt: Option<AdaptationController>,
    /// Whether the SdnTick chain is running (see [`Simulation::arm_sdn`]).
    sdn_armed: bool,
}

impl PolicyRt {
    /// Policy v1 of `spec`, over the passthrough `base_routes`.
    pub fn new(spec: &SimSpec, base_routes: RouteTable) -> PolicyRt {
        PolicyRt {
            live: spec.xlayer,
            base_routes,
            plane: PolicyPlane::new(
                spec.xlayer,
                xlayer::HIGH_PRIO_SHARE,
                spec.network.queue_pkts,
            ),
            adapt: spec.adaptation.clone().map(AdaptationController::new),
            sdn_armed: false,
        }
    }
}

impl Simulation {
    /// Start the SdnTick chain one tick after `now` if the live policy
    /// turns congestion-aware endpoint selection on and the chain is not
    /// running yet. Called when the run starts and when a policy reaches
    /// the ingress.
    pub(crate) fn arm_sdn(&mut self, now: SimTime) {
        if !self.policy.live.sdn_lb || self.policy.sdn_armed {
            return;
        }
        self.policy.sdn_armed = true;
        let t = now + super::engine::SDN_TICK;
        if t < self.end_at {
            self.push_ev(t, Ev::SdnTick);
        }
    }

    /// The control plane starts pushing `version`.
    pub(crate) fn on_policy_push(&mut self, version: u64, now: SimTime) {
        let Some(snap) = self.policy.plane.snapshot(version).cloned() else {
            return;
        };
        // Render the route table for this snapshot from the base routes
        // and publish it — sidecars pick the new config version up in
        // their apply events.
        let routes = xlayer::apply_routes(&self.policy.base_routes, &self.cluster, &snap);
        self.control.configure(|c| c.routes = routes);

        let pods: Vec<PodId> = self.sidecars.iter().map(|(pid, _)| pid).collect();
        self.policy
            .plane
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
        let Some(snap) = self.policy.plane.snapshot(version).cloned() else {
            return;
        };
        let (who, detail) = match layer {
            PolicyLayer::Mesh => {
                let pid = PodId(pod);
                let known = match self.sidecars.get(pid) {
                    Some(sc) => sc.config_version(),
                    None => return,
                };
                // xDS-style pull: adopt the control plane's rendered config
                // if it is newer. Upstream state (EWMA, breakers) is kept.
                let sync = self.control.sync(known);
                let sc = self.sidecars.get_mut(pid).expect("sidecar exists");
                let detail = match sync {
                    Some((v, cfg)) => {
                        sc.apply_config(v, cfg);
                        format!("mesh_config_version={}", sc.config_version())
                    }
                    None => format!(
                        "already-current mesh_config_version={}",
                        sc.config_version()
                    ),
                };
                let name = sc.name().to_string();
                // Ingress-resident toggles go live when the ingress
                // sidecar converges: classification, subset routing and
                // congestion-aware endpoint selection all act there.
                if pid == self.ingress_pod {
                    let live = &mut self.policy.live;
                    live.classify = snap.xlayer.classify;
                    live.mesh_subset_routing = snap.xlayer.mesh_subset_routing;
                    live.sdn_lb = snap.xlayer.sdn_lb;
                    self.arm_sdn(now);
                }
                (name, detail)
            }
            PolicyLayer::Transport => {
                let live = &mut self.policy.live;
                live.scavenger_batch = snap.xlayer.scavenger_batch;
                live.scavenger_algo = snap.xlayer.scavenger_algo;
                live.dscp_tagging = snap.xlayer.dscp_tagging;
                let live = *live;
                let default_cc = self.spec.config.default_cc;
                let mut reprofiled = 0usize;
                for pair in self.conns.iter_mut() {
                    let prio = if pair.class == 0 {
                        Priority::High
                    } else {
                        Priority::Low
                    };
                    let (_, dscp, cc) = live.transport_class(prio, default_cc);
                    pair.a.set_profile(dscp, cc);
                    pair.b.set_profile(dscp, cc);
                    reprofiled += 1;
                }
                (
                    "control-plane".to_string(),
                    format!(
                        "reprofiled_conns={reprofiled} dscp_tagging={} scavenger_batch={}",
                        live.dscp_tagging, live.scavenger_batch
                    ),
                )
            }
            PolicyLayer::HostTc => {
                self.policy.live.host_tc = snap.xlayer.host_tc;
                let detail = xlayer::apply_host_tc(&mut self.fabric, &self.cluster, &snap, now);
                ("control-plane".to_string(), detail)
            }
            PolicyLayer::Fabric => {
                self.policy.live.net_prio = snap.xlayer.net_prio;
                let detail = xlayer::apply_net_prio(&mut self.fabric, &self.cluster, &snap, now);
                ("control-plane".to_string(), detail)
            }
            PolicyLayer::Compute => {
                self.policy.live.compute_prio = snap.xlayer.compute_prio;
                let detail = xlayer::apply_compute(&mut self.cluster, &snap);
                ("control-plane".to_string(), detail)
            }
        };
        if let Some(fr) = self.flight_rec() {
            fr.record_policy_apply(&who, now, version, layer.label(), &detail);
        }
        self.policy.plane.ack(version, now);
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::PolicySnapshot;
    use crate::xlayer::{self, XLayerConfig};
    use crate::{SimSpec, Simulation};
    use meshlayer_cluster::{ServiceBehavior, ServiceSpec, Subset};
    use meshlayer_http::{Request, HDR_PRIORITY};
    use meshlayer_netsim::{NodeId, Packet, DSCP_BATCH};
    use meshlayer_simcore::SimTime;
    use std::collections::BTreeMap;

    /// A world whose `reviews` has `high`/`low` subsets, built with `xlayer`
    /// as policy v1.
    fn world(xlayer: XLayerConfig) -> Simulation {
        let labels = |v: &str| -> BTreeMap<String, String> {
            [("prio".to_string(), v.to_string())].into_iter().collect()
        };
        let services = vec![
            ServiceSpec::new("frontend", 1, ServiceBehavior::respond(1.0)),
            ServiceSpec::new("reviews", 2, ServiceBehavior::respond(1.0))
                .with_replica_labels(vec![labels("high"), labels("low")])
                .with_subset(Subset::label("high", "prio", "high"))
                .with_subset(Subset::label("low", "prio", "low")),
        ];
        let mut spec = SimSpec::new(services, Vec::new());
        spec.xlayer = xlayer;
        Simulation::build(spec)
    }

    /// Set `sim` to `xlayer` at t=0 through the per-layer functions a
    /// runtime push calls.
    fn push(mut sim: Simulation, xlayer: XLayerConfig) -> Simulation {
        let snap = PolicySnapshot {
            version: 2,
            xlayer,
            high_share: xlayer::HIGH_PRIO_SHARE,
            queue_pkts: sim.spec.network.queue_pkts,
        };
        let routes = xlayer::apply_routes(&sim.policy.base_routes, &sim.cluster, &snap);
        sim.control.configure(|c| c.routes = routes);
        xlayer::apply_compute(&mut sim.cluster, &snap);
        xlayer::apply_host_tc(&mut sim.fabric, &sim.cluster, &snap, SimTime::ZERO);
        xlayer::apply_net_prio(&mut sim.fabric, &sim.cluster, &snap, SimTime::ZERO);
        sim
    }

    /// What a policy programs, read back from `sim`:
    /// * per access link, the TC class and qdisc band of a packet to a
    ///   high-subset pod and of a DSCP-batch packet;
    /// * every pod's compute priority awareness;
    /// * the subset a high and a low request to `reviews` resolve to.
    fn programmed(sim: &Simulation) -> Vec<String> {
        let high_ip = xlayer::high_subset_ips(&sim.cluster)[0];
        let mut to_high = Packet::data(1, NodeId(0), NodeId(1), 1, 0, 100, 0);
        to_high.dst_ip = high_ip;
        let batch = Packet::data(2, NodeId(0), NodeId(1), 1, 0, 100, DSCP_BATCH);
        let mut out = Vec::new();
        for pod in sim.cluster.pods() {
            for id in [sim.fabric.uplink(pod.id), sim.fabric.downlink(pod.id)] {
                let link = sim.fabric.topology.link(id);
                let classes = [&to_high, &batch].map(|p| {
                    let class = link.tc().classify(p);
                    (class, link.qdisc().band_of(class))
                });
                out.push(format!("{id:?} {classes:?}"));
            }
            out.push(format!(
                "{} priority_aware={}",
                pod.name,
                pod.compute.priority_aware()
            ));
        }
        for prio in ["high", "low"] {
            let req = Request::get("reviews", "/").with_header(HDR_PRIORITY, prio);
            let rule = sim.control.config().routes.resolve(&req).expect("route");
            out.push(format!("{prio} -> {:?}", rule.targets[0].subset));
        }
        out
    }

    #[test]
    fn build_and_push_program_the_same_state() {
        let (full, base) = (XLayerConfig::full(), XLayerConfig::baseline());
        let built = programmed(&world(full));
        assert_eq!(built, programmed(&push(world(base), full)));
        // The reset direction: pushing baseline onto a full world.
        assert_eq!(
            programmed(&world(base)),
            programmed(&push(world(full), base))
        );
        // The state read back is not trivially equal across policies.
        assert_ne!(built, programmed(&world(base)));
    }
}
