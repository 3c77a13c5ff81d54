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

use super::engine::Ctx;
use super::{Ev, MeshPlane, Simulation};
use crate::policy::{AdaptationConfig, AdaptationController, PolicyLayer, PolicyPlane};
use crate::provenance::Priority;
use crate::xlayer::{self, XLayerConfig};
use meshlayer_cluster::{Cluster, PodId};
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
    /// changes only through policy-apply events. Hot paths read this.
    pub live: XLayerConfig,
    /// Passthrough routes as built, before any priority rules — the base
    /// every route rebuild starts from.
    pub base_routes: RouteTable,
    /// Versioned policy history + push/ack state.
    pub plane: PolicyPlane,
    /// Closed-loop adaptation controller, when configured.
    pub adapt: Option<AdaptationController>,
    /// Whether the SdnTick chain is running (see [`PolicyRt::arm_sdn`]).
    sdn_armed: bool,
    /// Link queue length every snapshot carries (the network plan's).
    pub queue_pkts: usize,
}

impl PolicyRt {
    /// Policy v1 (`xlayer`), over the passthrough `base_routes`.
    pub fn new(
        xlayer: XLayerConfig,
        queue_pkts: usize,
        adaptation: Option<AdaptationConfig>,
        base_routes: RouteTable,
    ) -> PolicyRt {
        PolicyRt {
            live: xlayer,
            base_routes,
            plane: PolicyPlane::new(xlayer, xlayer::HIGH_PRIO_SHARE, queue_pkts),
            adapt: adaptation.map(AdaptationController::new),
            sdn_armed: false,
            queue_pkts,
        }
    }

    /// Start the SdnTick chain one tick after `now` if the live policy
    /// turns congestion-aware endpoint selection on and the chain is not
    /// running yet. Called when the run starts and when a policy reaches
    /// the ingress.
    pub(crate) fn arm_sdn(&mut self, now: SimTime, ctx: &mut Ctx) {
        if !self.live.sdn_lb || self.sdn_armed {
            return;
        }
        self.sdn_armed = true;
        ctx.push_before_end(now + super::engine::SDN_TICK, Ev::SdnTick);
    }
}

impl MeshPlane {
    /// The control plane starts pushing `version`.
    pub(crate) fn on_policy_push(
        &mut self,
        version: u64,
        now: SimTime,
        cluster: &Cluster,
        ctx: &mut Ctx,
    ) {
        let Some(snap) = self.policy.plane.snapshot(version) else {
            return;
        };
        // Render the route table for this snapshot from the base routes
        // and publish it — sidecars pick the new config version up in
        // their apply events.
        let routes = xlayer::apply_routes(&self.policy.base_routes, cluster, snap);
        self.control.configure(|c| c.routes = routes);

        self.policy
            .plane
            .begin_push(version, self.sidecars.len() + PolicyLayer::GLOBAL.len());

        let jitter_span = (POLICY_PUSH_DELAY.as_nanos() / 2).max(1);
        for (pod, _) in self.sidecars.iter() {
            let jitter = SimDuration::from_nanos(ctx.rng.u64() % jitter_span);
            ctx.queue.push(
                now + POLICY_PUSH_DELAY + jitter,
                Ev::PolicyApply {
                    version,
                    layer: PolicyLayer::Mesh.code(),
                    pod: pod.0,
                },
            );
        }
        for layer in PolicyLayer::GLOBAL {
            ctx.queue.push(
                now + POLICY_PUSH_DELAY,
                Ev::PolicyApply {
                    version,
                    layer: layer.code(),
                    pod: FLEET_POD,
                },
            );
        }
    }
}

impl Simulation {
    /// One layer applies `version` at simulated time `now`.
    pub(crate) fn on_policy_apply(&mut self, version: u64, layer: u8, pod: u32, now: SimTime) {
        let Some(layer) = PolicyLayer::from_code(layer) else {
            return;
        };
        let Some(snap) = self.mesh.policy.plane.snapshot(version).cloned() else {
            return;
        };
        let mesh = &mut self.mesh;
        let (who, detail) = match layer {
            PolicyLayer::Mesh => {
                let pid = PodId(pod);
                let Some(sc) = mesh.sidecars.get_mut(pid) else {
                    return;
                };
                // xDS-style pull: adopt the control plane's rendered config
                // if it is newer. Upstream state (EWMA, breakers) is kept.
                let sync = mesh.control.sync(sc.config_version());
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
                if pid == mesh.ingress_pod {
                    let live = &mut mesh.policy.live;
                    live.classify = snap.xlayer.classify;
                    live.mesh_subset_routing = snap.xlayer.mesh_subset_routing;
                    live.sdn_lb = snap.xlayer.sdn_lb;
                    mesh.policy.arm_sdn(now, &mut self.ctx);
                }
                (name, detail)
            }
            PolicyLayer::Transport => {
                let live = &mut mesh.policy.live;
                live.scavenger_batch = snap.xlayer.scavenger_batch;
                live.scavenger_algo = snap.xlayer.scavenger_algo;
                live.dscp_tagging = snap.xlayer.dscp_tagging;
                let live = *live;
                let default_cc = self.config.default_cc;
                let mut reprofiled = 0usize;
                for pair in self.transport.conns.iter_mut() {
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
                mesh.policy.live.host_tc = snap.xlayer.host_tc;
                let detail =
                    xlayer::apply_host_tc(&mut self.net.fabric, &self.app.cluster, &snap, now);
                ("control-plane".to_string(), detail)
            }
            PolicyLayer::Fabric => {
                mesh.policy.live.net_prio = snap.xlayer.net_prio;
                let detail =
                    xlayer::apply_net_prio(&mut self.net.fabric, &self.app.cluster, &snap, now);
                ("control-plane".to_string(), detail)
            }
            PolicyLayer::Compute => {
                mesh.policy.live.compute_prio = snap.xlayer.compute_prio;
                let detail = xlayer::apply_compute(&mut self.app.cluster, &snap);
                ("control-plane".to_string(), detail)
            }
        };
        if let Some(fr) = self.obs.flight_rec() {
            fr.record_policy_apply(&who, now, version, layer.label(), &detail);
        }
        mesh.policy.plane.ack(version, now);
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
            queue_pkts: sim.mesh.policy.queue_pkts,
        };
        let (mesh, cluster, fabric) = (&mut sim.mesh, &mut sim.app.cluster, &mut sim.net.fabric);
        let routes = xlayer::apply_routes(&mesh.policy.base_routes, cluster, &snap);
        mesh.control.configure(|c| c.routes = routes);
        xlayer::apply_compute(cluster, &snap);
        xlayer::apply_host_tc(fabric, cluster, &snap, SimTime::ZERO);
        xlayer::apply_net_prio(fabric, cluster, &snap, SimTime::ZERO);
        sim
    }

    /// What a policy programs, read back from `sim`:
    /// * per access link, the TC class and qdisc band of a packet to a
    ///   high-subset pod and of a DSCP-batch packet;
    /// * every pod's compute priority awareness;
    /// * the subset a high and a low request to `reviews` resolve to.
    fn programmed(sim: &Simulation) -> Vec<String> {
        let (cluster, fabric) = (sim.cluster(), sim.fabric());
        let high_ip = xlayer::high_subset_ips(cluster)[0];
        let mut to_high = Packet::data(1, NodeId(0), NodeId(1), 1, 0, 100, 0);
        to_high.dst_ip = high_ip;
        let batch = Packet::data(2, NodeId(0), NodeId(1), 1, 0, 100, DSCP_BATCH);
        let mut out = Vec::new();
        for pod in cluster.pods() {
            for id in [fabric.uplink(pod.id), fabric.downlink(pod.id)] {
                let link = fabric.topology.link(id);
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
            let rule = sim.control().config().routes.resolve(&req).expect("route");
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
