//! Generated production-scale topologies: one parameter block →
//! a complete, runnable [`SimSpec`].
//!
//! The paper's testbed is four services on one emulated switch. To ask
//! scale questions — does the mesh-as-network-layer design hold at a
//! thousand pods and 10⁵+ offered RPS? — we generate whole worlds from
//! a [`TopoParams`]: a multi-tier fan-out application
//! ([`meshlayer_cluster::gen`]), a zonal spine-leaf fabric
//! ([`crate::netplan::FabricKind::ZonalSpineLeaf`]) with hierarchical
//! O(nodes + links) routing, and a weighted request-class mix
//! ([`meshlayer_workload::mix`]).
//!
//! Generation is pure: the same parameters (seed included) always
//! produce the same spec, byte for byte — [`TopoParams::describe`]
//! renders the canonical form that determinism tests digest. A
//! generated spec therefore records and replays in the flight recorder
//! exactly like a hand-written one.

use crate::netplan::{FabricKind, NetworkPlan};
use crate::sim::{SimConfig, SimSpec};
use meshlayer_cluster::{service_tree, ServiceSpec, ServiceTreeParams};
use meshlayer_workload::{scale_mix, scale_mix_bg, WorkloadSpec};

/// Which request-class mix a generated world offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoMix {
    /// The interactive scale mix: 70% browse, 20% checkout, 10%
    /// analytics, all per-packet ([`scale_mix`]).
    Interactive,
    /// The background-heavy mix (15% per-packet foreground under 85%
    /// analytics + elephant bulk ingest), everything per-packet —
    /// the baseline side of the fluid-plane comparison
    /// ([`scale_mix_bg`] with `fluid = false`).
    BackgroundPacket,
    /// The same background-heavy mix with the two background classes
    /// running as fluid rate flows ([`scale_mix_bg`] with
    /// `fluid = true`).
    BackgroundFluid,
}

impl TopoMix {
    /// Canonical token used in [`TopoParams::describe`].
    fn token(self) -> &'static str {
        match self {
            TopoMix::Interactive => "interactive",
            TopoMix::BackgroundPacket => "background_packet",
            TopoMix::BackgroundFluid => "background_fluid",
        }
    }
}

/// Parameters of a generated world: application tree, fabric shape and
/// offered load.
#[derive(Clone, Debug, PartialEq)]
pub struct TopoParams {
    /// Root seed: feeds the replica-count jitter at generation time and
    /// becomes the run seed in the emitted config.
    pub seed: u64,
    /// Availability zones in the fabric.
    pub zones: usize,
    /// Leaf switches per zone.
    pub leaves_per_zone: usize,
    /// Spine switches.
    pub spines: usize,
    /// Leaf-to-spine oversubscription ratio.
    pub oversubscription: f64,
    /// Application tree depth (including the frontend tier).
    pub tiers: usize,
    /// Children per non-leaf service.
    pub fanout: usize,
    /// Base replicas per service.
    pub replicas: u32,
    /// Half-width of the deterministic replica jitter.
    pub replica_spread: u32,
    /// Total offered load across the request-class mix, RPS.
    pub rps: f64,
    /// Which request-class mix to offer.
    pub mix: TopoMix,
    /// Endpoint-subset size for discovery (0 disables subsetting).
    pub subset_size: usize,
}

impl Default for TopoParams {
    fn default() -> Self {
        TopoParams {
            seed: 1,
            zones: 2,
            leaves_per_zone: 2,
            spines: 2,
            oversubscription: 2.0,
            tiers: 3,
            fanout: 3,
            replicas: 8,
            replica_spread: 0,
            rps: 10_000.0,
            mix: TopoMix::Interactive,
            subset_size: 0,
        }
    }
}

impl TopoParams {
    /// A parameter block sized to roughly `pods` application pods at
    /// `rps` total offered RPS: a 3-tier fan-out-3 tree (13 services)
    /// with replica pools sized to hit the target, over a fabric with
    /// about 48 hosts per leaf. Discovery subsetting is on (subsets of
    /// 8, pass-through where pools are that small): without it, every
    /// caller pod holds live transport state to every replica of its
    /// callee services, and that caller×callee product dominates peak
    /// RSS at ~1,000 pods.
    pub fn sized(pods: usize, rps: f64) -> TopoParams {
        let services = 13; // 1 + 3 + 9
        let replicas = pods.div_ceil(services).max(1) as u32;
        let leaves = pods.div_ceil(48).max(2);
        TopoParams {
            zones: 2,
            leaves_per_zone: leaves.div_ceil(2),
            spines: 2,
            replicas,
            rps,
            subset_size: 8,
            ..TopoParams::default()
        }
    }

    /// The service-tree slice of the parameters.
    fn tree(&self) -> ServiceTreeParams {
        ServiceTreeParams {
            seed: self.seed,
            tiers: self.tiers,
            fanout: self.fanout,
            replicas: self.replicas,
            replica_spread: self.replica_spread,
            ..ServiceTreeParams::default()
        }
    }

    /// The generated services.
    pub fn services(&self) -> Vec<ServiceSpec> {
        service_tree(&self.tree())
    }

    /// The generated workload mix.
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        match self.mix {
            TopoMix::Interactive => scale_mix(self.rps),
            TopoMix::BackgroundPacket => scale_mix_bg(self.rps, false),
            TopoMix::BackgroundFluid => scale_mix_bg(self.rps, true),
        }
    }

    /// Total application pods the generated services deploy (the
    /// cluster adds one ingress-gateway pod on top).
    pub fn pod_count(&self) -> usize {
        self.services().iter().map(|s| s.replicas as usize).sum()
    }

    /// Emit the complete runnable spec: services, zonal fabric,
    /// workload mix, and a config with the seed and enough node
    /// capacity for every pod (so deployment never aborts). Duration
    /// and warm-up keep [`SimConfig`] defaults — sweeps override them.
    pub fn spec(&self) -> SimSpec {
        let services = self.services();
        let total_pods = 1 + services.iter().map(|s| s.replicas as usize).sum::<usize>();
        let network = NetworkPlan::default().with_fabric(FabricKind::ZonalSpineLeaf {
            zones: self.zones,
            leaves_per_zone: self.leaves_per_zone,
            spines: self.spines,
            oversubscription: self.oversubscription,
        });
        let mut spec = SimSpec::new(services, self.workloads());
        spec.network = network;
        spec.config = SimConfig {
            seed: self.seed,
            nodes: total_pods.div_ceil(64),
            pods_per_node: 64,
            subset_size: self.subset_size,
            ..SimConfig::default()
        };
        spec
    }

    /// Canonical rendering of everything generation decided — fabric
    /// shape, every service with its replica count and fan-out, every
    /// workload with its rate. Two parameter blocks generate identical
    /// worlds iff their `describe()` outputs are byte-identical.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "topo-gen seed={} fabric=zonal zones={} leaves_per_zone={} spines={} oversub={:.3} mix={} subset={}\n",
            self.seed,
            self.zones,
            self.leaves_per_zone,
            self.spines,
            self.oversubscription,
            self.mix.token(),
            self.subset_size
        ));
        for s in self.services() {
            let b = &s.behaviors[0].1;
            out.push_str(&format!(
                "service {} replicas={} calls={} depth={}\n",
                s.name,
                s.replicas,
                b.on_request.call_count(),
                b.on_request.call_depth(&|_, _| None, 8),
            ));
        }
        for w in self.workloads() {
            out.push_str(&format!("workload {} rps={:.3}\n", w.name, w.arrival.rps));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use meshlayer_simcore::SimDuration;

    #[test]
    fn sized_hits_pod_target() {
        let p = TopoParams::sized(1000, 100_000.0);
        let pods = p.pod_count();
        assert!(
            (1000..1100).contains(&pods),
            "sized(1000) produced {pods} pods"
        );
        assert_eq!(p.rps, 100_000.0);
    }

    #[test]
    fn describe_is_deterministic_and_seed_sensitive() {
        let p = TopoParams {
            replica_spread: 3,
            ..TopoParams::default()
        };
        assert_eq!(p.describe(), p.describe());
        let q = TopoParams { seed: 2, ..p };
        assert_ne!(p.describe(), q.describe());
    }

    #[test]
    fn generated_spec_builds_and_runs() {
        let p = TopoParams {
            replicas: 2, // keep the smoke world small
            ..TopoParams::default()
        };
        let mut spec = p.spec();
        spec.config.duration = SimDuration::from_millis(200);
        spec.config.warmup = SimDuration::from_millis(50);
        spec.config.cooldown = SimDuration::ZERO;
        let mut sim = Simulation::build(spec);
        let m = sim.run();
        assert!(m.world.roots_started > 0, "no requests flowed");
        assert!(m.world.roots_ok > 0, "no requests completed");
    }
}
