//! Network construction: from a deployed cluster to a packet topology.
//!
//! The paper's testbed emulates inter-pod links: 15 Gbps everywhere except
//! a 1 Gbps bottleneck at the reviews→ratings segment. We realize that as
//! a star: one virtual switch, one duplex access link per pod (the pod's
//! virtual NIC — where the prototype installs its TC rules), with
//! per-service rate overrides so e.g. `ratings` gets a 1 Gbps access link.

use meshlayer_cluster::{Cluster, PodId};
use meshlayer_netsim::{DropTail, HierEntry, NodeId, Qdisc, Topology};
use meshlayer_simcore::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Physical shape of the pod interconnect.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum FabricKind {
    /// Single-switch star — the paper's emulated testbed: every pod
    /// hangs off one virtual switch by a duplex access link.
    #[default]
    Star,
    /// A zonal spine-leaf fabric for production-scale experiments:
    /// `zones * leaves_per_zone` leaf switches, each serving a
    /// contiguous block of pods, all cross-connected to `spines` spine
    /// switches.
    ZonalSpineLeaf {
        /// Number of availability zones (names leaves `z{zone}-leaf{i}`).
        zones: usize,
        /// Leaf switches per zone.
        leaves_per_zone: usize,
        /// Spine switches (every leaf uplinks to every spine).
        spines: usize,
        /// Ratio of aggregate host-facing to spine-facing bandwidth per
        /// leaf; a typical datacenter value is 2.0–4.0. Spine-link rate
        /// is `hosts_per_leaf * default_rate / (spines * oversubscription)`.
        oversubscription: f64,
    },
}

/// Declarative link plan.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetworkPlan {
    /// Default access-link rate (bits/second). Paper: 15 Gbps.
    pub default_rate_bps: u64,
    /// Per-service access-link overrides (applies to every pod of the
    /// service). Paper: `ratings` at 1 Gbps.
    pub service_rate_bps: HashMap<String, u64>,
    /// Per-pod access-link overrides by pod name (e.g. `backend-1`);
    /// takes precedence over the service override. Used by heterogeneity
    /// experiments (A5).
    pub pod_rate_bps: HashMap<String, u64>,
    /// One-way propagation delay per link.
    pub link_delay: SimDuration,
    /// Access-link queue capacity, packets (DropTail baseline).
    pub queue_pkts: usize,
    /// Interconnect shape (star testbed vs generated spine-leaf).
    pub fabric: FabricKind,
}

impl Default for NetworkPlan {
    fn default() -> Self {
        NetworkPlan {
            default_rate_bps: 15_000_000_000,
            service_rate_bps: HashMap::new(),
            pod_rate_bps: HashMap::new(),
            link_delay: SimDuration::from_micros(25),
            queue_pkts: 512,
            fabric: FabricKind::Star,
        }
    }
}

impl NetworkPlan {
    /// Override one service's access-link rate.
    pub fn with_service_rate(mut self, service: impl Into<String>, rate_bps: u64) -> Self {
        self.service_rate_bps.insert(service.into(), rate_bps);
        self
    }

    /// Override one pod's access-link rate (by pod name, e.g. `backend-1`).
    pub fn with_pod_rate(mut self, pod: impl Into<String>, rate_bps: u64) -> Self {
        self.pod_rate_bps.insert(pod.into(), rate_bps);
        self
    }

    /// The rate for a pod of `service`.
    pub fn rate_for(&self, service: &str) -> u64 {
        self.service_rate_bps
            .get(service)
            .copied()
            .unwrap_or(self.default_rate_bps)
    }

    /// Select the interconnect shape.
    pub fn with_fabric(mut self, fabric: FabricKind) -> Self {
        self.fabric = fabric;
        self
    }
}

/// The realized network: topology plus pod↔node mappings.
pub struct Fabric {
    /// The packet topology (switches + per-pod nodes).
    pub topology: Topology,
    /// Topology node of each pod (indexed by `PodId.0`).
    pub pod_node: Vec<NodeId>,
    /// Reverse map: the pod at each topology node (indexed by
    /// `NodeId.0`; `None` for switches).
    pub node_pod: Vec<Option<PodId>>,
    /// The star's central switch; for a spine-leaf fabric, the first
    /// spine (a representative non-pod node).
    pub switch: NodeId,
    /// Access switch of each pod (indexed by `PodId.0`): the star
    /// switch, or the pod's leaf in a spine-leaf fabric.
    pub attach: Vec<NodeId>,
}

impl Fabric {
    /// Build the fabric selected by `plan.fabric` for every pod in
    /// `cluster`. Both shapes install a hierarchical next-hop table
    /// ([`Topology::install_hier`]), so route state is O(nodes + links)
    /// regardless of fleet size.
    pub fn build(cluster: &Cluster, plan: &NetworkPlan) -> Fabric {
        match plan.fabric {
            FabricKind::Star => Self::build_star(cluster, plan),
            FabricKind::ZonalSpineLeaf {
                zones,
                leaves_per_zone,
                spines,
                oversubscription,
            } => Self::build_zonal(
                cluster,
                plan,
                zones,
                leaves_per_zone,
                spines,
                oversubscription,
            ),
        }
    }

    /// Access-link rate of a pod: pod override, then service override,
    /// then plan default.
    fn pod_rate(plan: &NetworkPlan, pod: &meshlayer_cluster::Pod) -> u64 {
        let service = pod
            .labels
            .get("app")
            .cloned()
            .unwrap_or_else(|| pod.name.clone());
        plan.pod_rate_bps
            .get(&pod.name)
            .copied()
            .unwrap_or_else(|| plan.rate_for(&service))
    }

    /// The paper's testbed star: one virtual switch, one duplex access
    /// link per pod.
    fn build_star(cluster: &Cluster, plan: &NetworkPlan) -> Fabric {
        let mut topology = Topology::new();
        let switch = topology.add_node("switch");
        let mut pod_node = Vec::with_capacity(cluster.pod_count());
        let mk =
            |plan: &NetworkPlan| -> Box<dyn Qdisc> { Box::new(DropTail::new(plan.queue_pkts)) };
        let mut entries = vec![HierEntry {
            lo: 0,
            hi: cluster.pod_count() as u32 + 1,
            up: Vec::new(),
            children: Vec::new(),
        }];
        for pod in cluster.pods() {
            let n = topology.add_node(pod.name.clone());
            let rate = Self::pod_rate(plan, pod);
            // Uplink (pod → switch): this is the pod's virtual NIC egress,
            // the attachment point for the paper's TC rules.
            let up = topology.add_link(n, switch, rate, plan.link_delay, mk(plan));
            // Downlink (switch → pod).
            let down = topology.add_link(switch, n, rate, plan.link_delay, mk(plan));
            entries[0].children.push((n.0, n.0 + 1, down));
            entries.push(HierEntry {
                lo: n.0,
                hi: n.0 + 1,
                up: vec![up],
                children: Vec::new(),
            });
            pod_node.push(n);
        }
        let attach = vec![switch; pod_node.len()];
        topology.install_hier(entries);
        let node_pod = Self::pods_by_node(&pod_node, topology.node_count());
        Fabric {
            topology,
            pod_node,
            node_pod,
            switch,
            attach,
        }
    }

    /// A zonal spine-leaf fabric: pods are packed onto leaves in
    /// contiguous `PodId` blocks (each leaf node is created immediately
    /// before its pods, so every leaf subtree is a contiguous node-id
    /// interval — the invariant hierarchical routing needs), and every
    /// leaf uplinks to every spine.
    fn build_zonal(
        cluster: &Cluster,
        plan: &NetworkPlan,
        zones: usize,
        leaves_per_zone: usize,
        spines: usize,
        oversubscription: f64,
    ) -> Fabric {
        let zones = zones.max(1);
        let leaves_per_zone = leaves_per_zone.max(1);
        let spines = spines.max(1);
        let oversubscription = if oversubscription > 0.0 {
            oversubscription
        } else {
            1.0
        };
        let n_leaves = zones * leaves_per_zone;
        let n_pods = cluster.pod_count();
        let hosts_per_leaf = n_pods.div_ceil(n_leaves).max(1);
        let mut topology = Topology::new();
        let mk =
            |plan: &NetworkPlan| -> Box<dyn Qdisc> { Box::new(DropTail::new(plan.queue_pkts)) };
        let mut pod_node = Vec::with_capacity(n_pods);
        let pods: Vec<&meshlayer_cluster::Pod> = cluster.pods().collect();
        // Leaves and their hosts first, keeping subtree ids contiguous.
        let mut leaf_nodes = Vec::with_capacity(n_leaves);
        let mut entries: Vec<HierEntry> = Vec::new();
        for leaf_i in 0..n_leaves {
            let zone = leaf_i / leaves_per_zone;
            let leaf = topology.add_node(format!("z{zone}-leaf{leaf_i}"));
            let mut leaf_entry = HierEntry {
                lo: leaf.0,
                hi: leaf.0 + 1,
                up: Vec::new(),
                children: Vec::new(),
            };
            entries.push(HierEntry::default());
            let first = leaf_i * hosts_per_leaf;
            let last = ((leaf_i + 1) * hosts_per_leaf).min(n_pods);
            for &pod in pods.iter().take(last).skip(first.min(last)) {
                let n = topology.add_node(pod.name.clone());
                let rate = Self::pod_rate(plan, pod);
                let up = topology.add_link(n, leaf, rate, plan.link_delay, mk(plan));
                let down = topology.add_link(leaf, n, rate, plan.link_delay, mk(plan));
                leaf_entry.children.push((n.0, n.0 + 1, down));
                entries.push(HierEntry {
                    lo: n.0,
                    hi: n.0 + 1,
                    up: vec![up],
                    children: Vec::new(),
                });
                pod_node.push(n);
            }
            leaf_entry.hi = topology.node_count() as u32;
            let slot = leaf.0 as usize;
            entries[slot] = leaf_entry;
            leaf_nodes.push(leaf);
        }
        // Spines last, cross-connected to every leaf. The spine-facing
        // rate models the leaf's aggregate host bandwidth divided by
        // spine count and the configured oversubscription ratio.
        let spine_rate = ((hosts_per_leaf as f64 * plan.default_rate_bps as f64)
            / (spines as f64 * oversubscription))
            .max(1_000_000_000.0) as u64;
        let host_span = topology.node_count() as u32;
        let spine_nodes: Vec<NodeId> = (0..spines)
            .map(|s| topology.add_node(format!("spine{s}")))
            .collect();
        for _ in &spine_nodes {
            entries.push(HierEntry {
                lo: 0,
                hi: host_span,
                up: Vec::new(),
                children: Vec::new(),
            });
        }
        for &leaf in &leaf_nodes {
            let (lo, hi) = (entries[leaf.0 as usize].lo, entries[leaf.0 as usize].hi);
            for &spine in &spine_nodes {
                let up = topology.add_link(leaf, spine, spine_rate, plan.link_delay, mk(plan));
                let down = topology.add_link(spine, leaf, spine_rate, plan.link_delay, mk(plan));
                entries[leaf.0 as usize].up.push(up);
                entries[spine.0 as usize].children.push((lo, hi, down));
            }
        }
        let attach: Vec<NodeId> = pod_node
            .iter()
            .enumerate()
            .map(|(i, _)| leaf_nodes[(i / hosts_per_leaf).min(n_leaves - 1)])
            .collect();
        topology.install_hier(entries);
        let node_pod = Self::pods_by_node(&pod_node, topology.node_count());
        Fabric {
            topology,
            pod_node,
            node_pod,
            switch: spine_nodes[0],
            attach,
        }
    }

    /// The topology node hosting a pod.
    pub fn node_of(&self, pod: PodId) -> NodeId {
        self.pod_node[pod.0 as usize]
    }

    /// Invert `pod_node` (pods are numbered in deployment order) into a
    /// table over all `nodes` topology nodes.
    fn pods_by_node(pod_node: &[NodeId], nodes: usize) -> Vec<Option<PodId>> {
        let mut table = vec![None; nodes];
        for (pod, node) in pod_node.iter().enumerate() {
            table[node.0 as usize] = Some(PodId(pod as u32));
        }
        table
    }

    /// The pod living at a topology node (None for switches).
    pub fn pod_at(&self, node: NodeId) -> Option<PodId> {
        self.node_pod.get(node.0 as usize).copied().flatten()
    }

    /// The access switch (star switch or leaf) a pod attaches to.
    pub fn attach_of(&self, pod: PodId) -> NodeId {
        self.attach[pod.0 as usize]
    }

    /// The uplink (pod → access switch) of a pod — its virtual NIC
    /// egress.
    pub fn uplink(&self, pod: PodId) -> meshlayer_netsim::LinkId {
        let n = self.node_of(pod);
        self.topology
            .link_between(n, self.attach_of(pod))
            .expect("every pod has an uplink")
    }

    /// The downlink (access switch → pod) of a pod.
    pub fn downlink(&self, pod: PodId) -> meshlayer_netsim::LinkId {
        let n = self.node_of(pod);
        self.topology
            .link_between(self.attach_of(pod), n)
            .expect("every pod has a downlink")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshlayer_cluster::{ServiceBehavior, ServiceSpec};
    use meshlayer_netsim::{Link, LinkId};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference routing weight of a link: propagation delay plus the
    /// serialization time of a 1500-byte packet (so faster links win
    /// ties), at least 1 ns.
    fn weight(l: &Link) -> u64 {
        let tx = meshlayer_simcore::time::tx_time(1500, l.rate_bps());
        (l.delay().as_nanos() + tx.as_nanos()).max(1)
    }

    /// The reference router: Dijkstra from `src` over the topology's
    /// public links. Returns each node's distance and the link its
    /// shortest path arrives by (the first one found on ties).
    fn dijkstra(t: &Topology, src: NodeId) -> (Vec<u64>, Vec<Option<LinkId>>) {
        let n = t.node_count();
        let mut dist = vec![u64::MAX; n];
        let mut via = vec![None; n];
        dist[src.0 as usize] = 0;
        let mut heap = BinaryHeap::from([Reverse((0u64, src.0))]);
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for l in t.links().filter(|l| l.from().0 == u) {
                let v = l.to().0 as usize;
                let nd = d + weight(l);
                if nd < dist[v] {
                    dist[v] = nd;
                    via[v] = Some(l.id());
                    heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        (dist, via)
    }

    /// The oracle's path to `dst` in the shortest-path tree `via` rooted
    /// at `src`.
    fn oracle_path(t: &Topology, via: &[Option<LinkId>], src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        let mut cur = dst;
        while cur != src {
            let l = via[cur.0 as usize].expect("oracle reaches every node");
            links.push(l);
            cur = t.link(l).from();
        }
        links.reverse();
        links
    }

    /// Route every pod pair of `f` and compare with the oracle. With
    /// `unique` shortest paths the route must be the oracle's, link for
    /// link; under ECMP it must match the oracle's hop count and total
    /// weight.
    fn assert_pod_routes_match_oracle(c: &Cluster, f: &Fabric, unique: bool) {
        let t = &f.topology;
        for a in c.pods() {
            let src = f.node_of(a.id);
            let (dist, via) = dijkstra(t, src);
            for b in c.pods().filter(|b| b.id != a.id) {
                let dst = f.node_of(b.id);
                let got = t.path(src, dst).links;
                let want = oracle_path(t, &via, src, dst);
                if unique {
                    assert_eq!(got, want, "{:?}->{:?}", a.id, b.id);
                } else {
                    assert_eq!(got.len(), want.len(), "hops {:?}->{:?}", a.id, b.id);
                    let w: u64 = got.iter().map(|&l| weight(t.link(l))).sum();
                    assert_eq!(w, dist[dst.0 as usize], "weight {:?}->{:?}", a.id, b.id);
                }
            }
        }
    }

    fn cluster() -> Cluster {
        let mut c = Cluster::new(&["host"], 64);
        c.deploy(ServiceSpec::new(
            "frontend",
            1,
            ServiceBehavior::respond(100.0),
        ));
        c.deploy(ServiceSpec::new(
            "reviews",
            2,
            ServiceBehavior::respond(100.0),
        ));
        c.deploy(ServiceSpec::new(
            "ratings",
            1,
            ServiceBehavior::respond(100.0),
        ));
        c
    }

    #[test]
    fn star_has_two_links_per_pod() {
        let c = cluster();
        let f = Fabric::build(&c, &NetworkPlan::default());
        assert_eq!(f.topology.node_count(), 1 + c.pod_count());
        assert_eq!(f.topology.link_count(), 2 * c.pod_count());
    }

    #[test]
    fn service_rate_override_applies_to_all_replicas() {
        let c = cluster();
        let plan = NetworkPlan::default().with_service_rate("ratings", 1_000_000_000);
        let f = Fabric::build(&c, &plan);
        let ratings_pods: Vec<PodId> = c.endpoints("ratings", None);
        for p in ratings_pods {
            let up = f.uplink(p);
            assert_eq!(f.topology.link(up).rate_bps(), 1_000_000_000);
            let down = f.downlink(p);
            assert_eq!(f.topology.link(down).rate_bps(), 1_000_000_000);
        }
        // Other pods keep the default.
        let frontend = c.endpoints("frontend", None)[0];
        let up = f.uplink(frontend);
        assert_eq!(f.topology.link(up).rate_bps(), 15_000_000_000);
    }

    #[test]
    fn all_pod_pairs_route_via_switch() {
        let c = cluster();
        let f = Fabric::build(&c, &NetworkPlan::default());
        let pods: Vec<PodId> = c.pods().map(|p| p.id).collect();
        for &a in &pods {
            for &b in &pods {
                if a != b {
                    let route = f.topology.path(f.node_of(a), f.node_of(b));
                    assert_eq!(route.hops(), 2, "{a:?}->{b:?}");
                }
            }
        }
        assert_pod_routes_match_oracle(&c, &f, true);
    }

    #[test]
    fn node_pod_round_trip() {
        let c = cluster();
        let f = Fabric::build(&c, &NetworkPlan::default());
        for pod in c.pods() {
            let n = f.node_of(pod.id);
            assert_eq!(f.pod_at(n), Some(pod.id));
        }
        assert_eq!(f.pod_at(f.switch), None);
    }

    #[test]
    fn rate_for_lookup() {
        let plan = NetworkPlan::default().with_service_rate("x", 5);
        assert_eq!(plan.rate_for("x"), 5);
        assert_eq!(plan.rate_for("y"), 15_000_000_000);
    }

    #[test]
    fn star_installs_hier_routing() {
        let c = cluster();
        let f = Fabric::build(&c, &NetworkPlan::default());
        // A topology with no installed table routes nothing.
        for pod in c.pods() {
            assert!(f.topology.next_hop(f.node_of(pod.id), f.switch).is_some());
        }
    }

    #[test]
    fn hier_star_matches_dijkstra() {
        let c = cluster();
        let f = Fabric::build(&c, &NetworkPlan::default());
        let t = &f.topology;
        let n = t.node_count() as u32;
        for a in (0..n).map(NodeId) {
            let (_, via) = dijkstra(t, a);
            for b in (0..n).map(NodeId) {
                let first = oracle_path(t, &via, a, b).first().copied();
                assert_eq!(t.next_hop(a, b), first, "{a:?}->{b:?}");
            }
        }
    }

    fn zonal_plan() -> NetworkPlan {
        NetworkPlan::default().with_fabric(FabricKind::ZonalSpineLeaf {
            zones: 2,
            leaves_per_zone: 1,
            spines: 2,
            oversubscription: 2.0,
        })
    }

    #[test]
    fn zonal_all_pod_pairs_reachable() {
        let c = cluster(); // 4 pods over 2 leaves
        let f = Fabric::build(&c, &zonal_plan());
        let pods: Vec<PodId> = c.pods().map(|p| p.id).collect();
        for &a in &pods {
            for &b in &pods {
                if a != b {
                    let r = f.topology.path(f.node_of(a), f.node_of(b));
                    // Same leaf: 2 hops; cross-leaf: 4 (via a spine).
                    assert!(r.hops() == 2 || r.hops() == 4, "{a:?}->{b:?}: {r:?}");
                }
            }
        }
        assert_pod_routes_match_oracle(&c, &f, false);
    }

    #[test]
    fn zonal_access_links_attach_to_leaves() {
        let c = cluster();
        let f = Fabric::build(&c, &zonal_plan());
        for pod in c.pods() {
            let leaf = f.attach_of(pod.id);
            assert!(f.topology.node_name(leaf).contains("leaf"));
            assert_eq!(f.topology.link(f.uplink(pod.id)).to(), leaf);
            assert_eq!(f.topology.link(f.downlink(pod.id)).from(), leaf);
        }
        // The representative non-pod node is a spine.
        assert_eq!(f.pod_at(f.switch), None);
        assert!(f.topology.node_name(f.switch).starts_with("spine"));
    }

    #[test]
    fn zonal_spine_rate_honors_oversubscription() {
        let c = cluster(); // 4 pods, 2 leaves -> 2 hosts/leaf
        let f = Fabric::build(&c, &zonal_plan());
        let spine_link = f
            .topology
            .links()
            .find(|l| f.topology.node_name(l.to()).starts_with("spine"))
            .expect("leaf->spine link exists");
        // 2 hosts * 15 Gbps / (2 spines * 2.0 oversub) = 7.5 Gbps.
        assert_eq!(spine_link.rate_bps(), 7_500_000_000);
    }

    #[test]
    fn fabric_kind_serde_round_trip() {
        let plan = zonal_plan();
        let json = serde_json::to_string(&plan).unwrap();
        let back: NetworkPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fabric, plan.fabric);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Any zonal fabric shape over any pod count stays fully
        /// connected under hierarchical routing: every pod pair has a
        /// loop-free path (`Topology::path` panics on unreachability or
        /// a routing loop), and it is a shortest one: the reference
        /// router's own path with one spine, one of equal hops and weight
        /// under ECMP.
        #[test]
        fn zonal_fabric_always_connected(
            zones in 1usize..4,
            leaves_per_zone in 1usize..4,
            spines in 1usize..4,
            oversubscription in 0.5f64..4.0,
            pods in 1u32..40,
        ) {
            let mut c = Cluster::new(&["h0", "h1", "h2", "h3"], 16);
            c.deploy(ServiceSpec::new("svc", pods, ServiceBehavior::respond(100.0)));
            let plan = NetworkPlan::default().with_fabric(FabricKind::ZonalSpineLeaf {
                zones,
                leaves_per_zone,
                spines,
                oversubscription,
            });
            let f = Fabric::build(&c, &plan);
            let pod_ids: Vec<PodId> = c.pods().map(|p| p.id).collect();
            for &a in &pod_ids {
                for &b in &pod_ids {
                    if a != b {
                        let r = f.topology.path(f.node_of(a), f.node_of(b));
                        proptest::prop_assert!(r.hops() >= 2);
                    }
                }
            }
            assert_pod_routes_match_oracle(&c, &f, spines == 1);
        }
    }
}
