//! Cross-layer prioritization — design component (3) of §4.2.
//!
//! Each of the paper's four optimization sites is an independent toggle so
//! the ablation harness (A1) can attribute the win:
//!
//! * **(a) service mesh** — priority-aware routing to dedicated replica
//!   subsets ([`XLayerConfig::mesh_subset_routing`], §4.3 step 3's
//!   "forward to either reviews replica 1 or 2 depending on priority")
//!   and priority-aware request queues at the pods
//!   ([`XLayerConfig::compute_prio`], a §5 extension);
//! * **(b) transport** — scavenger congestion control for the
//!   latency-insensitive class ([`XLayerConfig::scavenger_batch`]);
//! * **(c) OS / hypervisor** — TC rules at the pod's virtual NIC giving
//!   flows destined to high-priority pods nearly-strict priority, up to
//!   95 % of bandwidth ([`XLayerConfig::host_tc`] — the prototype's
//!   actual mechanism);
//! * **(d) physical network** — DSCP tagging carried in-band plus
//!   priority-aware queues in the fabric
//!   ([`XLayerConfig::dscp_tagging`] + [`XLayerConfig::net_prio`]).

use crate::netplan::Fabric;
use crate::policy::PolicySnapshot;
use crate::provenance::Priority;
use meshlayer_cluster::{Cluster, PodId};
use meshlayer_http::{HeaderMatch, RouteRule, RouteTable, RouteTarget, HDR_PRIORITY};
use meshlayer_netsim::{
    ClassId, DropTail, FilterMatch, HtbClass, HtbLite, Link, LinkId, TcTable, DSCP_BATCH,
    DSCP_LATENCY,
};
use meshlayer_simcore::SimTime;
use meshlayer_transport::CcAlgo;
use serde::{Deserialize, Serialize};

/// Which cross-layer optimizations are active.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct XLayerConfig {
    /// Classify at the ingress and stamp `x-mesh-priority` (§4.3 step 1).
    /// Required by every other toggle; alone it only adds the header.
    pub classify: bool,
    /// (a) Route priorities to dedicated replica subsets.
    pub mesh_subset_routing: bool,
    /// (a, extension) Priority-aware request queues in pods.
    pub compute_prio: bool,
    /// (b) Scavenger congestion control for low-priority connections.
    pub scavenger_batch: bool,
    /// Which scavenger to use when `scavenger_batch` is on.
    pub scavenger_algo: CcAlgo,
    /// (c) HTB + pod-IP filters at every pod's virtual NIC egress.
    pub host_tc: bool,
    /// (d, in-band half) Stamp DSCP by priority on every packet.
    pub dscp_tagging: bool,
    /// (d) Priority queues in the fabric (switch-side links), classifying
    /// on DSCP. Requires `dscp_tagging` to have any effect.
    pub net_prio: bool,
    /// (§3.5) Congestion-aware endpoint selection: the mesh consults the
    /// SDN controller's link-utilization snapshots and avoids endpoints
    /// behind congested access links.
    pub sdn_lb: bool,
}

impl XLayerConfig {
    /// Everything off — the paper's baseline ("w/o cross layer
    /// optimization").
    pub fn baseline() -> XLayerConfig {
        XLayerConfig::default()
    }

    /// Like [`XLayerConfig::full`] but with an explicit scavenger.
    pub fn with_scavenger(mut self, algo: CcAlgo) -> XLayerConfig {
        self.scavenger_batch = true;
        self.scavenger_algo = algo;
        self
    }

    /// The paper's prototype: classification + subset routing + host TC
    /// ("w/ cross layer optimization" in Fig 4).
    pub fn paper_prototype() -> XLayerConfig {
        XLayerConfig {
            classify: true,
            mesh_subset_routing: true,
            host_tc: true,
            ..XLayerConfig::default()
        }
    }

    /// Every optimization, including the §5 extensions.
    pub fn full() -> XLayerConfig {
        XLayerConfig {
            classify: true,
            mesh_subset_routing: true,
            compute_prio: true,
            scavenger_batch: true,
            host_tc: true,
            dscp_tagging: true,
            net_prio: true,
            ..XLayerConfig::default()
        }
    }

    /// Whether any optimization that needs the priority header is on.
    pub fn any_enabled(&self) -> bool {
        self.mesh_subset_routing
            || self.compute_prio
            || self.scavenger_batch
            || self.host_tc
            || self.dscp_tagging
            || self.net_prio
            || self.sdn_lb
    }

    /// The transport parameters for a request of `priority`:
    /// `(connection class, DSCP, congestion control)`.
    ///
    /// Connections are pooled per priority class regardless of toggles
    /// (separate pools are how Envoy keeps per-route transport config);
    /// with everything off both classes get identical parameters, so the
    /// split is behaviourally invisible.
    pub fn transport_class(&self, priority: Priority, default_cc: CcAlgo) -> (u8, u8, CcAlgo) {
        let class = match priority {
            Priority::High => 0u8,
            Priority::Low => 1u8,
        };
        let dscp = if self.dscp_tagging {
            match priority {
                Priority::High => DSCP_LATENCY,
                Priority::Low => DSCP_BATCH,
            }
        } else {
            0
        };
        let cc = if self.scavenger_batch && priority == Priority::Low {
            self.scavenger_algo
        } else {
            default_cc
        };
        (class, dscp, cc)
    }
}

impl Default for XLayerConfig {
    fn default() -> Self {
        XLayerConfig {
            classify: false,
            mesh_subset_routing: false,
            compute_prio: false,
            scavenger_batch: false,
            scavenger_algo: CcAlgo::Ledbat,
            host_tc: false,
            dscp_tagging: false,
            net_prio: false,
            sdn_lb: false,
        }
    }
}

/// Fraction of bandwidth guaranteed to the high-priority class by the
/// host TC rules ("up to 95 % of bandwidth", §4.3).
pub const HIGH_PRIO_SHARE: f64 = 0.95;

/// (a) The route table for `snap`. With subset routing on, every service
/// that declared `high`/`low` subsets gets two rules ahead of the `base`
/// routes: requests whose priority header says `high` go to the high
/// subset, everything else to the low subset. Services without those
/// subsets keep their passthrough rule. With it off, the base routes.
pub fn apply_routes(base: &RouteTable, cluster: &Cluster, snap: &PolicySnapshot) -> RouteTable {
    if !snap.xlayer.mesh_subset_routing {
        return base.clone();
    }
    let mut routes = RouteTable::new();
    for service in service_names(cluster) {
        let sid = cluster.find_service(&service).expect("listed service");
        let spec = cluster.spec(sid);
        let has_high = spec.subsets.iter().any(|s| s.name == "high");
        let has_low = spec.subsets.iter().any(|s| s.name == "low");
        if !(has_high && has_low) {
            continue;
        }
        // High-priority requests to the high subset...
        routes.push(RouteRule {
            authority: Some(service.clone()),
            path_prefix: None,
            headers: vec![HeaderMatch::Exact(
                HDR_PRIORITY.into(),
                Priority::High.header_value().into(),
            )],
            targets: vec![RouteTarget::subset(service.clone(), "high")],
        });
        // ...everything else (low or unclassified) to the low subset.
        routes.push(RouteRule {
            authority: Some(service.clone()),
            path_prefix: None,
            headers: vec![],
            targets: vec![RouteTarget::subset(service, "low")],
        });
    }
    for r in base.iter() {
        routes.push(r.clone());
    }
    routes
}

/// (a, extension) Set every pod's run-queue priority awareness to
/// `snap`'s `compute_prio`, in place: queued jobs keep their band, only
/// future admissions classify under the new setting. Returns the
/// policy-apply detail.
pub fn apply_compute(cluster: &mut Cluster, snap: &PolicySnapshot) -> String {
    let on = snap.xlayer.compute_prio;
    let n = cluster.pod_count();
    for i in 0..n {
        cluster
            .pod_mut(PodId(i as u32))
            .compute
            .set_priority_aware(on);
    }
    format!("priority_aware={on} pods={n}")
}

/// (c) Host TC on every pod uplink, the pod's virtual NIC egress. On, each
/// uplink gets the priority HTB and filters classifying packets *to or
/// from a high-priority pod* into the high class — the prototype's
/// "packets matching the pod's IP address" rule. Off, each gets the
/// baseline DropTail back. Returns the policy-apply detail.
pub fn apply_host_tc(
    fabric: &mut Fabric,
    cluster: &Cluster,
    snap: &PolicySnapshot,
    now: SimTime,
) -> String {
    let uplinks: Vec<LinkId> = cluster.pods().map(|p| fabric.uplink(p.id)).collect();
    if !snap.xlayer.host_tc {
        return reset_to_droptail(fabric, &uplinks, snap.queue_pkts, now);
    }
    let high_ips = high_subset_ips(cluster);
    let share = installed_share(snap);
    for &id in &uplinks {
        let tc = install_priority_htb(fabric.topology.link_mut(id), share, snap.queue_pkts, now);
        for &ip in &high_ips {
            // Responses and requests flowing toward a high-priority pod.
            tc.add_filter(FilterMatch::any().dst_ip(ip), ClassId(0));
            // And traffic *from* a high-priority pod (e.g. reviews-high
            // calling ratings) — the prototype's bidirectional intent.
            tc.add_filter(FilterMatch::any().src_ip(ip), ClassId(0));
        }
        // DSCP EF still maps high (belt-and-braces with (d)).
        tc.map_dscp(DSCP_LATENCY, ClassId(0));
    }
    format!("htb_installed={} share={share:.2}", uplinks.len())
}

/// (d) Priority queues on every switch-side (downlink) link, classifying
/// on the in-band DSCP tag. Off, each gets the baseline DropTail back.
/// Returns the policy-apply detail.
pub fn apply_net_prio(
    fabric: &mut Fabric,
    cluster: &Cluster,
    snap: &PolicySnapshot,
    now: SimTime,
) -> String {
    let downlinks: Vec<LinkId> = cluster.pods().map(|p| fabric.downlink(p.id)).collect();
    if !snap.xlayer.net_prio {
        return reset_to_droptail(fabric, &downlinks, snap.queue_pkts, now);
    }
    let share = installed_share(snap);
    for &id in &downlinks {
        let tc = install_priority_htb(fabric.topology.link_mut(id), share, snap.queue_pkts, now);
        tc.map_dscp(DSCP_LATENCY, ClassId(0));
        tc.map_dscp(DSCP_BATCH, ClassId(1));
    }
    format!("prio_installed={} share={share:.2}", downlinks.len())
}

/// The high-class share a snapshot installs: its `high_share`, clamped so
/// neither class is starved outright.
fn installed_share(snap: &PolicySnapshot) -> f64 {
    snap.high_share.clamp(0.01, 0.99)
}

/// Swap `link` to the HTB both priority sites use: a high class (priority
/// 0) guaranteed `share` of the line rate and a low class with the rest,
/// both allowed to borrow up to line rate. The qdisc swap keeps the queued
/// backlog. Returns the link's TC table, emptied and defaulting to the low
/// class, for the caller's filters.
fn install_priority_htb(
    link: &mut Link,
    share: f64,
    queue_pkts: usize,
    now: SimTime,
) -> &mut TcTable {
    let rate = link.rate_bps();
    let high_rate = (rate as f64 * share) as u64;
    let qdisc = HtbLite::new(vec![
        HtbClass {
            limit_pkts: queue_pkts,
            ..HtbClass::new(high_rate, rate, 0)
        },
        HtbClass {
            limit_pkts: queue_pkts,
            ..HtbClass::new(rate - high_rate, rate, 1)
        },
    ]);
    link.set_qdisc(Box::new(qdisc), now);
    let tc = link.tc_mut();
    tc.clear();
    tc.set_default_class(ClassId(1));
    tc
}

/// Swap `links` back to the baseline DropTail with no filters. The qdisc
/// swap keeps the queued backlog. Returns the policy-apply detail.
fn reset_to_droptail(
    fabric: &mut Fabric,
    links: &[LinkId],
    queue_pkts: usize,
    now: SimTime,
) -> String {
    for &id in links {
        let link = fabric.topology.link_mut(id);
        link.set_qdisc(Box::new(DropTail::new(queue_pkts)), now);
        let tc = link.tc_mut();
        tc.clear();
        // `clear` drops filters and DSCP mappings but not the default
        // class; restore the baseline band explicitly.
        tc.set_default_class(ClassId(0));
    }
    format!("droptail_reset={}", links.len())
}

/// The pod IPs of every replica in a `high` subset, across all services.
pub fn high_subset_ips(cluster: &Cluster) -> Vec<u32> {
    let mut ips = Vec::new();
    for service in service_names(cluster) {
        for pod in cluster.endpoints(&service, Some("high")) {
            ips.push(cluster.pod(pod).ip);
        }
    }
    ips.sort_unstable();
    ips.dedup();
    ips
}

fn service_names(cluster: &Cluster) -> Vec<String> {
    let mut names: Vec<String> = cluster
        .pods()
        .filter_map(|p| p.labels.get("app").cloned())
        .collect();
    names.sort();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netplan::NetworkPlan;
    use meshlayer_cluster::{ServiceBehavior, ServiceSpec, Subset};
    use meshlayer_http::Request;
    use std::collections::BTreeMap;

    fn labelled(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// A snapshot of `xlayer` at `high_share` (the pushed-policy shape).
    fn snap(xlayer: XLayerConfig, high_share: f64) -> PolicySnapshot {
        PolicySnapshot {
            version: 2,
            xlayer,
            high_share,
            queue_pkts: 512,
        }
    }

    /// Baseline with only `host_tc` on.
    fn host_tc_only() -> XLayerConfig {
        XLayerConfig {
            host_tc: true,
            ..XLayerConfig::baseline()
        }
    }

    fn cluster_with_priority_reviews() -> Cluster {
        let mut c = Cluster::new(&["host"], 64);
        c.deploy(ServiceSpec::new(
            "frontend",
            1,
            ServiceBehavior::respond(1.0),
        ));
        c.deploy(
            ServiceSpec::new("reviews", 2, ServiceBehavior::respond(1.0))
                .with_replica_labels(vec![
                    labelled(&[("prio", "high")]),
                    labelled(&[("prio", "low")]),
                ])
                .with_subset(Subset::label("high", "prio", "high"))
                .with_subset(Subset::label("low", "prio", "low")),
        );
        c.deploy(ServiceSpec::new(
            "ratings",
            1,
            ServiceBehavior::respond(1.0),
        ));
        c
    }

    #[test]
    fn presets() {
        assert!(!XLayerConfig::baseline().any_enabled());
        let p = XLayerConfig::paper_prototype();
        assert!(p.classify && p.mesh_subset_routing && p.host_tc);
        assert!(!p.scavenger_batch && !p.net_prio);
        assert!(XLayerConfig::full().any_enabled());
    }

    #[test]
    fn transport_class_mapping() {
        let base = XLayerConfig::baseline();
        let (c_hi, d_hi, cc_hi) = base.transport_class(Priority::High, CcAlgo::Cubic);
        let (c_lo, d_lo, cc_lo) = base.transport_class(Priority::Low, CcAlgo::Cubic);
        assert_ne!(c_hi, c_lo, "separate pools always");
        assert_eq!(d_hi, 0);
        assert_eq!(d_lo, 0, "no tagging in baseline");
        assert_eq!(cc_hi, CcAlgo::Cubic);
        assert_eq!(cc_lo, CcAlgo::Cubic);

        let full = XLayerConfig::full();
        let (_, d_hi, cc_hi) = full.transport_class(Priority::High, CcAlgo::Cubic);
        let (_, d_lo, cc_lo) = full.transport_class(Priority::Low, CcAlgo::Cubic);
        assert_eq!(d_hi, DSCP_LATENCY);
        assert_eq!(d_lo, DSCP_BATCH);
        assert_eq!(cc_hi, CcAlgo::Cubic);
        assert_eq!(cc_lo, CcAlgo::Ledbat, "scavenger for batch");
    }

    #[test]
    fn priority_routes_split_reviews() {
        let c = cluster_with_priority_reviews();
        let mut base = RouteTable::new();
        base.push(RouteRule::passthrough("frontend"));
        base.push(RouteRule::passthrough("reviews"));
        base.push(RouteRule::passthrough("ratings"));
        let routes = apply_routes(&base, &c, &snap(XLayerConfig::paper_prototype(), 0.95));
        // High request to reviews -> subset high.
        let hi = Request::get("reviews", "/r").with_header(HDR_PRIORITY, "high");
        let r = routes.resolve(&hi).unwrap();
        assert_eq!(r.targets[0].subset.as_deref(), Some("high"));
        // Low and unlabelled -> subset low.
        let lo = Request::get("reviews", "/r").with_header(HDR_PRIORITY, "low");
        assert_eq!(
            routes.resolve(&lo).unwrap().targets[0].subset.as_deref(),
            Some("low")
        );
        let none = Request::get("reviews", "/r");
        assert_eq!(
            routes.resolve(&none).unwrap().targets[0].subset.as_deref(),
            Some("low")
        );
        // Other services untouched.
        let f = Request::get("frontend", "/").with_header(HDR_PRIORITY, "high");
        assert!(routes.resolve(&f).unwrap().targets[0].subset.is_none());
    }

    #[test]
    fn high_subset_ips_finds_reviews_high() {
        let c = cluster_with_priority_reviews();
        let ips = high_subset_ips(&c);
        assert_eq!(ips.len(), 1);
        let high_pod = c.endpoints("reviews", Some("high"))[0];
        assert_eq!(ips[0], c.pod(high_pod).ip);
    }

    #[test]
    fn host_tc_installs_on_every_uplink() {
        let c = cluster_with_priority_reviews();
        let mut fabric = Fabric::build(&c, &NetworkPlan::default());
        let detail = apply_host_tc(&mut fabric, &c, &snap(host_tc_only(), 0.95), SimTime::ZERO);
        assert_eq!(
            detail,
            format!("htb_installed={} share=0.95", c.pod_count())
        );
        // Uplink filters classify packets to the high pod as class 0.
        let high_ip = high_subset_ips(&c)[0];
        let ratings = c.endpoints("ratings", None)[0];
        let up = fabric.uplink(ratings);
        let tc = fabric.topology.link(up).tc();
        let mut pkt = meshlayer_netsim::Packet::data(1, NodeIdOf(0), NodeIdOf(1), 1, 0, 100, 0);
        pkt.dst_ip = high_ip;
        assert_eq!(tc.classify(&pkt), ClassId(0));
        pkt.dst_ip = 999;
        assert_eq!(tc.classify(&pkt), ClassId(1));
    }

    #[allow(non_snake_case)]
    fn NodeIdOf(n: u32) -> meshlayer_netsim::NodeId {
        meshlayer_netsim::NodeId(n)
    }

    #[test]
    fn host_tc_reset_restores_baseline() {
        let c = cluster_with_priority_reviews();
        let mut fabric = Fabric::build(&c, &NetworkPlan::default());
        apply_host_tc(&mut fabric, &c, &snap(host_tc_only(), 0.8), SimTime::ZERO);
        let ratings = c.endpoints("ratings", None)[0];
        let up = fabric.uplink(ratings);
        assert!(!fabric.topology.link(up).tc().is_empty());

        let off = snap(XLayerConfig::baseline(), 0.8);
        let detail = apply_host_tc(&mut fabric, &c, &off, SimTime::ZERO);
        assert_eq!(detail, format!("droptail_reset={}", c.pod_count()));
        let tc = fabric.topology.link(up).tc();
        assert!(tc.is_empty());
        // Untagged and tagged packets alike land in the default band 0.
        let pkt =
            meshlayer_netsim::Packet::data(1, NodeIdOf(0), NodeIdOf(1), 1, 0, 100, DSCP_LATENCY);
        assert_eq!(tc.classify(&pkt), ClassId(0));
    }

    #[test]
    fn net_prio_classifies_on_dscp() {
        let c = cluster_with_priority_reviews();
        let mut fabric = Fabric::build(&c, &NetworkPlan::default());
        let on = XLayerConfig {
            net_prio: true,
            ..XLayerConfig::baseline()
        };
        let detail = apply_net_prio(&mut fabric, &c, &snap(on, 0.95), SimTime::ZERO);
        assert_eq!(
            detail,
            format!("prio_installed={} share=0.95", c.pod_count())
        );
        let frontend = c.endpoints("frontend", None)[0];
        let down = fabric.downlink(frontend);
        let tc = fabric.topology.link(down).tc();
        let mut pkt =
            meshlayer_netsim::Packet::data(1, NodeIdOf(0), NodeIdOf(1), 1, 0, 100, DSCP_LATENCY);
        assert_eq!(tc.classify(&pkt), ClassId(0));
        pkt.dscp = DSCP_BATCH;
        assert_eq!(tc.classify(&pkt), ClassId(1));
        pkt.dscp = 0;
        assert_eq!(tc.classify(&pkt), ClassId(1), "untagged is low");
    }

    #[test]
    fn apply_detail_reports_the_installed_share() {
        let c = cluster_with_priority_reviews();
        let mut fabric = Fabric::build(&c, &NetworkPlan::default());
        let n = c.pod_count();
        let full = snap(XLayerConfig::full(), 1.0);
        let detail = apply_host_tc(&mut fabric, &c, &full, SimTime::ZERO);
        assert_eq!(detail, format!("htb_installed={n} share=0.99"));
        let detail = apply_net_prio(&mut fabric, &c, &full, SimTime::ZERO);
        assert_eq!(detail, format!("prio_installed={n} share=0.99"));
    }
}
