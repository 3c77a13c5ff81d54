//! The dynamic policy plane: versioned runtime reconfiguration.
//!
//! The paper's vision (§3, §5) is a mesh that *continuously* re-optimizes
//! the stack — "the service mesh could use this [congestion info] to
//! control request rates or adjust load balancing". This module turns the
//! four §4.2 optimization sites from construction-time parameters into
//! live control surfaces:
//!
//! * a [`PolicySnapshot`] is one immutable, versioned policy — the
//!   [`crate::XLayerConfig`] toggles plus the TC bandwidth share and
//!   queue sizing that parameterize them;
//! * the route table, the compute queues, host TC and the fabric queues
//!   are each reconfigured by one plain function that takes the snapshot:
//!   [`xlayer::apply_routes`], [`xlayer::apply_compute`],
//!   [`xlayer::apply_host_tc`] and [`xlayer::apply_net_prio`]. The same
//!   functions program policy v1 at build time and every later version
//!   at runtime (sidecar config sync and transport re-profiling happen in
//!   the engine's apply handler);
//! * [`PolicyPlane`] tracks the push/ack protocol: the control plane
//!   proposes a version, fans out per-layer applies at simulated time,
//!   and the version counts as *converged* once every layer has acked;
//! * [`AdaptationController`] closes the loop: driven from the telemetry
//!   scrape, it watches SLO burn-rate alerts and SDN congestion and
//!   proposes a new policy when the watched class starts burning.
//!
//! Every apply is recorded as a flight-recorder `policy-apply` decision
//! frame, so a replay catches control-plane divergence exactly like any
//! data-plane divergence.

use crate::xlayer::{self, XLayerConfig};
use meshlayer_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// One immutable, versioned policy: everything the control plane pushes.
///
/// Wraps the cross-layer toggles with the scalar parameters they are
/// installed with, so "what was the fleet running at t=4s?" has a single
/// answer with a single version number.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicySnapshot {
    /// Monotonic policy version (1 = the configuration built at t=0).
    pub version: u64,
    /// The cross-layer optimization toggles.
    pub xlayer: XLayerConfig,
    /// Bandwidth share guaranteed to the high class by TC rules.
    pub high_share: f64,
    /// Queue capacity (packets) for installed qdiscs.
    pub queue_pkts: usize,
}

impl PolicySnapshot {
    /// Every toggle as a `(name, value)` pair, for rendering and diffs.
    pub fn toggles(&self) -> Vec<(&'static str, String)> {
        let x = &self.xlayer;
        vec![
            ("classify", x.classify.to_string()),
            ("mesh_subset_routing", x.mesh_subset_routing.to_string()),
            ("compute_prio", x.compute_prio.to_string()),
            ("scavenger_batch", x.scavenger_batch.to_string()),
            ("scavenger_algo", format!("{:?}", x.scavenger_algo)),
            ("host_tc", x.host_tc.to_string()),
            ("dscp_tagging", x.dscp_tagging.to_string()),
            ("net_prio", x.net_prio.to_string()),
            ("sdn_lb", x.sdn_lb.to_string()),
            ("high_share", format!("{:.2}", self.high_share)),
            ("queue_pkts", self.queue_pkts.to_string()),
        ]
    }

    /// Human-readable dump (one toggle per line).
    pub fn render(&self) -> String {
        let mut out = format!("policy v{}\n", self.version);
        for (name, value) in self.toggles() {
            out.push_str(&format!("  {name:<20} {value}\n"));
        }
        out
    }

    /// Toggle-level diff: `(name, self value, other value)` for every
    /// toggle that differs.
    pub fn diff(&self, other: &PolicySnapshot) -> Vec<(&'static str, String, String)> {
        self.toggles()
            .into_iter()
            .zip(other.toggles())
            .filter(|(a, b)| a.1 != b.1)
            .map(|((name, from), (_, to))| (name, from, to))
            .collect()
    }
}

/// The reconfigurable layers, in fan-out order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PolicyLayer {
    /// Sidecar config + route table (per-sidecar apply).
    Mesh = 0,
    /// Congestion-control / DSCP selection on live connections.
    Transport = 1,
    /// HTB + filters at every pod's virtual NIC egress.
    HostTc = 2,
    /// Priority queues on the fabric's switch-side links.
    Fabric = 3,
    /// Priority-aware compute queues in the pods.
    Compute = 4,
}

impl PolicyLayer {
    /// The fleet-wide layers (everything except the per-sidecar mesh).
    pub const GLOBAL: [PolicyLayer; 4] = [
        PolicyLayer::Transport,
        PolicyLayer::HostTc,
        PolicyLayer::Fabric,
        PolicyLayer::Compute,
    ];

    /// Stable wire discriminant (part of the flight-recorder format).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`PolicyLayer::code`].
    pub fn from_code(code: u8) -> Option<PolicyLayer> {
        Some(match code {
            0 => PolicyLayer::Mesh,
            1 => PolicyLayer::Transport,
            2 => PolicyLayer::HostTc,
            3 => PolicyLayer::Fabric,
            4 => PolicyLayer::Compute,
            _ => return None,
        })
    }

    /// Short label for decision frames and dumps.
    pub fn label(self) -> &'static str {
        match self {
            PolicyLayer::Mesh => "mesh",
            PolicyLayer::Transport => "transport",
            PolicyLayer::HostTc => "host-tc",
            PolicyLayer::Fabric => "fabric",
            PolicyLayer::Compute => "compute",
        }
    }
}

// ---------------------------------------------------------------------------
// Version tracking: the push/ack protocol
// ---------------------------------------------------------------------------

/// One proposed policy change and its convergence record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PolicyTransition {
    /// The version proposed.
    pub version: u64,
    /// Why (e.g. `slo-burn:latency-sensitive` or `scheduled`).
    pub reason: String,
    /// When the push was proposed.
    pub proposed_at: SimTime,
    /// When the last layer acked, once converged.
    pub converged_at: Option<SimTime>,
}

/// The control plane's view of policy versions: full history, the
/// in-flight push, and the latest fully-converged version.
pub struct PolicyPlane {
    history: Vec<PolicySnapshot>,
    transitions: Vec<PolicyTransition>,
    /// Highest version every layer has acked.
    converged: u64,
    /// Acks still outstanding for the in-flight push.
    outstanding: usize,
    /// The version being pushed, while acks are outstanding.
    pushing: Option<u64>,
}

impl PolicyPlane {
    /// A plane whose version 1 is the configuration built at t=0 (applied
    /// directly at construction, no push needed).
    pub fn new(xlayer: XLayerConfig, high_share: f64, queue_pkts: usize) -> PolicyPlane {
        PolicyPlane {
            history: vec![PolicySnapshot {
                version: 1,
                xlayer,
                high_share,
                queue_pkts,
            }],
            transitions: Vec::new(),
            converged: 1,
            outstanding: 0,
            pushing: None,
        }
    }

    /// Register a new policy version for pushing; returns it.
    pub fn propose(
        &mut self,
        xlayer: XLayerConfig,
        high_share: f64,
        queue_pkts: usize,
        at: SimTime,
        reason: &str,
    ) -> u64 {
        let version = self.history.last().expect("v1 exists").version + 1;
        self.history.push(PolicySnapshot {
            version,
            xlayer,
            high_share,
            queue_pkts,
        });
        self.transitions.push(PolicyTransition {
            version,
            reason: reason.to_string(),
            proposed_at: at,
            converged_at: None,
        });
        version
    }

    /// The snapshot of a version, if it exists.
    pub fn snapshot(&self, version: u64) -> Option<&PolicySnapshot> {
        self.history.iter().find(|s| s.version == version)
    }

    /// The newest proposed snapshot (not necessarily converged).
    pub fn latest(&self) -> &PolicySnapshot {
        self.history.last().expect("v1 exists")
    }

    /// The highest version every layer has acked.
    pub fn converged_version(&self) -> u64 {
        self.converged
    }

    /// Start the fan-out for `version`, expecting `acks` layer applies.
    pub fn begin_push(&mut self, version: u64, acks: usize) {
        self.pushing = Some(version);
        self.outstanding = acks;
    }

    /// One layer acked `version`. Returns `true` when this ack completes
    /// convergence (all acks in).
    pub fn ack(&mut self, version: u64, now: SimTime) -> bool {
        if self.pushing != Some(version) || self.outstanding == 0 {
            return false;
        }
        self.outstanding -= 1;
        if self.outstanding > 0 {
            return false;
        }
        self.pushing = None;
        self.converged = self.converged.max(version);
        if let Some(t) = self.transitions.iter_mut().find(|t| t.version == version) {
            t.converged_at = Some(now);
        }
        true
    }

    /// Every proposed transition, in proposal order.
    pub fn transitions(&self) -> &[PolicyTransition] {
        &self.transitions
    }

    /// All snapshots, v1 first.
    pub fn history(&self) -> &[PolicySnapshot] {
        &self.history
    }
}

// ---------------------------------------------------------------------------
// The adaptation controller: telemetry → policy, closed loop
// ---------------------------------------------------------------------------

/// What the adaptation loop watches and what it switches to.
#[derive(Clone, Debug)]
pub struct AdaptationConfig {
    /// SLO class whose burn-rate alert triggers the switch.
    pub watch_class: String,
    /// The policy to push when the alert fires.
    pub on_alert: XLayerConfig,
    /// TC share to install with it.
    pub high_share: f64,
}

impl AdaptationConfig {
    /// Watch `class` and switch to `on_alert` when it burns.
    pub fn new(class: impl Into<String>, on_alert: XLayerConfig) -> AdaptationConfig {
        AdaptationConfig {
            watch_class: class.into(),
            on_alert,
            high_share: xlayer::HIGH_PRIO_SHARE,
        }
    }
}

/// The closed loop: reads the SLO monitor's live burn state (and the SDN
/// controller's congestion view) each telemetry scrape, and proposes the
/// configured policy the first time the watched class burns. One-shot by
/// design — the push itself is versioned and observable, so repeated
/// flapping would only obscure the experiment.
pub struct AdaptationController {
    cfg: AdaptationConfig,
    fired: bool,
}

impl AdaptationController {
    /// A controller that has not fired yet.
    pub fn new(cfg: AdaptationConfig) -> AdaptationController {
        AdaptationController { cfg, fired: false }
    }

    /// The SLO class being watched.
    pub fn watch_class(&self) -> &str {
        &self.cfg.watch_class
    }

    /// Whether the controller already proposed its switch.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Telemetry-scrape hook: `burning` is the watched class's live
    /// burn-alert state, `congested` whether the SDN controller sees any
    /// congested link. Returns the policy to propose, once.
    pub fn on_scrape(
        &mut self,
        burning: bool,
        congested: bool,
    ) -> Option<(XLayerConfig, f64, String)> {
        if self.fired || !(burning || congested) {
            return None;
        }
        self.fired = true;
        let why = if burning {
            "slo-burn"
        } else {
            "sdn-congestion"
        };
        Some((
            self.cfg.on_alert,
            self.cfg.high_share,
            format!("{why}:{}", self.cfg.watch_class),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(version: u64, xlayer: XLayerConfig) -> PolicySnapshot {
        PolicySnapshot {
            version,
            xlayer,
            high_share: 0.95,
            queue_pkts: 512,
        }
    }

    #[test]
    fn diff_lists_only_changed_toggles() {
        let a = snap(1, XLayerConfig::baseline());
        let b = snap(2, XLayerConfig::paper_prototype());
        let d = a.diff(&b);
        let names: Vec<&str> = d.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, vec!["classify", "mesh_subset_routing", "host_tc"]);
        for (_, from, to) in &d {
            assert_eq!(from, "false");
            assert_eq!(to, "true");
        }
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn render_mentions_version_and_toggles() {
        let s = snap(3, XLayerConfig::full());
        let r = s.render();
        assert!(r.contains("policy v3"));
        assert!(r.contains("host_tc"));
        assert!(r.contains("queue_pkts"));
    }

    #[test]
    fn layer_codes_round_trip() {
        for l in [
            PolicyLayer::Mesh,
            PolicyLayer::Transport,
            PolicyLayer::HostTc,
            PolicyLayer::Fabric,
            PolicyLayer::Compute,
        ] {
            assert_eq!(PolicyLayer::from_code(l.code()), Some(l));
        }
        assert_eq!(PolicyLayer::from_code(99), None);
    }

    #[test]
    fn push_ack_converges_after_all_acks() {
        let mut p = PolicyPlane::new(XLayerConfig::baseline(), 0.95, 512);
        assert_eq!(p.converged_version(), 1);
        let v = p.propose(
            XLayerConfig::paper_prototype(),
            0.95,
            512,
            SimTime::from_secs(2),
            "scheduled",
        );
        assert_eq!(v, 2);
        p.begin_push(v, 3);
        let t = SimTime::from_secs(3);
        assert!(!p.ack(v, t));
        assert!(!p.ack(v, t));
        assert_eq!(p.converged_version(), 1, "not converged until last ack");
        assert!(p.ack(v, t));
        assert_eq!(p.converged_version(), 2);
        assert_eq!(p.transitions()[0].converged_at, Some(t));
        // Extra/stale acks are ignored.
        assert!(!p.ack(v, t));
        assert!(!p.ack(99, t));
    }

    #[test]
    fn snapshot_lookup_by_version() {
        let mut p = PolicyPlane::new(XLayerConfig::baseline(), 0.95, 512);
        p.propose(XLayerConfig::full(), 0.9, 256, SimTime::ZERO, "x");
        assert!(p.snapshot(1).unwrap().xlayer == XLayerConfig::baseline());
        assert!(p.snapshot(2).unwrap().xlayer == XLayerConfig::full());
        assert!(p.snapshot(3).is_none());
        assert_eq!(p.latest().version, 2);
        assert_eq!(p.history().len(), 2);
    }

    #[test]
    fn adaptation_fires_once_on_burn() {
        let mut a =
            AdaptationController::new(AdaptationConfig::new("ls", XLayerConfig::paper_prototype()));
        assert!(a.on_scrape(false, false).is_none());
        assert!(!a.fired());
        let (cfg, share, reason) = a.on_scrape(true, false).expect("fires");
        assert_eq!(cfg, XLayerConfig::paper_prototype());
        assert!((share - xlayer::HIGH_PRIO_SHARE).abs() < 1e-9);
        assert_eq!(reason, "slo-burn:ls");
        assert!(a.fired());
        assert!(a.on_scrape(true, false).is_none(), "one-shot");
    }

    #[test]
    fn adaptation_fires_on_congestion_signal() {
        let mut a = AdaptationController::new(AdaptationConfig::new("ls", XLayerConfig::full()));
        let (_, _, reason) = a.on_scrape(false, true).expect("fires");
        assert_eq!(reason, "sdn-congestion:ls");
    }

    #[test]
    fn route_table_apply_rebuilds_priority_rules() {
        use meshlayer_cluster::{Cluster, ServiceBehavior, ServiceSpec, Subset};
        use meshlayer_http::{Request, RouteRule, RouteTable, HDR_PRIORITY};
        use std::collections::BTreeMap;

        let mut c = Cluster::new(&["h"], 16);
        let labels = |v: &str| -> BTreeMap<String, String> {
            [("prio".to_string(), v.to_string())].into_iter().collect()
        };
        c.deploy(
            ServiceSpec::new("reviews", 2, ServiceBehavior::respond(1.0))
                .with_replica_labels(vec![labels("high"), labels("low")])
                .with_subset(Subset::label("high", "prio", "high"))
                .with_subset(Subset::label("low", "prio", "low")),
        );
        let mut base = RouteTable::new();
        base.push(RouteRule::passthrough("reviews"));

        let on = snap(2, XLayerConfig::paper_prototype());
        let live = xlayer::apply_routes(&base, &c, &on);
        let hi = Request::get("reviews", "/").with_header(HDR_PRIORITY, "high");
        assert_eq!(
            live.resolve(&hi).unwrap().targets[0].subset.as_deref(),
            Some("high")
        );

        // Flipping back off restores the base table exactly.
        let off = snap(3, XLayerConfig::baseline());
        let live = xlayer::apply_routes(&base, &c, &off);
        assert!(live.resolve(&hi).unwrap().targets[0].subset.is_none());
        assert_eq!(live.iter().count(), base.iter().count());
    }

    #[test]
    fn cluster_apply_flips_compute_everywhere() {
        use meshlayer_cluster::{Cluster, ServiceBehavior, ServiceSpec};
        let mut c = Cluster::new(&["h"], 16);
        c.deploy(ServiceSpec::new("svc", 3, ServiceBehavior::respond(1.0)));
        let mut x = XLayerConfig::baseline();
        x.compute_prio = true;
        let detail = xlayer::apply_compute(&mut c, &snap(2, x));
        assert!(detail.contains("priority_aware=true"));
        for p in c.pods() {
            assert!(p.compute.priority_aware());
        }
    }

    #[test]
    fn host_tc_surface_installs_and_resets() {
        use crate::netplan::{Fabric, NetworkPlan};
        use meshlayer_cluster::{Cluster, ServiceBehavior, ServiceSpec};
        let mut c = Cluster::new(&["h"], 16);
        c.deploy(ServiceSpec::new("svc", 2, ServiceBehavior::respond(1.0)));
        let mut f = Fabric::build(&c, &NetworkPlan::default());
        let pod = c.endpoints("svc", None)[0];

        let mut on = XLayerConfig::baseline();
        on.host_tc = true;
        let detail = xlayer::apply_host_tc(&mut f, &c, &snap(2, on), SimTime::ZERO);
        assert!(detail.contains("htb_installed="), "{detail}");

        let off = snap(3, XLayerConfig::baseline());
        let detail = xlayer::apply_host_tc(&mut f, &c, &off, SimTime::ZERO);
        assert!(detail.contains("droptail_reset="), "{detail}");
        // After the reset the uplink TC table is empty again.
        let up = f.uplink(pod);
        assert!(f.topology.link(up).tc().is_empty());
    }
}
