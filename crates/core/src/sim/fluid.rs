//! The fluid traffic plane: background classes as deterministic rate
//! flows (DESIGN.md §14).
//!
//! A workload declared [`Granularity::Fluid`] never generates per-request
//! packets. Instead its offered load becomes piecewise-constant rate
//! flows — one per (ingress, authority replica) pair, each carrying an
//! equal share of the class's byte rate — routed over the same
//! hierarchical topology as packet traffic. A max-min fair-share solver
//! admits as much of the aggregate demand as the fabric can carry
//! (capped per link so per-packet traffic always keeps its guaranteed
//! share, see [`Link::MIN_PACKET_SHARE_DIV`]), and the admitted rates
//! are written into every traversed link's `fluid_bps` reservation —
//! which the qdisc model subtracts from the serialization rate, so
//! foreground packets see the background load as slower drains and
//! longer queues.
//!
//! Rates change only at [`Ev::FluidUpdate`] events: the initial solve at
//! time zero, a coarse epoch tick ([`EPOCH_MS`]), and chaos-driven link
//! changes. Each update first *settles* the closing window — converting
//! each flow's constant rates into exact byte counts with integer
//! carry arithmetic, so `injected == delivered + dropped` holds exactly
//! per flow at any epoch length — then re-solves allocations for the
//! next window. The event is wire-coded and FNV-digested like any
//! other, so fluid worlds record and replay like all-packet ones.
//!
//! Deliberate model limitation: a fluid class's load is applied on the
//! ingress→replica path only; the downstream fan-out its requests would
//! trigger per-packet is *not* re-modeled as derived flows. That elision
//! is exactly where the event-count savings come from, and the matched-
//! load comparison in EXPERIMENTS.md quantifies the resulting foreground
//! latency error.

use super::store::Sidecars;
use super::{Ev, Simulation};
use crate::netplan::Fabric;
use meshlayer_cluster::{Cluster, PodId};
use meshlayer_netsim::{Link, LinkId};
use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_workload::{Granularity, WorkloadSpec};

/// `FluidUpdate` cause: the initial solve seeded at time zero.
pub(crate) const CAUSE_SEED: u8 = 0;
/// `FluidUpdate` cause: the coarse self-rescheduling epoch tick.
pub(crate) const CAUSE_EPOCH: u8 = 1;
/// `FluidUpdate` cause: a chaos-plane fault changed link state.
pub(crate) const CAUSE_CHAOS: u8 = 2;

/// Epoch-tick period, milliseconds: how often rates are re-solved even
/// with no topology change. Coarse by design — the whole point is that
/// background load costs O(links) work per epoch, not O(packets).
pub(crate) const EPOCH_MS: u64 = 500;

/// Per-request wire overhead assumed when converting a fluid class's
/// request rate into a byte rate: method/path/header framing on top of
/// the body (matches the typical `/op` request wire size of the
/// generated-topology worlds).
pub(crate) const REQ_OVERHEAD_BYTES: u64 = 66;

/// One deterministic rate flow.
pub(crate) struct Flow {
    /// Workload class the flow carries (reporting only).
    pub class: String,
    /// Destination pod (an authority replica); delivered bytes are
    /// accounted at this pod's sidecar.
    pub dst: PodId,
    /// Offered rate, bits/second.
    pub demand_bps: u64,
    /// Admitted rate after the last solve, bits/second.
    pub alloc_bps: u64,
    /// Links traversed src→dst (resolved lazily at the first solve).
    pub path: Vec<LinkId>,
    /// Injection carry: `demand_bps·dt` remainder modulo 8·10⁹.
    inj_carry: u64,
    /// Delivery carry: `alloc_bps·dt` remainder modulo 8·10⁹.
    del_carry: u64,
    /// Cumulative bytes injected (offered) by the class.
    pub injected_bytes: u64,
    /// Cumulative bytes delivered to `dst`.
    pub delivered_bytes: u64,
    /// Cumulative bytes dropped (demand the solver could not admit).
    pub dropped_bytes: u64,
}

/// Convert a constant bit rate over a window into exact bytes, carrying
/// the sub-byte remainder to the next window so no byte is ever lost or
/// double-counted: `bytes = (bps·dt_ns + carry) / 8e9`.
fn settle_bytes(bps: u64, dt_ns: u64, carry: &mut u64) -> u64 {
    const DENOM: u128 = 8 * 1_000_000_000;
    let total = bps as u128 * dt_ns as u128 + *carry as u128;
    *carry = (total % DENOM) as u64;
    (total / DENOM) as u64
}

/// Per-flow byte deltas of one settled window.
pub(crate) struct Settled {
    /// Flow index.
    pub flow: usize,
    /// Bytes delivered in the window.
    pub delivered: u64,
    /// Bytes dropped in the window.
    pub dropped: u64,
}

/// The fluid plane's runtime state, owned by the [`Simulation`].
#[derive(Default)]
pub(crate) struct FluidRt {
    /// All flows, in deterministic (workload, replica) order.
    pub(crate) flows: Vec<Flow>,
    /// When the currently-open rate window started.
    last_settle: SimTime,
    /// Whether flow paths have been resolved against the topology.
    paths_built: bool,
}

impl FluidRt {
    /// Derive the flow set from the workloads: every `Granularity::Fluid`
    /// workload contributes one flow per replica of its authority
    /// service, from the ingress gateway, each carrying an equal share
    /// of the class's offered byte rate (the first flows absorb the
    /// division remainder so aggregate demand is conserved exactly).
    pub(crate) fn build(workloads: &[WorkloadSpec], cluster: &Cluster) -> FluidRt {
        let mut flows = Vec::new();
        for w in workloads {
            if w.granularity != Granularity::Fluid {
                continue;
            }
            let replicas = cluster.endpoints(&w.authority, None);
            if replicas.is_empty() {
                continue;
            }
            let total = w.offered_bps(REQ_OVERHEAD_BYTES);
            let n = replicas.len() as u64;
            let share = total / n;
            let rem = total % n;
            for (i, dst) in replicas.into_iter().enumerate() {
                flows.push(Flow {
                    class: w.name.clone(),
                    dst,
                    demand_bps: share + u64::from((i as u64) < rem),
                    alloc_bps: 0,
                    path: Vec::new(),
                    inj_carry: 0,
                    del_carry: 0,
                    injected_bytes: 0,
                    delivered_bytes: 0,
                    dropped_bytes: 0,
                });
            }
        }
        FluidRt {
            flows,
            last_settle: SimTime::ZERO,
            paths_built: false,
        }
    }

    /// Whether any fluid workload exists (drives event seeding: an
    /// all-packet world pushes no `FluidUpdate` and keeps its exact
    /// historical event stream).
    pub(crate) fn active(&self) -> bool {
        !self.flows.is_empty()
    }

    /// The epoch-tick period.
    pub(crate) fn epoch(&self) -> SimDuration {
        SimDuration::from_millis(EPOCH_MS)
    }

    /// Close the window `[last_settle, now)`: convert each flow's
    /// demand/alloc rates into exact byte counts. Per window
    /// `delivered = min(alloc·dt, injected)` and
    /// `dropped = injected − delivered`, so cumulative
    /// `injected == delivered + dropped` holds exactly for every flow.
    pub(crate) fn settle(&mut self, now: SimTime) -> Vec<Settled> {
        let dt = now.saturating_since(self.last_settle).as_nanos();
        self.last_settle = now;
        if dt == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.flows.len());
        for (i, f) in self.flows.iter_mut().enumerate() {
            let inj = settle_bytes(f.demand_bps, dt, &mut f.inj_carry);
            let del = settle_bytes(f.alloc_bps, dt, &mut f.del_carry).min(inj);
            let dropped = inj - del;
            f.injected_bytes += inj;
            f.delivered_bytes += del;
            f.dropped_bytes += dropped;
            if del > 0 || dropped > 0 {
                out.push(Settled {
                    flow: i,
                    delivered: del,
                    dropped,
                });
            }
        }
        out
    }

    /// Max-min fair-share solve over the current topology (progressive
    /// filling with integer arithmetic): repeatedly find the bottleneck
    /// fair share, freeze the flows it constrains, subtract, repeat.
    /// A link's fluid capacity is its rate minus the guaranteed packet
    /// share; an administratively-down link has capacity zero, so flows
    /// crossing it are starved (killed) until the link heals.
    pub(crate) fn solve(&mut self, fabric: &Fabric) {
        debug_assert!(self.paths_built, "solve before ensure_paths");
        let n_links = fabric.topology.link_count();
        // Per-link residual fluid capacity and unfrozen-flow count.
        let mut resid: Vec<u64> = vec![0; n_links];
        let mut users: Vec<u64> = vec![0; n_links];
        for l in fabric.topology.links() {
            resid[l.id().0 as usize] = if l.is_admin_up() {
                l.rate_bps() - l.rate_bps() / Link::MIN_PACKET_SHARE_DIV
            } else {
                0
            };
        }
        let mut frozen: Vec<bool> = vec![false; self.flows.len()];
        let mut remaining = 0usize;
        for (i, f) in self.flows.iter_mut().enumerate() {
            f.alloc_bps = 0;
            if f.demand_bps == 0 {
                frozen[i] = true;
            } else if f.path.is_empty() {
                // Same-node flow: no link constrains it.
                f.alloc_bps = f.demand_bps;
                frozen[i] = true;
            } else {
                for &lid in &f.path {
                    users[lid.0 as usize] += 1;
                }
                remaining += 1;
            }
        }
        while remaining > 0 {
            // The bottleneck fair share this round.
            let mut share = u64::MAX;
            for (l, &u) in users.iter().enumerate() {
                if let Some(s) = resid[l].checked_div(u) {
                    share = share.min(s);
                }
            }
            // Flows whose demand is at or below the share are satisfied;
            // if none, the bottleneck's flows freeze at the share. Each
            // round freezes at least one flow, bounding the loop.
            let satisfied = self
                .flows
                .iter()
                .enumerate()
                .any(|(i, f)| !frozen[i] && f.demand_bps <= share);
            // Indexing instead of iterators: the body re-borrows
            // `self.flows` mutably after reading the candidate.
            #[allow(clippy::needless_range_loop)]
            for i in 0..self.flows.len() {
                if frozen[i] {
                    continue;
                }
                let f = &self.flows[i];
                let freeze_at = if satisfied {
                    if f.demand_bps > share {
                        continue;
                    }
                    f.demand_bps
                } else {
                    // No demand-limited flow: everyone crossing the
                    // bottleneck is rate-limited at the share. Freezing
                    // *all* unfrozen flows at the current share is the
                    // fixed point (the share can only grow once the
                    // bottleneck's flows are removed, and those are
                    // exactly the flows pinning it).
                    let limit = f
                        .path
                        .iter()
                        .map(|&lid| resid[lid.0 as usize] / users[lid.0 as usize])
                        .min()
                        .unwrap_or(u64::MAX);
                    if limit > share {
                        continue;
                    }
                    share
                };
                frozen[i] = true;
                remaining -= 1;
                let f = &mut self.flows[i];
                f.alloc_bps = freeze_at;
                for &lid in &f.path {
                    let l = lid.0 as usize;
                    resid[l] = resid[l].saturating_sub(freeze_at);
                    users[l] -= 1;
                }
            }
        }
    }

    /// Resolve each flow's link path against the (static) routing
    /// topology. Called once, at the first `FluidUpdate`.
    pub(crate) fn ensure_paths(&mut self, fabric: &mut Fabric, ingress: PodId) {
        if self.paths_built {
            return;
        }
        let src_node = fabric.node_of(ingress);
        for f in &mut self.flows {
            let dst_node = fabric.node_of(f.dst);
            if src_node != dst_node {
                f.path = fabric.topology.path(src_node, dst_node).links;
            }
        }
        self.paths_built = true;
    }

    /// Sum of admitted rates per link, dense by `LinkId.0`.
    pub(crate) fn link_sums(&self, n_links: usize) -> Vec<u64> {
        let mut sums = vec![0u64; n_links];
        for f in &self.flows {
            for &lid in &f.path {
                sums[lid.0 as usize] += f.alloc_bps;
            }
        }
        sums
    }

    /// Aggregate (demand, alloc) over all flows, bits/second.
    pub(crate) fn totals_bps(&self) -> (u64, u64) {
        self.flows
            .iter()
            .fold((0, 0), |(d, a), f| (d + f.demand_bps, a + f.alloc_bps))
    }

    /// Settle the window that closed at `now` into per-link and
    /// per-sidecar byte counters, re-solve fair-share allocations over the
    /// current topology and refresh every link's `fluid_bps` reservation.
    /// Returns the window's `(delivered, dropped)` bytes.
    fn update(
        &mut self,
        now: SimTime,
        fabric: &mut Fabric,
        sidecars: &mut Sidecars,
        ingress: PodId,
    ) -> (u64, u64) {
        self.ensure_paths(fabric, ingress);
        let mut window = (0u64, 0u64);
        for s in self.settle(now) {
            let flow = &self.flows[s.flow];
            for &lid in &flow.path {
                fabric
                    .topology
                    .link_mut(lid)
                    .add_fluid_bytes(s.delivered, 0);
            }
            // Drops are charged to the first hop — where an admitted
            // excess would have queued and overflowed.
            if s.dropped > 0 {
                if let Some(&first) = flow.path.first() {
                    fabric
                        .topology
                        .link_mut(first)
                        .add_fluid_bytes(0, s.dropped);
                }
            }
            if let Some(sc) = sidecars.get_mut(flow.dst) {
                sc.account_fluid_bytes(s.delivered);
            }
            window.0 += s.delivered;
            window.1 += s.dropped;
        }

        // Re-solve and push the new reservations into the qdisc model.
        self.solve(fabric);
        let sums = self.link_sums(fabric.topology.link_count());
        for (idx, sum) in sums.into_iter().enumerate() {
            fabric
                .topology
                .link_mut(LinkId(idx as u32))
                .set_fluid_bps(sum);
        }
        window
    }
}

impl Simulation {
    /// Handle one [`Ev::FluidUpdate`]: settle, re-solve and re-reserve
    /// (see `FluidRt::update`), record the window, and (for seed/epoch
    /// causes) schedule the next epoch tick.
    pub(crate) fn on_fluid_update(&mut self, cause: u8, now: SimTime) {
        let (delivered, dropped) = self.fluid.update(
            now,
            &mut self.net.fabric,
            &mut self.mesh.sidecars,
            self.mesh.ingress_pod,
        );
        if let Some(fr) = self.obs.flight_rec() {
            let (demand, alloc) = self.fluid.totals_bps();
            let flows = self.fluid.flows.len() as u32;
            fr.record_fluid(now, cause, flows, demand, alloc, delivered, dropped);
        }

        // Exactly one epoch chain: seeded by the time-zero update and
        // re-armed by each epoch firing. Chaos-caused updates are
        // one-shots and do not reschedule.
        if cause != CAUSE_CHAOS {
            let end_at = self.ctx.end_at;
            let next = now + self.fluid.epoch();
            // Past the end, settle the tail window exactly at run end so
            // the conservation invariant covers the whole run.
            let at = if next < end_at { next } else { end_at };
            if now < end_at {
                self.ctx
                    .queue
                    .push(at, Ev::FluidUpdate { cause: CAUSE_EPOCH });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flow(demand_bps: u64) -> Flow {
        Flow {
            class: "bg".into(),
            dst: PodId(0),
            demand_bps,
            alloc_bps: 0,
            path: Vec::new(),
            inj_carry: 0,
            del_carry: 0,
            injected_bytes: 0,
            delivered_bytes: 0,
            dropped_bytes: 0,
        }
    }

    /// A star fabric with one pod per entry of `rates`, each pod's duplex
    /// access link at that rate.
    fn star(rates: &[u64]) -> crate::netplan::Fabric {
        use crate::netplan::{Fabric, NetworkPlan};
        use meshlayer_cluster::{ServiceBehavior, ServiceSpec};
        let pods = rates.len() as u32;
        let mut cluster = Cluster::new(&["n0"], pods);
        cluster.deploy(ServiceSpec::new("svc", pods, ServiceBehavior::respond(0.0)));
        let mut plan = NetworkPlan::default();
        for (i, &rate) in rates.iter().enumerate() {
            plan = plan.with_pod_rate(format!("svc-{}", i + 1), rate);
        }
        Fabric::build(&cluster, &plan)
    }

    /// A link's fluid capacity, written out independently of the solver:
    /// its rate less the guaranteed packet share, or 0 while admin-down.
    fn fluid_cap(l: &Link) -> u64 {
        if l.is_admin_up() {
            l.rate_bps() - l.rate_bps() / Link::MIN_PACKET_SHARE_DIV
        } else {
            0
        }
    }

    proptest! {
        /// The settlement invariant, exactly, under arbitrary window
        /// lengths and arbitrary per-window admitted rates: cumulative
        /// `injected == delivered + dropped` per flow, and cumulative
        /// injection equals the closed-form `⌊demand·t / 8e9⌋` — the
        /// integer carries lose and invent nothing however the run is
        /// chopped into epochs.
        #[test]
        fn settlement_conserves_bytes_exactly(
            demand in 0u64..20_000_000_000,
            windows in proptest::collection::vec(
                (0u64..20_000_000_000, 1u64..3_000_000_000u64),
                1..40,
            ),
        ) {
            let mut rt = FluidRt {
                flows: vec![flow(demand)],
                last_settle: SimTime::ZERO,
                paths_built: true,
            };
            let mut t = 0u64;
            for (alloc, dt) in windows {
                rt.flows[0].alloc_bps = alloc;
                t += dt;
                rt.settle(SimTime::from_nanos(t));
            }
            let f = &rt.flows[0];
            prop_assert_eq!(f.injected_bytes, f.delivered_bytes + f.dropped_bytes);
            let closed_form = (demand as u128 * t as u128 / (8 * 1_000_000_000u128)) as u64;
            prop_assert_eq!(f.injected_bytes, closed_form);
            prop_assert!(f.delivered_bytes <= f.injected_bytes);
        }

        /// Same-instant double settles (e.g. a chaos update landing on an
        /// epoch boundary) are no-ops: dt == 0 moves no bytes.
        #[test]
        fn zero_width_windows_are_noops(demand in 1u64..10_000_000_000) {
            let mut rt = FluidRt {
                flows: vec![flow(demand)],
                last_settle: SimTime::ZERO,
                paths_built: true,
            };
            rt.flows[0].alloc_bps = demand;
            rt.settle(SimTime::from_millis(500));
            let before = rt.flows[0].injected_bytes;
            prop_assert!(rt.settle(SimTime::from_millis(500)).is_empty());
            prop_assert_eq!(rt.flows[0].injected_bytes, before);
        }

        /// Reference check for the solver: 1–40 flows over random
        /// non-empty subsets of the links of a four-pod star whose access
        /// links run at four different rates, each demanding up to twice
        /// the capacity of its smallest link, with one link optionally
        /// admin-down. The allocation must carry the max-min certificate:
        /// no link carries more than its fluid capacity, no flow gets more
        /// than its demand, and every flow short of its demand crosses a
        /// link that is full, on which no flow gets more than it does —
        /// both to within the integer floors: fewer unallocated bps than
        /// flows crossing the link, and fewer extra bps than that too
        /// (a floored share leaves up to `users - 1` bps over, which later
        /// rounds hand to some of the link's flows).
        #[test]
        fn solver_allocations_carry_the_max_min_certificate(
            specs in proptest::collection::vec((1u32..256, 0u64..2_001), 1..41),
            down in 0usize..16,
        ) {
            let mut fabric = star(&[
                100_000_000,
                1_000_000_000,
                10_000_000_000,
                15_000_000_000,
            ]);
            let n_links = fabric.topology.link_count();
            prop_assert_eq!(n_links, 8);
            let mut rt = FluidRt {
                flows: Vec::new(),
                last_settle: SimTime::ZERO,
                paths_built: true,
            };
            for &(mask, permille) in &specs {
                let mut f = flow(0);
                f.path = (0..n_links as u32)
                    .filter(|&b| (mask >> b) & 1 == 1)
                    .map(LinkId)
                    .collect();
                let cap = f
                    .path
                    .iter()
                    .map(|&l| fluid_cap(fabric.topology.link(l)))
                    .min()
                    .expect("non-empty path");
                f.demand_bps = cap * permille / 1_000;
                rt.flows.push(f);
            }
            if down < n_links {
                fabric
                    .topology
                    .link_mut(LinkId(down as u32))
                    .set_admin_up(false);
            }
            rt.solve(&fabric);

            let caps: Vec<u64> = (0..n_links as u32)
                .map(|l| fluid_cap(fabric.topology.link(LinkId(l))))
                .collect();
            let sums = rt.link_sums(n_links);
            let mut users = vec![0u64; n_links];
            let mut max_alloc = vec![0u64; n_links];
            for f in &rt.flows {
                for &l in &f.path {
                    users[l.0 as usize] += 1;
                    max_alloc[l.0 as usize] = max_alloc[l.0 as usize].max(f.alloc_bps);
                }
            }
            for l in 0..n_links {
                prop_assert!(sums[l] <= caps[l], "link {} carries {} > {}", l, sums[l], caps[l]);
            }
            for (i, f) in rt.flows.iter().enumerate() {
                prop_assert!(f.alloc_bps <= f.demand_bps, "flow {} over its demand", i);
                if f.alloc_bps < f.demand_bps {
                    let bottleneck = f.path.iter().any(|&l| {
                        let l = l.0 as usize;
                        caps[l] - sums[l] < users[l] && max_alloc[l] < f.alloc_bps + users[l]
                    });
                    prop_assert!(
                        bottleneck,
                        "flow {} gets {} of {} with no bottleneck link",
                        i,
                        f.alloc_bps,
                        f.demand_bps
                    );
                }
            }
        }
    }

    /// Progressive filling on a shared bottleneck: equal-demand flows
    /// split the fluid capacity evenly; a demand-limited flow keeps its
    /// demand and the freed share goes to the others.
    #[test]
    fn solver_is_max_min_fair_on_shared_link() {
        use crate::netplan::{Fabric, NetworkPlan};
        // Build a tiny star fabric: two pods spread onto distinct nodes
        // so a shared access link exists between them.
        let cluster = {
            let mut c = meshlayer_cluster::Cluster::new(&["n0", "n1"], 4);
            c.deploy(meshlayer_cluster::ServiceSpec::new(
                "svc",
                2,
                meshlayer_cluster::ServiceBehavior::respond(0.0),
            ));
            c
        };
        let plan = NetworkPlan::default();
        let mut fabric = Fabric::build(&cluster, &plan);
        let src = meshlayer_cluster::PodId(0);
        let dst = meshlayer_cluster::PodId(1);
        let src_node = fabric.node_of(src);
        let dst_node = fabric.node_of(dst);
        let path = fabric.topology.path(src_node, dst_node).links;
        assert!(!path.is_empty(), "distinct nodes must cross links");
        let rate = fabric.topology.link(path[0]).rate_bps();
        let cap = rate - rate / Link::MIN_PACKET_SHARE_DIV;

        // Two flows over the same path, demands far above capacity:
        // each gets exactly half the fluid capacity (integer floor).
        let mut rt = FluidRt {
            flows: vec![flow(10 * rate), flow(10 * rate)],
            last_settle: SimTime::ZERO,
            paths_built: true,
        };
        for f in &mut rt.flows {
            f.dst = dst;
            f.path = path.clone();
        }
        rt.solve(&fabric);
        assert_eq!(rt.flows[0].alloc_bps, cap / 2);
        assert_eq!(rt.flows[1].alloc_bps, cap / 2);

        // One demand-limited flow: it keeps its demand, the other takes
        // the rest of the capacity.
        rt.flows[0].demand_bps = cap / 10;
        rt.solve(&fabric);
        assert_eq!(rt.flows[0].alloc_bps, cap / 10);
        assert!(rt.flows[1].alloc_bps >= cap - cap / 10 - 1);
        assert!(rt.flows[1].alloc_bps <= cap - cap / 10);

        // Admin-down the path: every flow crossing it starves.
        let lid = path[0];
        fabric.topology.link_mut(lid).set_admin_up(false);
        rt.solve(&fabric);
        assert_eq!(rt.flows[0].alloc_bps, 0);
        assert_eq!(rt.flows[1].alloc_bps, 0);
    }
}
