//! Network topology and routing.
//!
//! A [`Topology`] owns the hosts (vertices) and [`Link`]s (directed edges)
//! of the virtual cluster network and computes static shortest-path routes.
//! The paper's testbed is a single host with emulated inter-pod links; the
//! topology abstraction also supports multi-switch fabrics for the traffic-
//! engineering extension (§4.2(d)), where the prioritizer re-routes batch
//! traffic over alternate paths.

use crate::link::Link;
use crate::packet::NodeId;
use crate::qdisc::Qdisc;
use meshlayer_simcore::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a link (index into the topology's link table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A precomputed path: the ordered list of links from source to destination.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Route {
    /// Links to traverse, in order.
    pub links: Vec<LinkId>,
}

impl Route {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// One node's entry in a hierarchical next-hop table.
///
/// Fabrics built as trees (star, multi-tier spine-leaf) assign every
/// switch a *contiguous* node-id interval covering its subtree. Routing
/// then needs no all-pairs table: a node forwards *down* the child whose
/// interval contains the destination, or *up* one of its uplinks (ECMP
/// by destination id) when the destination lies outside its subtree.
/// Total route state is O(nodes + links) instead of O(N²).
#[derive(Clone, Debug, Default)]
pub struct HierEntry {
    /// Subtree interval start (inclusive), as a raw node id.
    pub lo: u32,
    /// Subtree interval end (exclusive).
    pub hi: u32,
    /// Uplinks toward the next tier; destinations outside `[lo, hi)`
    /// take `up[dst % up.len()]` (deterministic ECMP).
    pub up: Vec<LinkId>,
    /// Child subtrees as `(lo, hi, link)`; intervals must be disjoint.
    pub children: Vec<(u32, u32, LinkId)>,
}

/// The virtual network: named hosts, directed links, all-pairs routes.
pub struct Topology {
    node_names: Vec<String>,
    links: Vec<Link>,
    /// adjacency[node] = link ids leaving the node.
    adjacency: Vec<Vec<LinkId>>,
    /// next_hop[src][dst] = first link on the route, or None.
    next_hop: Vec<Vec<Option<LinkId>>>,
    routes_dirty: bool,
    /// Hierarchical routing table; when present it replaces the dense
    /// all-pairs `next_hop` matrix entirely.
    hier: Option<Vec<HierEntry>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology {
            node_names: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            next_hop: Vec::new(),
            routes_dirty: false,
            hier: None,
        }
    }

    /// Add a host, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.into());
        self.adjacency.push(Vec::new());
        self.routes_dirty = true;
        self.hier = None;
        id
    }

    /// Number of hosts.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Name of a host.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.node_names[n.0 as usize]
    }

    /// Look a node up by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_names
            .iter()
            .position(|n| n == name)
            .map(|i| NodeId(i as u32))
    }

    /// Add a unidirectional link, returning its id.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        rate_bps: u64,
        delay: SimDuration,
        qdisc: Box<dyn Qdisc>,
    ) -> LinkId {
        assert!((from.0 as usize) < self.node_names.len(), "unknown from");
        assert!((to.0 as usize) < self.node_names.len(), "unknown to");
        assert_ne!(from, to, "self-loop link");
        let id = LinkId(self.links.len() as u32);
        self.links
            .push(Link::new(id, from, to, rate_bps, delay, qdisc));
        self.adjacency[from.0 as usize].push(id);
        self.routes_dirty = true;
        self.hier = None;
        id
    }

    /// Add a bidirectional link as two unidirectional ones with identical
    /// parameters; the qdiscs are produced by `mk_qdisc` (called twice).
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate_bps: u64,
        delay: SimDuration,
        mut mk_qdisc: impl FnMut() -> Box<dyn Qdisc>,
    ) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, rate_bps, delay, mk_qdisc());
        let ba = self.add_link(b, a, rate_bps, delay, mk_qdisc());
        (ab, ba)
    }

    /// Immutable access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Mutable access to a link.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0 as usize]
    }

    /// Iterate over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Iterate mutably over all links.
    pub fn links_mut(&mut self) -> impl Iterator<Item = &mut Link> {
        self.links.iter_mut()
    }

    /// The link from `a` to `b` if one exists (first match).
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency[a.0 as usize]
            .iter()
            .copied()
            .find(|&l| self.links[l.0 as usize].to() == b)
    }

    /// (Re)compute all-pairs next-hop tables. Runs Dijkstra from every node
    /// with edge weight = propagation delay + serialization time of a
    /// 1500-byte packet (so faster links are preferred on ties).
    ///
    /// Discards any installed hierarchical table: an explicit all-pairs
    /// recompute makes the dense matrix authoritative again.
    pub fn compute_routes(&mut self) {
        self.hier = None;
        let n = self.node_names.len();
        self.next_hop = vec![vec![None; n]; n];
        for src in 0..n {
            // Dijkstra from src.
            let mut dist = vec![u64::MAX; n];
            let mut first_link: Vec<Option<LinkId>> = vec![None; n];
            dist[src] = 0;
            let mut heap = BinaryHeap::new();
            heap.push(std::cmp::Reverse((0u64, src, None::<LinkId>)));
            while let Some(std::cmp::Reverse((d, u, via))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                if u != src && first_link[u].is_none() {
                    first_link[u] = via;
                }
                for &lid in &self.adjacency[u] {
                    let link = &self.links[lid.0 as usize];
                    let v = link.to().0 as usize;
                    let w = link.delay().as_nanos()
                        + meshlayer_simcore::time::tx_time(1500, link.rate_bps()).as_nanos();
                    let nd = d.saturating_add(w.max(1));
                    if nd < dist[v] {
                        dist[v] = nd;
                        // The first link out of src on this path.
                        let via_v = if u == src { Some(lid) } else { via };
                        heap.push(std::cmp::Reverse((nd, v, via_v)));
                    }
                }
            }
            for (dst, &d) in dist.iter().enumerate() {
                if dst != src && d != u64::MAX {
                    // first_link may have been set when popped; fall back to
                    // scanning if the pop order skipped it.
                    self.next_hop[src][dst] = first_link[dst];
                }
            }
            // Fill any holes (unpopped but reachable) by re-running relaxed
            // predecessor walk — with the via-propagation above this only
            // matters for nodes popped before their final via was recorded,
            // which cannot happen in Dijkstra; keep as a debug check.
            #[cfg(debug_assertions)]
            for (dst, &d) in dist.iter().enumerate() {
                if dst != src && d != u64::MAX {
                    debug_assert!(self.next_hop[src][dst].is_some());
                }
            }
        }
        self.routes_dirty = false;
    }

    /// Install a hierarchical next-hop table (one [`HierEntry`] per
    /// node), replacing the dense all-pairs matrix with O(nodes + links)
    /// state. The dense table is dropped immediately, so a 1,000-pod
    /// fabric stops paying for a million-entry matrix.
    ///
    /// The entries are authoritative once installed: destinations a
    /// node's entry cannot place (outside every child interval with no
    /// uplinks) are treated as unreachable. Fabric builders therefore
    /// only install tables for tree-shaped topologies where subtree
    /// node ids are contiguous — for those, interval forwarding picks
    /// exactly the links Dijkstra would. Any later
    /// [`Topology::add_node`]/[`Topology::add_link`] discards the table
    /// and falls back to all-pairs routing.
    ///
    /// # Panics
    /// Panics unless there is exactly one entry per node.
    pub fn install_hier(&mut self, mut entries: Vec<HierEntry>) {
        assert_eq!(
            entries.len(),
            self.node_names.len(),
            "one HierEntry per node"
        );
        for e in &mut entries {
            e.children.sort_by_key(|&(lo, _, _)| lo);
        }
        self.next_hop = Vec::new();
        self.routes_dirty = false;
        self.hier = Some(entries);
    }

    /// Whether a hierarchical routing table is currently installed.
    pub fn has_hier(&self) -> bool {
        self.hier.is_some()
    }

    /// Next link on the path from `from` toward `dst`, or `None` if
    /// unreachable. Uses the hierarchical table when one is installed;
    /// otherwise recomputes all-pairs routes lazily after topology
    /// changes.
    pub fn next_hop(&mut self, from: NodeId, dst: NodeId) -> Option<LinkId> {
        if from == dst {
            return None;
        }
        if let Some(hier) = &self.hier {
            let e = &hier[from.0 as usize];
            let d = dst.0;
            if d >= e.lo && d < e.hi {
                // Destination is below us: forward down the child whose
                // interval contains it (children are sorted by `lo`).
                let i = e.children.partition_point(|&(lo, _, _)| lo <= d);
                if i > 0 {
                    let (lo, hi, link) = e.children[i - 1];
                    if d >= lo && d < hi {
                        return Some(link);
                    }
                }
                return None;
            }
            if e.up.is_empty() {
                return None;
            }
            return Some(e.up[d as usize % e.up.len()]);
        }
        if self.routes_dirty {
            self.compute_routes();
        }
        self.next_hop[from.0 as usize][dst.0 as usize]
    }

    /// The full path from `src` to `dst` (empty if `src == dst`).
    ///
    /// # Panics
    /// Panics if `dst` is unreachable from `src`.
    pub fn path(&mut self, src: NodeId, dst: NodeId) -> Route {
        let mut links = Vec::new();
        let mut cur = src;
        while cur != dst {
            let lid = self
                .next_hop(cur, dst)
                .unwrap_or_else(|| panic!("{dst:?} unreachable from {src:?}"));
            links.push(lid);
            cur = self.link(lid).to();
            assert!(links.len() <= self.links.len(), "routing loop");
        }
        Route { links }
    }

    /// Render an ASCII summary of nodes and links (used by the Fig 3
    /// harness binary).
    ///
    /// Small fabrics list every link; generated fabrics with thousands
    /// of links would swamp the terminal, so the listing is capped to
    /// the top links by bytes transmitted plus one aggregated row for
    /// the remainder.
    pub fn render(&self) -> String {
        const TOP_K: usize = 16;
        let mut out = String::new();
        out.push_str(&format!(
            "topology: {} nodes, {} links\n",
            self.node_count(),
            self.link_count()
        ));
        let row = |l: &Link| {
            format!(
                "  {} -> {}  {:.1} Gbps, {} delay\n",
                self.node_name(l.from()),
                self.node_name(l.to()),
                l.rate_bps() as f64 / 1e9,
                l.delay(),
            )
        };
        if self.links.len() <= TOP_K {
            for l in &self.links {
                out.push_str(&row(l));
            }
            return out;
        }
        let mut by_traffic: Vec<&Link> = self.links.iter().collect();
        by_traffic.sort_by_key(|l| (std::cmp::Reverse(l.stats().tx_bytes), l.id()));
        for l in by_traffic.iter().take(TOP_K) {
            out.push_str(&row(l));
        }
        let rest = &by_traffic[TOP_K..];
        let (tx, drops) = rest.iter().fold((0u64, 0u64), |(tx, dr), l| {
            (tx + l.stats().tx_bytes, dr + l.drops())
        });
        out.push_str(&format!(
            "  ... {} more links: {} tx bytes, {} drops total\n",
            rest.len(),
            tx,
            drops
        ));
        out
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdisc::DropTail;

    fn dt() -> Box<dyn Qdisc> {
        Box::new(DropTail::new(100))
    }

    fn line3() -> (Topology, NodeId, NodeId, NodeId) {
        // a -- b -- c
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_duplex(a, b, 1_000_000_000, SimDuration::from_micros(10), dt);
        t.add_duplex(b, c, 1_000_000_000, SimDuration::from_micros(10), dt);
        (t, a, b, c)
    }

    #[test]
    fn route_on_a_line() {
        let (mut t, a, b, c) = line3();
        let r = t.path(a, c);
        assert_eq!(r.hops(), 2);
        assert_eq!(t.link(r.links[0]).from(), a);
        assert_eq!(t.link(r.links[0]).to(), b);
        assert_eq!(t.link(r.links[1]).to(), c);
        // Reverse direction works too.
        let r = t.path(c, a);
        assert_eq!(r.hops(), 2);
        assert_eq!(t.link(r.links[1]).to(), a);
    }

    #[test]
    fn self_route_is_empty() {
        let (mut t, a, _, _) = line3();
        assert_eq!(t.path(a, a).hops(), 0);
        assert_eq!(t.next_hop(a, a), None);
    }

    #[test]
    fn prefers_shorter_path() {
        // a->b direct (slow) vs a->c->b (two fast hops with tiny delay).
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        // Direct: 10 ms delay.
        t.add_link(a, b, 1_000_000_000, SimDuration::from_millis(10), dt());
        // Via c: 2 x 1 us.
        t.add_link(a, c, 1_000_000_000, SimDuration::from_micros(1), dt());
        t.add_link(c, b, 1_000_000_000, SimDuration::from_micros(1), dt());
        let r = t.path(a, b);
        assert_eq!(r.hops(), 2, "should prefer the 2-hop low-delay path");
    }

    #[test]
    fn unreachable_next_hop_is_none() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        // No links at all.
        assert_eq!(t.next_hop(a, b), None);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn unreachable_path_panics() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let _ = t.path(a, b);
    }

    #[test]
    fn routes_recompute_after_adding_links() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert_eq!(t.next_hop(a, b), None);
        t.add_link(a, b, 1_000_000, SimDuration::ZERO, dt());
        assert!(t.next_hop(a, b).is_some());
    }

    #[test]
    fn find_node_and_names() {
        let (t, a, _, _) = line3();
        assert_eq!(t.find_node("a"), Some(a));
        assert_eq!(t.find_node("nope"), None);
        assert_eq!(t.node_name(a), "a");
    }

    #[test]
    fn link_between_finds_direction() {
        let (t, a, b, c) = line3();
        assert!(t.link_between(a, b).is_some());
        assert!(t.link_between(b, a).is_some());
        assert!(t.link_between(a, c).is_none());
    }

    #[test]
    fn render_lists_links() {
        let (t, ..) = line3();
        let s = t.render();
        assert!(s.contains("3 nodes"));
        assert!(s.contains("a -> b"));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.add_link(a, a, 1, SimDuration::ZERO, dt());
    }

    /// A star fabric with hosts 1..=n under switch 0, plus the hier
    /// table a fabric builder would install for it.
    fn star(n: u32) -> (Topology, Vec<HierEntry>) {
        let mut t = Topology::new();
        let sw = t.add_node("switch");
        let mut entries = vec![HierEntry {
            lo: 0,
            hi: n + 1,
            up: Vec::new(),
            children: Vec::new(),
        }];
        for i in 1..=n {
            let h = t.add_node(format!("h{i}"));
            let (uplink, downlink) =
                t.add_duplex(h, sw, 1_000_000_000, SimDuration::from_micros(10), dt);
            entries[0].children.push((i, i + 1, downlink));
            entries.push(HierEntry {
                lo: i,
                hi: i + 1,
                up: vec![uplink],
                children: Vec::new(),
            });
        }
        (t, entries)
    }

    #[test]
    fn hier_star_matches_dijkstra() {
        let (mut t, entries) = star(8);
        // Dense answers first.
        let n = t.node_count() as u32;
        let mut dense = Vec::new();
        for a in 0..n {
            for b in 0..n {
                dense.push(t.next_hop(NodeId(a), NodeId(b)));
            }
        }
        t.install_hier(entries);
        assert!(t.has_hier());
        let mut hier = Vec::new();
        for a in 0..n {
            for b in 0..n {
                hier.push(t.next_hop(NodeId(a), NodeId(b)));
            }
        }
        assert_eq!(dense, hier, "hier routing must pick Dijkstra's links");
    }

    #[test]
    fn hier_dropped_on_topology_change() {
        let (mut t, entries) = star(2);
        t.install_hier(entries);
        assert!(t.has_hier());
        let x = t.add_node("x");
        assert!(!t.has_hier(), "mutation must invalidate the hier table");
        // Falls back to Dijkstra: x is isolated, everything else routes.
        assert_eq!(t.next_hop(NodeId(1), x), None);
        assert!(t.next_hop(NodeId(1), NodeId(2)).is_some());
    }

    #[test]
    fn hier_path_multi_tier() {
        // Two leaves with contiguous host intervals and one spine built
        // last: leaf0 {h1, h2}, leaf1 {h4, h5}, spine 6.
        let mut t = Topology::new();
        let l0 = t.add_node("leaf0");
        let h1 = t.add_node("h1");
        let h2 = t.add_node("h2");
        let l1 = t.add_node("leaf1");
        let h4 = t.add_node("h4");
        let h5 = t.add_node("h5");
        let spine = t.add_node("spine");
        let mut entries = vec![HierEntry::default(); 7];
        for (leaf, hosts, lo) in [(l0, [h1, h2], 0u32), (l1, [h4, h5], 3u32)] {
            entries[leaf.0 as usize].lo = lo;
            entries[leaf.0 as usize].hi = lo + 3;
            for h in hosts {
                let (up, down) =
                    t.add_duplex(h, leaf, 10_000_000_000, SimDuration::from_micros(1), dt);
                entries[leaf.0 as usize].children.push((h.0, h.0 + 1, down));
                entries[h.0 as usize] = HierEntry {
                    lo: h.0,
                    hi: h.0 + 1,
                    up: vec![up],
                    children: Vec::new(),
                };
            }
            let (up, down) =
                t.add_duplex(leaf, spine, 40_000_000_000, SimDuration::from_micros(1), dt);
            entries[leaf.0 as usize].up = vec![up];
            entries[spine.0 as usize].children.push((lo, lo + 3, down));
        }
        entries[spine.0 as usize].lo = 0;
        entries[spine.0 as usize].hi = 7;
        t.install_hier(entries);
        // Same-leaf: 2 hops via leaf0.
        assert_eq!(t.path(h1, h2).hops(), 2);
        // Cross-leaf: 4 hops via spine.
        let r = t.path(h1, h5);
        assert_eq!(r.hops(), 4);
        assert_eq!(t.link(r.links[1]).to(), spine);
        assert_eq!(t.link(r.links[3]).to(), h5);
    }

    #[test]
    fn render_caps_large_fabrics() {
        let (t, _) = star(40);
        let s = t.render();
        assert!(s.contains("41 nodes, 80 links"));
        assert!(s.contains("... 64 more links"));
        // 16 listed rows + header + remainder row.
        assert_eq!(s.lines().count(), 18);
    }

    #[test]
    fn bigger_fabric_all_pairs_reachable() {
        // 2 leaves x 2 spines, 4 hosts.
        let mut t = Topology::new();
        let hosts: Vec<NodeId> = (0..4).map(|i| t.add_node(format!("h{i}"))).collect();
        let leaves: Vec<NodeId> = (0..2).map(|i| t.add_node(format!("leaf{i}"))).collect();
        let spines: Vec<NodeId> = (0..2).map(|i| t.add_node(format!("spine{i}"))).collect();
        for (i, &h) in hosts.iter().enumerate() {
            t.add_duplex(
                h,
                leaves[i / 2],
                10_000_000_000,
                SimDuration::from_micros(1),
                dt,
            );
        }
        for &l in &leaves {
            for &s in &spines {
                t.add_duplex(l, s, 40_000_000_000, SimDuration::from_micros(1), dt);
            }
        }
        for &x in &hosts {
            for &y in &hosts {
                if x != y {
                    let r = t.path(x, y);
                    assert!(r.hops() >= 2 && r.hops() <= 4, "{x:?}->{y:?}: {r:?}");
                }
            }
        }
    }
}
