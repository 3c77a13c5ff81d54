//! Network topology and routing.
//!
//! A [`Topology`] owns the hosts (vertices) and [`Link`]s (directed edges)
//! of the virtual cluster network, and routes over one table: the
//! hierarchical next-hop table ([`HierEntry`]) a fabric builder installs
//! once the fabric is complete. The paper's testbed is a single host with
//! emulated inter-pod links, a star; the same table routes generated
//! multi-tier spine-leaf fabrics. A topology with no installed table
//! routes nothing, and adding a node or a link discards the table.

use crate::link::Link;
use crate::packet::NodeId;
use crate::qdisc::Qdisc;
use meshlayer_simcore::SimDuration;
use serde::{Deserialize, Serialize};
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

/// The virtual network: named hosts, directed links, the routing table.
pub struct Topology {
    node_names: Vec<String>,
    links: Vec<Link>,
    /// adjacency[node] = link ids leaving the node.
    adjacency: Vec<Vec<LinkId>>,
    /// The hierarchical routing table, one entry per node; empty until
    /// [`Topology::install_hier`].
    hier: Vec<HierEntry>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology {
            node_names: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            hier: Vec::new(),
        }
    }

    /// Add a host, returning its id. Discards the routing table.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.into());
        self.adjacency.push(Vec::new());
        self.hier.clear();
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

    /// A link's name, `from->to` by node name: the one form every report,
    /// capture and telemetry series names a link by.
    pub fn link_name(&self, id: LinkId) -> String {
        let l = self.link(id);
        format!("{}->{}", self.node_name(l.from()), self.node_name(l.to()))
    }

    /// Add a unidirectional link, returning its id. Discards the routing
    /// table.
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
        self.hier.clear();
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

    /// Install the hierarchical next-hop table (one [`HierEntry`] per
    /// node): O(nodes + links) route state.
    ///
    /// The entries are authoritative: destinations a node's entry cannot
    /// place (outside every child interval with no uplinks) are
    /// unreachable. Fabric builders therefore only install tables for
    /// tree-shaped topologies where subtree node ids are contiguous — for
    /// those, interval forwarding takes a shortest path. A later
    /// [`Topology::add_node`]/[`Topology::add_link`] discards the table.
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
        self.hier = entries;
    }

    /// Next link on the path from `from` toward `dst`, or `None` if
    /// unreachable (always, while no table is installed).
    pub fn next_hop(&self, from: NodeId, dst: NodeId) -> Option<LinkId> {
        if from == dst {
            return None;
        }
        let e = self.hier.get(from.0 as usize)?;
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
        Some(e.up[d as usize % e.up.len()])
    }

    /// The full path from `src` to `dst` (empty if `src == dst`).
    ///
    /// # Panics
    /// Panics if `dst` is unreachable from `src`.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Route {
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
        // a -- b -- c, routed as a tree rooted at b.
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let (ab, ba) = t.add_duplex(a, b, 1_000_000_000, SimDuration::from_micros(10), dt);
        let (bc, cb) = t.add_duplex(b, c, 1_000_000_000, SimDuration::from_micros(10), dt);
        t.install_hier(vec![
            HierEntry {
                lo: 0,
                hi: 1,
                up: vec![ab],
                children: Vec::new(),
            },
            HierEntry {
                lo: 0,
                hi: 3,
                up: Vec::new(),
                children: vec![(0, 1, ba), (2, 3, bc)],
            },
            HierEntry {
                lo: 2,
                hi: 3,
                up: vec![cb],
                children: Vec::new(),
            },
        ]);
        (t, a, b, c)
    }

    #[test]
    fn route_on_a_line() {
        let (t, a, b, c) = line3();
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
        let (t, a, _, _) = line3();
        assert_eq!(t.path(a, a).hops(), 0);
        assert_eq!(t.next_hop(a, a), None);
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
    fn routes_recompute_after_adding_links() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert_eq!(t.next_hop(a, b), None);
        let (ab, ba) = t.add_duplex(a, b, 1_000_000, SimDuration::ZERO, dt);
        // Links alone route nothing: the builder installs a table that
        // covers them, and routes follow it.
        assert_eq!(t.next_hop(a, b), None);
        t.install_hier(vec![
            HierEntry {
                lo: 0,
                hi: 1,
                up: vec![ab],
                children: Vec::new(),
            },
            HierEntry {
                lo: 1,
                hi: 2,
                up: vec![ba],
                children: Vec::new(),
            },
        ]);
        assert_eq!(t.next_hop(a, b), Some(ab));
        assert_eq!(t.next_hop(b, a), Some(ba));
        assert_eq!(t.path(a, b).links, vec![ab]);
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
    fn node_names_in_add_order() {
        let (t, a, b, c) = line3();
        assert_eq!(t.node_name(a), "a");
        assert_eq!(t.node_name(b), "b");
        assert_eq!(t.node_name(c), "c");
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
    fn hier_dropped_on_topology_change() {
        let (mut t, entries) = star(2);
        t.install_hier(entries.clone());
        assert!(t.next_hop(NodeId(1), NodeId(2)).is_some());
        // A new node discards the table: nothing routes until a builder
        // installs a new one.
        let x = t.add_node("x");
        assert_eq!(t.next_hop(NodeId(1), x), None);
        assert_eq!(t.next_hop(NodeId(1), NodeId(2)), None);
        // So does a new link, even one that would be a shortcut.
        let (mut t, entries) = star(2);
        t.install_hier(entries);
        t.add_link(NodeId(1), NodeId(2), 1_000_000, SimDuration::ZERO, dt());
        assert_eq!(t.next_hop(NodeId(1), NodeId(2)), None);
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
        // 2 leaves x 2 spines, 4 hosts: host i sits under leaf i / 2, and
        // every leaf spreads cross-leaf traffic over both spines (ECMP).
        let mut t = Topology::new();
        let hosts: Vec<NodeId> = (0..4).map(|i| t.add_node(format!("h{i}"))).collect();
        let leaves: Vec<NodeId> = (0..2).map(|i| t.add_node(format!("leaf{i}"))).collect();
        let spines: Vec<NodeId> = (0..2).map(|i| t.add_node(format!("spine{i}"))).collect();
        let mut entries = vec![HierEntry::default(); 8];
        for (i, &h) in hosts.iter().enumerate() {
            let leaf = leaves[i / 2];
            let (up, down) = t.add_duplex(h, leaf, 10_000_000_000, SimDuration::from_micros(1), dt);
            entries[h.0 as usize] = HierEntry {
                lo: h.0,
                hi: h.0 + 1,
                up: vec![up],
                children: Vec::new(),
            };
            entries[leaf.0 as usize].children.push((h.0, h.0 + 1, down));
        }
        for (j, &l) in leaves.iter().enumerate() {
            let (lo, hi) = (2 * j as u32, 2 * j as u32 + 2);
            entries[l.0 as usize].lo = lo;
            entries[l.0 as usize].hi = hi;
            for &s in &spines {
                let (up, down) =
                    t.add_duplex(l, s, 40_000_000_000, SimDuration::from_micros(1), dt);
                entries[l.0 as usize].up.push(up);
                entries[s.0 as usize].children.push((lo, hi, down));
                entries[s.0 as usize].hi = 4;
            }
        }
        t.install_hier(entries);
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
