//! Traffic-control filters: packet → class mapping.
//!
//! Mirrors `tc filter` semantics: an ordered rule list evaluated first-match
//! -wins, with a DSCP priomap fallback when no rule matches. The paper's
//! prototype installs exactly one kind of rule — "packets whose destination
//! IP is the high-priority pod go to the high class" — which is expressible
//! here as `FilterMatch::default().dst_ip(..)`.

use crate::packet::{ClassId, NodeId, Packet};
use serde::{Deserialize, Serialize};

/// Predicate over packet header fields; `None` fields match anything.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterMatch {
    /// Match the source host.
    pub src: Option<NodeId>,
    /// Match the destination host.
    pub dst: Option<NodeId>,
    /// Match the source pod IP.
    pub src_ip: Option<u32>,
    /// Match the destination pod IP (the paper's rule shape).
    pub dst_ip: Option<u32>,
    /// Match the DSCP byte.
    pub dscp: Option<u8>,
    /// Match the firewall mark.
    pub mark: Option<u32>,
    /// Match the connection id.
    pub conn: Option<u64>,
}

impl FilterMatch {
    /// Match everything.
    pub fn any() -> FilterMatch {
        FilterMatch::default()
    }

    /// Restrict to a destination pod IP.
    pub fn dst_ip(mut self, ip: u32) -> Self {
        self.dst_ip = Some(ip);
        self
    }

    /// Restrict to a source pod IP.
    pub fn src_ip(mut self, ip: u32) -> Self {
        self.src_ip = Some(ip);
        self
    }

    /// Restrict to a DSCP value.
    pub fn dscp(mut self, dscp: u8) -> Self {
        self.dscp = Some(dscp);
        self
    }

    /// Restrict to a firewall mark.
    pub fn mark(mut self, mark: u32) -> Self {
        self.mark = Some(mark);
        self
    }

    /// Restrict to a destination host.
    pub fn dst(mut self, dst: NodeId) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Whether `pkt` satisfies every set field.
    pub fn matches(&self, pkt: &Packet) -> bool {
        self.src.is_none_or(|v| v == pkt.src)
            && self.dst.is_none_or(|v| v == pkt.dst)
            && self.src_ip.is_none_or(|v| v == pkt.src_ip)
            && self.dst_ip.is_none_or(|v| v == pkt.dst_ip)
            && self.dscp.is_none_or(|v| v == pkt.dscp)
            && self.mark.is_none_or(|v| v == pkt.mark)
            && self.conn.is_none_or(|v| v == pkt.conn)
    }
}

/// One classification rule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Filter {
    /// The predicate.
    pub matcher: FilterMatch,
    /// Class assigned on match.
    pub class: ClassId,
}

/// An ordered filter table with a DSCP-based fallback.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TcTable {
    filters: Vec<Filter>,
    /// Fallback: DSCP → class. Unlisted DSCPs get [`TcTable::default_class`].
    priomap: Vec<(u8, ClassId)>,
    default_class: ClassId,
}

impl TcTable {
    /// An empty table classifying everything as `default_class`.
    pub fn new(default_class: ClassId) -> Self {
        TcTable {
            filters: Vec::new(),
            priomap: Vec::new(),
            default_class,
        }
    }

    /// Append a rule (later rules have lower precedence).
    pub fn add_filter(&mut self, matcher: FilterMatch, class: ClassId) {
        self.filters.push(Filter { matcher, class });
    }

    /// Change the class assigned when neither filters nor priomap match.
    pub fn set_default_class(&mut self, class: ClassId) {
        self.default_class = class;
    }

    /// Map a DSCP value to a class when no filter matches.
    pub fn map_dscp(&mut self, dscp: u8, class: ClassId) {
        self.priomap.retain(|(d, _)| *d != dscp);
        self.priomap.push((dscp, class));
    }

    /// Remove all rules and priomap entries.
    pub fn clear(&mut self) {
        self.filters.clear();
        self.priomap.clear();
    }

    /// Number of installed filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether no filters are installed.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Classify a packet: first matching filter, then priomap, then default.
    pub fn classify(&self, pkt: &Packet) -> ClassId {
        for f in &self.filters {
            if f.matcher.matches(pkt) {
                return f.class;
            }
        }
        for (d, c) in &self.priomap {
            if *d == pkt.dscp {
                return *c;
            }
        }
        self.default_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{DSCP_BATCH, DSCP_LATENCY};

    fn pkt(dst_ip: u32, dscp: u8) -> Packet {
        let mut p = Packet::data(1, NodeId(0), NodeId(1), 9, 0, 100, dscp);
        p.dst_ip = dst_ip;
        p
    }

    #[test]
    fn default_class_when_empty() {
        let t = TcTable::new(ClassId(1));
        assert_eq!(t.classify(&pkt(10, DSCP_LATENCY)), ClassId(1));
    }

    #[test]
    fn first_match_wins() {
        let mut t = TcTable::new(ClassId(2));
        t.add_filter(FilterMatch::any().dst_ip(10), ClassId(0));
        t.add_filter(FilterMatch::any().dscp(DSCP_LATENCY), ClassId(1));
        // Both rules match; the first wins.
        assert_eq!(t.classify(&pkt(10, DSCP_LATENCY)), ClassId(0));
        // Only the second matches.
        assert_eq!(t.classify(&pkt(11, DSCP_LATENCY)), ClassId(1));
        // Neither matches.
        assert_eq!(t.classify(&pkt(11, DSCP_BATCH)), ClassId(2));
    }

    #[test]
    fn priomap_fallback() {
        let mut t = TcTable::new(ClassId(9));
        t.map_dscp(DSCP_LATENCY, ClassId(0));
        t.map_dscp(DSCP_BATCH, ClassId(1));
        assert_eq!(t.classify(&pkt(1, DSCP_LATENCY)), ClassId(0));
        assert_eq!(t.classify(&pkt(1, DSCP_BATCH)), ClassId(1));
        assert_eq!(t.classify(&pkt(1, 0)), ClassId(9));
        // Filters override the priomap.
        t.add_filter(FilterMatch::any().dscp(DSCP_BATCH), ClassId(5));
        assert_eq!(t.classify(&pkt(1, DSCP_BATCH)), ClassId(5));
    }

    #[test]
    fn map_dscp_replaces_existing() {
        let mut t = TcTable::new(ClassId(0));
        t.map_dscp(DSCP_BATCH, ClassId(1));
        t.map_dscp(DSCP_BATCH, ClassId(2));
        assert_eq!(t.classify(&pkt(1, DSCP_BATCH)), ClassId(2));
    }

    #[test]
    fn compound_match_requires_all_fields() {
        let m = FilterMatch::any().dst_ip(10).dscp(DSCP_LATENCY);
        assert!(m.matches(&pkt(10, DSCP_LATENCY)));
        assert!(!m.matches(&pkt(10, DSCP_BATCH)));
        assert!(!m.matches(&pkt(11, DSCP_LATENCY)));
    }

    #[test]
    fn mark_and_conn_matching() {
        let mut p = pkt(1, 0);
        p.mark = 77;
        let m = FilterMatch {
            mark: Some(77),
            conn: Some(9),
            ..FilterMatch::default()
        };
        assert!(m.matches(&p));
        p.conn = 8;
        assert!(!m.matches(&p));
    }

    #[test]
    fn clear_empties_table() {
        let mut t = TcTable::new(ClassId(3));
        t.add_filter(FilterMatch::any(), ClassId(0));
        t.map_dscp(1, ClassId(0));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.classify(&pkt(1, 1)), ClassId(3));
    }
}
