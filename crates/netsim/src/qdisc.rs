//! Queueing disciplines.
//!
//! These model the Linux TC qdiscs the paper's prototype programs on the
//! sidecar container's virtual interface. Each qdisc is a passive state
//! machine; the owning [`crate::Link`] calls [`Qdisc::enqueue`] when a
//! packet arrives and [`Qdisc::dequeue`] when the wire goes idle.
//!
//! The shaped qdisc ([`HtbLite`]) may be backlogged yet unable to
//! release a packet until tokens accumulate; it signals this with
//! [`Deq::NotReadyUntil`], and the link schedules a retry at that instant.

use crate::packet::{ClassId, Packet};
use meshlayer_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Result of a dequeue attempt.
#[derive(Debug)]
pub enum Deq {
    /// A packet is released for transmission.
    Packet(Packet),
    /// The qdisc is backlogged but shaping delays release until this time.
    NotReadyUntil(SimTime),
    /// Nothing queued.
    Empty,
}

/// A queueing discipline.
pub trait Qdisc: Send {
    /// Offer `pkt` (classified as `class` by the link's TC table) to the
    /// queue at time `now`. Returns the packet back if it was dropped.
    fn enqueue(&mut self, pkt: Packet, class: ClassId, now: SimTime) -> Result<(), Packet>;

    /// Try to release the next packet at time `now`.
    fn dequeue(&mut self, now: SimTime) -> Deq;

    /// Packets currently queued.
    fn len(&self) -> usize;

    /// `len() == 0`.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently queued (wire sizes).
    fn byte_len(&self) -> u64;

    /// Packets dropped since creation.
    fn dropped(&self) -> u64;

    /// The band/class index a packet classified as `class` would occupy.
    /// Classless qdiscs report band 0; classful ones clamp to their last
    /// band exactly as their `enqueue` does. Used by capture taps.
    fn band_of(&self, class: ClassId) -> usize {
        let _ = class;
        0
    }
}

// ---------------------------------------------------------------------------
// DropTail
// ---------------------------------------------------------------------------

/// A FIFO with a fixed packet-count capacity; arrivals beyond it are dropped
/// (`pfifo` in Linux terms).
pub struct DropTail {
    queue: VecDeque<Packet>,
    limit_pkts: usize,
    bytes: u64,
    drops: u64,
}

impl DropTail {
    /// Create with a capacity of `limit_pkts` packets.
    pub fn new(limit_pkts: usize) -> Self {
        assert!(limit_pkts > 0, "zero-capacity queue");
        DropTail {
            queue: VecDeque::new(),
            limit_pkts,
            bytes: 0,
            drops: 0,
        }
    }

    /// Capacity in packets.
    pub fn limit(&self) -> usize {
        self.limit_pkts
    }
}

impl Qdisc for DropTail {
    fn enqueue(&mut self, pkt: Packet, _class: ClassId, _now: SimTime) -> Result<(), Packet> {
        if self.queue.len() >= self.limit_pkts {
            self.drops += 1;
            return Err(pkt);
        }
        self.bytes += pkt.wire_size() as u64;
        self.queue.push_back(pkt);
        Ok(())
    }

    fn dequeue(&mut self, _now: SimTime) -> Deq {
        match self.queue.pop_front() {
            Some(p) => {
                self.bytes -= p.wire_size() as u64;
                Deq::Packet(p)
            }
            None => Deq::Empty,
        }
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn byte_len(&self) -> u64 {
        self.bytes
    }

    fn dropped(&self) -> u64 {
        self.drops
    }
}

// ---------------------------------------------------------------------------
// Prio
// ---------------------------------------------------------------------------

/// Strict-priority bands (`prio` in Linux): band 0 is always served before
/// band 1, and so on. Each band is an independent drop-tail FIFO.
pub struct Prio {
    bands: Vec<DropTail>,
    drops: u64,
}

impl Prio {
    /// Create `n_bands` bands, each holding up to `limit_per_band` packets.
    pub fn new(n_bands: usize, limit_per_band: usize) -> Self {
        assert!(n_bands > 0, "prio qdisc needs at least one band");
        Prio {
            bands: (0..n_bands)
                .map(|_| DropTail::new(limit_per_band))
                .collect(),
            drops: 0,
        }
    }

    /// Number of bands.
    pub fn n_bands(&self) -> usize {
        self.bands.len()
    }
}

impl Qdisc for Prio {
    fn enqueue(&mut self, pkt: Packet, class: ClassId, now: SimTime) -> Result<(), Packet> {
        let band = (class.0 as usize).min(self.bands.len() - 1);
        let r = self.bands[band].enqueue(pkt, class, now);
        if r.is_err() {
            self.drops += 1;
        }
        r
    }

    fn dequeue(&mut self, now: SimTime) -> Deq {
        for band in &mut self.bands {
            if let Deq::Packet(p) = band.dequeue(now) {
                return Deq::Packet(p);
            }
        }
        Deq::Empty
    }

    fn len(&self) -> usize {
        self.bands.iter().map(|b| b.len()).sum()
    }

    fn byte_len(&self) -> u64 {
        self.bands.iter().map(|b| b.byte_len()).sum()
    }

    fn dropped(&self) -> u64 {
        self.drops
    }

    fn band_of(&self, class: ClassId) -> usize {
        (class.0 as usize).min(self.bands.len() - 1)
    }
}

// ---------------------------------------------------------------------------
// Token bucket
// ---------------------------------------------------------------------------

/// A byte token bucket: refills continuously at `rate_bps`, holds at most
/// `burst_bytes`.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_bps: u64,
    burst_bytes: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Create a bucket that starts full.
    pub fn new(rate_bps: u64, burst_bytes: u64) -> Self {
        TokenBucket {
            rate_bps,
            burst_bytes: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_bps as f64 / 8.0).min(self.burst_bytes);
        self.last = self.last.max(now);
    }

    /// Whether `bytes` tokens are available at `now`.
    pub fn ready(&mut self, bytes: u64, now: SimTime) -> bool {
        self.refill(now);
        self.tokens >= bytes as f64
    }

    /// Consume `bytes` tokens (may drive the bucket negative, which models
    /// sending a packet slightly larger than the remaining allowance —
    /// matching Linux TBF's behaviour for MTU-sized bursts).
    pub fn consume(&mut self, bytes: u64, now: SimTime) {
        self.refill(now);
        self.tokens -= bytes as f64;
    }

    /// Earliest time at which `bytes` tokens will be available.
    pub fn ready_at(&mut self, bytes: u64, now: SimTime) -> SimTime {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            return now;
        }
        if self.rate_bps == 0 {
            return SimTime::MAX;
        }
        let deficit = bytes as f64 - self.tokens;
        let secs = deficit * 8.0 / self.rate_bps as f64;
        now + SimDuration::from_secs_f64(secs)
    }
}

// ---------------------------------------------------------------------------
// HTB-lite
// ---------------------------------------------------------------------------

/// Configuration of one [`HtbLite`] class.
#[derive(Clone, Debug)]
pub struct HtbClass {
    /// Guaranteed rate (bits/second).
    pub rate_bps: u64,
    /// Ceiling the class may borrow up to (bits/second).
    pub ceil_bps: u64,
    /// Priority for borrowing order (0 = highest).
    pub prio: u8,
    /// Queue capacity in packets.
    pub limit_pkts: usize,
    /// Burst allowance, bytes (both buckets).
    pub burst_bytes: u64,
}

impl HtbClass {
    /// A class guaranteed `rate_bps`, allowed to borrow up to `ceil_bps`.
    pub fn new(rate_bps: u64, ceil_bps: u64, prio: u8) -> Self {
        HtbClass {
            rate_bps,
            ceil_bps,
            prio,
            limit_pkts: 1000,
            burst_bytes: 16 * 1514,
        }
    }
}

struct HtbRt {
    cfg: HtbClass,
    queue: VecDeque<Packet>,
    bytes: u64,
    rate_bucket: TokenBucket,
    ceil_bucket: TokenBucket,
}

/// A one-level approximation of Linux HTB: classes with guaranteed rate,
/// borrowing up to a ceiling, ordered by priority.
///
/// This is the qdisc the reproduction uses for the paper's "nearly-strict
/// prioritization (up to 95 % of bandwidth)": the high-priority class gets
/// `rate = 0.95 × link`, `ceil = link`, priority 0; the low-priority class
/// gets the remaining 5 % guaranteed and may borrow idle capacity.
///
/// Dequeue order: classes within their guaranteed rate ("green"), by
/// priority then index; then classes that can borrow under their ceiling
/// ("yellow"), by priority then index.
pub struct HtbLite {
    classes: Vec<HtbRt>,
    /// Class indices by `(prio, index)`, fixed at construction: a class's
    /// priority never changes, so dequeue walks this and skips the empty.
    order: Vec<usize>,
    drops: u64,
}

impl HtbLite {
    /// Build from class configs; packets are classified by `ClassId` index.
    pub fn new(classes: Vec<HtbClass>) -> Self {
        assert!(!classes.is_empty(), "htb needs at least one class");
        let mut order: Vec<usize> = (0..classes.len()).collect();
        order.sort_by_key(|&i| (classes[i].prio, i));
        HtbLite {
            classes: classes
                .into_iter()
                .map(|cfg| HtbRt {
                    rate_bucket: TokenBucket::new(cfg.rate_bps, cfg.burst_bytes),
                    ceil_bucket: TokenBucket::new(cfg.ceil_bps, cfg.burst_bytes),
                    queue: VecDeque::new(),
                    bytes: 0,
                    cfg,
                })
                .collect(),
            order,
            drops: 0,
        }
    }
}

impl Qdisc for HtbLite {
    fn enqueue(&mut self, pkt: Packet, class: ClassId, _now: SimTime) -> Result<(), Packet> {
        let idx = (class.0 as usize).min(self.classes.len() - 1);
        let c = &mut self.classes[idx];
        if c.queue.len() >= c.cfg.limit_pkts {
            self.drops += 1;
            return Err(pkt);
        }
        c.bytes += pkt.wire_size() as u64;
        c.queue.push_back(pkt);
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime) -> Deq {
        // Pass 1: green — within guaranteed rate (and ceiling, which by
        // construction is >= rate).
        let mut backlogged = false;
        for &i in &self.order {
            let c = &mut self.classes[i];
            let Some(head) = c.queue.front() else {
                continue;
            };
            backlogged = true;
            let sz = head.wire_size() as u64;
            if c.rate_bucket.ready(sz, now) && c.ceil_bucket.ready(sz, now) {
                c.rate_bucket.consume(sz, now);
                c.ceil_bucket.consume(sz, now);
                c.bytes -= sz;
                return Deq::Packet(c.queue.pop_front().expect("nonempty"));
            }
        }
        if !backlogged {
            return Deq::Empty;
        }
        // Pass 2: yellow — borrow, limited by the ceiling only.
        for &i in &self.order {
            let c = &mut self.classes[i];
            let Some(head) = c.queue.front() else {
                continue;
            };
            let sz = head.wire_size() as u64;
            if c.ceil_bucket.ready(sz, now) {
                c.ceil_bucket.consume(sz, now);
                // Rate bucket also drains (may go negative) so green status
                // reflects actual recent throughput.
                c.rate_bucket.consume(sz, now);
                c.bytes -= sz;
                return Deq::Packet(c.queue.pop_front().expect("nonempty"));
            }
        }
        // Backlogged but ceiling-limited everywhere: report earliest release.
        let mut earliest = SimTime::MAX;
        for &i in &self.order {
            let c = &mut self.classes[i];
            let Some(head) = c.queue.front() else {
                continue;
            };
            let sz = head.wire_size() as u64;
            earliest = earliest.min(c.ceil_bucket.ready_at(sz, now));
        }
        // Sub-nanosecond token deficits round `ready_at` down to `now`;
        // report strictly-future so callers' retry loops always progress.
        Deq::NotReadyUntil(earliest.max(now + SimDuration::from_nanos(1)))
    }

    fn len(&self) -> usize {
        self.classes.iter().map(|c| c.queue.len()).sum()
    }

    fn byte_len(&self) -> u64 {
        self.classes.iter().map(|c| c.bytes).sum()
    }

    fn dropped(&self) -> u64 {
        self.drops
    }

    fn band_of(&self, class: ClassId) -> usize {
        (class.0 as usize).min(self.classes.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, DSCP_LATENCY};

    fn pkt(id: u64, payload: u32) -> Packet {
        Packet::data(id, NodeId(0), NodeId(1), 1, 0, payload, DSCP_LATENCY)
    }

    fn drain(q: &mut dyn Qdisc, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        while let Deq::Packet(p) = q.dequeue(now) {
            out.push(p.id);
        }
        out
    }

    #[test]
    fn droptail_fifo_order_and_overflow() {
        let mut q = DropTail::new(3);
        let now = SimTime::ZERO;
        for i in 0..5 {
            let _ = q.enqueue(pkt(i, 100), ClassId(0), now);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.dropped(), 2);
        assert_eq!(drain(&mut q, now), vec![0, 1, 2]);
        assert_eq!(q.byte_len(), 0);
    }

    #[test]
    fn droptail_byte_accounting() {
        let mut q = DropTail::new(10);
        let now = SimTime::ZERO;
        q.enqueue(pkt(0, 1000), ClassId(0), now).unwrap();
        q.enqueue(pkt(1, 500), ClassId(0), now).unwrap();
        assert_eq!(
            q.byte_len(),
            (1000 + crate::packet::HEADER_BYTES + 500 + crate::packet::HEADER_BYTES) as u64
        );
    }

    #[test]
    fn prio_strict_ordering() {
        let mut q = Prio::new(2, 100);
        let now = SimTime::ZERO;
        // Interleave low (band 1) and high (band 0).
        q.enqueue(pkt(10, 100), ClassId(1), now).unwrap();
        q.enqueue(pkt(0, 100), ClassId(0), now).unwrap();
        q.enqueue(pkt(11, 100), ClassId(1), now).unwrap();
        q.enqueue(pkt(1, 100), ClassId(0), now).unwrap();
        assert_eq!(drain(&mut q, now), vec![0, 1, 10, 11]);
    }

    #[test]
    fn prio_clamps_out_of_range_class() {
        let mut q = Prio::new(2, 100);
        q.enqueue(pkt(0, 1), ClassId(9), SimTime::ZERO).unwrap();
        assert_eq!(q.bands[1].len(), 1);
    }

    #[test]
    fn prio_band_isolation_on_overflow() {
        let mut q = Prio::new(2, 1);
        let now = SimTime::ZERO;
        q.enqueue(pkt(0, 1), ClassId(0), now).unwrap();
        assert!(q.enqueue(pkt(1, 1), ClassId(0), now).is_err());
        // Band 1 still has room.
        q.enqueue(pkt(2, 1), ClassId(1), now).unwrap();
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn token_bucket_refill_and_ready_at() {
        let mut tb = TokenBucket::new(8_000, 1_000); // 1000 bytes/sec, 1000 burst
        let t0 = SimTime::ZERO;
        assert!(tb.ready(1_000, t0));
        tb.consume(1_000, t0);
        assert!(!tb.ready(500, t0));
        // 500 bytes need 0.5 s.
        assert_eq!(tb.ready_at(500, t0), SimTime::from_millis(500));
        assert!(tb.ready(500, SimTime::from_millis(500)));
        // Bucket caps at burst.
        assert!(!tb.ready(2_000, SimTime::from_secs(100)));
    }

    #[test]
    fn htb_green_before_yellow() {
        // Class 0: tiny guaranteed rate; class 1: large guaranteed rate but
        // lower priority. With both backlogged and buckets fresh, both are
        // green, so priority order decides.
        let mut q = HtbLite::new(vec![
            HtbClass::new(1_000_000, 10_000_000, 0),
            HtbClass::new(9_000_000, 10_000_000, 1),
        ]);
        let now = SimTime::ZERO;
        q.enqueue(pkt(1, 100), ClassId(1), now).unwrap();
        q.enqueue(pkt(0, 100), ClassId(0), now).unwrap();
        assert!(matches!(q.dequeue(now), Deq::Packet(p) if p.id == 0));
        assert!(matches!(q.dequeue(now), Deq::Packet(p) if p.id == 1));
    }

    #[test]
    fn htb_serves_classes_by_prio_then_index() {
        // Declared out of priority order, with a tie at prio 1: service
        // order is (prio, index) = class 2, then 1, then 3, then 0.
        let mut q = HtbLite::new(vec![
            HtbClass::new(1_000_000, 1_000_000, 3),
            HtbClass::new(1_000_000, 1_000_000, 1),
            HtbClass::new(1_000_000, 1_000_000, 0),
            HtbClass::new(1_000_000, 1_000_000, 1),
        ]);
        let now = SimTime::ZERO;
        for class in [0u16, 3, 1, 2] {
            q.enqueue(pkt(class as u64, 100), ClassId(class), now)
                .unwrap();
        }
        assert_eq!(drain(&mut q, now), vec![2, 1, 3, 0]);
        assert!(matches!(q.dequeue(now), Deq::Empty));
        // Ceiling-limited everywhere: the earliest release among the
        // backlogged classes, skipping the empty ones.
        let mut q = HtbLite::new(vec![
            HtbClass {
                burst_bytes: 200,
                ..HtbClass::new(8_000, 8_000, 1)
            },
            HtbClass {
                burst_bytes: 200,
                ..HtbClass::new(16_000, 16_000, 0)
            },
        ]);
        for id in 0..2 {
            q.enqueue(pkt(id, 100), ClassId(0), now).unwrap();
        }
        assert!(matches!(q.dequeue(now), Deq::Packet(p) if p.id == 0));
        match q.dequeue(now) {
            Deq::NotReadyUntil(at) => assert!(at > now),
            other => panic!("expected NotReadyUntil, got {other:?}"),
        }
    }

    #[test]
    fn htb_95_5_split_under_contention() {
        // The paper's TC rule: high class gets 95 % guaranteed, low 5 %,
        // both can use the full link when alone. Simulate a saturated
        // 1 Mbps link by dequeueing at exactly the serialization rate.
        let rate: u64 = 1_000_000;
        let mut q = HtbLite::new(vec![
            HtbClass {
                burst_bytes: 3_000,
                ..HtbClass::new(rate * 95 / 100, rate, 0)
            },
            HtbClass {
                burst_bytes: 3_000,
                ..HtbClass::new(rate * 5 / 100, rate, 1)
            },
        ]);
        let mut now = SimTime::ZERO;
        let wire = 1_000u64; // 934 payload + 66 header
        let mut sent = [0u64, 0];
        let mut next_id = 0u64;
        // Keep both classes backlogged.
        for _ in 0..2000 {
            for class in 0..2u16 {
                while q.classes[class as usize].queue.len() < 5 {
                    let _ = q.enqueue(pkt(next_id, 934), ClassId(class), now);
                    next_id += 1;
                }
            }
            match q.dequeue(now) {
                Deq::Packet(p) => {
                    // Which class? ids alternate; use queue membership instead:
                    // we tagged nothing, so infer from dscp default (class 0
                    // and 1 enqueue identical packets) — track via payload:
                    // simpler: check which class shrank.
                    let _ = p;
                    // Advance by serialization time at link rate.
                    now += meshlayer_simcore::time::tx_time(wire, rate);
                    // Determine class by queue length bookkeeping below.
                }
                Deq::NotReadyUntil(at) => {
                    now = at;
                    continue;
                }
                Deq::Empty => break,
            }
            // Recount: refill loop above keeps both at 5 before dequeue, so
            // the class that now has 4 is the one that sent.
            if q.classes[0].queue.len() < 5 {
                sent[0] += 1;
            } else {
                sent[1] += 1;
            }
        }
        let total = sent[0] + sent[1];
        let share0 = sent[0] as f64 / total as f64;
        assert!(
            share0 > 0.90 && share0 < 0.99,
            "high-priority share {share0} (sent {sent:?})"
        );
    }

    #[test]
    fn htb_borrows_when_other_class_idle() {
        // Low class alone should use the full ceiling, not its 5 % rate.
        let rate: u64 = 1_000_000;
        let mut q = HtbLite::new(vec![
            HtbClass::new(rate * 95 / 100, rate, 0),
            HtbClass::new(rate * 5 / 100, rate, 1),
        ]);
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        let mut id = 0;
        let end = SimTime::from_secs(1);
        while now < end {
            while q.classes[1].queue.len() < 5 {
                let _ = q.enqueue(pkt(id, 934), ClassId(1), now);
                id += 1;
            }
            match q.dequeue(now) {
                Deq::Packet(_) => {
                    sent += 1;
                    now += meshlayer_simcore::time::tx_time(1000, rate);
                }
                Deq::NotReadyUntil(at) => now = at.min(end),
                Deq::Empty => break,
            }
        }
        // Full ceiling = 125 kB/s = 125 pkts of 1000B wire size.
        assert!(sent > 110, "only sent {sent} packets in 1s");
    }

    #[test]
    fn htb_not_ready_until_when_ceiling_hit() {
        // Single class with ceiling far below demand.
        let mut q = HtbLite::new(vec![HtbClass {
            burst_bytes: 1_000,
            ..HtbClass::new(8_000, 8_000, 0)
        }]);
        let now = SimTime::ZERO;
        q.enqueue(pkt(0, 934), ClassId(0), now).unwrap();
        q.enqueue(pkt(1, 934), ClassId(0), now).unwrap();
        assert!(matches!(q.dequeue(now), Deq::Packet(_)));
        match q.dequeue(now) {
            Deq::NotReadyUntil(at) => assert!(at > now),
            other => panic!("expected NotReadyUntil, got {other:?}"),
        }
    }

    #[test]
    fn htb_drop_counts_per_class_limit() {
        let mut q = HtbLite::new(vec![HtbClass {
            limit_pkts: 1,
            ..HtbClass::new(1_000, 1_000, 0)
        }]);
        let now = SimTime::ZERO;
        assert!(q.enqueue(pkt(0, 1), ClassId(0), now).is_ok());
        assert!(q.enqueue(pkt(1, 1), ClassId(0), now).is_err());
        assert_eq!(q.dropped(), 1);
    }
}
