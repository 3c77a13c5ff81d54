//! Unidirectional links.
//!
//! A [`Link`] serializes one packet at a time at `rate_bps`, preceded by its
//! qdisc and TC classifier, and followed by a fixed propagation delay that
//! the driver applies when scheduling the delivery event.
//!
//! The driver protocol is explicit and event-driven:
//!
//! 1. `offer(pkt, now)` — a packet arrives at the link's tail. The link
//!    classifies, enqueues (possibly dropping), and if the wire is idle
//!    starts transmitting.
//! 2. The returned [`LinkOutcome`] tells the driver what to schedule:
//!    [`LinkOutcome::Busy`] → the wire serializes until `done_at` (see 3);
//!    [`LinkOutcome::KickAt`] → call [`Link::on_kick`] at `at` (shaped
//!    qdisc waiting for tokens, or a released wire with a new backlog);
//!    [`LinkOutcome::Idle`] → nothing.
//! 3. On `Busy` the driver first tries [`Link::release`]. With nothing
//!    queued behind the packet it gets the packet at once and schedules
//!    only its delivery at `done_at + delay()` — one event for the hop.
//!    The link keeps the wire busy until `done_at` on its own: an `offer`
//!    inside that window queues and asks for a kick at `done_at`, which
//!    starts the next packet at the instant `on_tx_done` would have.
//! 4. With a backlog `release` declines, and the driver calls
//!    [`Link::on_tx_done`] at `done_at`: it yields the transmitted packet
//!    — deliver it to the head node at `now + delay()` — plus the next
//!    outcome, which is again either released or chained.
//!
//! Both paths start, finish and deliver every packet at the same
//! simulated instants; they differ only in how many events the driver
//! needs. A released transmission is credited to [`LinkStats`] when its
//! serialization ends, not when it is released: readers at an instant
//! `t` call [`Link::settle_before`] first.

use crate::packet::{ClassId, NodeId, Packet};
use crate::qdisc::{Deq, Qdisc};
use crate::tap::{PacketTap, TapEvent, TapOp};
use crate::tc::TcTable;
use crate::topology::LinkId;
use meshlayer_simcore::time::tx_time;
use meshlayer_simcore::{SimDuration, SimTime};
use std::sync::Arc;

/// What the driver must do next for this link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// A packet is serializing until `done_at`: take it with
    /// [`Link::release`], or call [`Link::on_tx_done`] at `done_at`.
    Busy {
        /// Completion time of the in-flight transmission.
        done_at: SimTime,
    },
    /// Nothing can start before `at` — the shaper is out of tokens, or a
    /// released wire is still serializing; call [`Link::on_kick`] then.
    KickAt {
        /// Earliest time the next packet can start.
        at: SimTime,
    },
    /// Nothing queued; the link sleeps until the next `offer`.
    Idle,
}

/// Counters exposed for telemetry and the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Packets fully transmitted.
    pub tx_packets: u64,
    /// Wire bytes fully transmitted.
    pub tx_bytes: u64,
    /// Wire bytes transmitted, indexed by the 6-bit DSCP value (read
    /// through [`LinkStats::bytes_for_dscp`]). Allocated by the first
    /// transmission: a thousand-pod fabric builds thousands of links, and
    /// half a kilobyte inline in each showed in set-up time.
    pub tx_bytes_by_dscp: Option<Box<[u64; 64]>>,
    /// Nanoseconds the wire spent busy.
    pub busy_ns: u64,
    /// Peak queue depth observed (packets).
    pub peak_queue_pkts: usize,
    /// Peak queue depth observed (bytes).
    pub peak_queue_bytes: u64,
    /// Packets dropped because the link was administratively down.
    pub admin_drops: u64,
    /// Fluid-plane bytes carried by this link (settled by the fluid
    /// runtime at rate-change boundaries, not per packet).
    pub fluid_bytes: u64,
    /// Fluid-plane bytes that could not be carried (demand above the
    /// max-min fair allocation, or the link was down).
    pub fluid_drop_bytes: u64,
    /// Extra serialization nanoseconds per-packet traffic spent because
    /// fluid reservations reduced the effective wire rate — the
    /// NetQueue delay attributable to fluid contention.
    pub fluid_delay_ns: u64,
}

impl LinkStats {
    /// Wire bytes transmitted with DSCP value `dscp` (its low six bits).
    pub fn bytes_for_dscp(&self, dscp: u8) -> u64 {
        self.tx_bytes_by_dscp
            .as_ref()
            .map_or(0, |t| t[(dscp & 0x3f) as usize])
    }

    fn credit(&mut self, wire_bytes: u64, dscp: u8, busy_ns: u64) {
        self.tx_packets += 1;
        self.tx_bytes += wire_bytes;
        self.tx_bytes_by_dscp
            .get_or_insert_with(|| Box::new([0; 64]))[(dscp & 0x3f) as usize] += wire_bytes;
        self.busy_ns += busy_ns;
    }
}

/// A transmission whose packet the driver took early ([`Link::release`]):
/// the wire stays busy until `done_at`, when the counters are credited.
#[derive(Debug, Clone, Copy)]
struct Released {
    wire_bytes: u64,
    dscp: u8,
    done_at: SimTime,
}

/// A unidirectional link: tail qdisc + serializing wire.
pub struct Link {
    id: LinkId,
    from: NodeId,
    to: NodeId,
    rate_bps: u64,
    delay: SimDuration,
    qdisc: Box<dyn Qdisc>,
    tc: TcTable,
    in_flight: Option<Packet>,
    tx_started: SimTime,
    tx_done_at: SimTime,
    released: Option<Released>,
    pending_kick: Option<SimTime>,
    stats: LinkStats,
    tap: Option<Arc<dyn PacketTap>>,
    admin_up: bool,
    fluid_bps: u64,
}

impl Link {
    /// Create a link from `from` to `to` with the given rate, propagation
    /// delay and qdisc. The TC table starts empty (everything in class 0).
    pub fn new(
        id: LinkId,
        from: NodeId,
        to: NodeId,
        rate_bps: u64,
        delay: SimDuration,
        qdisc: Box<dyn Qdisc>,
    ) -> Self {
        assert!(rate_bps > 0, "zero-rate link");
        Link {
            id,
            from,
            to,
            rate_bps,
            delay,
            qdisc,
            tc: TcTable::new(ClassId(0)),
            in_flight: None,
            tx_started: SimTime::ZERO,
            tx_done_at: SimTime::ZERO,
            released: None,
            pending_kick: None,
            stats: LinkStats::default(),
            tap: None,
            admin_up: true,
            fluid_bps: 0,
        }
    }

    /// Attach a capture tap observing this link's qdisc activity (pass the
    /// same tap to many links to capture fabric-wide). Taps are passive:
    /// they never change queueing behaviour.
    pub fn set_tap(&mut self, tap: Arc<dyn PacketTap>) {
        self.tap = Some(tap);
    }

    /// This link's id.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// Tail (sending) node.
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// Head (receiving) node.
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// Serialization rate, bits/second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Bits/second currently reserved by fluid-plane flows. Set by the
    /// fluid runtime's fair-share solver at rate-change events; zero in
    /// worlds without fluid traffic.
    pub fn fluid_bps(&self) -> u64 {
        self.fluid_bps
    }

    /// Reserve `bps` of the wire for fluid-plane flows. The solver caps
    /// its per-link allocation below the raw rate, but the reservation
    /// is defensively clamped so per-packet traffic always keeps at
    /// least `1/`[`Link::MIN_PACKET_SHARE_DIV`] of the wire.
    pub fn set_fluid_bps(&mut self, bps: u64) {
        self.fluid_bps = bps.min(self.rate_bps - self.rate_bps / Self::MIN_PACKET_SHARE_DIV);
    }

    /// Per-packet traffic keeps at least `1/MIN_PACKET_SHARE_DIV` of the
    /// wire no matter how much fluid demand exists (mirrors the paper's
    /// "nearly-strict prioritization (up to 95%)" HTB split, with fluid
    /// in the role of the greedy class).
    pub const MIN_PACKET_SHARE_DIV: u64 = 20;

    /// The wire rate per-packet traffic is served at: the raw rate minus
    /// the fluid reservation, floored at the guaranteed packet share.
    pub fn effective_rate_bps(&self) -> u64 {
        (self.rate_bps - self.fluid_bps)
            .max(self.rate_bps / Self::MIN_PACKET_SHARE_DIV)
            .max(1)
    }

    /// Settle `delivered`/`dropped` fluid bytes onto this link's
    /// counters (called by the fluid runtime at settlement boundaries).
    pub fn add_fluid_bytes(&mut self, delivered: u64, dropped: u64) {
        self.stats.fluid_bytes += delivered;
        self.stats.fluid_drop_bytes += dropped;
    }

    /// Propagation delay the driver adds after `on_tx_done`.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Mutable access to the TC classifier (rule installation point used by
    /// the cross-layer prioritizer).
    pub fn tc_mut(&mut self) -> &mut TcTable {
        &mut self.tc
    }

    /// The TC classifier.
    pub fn tc(&self) -> &TcTable {
        &self.tc
    }

    /// The queueing discipline.
    pub fn qdisc(&self) -> &dyn Qdisc {
        self.qdisc.as_ref()
    }

    /// Replace the qdisc (e.g. swap DropTail for HTB when priority rules
    /// are installed). Any queued packets in the old qdisc are drained into
    /// the new one in order.
    pub fn set_qdisc(&mut self, mut qdisc: Box<dyn Qdisc>, now: SimTime) {
        while let Deq::Packet(p) = self.qdisc.dequeue(now) {
            let class = self.tc.classify(&p);
            let _ = qdisc.enqueue(p, class, now);
        }
        self.qdisc = qdisc;
    }

    /// Telemetry counters. A released transmission is credited once its
    /// serialization has ended *and* the link has been touched since —
    /// call [`Link::settle_before`] first when reading mid-run.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Credit a released transmission that finished serializing before
    /// `t`. Readers of [`Link::stats`] at instant `t` call this first;
    /// "before" and not "by" because a reader's own event (a periodic
    /// tick, scheduled a whole period ago) runs ahead of a completion
    /// falling on the same nanosecond (scheduled a serialization time
    /// ago). End-of-run readers pass the instant after the last one.
    pub fn settle_before(&mut self, t: SimTime) {
        if self.released.is_some_and(|r| r.done_at < t) {
            self.settle();
        }
    }

    /// Credit the released transmission, if any.
    fn settle(&mut self) {
        if let Some(r) = self.released.take() {
            let busy = r.done_at.saturating_since(self.tx_started).as_nanos();
            self.stats.credit(r.wire_bytes, r.dscp, busy);
        }
    }

    /// Packets dropped since creation (qdisc overflow + admin-down drops).
    pub fn drops(&self) -> u64 {
        self.qdisc.dropped() + self.stats.admin_drops
    }

    /// Current queue depth in packets (excluding the in-flight packet).
    pub fn queue_len(&self) -> usize {
        self.qdisc.len()
    }

    /// Current queue depth in bytes (excluding the in-flight packet).
    pub fn queue_bytes(&self) -> u64 {
        self.qdisc.byte_len()
    }

    /// Wire utilization over `[SimTime::ZERO, now]`, in `[0,1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_nanos();
        if elapsed == 0 {
            return 0.0;
        }
        let mut busy = self.stats.busy_ns;
        if self.in_flight.is_some() {
            busy += now.saturating_since(self.tx_started).as_nanos();
        } else if let Some(r) = self.released {
            busy += now
                .min(r.done_at)
                .saturating_since(self.tx_started)
                .as_nanos();
        }
        busy as f64 / elapsed as f64
    }

    /// Administratively bring the link up or down (chaos plane: link flaps
    /// and partitions). While down, every offered packet is dropped on the
    /// floor; packets already queued or in flight drain normally, matching
    /// an interface whose carrier drops mid-transfer.
    pub fn set_admin_up(&mut self, up: bool) {
        self.admin_up = up;
    }

    /// Whether the link is administratively up.
    pub fn is_admin_up(&self) -> bool {
        self.admin_up
    }

    /// A packet arrives at the tail. Returns what to schedule next and
    /// whether the packet was dropped (`true` = dropped).
    pub fn offer(&mut self, pkt: Packet, now: SimTime) -> (LinkOutcome, bool) {
        if !self.admin_up {
            if let Some(tap) = &self.tap {
                tap.on_packet(TapEvent {
                    link: self.id,
                    op: TapOp::Drop,
                    pkt: &pkt,
                    band: self.qdisc.band_of(self.tc.classify(&pkt)),
                    queue_pkts: self.qdisc.len(),
                    queue_bytes: self.qdisc.byte_len(),
                    now,
                });
            }
            self.stats.admin_drops += 1;
            return (LinkOutcome::Idle, true);
        }
        let class = self.tc.classify(&pkt);
        // Snapshot for the tap before the qdisc consumes the packet.
        let snapshot = self.tap.is_some().then(|| pkt.clone());
        let dropped = self.qdisc.enqueue(pkt, class, now).is_err();
        self.stats.peak_queue_pkts = self.stats.peak_queue_pkts.max(self.qdisc.len());
        self.stats.peak_queue_bytes = self.stats.peak_queue_bytes.max(self.qdisc.byte_len());
        if let (Some(tap), Some(p)) = (&self.tap, &snapshot) {
            tap.on_packet(TapEvent {
                link: self.id,
                op: if dropped { TapOp::Drop } else { TapOp::Enqueue },
                pkt: p,
                band: self.qdisc.band_of(class),
                queue_pkts: self.qdisc.len(),
                queue_bytes: self.qdisc.byte_len(),
                now,
            });
        }
        if self.in_flight.is_some() {
            // Wire busy; on_tx_done will pick the packet up.
            return (LinkOutcome::Idle, dropped);
        }
        if let Some(free_at) = self.released_until(now) {
            // Nobody will call on_tx_done for a released transmission,
            // so ask to be woken when the wire frees up.
            return (self.wake_at(free_at), dropped);
        }
        (self.try_start(now), dropped)
    }

    /// Right after a [`LinkOutcome::Busy`]: take the serializing packet
    /// now instead of at `done_at`. Declines (`None`) when packets are
    /// queued behind it — then the driver keeps the `on_tx_done` chain,
    /// which needs no extra wake-up to start the next packet. On success
    /// the driver owes one delivery at `done_at + delay()` and no
    /// `on_tx_done` call; the link holds the wire until `done_at` itself.
    pub fn release(&mut self) -> Option<Packet> {
        if !self.qdisc.is_empty() {
            return None;
        }
        let pkt = self.in_flight.take()?;
        self.released = Some(Released {
            wire_bytes: pkt.wire_size() as u64,
            dscp: pkt.dscp,
            done_at: self.tx_done_at,
        });
        Some(pkt)
    }

    /// The in-flight transmission finished. Returns the transmitted packet
    /// (deliver to [`Link::to`] at `now + delay()`) and the next outcome.
    ///
    /// # Panics
    /// Panics if called while no packet is in flight (driver bug).
    pub fn on_tx_done(&mut self, now: SimTime) -> (Packet, LinkOutcome) {
        let pkt = self
            .in_flight
            .take()
            .expect("on_tx_done called on idle link");
        let busy = now.saturating_since(self.tx_started).as_nanos();
        self.stats.credit(pkt.wire_size() as u64, pkt.dscp, busy);
        (pkt, self.try_start(now))
    }

    /// A scheduled kick fired. Spurious kicks (wire already busy, or
    /// nothing ready) are tolerated and return the correct next outcome.
    pub fn on_kick(&mut self, now: SimTime) -> LinkOutcome {
        self.pending_kick = None;
        if self.in_flight.is_some() {
            return LinkOutcome::Idle;
        }
        if let Some(free_at) = self.released_until(now) {
            // A stale shaper kick landed inside a released transmission.
            return self.wake_at(free_at);
        }
        self.try_start(now)
    }

    /// When the released transmission ends, if it is still serializing
    /// at `now`.
    fn released_until(&self, now: SimTime) -> Option<SimTime> {
        self.released.map(|r| r.done_at).filter(|&end| now < end)
    }

    /// The released wire serializes until `free_at`: if a backlog is
    /// waiting, ask for a kick at that instant.
    fn wake_at(&mut self, free_at: SimTime) -> LinkOutcome {
        if self.qdisc.is_empty() {
            LinkOutcome::Idle
        } else {
            self.request_kick(free_at)
        }
    }

    /// Deduplicate kicks: only ask for a new one if none is pending, or
    /// this one is strictly earlier.
    fn request_kick(&mut self, at: SimTime) -> LinkOutcome {
        match self.pending_kick {
            Some(p) if p <= at => LinkOutcome::Idle,
            _ => {
                self.pending_kick = Some(at);
                LinkOutcome::KickAt { at }
            }
        }
    }

    fn try_start(&mut self, now: SimTime) -> LinkOutcome {
        debug_assert!(self.in_flight.is_none());
        debug_assert!(self.released.is_none_or(|r| r.done_at <= now));
        // The wire is free again: the released transmission is over.
        self.settle();
        match self.qdisc.dequeue(now) {
            Deq::Packet(pkt) => {
                if let Some(tap) = &self.tap {
                    tap.on_packet(TapEvent {
                        link: self.id,
                        op: TapOp::Dequeue,
                        pkt: &pkt,
                        band: self.qdisc.band_of(self.tc.classify(&pkt)),
                        queue_pkts: self.qdisc.len(),
                        queue_bytes: self.qdisc.byte_len(),
                        now,
                    });
                }
                let wire = pkt.wire_size() as u64;
                let tx = tx_time(wire, self.effective_rate_bps());
                if self.fluid_bps > 0 {
                    self.stats.fluid_delay_ns +=
                        tx.saturating_sub(tx_time(wire, self.rate_bps)).as_nanos();
                }
                let done_at = now + tx;
                self.in_flight = Some(pkt);
                self.tx_started = now;
                self.tx_done_at = done_at;
                LinkOutcome::Busy { done_at }
            }
            Deq::NotReadyUntil(at) => self.request_kick(at),
            Deq::Empty => LinkOutcome::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::DSCP_LATENCY;
    use crate::qdisc::{DropTail, HtbClass, HtbLite};

    fn pkt(id: u64, payload: u32) -> Packet {
        Packet::data(id, NodeId(0), NodeId(1), 1, 0, payload, DSCP_LATENCY)
    }

    /// A one-class HTB with rate = ceil: a token-bucket shaper over a FIFO.
    fn shaper(rate_bps: u64, burst_bytes: u64, limit_pkts: usize) -> HtbLite {
        HtbLite::new(vec![HtbClass {
            burst_bytes,
            limit_pkts,
            ..HtbClass::new(rate_bps, rate_bps, 0)
        }])
    }

    fn mklink(rate_bps: u64) -> Link {
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            rate_bps,
            SimDuration::from_micros(50),
            Box::new(DropTail::new(100)),
        )
    }

    #[test]
    fn single_packet_lifecycle() {
        let mut link = mklink(1_000_000_000); // 1 Gbps
        let t0 = SimTime::ZERO;
        let (out, dropped) = link.offer(pkt(1, 1434), t0); // 1500B wire
        assert!(!dropped);
        let done = match out {
            LinkOutcome::Busy { done_at } => done_at,
            other => panic!("expected Busy, got {other:?}"),
        };
        // 1500B at 1 Gbps = 12 us.
        assert_eq!(done, SimTime::from_micros(12));
        let (sent, next) = link.on_tx_done(done);
        assert_eq!(sent.id, 1);
        assert_eq!(next, LinkOutcome::Idle);
        assert_eq!(link.stats().tx_packets, 1);
        assert_eq!(link.stats().tx_bytes, 1500);
    }

    #[test]
    fn back_to_back_serialization() {
        let mut link = mklink(1_000_000_000);
        let t0 = SimTime::ZERO;
        let (out, _) = link.offer(pkt(1, 1434), t0);
        let d1 = match out {
            LinkOutcome::Busy { done_at } => done_at,
            _ => panic!(),
        };
        // Second packet queues behind the first.
        let (out2, _) = link.offer(pkt(2, 1434), t0);
        assert_eq!(out2, LinkOutcome::Idle);
        assert_eq!(link.queue_len(), 1);
        let (p1, next) = link.on_tx_done(d1);
        assert_eq!(p1.id, 1);
        let d2 = match next {
            LinkOutcome::Busy { done_at } => done_at,
            _ => panic!(),
        };
        assert_eq!(d2, d1 + SimDuration::from_micros(12));
        let (p2, next) = link.on_tx_done(d2);
        assert_eq!(p2.id, 2);
        assert_eq!(next, LinkOutcome::Idle);
    }

    #[test]
    fn drop_reported_to_caller() {
        let mut link = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            1_000_000,
            SimDuration::ZERO,
            Box::new(DropTail::new(1)),
        );
        let t0 = SimTime::ZERO;
        let (_, d1) = link.offer(pkt(1, 100), t0); // starts tx, queue empty
        assert!(!d1);
        let (_, d2) = link.offer(pkt(2, 100), t0); // queued
        assert!(!d2);
        let (_, d3) = link.offer(pkt(3, 100), t0); // queue full -> drop
        assert!(d3);
        assert_eq!(link.drops(), 1);
    }

    #[test]
    fn shaped_qdisc_requests_kick() {
        // Shaped to 8 kbps with a burst of exactly one packet.
        let mut link = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            1_000_000_000,
            SimDuration::ZERO,
            Box::new(shaper(8_000, 166, 10)),
        );
        let t0 = SimTime::ZERO;
        let (out, _) = link.offer(pkt(1, 100), t0); // 166B wire, rides burst
        let d1 = match out {
            LinkOutcome::Busy { done_at } => done_at,
            other => panic!("{other:?}"),
        };
        let (_, _) = link.offer(pkt(2, 100), t0);
        let (_p, next) = link.on_tx_done(d1);
        let at = match next {
            LinkOutcome::KickAt { at } => at,
            other => panic!("expected KickAt, got {other:?}"),
        };
        assert!(at > d1);
        // Kick at the right time starts the next packet.
        match link.on_kick(at) {
            LinkOutcome::Busy { .. } => {}
            other => panic!("expected Busy after kick, got {other:?}"),
        }
    }

    #[test]
    fn kick_dedup() {
        let mut link = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            1_000_000_000,
            SimDuration::ZERO,
            Box::new(shaper(8_000, 166, 10)),
        );
        let t0 = SimTime::ZERO;
        let (out, _) = link.offer(pkt(1, 100), t0);
        let d1 = match out {
            LinkOutcome::Busy { done_at } => done_at,
            _ => panic!(),
        };
        link.offer(pkt(2, 100), t0);
        let (_, next) = link.on_tx_done(d1);
        assert!(matches!(next, LinkOutcome::KickAt { .. }));
        // Offering another packet while waiting must not duplicate the kick.
        let (out3, _) = link.offer(pkt(3, 100), d1);
        assert_eq!(out3, LinkOutcome::Idle);
    }

    #[test]
    fn spurious_kick_on_idle_link_is_noop() {
        let mut link = mklink(1_000_000);
        assert_eq!(link.on_kick(SimTime::from_secs(1)), LinkOutcome::Idle);
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut link = mklink(1_000_000); // 1 Mbps: 1500B = 12 ms
        let t0 = SimTime::ZERO;
        let (out, _) = link.offer(pkt(1, 1434), t0);
        let d = match out {
            LinkOutcome::Busy { done_at } => done_at,
            _ => panic!(),
        };
        link.on_tx_done(d);
        // Busy 12ms of 24ms elapsed = 50%.
        let u = link.utilization(SimTime::from_millis(24));
        assert!((u - 0.5).abs() < 0.01, "u={u}");
    }

    #[test]
    fn set_qdisc_preserves_backlog() {
        let mut link = mklink(1_000);
        let t0 = SimTime::ZERO;
        let (out, _) = link.offer(pkt(1, 100), t0);
        assert!(matches!(out, LinkOutcome::Busy { .. }));
        link.offer(pkt(2, 100), t0);
        link.offer(pkt(3, 100), t0);
        assert_eq!(link.queue_len(), 2);
        link.set_qdisc(Box::new(DropTail::new(50)), t0);
        assert_eq!(link.queue_len(), 2);
    }

    #[test]
    fn admin_down_drops_offers_and_drains_backlog() {
        let mut link = mklink(1_000_000_000);
        let t0 = SimTime::ZERO;
        let (out, _) = link.offer(pkt(1, 1434), t0); // in flight
        let d1 = match out {
            LinkOutcome::Busy { done_at } => done_at,
            _ => panic!(),
        };
        link.offer(pkt(2, 1434), t0); // queued
        link.set_admin_up(false);
        assert!(!link.is_admin_up());
        // New offers drop on the floor without touching the queue.
        let (out3, dropped) = link.offer(pkt(3, 1434), t0);
        assert!(dropped);
        assert_eq!(out3, LinkOutcome::Idle);
        assert_eq!(link.queue_len(), 1);
        assert_eq!(link.drops(), 1);
        assert_eq!(link.stats().admin_drops, 1);
        // Already-queued traffic still drains.
        let (p1, next) = link.on_tx_done(d1);
        assert_eq!(p1.id, 1);
        let d2 = match next {
            LinkOutcome::Busy { done_at } => done_at,
            _ => panic!(),
        };
        let (p2, _) = link.on_tx_done(d2);
        assert_eq!(p2.id, 2);
        // Re-up: offers flow again, no kick needed.
        link.set_admin_up(true);
        let (out4, dropped4) = link.offer(pkt(4, 1434), d2);
        assert!(!dropped4);
        assert!(matches!(out4, LinkOutcome::Busy { .. }));
    }

    #[test]
    fn fluid_reservation_slows_packet_service() {
        let mut link = mklink(1_000_000_000); // 1 Gbps: 1500B = 12 us
        link.set_fluid_bps(500_000_000); // fluid takes half the wire
        assert_eq!(link.effective_rate_bps(), 500_000_000);
        let (out, _) = link.offer(pkt(1, 1434), SimTime::ZERO);
        let done = match out {
            LinkOutcome::Busy { done_at } => done_at,
            other => panic!("{other:?}"),
        };
        // Half the wire -> double the serialization time.
        assert_eq!(done, SimTime::from_micros(24));
        assert_eq!(link.stats().fluid_delay_ns, 12_000);
        // Clearing the reservation restores full-rate service.
        link.set_fluid_bps(0);
        let (p, _) = link.on_tx_done(done);
        assert_eq!(p.id, 1);
        let (out, _) = link.offer(pkt(2, 1434), done);
        match out {
            LinkOutcome::Busy { done_at } => {
                assert_eq!(done_at, done + SimDuration::from_micros(12));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fluid_reservation_clamped_to_packet_floor() {
        let mut link = mklink(1_000_000_000);
        // Ask for more than the wire: packets keep their guaranteed 5%.
        link.set_fluid_bps(2_000_000_000);
        assert_eq!(link.fluid_bps(), 950_000_000);
        assert_eq!(link.effective_rate_bps(), 50_000_000);
    }

    #[test]
    fn fluid_byte_settlement_accumulates() {
        let mut link = mklink(1_000_000);
        link.add_fluid_bytes(1_000, 10);
        link.add_fluid_bytes(500, 0);
        assert_eq!(link.stats().fluid_bytes, 1_500);
        assert_eq!(link.stats().fluid_drop_bytes, 10);
    }

    fn busy(out: LinkOutcome) -> SimTime {
        match out {
            LinkOutcome::Busy { done_at } => done_at,
            other => panic!("expected Busy, got {other:?}"),
        }
    }

    #[test]
    fn released_hop_needs_no_tx_done_and_credits_at_done_at() {
        let mut link = mklink(1_000_000_000); // 1500B = 12 us
        let d1 = busy(link.offer(pkt(1, 1434), SimTime::ZERO).0);
        assert_eq!(link.release().map(|p| p.id), Some(1));
        assert!(link.release().is_none(), "nothing left to take");
        // Serializing until d1: not yet credited, but utilization sees it.
        link.settle_before(d1);
        assert_eq!(link.stats().tx_packets, 0);
        let half = SimTime::from_micros(6);
        assert!((link.utilization(half) - 1.0).abs() < 1e-9);
        // Over: credited with the full serialization time.
        link.settle_before(d1 + SimDuration::from_nanos(1));
        assert_eq!(link.stats().tx_packets, 1);
        assert_eq!(link.stats().tx_bytes, 1500);
        assert_eq!(link.stats().busy_ns, 12_000);
        // The wire is free again at d1 exactly.
        let d2 = busy(link.offer(pkt(2, 1434), d1).0);
        assert_eq!(d2, d1 + SimDuration::from_micros(12));
    }

    #[test]
    fn offer_inside_released_window_waits_for_the_wire() {
        let mut link = mklink(1_000_000_000);
        let d1 = busy(link.offer(pkt(1, 1434), SimTime::ZERO).0);
        link.release().expect("nothing queued behind");
        let mid = SimTime::from_micros(5);
        // First offer inside the window asks for one wake-up at d1...
        assert_eq!(
            link.offer(pkt(2, 1434), mid).0,
            LinkOutcome::KickAt { at: d1 }
        );
        // ...later ones ride on it.
        assert_eq!(link.offer(pkt(3, 1434), mid).0, LinkOutcome::Idle);
        assert_eq!(link.queue_len(), 2);
        // The kick starts packet 2 at d1 and credits packet 1; with packet
        // 3 queued behind, the link declines another release.
        let d2 = busy(link.on_kick(d1));
        assert_eq!(d2, d1 + SimDuration::from_micros(12));
        assert_eq!(link.stats().tx_packets, 1);
        assert!(link.release().is_none());
        let (p2, next) = link.on_tx_done(d2);
        assert_eq!(p2.id, 2);
        busy(next);
        assert_eq!(link.release().map(|p| p.id), Some(3));
    }

    #[test]
    fn stale_kick_inside_released_window_reschedules_the_wakeup() {
        let mut link = mklink(1_000_000_000);
        let d1 = busy(link.offer(pkt(1, 1434), SimTime::ZERO).0);
        link.release().unwrap();
        let mid = SimTime::from_micros(5);
        assert!(matches!(
            link.offer(pkt(2, 100), mid).0,
            LinkOutcome::KickAt { .. }
        ));
        // A kick that is not the wake-up (say an old shaper kick) must not
        // start anything early nor lose the wake-up.
        assert_eq!(link.on_kick(mid), LinkOutcome::KickAt { at: d1 });
        assert_eq!(link.queue_len(), 1);
        busy(link.on_kick(d1));
    }

    #[test]
    fn per_dscp_accounting() {
        let mut link = mklink(1_000_000_000);
        let t0 = SimTime::ZERO;
        let mut p = pkt(1, 934);
        p.dscp = crate::packet::DSCP_BATCH;
        let (out, _) = link.offer(p, t0);
        let d = match out {
            LinkOutcome::Busy { done_at } => done_at,
            _ => panic!(),
        };
        link.on_tx_done(d);
        assert_eq!(link.stats().bytes_for_dscp(crate::packet::DSCP_BATCH), 1000);
        assert_eq!(link.stats().bytes_for_dscp(DSCP_LATENCY), 0);
    }
}
