//! Reliable, message-multiplexed connections.
//!
//! A [`Conn`] is one endpoint of a sidecar-to-sidecar transport connection.
//! It carries whole application messages (HTTP requests/responses) over a
//! reliable byte stream with cumulative acks, fast retransmit (3 dup-acks),
//! RTO with exponential backoff, and a pluggable congestion controller.
//!
//! Messages are multiplexed onto the stream round-robin, segment by
//! segment, in the spirit of Structured Streams \[13]/HTTP2, which §3.6
//! suggests for avoiding head-of-line blocking between requests sharing a
//! connection: a small message is not blocked behind a large one.
//!
//! Like everything in the simulation, a `Conn` is a passive state machine:
//! the driver feeds it packets and timer fires, and it answers with packets
//! to transmit, messages that completed, and the timer it wants next.
//!
//! ## Simplifications (documented deviations from kernel TCP)
//!
//! * no SACK — loss recovery is NewReno-style: one fast retransmit per
//!   loss event, then one hole filled per partial ack during recovery,
//! * every data packet is acked immediately (no delayed acks),
//! * flow control is a fixed receive-window cap ([`ConnConfig::rwnd`])
//!   rather than a dynamically advertised window,
//! * connections are pre-established (no handshake) and never closed,
//! * no idle-restart of the congestion window (cwnd validation).

use crate::cc::{CcAlgo, CongestionControl, MSS};
use crate::rtt::RttEstimator;
use meshlayer_netsim::{NodeId, Packet, PacketKind};
use meshlayer_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Static configuration of a connection endpoint.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConnConfig {
    /// Maximum segment size (payload bytes per packet).
    pub mss: u64,
    /// Receive-window cap in bytes: the sender never keeps more than this
    /// in flight, whatever the congestion window says. Models the peer's
    /// advertised window / kernel `rmem` autotuning cap, and bounds
    /// slow-start bufferbloat at low-BDP datacenter links.
    pub rwnd: u64,
    /// DSCP tag applied to every packet of this connection.
    pub dscp: u8,
    /// Congestion-control algorithm.
    pub cc: CcAlgo,
    /// Source pod IP stamped on outgoing packets.
    pub src_ip: u32,
    /// Destination pod IP stamped on outgoing packets.
    pub dst_ip: u32,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            mss: MSS,
            rwnd: 1_500_000,
            dscp: 0,
            cc: CcAlgo::Cubic,
            src_ip: 0,
            dst_ip: 0,
        }
    }
}

/// A message that finished arriving at this endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivered {
    /// The message id assigned by the sender.
    pub msg: u64,
    /// Its total length in bytes.
    pub len: u64,
}

/// Everything the driver must act on after poking a connection.
///
/// The `*_into` methods of [`Conn`] append to a caller-owned `ConnOutput`
/// that must be empty on entry; the caller keeps one, drains it after every
/// call and [`ConnOutput::clear`]s it, so its vectors keep their capacity
/// and the packet path allocates nothing.
#[derive(Debug, Default)]
pub struct ConnOutput {
    /// Packets to inject into the network (stamped and routed by the driver).
    pub packets: Vec<Packet>,
    /// Messages that completed arriving.
    pub delivered: Vec<Delivered>,
    /// The timer this connection currently wants: `(fire_at, generation)`.
    /// The driver calls [`Conn::on_timer`] with that generation at
    /// `fire_at` unless the timer has moved by then ([`crate::TimerSlot`]
    /// does this with one live event); stale generations are ignored.
    pub timer: Option<(SimTime, u64)>,
}

impl ConnOutput {
    /// Empty the output, keeping the vectors' capacity.
    pub fn clear(&mut self) {
        self.packets.clear();
        self.delivered.clear();
        self.timer = None;
    }

    /// Whether there is nothing to act on.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty() && self.delivered.is_empty() && self.timer.is_none()
    }
}

/// Counters for telemetry.
#[derive(Clone, Debug, Default)]
pub struct ConnStats {
    /// Payload bytes handed to the network (including retransmissions).
    pub bytes_sent: u64,
    /// Payload bytes cumulatively acknowledged.
    pub bytes_acked: u64,
    /// Fast retransmissions triggered.
    pub fast_retx: u64,
    /// RTO retransmissions triggered.
    pub timeouts: u64,
    /// Messages fully delivered to this endpoint.
    pub msgs_delivered: u64,
}

/// An outgoing message being segmented.
#[derive(Debug)]
struct OutMsg {
    id: u64,
    len: u64,
    /// Bytes already segmented into the stream.
    segmented: u64,
}

/// An unacknowledged segment.
#[derive(Clone, Copy, Debug)]
struct Seg {
    len: u32,
    msg: u64,
    msg_len: u64,
}

/// Reassembly state for one incoming message.
#[derive(Debug, Default)]
struct InMsg {
    len: u64,
    credited: u64,
}

/// One endpoint of a transport connection (see module docs).
pub struct Conn {
    id: u64,
    /// 0 or 1; disambiguates packet ids between the two endpoints.
    dir: u8,
    local: NodeId,
    remote: NodeId,
    cfg: ConnConfig,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,

    // --- send side ---
    snd_una: u64,
    snd_nxt: u64,
    out_msgs: VecDeque<OutMsg>,
    rr_cursor: usize,
    /// Unacknowledged segments as `(seq, seg)`, seq-ascending and
    /// contiguous: each starts where the previous one ends, and the last
    /// ends at `snd_nxt`. Acks pop a prefix; new data pushes at the back.
    sent_segs: VecDeque<(u64, Seg)>,
    retx_queue: VecDeque<u64>,
    dup_acks: u32,
    /// NewReno recovery point: dup-ack losses are ignored until
    /// `snd_una` passes this sequence.
    recovery_until: Option<u64>,
    consecutive_timeouts: u32,
    rto_at: Option<SimTime>,
    timer_gen: u64,
    pkt_ctr: u64,

    // --- receive side ---
    /// Received byte ranges `start -> end`, coalesced.
    rcv_ranges: BTreeMap<u64, u64>,
    rcv_msgs: HashMap<u64, InMsg>,

    stats: ConnStats,
}

impl Conn {
    /// Create an endpoint. `dir` must differ between the two ends (by
    /// convention 0 = initiator/client side, 1 = acceptor/server side).
    pub fn new(id: u64, dir: u8, local: NodeId, remote: NodeId, cfg: ConnConfig) -> Self {
        let cc = cfg.cc.build();
        Conn {
            id,
            dir,
            local,
            remote,
            cfg,
            cc,
            rtt: RttEstimator::new(),
            snd_una: 0,
            snd_nxt: 0,
            out_msgs: VecDeque::new(),
            rr_cursor: 0,
            sent_segs: VecDeque::new(),
            retx_queue: VecDeque::new(),
            dup_acks: 0,
            recovery_until: None,
            consecutive_timeouts: 0,
            rto_at: None,
            timer_gen: 0,
            pkt_ctr: 0,
            rcv_ranges: BTreeMap::new(),
            rcv_msgs: HashMap::new(),
            stats: ConnStats::default(),
        }
    }

    /// Connection id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The local host.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// The remote host.
    pub fn remote(&self) -> NodeId {
        self.remote
    }

    /// Telemetry counters.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Current congestion window (bytes), for telemetry.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// Smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Name of the congestion-control algorithm.
    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }

    /// The DSCP tag stamped on outgoing packets.
    pub fn dscp(&self) -> u8 {
        self.cfg.dscp
    }

    /// Re-profile a live connection: change the DSCP tag on future packets
    /// and, when `cc` differs from the running algorithm, swap in a fresh
    /// instance of the new congestion control (the window restarts from
    /// the algorithm's initial state, as a real kernel does on a
    /// per-route `congestion` change). In-flight segments, RTT state, and
    /// reassembly buffers are untouched, so no data is lost or reordered.
    pub fn set_profile(&mut self, dscp: u8, cc: CcAlgo) {
        self.cfg.dscp = dscp;
        if cc != self.cfg.cc {
            self.cfg.cc = cc;
            self.cc = cc.build();
        }
    }

    /// The currently armed timer, as `(fire_at, generation)` — what the
    /// driver would have been told via the last [`ConnOutput::timer`].
    pub fn timer_state(&self) -> Option<(SimTime, u64)> {
        self.rto_at.map(|at| (at, self.timer_gen))
    }

    /// Bytes submitted but not yet acknowledged (queued + in flight).
    pub fn outstanding(&self) -> u64 {
        let queued: u64 = self.out_msgs.iter().map(|m| m.len - m.segmented).sum();
        queued + (self.snd_nxt - self.snd_una)
    }

    /// Submit a message of `len` bytes for transmission; returns packets to
    /// send now (as window allows). Allocates its output: a caller on the
    /// hot path calls [`Conn::send_message_into`].
    pub fn send_message(&mut self, msg_id: u64, len: u64, now: SimTime) -> ConnOutput {
        let mut out = ConnOutput::default();
        self.send_message_into(msg_id, len, now, &mut out);
        out
    }

    /// A packet addressed to this endpoint arrived. Allocates its output:
    /// a caller on the hot path calls [`Conn::on_packet_into`].
    pub fn on_packet(&mut self, pkt: &Packet, now: SimTime) -> ConnOutput {
        let mut out = ConnOutput::default();
        self.on_packet_into(pkt, now, &mut out);
        out
    }

    /// A timer event fired. Stale generations produce no action. Allocates
    /// its output: a caller on the hot path calls [`Conn::on_timer_into`].
    pub fn on_timer(&mut self, gen: u64, now: SimTime) -> ConnOutput {
        let mut out = ConnOutput::default();
        self.on_timer_into(gen, now, &mut out);
        out
    }

    /// [`Conn::send_message`], appending to `out`, which must be empty.
    pub fn send_message_into(&mut self, msg_id: u64, len: u64, now: SimTime, out: &mut ConnOutput) {
        debug_assert!(out.is_empty(), "ConnOutput must be empty on entry");
        assert!(len > 0, "empty message");
        self.out_msgs.push_back(OutMsg {
            id: msg_id,
            len,
            segmented: 0,
        });
        self.pump(now, out);
    }

    /// [`Conn::on_packet`], appending to `out`, which must be empty.
    pub fn on_packet_into(&mut self, pkt: &Packet, now: SimTime, out: &mut ConnOutput) {
        debug_assert!(out.is_empty(), "ConnOutput must be empty on entry");
        debug_assert_eq!(pkt.conn, self.id);
        match pkt.kind {
            PacketKind::Data => self.on_data(pkt, out),
            PacketKind::Ack => self.on_ack(pkt, now, out),
        }
    }

    /// [`Conn::on_timer`], appending to `out`, which must be empty.
    pub fn on_timer_into(&mut self, gen: u64, now: SimTime, out: &mut ConnOutput) {
        debug_assert!(out.is_empty(), "ConnOutput must be empty on entry");
        if gen != self.timer_gen || self.rto_at.is_none_or(|at| at > now) {
            return;
        }
        self.rto_at = None;
        // RTO: retransmit the earliest unacked segment, collapse the window.
        if let Some(&(seq, _)) = self.sent_segs.front() {
            self.stats.timeouts += 1;
            self.consecutive_timeouts = (self.consecutive_timeouts + 1).min(10);
            self.cc.on_timeout(now);
            self.recovery_until = Some(self.snd_nxt);
            self.dup_acks = 0;
            if !self.retx_queue.contains(&seq) {
                self.retx_queue.push_back(seq);
            }
            self.pump(now, out);
        }
    }

    // -----------------------------------------------------------------
    // internals
    // -----------------------------------------------------------------

    fn next_pkt_id(&mut self) -> u64 {
        self.pkt_ctr += 1;
        (self.id << 20) | ((self.dir as u64) << 19) | (self.pkt_ctr & 0x7_ffff)
    }

    /// Effective RTO with exponential backoff.
    fn effective_rto(&self) -> SimDuration {
        self.rtt
            .rto()
            .saturating_mul(1u64 << self.consecutive_timeouts.min(6))
    }

    fn arm_timer(&mut self, now: SimTime) {
        let want = if self.sent_segs.is_empty() {
            None
        } else {
            Some(now + self.effective_rto())
        };
        if want != self.rto_at {
            self.rto_at = want;
            self.timer_gen += 1;
        }
    }

    fn timer_out(&self) -> Option<(SimTime, u64)> {
        self.rto_at.map(|at| (at, self.timer_gen))
    }

    /// The unacked segment that starts at `seq`, if any.
    fn seg_at(&self, seq: u64) -> Option<Seg> {
        let i = self.sent_segs.partition_point(|&(s, _)| s < seq);
        match self.sent_segs.get(i) {
            Some(&(s, seg)) if s == seq => Some(seg),
            _ => None,
        }
    }

    /// Build a data packet for segment `seg`, which starts at `seq`.
    fn mk_data(&mut self, seq: u64, seg: Seg, now: SimTime) -> Packet {
        let mut p = Packet::data(
            self.next_pkt_id(),
            self.local,
            self.remote,
            self.id,
            seq,
            seg.len,
            self.cfg.dscp,
        );
        p.src_ip = self.cfg.src_ip;
        p.dst_ip = self.cfg.dst_ip;
        p.ts_echo = now.as_nanos();
        p.msg = seg.msg;
        p.msg_len = seg.msg_len;
        self.stats.bytes_sent += seg.len as u64;
        p
    }

    /// Emit as many packets as the congestion window allows.
    fn pump(&mut self, now: SimTime, out: &mut ConnOutput) {
        // Retransmissions first; they occupy already-counted window space.
        while let Some(seq) = self.retx_queue.pop_front() {
            if let Some(seg) = self.seg_at(seq) {
                let p = self.mk_data(seq, seg, now);
                out.packets.push(p);
            }
        }
        // New data while window open (congestion window capped by rwnd).
        loop {
            let wnd = self.cc.cwnd().min(self.cfg.rwnd);
            let inflight = self.snd_nxt - self.snd_una;
            if inflight >= wnd {
                break;
            }
            let budget = wnd - inflight;
            let Some((msg_idx, take)) = self.pick_msg(budget) else {
                break;
            };
            let m = &mut self.out_msgs[msg_idx];
            let seq = self.snd_nxt;
            let seg = Seg {
                len: take as u32,
                msg: m.id,
                msg_len: m.len,
            };
            debug_assert!(
                self.sent_segs
                    .back()
                    .is_none_or(|&(s, last)| s + last.len as u64 == seq),
                "sent_segs must stay contiguous"
            );
            self.sent_segs.push_back((seq, seg));
            m.segmented += take;
            let finished = m.segmented >= m.len;
            self.snd_nxt += take;
            if finished {
                self.out_msgs.remove(msg_idx);
                if self.rr_cursor > msg_idx {
                    self.rr_cursor -= 1;
                }
            }
            let p = self.mk_data(seq, seg, now);
            out.packets.push(p);
        }
        self.arm_timer(now);
        out.timer = self.timer_out();
    }

    /// Choose the message to segment next (round-robin over the pending
    /// messages) and how many bytes to take. Returns `None` if nothing is
    /// pending.
    fn pick_msg(&mut self, budget: u64) -> Option<(usize, u64)> {
        if self.out_msgs.is_empty() || budget == 0 {
            return None;
        }
        if self.rr_cursor >= self.out_msgs.len() {
            self.rr_cursor = 0;
        }
        let idx = self.rr_cursor;
        self.rr_cursor = (self.rr_cursor + 1) % self.out_msgs.len();
        let m = &self.out_msgs[idx];
        let remaining = m.len - m.segmented;
        let take = remaining.min(self.cfg.mss).min(budget.max(1));
        Some((idx, take))
    }

    fn on_ack(&mut self, pkt: &Packet, now: SimTime, out: &mut ConnOutput) {
        let ack = pkt.ack_seq;
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            self.stats.bytes_acked += newly;
            self.dup_acks = 0;
            self.consecutive_timeouts = 0;
            while let Some(&(s, seg)) = self.sent_segs.front() {
                if s >= ack {
                    break;
                }
                self.sent_segs.pop_front();
                debug_assert!(
                    self.sent_segs
                        .front()
                        .is_none_or(|&(next, _)| next == s + seg.len as u64),
                    "sent_segs must stay contiguous"
                );
            }
            // RTT sample from the echoed timestamp.
            if pkt.ts_echo > 0 && pkt.ts_echo <= now.as_nanos() {
                let rtt = SimDuration::from_nanos(now.as_nanos() - pkt.ts_echo);
                self.rtt.on_sample(rtt);
                self.cc.on_ack(newly, rtt, now);
            } else {
                self.cc.on_ack(
                    newly,
                    self.rtt.srtt().unwrap_or(SimDuration::from_micros(500)),
                    now,
                );
            }
            if let Some(r) = self.recovery_until {
                if ack >= r {
                    self.recovery_until = None;
                } else {
                    // NewReno partial ack: the cumulative ack advanced to
                    // the next hole — retransmit it immediately so burst
                    // losses heal one segment per (partial-)ack instead of
                    // one per RTO.
                    if let Some(&(seq, _)) = self.sent_segs.front() {
                        if !self.retx_queue.contains(&seq) {
                            self.retx_queue.push_back(seq);
                        }
                    }
                }
            }
        } else if ack == self.snd_una && self.snd_nxt > self.snd_una {
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.recovery_until.is_none() {
                // Fast retransmit the earliest unacked segment.
                if let Some(&(seq, _)) = self.sent_segs.front() {
                    self.stats.fast_retx += 1;
                    self.cc.on_loss(now);
                    self.recovery_until = Some(self.snd_nxt);
                    if !self.retx_queue.contains(&seq) {
                        self.retx_queue.push_back(seq);
                    }
                }
            }
        }
        self.pump(now, out);
    }

    fn on_data(&mut self, pkt: &Packet, out: &mut ConnOutput) {
        let start = pkt.seq;
        let end = pkt.seq + pkt.payload as u64;
        let new_bytes = self.insert_range(start, end);
        if pkt.payload > 0 {
            let entry = self.rcv_msgs.entry(pkt.msg).or_insert(InMsg {
                len: pkt.msg_len,
                credited: 0,
            });
            entry.credited += new_bytes;
            debug_assert!(entry.credited <= entry.len, "over-credited message");
            if entry.credited >= entry.len {
                out.delivered.push(Delivered {
                    msg: pkt.msg,
                    len: entry.len,
                });
                self.rcv_msgs.remove(&pkt.msg);
                self.stats.msgs_delivered += 1;
            }
        }
        // Immediate cumulative ack, echoing the data packet's timestamp.
        let mut ack = Packet::ack(
            self.next_pkt_id(),
            self.local,
            self.remote,
            self.id,
            self.rcv_nxt(),
            self.cfg.dscp,
        );
        ack.src_ip = self.cfg.src_ip;
        ack.dst_ip = self.cfg.dst_ip;
        ack.ts_echo = pkt.ts_echo;
        out.packets.push(ack);
        out.timer = self.timer_out();
    }

    /// Contiguous prefix of the receive stream (the cumulative ack point).
    fn rcv_nxt(&self) -> u64 {
        match self.rcv_ranges.iter().next() {
            Some((&0, &end)) => end,
            _ => 0,
        }
    }

    /// Insert `[start, end)` into the received-range set, coalescing, and
    /// return the number of *newly covered* bytes.
    fn insert_range(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        // In-order data: extend the range that ends where this one starts
        // when it is the last (ranges are disjoint and never adjacent, so
        // no other range can touch [start, end)).
        if let Some(mut last) = self.rcv_ranges.last_entry() {
            if *last.get() == start {
                *last.get_mut() = end;
                return end - start;
            }
        }
        let mut new_start = start;
        let mut new_end = end;
        let mut new_bytes = end - start;
        // Absorb every range overlapping or adjacent to [start, end): they
        // are the last ones starting at or before `end`, walked backwards
        // until one ends before `start`.
        while let Some((&s, &e)) = self.rcv_ranges.range(..=end).next_back() {
            if e < start {
                break;
            }
            // Subtract already-covered overlap from the credit.
            let ov_start = s.max(start);
            let ov_end = e.min(end);
            if ov_end > ov_start {
                new_bytes -= ov_end - ov_start;
            }
            new_start = new_start.min(s);
            new_end = new_end.max(e);
            self.rcv_ranges.remove(&s);
        }
        self.rcv_ranges.insert(new_start, new_end);
        new_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshlayer_netsim::NodeId;

    fn pair(cc: CcAlgo) -> (Conn, Conn) {
        let cfg = ConnConfig {
            cc,
            ..ConnConfig::default()
        };
        let a = Conn::new(7, 0, NodeId(0), NodeId(1), cfg.clone());
        let b = Conn::new(7, 1, NodeId(1), NodeId(0), cfg);
        (a, b)
    }

    /// Deliver packets between two endpoints with a fixed one-way delay and
    /// no loss, until quiescent. Returns messages delivered at each side.
    fn run_lossless(
        a: &mut Conn,
        b: &mut Conn,
        mut pending_a: Vec<Packet>,
        start: SimTime,
    ) -> (Vec<Delivered>, Vec<Delivered>) {
        let owd = SimDuration::from_micros(100);
        let mut now = start;
        let mut to_b: VecDeque<Packet> = pending_a.drain(..).collect();
        let mut to_a: VecDeque<Packet> = VecDeque::new();
        let mut del_a = Vec::new();
        let mut del_b = Vec::new();
        for _ in 0..100_000 {
            if to_b.is_empty() && to_a.is_empty() {
                break;
            }
            now += owd;
            let batch_b: Vec<Packet> = to_b.drain(..).collect();
            for p in batch_b {
                let out = b.on_packet(&p, now);
                del_b.extend(out.delivered);
                to_a.extend(out.packets);
            }
            let batch_a: Vec<Packet> = to_a.drain(..).collect();
            for p in batch_a {
                let out = a.on_packet(&p, now);
                del_a.extend(out.delivered);
                to_b.extend(out.packets);
            }
        }
        (del_a, del_b)
    }

    #[test]
    fn small_message_single_segment() {
        let (mut a, mut b) = pair(CcAlgo::Reno);
        let out = a.send_message(1, 500, SimTime::ZERO);
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.packets[0].payload, 500);
        assert_eq!(out.packets[0].msg, 1);
        let (_, del_b) = run_lossless(&mut a, &mut b, out.packets, SimTime::ZERO);
        assert_eq!(del_b, vec![Delivered { msg: 1, len: 500 }]);
        assert_eq!(b.stats().msgs_delivered, 1);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn large_message_spans_segments_and_windows() {
        let (mut a, mut b) = pair(CcAlgo::Reno);
        let len = 1_000_000u64; // 1 MB > initial window
        let out = a.send_message(1, len, SimTime::ZERO);
        // Only the initial window's worth goes out immediately.
        assert!(out.packets.len() <= 11);
        let (_, del_b) = run_lossless(&mut a, &mut b, out.packets, SimTime::ZERO);
        assert_eq!(del_b, vec![Delivered { msg: 1, len }]);
        assert_eq!(a.stats().bytes_acked, len);
    }

    #[test]
    fn bidirectional_messages() {
        let (mut a, mut b) = pair(CcAlgo::Cubic);
        let out_a = a.send_message(1, 10_000, SimTime::ZERO);
        let out_b = b.send_message(2, 20_000, SimTime::ZERO);
        // Feed b's initial packets into the exchange by merging manually.
        let mut to_b: Vec<Packet> = out_a.packets;
        let mut now = SimTime::ZERO;
        let owd = SimDuration::from_micros(100);
        let mut to_a: Vec<Packet> = out_b.packets;
        let mut del_a = Vec::new();
        let mut del_b = Vec::new();
        for _ in 0..10_000 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            now += owd;
            let mut next_a = Vec::new();
            let mut next_b = Vec::new();
            for p in to_b.drain(..) {
                let o = b.on_packet(&p, now);
                del_b.extend(o.delivered);
                next_a.extend(o.packets);
            }
            for p in to_a.drain(..) {
                let o = a.on_packet(&p, now);
                del_a.extend(o.delivered);
                next_b.extend(o.packets);
            }
            to_a = next_a;
            to_b = next_b;
        }
        assert_eq!(
            del_b,
            vec![Delivered {
                msg: 1,
                len: 10_000
            }]
        );
        assert_eq!(
            del_a,
            vec![Delivered {
                msg: 2,
                len: 20_000
            }]
        );
    }

    #[test]
    fn round_robin_mux_lets_small_message_overtake() {
        let (mut a, mut b) = pair(CcAlgo::Reno);
        // Submit both before any packet exchange; RR interleaves them.
        let mut pkts = a.send_message(1, 200_000, SimTime::ZERO).packets;
        pkts.extend(a.send_message(2, 500, SimTime::ZERO).packets);
        let (_, del_b) = run_lossless(&mut a, &mut b, pkts, SimTime::ZERO);
        assert_eq!(del_b.len(), 2);
        assert_eq!(del_b[0].msg, 2, "RR: small message should finish first");
    }

    #[test]
    fn lost_packet_recovers_via_fast_retransmit() {
        let (mut a, mut b) = pair(CcAlgo::Reno);
        let mut out = a.send_message(1, 10 * 1448, SimTime::ZERO).packets;
        assert_eq!(out.len(), 10);
        // Drop the first data packet.
        out.remove(0);
        let mut now = SimTime::from_micros(100);
        // Deliver the rest: b generates dup acks (rcv_nxt stays 0).
        let mut acks = Vec::new();
        for p in out {
            let o = b.on_packet(&p, now);
            acks.extend(o.packets);
        }
        assert_eq!(acks.len(), 9);
        assert!(acks.iter().all(|p| p.ack_seq == 0));
        // Feed dup acks to a: the 3rd triggers fast retransmit.
        now += SimDuration::from_micros(100);
        let mut retx = Vec::new();
        for p in &acks {
            let o = a.on_packet(p, now);
            retx.extend(o.packets);
        }
        assert_eq!(a.stats().fast_retx, 1);
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].seq, 0);
        // Deliver the retransmission; message completes.
        let o = b.on_packet(&retx[0], now + SimDuration::from_micros(100));
        assert_eq!(o.delivered.len(), 1);
        assert_eq!(o.delivered[0].msg, 1);
        // The cumulative ack now covers everything.
        assert_eq!(o.packets[0].ack_seq, 10 * 1448);
    }

    #[test]
    fn rto_fires_and_retransmits() {
        let (mut a, _b) = pair(CcAlgo::Reno);
        let out = a.send_message(1, 1000, SimTime::ZERO);
        let (at, gen) = out.timer.expect("timer armed");
        // Nothing acked; fire the timer.
        let o = a.on_timer(gen, at);
        assert_eq!(a.stats().timeouts, 1);
        assert_eq!(o.packets.len(), 1);
        assert_eq!(o.packets[0].seq, 0);
        // Backoff: next timer further out than the first RTO.
        let (at2, _) = o.timer.expect("rearmed");
        assert!(at2.saturating_since(at) >= at.saturating_since(SimTime::ZERO));
    }

    #[test]
    fn stale_timer_generation_is_ignored() {
        let (mut a, mut b) = pair(CcAlgo::Reno);
        let out = a.send_message(1, 1000, SimTime::ZERO);
        let (at, gen) = out.timer.unwrap();
        // Ack arrives before the timer fires.
        let o = b.on_packet(&out.packets[0], SimTime::from_micros(50));
        a.on_packet(&o.packets[0], SimTime::from_micros(100));
        // Old timer fires late: no spurious retransmission.
        let o2 = a.on_timer(gen, at);
        assert!(o2.packets.is_empty());
        assert_eq!(a.stats().timeouts, 0);
    }

    #[test]
    fn duplicate_data_not_double_credited() {
        let (mut a, mut b) = pair(CcAlgo::Reno);
        let out = a.send_message(1, 1000, SimTime::ZERO);
        let p = &out.packets[0];
        let o1 = b.on_packet(p, SimTime::from_micros(50));
        assert_eq!(o1.delivered.len(), 1);
        // Retransmitted duplicate must not deliver again.
        let o2 = b.on_packet(p, SimTime::from_micros(60));
        assert!(o2.delivered.is_empty());
        assert_eq!(b.stats().msgs_delivered, 1);
    }

    #[test]
    fn out_of_order_arrival_reassembles() {
        let (mut a, mut b) = pair(CcAlgo::Reno);
        let pkts = a.send_message(1, 3 * 1448, SimTime::ZERO).packets;
        assert_eq!(pkts.len(), 3);
        // Deliver in reverse order.
        let now = SimTime::from_micros(50);
        assert!(b.on_packet(&pkts[2], now).delivered.is_empty());
        assert!(b.on_packet(&pkts[1], now).delivered.is_empty());
        let o = b.on_packet(&pkts[0], now);
        assert_eq!(o.delivered.len(), 1);
        assert_eq!(o.packets[0].ack_seq, 3 * 1448);
    }

    #[test]
    fn insert_range_coalesces_and_credits() {
        let (_, mut b) = pair(CcAlgo::Reno);
        assert_eq!(b.insert_range(0, 100), 100);
        assert_eq!(b.insert_range(50, 150), 50); // overlap
        assert_eq!(b.insert_range(150, 200), 50); // adjacent
        assert_eq!(b.insert_range(0, 200), 0); // fully covered
        assert_eq!(b.rcv_nxt(), 200);
        assert_eq!(b.insert_range(300, 400), 100); // gap
        assert_eq!(b.rcv_nxt(), 200);
        assert_eq!(b.insert_range(200, 300), 100); // fill gap
        assert_eq!(b.rcv_nxt(), 400);
        assert_eq!(b.rcv_ranges.len(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Against a plain byte set: overlapping, duplicate, adjacent and
        /// gapped inserts credit exactly the bytes not yet covered, the
        /// cumulative ack is the set's first hole, and the stored ranges
        /// are the set's maximal runs.
        #[test]
        fn insert_range_matches_a_byte_set(
            ranges in proptest::collection::vec((0u64..300, 0u64..40), 1..60),
        ) {
            let (_, mut b) = pair(CcAlgo::Reno);
            let mut have = [false; 340];
            for (start, len) in ranges {
                let span = start as usize..(start + len) as usize;
                let fresh = have[span.clone()].iter().filter(|&&x| !x).count() as u64;
                have[span].fill(true);
                proptest::prop_assert_eq!(b.insert_range(start, start + len), fresh);
                let first_hole = have.iter().position(|&x| !x).unwrap_or(have.len());
                proptest::prop_assert_eq!(b.rcv_nxt(), first_hole as u64);
            }
            let mut runs = Vec::new();
            for (i, &x) in have.iter().enumerate() {
                let i = i as u64;
                match runs.last_mut() {
                    Some((_, end)) if x && *end == i => *end = i + 1,
                    _ if x => runs.push((i, i + 1)),
                    _ => {}
                }
            }
            let stored: Vec<(u64, u64)> = b.rcv_ranges.iter().map(|(&s, &e)| (s, e)).collect();
            proptest::prop_assert_eq!(stored, runs);
        }
    }

    #[test]
    fn dscp_and_ips_stamped_on_packets() {
        let cfg = ConnConfig {
            dscp: 46,
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a00_0002,
            ..ConnConfig::default()
        };
        let mut a = Conn::new(9, 0, NodeId(0), NodeId(1), cfg);
        let out = a.send_message(1, 100, SimTime::ZERO);
        let p = &out.packets[0];
        assert_eq!(p.dscp, 46);
        assert_eq!(p.src_ip, 0x0a00_0001);
        assert_eq!(p.dst_ip, 0x0a00_0002);
    }

    #[test]
    fn scavenger_conn_reports_name() {
        let cfg = ConnConfig {
            cc: CcAlgo::Ledbat,
            ..ConnConfig::default()
        };
        let c = Conn::new(1, 0, NodeId(0), NodeId(1), cfg);
        assert_eq!(c.cc_name(), "ledbat");
    }

    #[test]
    fn outstanding_tracks_queue_and_flight() {
        let (mut a, _) = pair(CcAlgo::Reno);
        a.send_message(1, 100_000, SimTime::ZERO);
        assert_eq!(a.outstanding(), 100_000);
    }
}
