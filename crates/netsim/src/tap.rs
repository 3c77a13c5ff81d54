//! Packet capture taps.
//!
//! A [`PacketTap`] is a pcap-style observer a driver can attach to a
//! [`crate::Link`]: it sees every enqueue, dequeue and drop at the link's
//! qdisc, together with the band the classifier resolved and the queue
//! depth at that instant. Taps are passive — they cannot alter packets or
//! queueing — so attaching one never changes simulation behaviour, only
//! wall-clock cost. The flight recorder (`meshlayer-flightrec`) is the
//! canonical implementation.

use crate::packet::Packet;
use crate::topology::LinkId;
use meshlayer_simcore::SimTime;

/// What happened to the observed packet at the qdisc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapOp {
    /// The packet was accepted into the queue.
    Enqueue,
    /// The packet left the queue and started serializing on the wire.
    Dequeue,
    /// The packet was dropped at the queue (tail drop / limit).
    Drop,
}

impl TapOp {
    /// Stable wire code for capture formats.
    pub fn code(self) -> u8 {
        match self {
            TapOp::Enqueue => 0,
            TapOp::Dequeue => 1,
            TapOp::Drop => 2,
        }
    }

    /// Decode a wire code written by [`TapOp::code`].
    pub fn from_code(code: u8) -> Option<TapOp> {
        match code {
            0 => Some(TapOp::Enqueue),
            1 => Some(TapOp::Dequeue),
            2 => Some(TapOp::Drop),
            _ => None,
        }
    }

    /// Short human-readable label (`enq`/`deq`/`drop`).
    pub fn label(self) -> &'static str {
        match self {
            TapOp::Enqueue => "enq",
            TapOp::Dequeue => "deq",
            TapOp::Drop => "drop",
        }
    }
}

/// One observation delivered to a [`PacketTap`].
#[derive(Debug)]
pub struct TapEvent<'a> {
    /// The link being observed.
    pub link: LinkId,
    /// What happened.
    pub op: TapOp,
    /// The packet involved.
    pub pkt: &'a Packet,
    /// Qdisc band/class the TC table resolved for the packet.
    pub band: usize,
    /// Queue depth in packets after the operation.
    pub queue_pkts: usize,
    /// Queue depth in bytes after the operation.
    pub queue_bytes: u64,
    /// Simulated time of the operation.
    pub now: SimTime,
}

/// A passive observer of one or more links' qdisc activity.
///
/// Implementations must be `Send + Sync`: links live inside the topology,
/// which benchmark harnesses move across threads.
///
/// **Ordering.** Taps fire from inside event handlers, which the engine
/// runs one at a time in the total `(SimTime, push-seq)` order — so tap
/// observations arrive in the same order on every run of a spec, and
/// the flight recorder can fold them into its digest as they come.
pub trait PacketTap: Send + Sync {
    /// Observe one enqueue/dequeue/drop.
    fn on_packet(&self, ev: TapEvent<'_>);
}
