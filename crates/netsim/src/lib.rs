//! # meshlayer-netsim
//!
//! Packet-level network substrate: the stand-in for the paper's emulated
//! 15 Gbps / 1 Gbps links and the Linux traffic-control (TC) machinery its
//! prototype programs.
//!
//! The design is event-driven in the smoltcp style: every object here is a
//! passive state machine that is told the current [`meshlayer_simcore::SimTime`]
//! and answers
//! with what happened and when it next needs attention. The simulation
//! driver (in `meshlayer-core`) owns the event queue and schedules the
//! callbacks.
//!
//! * [`Packet`] — the unit of transmission, carrying enough header state
//!   (addresses, connection id, DSCP, firewall mark) for classifiers to do
//!   everything Linux TC filters can do in the paper's experiment.
//! * [`qdisc`] — queueing disciplines: [`qdisc::DropTail`], strict-priority
//!   [`qdisc::Prio`], and the classful [`qdisc::HtbLite`] used to give the
//!   high-priority pod "up to 95 % of bandwidth" exactly as the prototype's
//!   TC rules do.
//! * [`tc`] — the filter/classifier table that maps packets to qdisc
//!   classes, mirroring `tc filter` semantics (first match wins).
//! * [`Link`] — a unidirectional link with serialization rate, propagation
//!   delay and an attached qdisc.
//! * [`Topology`] — nodes, links and shortest-path routing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod packet;
pub mod qdisc;
pub mod tap;
pub mod tc;
pub mod topology;

pub use link::{Link, LinkOutcome, LinkStats};
pub use packet::{ClassId, NodeId, Packet, PacketKind, DSCP_BATCH, DSCP_CONTROL, DSCP_LATENCY};
pub use qdisc::{Deq, DropTail, HtbClass, HtbLite, Prio, Qdisc};
pub use tap::{PacketTap, TapEvent, TapOp};
pub use tc::{Filter, FilterMatch, TcTable};
pub use topology::{HierEntry, LinkId, Route, Topology};
