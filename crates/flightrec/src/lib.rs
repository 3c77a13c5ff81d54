//! # meshlayer-flightrec
//!
//! Flight recorder for the simulation: deterministic event/packet/
//! decision capture with replay and divergence detection.
//!
//! The simulator is a deterministic discrete-event system — a run is a
//! pure function of (spec, seed). That property is only useful if it is
//! *checkable*: this crate records a run into one append-only binary
//! log and can later re-drive the same configuration, cross-checking a
//! chained per-event digest so the **first** divergent event is located
//! exactly (sequence number and simulated time), with before/after
//! context. On top of the same log it offers packet-level capture of
//! tapped links (enqueue/dequeue/drop with queue depths) and a
//! structured log of every sidecar decision (routing, retries, priority
//! propagation), all correlated by `x-request-id` so a single request's
//! life can be dumped as one merged timeline.
//!
//! Structure:
//!
//! * [`record`] — the nine record types and their binary encoding;
//! * [`log`] — checksummed framing, append-only writer / streaming reader;
//! * [`digest`] — chained FNV-1a hashing used for digests and checksums;
//! * [`capture`] — the live [`FlightRecorder`] (implements the netsim
//!   [`PacketTap`](meshlayer_netsim::PacketTap) and mesh
//!   [`DecisionSink`](meshlayer_mesh::DecisionSink) traits);
//! * [`replay`] — the [`ReplayChecker`] and divergence reporting;
//! * [`explore`] — offline loading and per-request timeline dumps.
//!
//! The engine-side wiring (what exactly is folded into the digest, and
//! where taps and sinks attach) lives in `meshlayer-core`; this crate
//! deliberately knows nothing about the engine's event enum beyond an
//! opaque `u8` kind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod digest;
pub mod explore;
pub mod log;
pub mod record;
pub mod replay;

pub use capture::{CaptureCounts, FlightRecorder};
pub use explore::FlightLog;
pub use log::{FrameError, LogReader, LogWriter};
pub use record::{
    AnomalyRecord, DecisionKind, DecisionRecord, EndRecord, EventRecord, FaultRecord, FluidRecord,
    MetaInfo, MsgBindRecord, PacketRecord, Record, FORMAT_VERSION, MAGIC, NO_POD,
};
pub use replay::{Divergence, ReplayChecker, ReplayReport};
