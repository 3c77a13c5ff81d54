//! Flight-recorder wiring for the simulation engine.
//!
//! This is the engine side of `meshlayer-flightrec`: it decides what a
//! "state digest" means (which fields of each [`Ev`] are folded into
//! the chained hash), attaches the recorder's packet taps and decision
//! sinks across the stack, and drives the replay checker during a
//! re-run.
//!
//! The digest deliberately covers only *simulation* state — event
//! sequence, simulated time, event kind, and the deterministic payload
//! fields of each event. Wall-clock quantities (handler profiling,
//! run duration) are excluded, so two runs of the same `(spec, seed)`
//! produce byte-identical event streams regardless of host load.
//!
//! The digest folds the event stream in the order the loop handles it,
//! the total `(SimTime, push-seq)` order — so a change to the engine
//! that reordered even one event would surface as a divergence.

use super::obs::Observers;
use super::store::Slab;
use super::{Ev, Simulation};
use meshlayer_flightrec::digest::{fold_bytes, fold_u64, FNV_OFFSET};
use meshlayer_flightrec::{
    CaptureCounts, EventRecord, FlightRecorder, MetaInfo, ReplayChecker, ReplayReport,
    FORMAT_VERSION,
};
use meshlayer_netsim::Packet;
use meshlayer_simcore::SimTime;
use std::io;
use std::path::Path;
use std::sync::Arc;

impl Ev {
    /// Stable wire discriminant for the capture format.
    ///
    /// These codes are part of the on-disk format: append new variants,
    /// never renumber existing ones.
    pub(crate) fn code(&self) -> u8 {
        match self {
            Ev::Arrival { .. } => 0,
            Ev::LinkTx { .. } => 1,
            Ev::LinkKick { .. } => 2,
            Ev::PktArrive { .. } => 3,
            Ev::ConnTimer { .. } => 4,
            Ev::SendMsg { .. } => 5,
            Ev::ExecStart { .. } => 6,
            Ev::ComputeDone { .. } => 7,
            Ev::AttemptResponse { .. } => 8,
            Ev::PerTryTimeout { .. } => 9,
            Ev::RpcTimeout { .. } => 10,
            Ev::RetryFire { .. } => 11,
            Ev::HedgeFire { .. } => 12,
            Ev::SdnTick => 13,
            Ev::ControlTick => 14,
            Ev::TelemetryTick => 15,
            Ev::PolicyPush { .. } => 16,
            Ev::PolicyApply { .. } => 17,
            Ev::Fault { .. } => 18,
            Ev::FluidUpdate { .. } => 19,
        }
    }
}

/// Fold one event pop into the chained digest.
///
/// Covers (seq, time, kind) plus every deterministic payload field of
/// the variant, so a divergence in *any* of them — a different packet
/// taking a different path, a retry firing for a different rpc —
/// changes this and every later digest.
///
/// A `PktArrive` folds the packet's fields, read through the slab, not
/// its slab index: the index is storage, and captures do not depend on it.
fn fold_event(state: u64, seq: u64, t: SimTime, ev: &Ev, pkts: &Slab<Packet>) -> u64 {
    let mut d = fold_u64(state, seq);
    d = fold_u64(d, t.as_nanos());
    d = fold_bytes(d, &[ev.code()]);
    match ev {
        Ev::Arrival { gen } => fold_u64(d, *gen as u64),
        Ev::LinkTx { link } | Ev::LinkKick { link } => fold_u64(d, link.0 as u64),
        Ev::PktArrive { pkt, node } => {
            let pkt = pkts.get(*pkt);
            d = fold_u64(d, pkt.id);
            d = fold_u64(d, pkt.conn);
            d = fold_u64(d, pkt.seq);
            d = fold_u64(d, pkt.ack_seq);
            d = fold_u64(d, pkt.payload as u64);
            d = fold_bytes(d, &[pkt.dscp, pkt.is_ack() as u8]);
            fold_u64(d, node.0 as u64)
        }
        Ev::ConnTimer { conn, dir } => {
            d = fold_u64(d, *conn);
            fold_bytes(d, &[*dir])
        }
        Ev::SendMsg {
            conn,
            dir,
            msg,
            bytes,
        } => {
            d = fold_u64(d, *conn);
            d = fold_bytes(d, &[*dir]);
            d = fold_u64(d, *msg);
            fold_u64(d, *bytes)
        }
        Ev::ExecStart { exec } => fold_u64(d, *exec),
        Ev::ComputeDone { pod, token } => {
            d = fold_u64(d, pod.0 as u64);
            fold_u64(d, *token)
        }
        Ev::AttemptResponse {
            rpc,
            attempt,
            status,
        } => {
            d = fold_u64(d, *rpc);
            d = fold_u64(d, *attempt as u64);
            fold_u64(d, status.0 as u64)
        }
        Ev::PerTryTimeout { rpc, attempt } | Ev::HedgeFire { rpc, attempt } => {
            d = fold_u64(d, *rpc);
            fold_u64(d, *attempt as u64)
        }
        Ev::RpcTimeout { rpc } | Ev::RetryFire { rpc } => fold_u64(d, *rpc),
        Ev::SdnTick | Ev::ControlTick | Ev::TelemetryTick => d,
        Ev::PolicyPush { version } => fold_u64(d, *version),
        Ev::PolicyApply {
            version,
            layer,
            pod,
        } => {
            d = fold_u64(d, *version);
            d = fold_bytes(d, &[*layer]);
            fold_u64(d, *pod as u64)
        }
        Ev::Fault { fault, phase } => {
            d = fold_u64(d, *fault as u64);
            fold_bytes(d, &[*phase])
        }
        Ev::FluidUpdate { cause } => fold_bytes(d, &[*cause]),
    }
}

/// What the flight recorder concluded when the run finished.
#[derive(Debug)]
pub enum FlightOutcome {
    /// A capture completed; counters of what was written.
    Recorded(CaptureCounts),
    /// A replay comparison completed (clean or divergent — see
    /// [`ReplayReport::ok`]).
    Replayed(ReplayReport),
    /// Capture I/O failed; the log on disk is incomplete.
    Failed(String),
}

pub(crate) enum FlightMode {
    Record(Arc<FlightRecorder>),
    Replay(Box<ReplayChecker>),
}

/// Live per-run recorder/replayer state, owned by the observers.
pub(crate) struct FlightState {
    pub(crate) mode: FlightMode,
    pub(crate) seq: u64,
    pub(crate) digest: u64,
}

impl Simulation {
    /// Attach a flight recorder: every engine event, every packet on
    /// every link, and every sidecar decision will be captured to
    /// `path`. Call before [`Simulation::run`].
    pub fn record_to(&mut self, name: &str, path: &Path) -> io::Result<()> {
        let recorder = FlightRecorder::create(path)?;
        recorder.record_meta(&self.flight_meta(name));
        let tap: Arc<dyn meshlayer_netsim::PacketTap> = recorder.clone();
        for link in self.net.fabric.topology.links_mut() {
            link.set_tap(tap.clone());
        }
        for sc in self.mesh.sidecars.iter_mut() {
            sc.set_decision_sink(recorder.clone());
        }
        self.obs.flight = Some(FlightState {
            mode: FlightMode::Record(recorder),
            seq: 0,
            digest: FNV_OFFSET,
        });
        Ok(())
    }

    /// Attach a replay checker reading the capture at `path`. The log's
    /// recorded seed and duration must match this simulation's spec;
    /// replaying a log against the wrong configuration is refused.
    /// Call before [`Simulation::run`].
    pub fn replay_from(&mut self, path: &Path) -> io::Result<()> {
        let checker = ReplayChecker::open(path)?;
        let meta = checker.meta();
        let seed = self.config.seed;
        let duration_ns = self.config.duration.as_nanos();
        if meta.seed != seed || meta.duration_ns != duration_ns {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "log records seed={} duration={}ns but this run has seed={} duration={}ns",
                    meta.seed, meta.duration_ns, seed, duration_ns
                ),
            ));
        }
        self.obs.flight = Some(FlightState {
            mode: FlightMode::Replay(Box::new(checker)),
            seq: 0,
            digest: FNV_OFFSET,
        });
        Ok(())
    }

    /// The run identity frame for a capture of this simulation.
    fn flight_meta(&self, name: &str) -> MetaInfo {
        let topology = &self.net.fabric.topology;
        MetaInfo {
            format: FORMAT_VERSION,
            name: name.to_string(),
            seed: self.config.seed,
            duration_ns: self.config.duration.as_nanos(),
            warmup_ns: self.config.warmup.as_nanos(),
            links: topology
                .links()
                .map(|l| (l.id().0, topology.link_name(l.id())))
                .collect(),
        }
    }

    /// Take the recorder/replay outcome of the last [`Simulation::run`],
    /// if a recorder or replayer was attached.
    pub fn take_flight_outcome(&mut self) -> Option<FlightOutcome> {
        self.obs.flight_outcome.take()
    }
}

impl Observers {
    /// The active recorder, when capturing (None while replaying).
    ///
    /// Used by the handlers to emit ingress, completion and
    /// message-binding records outside the sidecar decision sink.
    pub(crate) fn flight_rec(&self) -> Option<&FlightRecorder> {
        match &self.flight {
            Some(FlightState {
                mode: FlightMode::Record(r),
                ..
            }) => Some(r),
            _ => None,
        }
    }

    /// Engine hook: fold one popped event into the digest and either
    /// record it or check it against the recording.
    pub(crate) fn flight_observe(&mut self, t: SimTime, ev: &Ev, pkts: &Slab<Packet>) {
        let Some(fl) = &mut self.flight else {
            return;
        };
        let seq = fl.seq;
        fl.seq += 1;
        fl.digest = fold_event(fl.digest, seq, t, ev, pkts);
        let rec = EventRecord {
            seq,
            t_ns: t.as_nanos(),
            kind: ev.code(),
            digest: fl.digest,
        };
        match &mut fl.mode {
            FlightMode::Record(r) => r.record_event(rec.seq, rec.t_ns, rec.kind, rec.digest),
            FlightMode::Replay(c) => c.check_event(rec),
        }
    }

    /// Engine hook: the run is over — close the capture or produce the
    /// replay report. The outcome is retrievable once via
    /// [`Simulation::take_flight_outcome`].
    pub(super) fn flight_finish(&mut self) {
        let Some(fl) = self.flight.take() else {
            return;
        };
        let outcome = match fl.mode {
            FlightMode::Record(r) => {
                r.record_end(fl.seq, fl.digest);
                match r.finish() {
                    Ok(counts) => FlightOutcome::Recorded(counts),
                    Err(e) => FlightOutcome::Failed(e.to_string()),
                }
            }
            FlightMode::Replay(c) => FlightOutcome::Replayed(c.finish(fl.seq, fl.digest)),
        };
        self.flight_outcome = Some(outcome);
    }
}
