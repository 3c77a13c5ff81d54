//! The live capture side: a thread-safe [`FlightRecorder`] that the
//! simulation wires into its engine loop (event digests), its links
//! (packet taps) and its sidecars (decision sink).
//!
//! The recorder serialises everything through one internal lock into a
//! buffered append-only [`LogWriter`]. I/O errors never panic the hot
//! path: the first error is latched and surfaced by
//! [`FlightRecorder::finish`].

use crate::log::LogWriter;
use crate::record::{
    AnomalyRecord, DecisionKind, DecisionRecord, EndRecord, EventRecord, FaultRecord, FluidRecord,
    MetaInfo, MsgBindRecord, PacketRecord, Record, NO_POD,
};
use meshlayer_http::StatusCode;
use meshlayer_mesh::{Decision, DecisionSink};
use meshlayer_netsim::{PacketKind, PacketTap, TapEvent};
use meshlayer_simcore::SimTime;
use parking_lot::Mutex;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;
use std::sync::Arc;

/// Counters of what a capture wrote, returned by [`FlightRecorder::finish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaptureCounts {
    /// Engine event records written.
    pub events: u64,
    /// Packet records written (pure acks are not recorded).
    pub packets: u64,
    /// Decision records written.
    pub decisions: u64,
    /// Message-bind records written.
    pub binds: u64,
    /// Anomaly records written.
    pub anomalies: u64,
    /// Fault records written.
    pub faults: u64,
    /// Fluid-plane re-solve records written.
    pub fluids: u64,
}

struct Inner {
    writer: Option<LogWriter<BufWriter<File>>>,
    error: Option<io::Error>,
    counts: CaptureCounts,
}

impl Inner {
    fn write(&mut self, rec: &Record) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = &mut self.writer {
            if let Err(e) = w.write(rec) {
                self.error = Some(e);
            }
        }
    }
}

/// A live flight-recorder capture writing one log file.
///
/// One instance serves all three streams (events, packets, decisions)
/// so the resulting log is a single totally-ordered file that offline
/// tools can merge-sort by simulated time without multi-file joins.
pub struct FlightRecorder {
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// Create a recorder writing to `path` (parent dirs are created).
    pub fn create(path: &Path) -> io::Result<Arc<FlightRecorder>> {
        Ok(Arc::new(FlightRecorder {
            inner: Mutex::new(Inner {
                writer: Some(LogWriter::create(path)?),
                error: None,
                counts: CaptureCounts::default(),
            }),
        }))
    }

    /// Write the run-identity frame. Must be the first record written.
    pub fn record_meta(&self, meta: &MetaInfo) {
        self.inner.lock().write(&Record::Meta(meta.clone()));
    }

    /// Record one engine event pop with its running digest.
    pub fn record_event(&self, seq: u64, t_ns: u64, kind: u8, digest: u64) {
        let mut g = self.inner.lock();
        g.write(&Record::Event(EventRecord {
            seq,
            t_ns,
            kind,
            digest,
        }));
        g.counts.events += 1;
    }

    /// Record a message-id ↔ RPC-attempt binding.
    #[allow(clippy::too_many_arguments)]
    pub fn record_msg_bind(
        &self,
        now: SimTime,
        msg: u64,
        conn: u64,
        rpc: u64,
        attempt: u32,
        dir: u8,
        request_id: &str,
    ) {
        let mut g = self.inner.lock();
        g.write(&Record::MsgBind(MsgBindRecord {
            t_ns: now.as_nanos(),
            msg,
            conn,
            rpc,
            attempt,
            dir,
            request_id: request_id.to_string(),
        }));
        g.counts.binds += 1;
    }

    /// Record a request entering the mesh (request-id minted at ingress).
    pub fn record_ingress(&self, pod: &str, now: SimTime, request_id: &str, trace: u64) {
        self.push_decision(DecisionRecord {
            t_ns: now.as_nanos(),
            kind: DecisionKind::Ingress.code(),
            trace,
            chosen: NO_POD,
            pod: pod.to_string(),
            request_id: request_id.to_string(),
            cluster: String::new(),
            detail: String::new(),
        });
    }

    /// Record a root request completing with its final status.
    pub fn record_root_done(
        &self,
        pod: &str,
        now: SimTime,
        request_id: &str,
        status: StatusCode,
        latency_ns: u64,
    ) {
        self.push_decision(DecisionRecord {
            t_ns: now.as_nanos(),
            kind: DecisionKind::RootDone.code(),
            trace: 0,
            chosen: NO_POD,
            pod: pod.to_string(),
            request_id: request_id.to_string(),
            cluster: String::new(),
            detail: format!("status={} latency_ns={}", status.0, latency_ns),
        });
    }

    /// Record a policy-plane snapshot being applied at one layer. The
    /// snapshot `version` rides in the `trace` field (both are `u64`
    /// correlation keys) and the layer label in `cluster`, so the frame
    /// reuses the fixed decision layout. `pod` is the applying sidecar's
    /// pod, or a control-plane label for fleet-wide layers.
    pub fn record_policy_apply(
        &self,
        pod: &str,
        now: SimTime,
        version: u64,
        layer: &str,
        detail: &str,
    ) {
        self.push_decision(DecisionRecord {
            t_ns: now.as_nanos(),
            kind: DecisionKind::PolicyApply.code(),
            trace: version,
            chosen: NO_POD,
            pod: pod.to_string(),
            request_id: String::new(),
            cluster: layer.to_string(),
            detail: detail.to_string(),
        });
    }

    /// Record one telemetry anomaly the online detector flagged.
    #[allow(clippy::too_many_arguments)]
    pub fn record_anomaly(
        &self,
        now: SimTime,
        kind: u8,
        direction: i8,
        subject: &str,
        value: f64,
        baseline: f64,
        detail: &str,
    ) {
        let mut g = self.inner.lock();
        g.write(&Record::Anomaly(AnomalyRecord {
            t_ns: now.as_nanos(),
            kind,
            direction,
            subject: subject.to_string(),
            value_bits: value.to_bits(),
            baseline_bits: baseline.to_bits(),
            detail: detail.to_string(),
        }));
        g.counts.anomalies += 1;
    }

    /// Record one chaos-plane fault injection (`phase` 0) or clear
    /// (`phase` 1).
    pub fn record_fault(
        &self,
        now: SimTime,
        fault: u32,
        phase: u8,
        kind: u8,
        subject: &str,
        detail: &str,
    ) {
        let mut g = self.inner.lock();
        g.write(&Record::Fault(FaultRecord {
            t_ns: now.as_nanos(),
            fault,
            phase,
            kind,
            subject: subject.to_string(),
            detail: detail.to_string(),
        }));
        g.counts.faults += 1;
    }

    /// Record one fluid-plane rate re-solve.
    #[allow(clippy::too_many_arguments)]
    pub fn record_fluid(
        &self,
        now: SimTime,
        cause: u8,
        flows: u32,
        demand_bps: u64,
        alloc_bps: u64,
        delivered_bytes: u64,
        dropped_bytes: u64,
    ) {
        let mut g = self.inner.lock();
        g.write(&Record::Fluid(FluidRecord {
            t_ns: now.as_nanos(),
            cause,
            flows,
            demand_bps,
            alloc_bps,
            delivered_bytes,
            dropped_bytes,
        }));
        g.counts.fluids += 1;
    }

    /// Write the final totals frame.
    pub fn record_end(&self, events: u64, digest: u64) {
        self.inner
            .lock()
            .write(&Record::End(EndRecord { events, digest }));
    }

    /// Flush the log. Returns the write counters, or the first I/O error
    /// encountered anywhere during capture.
    pub fn finish(&self) -> io::Result<CaptureCounts> {
        let mut g = self.inner.lock();
        if let Some(e) = g.error.take() {
            return Err(e);
        }
        if let Some(w) = g.writer.take() {
            w.finish()?;
        }
        Ok(g.counts)
    }

    fn push_decision(&self, rec: DecisionRecord) {
        let mut g = self.inner.lock();
        g.write(&Record::Decision(rec));
        g.counts.decisions += 1;
    }
}

impl PacketTap for FlightRecorder {
    fn on_packet(&self, ev: TapEvent<'_>) {
        // Pure acks are not recorded: they roughly double log volume and
        // the data-segment records already pin down queue behaviour.
        if ev.pkt.kind == PacketKind::Ack {
            return;
        }
        let mut g = self.inner.lock();
        let rec = PacketRecord {
            t_ns: ev.now.as_nanos(),
            link: ev.link.0,
            op: ev.op.code(),
            pkt: ev.pkt.id,
            conn: ev.pkt.conn,
            msg: ev.pkt.msg,
            band: ev.band.min(u8::MAX as usize) as u8,
            dscp: ev.pkt.dscp,
            kind: match ev.pkt.kind {
                PacketKind::Data => 0,
                PacketKind::Ack => 1,
            },
            wire: ev.pkt.wire_size(),
            qlen: ev.queue_pkts.min(u32::MAX as usize) as u32,
            qbytes: ev.queue_bytes,
        };
        g.write(&Record::Packet(rec));
        g.counts.packets += 1;
    }
}

impl DecisionSink for FlightRecorder {
    fn on_decision(&self, pod: &str, now: SimTime, decision: &Decision<'_>) {
        let t_ns = now.as_nanos();
        let pod = pod.to_string();
        let rec = match decision {
            Decision::Propagate {
                request_id,
                trace,
                priority,
            } => DecisionRecord {
                t_ns,
                kind: DecisionKind::Propagate.code(),
                trace: *trace,
                chosen: NO_POD,
                pod,
                request_id: request_id.to_string(),
                cluster: String::new(),
                detail: match priority {
                    Some(p) => format!("priority={p}"),
                    None => String::new(),
                },
            },
            Decision::Route {
                request_id,
                trace,
                cluster,
                rule,
                pod: chosen,
                candidates,
                healthy,
                lb,
                breaker,
            } => DecisionRecord {
                t_ns,
                kind: DecisionKind::Route.code(),
                trace: *trace,
                chosen: chosen.0,
                pod,
                request_id: request_id.to_string(),
                cluster: cluster.to_string(),
                detail: format!(
                    "rule={rule} lb={lb} breaker={breaker} candidates={candidates} healthy={healthy}"
                ),
            },
            Decision::FailFast {
                request_id,
                trace,
                cluster,
                status,
                reason,
            } => DecisionRecord {
                t_ns,
                kind: DecisionKind::FailFast.code(),
                trace: *trace,
                chosen: NO_POD,
                pod,
                request_id: request_id.to_string(),
                cluster: cluster.unwrap_or("").to_string(),
                detail: format!("status={} reason={reason}", status.0),
            },
            Decision::Retry {
                request_id,
                cluster,
                attempt,
                failure,
                backoff_ns,
            } => DecisionRecord {
                t_ns,
                kind: DecisionKind::Retry.code(),
                trace: 0,
                chosen: NO_POD,
                pod,
                request_id: request_id.to_string(),
                cluster: cluster.to_string(),
                detail: format!("attempt={attempt} failure={failure} backoff_ns={backoff_ns}"),
            },
            Decision::RetryDenied {
                request_id,
                cluster,
                attempt,
                failure,
                reason,
            } => DecisionRecord {
                t_ns,
                kind: DecisionKind::RetryDenied.code(),
                trace: 0,
                chosen: NO_POD,
                pod,
                request_id: request_id.to_string(),
                cluster: cluster.to_string(),
                detail: format!("attempt={attempt} failure={failure} reason={reason}"),
            },
        };
        self.push_decision(rec);
    }
}
