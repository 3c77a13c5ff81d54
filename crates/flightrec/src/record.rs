//! The capture record types and their binary wire encoding.
//!
//! A flight-recorder log is a stream of self-framing records (see
//! [`crate::log`] for the framing). Nine record kinds exist:
//!
//! | tag | record     | cadence                                      |
//! |-----|------------|----------------------------------------------|
//! | 1   | `Meta`     | once, first frame — run identity (JSON)      |
//! | 2   | `Event`    | every engine event pop — seq/time/digest     |
//! | 3   | `Packet`   | every tapped enqueue/dequeue/drop            |
//! | 4   | `Decision` | every sidecar routing/retry/priority choice  |
//! | 5   | `MsgBind`  | message-id ↔ RPC/request-id correlation      |
//! | 6   | `End`      | once, last frame — totals + final digest     |
//! | 7   | `Anomaly`  | every telemetry anomaly the detector flags   |
//! | 8   | `Fault`    | every chaos-plane fault injection and clear  |
//! | 9   | `Fluid`    | every fluid-plane rate re-solve              |
//!
//! All multi-byte integers are little-endian. Strings are a `u16`
//! length followed by UTF-8 bytes. The `Meta` payload is JSON so the
//! run identity stays greppable and future-extensible; everything on
//! the hot path is fixed-layout binary.

use serde::{Deserialize, Serialize};

/// File magic: identifies a flight-recorder log and its framing version.
pub const MAGIC: &[u8; 8] = b"FLTREC01";

/// Record-format version stamped into [`MetaInfo::format`]; a capture
/// written under any other version does not decode
/// ([`DecodeError::Version`]).
///
/// * v2 — the committed event stream changed: an uncontended hop is one
///   `PktArrive` with no `LinkTx`, each connection endpoint keeps one
///   live `ConnTimer`, and the `ConnTimer` digest fold dropped its
///   generation field. A v1 capture replayed under v2 would "diverge"
///   at the first such event, so it is refused by version instead.
/// * v3 — one difference from v2: the engine compacts RPC deadline
///   events (`RpcTimeout`, `PerTryTimeout`, `HedgeFire`) whose handler
///   had become a permanent no-op out of its far-future heap, so they no
///   longer appear in the event stream of a run long enough to reach
///   them. Every other event, and every packet and decision, is as in v2.
pub const FORMAT_VERSION: u32 = 3;

/// Frame tag for [`Record::Meta`].
pub const TAG_META: u8 = 1;
/// Frame tag for [`Record::Event`].
pub const TAG_EVENT: u8 = 2;
/// Frame tag for [`Record::Packet`].
pub const TAG_PACKET: u8 = 3;
/// Frame tag for [`Record::Decision`].
pub const TAG_DECISION: u8 = 4;
/// Frame tag for [`Record::MsgBind`].
pub const TAG_MSG_BIND: u8 = 5;
/// Frame tag for [`Record::End`].
pub const TAG_END: u8 = 6;
/// Frame tag for [`Record::Anomaly`].
pub const TAG_ANOMALY: u8 = 7;
/// Frame tag for [`Record::Fault`].
pub const TAG_FAULT: u8 = 8;
/// Frame tag for [`Record::Fluid`].
pub const TAG_FLUID: u8 = 9;

/// Sentinel for "no pod chosen" in [`DecisionRecord::chosen`].
pub const NO_POD: u32 = u32::MAX;

/// Run identity, written as the first frame of every log.
///
/// Replay cross-checks `seed` and `duration_ns` against the run it is
/// about to drive, so a log cannot silently be replayed against the
/// wrong configuration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaInfo {
    /// Record-format version ([`FORMAT_VERSION`] at write time).
    pub format: u32,
    /// Scenario name (e.g. `"elibrary"`).
    pub name: String,
    /// RNG seed the run was started with.
    pub seed: u64,
    /// Measured run duration in simulated nanoseconds.
    pub duration_ns: u64,
    /// Warmup prefix in simulated nanoseconds.
    pub warmup_ns: u64,
    /// Link-id → human label (`"src->dst"`) table for offline decoding.
    pub links: Vec<(u32, String)>,
}

/// One engine event pop: sequence number, sim time, kind, running digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// 0-based position of this event in the pop order.
    pub seq: u64,
    /// Simulated time of the pop, nanoseconds.
    pub t_ns: u64,
    /// Event-kind discriminant (engine-defined, see `meshlayer-core`).
    pub kind: u8,
    /// Chained FNV-1a digest of the run *after* folding this event.
    pub digest: u64,
}

/// One packet-level queue operation on a tapped link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketRecord {
    /// Simulated time, nanoseconds.
    pub t_ns: u64,
    /// Link the operation happened on.
    pub link: u32,
    /// Operation code: 0 enqueue, 1 dequeue, 2 drop (see `netsim::TapOp`).
    pub op: u8,
    /// Packet id.
    pub pkt: u64,
    /// Connection id the packet belongs to.
    pub conn: u64,
    /// Application message id carried (0 = none); joins with [`MsgBindRecord`].
    pub msg: u64,
    /// Qdisc band the packet was classified into.
    pub band: u8,
    /// DSCP codepoint on the packet.
    pub dscp: u8,
    /// Packet kind: 0 data, 1 ack.
    pub kind: u8,
    /// Wire size in bytes.
    pub wire: u32,
    /// Queue depth in packets after the operation.
    pub qlen: u32,
    /// Queue depth in bytes after the operation.
    pub qbytes: u64,
}

/// Decision-kind discriminants for [`DecisionRecord::kind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum DecisionKind {
    /// Request entered the mesh at an ingress sidecar (request-id minted).
    Ingress = 0,
    /// Priority/trace headers propagated onto a child request.
    Propagate = 1,
    /// Route resolved and a replica chosen.
    Route = 2,
    /// Request failed fast at the sidecar (no route / breaker / no healthy).
    FailFast = 3,
    /// Retry admitted, with backoff.
    Retry = 4,
    /// Retry denied (policy or budget).
    RetryDenied = 5,
    /// Root request completed (final status known).
    RootDone = 6,
    /// A policy-plane snapshot version was applied at one layer.
    PolicyApply = 7,
}

impl DecisionKind {
    /// Wire discriminant.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`DecisionKind::code`].
    pub fn from_code(code: u8) -> Option<DecisionKind> {
        Some(match code {
            0 => DecisionKind::Ingress,
            1 => DecisionKind::Propagate,
            2 => DecisionKind::Route,
            3 => DecisionKind::FailFast,
            4 => DecisionKind::Retry,
            5 => DecisionKind::RetryDenied,
            6 => DecisionKind::RootDone,
            7 => DecisionKind::PolicyApply,
            _ => return None,
        })
    }

    /// Short human label for timeline dumps.
    pub fn label(self) -> &'static str {
        match self {
            DecisionKind::Ingress => "ingress",
            DecisionKind::Propagate => "propagate",
            DecisionKind::Route => "route",
            DecisionKind::FailFast => "fail-fast",
            DecisionKind::Retry => "retry",
            DecisionKind::RetryDenied => "retry-denied",
            DecisionKind::RootDone => "root-done",
            DecisionKind::PolicyApply => "policy-apply",
        }
    }
}

/// One sidecar decision with the inputs that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Simulated time, nanoseconds.
    pub t_ns: u64,
    /// [`DecisionKind`] discriminant.
    pub kind: u8,
    /// B3 trace id (0 if unsampled/unknown).
    pub trace: u64,
    /// Chosen replica pod id, or [`NO_POD`] when none was chosen.
    pub chosen: u32,
    /// Name of the pod whose sidecar made the decision.
    pub pod: String,
    /// `x-request-id` correlation key (may be empty for uncorrelated requests).
    pub request_id: String,
    /// Upstream cluster the decision concerned (empty when not applicable).
    pub cluster: String,
    /// Kind-specific detail: matched rule, candidate/healthy counts, lb
    /// policy, breaker state, failure class, backoff, status, reason.
    pub detail: String,
}

/// Correlation record binding a transport message id to its RPC attempt.
///
/// Packets carry only the message id; this record is what lets the
/// explorer join packet captures to `x-request-id`s and Zipkin spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsgBindRecord {
    /// Simulated time the message was allocated, nanoseconds.
    pub t_ns: u64,
    /// Transport message id (as seen in [`PacketRecord::msg`]).
    pub msg: u64,
    /// Connection the message was sent on.
    pub conn: u64,
    /// RPC id the message belongs to.
    pub rpc: u64,
    /// 0-based attempt index within the RPC.
    pub attempt: u32,
    /// Direction: 0 request, 1 response.
    pub dir: u8,
    /// `x-request-id` of the request this message carries.
    pub request_id: String,
}

/// One anomaly flagged by the telemetry plane's online detector.
///
/// The f64 observation/baseline ride as IEEE-754 bit patterns so the
/// record stays fixed-layout and byte-exact across platforms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnomalyRecord {
    /// Simulated time of the scrape that flagged the anomaly, nanoseconds.
    pub t_ns: u64,
    /// Anomaly-kind discriminant (telemetry-defined: 0 latency shift,
    /// 1 error burst, 2 queue growth).
    pub kind: u8,
    /// Shift direction: 1 up, -1 down, 0 not directional.
    pub direction: i8,
    /// What the anomaly is about (class, or `metric/instance`).
    pub subject: String,
    /// Observed value, `f64::to_bits`.
    pub value_bits: u64,
    /// Baseline the observation was compared against, `f64::to_bits`.
    pub baseline_bits: u64,
    /// Human-readable explanation.
    pub detail: String,
}

/// One chaos-plane fault injection or clear.
///
/// Written whenever the fault-injection plane mutates the world, so a
/// capture is self-describing: the incident-timeline engine joins these
/// frames into its causal chain, and replay divergence can be localized
/// to "before or after fault N".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Simulated time of the injection/clear, nanoseconds.
    pub t_ns: u64,
    /// 0-based index of the fault in the run's `FaultScript`.
    pub fault: u32,
    /// Phase: 0 = inject, 1 = clear (restart/heal/re-up).
    pub phase: u8,
    /// Fault-kind discriminant (chaos-defined: 0 pod-crash, 1 link-flap,
    /// 2 partition, 3 gray-failure, 4 rollback).
    pub kind: u8,
    /// What the fault targets (`service/replica`, `service`, or `v<n>`).
    pub subject: String,
    /// Human-readable description of what was mutated.
    pub detail: String,
}

/// One fluid-plane re-solve: the piecewise-constant rate flows changed.
///
/// Written at every `FluidUpdate` event a recording run commits, so a
/// capture documents each step of the background-load staircase: how
/// many flows were live, how much of the aggregate demand the max-min
/// solver admitted, and the bytes settled for the window that just
/// closed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FluidRecord {
    /// Simulated time of the re-solve, nanoseconds.
    pub t_ns: u64,
    /// Why rates changed: 0 = initial solve, 1 = epoch tick, 2 =
    /// chaos-driven link change (engine-defined).
    pub cause: u8,
    /// Flows live after the re-solve.
    pub flows: u32,
    /// Aggregate offered demand of all flows, bits/second.
    pub demand_bps: u64,
    /// Aggregate admitted allocation after max-min fair sharing,
    /// bits/second.
    pub alloc_bps: u64,
    /// Bytes delivered across all flows in the window settled by this
    /// update.
    pub delivered_bytes: u64,
    /// Bytes dropped (demand the solver could not admit) in the settled
    /// window.
    pub dropped_bytes: u64,
}

/// Final frame: totals and the final chained digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EndRecord {
    /// Total events popped (and recorded) during the run.
    pub events: u64,
    /// Final chained digest after the last event.
    pub digest: u64,
}

/// Any record that can appear in a log.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// Run identity (first frame).
    Meta(MetaInfo),
    /// Engine event pop.
    Event(EventRecord),
    /// Packet queue operation.
    Packet(PacketRecord),
    /// Sidecar decision.
    Decision(DecisionRecord),
    /// Message-id correlation.
    MsgBind(MsgBindRecord),
    /// Run totals (last frame).
    End(EndRecord),
    /// Telemetry anomaly.
    Anomaly(AnomalyRecord),
    /// Chaos-plane fault injection/clear.
    Fault(FaultRecord),
    /// Fluid-plane rate re-solve.
    Fluid(FluidRecord),
}

/// Why a record payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Payload ended before the record's fixed fields were complete.
    Short,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The `Meta` JSON payload failed to parse.
    BadJson,
    /// Unknown frame tag.
    BadTag(u8),
    /// Payload had bytes left over after the record was fully decoded.
    Trailing,
    /// The capture was written under another [`FORMAT_VERSION`].
    Version(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Short => write!(f, "payload truncated"),
            DecodeError::BadUtf8 => write!(f, "string field not UTF-8"),
            DecodeError::BadJson => write!(f, "meta JSON unparsable"),
            DecodeError::BadTag(t) => write!(f, "unknown record tag {t}"),
            DecodeError::Trailing => write!(f, "trailing bytes after record"),
            DecodeError::Version(v) => write!(
                f,
                "capture is format v{v}, this build reads only v{FORMAT_VERSION} \
                 (the recorded event stream differs between versions): record it again"
            ),
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, i: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.i + n > self.b.len() {
            return Err(DecodeError::Short);
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(DecodeError::Trailing)
        }
    }
}

impl Record {
    /// Frame tag for this record kind.
    pub fn tag(&self) -> u8 {
        match self {
            Record::Meta(_) => TAG_META,
            Record::Event(_) => TAG_EVENT,
            Record::Packet(_) => TAG_PACKET,
            Record::Decision(_) => TAG_DECISION,
            Record::MsgBind(_) => TAG_MSG_BIND,
            Record::End(_) => TAG_END,
            Record::Anomaly(_) => TAG_ANOMALY,
            Record::Fault(_) => TAG_FAULT,
            Record::Fluid(_) => TAG_FLUID,
        }
    }

    /// Encode the record payload (frame body without tag/len/check).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        match self {
            Record::Meta(m) => {
                // JSON keeps the run identity self-describing; this is a
                // once-per-log frame so compactness does not matter.
                out.extend_from_slice(
                    serde_json::to_string(m)
                        .expect("meta serializes")
                        .as_bytes(),
                );
            }
            Record::Event(e) => {
                out.extend_from_slice(&e.seq.to_le_bytes());
                out.extend_from_slice(&e.t_ns.to_le_bytes());
                out.push(e.kind);
                out.extend_from_slice(&e.digest.to_le_bytes());
            }
            Record::Packet(p) => {
                out.extend_from_slice(&p.t_ns.to_le_bytes());
                out.extend_from_slice(&p.link.to_le_bytes());
                out.push(p.op);
                out.extend_from_slice(&p.pkt.to_le_bytes());
                out.extend_from_slice(&p.conn.to_le_bytes());
                out.extend_from_slice(&p.msg.to_le_bytes());
                out.push(p.band);
                out.push(p.dscp);
                out.push(p.kind);
                out.extend_from_slice(&p.wire.to_le_bytes());
                out.extend_from_slice(&p.qlen.to_le_bytes());
                out.extend_from_slice(&p.qbytes.to_le_bytes());
            }
            Record::Decision(d) => {
                out.extend_from_slice(&d.t_ns.to_le_bytes());
                out.push(d.kind);
                out.extend_from_slice(&d.trace.to_le_bytes());
                out.extend_from_slice(&d.chosen.to_le_bytes());
                put_str(&mut out, &d.pod);
                put_str(&mut out, &d.request_id);
                put_str(&mut out, &d.cluster);
                put_str(&mut out, &d.detail);
            }
            Record::MsgBind(b) => {
                out.extend_from_slice(&b.t_ns.to_le_bytes());
                out.extend_from_slice(&b.msg.to_le_bytes());
                out.extend_from_slice(&b.conn.to_le_bytes());
                out.extend_from_slice(&b.rpc.to_le_bytes());
                out.extend_from_slice(&b.attempt.to_le_bytes());
                out.push(b.dir);
                put_str(&mut out, &b.request_id);
            }
            Record::End(e) => {
                out.extend_from_slice(&e.events.to_le_bytes());
                out.extend_from_slice(&e.digest.to_le_bytes());
            }
            Record::Anomaly(a) => {
                out.extend_from_slice(&a.t_ns.to_le_bytes());
                out.push(a.kind);
                out.push(a.direction as u8);
                out.extend_from_slice(&a.value_bits.to_le_bytes());
                out.extend_from_slice(&a.baseline_bits.to_le_bytes());
                put_str(&mut out, &a.subject);
                put_str(&mut out, &a.detail);
            }
            Record::Fault(fr) => {
                out.extend_from_slice(&fr.t_ns.to_le_bytes());
                out.extend_from_slice(&fr.fault.to_le_bytes());
                out.push(fr.phase);
                out.push(fr.kind);
                put_str(&mut out, &fr.subject);
                put_str(&mut out, &fr.detail);
            }
            Record::Fluid(fl) => {
                out.extend_from_slice(&fl.t_ns.to_le_bytes());
                out.push(fl.cause);
                out.extend_from_slice(&fl.flows.to_le_bytes());
                out.extend_from_slice(&fl.demand_bps.to_le_bytes());
                out.extend_from_slice(&fl.alloc_bps.to_le_bytes());
                out.extend_from_slice(&fl.delivered_bytes.to_le_bytes());
                out.extend_from_slice(&fl.dropped_bytes.to_le_bytes());
            }
        }
        out
    }

    /// Decode a record payload given its frame tag.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Record, DecodeError> {
        let mut c = Cur::new(payload);
        let rec = match tag {
            TAG_META => {
                let text = std::str::from_utf8(payload).map_err(|_| DecodeError::BadUtf8)?;
                let m: MetaInfo = serde_json::from_str(text).map_err(|_| DecodeError::BadJson)?;
                if m.format != FORMAT_VERSION {
                    return Err(DecodeError::Version(m.format));
                }
                return Ok(Record::Meta(m));
            }
            TAG_EVENT => Record::Event(EventRecord {
                seq: c.u64()?,
                t_ns: c.u64()?,
                kind: c.u8()?,
                digest: c.u64()?,
            }),
            TAG_PACKET => Record::Packet(PacketRecord {
                t_ns: c.u64()?,
                link: c.u32()?,
                op: c.u8()?,
                pkt: c.u64()?,
                conn: c.u64()?,
                msg: c.u64()?,
                band: c.u8()?,
                dscp: c.u8()?,
                kind: c.u8()?,
                wire: c.u32()?,
                qlen: c.u32()?,
                qbytes: c.u64()?,
            }),
            TAG_DECISION => Record::Decision(DecisionRecord {
                t_ns: c.u64()?,
                kind: c.u8()?,
                trace: c.u64()?,
                chosen: c.u32()?,
                pod: c.str()?,
                request_id: c.str()?,
                cluster: c.str()?,
                detail: c.str()?,
            }),
            TAG_MSG_BIND => Record::MsgBind(MsgBindRecord {
                t_ns: c.u64()?,
                msg: c.u64()?,
                conn: c.u64()?,
                rpc: c.u64()?,
                attempt: c.u32()?,
                dir: c.u8()?,
                request_id: c.str()?,
            }),
            TAG_END => Record::End(EndRecord {
                events: c.u64()?,
                digest: c.u64()?,
            }),
            TAG_ANOMALY => Record::Anomaly(AnomalyRecord {
                t_ns: c.u64()?,
                kind: c.u8()?,
                direction: c.u8()? as i8,
                value_bits: c.u64()?,
                baseline_bits: c.u64()?,
                subject: c.str()?,
                detail: c.str()?,
            }),
            TAG_FAULT => Record::Fault(FaultRecord {
                t_ns: c.u64()?,
                fault: c.u32()?,
                phase: c.u8()?,
                kind: c.u8()?,
                subject: c.str()?,
                detail: c.str()?,
            }),
            TAG_FLUID => Record::Fluid(FluidRecord {
                t_ns: c.u64()?,
                cause: c.u8()?,
                flows: c.u32()?,
                demand_bps: c.u64()?,
                alloc_bps: c.u64()?,
                delivered_bytes: c.u64()?,
                dropped_bytes: c.u64()?,
            }),
            t => return Err(DecodeError::BadTag(t)),
        };
        c.done()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: Record) {
        let payload = rec.encode();
        let back = Record::decode(rec.tag(), &payload).expect("decodes");
        assert_eq!(rec, back);
    }

    #[test]
    fn all_records_round_trip() {
        roundtrip(Record::Meta(MetaInfo {
            format: FORMAT_VERSION,
            name: "elibrary".into(),
            seed: 42,
            duration_ns: 8_000_000_000,
            warmup_ns: 1_000_000_000,
            links: vec![(0, "a->b".into()), (7, "b->a".into())],
        }));
        roundtrip(Record::Event(EventRecord {
            seq: 12345,
            t_ns: 987654321,
            kind: 9,
            digest: 0xdead_beef_cafe_f00d,
        }));
        roundtrip(Record::Packet(PacketRecord {
            t_ns: 1,
            link: 3,
            op: 2,
            pkt: 99,
            conn: 7,
            msg: 11,
            band: 1,
            dscp: 46,
            kind: 0,
            wire: 1566,
            qlen: 12,
            qbytes: 18000,
        }));
        roundtrip(Record::Decision(DecisionRecord {
            t_ns: 5,
            kind: DecisionKind::Route.code(),
            trace: 0xabc,
            chosen: 4,
            pod: "frontend-0".into(),
            request_id: "frontend-0-17".into(),
            cluster: "reviews".into(),
            detail: "rule=reviews/ lb=round-robin".into(),
        }));
        roundtrip(Record::MsgBind(MsgBindRecord {
            t_ns: 6,
            msg: 11,
            conn: 7,
            rpc: 3,
            attempt: 1,
            dir: 0,
            request_id: "frontend-0-17".into(),
        }));
        roundtrip(Record::End(EndRecord {
            events: 100,
            digest: 77,
        }));
        roundtrip(Record::Anomaly(AnomalyRecord {
            t_ns: 2_500_000_000,
            kind: 0,
            direction: -1,
            subject: "latency-sensitive".into(),
            value_bits: 23.4_f64.to_bits(),
            baseline_bits: 106.0_f64.to_bits(),
            detail: "p99 23.4ms vs baseline 106.0ms".into(),
        }));
        roundtrip(Record::Fault(FaultRecord {
            t_ns: 2_000_000_000,
            fault: 3,
            phase: 0,
            kind: 0,
            subject: "reviews/1".into(),
            detail: "pod reviews-2 crashed (restart in 2.000s)".into(),
        }));
        roundtrip(Record::Fluid(FluidRecord {
            t_ns: 3_500_000_000,
            cause: 1,
            flows: 154,
            demand_bps: 5_300_000_000,
            alloc_bps: 4_900_000_000,
            delivered_bytes: 306_250_000,
            dropped_bytes: 25_000_000,
        }));
    }

    #[test]
    fn short_payload_rejected() {
        let payload = Record::Event(EventRecord {
            seq: 1,
            t_ns: 2,
            kind: 3,
            digest: 4,
        })
        .encode();
        assert_eq!(
            Record::decode(TAG_EVENT, &payload[..payload.len() - 1]),
            Err(DecodeError::Short)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Record::End(EndRecord {
            events: 1,
            digest: 2,
        })
        .encode();
        payload.push(0);
        assert_eq!(
            Record::decode(TAG_END, &payload),
            Err(DecodeError::Trailing)
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Record::decode(99, &[]), Err(DecodeError::BadTag(99)));
    }

    #[test]
    fn decision_kind_codes_round_trip() {
        for k in [
            DecisionKind::Ingress,
            DecisionKind::Propagate,
            DecisionKind::Route,
            DecisionKind::FailFast,
            DecisionKind::Retry,
            DecisionKind::RetryDenied,
            DecisionKind::RootDone,
            DecisionKind::PolicyApply,
        ] {
            assert_eq!(DecisionKind::from_code(k.code()), Some(k));
        }
        assert_eq!(DecisionKind::from_code(200), None);
    }
}
