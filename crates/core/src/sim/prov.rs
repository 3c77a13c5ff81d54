//! Sim-time latency provenance: exact per-layer attribution.
//!
//! Every handler that moves a request forward already computes the
//! simulated timestamps this module needs (sidecar overhead draws, wire
//! send/delivery times, compute start/end). The tracker only *reuses*
//! those values — it never draws RNG, never schedules events, and never
//! touches the flight-recorder digest chain — so attribution is
//! as deterministic as the run itself and a run with
//! provenance compiled in is byte-identical to one without.
//!
//! Attribution invariant (tested in `tests/observability.rs`): for every
//! successfully completed root request, the seven layer components sum
//! **exactly** to `completed - intended`. The chain per attempt is
//! airtight by construction — client sidecar (launch → wire), request
//! wire (split fabric baseline vs. queueing), server window (exec tree +
//! residual → server sidecar), response wire, response client sidecar —
//! and every gap the chain does not cover (backoff, hedging, losing
//! attempts) lands in [`Layer::RetryWait`] as the RPC-level residual.

use super::Simulation;
use crate::netplan::Fabric;
use meshlayer_cluster::PodId;
use meshlayer_prof::{Breakdown, Layer, RequestProv};
use meshlayer_simcore::{FxHashMap, SimTime};

/// Completed-request records kept per run (aggregates keep counting).
const ROOT_PROV_CAP: usize = 100_000;

/// Accumulator for one in-flight RPC attempt.
pub(crate) struct AttemptProv {
    /// Layers attributed so far along the attempt's path.
    pub bd: Breakdown,
    /// When the attempt's request hit the transport (`SendMsg` time).
    pub wire_start: SimTime,
}

/// The simulation's provenance state.
#[derive(Default)]
pub(crate) struct ProvTrack {
    /// Live accumulators, keyed by `(rpc, attempt)`.
    pub attempts: FxHashMap<(u64, u32), AttemptProv>,
    /// Completed successful root requests, bounded by [`ROOT_PROV_CAP`].
    pub roots: Vec<RequestProv>,
    /// Root records dropped at the cap.
    pub dropped: u64,
    /// Cached unloaded-path baseline per `(src node, dst node)`:
    /// `(propagation ns, serialization ns per payload byte)`.
    path_base: FxHashMap<(u32, u32), (u64, f64)>,
}

impl ProvTrack {
    /// Record a completed successful root request.
    pub fn record_root(&mut self, rec: RequestProv) {
        if self.roots.len() < ROOT_PROV_CAP {
            self.roots.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// The unloaded fabric baseline for `bytes` of payload from `src` to
    /// `dst`: propagation plus serialization along the routed path, with
    /// no queueing. Cached per node pair. Same-node pairs cost zero —
    /// their wire time is all host queueing.
    fn fabric_baseline_ns(&mut self, fabric: &Fabric, src: PodId, dst: PodId, bytes: u64) -> u64 {
        let a = fabric.node_of(src);
        let b = fabric.node_of(dst);
        let (prop, per_byte) = *self.path_base.entry((a.0, b.0)).or_insert_with(|| {
            let mut prop = 0u64;
            let mut per_byte = 0f64;
            let mut cur = a;
            // Walk next-hops instead of `path()` so an unroutable
            // pair degrades to a zero baseline instead of panicking.
            let mut hops = 0;
            while cur != b && hops < 64 {
                let Some(lid) = fabric.topology.next_hop(cur, b) else {
                    break;
                };
                let l = fabric.topology.link(lid);
                prop += l.delay().as_nanos();
                per_byte += 8e9 / l.rate_bps() as f64;
                cur = l.to();
                hops += 1;
            }
            (prop, per_byte)
        });
        prop + (bytes as f64 * per_byte) as u64
    }

    /// Attempt `idx` of `rpc` launched at `now`; its request reaches the
    /// wire at `send_at` (sidecar overhead + localhost hop).
    pub(crate) fn attempt_start(&mut self, rpc: u64, idx: u32, now: SimTime, send_at: SimTime) {
        let mut bd = Breakdown::ZERO;
        bd.add_ns(
            Layer::SidecarClient,
            send_at.saturating_since(now).as_nanos(),
        );
        self.attempts.insert(
            (rpc, idx),
            AttemptProv {
                bd,
                wire_start: send_at,
            },
        );
    }

    /// A wire crossing of attempt `(rpc, idx)` from `sender` to
    /// `receiver` finished at `now`: charge the attempt the fabric
    /// baseline, and the rest of the measured wire time to host/NIC
    /// queueing. `extra` carries the server-side breakdown folded in on
    /// the response leg, plus any post-wire sidecar time.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wire_done(
        &mut self,
        fabric: &Fabric,
        (rpc, idx): (u64, u32),
        (sender, receiver): (PodId, PodId),
        bytes: u64,
        sent_at: SimTime,
        now: SimTime,
        extra: Option<(&Breakdown, u64)>,
    ) {
        if !self.attempts.contains_key(&(rpc, idx)) {
            return; // attempt already settled (late duplicate delivery)
        }
        let wire_ns = now.saturating_since(sent_at).as_nanos();
        let fabric_ns = self
            .fabric_baseline_ns(fabric, sender, receiver, bytes)
            .min(wire_ns);
        let p = self.attempts.get_mut(&(rpc, idx)).expect("checked above");
        p.bd.add_ns(Layer::Fabric, fabric_ns);
        p.bd.add_ns(Layer::NetQueue, wire_ns - fabric_ns);
        if let Some((server_bd, client_sidecar_ns)) = extra {
            p.bd.add(server_bd);
            p.bd.add_ns(Layer::SidecarClient, client_sidecar_ns);
        }
    }

    /// The request leg of attempt `(rpc, idx)` finished its wire crossing
    /// at `now` (delivery at the server's sidecar).
    pub(crate) fn request_wire(
        &mut self,
        fabric: &Fabric,
        attempt: (u64, u32),
        pods: (PodId, PodId),
        bytes: u64,
        now: SimTime,
    ) {
        let Some(ws) = self.attempts.get(&attempt).map(|p| p.wire_start) else {
            return;
        };
        self.wire_done(fabric, attempt, pods, bytes, ws, now, None);
    }

    /// Take the accumulated breakdown of attempt `idx` (on the winning
    /// response), leaving losing attempts for completion cleanup.
    pub(crate) fn take_attempt(&mut self, rpc: u64, idx: u32) -> Option<Breakdown> {
        self.attempts.remove(&(rpc, idx)).map(|p| p.bd)
    }

    /// Drop every attempt accumulator of a completed RPC.
    pub(crate) fn drop_rpc(&mut self, rpc: u64, attempts: u32) {
        for idx in 0..attempts {
            self.attempts.remove(&(rpc, idx));
        }
    }
}

impl Simulation {
    /// Per-request provenance records of the last run (successful roots,
    /// in completion order; capped at 100k).
    pub fn request_provenance(&self) -> &[RequestProv] {
        &self.obs.prov.roots
    }
}
