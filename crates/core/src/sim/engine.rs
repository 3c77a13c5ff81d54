//! The event loop, the context every handler shares, and the network and
//! transport planes.

use super::store::{ConnTable, IdSlab, PairPools, Slab};
use super::{ConnPair, Ev, MsgInFlight, Simulation, WorldStats};
use crate::netplan::Fabric;
use meshlayer_cluster::{Cluster, PodId};
use meshlayer_netsim::{LinkId, LinkOutcome, NodeId, Packet};
use meshlayer_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use meshlayer_transport::{CcAlgo, Conn, ConnConfig, TimerPop, TimerSlot};
use std::time::Instant;

/// SDN controller observation period (only active with
/// [`crate::XLayerConfig::sdn_lb`]).
pub(super) const SDN_TICK: SimDuration = SimDuration::from_millis(50);

/// Control-plane housekeeping period: certificate rotation.
const CONTROL_TICK: SimDuration = SimDuration::from_secs(1);

/// Per-kind event accounting of one engine loop.
///
/// Counts are exact and always on. Wall time is read only when profiling
/// was requested, and then only around a sample of each kind — its first
/// [`EvMeter::DENSE`] events and every [`EvMeter::STRIDE`]-th after — so
/// the unprofiled loop never touches the clock and the profiled one
/// touches it twice per `STRIDE` events of a kind. A kind's reported wall
/// time is its sample mean times its exact count.
struct EvMeter {
    profiled: bool,
    counts: [u64; Ev::COUNT],
    /// Per kind: (events timed, nanoseconds they took).
    timed: [(u64, u64); Ev::COUNT],
}

impl EvMeter {
    /// Kinds rarer than this are timed exhaustively (ticks, faults).
    const DENSE: u64 = 16;
    /// Past `DENSE`, one event in this many is timed. Prime, so the
    /// sample cannot lock onto one phase of a repeating pattern (data,
    /// ack, data, ack ...) in this deterministic event stream.
    const STRIDE: u64 = 61;

    fn new(profiled: bool) -> EvMeter {
        EvMeter {
            profiled,
            counts: [0; Ev::COUNT],
            timed: [(0, 0); Ev::COUNT],
        }
    }

    /// Count one event of kind `code`; `Some(start)` if it is to be timed.
    #[inline(always)]
    fn begin(&mut self, code: usize) -> Option<Instant> {
        let n = self.counts[code];
        self.counts[code] = n + 1;
        (self.profiled && (n < Self::DENSE || n.is_multiple_of(Self::STRIDE))).then(Instant::now)
    }

    /// The timed event that started at `start` is done; returns the
    /// closing clock read for the phase profiler to reuse.
    #[inline]
    fn end(&mut self, code: usize, start: Instant) -> Instant {
        let end = Instant::now();
        let slot = &mut self.timed[code];
        slot.0 += 1;
        slot.1 += (end - start).as_nanos() as u64;
        end
    }

    /// Per kind: (exact count, estimated wall nanoseconds).
    fn profile(&self) -> [(u64, u64); Ev::COUNT] {
        std::array::from_fn(|code| {
            let (count, (timed, ns)) = (self.counts[code], self.timed[code]);
            let wall = (ns as u128 * count as u128).checked_div(timed as u128);
            (count, wall.unwrap_or(0) as u64)
        })
    }
}

/// What every handler may touch, whichever plane it runs in: the event
/// queue, the world RNG, the world counters and the run horizon.
pub(crate) struct Ctx {
    pub queue: EventQueue<Ev>,
    pub rng: SimRng,
    pub stats: WorldStats,
    /// The last simulated instant of the run.
    pub end_at: SimTime,
}

impl Ctx {
    /// Schedule `ev` at `at` if that is before the end of the run.
    #[inline]
    pub(crate) fn push_before_end(&mut self, at: SimTime, ev: Ev) {
        if at < self.end_at {
            self.queue.push(at, ev);
        }
    }
}

/// The network plane: the packet fabric and the packets between a link's
/// far end and their `PktArrive` event.
pub(crate) struct NetPlane {
    pub fabric: Fabric,
    pub pkts: Slab<Packet>,
}

impl NetPlane {
    /// Credit released transmissions that ended before `t`, so link
    /// counters read at `t` are what a completion event per packet would
    /// have left (see `meshlayer_netsim::Link::settle_before`).
    pub(crate) fn settle_links_before(&mut self, t: SimTime) {
        for link in self.fabric.topology.links_mut() {
            link.settle_before(t);
        }
    }

    /// Act on a link's reported outcome. A transmission with nothing
    /// queued behind it is released: its arrival is scheduled now and the
    /// hop costs one event. Behind a backlog the `LinkTx` chain stays.
    fn apply_link_outcome(&mut self, link_id: LinkId, outcome: LinkOutcome, ctx: &mut Ctx) {
        match outcome {
            LinkOutcome::Busy { done_at } => {
                let link = self.fabric.topology.link_mut(link_id);
                match link.release() {
                    Some(pkt) => {
                        let (at, node) = (done_at + link.delay(), link.to());
                        let pkt = self.pkts.put(pkt);
                        ctx.queue.push(at, Ev::PktArrive { pkt, node });
                    }
                    None => ctx.queue.push(done_at, Ev::LinkTx { link: link_id }),
                }
            }
            LinkOutcome::KickAt { at } => ctx.queue.push(at, Ev::LinkKick { link: link_id }),
            LinkOutcome::Idle => {}
        }
    }

    /// Route `pkt` onward from `at_node` (toward `pkt.dst`).
    pub(crate) fn route_packet(
        &mut self,
        pkt: Packet,
        at_node: NodeId,
        now: SimTime,
        ctx: &mut Ctx,
    ) {
        debug_assert_ne!(at_node, pkt.dst, "deliver, don't route");
        let Some(link_id) = self.fabric.topology.next_hop(at_node, pkt.dst) else {
            // Unroutable packets are silently dropped (counts as loss).
            ctx.stats.pkt_drops += 1;
            return;
        };
        let link = self.fabric.topology.link_mut(link_id);
        let (outcome, dropped) = link.offer(pkt, now);
        if dropped {
            ctx.stats.pkt_drops += 1;
        }
        self.apply_link_outcome(link_id, outcome, ctx);
    }

    fn on_link_tx(&mut self, link_id: LinkId, now: SimTime, ctx: &mut Ctx) {
        let link = self.fabric.topology.link_mut(link_id);
        let delay = link.delay();
        let to = link.to();
        let (pkt, next) = link.on_tx_done(now);
        let pkt = self.pkts.put(pkt);
        ctx.queue.push(now + delay, Ev::PktArrive { pkt, node: to });
        self.apply_link_outcome(link_id, next, ctx);
    }

    fn on_link_kick(&mut self, link_id: LinkId, now: SimTime, ctx: &mut Ctx) {
        let outcome = self.fabric.topology.link_mut(link_id).on_kick(now);
        self.apply_link_outcome(link_id, outcome, ctx);
    }
}

/// The transport plane: connection pairs, their per-pod-pair pools, and
/// the messages they carry.
pub(crate) struct TransportPlane {
    pub conns: ConnTable<ConnPair>,
    pub pair_pools: PairPools,
    /// Messages between their send and their delivery, by message id.
    pub msgs: IdSlab<MsgInFlight>,
    next_msg: u64,
}

impl Default for TransportPlane {
    fn default() -> Self {
        TransportPlane {
            conns: ConnTable::default(),
            pair_pools: PairPools::default(),
            msgs: IdSlab::default(),
            next_msg: 1,
        }
    }
}

impl TransportPlane {
    /// Transport connections per (pod pair, priority class) — Envoy-style
    /// upstream connection pooling. Messages rotate across the pool.
    const CONNS_PER_PAIR: usize = 4;

    pub(crate) fn alloc_msg(&mut self) -> u64 {
        let id = self.next_msg;
        self.next_msg += 1;
        id
    }

    /// Resolve (or create) the connection pair between two pods for the
    /// transport class `(class, dscp, cc)`, returning `(conn id,
    /// direction for x)`.
    pub(crate) fn conn_for(
        &mut self,
        x: PodId,
        y: PodId,
        (class, dscp, cc): (u8, u8, CcAlgo),
        cluster: &Cluster,
        fabric: &Fabric,
    ) -> (u64, u8) {
        let (a, b) = if x.0 <= y.0 { (x, y) } else { (y, x) };
        // Rotate across the connection pool for this pair+class.
        let (slot, existing) = self.pair_pools.rotate(a, b, class, Self::CONNS_PER_PAIR);
        let id = if existing != 0 {
            existing
        } else {
            let id = self.conns.next_id();
            self.pair_pools.assign(a, b, class, slot, id);
            let mk_cfg = |src: PodId, dst: PodId| ConnConfig {
                dscp,
                cc,
                src_ip: cluster.pod(src).ip,
                dst_ip: cluster.pod(dst).ip,
                ..ConnConfig::default()
            };
            let conn_a = Conn::new(id, 0, fabric.node_of(a), fabric.node_of(b), mk_cfg(a, b));
            let conn_b = Conn::new(id, 1, fabric.node_of(b), fabric.node_of(a), mk_cfg(b, a));
            self.conns.push(ConnPair {
                a_pod: a,
                b_pod: b,
                a: conn_a,
                b: conn_b,
                class,
                timers: [TimerSlot::default(); 2],
            })
        };
        let dir = if x == a { 0 } else { 1 };
        (id, dir)
    }

    /// `(this end, the other end)` of endpoint `(conn, dir)`.
    pub(crate) fn pods_of(&self, conn: u64, dir: u8) -> (PodId, PodId) {
        let pair = self.conns.get(conn).expect("conn exists");
        if dir == 0 {
            (pair.a_pod, pair.b_pod)
        } else {
            (pair.b_pod, pair.a_pod)
        }
    }
}

impl Simulation {
    /// Push the initial event population: one arrival per workload
    /// generator, the tick chains, and the first telemetry scrape.
    pub(super) fn seed_events(&mut self) {
        for (gen, g) in self.app.gens.iter().enumerate() {
            self.ctx.push_before_end(g.next_at(), Ev::Arrival { gen });
        }
        self.mesh.policy.arm_sdn(SimTime::ZERO, &mut self.ctx);
        self.ctx
            .queue
            .push(SimTime::ZERO + CONTROL_TICK, Ev::ControlTick);
        let t = SimTime::ZERO + self.obs.telemetry.interval();
        self.ctx.push_before_end(t, Ev::TelemetryTick);
        self.chaos.seed(&mut self.ctx);
        // The fluid plane's initial solve. Only fluid worlds push this,
        // so all-packet runs keep their exact historical event streams
        // (and capture digests).
        if self.fluid.active() {
            self.ctx.queue.push(
                SimTime::ZERO,
                Ev::FluidUpdate {
                    cause: super::fluid::CAUSE_SEED,
                },
            );
        }
    }

    /// Run to completion: seed the workload arrivals, drain events until
    /// the configured duration elapses, then collect metrics.
    pub fn run(&mut self) -> crate::metrics::RunMetrics {
        self.seed_events();
        let mut processed: u64 = 0;
        // Generous runaway guard: the densest expected runs are tens of
        // millions of events; a run hitting this bound is a driver bug.
        let max_events: u64 = 2_000_000_000;
        // The phase profiler reuses the closing clock read of each timed
        // event, so profiling adds no reads of its own (and never touches
        // simulation state); an unprofiled run reads the clock twice.
        let mut meter = EvMeter::new(self.obs.profile_requested);
        let mut prof = self
            .obs
            .profile_requested
            .then(meshlayer_prof::PhaseProfiler::start);
        // Events already reported to the phase profiler.
        let mut reported: u64 = 0;
        let loop_wall = Instant::now();
        while let Some((t, ev)) = self.ctx.queue.pop() {
            if t > self.ctx.end_at {
                // The loop drops the first event past the end; a packet
                // it carried leaves the slab with it.
                if let Ev::PktArrive { pkt, .. } = ev {
                    self.net.pkts.take(pkt);
                }
                break;
            }
            let code = ev.code() as usize;
            let timed = meter.begin(code);
            self.obs.flight_observe(t, &ev, &self.net.pkts);
            self.handle(ev, t);
            processed += 1;
            if let Some(start) = timed {
                let end = meter.end(code, start);
                if let Some(p) = prof.as_mut() {
                    p.on_events(end, processed - reported);
                    reported = processed;
                }
            }
            assert!(processed < max_events, "event-loop runaway");
        }
        let wall_ns = loop_wall.elapsed().as_nanos() as u64;
        let profile = prof.map(|mut p| {
            p.on_events(Instant::now(), processed - reported);
            p.finish(wall_ns)
        });
        self.obs.end_loop(wall_ns, meter.profile(), profile);
        // Every event up to and including `end_at` ran.
        self.net
            .settle_links_before(self.ctx.end_at + SimDuration::from_nanos(1));
        crate::metrics::RunMetrics::collect(self, processed)
    }

    /// Packet conservation, the first check of a run audit: `(packets
    /// live in the slab, `PktArrive` events pending)`. The two are equal
    /// whenever no handler is running — every packet between a link's far
    /// end and its next node is owned by exactly one pending event.
    pub fn packets_in_flight(&self) -> (usize, usize) {
        let arrivals = self
            .ctx
            .queue
            .iter()
            .filter(|ev| matches!(ev, Ev::PktArrive { .. }))
            .count();
        (self.net.pkts.live(), arrivals)
    }

    pub(crate) fn handle(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::Arrival { gen } => self.on_arrival(gen, now),
            Ev::LinkTx { link } => self.net.on_link_tx(link, now, &mut self.ctx),
            Ev::LinkKick { link } => self.net.on_link_kick(link, now, &mut self.ctx),
            Ev::PktArrive { pkt, node } => {
                let pkt = self.net.pkts.take(pkt);
                if pkt.dst == node {
                    self.deliver_packet(pkt, node, now);
                } else {
                    self.net.route_packet(pkt, node, now, &mut self.ctx);
                }
            }
            Ev::ConnTimer { conn, dir } => self.on_conn_timer(conn, dir, now),
            Ev::SendMsg {
                conn,
                dir,
                msg,
                bytes,
            } => self.on_send_msg(conn, dir, msg, bytes, now),
            Ev::ExecStart { exec } => self.on_exec_start(exec, now),
            Ev::ComputeDone { pod, token } => self.on_compute_done(pod, token, now),
            Ev::AttemptResponse {
                rpc,
                attempt,
                status,
            } => self.on_attempt_response(rpc, attempt, status, now),
            Ev::PerTryTimeout { rpc, attempt } => self.on_per_try_timeout(rpc, attempt, now),
            Ev::RpcTimeout { rpc } => self.on_rpc_timeout(rpc, now),
            Ev::RetryFire { rpc } => self.on_retry_fire(rpc, now),
            Ev::HedgeFire { rpc, attempt } => self.on_hedge_fire(rpc, attempt, now),
            Ev::SdnTick => {
                // §3.5: the SDN controller snapshots link utilization
                // out-of-band.
                self.net.settle_links_before(now);
                self.mesh.sdn.observe(&self.net.fabric, now);
                self.ctx.push_before_end(now + SDN_TICK, Ev::SdnTick);
            }
            Ev::ControlTick => {
                // Fig 1's housekeeping loop: the CA rotates certificates
                // nearing expiry.
                let horizon = SimDuration::from_secs(3600);
                self.mesh.control.rotate_expiring(now, horizon);
                self.ctx
                    .push_before_end(now + CONTROL_TICK, Ev::ControlTick);
            }
            Ev::TelemetryTick => self.on_telemetry_tick(now),
            Ev::PolicyPush { version } => {
                self.mesh
                    .on_policy_push(version, now, &self.app.cluster, &mut self.ctx)
            }
            Ev::PolicyApply {
                version,
                layer,
                pod,
            } => self.on_policy_apply(version, layer, pod, now),
            Ev::Fault { fault, phase } => self.on_fault(fault, phase, now),
            Ev::FluidUpdate { cause } => self.on_fluid_update(cause, now),
        }
    }

    /// One telemetry scrape (see [`super::obs::Observers::scrape`]), then
    /// the closed loop: the adaptation controller reads the fresh burn
    /// state (and the SDN congestion view) and may propose a policy.
    fn on_telemetry_tick(&mut self, now: SimTime) {
        self.net.settle_links_before(now);
        self.obs
            .scrape(now, &self.net.fabric, &self.app.cluster, &self.mesh);
        let proposal = self.mesh.policy.adapt.as_mut().and_then(|ad| {
            let burning = self.obs.telemetry.burning(ad.watch_class());
            ad.on_scrape(burning, self.mesh.sdn.congested_links() > 0)
        });
        if let Some((cfg, share, reason)) = proposal {
            self.schedule_policy_change_with(now, cfg, share, &reason);
        }
        let next = now + self.obs.telemetry.interval();
        self.ctx.push_before_end(next, Ev::TelemetryTick);
    }

    // -----------------------------------------------------------------
    // Connections
    // -----------------------------------------------------------------

    /// A packet reached its destination node: hand it to the right
    /// connection endpoint and process the endpoint's output.
    fn deliver_packet(&mut self, pkt: Packet, node: NodeId, now: SimTime) {
        let Some(pod) = self.net.fabric.pod_at(node) else {
            self.ctx.stats.pkt_drops += 1;
            return;
        };
        let conn_id = pkt.conn;
        let Some((pair, out)) = self.transport.conns.get_mut_with_out(conn_id) else {
            self.ctx.stats.pkt_drops += 1;
            return;
        };
        let dir = if pair.a_pod == pod { 0u8 } else { 1u8 };
        let endpoint = if dir == 0 { &mut pair.a } else { &mut pair.b };
        endpoint.on_packet_into(&pkt, now, out);
        self.process_conn_output(conn_id, dir, now);
    }

    fn on_conn_timer(&mut self, conn: u64, dir: u8, now: SimTime) {
        let Some((pair, out)) = self.transport.conns.get_mut_with_out(conn) else {
            return;
        };
        let endpoint = if dir == 0 { &mut pair.a } else { &mut pair.b };
        match pair.timers[dir as usize].on_pop(now, endpoint.timer_state()) {
            TimerPop::Idle => {}
            TimerPop::Push(at) => self.ctx.queue.push(at, Ev::ConnTimer { conn, dir }),
            TimerPop::Fire(gen) => {
                endpoint.on_timer_into(gen, now, out);
                self.process_conn_output(conn, dir, now);
            }
        }
    }

    fn on_send_msg(&mut self, conn: u64, dir: u8, msg: u64, bytes: u64, now: SimTime) {
        let Some((pair, out)) = self.transport.conns.get_mut_with_out(conn) else {
            return;
        };
        let endpoint = if dir == 0 { &mut pair.a } else { &mut pair.b };
        endpoint.send_message_into(msg, bytes.max(1), now, out);
        self.process_conn_output(conn, dir, now);
    }

    /// Drain the output endpoint `(conn, dir)` just wrote into the
    /// connection table's buffer: inject its packets into the fabric,
    /// schedule its timer, and dispatch any delivered messages.
    fn process_conn_output(&mut self, conn: u64, dir: u8, now: SimTime) {
        let mut out = self.transport.conns.take_out();
        // Packets leave from the endpoint's node.
        let src_node = self.net.fabric.node_of(self.transport.pods_of(conn, dir).0);
        for pkt in out.packets.drain(..) {
            self.net.route_packet(pkt, src_node, now, &mut self.ctx);
        }
        let pair = self.transport.conns.get_mut(conn).expect("conn exists");
        if let Some(at) = pair.timers[dir as usize].arm(out.timer) {
            self.ctx.queue.push(at, Ev::ConnTimer { conn, dir });
        }
        for d in out.delivered.drain(..) {
            self.on_msg_delivered(conn, dir, d.msg, now);
        }
        self.transport.conns.restore_out(out);
    }

    /// A whole message finished arriving at endpoint `(conn, dir)`.
    fn on_msg_delivered(&mut self, conn: u64, dir: u8, msg: u64, now: SimTime) {
        let (receiver_pod, sender_pod) = self.transport.pods_of(conn, dir);
        match self.transport.msgs.remove(msg) {
            Some(MsgInFlight::Request { req, rpc, attempt }) => {
                self.on_request_delivered(req, rpc, attempt, receiver_pod, conn, dir, now);
            }
            Some(MsgInFlight::Response {
                resp,
                rpc,
                attempt,
                sent_at,
                server,
            }) => {
                // Client-side sidecar overhead before the caller sees it.
                let sc = self
                    .mesh
                    .sidecars
                    .get_mut(receiver_pod)
                    .expect("sidecar exists");
                let at = now + sc.overhead() + self.config.app_sidecar_delay;
                // Close out the attempt's provenance: response wire
                // (fabric vs. queueing), the server window it carried,
                // and the client sidecar time just computed.
                self.obs.prov.wire_done(
                    &self.net.fabric,
                    (rpc, attempt),
                    (sender_pod, receiver_pod),
                    resp.wire_size(),
                    sent_at,
                    now,
                    Some((&server, at.saturating_since(now).as_nanos())),
                );
                self.ctx.queue.push(
                    at,
                    Ev::AttemptResponse {
                        rpc,
                        attempt,
                        status: resp.status,
                    },
                );
            }
            None => {
                // Message already superseded (e.g. duplicate delivery).
            }
        }
    }
}
