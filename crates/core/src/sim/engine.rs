//! The event loop and the network/transport plumbing.

use super::{Ev, MsgInFlight, Simulation};
use meshlayer_cluster::PodId;
use meshlayer_netsim::{LinkId, LinkOutcome, NodeId, Packet};
use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_transport::TimerPop;
use std::time::Instant;

/// SDN controller observation period (only active with
/// [`crate::XLayerConfig::sdn_lb`]).
pub(super) const SDN_TICK: SimDuration = SimDuration::from_millis(50);

/// Control-plane housekeeping period: telemetry reports + certificate
/// rotation.
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

impl Simulation {
    /// Schedule `ev` at `at`.
    #[inline(always)]
    pub(crate) fn push_ev(&mut self, at: SimTime, ev: Ev) {
        self.queue.push(at, ev);
    }

    /// Push the initial event population: one arrival per workload
    /// generator, the tick chains, and the first telemetry scrape.
    fn seed_events(&mut self) {
        for gen in 0..self.gens.len() {
            let at = self.gens[gen].next_at();
            if at < self.end_at {
                self.push_ev(at, Ev::Arrival { gen });
            }
        }
        self.arm_sdn(SimTime::ZERO);
        {
            let t = SimTime::ZERO + CONTROL_TICK;
            self.push_ev(t, Ev::ControlTick);
        }
        {
            let t = SimTime::ZERO + self.telemetry.interval();
            if t < self.end_at {
                self.push_ev(t, Ev::TelemetryTick);
            }
        }
        self.seed_faults();
        // The fluid plane's initial solve. Only fluid worlds push this,
        // so all-packet runs keep their exact historical event streams
        // (and capture digests).
        if self.fluid.active() {
            self.push_ev(
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
        let mut meter = EvMeter::new(self.profile_requested);
        let mut prof = self
            .profile_requested
            .then(meshlayer_prof::PhaseProfiler::start);
        // Events already reported to the phase profiler.
        let mut reported: u64 = 0;
        let loop_wall = Instant::now();
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.end_at {
                // The loop drops the first event past the end; a packet
                // it carried leaves the slab with it.
                if let Ev::PktArrive { pkt, .. } = ev {
                    self.pkts.take(pkt);
                }
                break;
            }
            let code = ev.code() as usize;
            let timed = meter.begin(code);
            self.flight_observe(t, &ev);
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
        self.wall_ns = loop_wall.elapsed().as_nanos() as u64;
        if let Some(mut p) = prof {
            p.on_events(Instant::now(), processed - reported);
            self.profile = Some(p.finish(self.wall_ns));
        }
        self.ev_profile = meter.profile();
        // Every event up to and including `end_at` ran.
        self.settle_links_before(self.end_at + SimDuration::from_nanos(1));
        self.flight_finish();
        crate::metrics::RunMetrics::collect(self, processed)
    }

    /// Packet conservation, the first check of a run audit: `(packets
    /// live in the slab, `PktArrive` events pending)`. The two are equal
    /// whenever no handler is running — every packet between a link's far
    /// end and its next node is owned by exactly one pending event.
    pub fn packets_in_flight(&self) -> (usize, usize) {
        let arrivals = self
            .queue
            .iter()
            .filter(|ev| matches!(ev, Ev::PktArrive { .. }))
            .count();
        (self.pkts.live(), arrivals)
    }

    /// Credit released transmissions that ended before `t`, so link
    /// counters read at `t` are what a completion event per packet would
    /// have left (see `meshlayer_netsim::Link::settle_before`).
    fn settle_links_before(&mut self, t: SimTime) {
        for link in self.fabric.topology.links_mut() {
            link.settle_before(t);
        }
    }

    pub(crate) fn handle(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::Arrival { gen } => self.on_arrival(gen, now),
            Ev::LinkTx { link } => self.on_link_tx(link, now),
            Ev::LinkKick { link } => self.on_link_kick(link, now),
            Ev::PktArrive { pkt, node } => {
                let pkt = self.pkts.take(pkt);
                self.on_pkt_arrive(pkt, node, now)
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
            Ev::SdnTick => self.on_sdn_tick(now),
            Ev::ControlTick => self.on_control_tick(now),
            Ev::TelemetryTick => self.on_telemetry_tick(now),
            Ev::PolicyPush { version } => self.on_policy_push(version, now),
            Ev::PolicyApply {
                version,
                layer,
                pod,
            } => self.on_policy_apply(version, layer, pod, now),
            Ev::Fault { fault, phase } => self.on_fault(fault, phase, now),
            Ev::FluidUpdate { cause } => self.on_fluid_update(cause, now),
        }
    }

    /// One telemetry scrape: sample every link (per-interval utilization,
    /// queue depth, drop delta), every pod's compute queue, and each
    /// sidecar's counter deltas, then roll latency intervals forward and
    /// evaluate SLO burn-rate rules.
    fn on_telemetry_tick(&mut self, now: SimTime) {
        use meshlayer_telemetry::GaugeKind;
        let elapsed_ns = now.saturating_since(self.scrape.last_at).as_nanos().max(1);
        self.settle_links_before(now);

        // Links: utilization over the interval from the busy-time delta.
        let n_links = self.fabric.topology.link_count();
        if self.scrape.links.len() < n_links {
            self.scrape.links.resize(n_links, (0, 0));
        }
        let link_samples: Vec<(meshlayer_netsim::LinkId, String, f64, usize, u64)> = self
            .fabric
            .topology
            .links()
            .map(|l| {
                let name = format!(
                    "{}->{}",
                    self.fabric.topology.node_name(l.from()),
                    self.fabric.topology.node_name(l.to())
                );
                let (prev_busy, prev_drops) = self.scrape.links[l.id().0 as usize];
                let busy = l.stats().busy_ns;
                let drops = l.drops();
                self.scrape.links[l.id().0 as usize] = (busy, drops);
                // Utilization = packet serialization share over the
                // interval plus the standing fluid-plane reservation.
                let fluid_share = l.fluid_bps() as f64 / l.rate_bps().max(1) as f64;
                let util = (busy.saturating_sub(prev_busy) as f64 / elapsed_ns as f64
                    + fluid_share)
                    .clamp(0.0, 1.0);
                // A policy apply that swaps the qdisc resets the drop
                // counter; read that window as zero drops, not underflow.
                (
                    l.id(),
                    name,
                    util,
                    l.queue_len(),
                    drops.saturating_sub(prev_drops),
                )
            })
            .collect();
        for (_, name, util, queue, drops) in link_samples {
            self.telemetry
                .scrape_gauge(GaugeKind::LinkUtilization, &name, now, util);
            self.telemetry
                .scrape_gauge(GaugeKind::LinkQueueDepth, &name, now, queue as f64);
            self.telemetry
                .scrape_gauge(GaugeKind::LinkDrops, &name, now, drops as f64);
        }

        // Pods: instantaneous compute-queue depth.
        let pod_samples: Vec<(String, usize)> = self
            .cluster
            .pods()
            .map(|p| (p.name.clone(), p.compute.queue_len()))
            .collect();
        for (name, depth) in pod_samples {
            self.telemetry
                .scrape_gauge(GaugeKind::PodComputeQueue, &name, now, depth as f64);
        }

        // Sidecars: counter deltas since the previous scrape, in
        // ascending pod order (the dense table's natural order).
        let n_pods = self.sidecars.len();
        self.scrape.sidecars.ensure(n_pods);
        for i in 0..n_pods {
            let pod = PodId(i as u32);
            let (name, stats) = {
                let sc = self.sidecars.get(pod).expect("sidecar exists");
                (sc.name().to_string(), sc.stats().clone())
            };
            let prev = &mut self.scrape.sidecars;
            let samples = [
                (
                    GaugeKind::SidecarRequests,
                    stats.outbound_requests - prev.outbound_requests[i],
                ),
                (GaugeKind::SidecarRetries, stats.retries - prev.retries[i]),
                (
                    GaugeKind::SidecarFailFast,
                    stats.fail_fast - prev.fail_fast[i],
                ),
                (GaugeKind::Sidecar5xx, stats.resp_5xx - prev.resp_5xx[i]),
            ];
            prev.outbound_requests[i] = stats.outbound_requests;
            prev.retries[i] = stats.retries;
            prev.fail_fast[i] = stats.fail_fast;
            prev.resp_5xx[i] = stats.resp_5xx;
            for (kind, delta) in samples {
                self.telemetry.scrape_gauge(kind, &name, now, delta as f64);
            }
        }

        let anomalies = self.telemetry.on_scrape(now);
        if !anomalies.is_empty() {
            if let Some(fr) = self.flight_rec() {
                for a in &anomalies {
                    fr.record_anomaly(
                        now,
                        a.kind.code(),
                        a.direction,
                        &a.subject,
                        a.value,
                        a.baseline,
                        &a.detail,
                    );
                }
            }
        }

        // Policy-plane observability, sampled *after* the SLO evaluation so
        // a fire/clear at this scrape is visible in the same interval.
        self.telemetry.scrape_gauge(
            GaugeKind::PolicyVersion,
            "fleet",
            now,
            self.policy.plane.converged_version() as f64,
        );
        let classes = self.telemetry.slo_classes();
        for class in classes {
            let burning = self.telemetry.burning(&class);
            self.telemetry.scrape_gauge(
                GaugeKind::SloBurning,
                &class,
                now,
                if burning { 1.0 } else { 0.0 },
            );
        }

        // The closed loop: the adaptation controller reads the fresh burn
        // state (and the SDN congestion view) and may propose a policy.
        let proposal = if let Some(ad) = self.policy.adapt.as_mut() {
            let burning = self.telemetry.burning(ad.watch_class());
            let congested = self.sdn.congested_links() > 0;
            ad.on_scrape(burning, congested)
        } else {
            None
        };
        if let Some((cfg, share, reason)) = proposal {
            self.schedule_policy_change_with(now, cfg, share, &reason);
        }

        self.scrape.last_at = now;
        let next = now + self.telemetry.interval();
        if next < self.end_at {
            self.push_ev(next, Ev::TelemetryTick);
        }
    }

    /// §3.5: the SDN controller snapshots link utilization out-of-band.
    fn on_sdn_tick(&mut self, now: SimTime) {
        self.settle_links_before(now);
        self.sdn.observe(&self.fabric, now);
        let next = now + SDN_TICK;
        if next < self.end_at {
            self.push_ev(next, Ev::SdnTick);
        }
    }

    /// Fig 1's housekeeping loop: sidecars report telemetry to the control
    /// plane; the CA rotates certificates nearing expiry.
    fn on_control_tick(&mut self, now: SimTime) {
        for i in 0..self.sidecars.len() {
            let pod = PodId(i as u32);
            let (name, stats) = {
                let sc = self.sidecars.get(pod).expect("sidecar exists");
                (sc.name().to_string(), sc.stats().clone())
            };
            self.control.report_telemetry(&name, stats);
        }
        self.control
            .rotate_expiring(now, meshlayer_simcore::SimDuration::from_secs(3600));
        let next = now + CONTROL_TICK;
        if next < self.end_at {
            self.push_ev(next, Ev::ControlTick);
        }
    }

    // -----------------------------------------------------------------
    // Links and packets
    // -----------------------------------------------------------------

    /// Act on a link's reported outcome. A transmission with nothing
    /// queued behind it is released: its arrival is scheduled now and the
    /// hop costs one event. Behind a backlog the `LinkTx` chain stays.
    fn apply_link_outcome(&mut self, link_id: LinkId, outcome: LinkOutcome) {
        match outcome {
            LinkOutcome::Busy { done_at } => {
                let link = self.fabric.topology.link_mut(link_id);
                match link.release() {
                    Some(pkt) => {
                        let (at, node) = (done_at + link.delay(), link.to());
                        let pkt = self.pkts.put(pkt);
                        self.push_ev(at, Ev::PktArrive { pkt, node });
                    }
                    None => self.push_ev(done_at, Ev::LinkTx { link: link_id }),
                }
            }
            LinkOutcome::KickAt { at } => self.push_ev(at, Ev::LinkKick { link: link_id }),
            LinkOutcome::Idle => {}
        }
    }

    /// Route `pkt` onward from `at_node` (toward `pkt.dst`).
    pub(crate) fn route_packet(&mut self, pkt: Packet, at_node: NodeId, now: SimTime) {
        debug_assert_ne!(at_node, pkt.dst, "deliver, don't route");
        let Some(link_id) = self.fabric.topology.next_hop(at_node, pkt.dst) else {
            // Unroutable packets are silently dropped (counts as loss).
            self.stats.pkt_drops += 1;
            return;
        };
        let link = self.fabric.topology.link_mut(link_id);
        let (outcome, dropped) = link.offer(pkt, now);
        if dropped {
            self.stats.pkt_drops += 1;
        }
        self.apply_link_outcome(link_id, outcome);
    }

    fn on_link_tx(&mut self, link_id: LinkId, now: SimTime) {
        let link = self.fabric.topology.link_mut(link_id);
        let delay = link.delay();
        let to = link.to();
        let (pkt, next) = link.on_tx_done(now);
        let pkt = self.pkts.put(pkt);
        self.push_ev(now + delay, Ev::PktArrive { pkt, node: to });
        self.apply_link_outcome(link_id, next);
    }

    fn on_link_kick(&mut self, link_id: LinkId, now: SimTime) {
        let outcome = self.fabric.topology.link_mut(link_id).on_kick(now);
        self.apply_link_outcome(link_id, outcome);
    }

    fn on_pkt_arrive(&mut self, pkt: Packet, node: NodeId, now: SimTime) {
        if pkt.dst == node {
            self.deliver_packet(pkt, node, now);
        } else {
            self.route_packet(pkt, node, now);
        }
    }

    /// A packet reached its destination node: hand it to the right
    /// connection endpoint and process the endpoint's output.
    fn deliver_packet(&mut self, pkt: Packet, node: NodeId, now: SimTime) {
        let Some(pod) = self.fabric.pod_at(node) else {
            self.stats.pkt_drops += 1;
            return;
        };
        let conn_id = pkt.conn;
        let Some((pair, out)) = self.conns.get_mut_with_out(conn_id) else {
            self.stats.pkt_drops += 1;
            return;
        };
        let dir = if pair.a_pod == pod { 0u8 } else { 1u8 };
        let endpoint = if dir == 0 { &mut pair.a } else { &mut pair.b };
        endpoint.on_packet_into(&pkt, now, out);
        self.process_conn_output(conn_id, dir, now);
    }

    // -----------------------------------------------------------------
    // Connections
    // -----------------------------------------------------------------

    fn on_conn_timer(&mut self, conn: u64, dir: u8, now: SimTime) {
        let Some((pair, out)) = self.conns.get_mut_with_out(conn) else {
            return;
        };
        let endpoint = if dir == 0 { &mut pair.a } else { &mut pair.b };
        match pair.timers[dir as usize].on_pop(now, endpoint.timer_state()) {
            TimerPop::Idle => {}
            TimerPop::Push(at) => self.push_ev(at, Ev::ConnTimer { conn, dir }),
            TimerPop::Fire(gen) => {
                endpoint.on_timer_into(gen, now, out);
                self.process_conn_output(conn, dir, now);
            }
        }
    }

    fn on_send_msg(&mut self, conn: u64, dir: u8, msg: u64, bytes: u64, now: SimTime) {
        let Some((pair, out)) = self.conns.get_mut_with_out(conn) else {
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
        let mut out = self.conns.take_out();
        // Packets leave from the endpoint's node.
        let src_node = {
            let pair = self.conns.get(conn).expect("conn exists");
            if dir == 0 {
                self.fabric.node_of(pair.a_pod)
            } else {
                self.fabric.node_of(pair.b_pod)
            }
        };
        for pkt in out.packets.drain(..) {
            self.route_packet(pkt, src_node, now);
        }
        let pair = self.conns.get_mut(conn).expect("conn exists");
        if let Some(at) = pair.timers[dir as usize].arm(out.timer) {
            self.push_ev(at, Ev::ConnTimer { conn, dir });
        }
        for d in out.delivered.drain(..) {
            self.on_msg_delivered(conn, dir, d.msg, now);
        }
        self.conns.restore_out(out);
    }

    /// A whole message finished arriving at endpoint `(conn, dir)`.
    fn on_msg_delivered(&mut self, conn: u64, dir: u8, msg: u64, now: SimTime) {
        let (receiver_pod, sender_pod) = {
            let pair = self.conns.get(conn).expect("conn exists");
            if dir == 0 {
                (pair.a_pod, pair.b_pod)
            } else {
                (pair.b_pod, pair.a_pod)
            }
        };
        match self.msg_store.remove(msg) {
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
                let overhead = {
                    let sc = self.sidecars.get_mut(receiver_pod).expect("sidecar exists");
                    sc.overhead()
                };
                let at = now + overhead + self.spec.config.app_sidecar_delay;
                // Close out the attempt's provenance: response wire
                // (fabric vs. queueing), the server window it carried,
                // and the client sidecar time just computed.
                self.prov_wire_done(
                    rpc,
                    attempt,
                    sender_pod,
                    receiver_pod,
                    resp.wire_size(),
                    sent_at,
                    now,
                    Some((&server, at.saturating_since(now).as_nanos())),
                );
                self.push_ev(
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
