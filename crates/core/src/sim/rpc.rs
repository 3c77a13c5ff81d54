//! RPC lifecycle: routing, attempts (retries + hedges), timeouts,
//! completion.

use super::{
    AppPlane, AttemptState, ClientSpanCtx, CompletionKey, Ev, MeshPlane, MsgInFlight, Rpc,
    Simulation,
};
use crate::netplan::Fabric;
use crate::provenance::request_priority;
use meshlayer_cluster::{Cluster, PodId};
use meshlayer_http::{Request, StatusCode, HDR_REQUEST_ID};
use meshlayer_mesh::{AttemptFailure, RouteOutcome};
use meshlayer_prof::{Breakdown, Layer};
use meshlayer_simcore::{EventQueue, SimTime};

/// The far heap is not compacted below this many events: scanning a
/// heap this small would cost more than it frees.
const FAR_COMPACT_FLOOR: usize = 4096;

/// Compaction of the queue's far heap (see
/// `AppPlane::compact_far_deadlines`).
pub(crate) struct FarCompaction {
    /// Far-heap size that triggers the next compaction: twice what the
    /// previous one left, at least [`FAR_COMPACT_FLOOR`].
    pub next_at: usize,
    /// Compactions run.
    pub runs: u64,
    /// Events they dropped.
    pub dropped: u64,
}

impl Default for FarCompaction {
    fn default() -> Self {
        FarCompaction {
            next_at: FAR_COMPACT_FLOOR,
            runs: 0,
            dropped: 0,
        }
    }
}

impl MeshPlane {
    /// Route `req` from `caller`'s sidecar. Discovery-time endpoint
    /// subsetting (§ subset.rs) narrows the pool before SDN congestion
    /// filtering, mirroring xDS: the client never learns endpoints outside
    /// its subset.
    fn route(
        &mut self,
        caller: PodId,
        req: &Request,
        cluster: &Cluster,
        fabric: &Fabric,
        now: SimTime,
    ) -> RouteOutcome {
        let (subsets, sdn) = (&self.subsets, &self.sdn);
        let sdn_lb = self.policy.live.sdn_lb;
        let sc = self.sidecars.get_mut(caller).expect("caller sidecar");
        sc.route_outbound(
            req,
            &|c, s| {
                let eps = subsets.filter(caller, c, cluster.endpoints(c, s));
                if sdn_lb {
                    sdn.uncongested(fabric, &eps)
                } else {
                    eps
                }
            },
            now,
        )
    }
}

impl AppPlane {
    /// Drop the dead RPC deadlines from the queue's far heap. Deadlines
    /// are seconds long and RPCs milliseconds, so nearly every deadline
    /// outlives its RPC; left alone they pile up by the hundred thousand
    /// until a run is long enough to pop them, one no-op at a time.
    ///
    /// An event may be dropped only when its handler is provably a no-op
    /// now and for ever: an `RpcTimeout` whose rpc has left `rpcs` (ids
    /// are never reused), a `PerTryTimeout` or `HedgeFire` whose rpc has,
    /// or whose attempt is `done` (never reset). Every other event stays,
    /// and survivors keep their `(at, seq)`. Runs when the far heap has
    /// doubled since the last compaction, so the scan is amortised O(1)
    /// per deadline pushed.
    fn compact_far_deadlines(&mut self, queue: &mut EventQueue<Ev>) {
        let rpcs = &self.rpcs;
        let dropped = queue.retain_far(|ev| match ev {
            Ev::RpcTimeout { rpc } => rpcs.contains(*rpc),
            Ev::PerTryTimeout { rpc, attempt } | Ev::HedgeFire { rpc, attempt } => rpcs
                .get(*rpc)
                .is_some_and(|r| r.attempts.get(*attempt as usize).is_none_or(|a| !a.done)),
            _ => true,
        });
        self.far.runs += 1;
        self.far.dropped += dropped as u64;
        self.far.next_at = (2 * queue.far_len()).max(FAR_COMPACT_FLOOR);
    }
}

impl Simulation {
    // -----------------------------------------------------------------
    // Arrivals (root requests)
    // -----------------------------------------------------------------

    pub(crate) fn on_arrival(&mut self, gen: usize, now: SimTime) {
        let gr = self.app.gens[gen].emit();
        // Schedule the next arrival of this generator.
        let next = self.app.gens[gen].next_at();
        self.ctx.push_before_end(next, Ev::Arrival { gen });
        let mut req = gr.request;
        // §4.3 step 1: classify at the ingress and stamp the header.
        if self.mesh.policy.live.classify {
            self.mesh.classifier.stamp(&mut req);
        }
        // The ingress sidecar mints x-request-id and records provenance.
        let ingress = self.mesh.ingress_pod;
        let sc = self
            .mesh
            .sidecars
            .get_mut(ingress)
            .expect("ingress sidecar");
        sc.on_inbound(&mut req, now);
        let request_id = req
            .headers
            .get(HDR_REQUEST_ID)
            .expect("minted by on_inbound")
            .to_string();
        if let Some(fr) = self.obs.flight_rec() {
            let trace = sc.inbound_ctx(&request_id).map(|c| c.trace.0).unwrap_or(0);
            fr.record_ingress(sc.name(), now, &request_id, trace);
        }
        self.ctx.stats.roots_started += 1;
        self.start_rpc(
            ingress,
            req,
            CompletionKey::Root {
                class: gr.class,
                intended_at: gr.intended_at,
                request_id,
            },
            now,
        );
    }

    // -----------------------------------------------------------------
    // RPC start / attempts
    // -----------------------------------------------------------------

    /// Start an RPC from `caller`'s sidecar. The request must already
    /// carry its `x-request-id`; this annotates provenance, routes, and
    /// launches attempt 0 (or fails fast).
    pub(crate) fn start_rpc(
        &mut self,
        caller: PodId,
        mut req: Request,
        completion: CompletionKey,
        now: SimTime,
    ) {
        self.ctx.stats.rpcs += 1;
        let sc = self.mesh.sidecars.get_mut(caller).expect("caller sidecar");
        // §4.3 step 2: copy priority/trace onto the child request.
        let annotated = sc.annotate_outbound(&mut req, now);
        // If the caller's inbound request is sampled, this RPC gets a
        // client span (recorded at completion) linking the caller's
        // server span to the callee's.
        let sampled = req
            .headers
            .get(HDR_REQUEST_ID)
            .and_then(|id| sc.inbound_ctx(id))
            .is_some_and(|ctx| ctx.sampled);
        let span = annotated
            .filter(|_| sampled)
            .map(|(trace, parent, id)| ClientSpanCtx {
                trace,
                id,
                parent,
                started: now,
            });
        let decision = self
            .mesh
            .route(caller, &req, &self.app.cluster, &self.net.fabric, now);
        let priority = request_priority(&req);
        let rpc_id = self.app.alloc_rpc();
        let mut rpc = Rpc {
            caller,
            cluster: req.authority.clone(),
            req,
            completion,
            priority,
            attempts: Vec::new(),
            pool_size: 0,
            started: now,
            span,
        };
        match decision {
            RouteOutcome::FailFast(status) => {
                self.app.rpcs.insert(rpc_id, rpc);
                self.complete_rpc(rpc_id, status, now);
            }
            RouteOutcome::Forward { pod, cluster } => {
                rpc.pool_size = self.app.cluster.endpoints(&cluster, None).len();
                let sc = self.mesh.sidecars.get(caller).expect("caller sidecar");
                let timeout = sc.timeout(&cluster);
                let hedge_after = sc.config().policy(&cluster).hedge_after;
                rpc.cluster = cluster;
                rpc.attempts.push(AttemptState {
                    pod,
                    sent: now,
                    done: false,
                });
                self.app.rpcs.insert(rpc_id, rpc);
                self.ctx
                    .queue
                    .push(now + timeout, Ev::RpcTimeout { rpc: rpc_id });
                if let Some(delay) = hedge_after {
                    self.ctx.queue.push(
                        now + delay,
                        Ev::HedgeFire {
                            rpc: rpc_id,
                            attempt: 0,
                        },
                    );
                }
                self.launch_attempt(rpc_id, 0, now);
            }
        }
    }

    /// Serialize attempt `idx`'s request onto the wire (after the
    /// caller-side sidecar overhead) and arm its per-try timer.
    fn launch_attempt(&mut self, rpc_id: u64, idx: u32, now: SimTime) {
        let rpc = self.app.rpcs.get(rpc_id).expect("rpc exists");
        let (caller, dst) = (rpc.caller, rpc.attempts[idx as usize].pod);
        let sc = self.mesh.sidecars.get_mut(caller).expect("caller sidecar");
        let (overhead, per_try) = (sc.overhead(), sc.per_try_timeout(&rpc.cluster));
        let class = self
            .mesh
            .policy
            .live
            .transport_class(rpc.priority, self.config.default_cc);
        let (conn, dir) =
            self.transport
                .conn_for(caller, dst, class, &self.app.cluster, &self.net.fabric);
        let msg = self.transport.alloc_msg();
        let req = rpc.req.clone();
        let wire = req.wire_size();
        if let Some(fr) = self.obs.flight_rec() {
            let rid = req.headers.get(HDR_REQUEST_ID).unwrap_or_default();
            fr.record_msg_bind(now, msg, conn, rpc_id, idx, 0, rid);
        }
        self.transport.msgs.insert(
            msg,
            MsgInFlight::Request {
                req,
                rpc: rpc_id,
                attempt: idx,
            },
        );
        let send_at = now + overhead + self.config.app_sidecar_delay;
        self.obs.prov.attempt_start(rpc_id, idx, now, send_at);
        self.ctx.queue.push(
            send_at,
            Ev::SendMsg {
                conn,
                dir,
                msg,
                bytes: wire,
            },
        );
        self.ctx.queue.push(
            send_at + per_try,
            Ev::PerTryTimeout {
                rpc: rpc_id,
                attempt: idx,
            },
        );
        if self.ctx.queue.far_len() >= self.app.far.next_at {
            self.app.compact_far_deadlines(&mut self.ctx.queue);
        }
    }

    // -----------------------------------------------------------------
    // Responses, timeouts, retries, hedges
    // -----------------------------------------------------------------

    /// Settle attempt `idx` with `outcome`, reporting to the caller's
    /// sidecar. Returns `false` if the attempt was already settled or the
    /// rpc is gone.
    fn settle_attempt(
        &mut self,
        rpc_id: u64,
        idx: u32,
        outcome: Result<StatusCode, AttemptFailure>,
        now: SimTime,
    ) -> bool {
        let Some(rpc) = self.app.rpcs.get_mut(rpc_id) else {
            return false;
        };
        let Some(att) = rpc.attempts.get_mut(idx as usize) else {
            return false;
        };
        if att.done {
            return false;
        }
        att.done = true;
        let latency = now.saturating_since(att.sent);
        let sc = self
            .mesh
            .sidecars
            .get_mut(rpc.caller)
            .expect("caller sidecar");
        sc.on_upstream_response(&rpc.cluster, att.pod, outcome, latency, rpc.pool_size, now);
        true
    }

    /// After a failed attempt settles: retry if allowed, else complete
    /// with `status` — but only once no live attempts remain.
    fn after_failure(
        &mut self,
        rpc_id: u64,
        failure: AttemptFailure,
        status: StatusCode,
        now: SimTime,
    ) {
        let rpc = self.app.rpcs.get(rpc_id).expect("rpc exists");
        if rpc.live_attempts() > 0 {
            // A concurrent (hedged) attempt may still succeed.
            return;
        }
        let tries = rpc.attempts.len() as u32;
        let sc = self
            .mesh
            .sidecars
            .get_mut(rpc.caller)
            .expect("caller sidecar");
        let backoff = sc.should_retry(
            &rpc.cluster,
            &rpc.req,
            tries.saturating_sub(1),
            failure,
            now,
        );
        match backoff {
            Some(b) => self.ctx.queue.push(now + b, Ev::RetryFire { rpc: rpc_id }),
            None => self.complete_rpc(rpc_id, status, now),
        }
    }

    pub(crate) fn on_attempt_response(
        &mut self,
        rpc_id: u64,
        attempt: u32,
        status: StatusCode,
        now: SimTime,
    ) {
        // Take this attempt's provenance before settling: on success it
        // becomes the RPC's breakdown; on failure its time is covered by
        // the completing attempt's RetryWait residual.
        let bd = self.obs.prov.take_attempt(rpc_id, attempt);
        if !self.settle_attempt(rpc_id, attempt, Ok(status), now) {
            return;
        }
        if status.is_server_error() {
            self.after_failure(rpc_id, AttemptFailure::Status(status), status, now);
        } else {
            self.complete_rpc_with(rpc_id, status, now, bd);
        }
    }

    pub(crate) fn on_per_try_timeout(&mut self, rpc_id: u64, attempt: u32, now: SimTime) {
        if !self.settle_attempt(rpc_id, attempt, Err(AttemptFailure::Timeout), now) {
            return;
        }
        self.ctx.stats.attempt_timeouts += 1;
        self.after_failure(
            rpc_id,
            AttemptFailure::Timeout,
            StatusCode::GATEWAY_TIMEOUT,
            now,
        );
    }

    pub(crate) fn on_rpc_timeout(&mut self, rpc_id: u64, now: SimTime) {
        let Some(rpc) = self.app.rpcs.get(rpc_id) else {
            return;
        };
        // Settle every live attempt so breaker/outstanding pairing holds
        // (settling a done one is a no-op).
        for idx in 0..rpc.attempts.len() as u32 {
            self.settle_attempt(rpc_id, idx, Err(AttemptFailure::Timeout), now);
        }
        self.complete_rpc(rpc_id, StatusCode::GATEWAY_TIMEOUT, now);
    }

    /// Route the RPC again for a retry or a hedge and launch the new
    /// attempt; the status it fails fast with, if routing refuses.
    fn relaunch(&mut self, rpc_id: u64, now: SimTime) -> Option<StatusCode> {
        let rpc = self.app.rpcs.get(rpc_id).expect("rpc exists");
        let decision = self.mesh.route(
            rpc.caller,
            &rpc.req,
            &self.app.cluster,
            &self.net.fabric,
            now,
        );
        let pod = match decision {
            RouteOutcome::FailFast(status) => return Some(status),
            RouteOutcome::Forward { pod, .. } => pod,
        };
        let rpc = self.app.rpcs.get_mut(rpc_id).expect("rpc exists");
        rpc.attempts.push(AttemptState {
            pod,
            sent: now,
            done: false,
        });
        let idx = rpc.attempts.len() as u32 - 1;
        self.launch_attempt(rpc_id, idx, now);
        None
    }

    pub(crate) fn on_retry_fire(&mut self, rpc_id: u64, now: SimTime) {
        if !self.app.rpcs.contains(rpc_id) {
            return;
        }
        if let Some(status) = self.relaunch(rpc_id, now) {
            self.complete_rpc(rpc_id, status, now);
        }
    }

    /// The hedge delay elapsed: if the watched attempt is still pending
    /// and nothing newer has been launched, issue a redundant attempt.
    /// Hedging is best-effort: if routing fails fast, the original
    /// attempt stands.
    pub(crate) fn on_hedge_fire(&mut self, rpc_id: u64, attempt: u32, now: SimTime) {
        let Some(rpc) = self.app.rpcs.get(rpc_id) else {
            return;
        };
        if rpc.attempts.len() != attempt as usize + 1 || rpc.attempts[attempt as usize].done {
            return;
        }
        if self.relaunch(rpc_id, now).is_none() {
            self.ctx.stats.hedges += 1;
        }
    }

    // -----------------------------------------------------------------
    // Completion
    // -----------------------------------------------------------------

    /// Finish an RPC and notify its completion target (no winning
    /// attempt breakdown: failures and fail-fast paths).
    pub(crate) fn complete_rpc(&mut self, rpc_id: u64, status: StatusCode, now: SimTime) {
        self.complete_rpc_with(rpc_id, status, now, None);
    }

    /// Finish an RPC and notify its completion target. `attempt_bd` is
    /// the winning attempt's latency attribution (when one exists); the
    /// gap between it and the RPC's full span — backoff waits, attempts
    /// that lost — is charged to [`Layer::RetryWait`], keeping the
    /// decomposition exact.
    pub(crate) fn complete_rpc_with(
        &mut self,
        rpc_id: u64,
        status: StatusCode,
        now: SimTime,
        attempt_bd: Option<Breakdown>,
    ) {
        let rpc = self.app.rpcs.remove(rpc_id).expect("rpc exists");
        // RPC-level breakdown: winning attempt + residual -> RetryWait.
        let mut bd = attempt_bd.unwrap_or_default();
        let span_ns = now.saturating_since(rpc.started).as_nanos();
        bd.add_ns(Layer::RetryWait, span_ns.saturating_sub(bd.sum()));
        // Settle any still-live attempts (e.g. the losing hedge) so the
        // sidecar's outstanding/breaker accounting stays balanced; their
        // late responses find the rpc gone.
        let sc = self
            .mesh
            .sidecars
            .get_mut(rpc.caller)
            .expect("caller sidecar");
        for a in rpc.attempts.iter().filter(|a| !a.done) {
            sc.on_attempt_cancelled(&rpc.cluster, a.pod, now);
        }
        // If the RPC belongs to a sampled trace, emit its client span —
        // the link the callee's server span parents onto.
        self.obs.prov.drop_rpc(rpc_id, rpc.attempts.len() as u32);
        if let Some(cs) = rpc.span {
            let span = sc.client_span(
                (cs.trace, cs.parent, cs.id),
                &rpc.cluster,
                cs.started,
                now,
                status,
            );
            self.obs.tracer.record(span);
        }
        match rpc.completion {
            CompletionKey::Root {
                class,
                intended_at,
                request_id,
            } => {
                if let Some(fr) = self.obs.flight_rec() {
                    fr.record_root_done(
                        sc.name(),
                        now,
                        &request_id,
                        status,
                        now.saturating_since(intended_at).as_nanos(),
                    );
                }
                if status.is_success() {
                    self.ctx.stats.roots_ok += 1;
                } else {
                    self.ctx.stats.roots_failed += 1;
                }
                let ok = status.is_success().then_some(bd);
                self.obs
                    .on_root_done(class, &request_id, intended_at, now, ok);
                // The gateway's own span is the trace root.
                if let Some(ctx) = sc.inbound_ctx(&request_id).filter(|c| c.sampled) {
                    let span = sc.server_span(ctx, ctx.parent, intended_at, now, status);
                    self.obs.tracer.record(span);
                }
                sc.end_inbound(&request_id);
            }
            CompletionKey::Exec { exec, token } => {
                if !status.is_success() {
                    if let Some(e) = self.app.execs.get_mut(exec) {
                        e.failed = Some(status);
                    }
                }
                self.complete_token(exec, token, now, bd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{RunMetrics, Simulation, TopoMix, TopoParams};
    use meshlayer_simcore::SimDuration;

    /// The three kinds compaction may drop.
    const DEADLINES: [&str; 3] = ["HedgeFire", "PerTryTimeout", "RpcTimeout"];

    /// A 52-pod fabric with deadlines short enough (and hedging on) that
    /// thousands of all three kinds come due inside the run, nearly all of
    /// them dead by then and some not: a few dozen hedges fire.
    fn run(compact: bool) -> RunMetrics {
        let mut p = TopoParams::sized(50, 2000.0);
        p.mix = TopoMix::BackgroundPacket;
        let mut spec = p.spec();
        spec.config.duration = SimDuration::from_millis(1_500);
        spec.config.warmup = SimDuration::from_millis(250);
        spec.config.cooldown = SimDuration::from_millis(250);
        let policy = &mut spec.mesh.default_policy;
        policy.timeout = SimDuration::from_millis(400);
        policy.per_try_timeout = SimDuration::from_millis(200);
        policy.hedge_after = Some(SimDuration::from_millis(12));
        let mut sim = Simulation::build(spec);
        if !compact {
            sim.app.far.next_at = usize::MAX;
        }
        sim.run()
    }

    /// What a run reports once the engine's own accounting is set aside:
    /// event totals, the self-metrics, host time, and the counts of the
    /// three deadline kinds.
    fn model_json(mut m: RunMetrics) -> String {
        m.events = 0;
        m.events_popped = 0;
        m.wall_ns = 0;
        m.engine = Default::default();
        m.event_profile
            .retain(|p| !DEADLINES.contains(&p.event.as_str()));
        serde_json::to_string(&m).expect("metrics serialize")
    }

    /// Leg 3's contract: compaction drops only events whose handler would
    /// have done nothing, so a run with it and a run without it differ in
    /// how many events they popped and in nothing else.
    #[test]
    fn compaction_changes_event_counts_and_nothing_else() {
        let (on, off) = (run(true), run(false));
        assert_eq!(off.engine.compactions, 0);
        assert!(on.engine.compactions >= 4, "{:?}", on.engine);
        assert_eq!(on.events_pushed, off.events_pushed);
        // Every dropped entry would have popped as a no-op before the run
        // ended, or would still be pending at its end.
        let popped_less = off.events - on.events;
        let pending_less = (off.engine.pending_at_end - on.engine.pending_at_end) as u64;
        assert!(popped_less > 1_000, "deadlines came due: {popped_less}");
        assert_eq!(on.engine.compacted_events, popped_less + pending_less);
        let deadlines = |m: &RunMetrics| -> u64 {
            let of = |p: &&crate::EvProfile| DEADLINES.contains(&p.event.as_str());
            m.event_profile.iter().filter(of).map(|p| p.count).sum()
        };
        assert_eq!(deadlines(&off) - deadlines(&on), popped_less);
        // The live ones still fired.
        assert!(on.world.hedges > 0 && on.world.hedges == off.world.hedges);
        assert_eq!(model_json(on), model_json(off));
    }
}
