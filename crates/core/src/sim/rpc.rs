//! RPC lifecycle: routing, attempts (retries + hedges), timeouts,
//! completion.

use super::{AttemptState, ClientSpanCtx, CompletionKey, Ev, MsgInFlight, Rpc, Simulation};
use crate::provenance::request_priority;
use meshlayer_http::{Request, StatusCode, HDR_REQUEST_ID};
use meshlayer_mesh::{AttemptFailure, RouteOutcome};
use meshlayer_prof::{Breakdown, Layer, RequestProv};
use meshlayer_simcore::SimTime;

/// The far heap is not compacted below this many events: scanning a
/// heap this small would cost more than it frees.
const FAR_COMPACT_FLOOR: usize = 4096;

/// Compaction of the queue's far heap (see
/// `Simulation::compact_far_deadlines`).
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

impl Simulation {
    // -----------------------------------------------------------------
    // Arrivals (root requests)
    // -----------------------------------------------------------------

    pub(crate) fn on_arrival(&mut self, gen: usize, now: SimTime) {
        let gr = self.gens[gen].emit();
        // Schedule the next arrival of this generator.
        let next = self.gens[gen].next_at();
        if next < self.end_at {
            self.push_ev(next, Ev::Arrival { gen });
        }
        let mut req = gr.request;
        // §4.3 step 1: classify at the ingress and stamp the header.
        if self.policy.live.classify {
            let classifier = self.spec.classifier.clone();
            classifier.stamp(&mut req);
        }
        // The ingress sidecar mints x-request-id and records provenance.
        let ingress = self.ingress_pod;
        {
            let sc = self.sidecars.get_mut(ingress).expect("ingress sidecar");
            sc.on_inbound(&mut req, now);
        }
        let request_id = req
            .headers
            .get(HDR_REQUEST_ID)
            .expect("minted by on_inbound")
            .to_string();
        if let Some(fr) = self.flight_rec() {
            let sc = self.sidecars.get(ingress).expect("ingress sidecar");
            let trace = sc.inbound_ctx(&request_id).map(|c| c.trace.0).unwrap_or(0);
            fr.record_ingress(sc.name(), now, &request_id, trace);
        }
        self.stats.roots_started += 1;
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
        caller: meshlayer_cluster::PodId,
        mut req: Request,
        completion: CompletionKey,
        now: SimTime,
    ) {
        self.stats.rpcs += 1;
        let (decision, client_span) = {
            let cluster = &self.cluster;
            let fabric = &self.fabric;
            let sdn = &self.sdn;
            let sdn_lb = self.policy.live.sdn_lb;
            let subsets = &self.subsets;
            let sc = self.sidecars.get_mut(caller).expect("caller sidecar");
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
            let client_span =
                annotated
                    .filter(|_| sampled)
                    .map(|(trace, parent, id)| ClientSpanCtx {
                        trace,
                        id,
                        parent,
                        started: now,
                    });
            let decision = sc.route_outbound(
                &req,
                &|c, s| {
                    // Discovery-time endpoint subsetting (§ subset.rs)
                    // narrows the pool before SDN congestion filtering,
                    // mirroring xDS: the client never learns endpoints
                    // outside its subset.
                    let eps = subsets.filter(caller, c, cluster.endpoints(c, s));
                    if sdn_lb {
                        sdn.uncongested(fabric, &eps)
                    } else {
                        eps
                    }
                },
                now,
            );
            (decision, client_span)
        };
        let priority = request_priority(&req);
        let rpc_id = self.alloc_rpc();
        match decision {
            RouteOutcome::FailFast(status) => {
                self.rpcs.insert(
                    rpc_id,
                    Rpc {
                        caller,
                        cluster: req.authority.clone(),
                        req,
                        completion,
                        priority,
                        attempts: Vec::new(),
                        pool_size: 0,
                        completed: false,
                        started: now,
                        span: client_span,
                    },
                );
                self.complete_rpc(rpc_id, status, now);
            }
            RouteOutcome::Forward { pod, cluster } => {
                let pool_size = self.cluster.endpoints(&cluster, None).len();
                let (timeout, hedge_after) = {
                    let sc = self.sidecars.get(caller).expect("caller sidecar");
                    (
                        sc.timeout(&cluster),
                        sc.config().policy(&cluster).hedge_after,
                    )
                };
                self.rpcs.insert(
                    rpc_id,
                    Rpc {
                        caller,
                        cluster,
                        req,
                        completion,
                        priority,
                        attempts: vec![AttemptState {
                            pod,
                            sent: now,
                            done: false,
                        }],
                        pool_size,
                        completed: false,
                        started: now,
                        span: client_span,
                    },
                );
                self.push_ev(now + timeout, Ev::RpcTimeout { rpc: rpc_id });
                if let Some(delay) = hedge_after {
                    self.push_ev(
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
        let (caller, dst, priority, wire, cluster) = {
            let rpc = self.rpcs.get(rpc_id).expect("rpc exists");
            (
                rpc.caller,
                rpc.attempts[idx as usize].pod,
                rpc.priority,
                rpc.req.wire_size(),
                rpc.cluster.clone(),
            )
        };
        let (overhead, per_try) = {
            let sc = self.sidecars.get_mut(caller).expect("caller sidecar");
            (sc.overhead(), sc.per_try_timeout(&cluster))
        };
        let (conn, dir) = self.conn_for(caller, dst, priority);
        let msg = self.alloc_msg();
        let req = self.rpcs.get(rpc_id).expect("rpc exists").req.clone();
        if let Some(fr) = self.flight_rec() {
            let rid = req.headers.get(HDR_REQUEST_ID).unwrap_or_default();
            fr.record_msg_bind(now, msg, conn, rpc_id, idx, 0, rid);
        }
        self.msg_store.insert(
            msg,
            MsgInFlight::Request {
                req,
                rpc: rpc_id,
                attempt: idx,
            },
        );
        let send_at = now + overhead + self.spec.config.app_sidecar_delay;
        self.prov_attempt_start(rpc_id, idx, now, send_at);
        self.push_ev(
            send_at,
            Ev::SendMsg {
                conn,
                dir,
                msg,
                bytes: wire,
            },
        );
        self.push_ev(
            send_at + per_try,
            Ev::PerTryTimeout {
                rpc: rpc_id,
                attempt: idx,
            },
        );
        if self.queue.far_len() >= self.far.next_at {
            self.compact_far_deadlines();
        }
    }

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
    fn compact_far_deadlines(&mut self) {
        let rpcs = &self.rpcs;
        let dropped = self.queue.retain_far(|ev| match ev {
            Ev::RpcTimeout { rpc } => rpcs.contains(*rpc),
            Ev::PerTryTimeout { rpc, attempt } | Ev::HedgeFire { rpc, attempt } => rpcs
                .get(*rpc)
                .is_some_and(|r| r.attempts.get(*attempt as usize).is_none_or(|a| !a.done)),
            _ => true,
        });
        self.far.runs += 1;
        self.far.dropped += dropped as u64;
        self.far.next_at = (2 * self.queue.far_len()).max(FAR_COMPACT_FLOOR);
    }

    // -----------------------------------------------------------------
    // Responses, timeouts, retries, hedges
    // -----------------------------------------------------------------

    /// Settle attempt `idx` with `outcome`, reporting to the caller's
    /// sidecar. Returns `false` if the attempt was already settled or the
    /// rpc is gone/completed.
    fn settle_attempt(
        &mut self,
        rpc_id: u64,
        idx: u32,
        outcome: Result<StatusCode, AttemptFailure>,
        now: SimTime,
    ) -> bool {
        let Some(rpc) = self.rpcs.get_mut(rpc_id) else {
            return false;
        };
        if rpc.completed {
            return false;
        }
        let Some(att) = rpc.attempts.get_mut(idx as usize) else {
            return false;
        };
        if att.done {
            return false;
        }
        att.done = true;
        let latency = now.saturating_since(att.sent);
        let (caller, cluster, pod, pool) =
            (rpc.caller, rpc.cluster.clone(), att.pod, rpc.pool_size);
        let sc = self.sidecars.get_mut(caller).expect("caller sidecar");
        sc.on_upstream_response(&cluster, pod, outcome, latency, pool, now);
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
        let (live, caller, cluster, req, tries) = {
            let rpc = self.rpcs.get(rpc_id).expect("rpc exists");
            (
                rpc.live_attempts(),
                rpc.caller,
                rpc.cluster.clone(),
                rpc.req.clone(),
                rpc.attempts.len() as u32,
            )
        };
        if live > 0 {
            // A concurrent (hedged) attempt may still succeed.
            return;
        }
        let backoff = {
            let sc = self.sidecars.get_mut(caller).expect("caller sidecar");
            sc.should_retry(&cluster, &req, tries.saturating_sub(1), failure, now)
        };
        match backoff {
            Some(b) => self.push_ev(now + b, Ev::RetryFire { rpc: rpc_id }),
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
        let bd = self.prov_take_attempt(rpc_id, attempt);
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
        self.stats.attempt_timeouts += 1;
        self.after_failure(
            rpc_id,
            AttemptFailure::Timeout,
            StatusCode::GATEWAY_TIMEOUT,
            now,
        );
    }

    pub(crate) fn on_rpc_timeout(&mut self, rpc_id: u64, now: SimTime) {
        let Some(rpc) = self.rpcs.get(rpc_id) else {
            return;
        };
        if rpc.completed {
            return;
        }
        // Settle every live attempt so breaker/outstanding pairing holds.
        let live: Vec<u32> = rpc
            .attempts
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.done)
            .map(|(i, _)| i as u32)
            .collect();
        for idx in live {
            self.settle_attempt(rpc_id, idx, Err(AttemptFailure::Timeout), now);
        }
        self.complete_rpc(rpc_id, StatusCode::GATEWAY_TIMEOUT, now);
    }

    pub(crate) fn on_retry_fire(&mut self, rpc_id: u64, now: SimTime) {
        let Some(rpc) = self.rpcs.get(rpc_id) else {
            return;
        };
        if rpc.completed {
            return;
        }
        let (caller, req) = (rpc.caller, rpc.req.clone());
        let decision = self.route_again(caller, &req, now);
        match decision {
            RouteOutcome::FailFast(status) => {
                self.complete_rpc(rpc_id, status, now);
            }
            RouteOutcome::Forward { pod, .. } => {
                let rpc = self.rpcs.get_mut(rpc_id).expect("rpc exists");
                rpc.attempts.push(AttemptState {
                    pod,
                    sent: now,
                    done: false,
                });
                let idx = rpc.attempts.len() as u32 - 1;
                self.launch_attempt(rpc_id, idx, now);
            }
        }
    }

    /// Re-run outbound routing for a retry or hedge attempt.
    fn route_again(
        &mut self,
        caller: meshlayer_cluster::PodId,
        req: &Request,
        now: SimTime,
    ) -> RouteOutcome {
        let cluster = &self.cluster;
        let fabric = &self.fabric;
        let sdn = &self.sdn;
        let sdn_lb = self.policy.live.sdn_lb;
        let subsets = &self.subsets;
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

    /// The hedge delay elapsed: if the watched attempt is still pending
    /// and nothing newer has been launched, issue a redundant attempt.
    pub(crate) fn on_hedge_fire(&mut self, rpc_id: u64, attempt: u32, now: SimTime) {
        let Some(rpc) = self.rpcs.get(rpc_id) else {
            return;
        };
        if rpc.completed
            || rpc.attempts.len() != attempt as usize + 1
            || rpc.attempts[attempt as usize].done
        {
            return;
        }
        let (caller, req) = (rpc.caller, rpc.req.clone());
        let decision = self.route_again(caller, &req, now);
        if let RouteOutcome::Forward { pod, .. } = decision {
            self.stats.hedges += 1;
            let rpc = self.rpcs.get_mut(rpc_id).expect("rpc exists");
            rpc.attempts.push(AttemptState {
                pod,
                sent: now,
                done: false,
            });
            let idx = rpc.attempts.len() as u32 - 1;
            self.launch_attempt(rpc_id, idx, now);
        }
        // FailFast: hedging is best-effort; the original attempt stands.
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
        let rpc = self.rpcs.get_mut(rpc_id).expect("rpc exists");
        if rpc.completed {
            return;
        }
        rpc.completed = true;
        let completion = rpc.completion.clone();
        let caller = rpc.caller;
        let cluster_name = rpc.cluster.clone();
        let attempt_count = rpc.attempts.len() as u32;
        // RPC-level breakdown: winning attempt + residual -> RetryWait.
        let mut bd = attempt_bd.unwrap_or_default();
        let span_ns = now.saturating_since(rpc.started).as_nanos();
        bd.add_ns(Layer::RetryWait, span_ns.saturating_sub(bd.sum()));
        // Settle any still-live attempts (e.g. the losing hedge) so the
        // sidecar's outstanding/breaker accounting stays balanced; their
        // late responses are dropped by `settle_attempt`'s done check.
        let live: Vec<(meshlayer_cluster::PodId, SimTime)> = rpc
            .attempts
            .iter_mut()
            .filter(|a| !a.done)
            .map(|a| {
                a.done = true;
                (a.pod, a.sent)
            })
            .collect();
        if !live.is_empty() {
            let cluster = rpc.cluster.clone();
            let sc = self.sidecars.get_mut(caller).expect("caller sidecar");
            for (pod, _sent) in live {
                sc.on_attempt_cancelled(&cluster, pod, now);
            }
        }
        // Drop the rpc record; everything needed is local now. If the RPC
        // belongs to a sampled trace, emit its client span — the link the
        // callee's server span parents onto.
        self.prov_drop_rpc(rpc_id, attempt_count);
        let finished = self.rpcs.remove(rpc_id);
        if let Some(cs) = finished.and_then(|r| r.span) {
            let sc = self.sidecars.get(caller).expect("caller sidecar");
            let span = sc.client_span(
                (cs.trace, cs.parent, cs.id),
                &cluster_name,
                cs.started,
                now,
                status,
            );
            self.tracer.record(span);
        }
        match completion {
            CompletionKey::Root {
                class,
                intended_at,
                request_id,
            } => {
                if let Some(fr) = self.flight_rec() {
                    let sc = self.sidecars.get(caller).expect("ingress sidecar");
                    fr.record_root_done(
                        sc.name(),
                        now,
                        &request_id,
                        status,
                        now.saturating_since(intended_at).as_nanos(),
                    );
                }
                if status.is_success() {
                    self.stats.roots_ok += 1;
                    self.recorder.record_ok(&class, intended_at, now);
                    self.telemetry.observe_latency(
                        &class,
                        now,
                        Some(now.saturating_since(intended_at)),
                    );
                    // Provenance record: the breakdown must sum exactly
                    // to the recorder's end-to-end latency, so any gap
                    // between the RPC span and the full e2e window
                    // (normally zero) also lands in RetryWait.
                    let total_ns = now.saturating_since(intended_at).as_nanos();
                    let mut bd = bd;
                    bd.add_ns(Layer::RetryWait, total_ns.saturating_sub(bd.sum()));
                    self.prov.record_root(RequestProv {
                        request_id: request_id.clone(),
                        class: class.clone(),
                        intended_ns: intended_at.as_nanos(),
                        completed_ns: now.as_nanos(),
                        total_ns,
                        breakdown: bd,
                    });
                } else {
                    self.stats.roots_failed += 1;
                    self.recorder.record_failure(&class, intended_at);
                    self.telemetry.observe_latency(&class, now, None);
                }
                let sc = self.sidecars.get_mut(caller).expect("ingress sidecar");
                // The gateway's own span is the trace root.
                if let Some(ctx) = sc.inbound_ctx(&request_id).cloned() {
                    if ctx.sampled {
                        let span = sc.server_span(&ctx, ctx.parent, intended_at, now, status);
                        self.tracer.record(span);
                    }
                }
                sc.end_inbound(&request_id);
            }
            CompletionKey::Exec { exec, token } => {
                if !status.is_success() {
                    if let Some(e) = self.execs.get_mut(exec) {
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
            sim.far.next_at = usize::MAX;
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
