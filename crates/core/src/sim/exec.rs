//! App-side execution: interpreting behaviour trees per inbound request.

use super::engine::Ctx;
use super::{
    AppPlane, CompletionKey, ComputeJob, Cont, Ev, Exec, MsgInFlight, Simulation, ROOT_TOKEN,
};
use crate::provenance::Priority;
use meshlayer_cluster::{Admission, CallStep, PodId};
use meshlayer_http::{
    Request, Response, StatusCode, HDR_B3_TRACE_ID, HDR_PRIORITY, HDR_REQUEST_ID,
};
use meshlayer_prof::{Breakdown, Layer};
use meshlayer_simcore::SimTime;
use std::collections::VecDeque;

impl Simulation {
    /// A fully reassembled request reached `pod`'s sidecar.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_request_delivered(
        &mut self,
        mut req: Request,
        rpc: u64,
        attempt: u32,
        pod: PodId,
        conn: u64,
        dir: u8,
        now: SimTime,
    ) {
        // Provenance: the request's wire crossing ends here. The sender
        // is the other end of the delivering connection pair.
        let (_, sender_pod) = self.transport.pods_of(conn, dir);
        self.obs.prov.request_wire(
            &self.net.fabric,
            (rpc, attempt),
            (sender_pod, pod),
            req.wire_size(),
            now,
        );
        let sc = self.mesh.sidecars.get_mut(pod).expect("server sidecar");
        let ctx = sc.on_inbound(&mut req, now);
        let overhead = sc.overhead();
        // Sample the response size up front (deterministic per request).
        // No handler: respond 404 immediately (still pays overhead).
        let service = self.app.service_of(pod);
        let response_bytes = self.app.cluster.behavior(service, &req.path).map(|b| {
            let mut rng = self.ctx.rng.split_idx("resp", self.ctx.stats.rpcs ^ rpc);
            b.response_bytes.sample_bytes(&mut rng)
        });
        let exec_id = self.app.alloc_exec();
        self.app.execs.insert(
            exec_id,
            Exec {
                pod,
                req,
                ctx,
                started: now,
                response_bytes: response_bytes.unwrap_or(0),
                failed: response_bytes.is_none().then_some(StatusCode::NOT_FOUND),
                conts: Default::default(),
                bd: Breakdown::ZERO,
                reply_conn: conn,
                reply_dir: dir,
                rpc,
                attempt,
            },
        );
        if response_bytes.is_none() {
            self.finish_exec(exec_id, now + overhead);
        } else {
            let at = now + overhead + self.config.app_sidecar_delay;
            self.ctx.queue.push(at, Ev::ExecStart { exec: exec_id });
        }
    }

    /// Begin interpreting the behaviour tree.
    pub(crate) fn on_exec_start(&mut self, exec_id: u64, now: SimTime) {
        let Some(e) = self.app.execs.get(exec_id) else {
            return;
        };
        // Chaos plane: a crashed pod refuses the request outright —
        // connection refused surfaces as an instant 503 that consumes no
        // compute. Discovery still advertises the pod, so the caller's
        // outlier detector has to notice the 5xx stream and eject it.
        let pod = self.app.cluster.pod(e.pod);
        if !pod.up {
            if let Some(e) = self.app.execs.get_mut(exec_id) {
                e.failed = Some(StatusCode::UNAVAILABLE);
            }
            self.finish_exec(exec_id, now);
            return;
        }
        // Fault injection: a failing pod 500s before running its handler.
        if pod.failure_rate > 0.0 {
            let mut rng = self.ctx.rng.split_idx("fault", exec_id);
            if rng.chance(pod.failure_rate) {
                if let Some(e) = self.app.execs.get_mut(exec_id) {
                    e.failed = Some(StatusCode::INTERNAL);
                }
                self.finish_exec(exec_id, now);
                return;
            }
        }
        let service = self.app.service_of(e.pod);
        let step = self
            .app
            .cluster
            .behavior(service, &e.req.path)
            .map(|b| b.on_request.clone());
        match step {
            Some(step) => self.start_step(exec_id, step, ROOT_TOKEN, now),
            None => self.finish_exec(exec_id, now),
        }
    }

    /// Launch one step of the tree; completion flows to `parent` token.
    pub(crate) fn start_step(&mut self, exec_id: u64, step: CallStep, parent: u64, now: SimTime) {
        if !self.app.execs.contains(exec_id) {
            return;
        }
        match step {
            CallStep::Noop => self.complete_token(exec_id, parent, now, Breakdown::ZERO),
            CallStep::Compute(dist) => {
                let token = self.app.alloc_token();
                let e = self.app.execs.get(exec_id).expect("exec exists");
                let pod = e.pod;
                let high = e.ctx.priority.as_deref() == Some(Priority::High.header_value());
                self.app.compute_jobs.insert(
                    token,
                    ComputeJob {
                        exec: exec_id,
                        parent,
                        dist,
                        offered_at: now,
                        run_started: now,
                    },
                );
                match self.app.cluster.pod_mut(pod).compute.offer(token, high) {
                    Admission::Start => self.app.schedule_compute(pod, token, now, &mut self.ctx),
                    Admission::Queued => {}
                    Admission::Rejected => {
                        self.ctx.stats.compute_rejections += 1;
                        self.app.compute_jobs.remove(token);
                        if let Some(e) = self.app.execs.get_mut(exec_id) {
                            e.failed = Some(StatusCode::UNAVAILABLE);
                        }
                        self.complete_token(exec_id, parent, now, Breakdown::ZERO);
                    }
                }
            }
            CallStep::Call {
                service,
                path,
                req_bytes,
            } => {
                let e = self.app.execs.get(exec_id).expect("exec exists");
                let pod = e.pod;
                let request_id = e.req.headers.get(HDR_REQUEST_ID).unwrap_or_default();
                let request_id = request_id.to_string();
                let mut rng = self.ctx.rng.split_idx("reqsize", self.ctx.stats.rpcs);
                let body = req_bytes.sample_bytes(&mut rng);
                // Footnote 3: the *application* copies x-request-id onto
                // children; priority/trace are added by the sidecar in
                // start_rpc via annotate_outbound.
                let child = Request {
                    method: meshlayer_http::Method::Get,
                    path,
                    authority: service,
                    headers: meshlayer_http::HeaderMap::new(),
                    body_len: body,
                }
                .with_header(HDR_REQUEST_ID, request_id);
                self.start_rpc(
                    pod,
                    child,
                    CompletionKey::Exec {
                        exec: exec_id,
                        token: parent,
                    },
                    now,
                );
            }
            CallStep::Seq(mut steps) => {
                if steps.is_empty() {
                    self.complete_token(exec_id, parent, now, Breakdown::ZERO);
                    return;
                }
                let token = self.app.alloc_token();
                let first = steps.remove(0);
                let e = self.app.execs.get_mut(exec_id).expect("exec exists");
                e.conts.insert(
                    token,
                    Cont::Seq {
                        rest: VecDeque::from(steps),
                        parent,
                        acc: Breakdown::ZERO,
                    },
                );
                self.start_step(exec_id, first, token, now);
            }
            CallStep::Par(steps) => {
                if steps.is_empty() {
                    self.complete_token(exec_id, parent, now, Breakdown::ZERO);
                    return;
                }
                let token = self.app.alloc_token();
                let e = self.app.execs.get_mut(exec_id).expect("exec exists");
                e.conts.insert(
                    token,
                    Cont::Par {
                        remaining: steps.len(),
                        parent,
                    },
                );
                for s in steps {
                    self.start_step(exec_id, s, token, now);
                }
            }
        }
    }

    /// One child of `token` completed, carrying its latency attribution.
    ///
    /// Breakdown composition mirrors the tree's timing structure:
    /// sequential children are contiguous, so a `Seq` *accumulates*; the
    /// children of a `Par` all start together, so the completion that
    /// closes the join — processed at the join's end time — spans the
    /// whole window by itself and *replaces* its siblings' breakdowns.
    /// Either way the resulting sum equals the node's elapsed sim time.
    pub(crate) fn complete_token(&mut self, exec_id: u64, token: u64, now: SimTime, bd: Breakdown) {
        if !self.app.execs.contains(exec_id) {
            return;
        }
        if token == ROOT_TOKEN {
            if let Some(e) = self.app.execs.get_mut(exec_id) {
                e.bd.add(&bd);
            }
            self.finish_exec(exec_id, now);
            return;
        }
        let e = self.app.execs.get_mut(exec_id).expect("exec exists");
        let cont = e.conts.remove(&token);
        match cont {
            Some(Cont::Seq {
                mut rest,
                parent,
                mut acc,
            }) => {
                acc.add(&bd);
                match rest.pop_front() {
                    Some(next) => {
                        let e = self.app.execs.get_mut(exec_id).expect("exec exists");
                        e.conts.insert(token, Cont::Seq { rest, parent, acc });
                        self.start_step(exec_id, next, token, now);
                    }
                    None => self.complete_token(exec_id, parent, now, acc),
                }
            }
            Some(Cont::Par { remaining, parent }) => {
                if remaining <= 1 {
                    self.complete_token(exec_id, parent, now, bd);
                } else {
                    let e = self.app.execs.get_mut(exec_id).expect("exec exists");
                    e.conts.insert(
                        token,
                        Cont::Par {
                            remaining: remaining - 1,
                            parent,
                        },
                    );
                }
            }
            None => {
                debug_assert!(false, "completion for unknown token {token}");
            }
        }
    }

    pub(crate) fn on_compute_done(&mut self, pod: PodId, token: u64, now: SimTime) {
        if let Some(job) = self.app.compute_jobs.remove(token) {
            let mut bd = Breakdown::ZERO;
            bd.add_ns(
                Layer::ComputeQueue,
                job.run_started.saturating_since(job.offered_at).as_nanos(),
            );
            bd.add_ns(Layer::App, now.saturating_since(job.run_started).as_nanos());
            self.complete_token(job.exec, job.parent, now, bd);
        }
        // Start the next queued job, if any.
        if let Some(next) = self.app.cluster.pod_mut(pod).compute.on_complete() {
            self.app.schedule_compute(pod, next, now, &mut self.ctx);
        }
    }

    // -----------------------------------------------------------------
    // Responding
    // -----------------------------------------------------------------

    /// The behaviour tree finished (or failed): emit the response back
    /// over the connection the request arrived on.
    pub(crate) fn finish_exec(&mut self, exec_id: u64, now: SimTime) {
        let Some(e) = self.app.execs.remove(exec_id) else {
            return;
        };
        let status = e.failed.unwrap_or(StatusCode::OK);
        let request_id = e
            .req
            .headers
            .get(HDR_REQUEST_ID)
            .unwrap_or_default()
            .to_string();
        // Server span + provenance cleanup.
        let sc = self.mesh.sidecars.get_mut(e.pod).expect("server sidecar");
        if e.ctx.sampled {
            let span = sc.server_span(&e.ctx, e.ctx.parent, e.started, now, status);
            self.obs.tracer.record(span);
        }
        sc.end_inbound(&request_id);
        let overhead = sc.overhead();
        let mut resp = Response {
            status,
            headers: meshlayer_http::HeaderMap::new(),
            body_len: if status.is_success() {
                e.response_bytes
            } else {
                0
            },
        };
        resp.headers.set(HDR_REQUEST_ID, request_id);
        if let Some(p) = &e.ctx.priority {
            resp.headers.set(HDR_PRIORITY, p.as_ref());
        }
        resp.headers.set(HDR_B3_TRACE_ID, e.ctx.trace.0.to_string());
        let wire = resp.wire_size();
        let msg = self.transport.alloc_msg();
        if let Some(fr) = self.obs.flight_rec() {
            let rid = resp.headers.get(HDR_REQUEST_ID).unwrap_or_default();
            fr.record_msg_bind(now, msg, e.reply_conn, e.rpc, e.attempt, 1, rid);
        }
        let at = now + overhead + self.config.app_sidecar_delay;
        let window = at.saturating_since(e.started);
        self.obs.observe_pod_latency(
            &self.app.cluster,
            e.pod,
            self.app.service_of(e.pod),
            window,
            !status.is_success(),
        );
        // Whatever part of the server window the behaviour tree does not
        // account for (inbound/outbound sidecar work, localhost hops) is
        // the server sidecar's share — keeping the window sum exact.
        let mut server = e.bd;
        server.add_ns(
            Layer::SidecarServer,
            window.as_nanos().saturating_sub(server.sum()),
        );
        self.transport.msgs.insert(
            msg,
            MsgInFlight::Response {
                resp,
                rpc: e.rpc,
                attempt: e.attempt,
                sent_at: at,
                server,
            },
        );
        self.ctx.queue.push(
            at,
            Ev::SendMsg {
                conn: e.reply_conn,
                dir: e.reply_dir,
                msg,
                bytes: wire,
            },
        );
    }
}

impl AppPlane {
    /// Sample a just-started job's service time and schedule completion.
    fn schedule_compute(&mut self, pod: PodId, token: u64, now: SimTime, ctx: &mut Ctx) {
        let job = self.compute_jobs.get_mut(token).expect("job exists");
        job.run_started = now;
        let mut rng = ctx.rng.split_idx("svc", token);
        // Slow replicas stretch their service times (straggler modelling).
        let factor = self.cluster.pod(pod).speed_factor;
        let dt = job.dist.sample_duration(&mut rng).mul_f64(factor.max(0.0));
        ctx.queue.push(now + dt, Ev::ComputeDone { pod, token });
    }
}
