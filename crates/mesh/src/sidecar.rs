//! The sidecar proxy.
//!
//! One [`Sidecar`] instance fronts each pod: all inbound and outbound
//! requests pass through it (§2). It is a *decision engine*: the
//! simulation driver owns time and the network, and consults the sidecar
//! for every hop:
//!
//! * **inbound** — [`Sidecar::on_inbound`] records the provenance context
//!   (`x-request-id` → priority/trace), opens a server span and charges
//!   the proxy-overhead cost;
//! * **outbound** — [`Sidecar::annotate_outbound`] copies the priority and
//!   trace headers from the correlated inbound request onto a child
//!   request (the paper's §4.3 step 2, the provenance-propagation
//!   mechanism), then [`Sidecar::route_outbound`] resolves the route
//!   table, filters unhealthy endpoints, applies circuit breaking and
//!   picks an endpoint via the load balancer;
//! * **response** — [`Sidecar::on_upstream_response`] feeds latency and
//!   status back into EWMA, outlier detection and the breaker, and
//!   [`Sidecar::should_retry`] decides whether (and when) to retry.
//!
//! A sidecar shares no mutable state with any other sidecar: its RNG is
//! the pod's own stream (`SimRng::pod_stream`, a pure function of
//! `(seed, pod)`), and every cross-pod effect flows through the engine
//! as a scheduled event.

use crate::config::MeshConfig;
use crate::lb::{LoadBalancer, PickCtx};
use crate::resilience::{AttemptFailure, CircuitBreaker, OutlierDetector, RetryBudget};
use crate::tracing::{Span, SpanId, SpanKind, TraceId};
use meshlayer_cluster::PodId;
use meshlayer_http::{
    Request, StatusCode, HDR_B3_SPAN_ID, HDR_B3_TRACE_ID, HDR_PRIORITY, HDR_REQUEST_ID,
};
use meshlayer_simcore::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Counters a sidecar exposes to telemetry scrapes and run reports.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SidecarStats {
    /// Requests received for the local app.
    pub inbound_requests: u64,
    /// Requests routed to upstreams (including retries).
    pub outbound_requests: u64,
    /// Retries performed.
    pub retries: u64,
    /// Requests failed fast (breaker open, no endpoints, budget).
    pub fail_fast: u64,
    /// Upstream responses by status class (2xx, 4xx, 5xx).
    pub resp_2xx: u64,
    /// 4xx responses observed.
    pub resp_4xx: u64,
    /// 5xx responses observed.
    pub resp_5xx: u64,
    /// Priority headers propagated onto child requests.
    pub priority_propagated: u64,
    /// Bytes delivered to the local app by fluid-plane flows (bulk
    /// background traffic modeled as rate flows, not per-request
    /// packets). Keeps telemetry/SLO views of total load honest when a
    /// class runs at fluid granularity.
    pub fluid_bytes_in: u64,
}

/// Provenance context remembered per in-flight inbound request.
///
/// Cloning is cheap by design — the hot path hands copies to the driver
/// per hop, so the priority value is a shared `Arc<str>` rather than an
/// owned `String`.
#[derive(Clone, Debug)]
pub struct InboundCtx {
    /// Priority header value, if the request carried one.
    pub priority: Option<Arc<str>>,
    /// Trace id (created here if absent).
    pub trace: TraceId,
    /// The server span for this request (parent of child client spans).
    pub span: SpanId,
    /// The caller's span id (from the incoming `x-b3-spanid`), if any.
    pub parent: Option<SpanId>,
    /// Whether this trace is sampled.
    pub sampled: bool,
}

/// Per-upstream-cluster runtime state.
struct Upstream {
    lb: LoadBalancer,
    breaker: CircuitBreaker,
    outlier: OutlierDetector,
    budget: RetryBudget,
    outstanding: HashMap<PodId, usize>,
}

/// The outcome of an outbound routing decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Forward to this endpoint.
    Forward {
        /// Chosen upstream pod.
        pod: PodId,
        /// Resolved cluster name (for the response callback).
        cluster: String,
    },
    /// Fail the request locally with this status.
    FailFast(StatusCode),
}

/// One data-plane choice a sidecar made, with the inputs that drove it —
/// reported to an attached [`DecisionSink`] (e.g. the flight recorder's
/// structured decision log). All string fields are borrowed from the
/// request being processed; sinks that need to keep them must copy.
#[derive(Debug)]
pub enum Decision<'a> {
    /// Provenance was copied onto an outbound child request correlated via
    /// `x-request-id` (the paper's §4.3 step 2).
    Propagate {
        /// The correlating `x-request-id`.
        request_id: &'a str,
        /// Trace id stamped onto the child.
        trace: u64,
        /// Priority header value propagated, if the inbound carried one.
        priority: Option<&'a str>,
    },
    /// An outbound request was routed to a replica.
    Route {
        /// The request's `x-request-id` (empty if absent).
        request_id: &'a str,
        /// Trace id from the request headers (0 if absent).
        trace: u64,
        /// Resolved upstream cluster.
        cluster: &'a str,
        /// The route rule that matched (rendered authority/prefix).
        rule: String,
        /// Replica chosen by the load balancer.
        pod: PodId,
        /// Endpoints discovery offered.
        candidates: usize,
        /// Endpoints left after outlier-ejection filtering.
        healthy: usize,
        /// Load-balancing policy that picked.
        lb: &'static str,
        /// Circuit-breaker state at admit time.
        breaker: &'static str,
    },
    /// An outbound request was failed locally.
    FailFast {
        /// The request's `x-request-id` (empty if absent).
        request_id: &'a str,
        /// Trace id from the request headers (0 if absent).
        trace: u64,
        /// Resolved cluster, when routing got that far.
        cluster: Option<&'a str>,
        /// Status returned to the caller.
        status: StatusCode,
        /// Which check failed (`no-route`, `no-endpoints`, `breaker-open`,
        /// `no-healthy`, ...).
        reason: &'static str,
    },
    /// A failed attempt was granted a retry.
    Retry {
        /// The request's `x-request-id` (empty if absent).
        request_id: &'a str,
        /// Upstream cluster being retried.
        cluster: &'a str,
        /// 0-based index of the attempt that failed.
        attempt: u32,
        /// Failure classification that triggered the retry check.
        failure: &'static str,
        /// Backoff granted before the retry fires, nanoseconds.
        backoff_ns: u64,
    },
    /// A failed attempt was denied a retry.
    RetryDenied {
        /// The request's `x-request-id` (empty if absent).
        request_id: &'a str,
        /// Upstream cluster.
        cluster: &'a str,
        /// 0-based index of the attempt that failed.
        attempt: u32,
        /// Failure classification.
        failure: &'static str,
        /// Why the retry was denied (`policy` or `budget`).
        reason: &'static str,
    },
}

/// Observer for sidecar [`Decision`]s. Implementations must be
/// `Send + Sync` (sidecars travel with the simulation across threads) and
/// must not influence behaviour — sinks see decisions, they don't make
/// them.
pub trait DecisionSink: Send + Sync {
    /// One decision, made by the sidecar fronting `pod` at `now`.
    fn on_decision(&self, pod: &str, now: SimTime, decision: &Decision<'_>);
}

/// The sidecar proxy decision engine (see module docs).
pub struct Sidecar {
    name: String,
    cfg: MeshConfig,
    config_version: u64,
    upstreams: HashMap<String, Upstream>,
    inflight: HashMap<String, InboundCtx>,
    rng: SimRng,
    stats: SidecarStats,
    next_trace: u64,
    next_span: u64,
    /// Identity stamped into trace spans.
    service: String,
    /// Structured decision log, if attached (flight recorder).
    sink: Option<Arc<dyn DecisionSink>>,
}

impl Sidecar {
    /// Create the sidecar for pod `name` of `service`, seeded
    /// deterministically from `rng`.
    pub fn new(
        name: impl Into<String>,
        service: impl Into<String>,
        cfg: MeshConfig,
        rng: SimRng,
    ) -> Self {
        let name = name.into();
        let mut rng = rng;
        // Span ids must be unique across the whole fleet; give each sidecar
        // a random 64-bit base and count upward from it.
        let span_base = rng.u64() & !0xff_ffff;
        Sidecar {
            rng,
            cfg,
            config_version: 1,
            upstreams: HashMap::new(),
            inflight: HashMap::new(),
            stats: SidecarStats::default(),
            next_trace: 1,
            next_span: span_base | 1,
            service: service.into(),
            name,
            sink: None,
        }
    }

    /// Attach a structured decision log. Sinks are passive observers; the
    /// decision stream is identical whether or not one is attached.
    pub fn set_decision_sink(&mut self, sink: Arc<dyn DecisionSink>) {
        self.sink = Some(sink);
    }

    /// This sidecar's pod name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The service this sidecar fronts.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// Counters.
    pub fn stats(&self) -> &SidecarStats {
        &self.stats
    }

    /// Account bytes delivered to the local app by a fluid-plane flow
    /// (see [`SidecarStats::fluid_bytes_in`]).
    pub fn account_fluid_bytes(&mut self, bytes: u64) {
        self.stats.fluid_bytes_in += bytes;
    }

    /// The active config version (for xDS sync).
    pub fn config_version(&self) -> u64 {
        self.config_version
    }

    /// Apply a newer config snapshot from the control plane. Existing
    /// upstream state (EWMA, breakers) is retained; policies apply to new
    /// decisions immediately.
    pub fn apply_config(&mut self, version: u64, cfg: MeshConfig) {
        if version > self.config_version {
            self.cfg = cfg;
            self.config_version = version;
        }
    }

    /// Read the active config.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Sample this hop's proxy processing overhead (one sidecar's worth;
    /// a full hop costs one sample at each side). mTLS adds its own cost.
    pub fn overhead(&mut self) -> SimDuration {
        let mut t = self.cfg.proxy_overhead.sample_duration(&mut self.rng);
        if self.cfg.mtls {
            t += self.cfg.mtls_overhead.sample_duration(&mut self.rng);
        }
        t
    }

    // -----------------------------------------------------------------
    // Inbound path
    // -----------------------------------------------------------------

    /// An inbound request arrived for the local app. Ensures it has a
    /// request id and trace context, records provenance for propagation,
    /// and returns the context (the driver uses `span`/`sampled` to emit
    /// a server span).
    pub fn on_inbound(&mut self, req: &mut Request, now: SimTime) -> InboundCtx {
        self.stats.inbound_requests += 1;
        // Ensure x-request-id (the ingress sidecar mints it).
        let request_id = match req.headers.get(HDR_REQUEST_ID) {
            Some(id) => id.to_string(),
            None => {
                let id = format!("{}-{}", self.name, self.rng.u64());
                req.headers.set(HDR_REQUEST_ID, id.clone());
                id
            }
        };
        // Trace context: reuse or create.
        let trace = match req
            .headers
            .get(HDR_B3_TRACE_ID)
            .and_then(|t| t.parse().ok())
        {
            Some(t) => TraceId(t),
            None => {
                let t = TraceId((self.rng.u64() << 8) | self.next_trace);
                self.next_trace += 1;
                req.headers.set(HDR_B3_TRACE_ID, t.0.to_string());
                t
            }
        };
        // The incoming span id (set by the caller's sidecar) is our parent.
        let parent = req
            .headers
            .get(HDR_B3_SPAN_ID)
            .and_then(|v| v.parse().ok())
            .map(SpanId);
        let span = SpanId(self.next_span);
        self.next_span += 1;
        req.headers.set(HDR_B3_SPAN_ID, span.0.to_string());
        let sampled = self.cfg.sampling.sample(now, self.rng.f64());
        let ctx = InboundCtx {
            priority: req.headers.get(HDR_PRIORITY).map(Arc::from),
            trace,
            span,
            parent,
            sampled,
        };
        self.inflight.insert(request_id, ctx.clone());
        ctx
    }

    /// The inbound request identified by `request_id` finished (response
    /// sent); drops its provenance entry.
    pub fn end_inbound(&mut self, request_id: &str) {
        self.inflight.remove(request_id);
    }

    /// Provenance lookup (e.g. for the prioritizer): the context recorded
    /// for an in-flight inbound request.
    pub fn inbound_ctx(&self, request_id: &str) -> Option<&InboundCtx> {
        self.inflight.get(request_id)
    }

    // -----------------------------------------------------------------
    // Outbound path
    // -----------------------------------------------------------------

    /// The app emitted a child request carrying the same `x-request-id` as
    /// the inbound request it serves (footnote 3: apps propagate the id to
    /// enable tracing). Copy the provenance — priority header and trace
    /// context — onto it, and allocate its client span. This is the
    /// paper's §4.3 step 2.
    pub fn annotate_outbound(
        &mut self,
        req: &mut Request,
        now: SimTime,
    ) -> Option<(TraceId, SpanId, SpanId)> {
        // Copy the scalars (and the shared priority Arc) out of the
        // provenance entry so `req` can be mutated without cloning the
        // whole context or the correlating id.
        let (trace, span, priority) = {
            let request_id = req.headers.get(HDR_REQUEST_ID)?;
            let ctx = self.inflight.get(request_id)?;
            (ctx.trace, ctx.span, ctx.priority.clone())
        };
        let mut propagated = false;
        if let Some(p) = &priority {
            if !req.headers.contains(HDR_PRIORITY) {
                req.headers.set(HDR_PRIORITY, p.as_ref());
                self.stats.priority_propagated += 1;
                propagated = true;
            }
        }
        req.headers.set(HDR_B3_TRACE_ID, trace.0.to_string());
        let child_span = SpanId(self.next_span);
        self.next_span += 1;
        req.headers.set(HDR_B3_SPAN_ID, child_span.0.to_string());
        if let Some(sink) = &self.sink {
            sink.on_decision(
                &self.name,
                now,
                &Decision::Propagate {
                    request_id: req.headers.get(HDR_REQUEST_ID).unwrap_or_default(),
                    trace: trace.0,
                    priority: if propagated {
                        priority.as_deref()
                    } else {
                        None
                    },
                },
            );
        }
        Some((trace, span, child_span))
    }

    /// Route an outbound request: resolve the route table, narrow to
    /// healthy endpoints, apply circuit breaking, pick via LB.
    ///
    /// `endpoints_for(cluster, subset)` and `load_of(pod)` are supplied by
    /// the driver (discovery and in-flight counts live there).
    pub fn route_outbound(
        &mut self,
        req: &Request,
        endpoints_for: &dyn Fn(&str, Option<&str>) -> Vec<PodId>,
        now: SimTime,
    ) -> RouteOutcome {
        let sink = self.sink.clone();
        let request_id = req.headers.get(HDR_REQUEST_ID).unwrap_or_default();
        let trace: u64 = req
            .headers
            .get(HDR_B3_TRACE_ID)
            .and_then(|t| t.parse().ok())
            .unwrap_or(0);
        let fail = |status: StatusCode, cluster: Option<&str>, reason: &'static str| {
            if let Some(s) = &sink {
                s.on_decision(
                    &self.name,
                    now,
                    &Decision::FailFast {
                        request_id,
                        trace,
                        cluster,
                        status,
                        reason,
                    },
                );
            }
            RouteOutcome::FailFast(status)
        };
        let Some(rule) = self.cfg.routes.resolve(req) else {
            self.stats.fail_fast += 1;
            return fail(StatusCode::NOT_FOUND, None, "no-route");
        };
        let rule_desc = sink
            .as_ref()
            .map(|_| {
                format!(
                    "{}{}",
                    rule.authority.as_deref().unwrap_or("*"),
                    rule.path_prefix.as_deref().unwrap_or("")
                )
            })
            .unwrap_or_default();
        let roll = self.rng.below(100) as u32;
        let Some(target) = rule.pick_target(roll) else {
            self.stats.fail_fast += 1;
            return fail(StatusCode::NOT_FOUND, None, "no-target");
        };
        let cluster = target.cluster.clone();
        let subset = target.subset.clone();
        let candidates = endpoints_for(&cluster, subset.as_deref());
        if candidates.is_empty() {
            self.stats.fail_fast += 1;
            return fail(StatusCode::UNAVAILABLE, Some(&cluster), "no-endpoints");
        }
        // First request to a cluster materializes its runtime state; the
        // policy is only cloned on that cold path, not per request.
        if !self.upstreams.contains_key(&cluster) {
            let policy = self.cfg.policy(&cluster).clone();
            self.upstreams.insert(
                cluster.clone(),
                Upstream {
                    lb: LoadBalancer::new(policy.lb),
                    breaker: CircuitBreaker::new(policy.breaker.clone()),
                    outlier: OutlierDetector::new(policy.outlier.clone()),
                    budget: RetryBudget::new(policy.retry.budget_ratio),
                    outstanding: HashMap::new(),
                },
            );
        }
        let up = self.upstreams.get_mut(&cluster).expect("just ensured");
        if !up.breaker.try_admit(now) {
            self.stats.fail_fast += 1;
            return fail(
                StatusCode::TOO_MANY_REQUESTS,
                Some(&cluster),
                "breaker-open",
            );
        }
        let breaker_state = up.breaker.state(now).name();
        let healthy = up.outlier.healthy(&candidates, now);
        let outstanding_map = &up.outstanding;
        let outstanding = |p: PodId| outstanding_map.get(&p).copied().unwrap_or(0);
        let hash = req.headers.get("x-session-key").map(|v| fnv(v.as_bytes()));
        let ctx = PickCtx {
            outstanding: &outstanding,
            hash,
        };
        let pick = up.lb.pick(&healthy, &ctx, &mut self.rng);
        match pick {
            Some(pod) => {
                *up.outstanding.entry(pod).or_insert(0) += 1;
                up.budget.on_request(now);
                self.stats.outbound_requests += 1;
                if let Some(s) = &sink {
                    s.on_decision(
                        &self.name,
                        now,
                        &Decision::Route {
                            request_id,
                            trace,
                            cluster: &cluster,
                            rule: rule_desc,
                            pod,
                            candidates: candidates.len(),
                            healthy: healthy.len(),
                            lb: up.lb.policy().name(),
                            breaker: breaker_state,
                        },
                    );
                }
                RouteOutcome::Forward { pod, cluster }
            }
            None => {
                up.breaker.on_failure(now);
                self.stats.fail_fast += 1;
                fail(StatusCode::UNAVAILABLE, Some(&cluster), "no-healthy")
            }
        }
    }

    /// An upstream attempt concluded (response or local timeout). Feeds
    /// all health machinery.
    pub fn on_upstream_response(
        &mut self,
        cluster: &str,
        pod: PodId,
        outcome: Result<StatusCode, AttemptFailure>,
        latency: SimDuration,
        pool_size: usize,
        now: SimTime,
    ) {
        let Some(up) = self.upstreams.get_mut(cluster) else {
            return;
        };
        if let Some(n) = up.outstanding.get_mut(&pod) {
            *n = n.saturating_sub(1);
        }
        up.lb.observe(pod, latency);
        match outcome {
            Ok(status) => {
                if status.is_server_error() {
                    self.stats.resp_5xx += 1;
                    up.breaker.on_failure(now);
                } else {
                    if status.0 >= 400 {
                        self.stats.resp_4xx += 1;
                    } else {
                        self.stats.resp_2xx += 1;
                    }
                    up.breaker.on_success(now);
                }
                up.outlier.on_response(pod, status, now, pool_size);
            }
            Err(_) => {
                self.stats.resp_5xx += 1;
                up.breaker.on_failure(now);
                up.outlier
                    .on_response(pod, StatusCode::GATEWAY_TIMEOUT, now, pool_size);
            }
        }
    }

    /// An admitted attempt was cancelled (e.g. the losing side of a hedge
    /// after the winner responded): release its outstanding slot and the
    /// breaker's pending count without any health signal either way.
    /// A cancel must not go through `on_success` — that would zero the
    /// breaker's consecutive-failure count and close a half-open breaker,
    /// letting a failing upstream hide behind its own hedges.
    pub fn on_attempt_cancelled(&mut self, cluster: &str, pod: PodId, now: SimTime) {
        if let Some(up) = self.upstreams.get_mut(cluster) {
            if let Some(n) = up.outstanding.get_mut(&pod) {
                *n = n.saturating_sub(1);
            }
            up.breaker.on_cancel(now);
        }
    }

    /// Whether attempt `attempt` (0-based) of `req` to `cluster`, which
    /// failed with `failure`, should be retried — and after what backoff.
    /// Consults the policy *and* the retry budget.
    pub fn should_retry(
        &mut self,
        cluster: &str,
        req: &Request,
        attempt: u32,
        failure: AttemptFailure,
        now: SimTime,
    ) -> Option<SimDuration> {
        let sink = self.sink.clone();
        let request_id = req.headers.get(HDR_REQUEST_ID).unwrap_or_default();
        let denied = |name: &str, reason: &'static str| {
            if let Some(s) = &sink {
                s.on_decision(
                    name,
                    now,
                    &Decision::RetryDenied {
                        request_id,
                        cluster,
                        attempt,
                        failure: failure.name(),
                        reason,
                    },
                );
            }
        };
        let policy = self.cfg.policy(cluster).retry.clone();
        if !policy.should_retry(attempt, req.method, failure) {
            denied(&self.name, "policy");
            return None;
        }
        let Some(up) = self.upstreams.get_mut(cluster) else {
            denied(&self.name, "no-upstream");
            return None;
        };
        if !up.budget.try_take(now) {
            denied(&self.name, "budget");
            return None;
        }
        self.stats.retries += 1;
        // Full jitter (AWS-style): draw the actual wait uniformly from
        // [0, ceiling]. The draw comes from this sidecar's own RNG — the
        // deterministic per-pod stream — so replays see the identical
        // schedule, while concurrent failures across requests
        // decorrelate instead of retrying in lockstep.
        let ceiling = policy.backoff(attempt + 1);
        let backoff = if policy.full_jitter && ceiling > SimDuration::ZERO {
            SimDuration::from_nanos(self.rng.u64() % ceiling.as_nanos().saturating_add(1))
        } else {
            ceiling
        };
        if let Some(s) = &sink {
            s.on_decision(
                &self.name,
                now,
                &Decision::Retry {
                    request_id,
                    cluster,
                    attempt,
                    failure: failure.name(),
                    backoff_ns: backoff.as_nanos(),
                },
            );
        }
        Some(backoff)
    }

    /// Per-cluster per-try timeout (driver schedules it).
    pub fn per_try_timeout(&self, cluster: &str) -> SimDuration {
        self.cfg.policy(cluster).per_try_timeout
    }

    /// Per-cluster overall timeout.
    pub fn timeout(&self, cluster: &str) -> SimDuration {
        self.cfg.policy(cluster).timeout
    }

    /// Build a server span for a handled inbound request.
    pub fn server_span(
        &self,
        ctx: &InboundCtx,
        parent: Option<SpanId>,
        start: SimTime,
        end: SimTime,
        status: StatusCode,
    ) -> Span {
        Span {
            trace: ctx.trace,
            id: ctx.span,
            parent,
            service: self.service.clone(),
            kind: SpanKind::Server,
            start,
            end,
            tags: vec![
                ("status".into(), status.0.to_string()),
                (
                    "priority".into(),
                    ctx.priority.as_deref().unwrap_or("-").to_string(),
                ),
            ],
        }
    }

    /// Build the client span for an outbound RPC this sidecar issued.
    /// `link` is exactly what [`Sidecar::annotate_outbound`] returned for
    /// the request: `(trace, parent server span, this client span)`. The
    /// callee's server span parents onto the client span id, completing
    /// the trace tree.
    pub fn client_span(
        &self,
        link: (TraceId, SpanId, SpanId),
        cluster: &str,
        start: SimTime,
        end: SimTime,
        status: StatusCode,
    ) -> Span {
        let (trace, parent, id) = link;
        Span {
            trace,
            id,
            parent: Some(parent),
            service: self.service.clone(),
            kind: SpanKind::Client,
            start,
            end,
            tags: vec![
                ("status".into(), status.0.to_string()),
                ("upstream".into(), cluster.to_string()),
            ],
        }
    }
}

/// FNV-1a for session-affinity hashing.
fn fnv(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshlayer_http::{RouteRule, RouteTable, RouteTarget};

    fn mk_sidecar(routes: RouteTable) -> Sidecar {
        let cfg = MeshConfig {
            routes,
            ..MeshConfig::default()
        };
        Sidecar::new("frontend-1", "frontend", cfg, SimRng::new(42))
    }

    fn simple_routes() -> RouteTable {
        let mut t = RouteTable::new();
        t.push(RouteRule::passthrough("reviews"));
        t
    }

    fn two_pods(cluster: &str, _subset: Option<&str>) -> Vec<PodId> {
        if cluster == "reviews" {
            vec![PodId(0), PodId(1)]
        } else {
            vec![]
        }
    }

    const T0: SimTime = SimTime::ZERO;

    /// Outstanding requests to one endpoint of one cluster.
    fn outstanding_to(sc: &Sidecar, cluster: &str, pod: PodId) -> usize {
        sc.upstreams
            .get(cluster)
            .and_then(|u| u.outstanding.get(&pod))
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn inbound_mints_ids_and_records_provenance() {
        let mut sc = mk_sidecar(simple_routes());
        let mut req = Request::get("frontend", "/").with_header(HDR_PRIORITY, "high");
        let ctx = sc.on_inbound(&mut req, T0);
        assert_eq!(ctx.priority.as_deref(), Some("high"));
        assert!(req.headers.contains(HDR_REQUEST_ID));
        assert!(req.headers.contains(HDR_B3_TRACE_ID));
        assert_eq!(sc.inflight.len(), 1);
        let rid = req.headers.get(HDR_REQUEST_ID).unwrap().to_string();
        assert!(sc.inbound_ctx(&rid).is_some());
        sc.end_inbound(&rid);
        assert_eq!(sc.inflight.len(), 0);
    }

    #[test]
    fn outbound_inherits_priority_via_request_id() {
        // The paper's propagation mechanism end to end.
        let mut sc = mk_sidecar(simple_routes());
        let mut inbound = Request::get("frontend", "/").with_header(HDR_PRIORITY, "high");
        sc.on_inbound(&mut inbound, T0);
        let rid = inbound.headers.get(HDR_REQUEST_ID).unwrap().to_string();

        // The app spawns a child request carrying only the request id.
        let mut child = Request::get("reviews", "/reviews/9").with_header(HDR_REQUEST_ID, &rid);
        let (trace, parent, span) = sc.annotate_outbound(&mut child, T0).expect("correlated");
        assert_eq!(child.headers.get(HDR_PRIORITY), Some("high"));
        assert_eq!(
            child.headers.get(HDR_B3_TRACE_ID),
            Some(trace.0.to_string().as_str())
        );
        assert_ne!(parent, span);
        assert_eq!(sc.stats().priority_propagated, 1);
        // An uncorrelated request gets nothing.
        let mut orphan = Request::get("reviews", "/");
        assert!(sc.annotate_outbound(&mut orphan, T0).is_none());
    }

    #[test]
    fn existing_priority_header_not_overwritten() {
        let mut sc = mk_sidecar(simple_routes());
        let mut inbound = Request::get("frontend", "/").with_header(HDR_PRIORITY, "high");
        sc.on_inbound(&mut inbound, T0);
        let rid = inbound.headers.get(HDR_REQUEST_ID).unwrap().to_string();
        let mut child = Request::get("reviews", "/")
            .with_header(HDR_REQUEST_ID, &rid)
            .with_header(HDR_PRIORITY, "low");
        sc.annotate_outbound(&mut child, T0);
        assert_eq!(child.headers.get(HDR_PRIORITY), Some("low"));
    }

    #[test]
    fn route_outbound_forwards_to_known_cluster() {
        let mut sc = mk_sidecar(simple_routes());
        let req = Request::get("reviews", "/r/1");
        match sc.route_outbound(&req, &two_pods, T0) {
            RouteOutcome::Forward { pod, cluster } => {
                assert!(pod == PodId(0) || pod == PodId(1));
                assert_eq!(cluster, "reviews");
                assert_eq!(outstanding_to(&sc, "reviews", pod), 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sc.stats().outbound_requests, 1);
    }

    #[test]
    fn route_outbound_404_without_rule_503_without_endpoints() {
        let mut sc = mk_sidecar(simple_routes());
        let req = Request::get("unknown", "/");
        assert_eq!(
            sc.route_outbound(&req, &two_pods, T0),
            RouteOutcome::FailFast(StatusCode::NOT_FOUND)
        );
        let mut t = RouteTable::new();
        t.push(RouteRule::passthrough("ghost"));
        let mut sc = mk_sidecar(t);
        let req = Request::get("ghost", "/");
        assert_eq!(
            sc.route_outbound(&req, &two_pods, T0),
            RouteOutcome::FailFast(StatusCode::UNAVAILABLE)
        );
        assert_eq!(sc.stats().fail_fast, 1);
    }

    #[test]
    fn subset_routing_reaches_endpoints_fn() {
        let mut t = RouteTable::new();
        t.push(RouteRule {
            authority: Some("reviews".into()),
            path_prefix: None,
            headers: vec![],
            targets: vec![RouteTarget::subset("reviews", "high")],
        });
        let mut sc = mk_sidecar(t);
        let seen = std::cell::RefCell::new(None);
        let endpoints = |cluster: &str, subset: Option<&str>| {
            *seen.borrow_mut() = Some((cluster.to_string(), subset.map(str::to_string)));
            vec![PodId(5)]
        };
        let req = Request::get("reviews", "/");
        match sc.route_outbound(&req, &endpoints, T0) {
            RouteOutcome::Forward { pod, .. } => assert_eq!(pod, PodId(5)),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            seen.into_inner(),
            Some(("reviews".to_string(), Some("high".to_string())))
        );
    }

    #[test]
    fn breaker_opens_after_repeated_failures() {
        let mut sc = mk_sidecar(simple_routes());
        let req = Request::get("reviews", "/");
        // 5 consecutive failures (default threshold) open the breaker.
        for _ in 0..5 {
            let RouteOutcome::Forward { pod, cluster } = sc.route_outbound(&req, &two_pods, T0)
            else {
                panic!("expected forward");
            };
            sc.on_upstream_response(
                &cluster,
                pod,
                Ok(StatusCode::INTERNAL),
                SimDuration::from_millis(1),
                2,
                T0,
            );
        }
        assert_eq!(
            sc.route_outbound(&req, &two_pods, T0),
            RouteOutcome::FailFast(StatusCode::TOO_MANY_REQUESTS)
        );
    }

    #[test]
    fn outlier_ejection_steers_away() {
        let mut sc = mk_sidecar(simple_routes());
        let req = Request::get("reviews", "/");
        // Fail pod 0 five times (success on pod 1 so breaker stays closed).
        let mut failed = 0;
        while failed < 5 {
            let RouteOutcome::Forward { pod, cluster } = sc.route_outbound(&req, &two_pods, T0)
            else {
                panic!()
            };
            let status = if pod == PodId(0) {
                failed += 1;
                StatusCode::INTERNAL
            } else {
                StatusCode::OK
            };
            sc.on_upstream_response(
                &cluster,
                pod,
                Ok(status),
                SimDuration::from_millis(1),
                2,
                T0,
            );
        }
        // Pod 0 now ejected: the next 20 picks all go to pod 1.
        for _ in 0..20 {
            match sc.route_outbound(&req, &two_pods, T0) {
                RouteOutcome::Forward { pod, cluster } => {
                    assert_eq!(pod, PodId(1));
                    sc.on_upstream_response(
                        &cluster,
                        pod,
                        Ok(StatusCode::OK),
                        SimDuration::from_millis(1),
                        2,
                        T0,
                    );
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// Regression pin (ISSUE 8): a cancelled hedge attempt between
    /// failures must not heal the breaker. Before the fix,
    /// `on_attempt_cancelled` called `breaker.on_success`, so one losing
    /// hedge per threshold window zeroed `consecutive_failures` and the
    /// breaker never opened against a persistently failing upstream.
    #[test]
    fn cancelled_hedge_does_not_heal_breaker() {
        let mut sc = mk_sidecar(simple_routes());
        let req = Request::get("reviews", "/");
        // 4 failures (threshold is 5), with a cancelled hedge attempt
        // interleaved after each one — exactly the hedging pattern where
        // the winner fails and the loser is cancelled.
        for _ in 0..4 {
            let RouteOutcome::Forward { pod, cluster } = sc.route_outbound(&req, &two_pods, T0)
            else {
                panic!("expected forward");
            };
            sc.on_upstream_response(
                &cluster,
                pod,
                Ok(StatusCode::INTERNAL),
                SimDuration::from_millis(1),
                2,
                T0,
            );
            let RouteOutcome::Forward { pod, cluster } = sc.route_outbound(&req, &two_pods, T0)
            else {
                panic!("expected forward");
            };
            sc.on_attempt_cancelled(&cluster, pod, T0);
        }
        // The 5th consecutive failure must open the breaker: the cancels
        // carried no health signal.
        let RouteOutcome::Forward { pod, cluster } = sc.route_outbound(&req, &two_pods, T0) else {
            panic!("expected forward");
        };
        sc.on_upstream_response(
            &cluster,
            pod,
            Ok(StatusCode::INTERNAL),
            SimDuration::from_millis(1),
            2,
            T0,
        );
        assert_eq!(
            sc.route_outbound(&req, &two_pods, T0),
            RouteOutcome::FailFast(StatusCode::TOO_MANY_REQUESTS),
            "breaker must open despite interleaved hedge cancels"
        );
        // The cancelled attempts released their outstanding slots.
        assert_eq!(outstanding_to(&sc, "reviews", PodId(0)), 0);
        assert_eq!(outstanding_to(&sc, "reviews", PodId(1)), 0);
    }

    #[test]
    fn retry_backoff_is_jittered_within_ceiling() {
        let mut sc = mk_sidecar(simple_routes());
        let req = Request::get("reviews", "/");
        let RouteOutcome::Forward { cluster, pod } = sc.route_outbound(&req, &two_pods, T0) else {
            panic!()
        };
        sc.on_upstream_response(
            &cluster,
            pod,
            Ok(StatusCode::INTERNAL),
            SimDuration::from_millis(1),
            2,
            T0,
        );
        let ceiling = sc.config().policy(&cluster).retry.backoff(1);
        let b = sc
            .should_retry(
                &cluster,
                &req,
                0,
                AttemptFailure::Status(StatusCode::INTERNAL),
                T0,
            )
            .expect("retry granted");
        assert!(b <= ceiling, "jittered backoff {b} above ceiling {ceiling}");
        // Same seed, same decision sequence => same jitter (determinism).
        let mut sc2 = mk_sidecar(simple_routes());
        let RouteOutcome::Forward { cluster: c2, pod } = sc2.route_outbound(&req, &two_pods, T0)
        else {
            panic!()
        };
        sc2.on_upstream_response(
            &c2,
            pod,
            Ok(StatusCode::INTERNAL),
            SimDuration::from_millis(1),
            2,
            T0,
        );
        let b2 = sc2
            .should_retry(
                &c2,
                &req,
                0,
                AttemptFailure::Status(StatusCode::INTERNAL),
                T0,
            )
            .expect("retry granted");
        assert_eq!(b, b2, "jitter is a pure function of the RNG stream");
    }

    #[test]
    fn retry_respects_policy_and_budget() {
        let mut sc = mk_sidecar(simple_routes());
        let req = Request::get("reviews", "/");
        // Must route once so the upstream (and its budget) exists.
        let RouteOutcome::Forward { cluster, pod } = sc.route_outbound(&req, &two_pods, T0) else {
            panic!()
        };
        sc.on_upstream_response(
            &cluster,
            pod,
            Ok(StatusCode::INTERNAL),
            SimDuration::from_millis(1),
            2,
            T0,
        );
        let b1 = sc.should_retry(
            &cluster,
            &req,
            0,
            AttemptFailure::Status(StatusCode::INTERNAL),
            T0,
        );
        assert!(b1.is_some());
        // attempt 2 (0-based) exceeds max_retries=2.
        assert!(sc
            .should_retry(&cluster, &req, 2, AttemptFailure::Timeout, T0)
            .is_none());
        // POST not retried.
        let post = Request::post("reviews", "/", 10);
        assert!(sc
            .should_retry(&cluster, &post, 0, AttemptFailure::Timeout, T0)
            .is_none());
        assert_eq!(sc.stats().retries, 1);
    }

    #[test]
    fn config_apply_only_moves_forward() {
        let mut sc = mk_sidecar(simple_routes());
        assert_eq!(sc.config_version(), 1);
        let newer = MeshConfig {
            mtls: true,
            ..MeshConfig::default()
        };
        sc.apply_config(3, newer.clone());
        assert_eq!(sc.config_version(), 3);
        assert!(sc.config().mtls);
        // Stale push ignored.
        sc.apply_config(2, MeshConfig::default());
        assert_eq!(sc.config_version(), 3);
        assert!(sc.config().mtls);
    }

    #[test]
    fn overhead_positive_and_mtls_adds() {
        let mut sc = mk_sidecar(simple_routes());
        let base: f64 = (0..200).map(|_| sc.overhead().as_secs_f64()).sum();
        let cfg = MeshConfig {
            mtls: true,
            ..MeshConfig::default()
        };
        let mut sc2 = Sidecar::new("x", "x", cfg, SimRng::new(42));
        let with_mtls: f64 = (0..200).map(|_| sc2.overhead().as_secs_f64()).sum();
        assert!(base > 0.0);
        assert!(with_mtls > base);
    }

    #[test]
    fn server_span_carries_priority_tag() {
        let mut sc = mk_sidecar(simple_routes());
        let mut req = Request::get("frontend", "/").with_header(HDR_PRIORITY, "high");
        let ctx = sc.on_inbound(&mut req, T0);
        let span = sc.server_span(
            &ctx,
            None,
            T0,
            T0 + SimDuration::from_millis(3),
            StatusCode::OK,
        );
        assert_eq!(span.tag("priority"), Some("high"));
        assert_eq!(span.tag("status"), Some("200"));
        assert_eq!(span.duration(), SimDuration::from_millis(3));
        assert_eq!(span.service, "frontend");
    }
}
