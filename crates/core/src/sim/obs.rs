//! The observer plane: latency recorder, tracer, telemetry hub, latency
//! provenance, flight recorder and the engine's own profile.
//!
//! Observers watch the model and never steer it. Every function here
//! takes the model planes by `&`, so the borrow checker holds what
//! `tests/observability.rs` samples: a run with observers attached makes
//! exactly the decisions of a run without. Observers draw no RNG and
//! schedule no events.

use super::{flight, prov, Ev, MeshPlane, SimConfig};
use crate::netplan::Fabric;
use meshlayer_cluster::{Cluster, PodId};
use meshlayer_mesh::Tracer;
use meshlayer_prof::{Breakdown, Layer, RequestProv};
use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_telemetry::{GaugeKind, TelemetryHub};
use meshlayer_workload::Recorder;

/// Per-entity snapshots from the previous telemetry scrape, so cumulative
/// counters can be reported as per-interval deltas. Both tables are
/// dense (links by `LinkId.0`, sidecars by `PodId.0`) — at
/// generated-fabric scale a scrape touches every entity anyway.
#[derive(Default)]
pub(crate) struct ScrapeState {
    /// When the previous scrape ran.
    pub last_at: SimTime,
    /// Per link (indexed by `LinkId.0`): its name and (busy_ns, drops)
    /// at the previous scrape. Links never change after build, so each
    /// name is made once.
    pub links: Vec<(String, u64, u64)>,
    /// Per sidecar (indexed by `PodId.0`): its [`SIDECAR_GAUGES`]
    /// counters at the previous scrape.
    pub sidecars: Vec<[u64; 4]>,
}

/// The sidecar counters a scrape reports as deltas: outbound requests,
/// retries, fail-fast short-circuits and 5xx responses.
const SIDECAR_GAUGES: [GaugeKind; 4] = [
    GaugeKind::SidecarRequests,
    GaugeKind::SidecarRetries,
    GaugeKind::SidecarFailFast,
    GaugeKind::Sidecar5xx,
];

/// Everything that watches a run.
pub(crate) struct Observers {
    pub recorder: Recorder,
    pub tracer: Tracer,
    pub telemetry: TelemetryHub,
    pub scrape: ScrapeState,
    /// Sim-time latency provenance (always on; see [`mod@super::prov`]).
    pub prov: prov::ProvTrack,
    /// Flight-recorder capture/replay state, when attached.
    pub flight: Option<flight::FlightState>,
    /// Outcome of the last run's capture/replay, until taken.
    pub flight_outcome: Option<flight::FlightOutcome>,
    /// Per-Ev-variant profile of the last run, indexed by [`Ev::code`]:
    /// (exact count, handler wall nanos estimated from the timed sample —
    /// zero unless profiling was enabled; see `engine::EvMeter`).
    pub ev_profile: [(u64, u64); Ev::COUNT],
    /// Whether the next `run()` should record wall-clock phase timings.
    pub profile_requested: bool,
    /// The phase profile of the last profiled run, until taken.
    pub profile: Option<meshlayer_prof::ProfileReport>,
    /// Wall-clock nanoseconds the last `run()` spent in the event loop.
    pub wall_ns: u64,
}

impl Observers {
    /// Observers of a run of `config` ending at `end_at`: the recorder
    /// measures between warm-up and cool-down.
    pub(crate) fn new(config: &SimConfig, end_at: SimTime) -> Observers {
        let window_start = SimTime::ZERO + config.warmup;
        let window_end = end_at
            .saturating_since(SimTime::ZERO + config.cooldown)
            .as_nanos();
        Observers {
            recorder: Recorder::new(
                window_start,
                SimTime::from_nanos(window_end.max(window_start.as_nanos() + 1)),
            ),
            tracer: Tracer::new(100_000),
            telemetry: TelemetryHub::new(config.telemetry.clone()),
            scrape: ScrapeState::default(),
            prov: prov::ProvTrack::default(),
            flight: None,
            flight_outcome: None,
            ev_profile: [(0, 0); Ev::COUNT],
            profile_requested: false,
            profile: None,
            wall_ns: 0,
        }
    }

    /// The event loop is done: keep its wall time, its per-kind profile
    /// and (when profiled) its phase profile, and close the capture or
    /// the replay.
    pub(crate) fn end_loop(
        &mut self,
        wall_ns: u64,
        ev_profile: [(u64, u64); Ev::COUNT],
        profile: Option<meshlayer_prof::ProfileReport>,
    ) {
        self.wall_ns = wall_ns;
        self.ev_profile = ev_profile;
        if profile.is_some() {
            self.profile = profile;
        }
        self.flight_finish();
    }

    /// One telemetry scrape: sample every link (per-interval utilization,
    /// queue depth, drop delta), every pod's compute queue, and each
    /// sidecar's counter deltas, then roll latency intervals forward,
    /// evaluate SLO burn-rate rules and sample the policy plane. Link
    /// counters must be settled up to `now`.
    pub(crate) fn scrape(
        &mut self,
        now: SimTime,
        fabric: &Fabric,
        cluster: &Cluster,
        mesh: &MeshPlane,
    ) {
        let elapsed_ns = now.saturating_since(self.scrape.last_at).as_nanos().max(1);
        let topology = &fabric.topology;

        // Links: utilization over the interval from the busy-time delta.
        if self.scrape.links.len() < topology.link_count() {
            let n = self.scrape.links.len();
            let fresh = topology
                .links()
                .skip(n)
                .map(|l| (topology.link_name(l.id()), 0, 0));
            self.scrape.links.extend(fresh);
        }
        for l in topology.links() {
            let (name, prev_busy, prev_drops) = &mut self.scrape.links[l.id().0 as usize];
            let busy = l.stats().busy_ns;
            let drops = l.drops();
            // Utilization = packet serialization share over the
            // interval plus the standing fluid-plane reservation.
            let fluid_share = l.fluid_bps() as f64 / l.rate_bps().max(1) as f64;
            let util = (busy.saturating_sub(*prev_busy) as f64 / elapsed_ns as f64 + fluid_share)
                .clamp(0.0, 1.0);
            // A policy apply that swaps the qdisc resets the drop
            // counter; read that window as zero drops, not underflow.
            let drop_delta = drops.saturating_sub(*prev_drops);
            (*prev_busy, *prev_drops) = (busy, drops);
            let hub = &mut self.telemetry;
            hub.scrape_gauge(GaugeKind::LinkUtilization, name, now, util);
            hub.scrape_gauge(GaugeKind::LinkQueueDepth, name, now, l.queue_len() as f64);
            hub.scrape_gauge(GaugeKind::LinkDrops, name, now, drop_delta as f64);
        }

        // Pods: instantaneous compute-queue depth.
        for p in cluster.pods() {
            let depth = p.compute.queue_len() as f64;
            self.telemetry
                .scrape_gauge(GaugeKind::PodComputeQueue, &p.name, now, depth);
        }

        // Sidecars: counter deltas since the previous scrape, in
        // ascending pod order (the dense table's natural order).
        let prev = &mut self.scrape.sidecars;
        prev.resize(mesh.sidecars.len(), [0; 4]);
        for (pod, sc) in mesh.sidecars.iter() {
            let s = sc.stats();
            let counts = [s.outbound_requests, s.retries, s.fail_fast, s.resp_5xx];
            let last = std::mem::replace(&mut prev[pod.0 as usize], counts);
            for (k, kind) in SIDECAR_GAUGES.into_iter().enumerate() {
                let delta = (counts[k] - last[k]) as f64;
                self.telemetry.scrape_gauge(kind, sc.name(), now, delta);
            }
        }

        let anomalies = self.telemetry.on_scrape(now);
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

        // Policy-plane observability, sampled *after* the SLO evaluation so
        // a fire/clear at this scrape is visible in the same interval.
        self.telemetry.scrape_gauge(
            GaugeKind::PolicyVersion,
            "fleet",
            now,
            mesh.policy.plane.converged_version() as f64,
        );
        for class in self.telemetry.slo_classes() {
            let burning = self.telemetry.burning(&class);
            self.telemetry.scrape_gauge(
                GaugeKind::SloBurning,
                &class,
                now,
                if burning { 1.0 } else { 0.0 },
            );
        }
        self.scrape.last_at = now;
    }

    /// A server window closed at `pod`: one sample for the hierarchical
    /// roll-up (pod → service → zone → mesh). Zone is the pod's node.
    pub(crate) fn observe_pod_latency(
        &mut self,
        cluster: &Cluster,
        pod: PodId,
        service: &str,
        window: SimDuration,
        failed: bool,
    ) {
        let pod = cluster.pod(pod);
        let zone = cluster.node_name(pod.node);
        self.telemetry
            .observe_pod_latency(&pod.name, service, zone, window, failed);
    }

    /// A root request of `class`, intended at `intended_at`, completed at
    /// `now`: record its latency (or failure) and, on success, its
    /// provenance. The breakdown must sum exactly to the recorder's
    /// end-to-end latency, so any gap between the RPC span `bd` covers
    /// and the full window (normally zero) lands in `RetryWait`.
    pub(crate) fn on_root_done(
        &mut self,
        class: String,
        request_id: &str,
        intended_at: SimTime,
        now: SimTime,
        bd: Option<Breakdown>,
    ) {
        let Some(mut bd) = bd else {
            self.recorder.record_failure(&class, intended_at);
            self.telemetry.observe_latency(&class, now, None);
            return;
        };
        let total = now.saturating_since(intended_at);
        self.recorder.record_ok(&class, intended_at, now);
        self.telemetry.observe_latency(&class, now, Some(total));
        let total_ns = total.as_nanos();
        bd.add_ns(Layer::RetryWait, total_ns.saturating_sub(bd.sum()));
        self.prov.record_root(RequestProv {
            request_id: request_id.to_string(),
            class,
            intended_ns: intended_at.as_nanos(),
            completed_ns: now.as_nanos(),
            total_ns,
            breakdown: bd,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::sim::Ev;
    use crate::{RunMetrics, SimSpec, Simulation};
    use meshlayer_cluster::{CallStep, ServiceBehavior, ServiceSpec};
    use meshlayer_simcore::{Dist, SimDuration};
    use meshlayer_telemetry::GaugeKind;
    use meshlayer_workload::WorkloadSpec;

    /// The hub's sidecar series lose no request and invent none: for
    /// every pod, the `SidecarRequests` deltas summed over all scrapes
    /// equal that sidecar's outbound-request counter at the last scrape.
    #[test]
    fn sidecar_request_deltas_sum_to_each_counter() {
        let frontend = ServiceSpec::new(
            "frontend",
            1,
            ServiceBehavior {
                on_request: CallStep::Seq(vec![
                    CallStep::Compute(Dist::constant(0.001)),
                    CallStep::call("backend", "/get"),
                ]),
                response_bytes: Dist::constant(2048.0),
            },
        );
        let backend = ServiceSpec::new("backend", 2, ServiceBehavior::respond(0.002));
        let users = WorkloadSpec::get("users", "/get", 50.0);
        let mut spec = SimSpec::new(vec![frontend, backend], vec![users]);
        spec.config.duration = SimDuration::from_secs(3);
        spec.config.warmup = SimDuration::from_secs(1);
        spec.config.cooldown = SimDuration::from_millis(500);
        let mut sim = Simulation::build(spec);

        // The engine loop by hand, reading every counter after each scrape.
        sim.seed_events();
        let mut at_last_scrape = Vec::new();
        while let Some((t, ev)) = sim.ctx.queue.pop() {
            if t > sim.ctx.end_at {
                break;
            }
            let scrape = matches!(ev, Ev::TelemetryTick);
            sim.handle(ev, t);
            if scrape {
                let counters = sim.mesh.sidecars.iter();
                at_last_scrape = counters
                    .map(|(_, sc)| sc.stats().outbound_requests)
                    .collect();
            }
        }
        let m = RunMetrics::collect(&mut sim, 0);
        for (pod, sc) in sim.mesh.sidecars.iter() {
            let series = m.telemetry.gauge(GaugeKind::SidecarRequests, sc.name());
            let sum: f64 = series.map_or(0.0, |g| g.points.iter().map(|p| p.value).sum());
            assert_eq!(sum as u64, at_last_scrape[pod.0 as usize], "{}", sc.name());
        }
        // The ingress and the frontend call out; the backends do not.
        assert!(matches!(at_last_scrape[..], [i, f, 0, 0] if i > 100 && f > 100));
    }
}
