//! Run results: everything the harness needs to print a figure or table.

use crate::sim::{Simulation, WorldStats};
use meshlayer_mesh::SidecarStats;
use meshlayer_prof::{aggregate_routes, render_route_table, RouteBreakdown};
use meshlayer_telemetry::{TelemetryConfig, TelemetryHub, TelemetrySummary, TraceAnalytics};
use meshlayer_workload::ClassSummary;
use serde::{Deserialize, Serialize};

/// Per-link report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkReport {
    /// `from->to` rendered name.
    pub name: String,
    /// Line rate, bits/second.
    pub rate_bps: u64,
    /// Fraction of the run the wire was busy.
    pub utilization: f64,
    /// Packets transmitted (one per packet-hop over this link).
    pub tx_packets: u64,
    /// Wire bytes transmitted.
    pub tx_bytes: u64,
    /// Packets dropped at the queue.
    pub drops: u64,
    /// Peak queue depth, packets.
    pub peak_queue_pkts: usize,
    /// Bytes sent with the latency-sensitive DSCP tag.
    pub bytes_dscp_latency: u64,
    /// Bytes sent with the batch DSCP tag.
    pub bytes_dscp_batch: u64,
    /// Fluid-plane bytes carried by the link (settled, not packetized).
    pub fluid_bytes: u64,
    /// Fluid-plane bytes dropped at this link (unadmitted demand,
    /// charged to the flow's first hop).
    pub fluid_drop_bytes: u64,
    /// Extra packet serialization delay caused by fluid reservations,
    /// nanoseconds, summed over transmitted packets.
    pub fluid_delay_ns: u64,
}

/// Per-class aggregate of the fluid traffic plane (DESIGN.md §14).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FluidClassReport {
    /// Workload class name.
    pub class: String,
    /// Rate flows the class was split into (one per authority replica).
    pub flows: u32,
    /// Aggregate offered rate, bits/second.
    pub demand_bps: u64,
    /// Aggregate admitted rate after the final solve, bits/second.
    pub alloc_bps: u64,
    /// Cumulative bytes offered over the run.
    pub injected_bytes: u64,
    /// Cumulative bytes delivered to replicas.
    pub delivered_bytes: u64,
    /// Cumulative bytes dropped (unadmitted demand).
    pub dropped_bytes: u64,
}

/// Per-pod report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PodReport {
    /// Pod name.
    pub name: String,
    /// Compute jobs executed.
    pub jobs: u64,
    /// Jobs rejected (queue overflow).
    pub rejected: u64,
    /// Peak compute-queue depth.
    pub peak_queue: usize,
}

/// Transport aggregates across every connection.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TransportReport {
    /// Connections created.
    pub connections: usize,
    /// Fast retransmissions.
    pub fast_retx: u64,
    /// RTO events.
    pub timeouts: u64,
    /// Messages fully delivered.
    pub msgs_delivered: u64,
    /// Payload bytes sent (including retransmissions).
    pub bytes_sent: u64,
}

/// Wall-time profile of one event variant in the loop.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EvProfile {
    /// Event variant name.
    pub event: String,
    /// Times the variant was handled.
    pub count: u64,
    /// Estimated wall time inside flight observation + handler for this
    /// variant, nanoseconds: the mean of a timed sample (one event in 61)
    /// times `count`; the queue pop is not included. Zero unless the run
    /// had [`crate::Simulation::enable_profiling`]. Host-dependent —
    /// excluded from determinism checks.
    pub wall_ns: u64,
}

/// The simulator's own vitals for one run: how full its event queue and
/// packet store got. Deterministic (a function of spec and seed) but about
/// the engine, not the model — outside the flight digest, like the event
/// profile, and free to change between commits.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EngineVitals {
    /// Most events the queue's far-future heap held at once.
    pub far_heap_peak: usize,
    /// Events still pending when the run ended at `end_at`.
    pub pending_at_end: usize,
    /// Times the far-future heap was compacted.
    pub compactions: u64,
    /// Dead RPC deadline events those compactions dropped unpopped.
    pub compacted_events: u64,
    /// Most packets in flight at once (slots of the packet slab).
    pub pkt_slab_peak: usize,
}

/// Everything measured in one run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Per-workload-class latency summaries.
    pub classes: Vec<ClassSummary>,
    /// Per-link reports (access links only are usually interesting).
    pub links: Vec<LinkReport>,
    /// Per-class fluid-plane reports, alphabetical by class (empty in
    /// all-packet worlds).
    pub fluid: Vec<FluidClassReport>,
    /// Per-pod compute reports.
    pub pods: Vec<PodReport>,
    /// Fleet-wide sidecar counters.
    pub fleet: SidecarStats,
    /// Transport aggregates.
    pub transport: TransportReport,
    /// Root/request counters.
    pub world: WorldStats,
    /// Events processed by the loop.
    pub events: u64,
    /// Events ever pushed onto the queue (including unprocessed tail).
    pub events_pushed: u64,
    /// Events ever popped off the queue.
    pub events_popped: u64,
    /// Queue and store occupancy of the simulator itself.
    pub engine: EngineVitals,
    /// Wall-clock nanoseconds the event loop ran. Host-dependent —
    /// excluded from determinism checks and the flight-recorder digest.
    pub wall_ns: u64,
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// Spans collected.
    pub spans: usize,
    /// Spans dropped at the tracer's capacity cap.
    pub spans_dropped: u64,
    /// Time-series telemetry: per-interval latency quantiles, gauge
    /// series, SLO alerts.
    pub telemetry: TelemetrySummary,
    /// Trace-derived analytics: critical paths and per-service self time.
    pub analytics: TraceAnalytics,
    /// Per-event-variant loop profile, alphabetical by variant.
    pub event_profile: Vec<EvProfile>,
    /// Per-route latency provenance: each class's end-to-end latency
    /// decomposed into the seven mesh layers (sim-time, deterministic).
    pub provenance: Vec<RouteBreakdown>,
}

impl RunMetrics {
    /// Harvest metrics from a finished simulation. Reads the model planes
    /// by `&`; only the observers are consumed.
    pub(crate) fn collect(sim: &mut Simulation, events: u64) -> RunMetrics {
        let (ctx, net, transport) = (&sim.ctx, &sim.net, &sim.transport);
        let (mesh, app, fluid_rt) = (&sim.mesh, &sim.app, &sim.fluid);
        let obs = &mut sim.obs;
        // Every event up to `end_at` ran, so that is when the run ended;
        // `sim.now()` is whichever leftover event the loop popped last.
        let now = ctx.end_at;
        let topology = &net.fabric.topology;
        let links = topology
            .links()
            .map(|l| {
                let s = l.stats();
                LinkReport {
                    name: topology.link_name(l.id()),
                    rate_bps: l.rate_bps(),
                    utilization: l.utilization(now),
                    tx_packets: s.tx_packets,
                    tx_bytes: s.tx_bytes,
                    drops: l.drops(),
                    peak_queue_pkts: s.peak_queue_pkts,
                    bytes_dscp_latency: s.bytes_for_dscp(meshlayer_netsim::DSCP_LATENCY),
                    bytes_dscp_batch: s.bytes_for_dscp(meshlayer_netsim::DSCP_BATCH),
                    fluid_bytes: s.fluid_bytes,
                    fluid_drop_bytes: s.fluid_drop_bytes,
                    fluid_delay_ns: s.fluid_delay_ns,
                }
            })
            .collect();
        let mut fluid: Vec<FluidClassReport> = Vec::new();
        for f in &fluid_rt.flows {
            match fluid.iter_mut().find(|r| r.class == f.class) {
                Some(r) => {
                    r.flows += 1;
                    r.demand_bps += f.demand_bps;
                    r.alloc_bps += f.alloc_bps;
                    r.injected_bytes += f.injected_bytes;
                    r.delivered_bytes += f.delivered_bytes;
                    r.dropped_bytes += f.dropped_bytes;
                }
                None => fluid.push(FluidClassReport {
                    class: f.class.clone(),
                    flows: 1,
                    demand_bps: f.demand_bps,
                    alloc_bps: f.alloc_bps,
                    injected_bytes: f.injected_bytes,
                    delivered_bytes: f.delivered_bytes,
                    dropped_bytes: f.dropped_bytes,
                }),
            }
        }
        fluid.sort_by(|a, b| a.class.cmp(&b.class));
        let pods = app
            .cluster
            .pods()
            .map(|p| PodReport {
                name: p.name.clone(),
                jobs: p.compute.started(),
                rejected: p.compute.rejected(),
                peak_queue: p.compute.peak_queue(),
            })
            .collect();
        let mut fleet = SidecarStats::default();
        for (_, sc) in mesh.sidecars.iter() {
            let s = sc.stats();
            fleet.inbound_requests += s.inbound_requests;
            fleet.outbound_requests += s.outbound_requests;
            fleet.retries += s.retries;
            fleet.fail_fast += s.fail_fast;
            fleet.resp_2xx += s.resp_2xx;
            fleet.resp_4xx += s.resp_4xx;
            fleet.resp_5xx += s.resp_5xx;
            fleet.priority_propagated += s.priority_propagated;
            fleet.fluid_bytes_in += s.fluid_bytes_in;
        }
        let mut transport_report = TransportReport {
            connections: transport.conns.len(),
            ..TransportReport::default()
        };
        for (_, pair) in transport.conns.iter() {
            for c in [&pair.a, &pair.b] {
                let s = c.stats();
                transport_report.fast_retx += s.fast_retx;
                transport_report.timeouts += s.timeouts;
                transport_report.msgs_delivered += s.msgs_delivered;
                transport_report.bytes_sent += s.bytes_sent;
            }
        }
        let hub = std::mem::replace(
            &mut obs.telemetry,
            TelemetryHub::new(TelemetryConfig::default()),
        );
        let mut event_profile: Vec<EvProfile> = obs
            .ev_profile
            .iter()
            .enumerate()
            .filter(|&(_, &(count, _))| count > 0)
            .map(|(code, &(count, wall_ns))| EvProfile {
                event: crate::sim::Ev::NAMES[code].to_string(),
                count,
                wall_ns,
            })
            .collect();
        // Alphabetical, matching the former name-keyed map's ordering.
        event_profile.sort_by(|a, b| a.event.cmp(&b.event));
        let queue = &ctx.queue;
        RunMetrics {
            classes: obs.recorder.summaries(),
            links,
            fluid,
            pods,
            fleet,
            transport: transport_report,
            world: ctx.stats.clone(),
            events,
            events_pushed: queue.total_pushed(),
            events_popped: queue.total_popped(),
            engine: EngineVitals {
                far_heap_peak: queue.far_peak(),
                // The loop popped, and dropped, the first event past
                // `end_at`; it was pending when the run ended.
                pending_at_end: queue.len() + (queue.total_popped() - events) as usize,
                compactions: app.far.runs,
                compacted_events: app.far.dropped,
                pkt_slab_peak: net.pkts.high_water(),
            },
            wall_ns: obs.wall_ns,
            sim_seconds: now.as_secs_f64(),
            spans: obs.tracer.spans().len(),
            spans_dropped: obs.tracer.dropped(),
            telemetry: hub.finish(now),
            analytics: TraceAnalytics::from_spans(obs.tracer.spans()),
            event_profile,
            provenance: aggregate_routes(&obs.prov.roots),
        }
    }

    /// Latency summary of one class.
    pub fn class(&self, name: &str) -> Option<&ClassSummary> {
        self.classes.iter().find(|c| c.class == name)
    }

    /// A single link report by rendered name.
    pub fn link(&self, name: &str) -> Option<&LinkReport> {
        self.links.iter().find(|l| l.name == name)
    }

    /// Simulated packet-hops: packets transmitted, summed over links. The
    /// model decides this number and the engine cannot change it, so it
    /// is the unit of work that engine cost figures are taken per.
    pub fn pkt_hops(&self) -> u64 {
        self.links.iter().map(|l| l.tx_packets).sum()
    }

    /// A compact human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run: {:.1}s simulated, {} events, {} roots ({} ok, {} failed)\n",
            self.sim_seconds,
            self.events,
            self.world.roots_started,
            self.world.roots_ok,
            self.world.roots_failed
        ));
        let hops = self.pkt_hops();
        out.push_str(&format!(
            "  queue: {} pushed, {} popped; loop {:.2}s wall, {} packet-hops ({:.2} events and {:.0} ns each)\n",
            self.events_pushed,
            self.events_popped,
            self.wall_ns as f64 / 1e9,
            hops,
            self.events as f64 / hops.max(1) as f64,
            self.wall_ns as f64 / hops.max(1) as f64,
        ));
        out.push_str(&format!(
            "  engine: far heap peak {} events, {} pending at end, {} compactions dropped {} dead deadlines, packet slab peak {}\n",
            self.engine.far_heap_peak,
            self.engine.pending_at_end,
            self.engine.compactions,
            self.engine.compacted_events,
            self.engine.pkt_slab_peak,
        ));
        for c in &self.classes {
            out.push_str(&format!(
                "  {:<20} n={:<6} p50={:>9.2}ms p90={:>9.2}ms p99={:>9.2}ms mean={:>9.2}ms fail={}\n",
                c.class, c.completed, c.p50_ms, c.p90_ms, c.p99_ms, c.mean_ms, c.failed
            ));
        }
        for f in &self.fluid {
            out.push_str(&format!(
                "  fluid {:<14} flows={:<4} demand={:.3}Gbps admitted={:.3}Gbps delivered={}B dropped={}B\n",
                f.class,
                f.flows,
                f.demand_bps as f64 / 1e9,
                f.alloc_bps as f64 / 1e9,
                f.delivered_bytes,
                f.dropped_bytes
            ));
        }
        // Busiest links only: a generated thousand-pod fabric has
        // thousands of links, so everything past the top rows collapses
        // into one aggregate remainder line.
        let mut hot: Vec<&LinkReport> =
            self.links.iter().filter(|l| l.utilization > 0.01).collect();
        hot.sort_by(|a, b| b.utilization.partial_cmp(&a.utilization).unwrap());
        for l in hot.iter().take(6) {
            out.push_str(&format!(
                "  link {:<26} {:>6.1}% util, {} drops, peak q {}\n",
                l.name,
                l.utilization * 100.0,
                l.drops,
                l.peak_queue_pkts
            ));
        }
        let rest: Vec<&&LinkReport> = hot.iter().skip(6).collect();
        if !rest.is_empty() {
            let tx: u64 = rest.iter().map(|l| l.tx_bytes).sum();
            let drops: u64 = rest.iter().map(|l| l.drops).sum();
            let max_util = rest.iter().map(|l| l.utilization).fold(0.0f64, f64::max);
            out.push_str(&format!(
                "  link ... {} more >1% util     {:>6.1}% max util, {} drops, {} tx bytes total\n",
                rest.len(),
                max_util * 100.0,
                drops,
                tx,
            ));
        }
        out.push_str(&format!(
            "  sidecars: {} outbound, {} retries, {} fail-fast, {} 5xx\n",
            self.fleet.outbound_requests,
            self.fleet.retries,
            self.fleet.fail_fast,
            self.fleet.resp_5xx
        ));
        out.push_str(&format!(
            "  transport: {} conns, {} fast-retx, {} rto timeouts\n",
            self.transport.connections, self.transport.fast_retx, self.transport.timeouts
        ));
        out.push_str(&format!(
            "  traces: {} spans collected, {} dropped\n",
            self.spans, self.spans_dropped
        ));
        out.push_str(&format!(
            "  telemetry: {} scrapes @ {:.0}ms, {} SLO alerts\n",
            self.telemetry.scrapes,
            self.telemetry.interval_s * 1000.0,
            self.telemetry.alerts.len()
        ));
        // Event profile: every variant that fired, ranked by handler wall
        // time, with its share of the whole loop's wall clock.
        let mut profile: Vec<&EvProfile> = self.event_profile.iter().collect();
        profile.sort_by_key(|p| std::cmp::Reverse(p.wall_ns));
        let total_wall = self.wall_ns.max(1) as f64;
        for p in &profile {
            out.push_str(&format!(
                "  ev {:<16} n={:<9} wall={:>8.1}ms {:>5.1}% of total wall\n",
                p.event,
                p.count,
                p.wall_ns as f64 / 1e6,
                p.wall_ns as f64 / total_wall * 100.0
            ));
        }
        if !self.provenance.is_empty() {
            out.push_str(&render_route_table(&self.provenance));
        }
        out
    }
}
