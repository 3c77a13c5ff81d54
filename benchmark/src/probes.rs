//! Layer probes: plain timed loops that drive each crate's public
//! functions directly and return nanoseconds per operation.
//!
//! The op mixes are those of the seven layer-level criterion benches in
//! `crates/bench/benches/` (`event_queue`, `qdisc`, `transport`,
//! `sidecar`, `codec`, `lb`, `histogram`), plus the operations those
//! benches leave out (routing on a generated fabric, the link
//! offer/transmit cycle, sketch merge, a telemetry scrape, the compute
//! queue, breaker admission, the latency recorder, header access).
//! Each probe times five batches of about ten milliseconds and reports
//! the median, so one probe costs well under 0.3 s.

use crate::metrics::{median, Ledger};
use crate::trace::Spans;
use meshlayer_cluster::{ComputeConfig, PodCompute, PodId};
use meshlayer_core::Fabric;
use meshlayer_http::codec::{decode_request_head, encode_request_head, find_head_end};
use meshlayer_http::{Request, RouteRule, RouteTable, HDR_PRIORITY, HDR_REQUEST_ID};
use meshlayer_mesh::{
    BreakerConfig, CircuitBreaker, LbPolicy, LoadBalancer, MeshConfig, PickCtx, RouteOutcome,
    Sidecar,
};
use meshlayer_netsim::{
    ClassId, Deq, DropTail, FilterMatch, HtbClass, HtbLite, Link, LinkId, LinkOutcome, NodeId,
    Packet, Prio, Qdisc, TcTable, DSCP_BATCH, DSCP_LATENCY,
};
use meshlayer_simcore::{EventQueue, Histogram, SimDuration, SimRng, SimTime};
use meshlayer_telemetry::{GaugeKind, QuantileSketch, TelemetryConfig, TelemetryHub};
use meshlayer_transport::{Conn, ConnConfig};
use meshlayer_workload::Recorder;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const BATCH_TARGET: Duration = Duration::from_millis(10);

/// Median ns/op of [`BATCHES`] timed batches. `batch(iters)` runs `iters`
/// operations on fresh state and returns the time they took.
fn probe(mut batch: impl FnMut(u64) -> Duration) -> f64 {
    // Size a batch from a short calibration run.
    let calib = 256u64;
    let per_op = batch(calib).as_secs_f64() / calib as f64;
    let iters = ((BATCH_TARGET.as_secs_f64() / per_op.max(1e-10)) as u64).clamp(16, 50_000_000);
    let ns: Vec<f64> = (0..BATCHES)
        .map(|_| batch(iters).as_nanos() as f64 / iters as f64)
        .collect();
    median(&ns)
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Hold model: a standing population; each pop schedules a successor a
/// pseudo-random 0..1 ms ahead. With `far_every`, every n-th successor
/// lands past the calendar horizon, in the overflow heap.
fn queue_hold(standing: u64, far_every: Option<u64>, iters: u64) -> Duration {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..standing {
        q.push(SimTime::ZERO + SimDuration::from_nanos(i * 131), i);
    }
    let t = Instant::now();
    for i in 0..iters {
        let (at, ev) = q.pop().expect("standing population");
        let r = xorshift(&mut x);
        let delay = match far_every {
            Some(n) if i % n == 0 => 100_000_000 + r % 100_000_000,
            _ => r % 1_000_000,
        };
        q.push(at + SimDuration::from_nanos(delay), black_box(ev));
    }
    t.elapsed()
}

fn pkt(i: u64) -> Packet {
    let dscp = [DSCP_BATCH, DSCP_LATENCY][(i % 2) as usize];
    Packet::data(i, NodeId(0), NodeId(1), 1, i * 1448, 1448, dscp)
}

/// Enqueue+dequeue cycles under a standing backlog of 64 packets.
fn qdisc_cycle(q: &mut dyn Qdisc, iters: u64) -> Duration {
    let now = SimTime::from_micros(1);
    for i in 0..64 {
        let _ = q.enqueue(pkt(i), ClassId((i % 2) as u16), now);
    }
    let t = Instant::now();
    for i in 64..64 + iters {
        let _ = q.enqueue(pkt(i), ClassId((i % 2) as u16), now);
        if let Deq::Packet(p) = q.dequeue(now) {
            black_box(p);
        }
    }
    t.elapsed()
}

fn htb_95_5() -> HtbLite {
    let rate = u64::MAX / 4;
    let class = |share_rate, prio| HtbClass {
        limit_pkts: 1 << 20,
        ..HtbClass::new(share_rate, rate, prio)
    };
    HtbLite::new(vec![class(rate / 20 * 19, 0), class(rate / 20, 1)])
}

/// Offer one packet to an idle 15 Gbps link and complete its
/// transmission: the two link calls every uncontended hop makes.
fn link_offer_tx(iters: u64) -> Duration {
    let mut link = Link::new(
        LinkId(0),
        NodeId(0),
        NodeId(1),
        15_000_000_000,
        SimDuration::from_micros(5),
        Box::new(DropTail::new(4096)),
    );
    let mut now = SimTime::ZERO;
    let t = Instant::now();
    for i in 0..iters {
        let (outcome, dropped) = link.offer(pkt(i), now);
        debug_assert!(!dropped);
        if let LinkOutcome::Busy { done_at } = outcome {
            now = done_at;
        }
        black_box(link.on_tx_done(now));
    }
    t.elapsed()
}

/// First-match classification through the prototype's filter shape: two
/// DSCP filters in front of a default class.
fn tc_classify(iters: u64) -> Duration {
    let mut tc = TcTable::new(ClassId(1));
    tc.add_filter(FilterMatch::any().dscp(DSCP_LATENCY), ClassId(0));
    tc.add_filter(FilterMatch::any().dscp(DSCP_BATCH), ClassId(1));
    let pkts = [pkt(0), pkt(1)];
    let t = Instant::now();
    for i in 0..iters {
        black_box(tc.classify(black_box(&pkts[(i % 2) as usize])));
    }
    t.elapsed()
}

/// `next_hop` between pseudo-random node pairs of the workload's own
/// fabric (hierarchical table on generated fabrics and on the star).
fn route_next_hop(fabric: &mut Fabric, iters: u64) -> Duration {
    let n = fabric.topology.node_count() as u64;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let t = Instant::now();
    for _ in 0..iters {
        let r = xorshift(&mut x);
        let (from, dst) = (NodeId((r % n) as u32), NodeId(((r >> 32) % n) as u32));
        black_box(fabric.topology.next_hop(from, dst));
    }
    t.elapsed()
}

/// Send `msgs` 64 KiB messages a→b with no network in between, draining
/// all acks; returns the time taken and the packets handled.
fn transport_msgs(msgs: u64) -> (Duration, u64) {
    let cfg = ConnConfig::default();
    let mut a = Conn::new(1, 0, NodeId(0), NodeId(1), cfg.clone());
    let mut b = Conn::new(1, 1, NodeId(1), NodeId(0), cfg);
    let owd = SimDuration::from_micros(50);
    let mut now = SimTime::ZERO;
    let mut packets = 0u64;
    let t = Instant::now();
    for msg in 0..msgs {
        let mut to_b = a.send_message(msg + 1, 64 * 1024, now).packets;
        let mut to_a: Vec<Packet> = Vec::new();
        while !to_b.is_empty() || !to_a.is_empty() {
            now += owd;
            packets += (to_a.len() + to_b.len()) as u64;
            let next_a: Vec<Packet> = to_b
                .drain(..)
                .flat_map(|p| b.on_packet(&p, now).packets)
                .collect();
            let next_b: Vec<Packet> = to_a
                .drain(..)
                .flat_map(|p| a.on_packet(&p, now).packets)
                .collect();
            to_a = next_a;
            to_b = next_b;
        }
        black_box(&a);
    }
    (t.elapsed(), packets)
}

fn demo_request() -> Request {
    Request::post("reviews", "/reviews/42?full=true", 4096)
        .with_header("x-request-id", "3f2a9d1c-55aa-4b7e-9f11-77d0c2a9e001")
        .with_header("x-mesh-priority", "high")
        .with_header("x-b3-traceid", "463ac35c9f6413ad48485a3953bb6124")
        .with_header("x-b3-spanid", "a2fb4a1d1a96d312")
        .with_header("user-agent", "meshlayer-bench/0.1")
        .with_header("accept", "application/json")
}

fn codec_roundtrip(iters: u64) -> Duration {
    let req = demo_request();
    let t = Instant::now();
    for _ in 0..iters {
        let head = encode_request_head(black_box(&req));
        let end = find_head_end(&head).expect("complete head");
        black_box(decode_request_head(&head[..end]).expect("decodes"));
        black_box(req.wire_size());
    }
    t.elapsed()
}

/// The header accesses one sidecar hop makes: read the correlation id
/// and the priority, stamp a span id.
fn headers_get_set(iters: u64) -> Duration {
    let mut req = demo_request();
    let t = Instant::now();
    for i in 0..iters {
        black_box(req.headers.get(HDR_REQUEST_ID));
        black_box(req.headers.get(HDR_PRIORITY));
        req.headers
            .set("x-b3-spanid", if i % 2 == 0 { "a" } else { "b" });
    }
    t.elapsed()
}

/// Keep a pod saturated: each iteration completes a job and offers one.
fn compute_submit_done(iters: u64) -> Duration {
    let mut pod = PodCompute::new(ComputeConfig {
        workers: 16,
        queue_limit: 4096,
        priority_aware: true,
    });
    for tag in 0..32 {
        black_box(pod.offer(tag, tag % 2 == 0));
    }
    let t = Instant::now();
    for i in 0..iters {
        black_box(pod.on_complete());
        black_box(pod.offer(i, i % 2 == 0));
    }
    t.elapsed()
}

/// One full sidecar hop: ingress a prioritised request, annotate the
/// child the app spawns, route it, finish the inbound.
fn sidecar_hop(iters: u64) -> Duration {
    let mut routes = RouteTable::new();
    routes.push(RouteRule::passthrough("reviews"));
    let cfg = MeshConfig {
        routes,
        ..MeshConfig::default()
    };
    let mut sc = Sidecar::new("frontend-1", "frontend", cfg, SimRng::new(42));
    let endpoints = |cluster: &str, _subset: Option<&str>| {
        if cluster == "reviews" {
            vec![PodId(0), PodId(1), PodId(2)]
        } else {
            vec![]
        }
    };
    let t = Instant::now();
    for i in 0..iters {
        let now = SimTime::from_micros(i);
        let mut inbound = Request::get("frontend", "/").with_header(HDR_PRIORITY, "high");
        sc.on_inbound(&mut inbound, now);
        let rid = inbound
            .headers
            .get(HDR_REQUEST_ID)
            .expect("minted")
            .to_string();
        let mut child = Request::get("reviews", "/reviews/9").with_header(HDR_REQUEST_ID, &rid);
        sc.annotate_outbound(&mut child, now).expect("correlated");
        match sc.route_outbound(&child, &endpoints, now) {
            RouteOutcome::Forward { pod, .. } => {
                black_box(pod);
            }
            other => panic!("expected a forward, got {other:?}"),
        }
        sc.end_inbound(&rid);
    }
    t.elapsed()
}

/// One pick per iteration over a 16-endpoint pool, rotating through the
/// five policies' balancers so the number is the mix's mean.
fn lb_pick(iters: u64) -> Duration {
    let pods: Vec<PodId> = (0..16).map(PodId).collect();
    let mut lbs: Vec<LoadBalancer> = [
        LbPolicy::RoundRobin,
        LbPolicy::Random,
        LbPolicy::LeastRequest,
        LbPolicy::PeakEwma,
        LbPolicy::RingHash,
    ]
    .into_iter()
    .map(|policy| {
        let mut lb = LoadBalancer::new(policy);
        for &p in &pods {
            lb.observe(p, SimDuration::from_micros(500 + p.0 as u64 * 100));
        }
        lb
    })
    .collect();
    let mut rng = SimRng::new(1);
    let outstanding = |p: PodId| (p.0 % 5) as usize;
    let t = Instant::now();
    for key in 0..iters {
        let ctx = PickCtx {
            outstanding: &outstanding,
            hash: Some(key),
        };
        let lb = &mut lbs[(key % 5) as usize];
        black_box(lb.pick(&pods, &ctx, &mut rng));
    }
    t.elapsed()
}

/// Breaker admission on the healthy path: admit, then report success.
fn breaker_admit(iters: u64) -> Duration {
    let mut breaker = CircuitBreaker::new(BreakerConfig::default());
    let t = Instant::now();
    for i in 0..iters {
        let now = SimTime::from_micros(i);
        let b = black_box(&mut breaker);
        black_box(b.try_admit(now));
        b.on_success(now);
    }
    t.elapsed()
}

fn recorder_record(iters: u64) -> Duration {
    let mut rec = Recorder::new(SimTime::ZERO, SimTime::MAX);
    let mut rng = SimRng::new(1);
    let t = Instant::now();
    for i in 0..iters {
        let at = SimTime::from_micros(i);
        let done = at + SimDuration::from_nanos(rng.below(1_000_000_000));
        let class = if i % 2 == 0 { "browse" } else { "checkout" };
        rec.record_ok(class, at, done);
    }
    black_box(&rec);
    t.elapsed()
}

fn hist_record(iters: u64) -> Duration {
    let mut h = Histogram::new();
    let mut rng = SimRng::new(1);
    let t = Instant::now();
    for _ in 0..iters {
        h.record(black_box(rng.below(1_000_000_000)));
    }
    black_box(&h);
    t.elapsed()
}

fn sketch_record(iters: u64) -> Duration {
    let mut s = QuantileSketch::new(5);
    let mut rng = SimRng::new(1);
    let t = Instant::now();
    for _ in 0..iters {
        s.record(black_box(rng.below(1_000_000_000)));
    }
    black_box(&s);
    t.elapsed()
}

/// Merge a 10k-sample sketch into an accumulator (one roll-up step).
fn sketch_merge(iters: u64) -> Duration {
    let mut other = QuantileSketch::new(5);
    let mut rng = SimRng::new(3);
    for _ in 0..10_000 {
        other.record(rng.below(1_000_000_000));
    }
    let mut acc = QuantileSketch::new(5);
    let t = Instant::now();
    for _ in 0..iters {
        acc.merge(black_box(&other));
    }
    black_box(&acc);
    t.elapsed()
}

/// One telemetry scrape shaped like the 208-pod fabric: three gauges
/// for each of 442 links, one for each of 209 pods, four for each
/// sidecar, then the hub's end-of-scrape work. One op = one scrape.
fn hub_scrape(iters: u64) -> Duration {
    const LINKS: usize = 442;
    const PODS: usize = 209;
    let links: Vec<String> = (0..LINKS).map(|i| format!("n{i}->sw{}", i % 8)).collect();
    let pods: Vec<String> = (0..PODS).map(|i| format!("svc{}-{i}", i % 13)).collect();
    let mut hub = TelemetryHub::new(TelemetryConfig::default());
    let interval = hub.interval();
    let mut now = SimTime::ZERO;
    let t = Instant::now();
    for i in 0..iters {
        now += interval;
        let v = (i % 7) as f64;
        for l in &links {
            hub.scrape_gauge(GaugeKind::LinkUtilization, l, now, v / 10.0);
            hub.scrape_gauge(GaugeKind::LinkQueueDepth, l, now, v);
            hub.scrape_gauge(GaugeKind::LinkDrops, l, now, 0.0);
        }
        for p in &pods {
            hub.scrape_gauge(GaugeKind::PodComputeQueue, p, now, v);
            hub.scrape_gauge(GaugeKind::SidecarRequests, p, now, 100.0 + v);
            hub.scrape_gauge(GaugeKind::SidecarRetries, p, now, 0.0);
            hub.scrape_gauge(GaugeKind::SidecarFailFast, p, now, 0.0);
            hub.scrape_gauge(GaugeKind::Sidecar5xx, p, now, 0.0);
        }
        black_box(hub.on_scrape(now));
    }
    t.elapsed()
}

/// Run every probe, one span per layer, and return the ledger rows.
/// `fabric` is the workload's own fabric, for the routing probe.
pub fn run_all(spans: &mut Spans, fabric: &mut Fabric) -> Ledger {
    let mut l = Ledger::default();
    spans.scope("probe.simcore", |_| {
        l.set(
            "simcore.queue.hold64_ns",
            probe(|n| queue_hold(64, None, n)),
        );
        l.set(
            "simcore.queue.hold1k_ns",
            probe(|n| queue_hold(1024, None, n)),
        );
        l.set(
            "simcore.queue.hold16k_ns",
            probe(|n| queue_hold(16_384, None, n)),
        );
        l.set(
            "simcore.queue.overflow_ns",
            probe(|n| queue_hold(256, Some(16), n)),
        );
        l.set("simcore.hist.record_ns", probe(hist_record));
    });
    spans.scope("probe.netsim", |_| {
        l.set("netsim.link.offer_tx_ns", probe(link_offer_tx));
        l.set(
            "netsim.qdisc.droptail_ns",
            probe(|n| qdisc_cycle(&mut DropTail::new(1 << 20), n)),
        );
        l.set(
            "netsim.qdisc.htb_ns",
            probe(|n| qdisc_cycle(&mut htb_95_5(), n)),
        );
        l.set(
            "netsim.qdisc.prio_ns",
            probe(|n| qdisc_cycle(&mut Prio::new(2, 1 << 20), n)),
        );
        l.set("netsim.tc.classify_ns", probe(tc_classify));
        l.set(
            "netsim.route.next_hop_ns",
            probe(|n| route_next_hop(fabric, n)),
        );
    });
    spans.scope("probe.transport", |_| {
        let mut pkts_per_msg = 1.0;
        let per_msg = probe(|n| {
            let (took, packets) = transport_msgs(n);
            pkts_per_msg = packets as f64 / n as f64;
            took
        });
        l.set("transport.conn.msg64k_ns", per_msg);
        l.set("transport.conn.pkt_ns", per_msg / pkts_per_msg);
    });
    spans.scope("probe.httpsim", |_| {
        l.set("httpsim.codec.roundtrip_ns", probe(codec_roundtrip));
        l.set("httpsim.headers.get_set_ns", probe(headers_get_set));
    });
    spans.scope("probe.cluster", |_| {
        l.set("cluster.compute.submit_done_ns", probe(compute_submit_done));
    });
    spans.scope("probe.mesh", |_| {
        l.set("mesh.sidecar.hop_ns", probe(sidecar_hop));
        l.set("mesh.lb.pick_ns", probe(lb_pick));
        l.set("mesh.resilience.admit_ns", probe(breaker_admit));
    });
    spans.scope("probe.workload", |_| {
        l.set("workload.recorder.record_ns", probe(recorder_record));
    });
    spans.scope("probe.telemetry", |_| {
        l.set("telemetry.sketch.record_ns", probe(sketch_record));
        l.set("telemetry.sketch.merge_ns", probe(sketch_merge));
        l.set("telemetry.hub.scrape_ns", probe(hub_scrape));
    });
    l
}
