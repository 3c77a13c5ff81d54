//! CI smokes: a generated-fabric run under a memory ceiling, and the
//! telemetry hub's footprint over a long horizon.

use crate::{peak_rss_bytes, Arm, Ctx, RunLength};
use meshlayer_core::{SimSpec, TopoParams};
use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_telemetry::{GaugeKind, TelemetryConfig, TelemetryHub};

const MIB: f64 = 1024.0 * 1024.0;

/// The recorded generated fabric: ~200 pods at a modest 500 rps, so the
/// every-packet capture stays small.
pub(crate) fn topo_flight(len: RunLength) -> SimSpec {
    let mut p = TopoParams::sized(200, 500.0);
    p.seed = len.seed;
    let mut spec = p.spec();
    len.apply(&mut spec);
    spec
}

/// `topo_smoke [--pods N] [--rps R] [--rss-ceiling-mib N]`: a generated
/// zonal fabric (default 200 pods at 5000 rps) driven end to end. Exit 1
/// when no request completed, or when peak RSS exceeds the ceiling (the
/// arena/SoA state must keep a 200-pod world cheap even in debug builds).
pub(crate) fn topo_smoke(ctx: &Ctx) -> u8 {
    let pods = ctx.args.flag("--pods").map_or(200, |v| v as usize);
    let rps = ctx.args.flag("--rps").unwrap_or(5_000.0);
    let mut p = TopoParams::sized(pods, rps);
    p.seed = ctx.len.seed;
    let mut spec = p.spec();
    ctx.len.apply(&mut spec);
    eprintln!(
        "topo_smoke: {} pods on a generated zonal fabric at {rps:.0} rps, {}s...",
        p.pod_count(),
        ctx.len.secs
    );
    let m = ctx.runs(vec![Arm::spec("topo_smoke", spec)]).remove(0);
    let rss = peak_rss_bytes();
    println!(
        "topo_smoke: pods={} rps={rps:.0} events={} ns/packet-hop={:.0} roots_ok={} peak_rss_mib={:.1}",
        p.pod_count(),
        m.events,
        m.wall_ns as f64 / (m.pkt_hops() as f64).max(1.0),
        m.world.roots_ok,
        rss as f64 / MIB,
    );
    if m.world.roots_ok == 0 {
        eprintln!("topo_smoke: FAIL: no request completed on the generated fabric");
        return 1;
    }
    if let Some(mib) = ctx.args.flag("--rss-ceiling-mib") {
        if rss as f64 > mib * MIB {
            eprintln!(
                "topo_smoke: FAIL: peak RSS {:.1} MiB exceeds the {mib} MiB ceiling",
                rss as f64 / MIB
            );
            return 1;
        }
        eprintln!("topo_smoke: peak RSS within {mib} MiB ceiling");
    }
    0
}

/// Classes and pods the telemetry hub is driven with.
const CLASSES: usize = 1000;
const PODS: usize = 200;

/// `telemetry_mem [--scrapes N] [--ceiling-mib N]`: drive a
/// `TelemetryHub` with a fleet-scale class/gauge/pod population for a long
/// simulated run (default 36,000 scrapes, one simulated hour) and exit 1
/// if its bookkeeping footprint ever exceeds the ceiling (default
/// 128 MiB). The retention pyramid guarantees O(classes × sketch size)
/// steady state, independent of run length; this is that claim's
/// executable form.
pub(crate) fn telemetry_mem(ctx: &Ctx) -> u8 {
    let scrapes = ctx.args.flag("--scrapes").map_or(36_000, |v| v as u64);
    // Generous vs. the expected few tens of MiB, tight vs. the GBs an
    // unbounded per-interval history would reach over this horizon.
    let ceiling_mib = ctx.args.flag("--ceiling-mib").map_or(128, |v| v as usize);
    let ceiling = ceiling_mib * 1024 * 1024;
    let mut hub = TelemetryHub::new(TelemetryConfig::default());
    let interval = hub.interval();
    eprintln!(
        "telemetry_mem: {CLASSES} classes, {PODS} pods, {scrapes} scrapes \
         ({}s simulated), ceiling {ceiling_mib} MiB...",
        scrapes * interval.as_nanos() / 1_000_000_000,
    );

    let mut peak = 0usize;
    for s in 0..scrapes {
        let t0 = interval.as_nanos() * s;
        // A few samples per class per interval, deterministic latencies
        // spread across scales so sketches hold a realistic bucket span.
        for c in 0..CLASSES {
            let class = format!("class-{c:04}");
            for k in 0..3u64 {
                let now = SimTime::from_nanos(t0 + k * interval.as_nanos() / 4 + 1);
                let ns = 1_000_000 + ((s * 7 + c as u64 * 131 + k * 37) % 512) * 250_000;
                hub.observe_latency(&class, now, Some(SimDuration::from_nanos(ns)));
                if (s + c as u64).is_multiple_of(97) && k == 0 {
                    hub.observe_latency(&class, now, None); // an error
                }
            }
        }
        // Pod-level samples feed the roll-up hierarchy.
        for p in 0..PODS {
            let ns = 2_000_000 + ((s + p as u64 * 17) % 256) * 100_000;
            hub.observe_pod_latency(
                &format!("pod-{p:03}"),
                &format!("svc-{:02}", p % 10),
                &format!("zone-{}", p % 4),
                SimDuration::from_nanos(ns),
                false,
            );
        }
        // Queue gauges oscillate; a couple hundred instances.
        for q in 0..CLASSES / 5 {
            let now = SimTime::from_nanos(t0 + 3);
            let depth = ((s * 13 + q as u64 * 7) % 100) as f64;
            hub.scrape_gauge(GaugeKind::LinkQueueDepth, &format!("l{q}->sw"), now, depth);
        }
        hub.on_scrape(SimTime::from_nanos(interval.as_nanos() * (s + 1)));
        peak = peak.max(hub.memory_bytes());
    }

    println!(
        "telemetry_mem: peak {:.1} MiB, final {:.1} MiB over {scrapes} scrapes \
         ({} anomalies, ceiling {ceiling_mib} MiB)",
        peak as f64 / MIB,
        hub.memory_bytes() as f64 / MIB,
        hub.anomalies().len(),
    );
    if peak > ceiling {
        eprintln!("telemetry_mem: FAIL: telemetry footprint exceeded the ceiling");
        return 1;
    }
    println!("telemetry_mem: ok");
    0
}
