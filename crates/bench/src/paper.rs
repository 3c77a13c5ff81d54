//! The paper's own figures and tables: Fig 2 (the stack), Fig 3 (the
//! e-library setup), Fig 4 with T1 (latency vs load, batch degradation)
//! and T2 (sidecar overhead).

use crate::{elibrary_at, Arm, Ctx, RunLength};
use meshlayer_apps::{elibrary, fanout, ElibraryParams};
use meshlayer_core::{RunMetrics, SimSpec, Simulation, XLayerConfig};
use meshlayer_simcore::{Dist, SimDuration};
use serde::Serialize;

/// Fig 2: the "cloud native" network stack, each layer of the figure
/// next to the module of this workspace that implements it, which is the
/// point of the reproduction.
const FIG2: &str = "\
# Fig 2: a modern \"cloud native\" network stack
# (paper layer -> meshlayer implementation)
Application    | meshlayer-cluster::behavior + meshlayer-apps         | service behaviour graphs: bookinfo/e-library, e-commerce
Service Mesh   | meshlayer-mesh (+ meshlayer-core provenance/xlayer)  | sidecars: LB, retries, breakers, tracing, priority propagation
Transport      | meshlayer-transport                                  | reliable message streams; Reno/CUBIC + LEDBAT/TCP-LP scavengers
Virtualization | meshlayer-core::netplan + cluster pod IPs            | virtual pod network, per-pod virtual NICs (TC attachment point)
Network        | meshlayer-netsim::topology + tc                      | routing, classifiers, DSCP priority queues
Link           | meshlayer-netsim::link + qdisc                       | serialization, propagation, DropTail/PRIO/HTB
Physical       | meshlayer-simcore                                    | the event-driven substrate everything runs on
";

pub(crate) fn fig2(_: &Ctx) -> u8 {
    print!("{FIG2}");
    0
}

/// Fig 3: builds the e-library deployment and prints the cluster, the
/// network (with the 1 Gbps bottleneck), the routing rules and the
/// request tree, as an executable version of the paper's setup diagram.
pub(crate) fn fig3(_: &Ctx) -> u8 {
    let mut spec = elibrary(&ElibraryParams::default());
    spec.xlayer = XLayerConfig::paper_prototype();
    let classifier_len = spec.classifier.len();
    let sim = Simulation::build(spec);

    println!("# Fig 3: the e-library microservice (executable rendition)");
    println!();
    println!("## Kubernetes-analogue cluster");
    print!("{}", sim.cluster().render());
    println!();
    println!("## Emulated network (note the 1 Gbps ratings bottleneck)");
    print!("{}", sim.fabric().topology.render());
    println!();
    println!("## Mesh routing (priority subsets installed by the prototype)");
    for rule in sim.control().config().routes.iter() {
        let auth = rule.authority.as_deref().unwrap_or("*");
        let subset = rule
            .targets
            .first()
            .and_then(|t| t.subset.as_deref())
            .unwrap_or("-");
        let cond = if rule.headers.is_empty() {
            "always".to_string()
        } else {
            format!("{:?}", rule.headers)
        };
        println!("  {auth:<18} {cond:<60} -> subset {subset}");
    }
    println!();
    println!("## Request trees (stage 3-4 of the figure)");
    for (svc, path) in [("frontend", "/product"), ("frontend", "/analytics")] {
        let b = sim.cluster().behavior(svc, path).expect("behavior");
        println!(
            "  {svc}{path}: fan-out {} call(s)",
            b.on_request.call_count()
        );
    }
    println!();
    println!("## Ingress classification rules: {classifier_len}");
    0
}

/// One row of a Fig 4-style sweep at `rps` requests/s per workload:
/// latency-sensitive and batch latencies (ms) and completions in the
/// measurement window, utilization of the ratings bottleneck, drops.
#[derive(Clone, Debug, Default, Serialize)]
pub(crate) struct SweepRow {
    pub rps: f64,
    pub optimized: bool,
    pub ls_p50_ms: f64,
    pub ls_p99_ms: f64,
    pub ls_mean_ms: f64,
    pub batch_p50_ms: f64,
    pub batch_p99_ms: f64,
    pub ls_completed: u64,
    pub batch_completed: u64,
    pub bottleneck_util: f64,
    pub drops: u64,
}

/// Extract a [`SweepRow`] from e-library run metrics.
pub(crate) fn sweep_row(rps: f64, optimized: bool, m: &RunMetrics) -> SweepRow {
    let ls = m.class("latency-sensitive");
    let batch = m.class("batch-analytics");
    let bottleneck = m
        .link("ratings-1->switch")
        .map(|l| l.utilization)
        .unwrap_or(0.0);
    SweepRow {
        rps,
        optimized,
        ls_p50_ms: ls.map_or(0.0, |c| c.p50_ms),
        ls_p99_ms: ls.map_or(0.0, |c| c.p99_ms),
        ls_mean_ms: ls.map_or(0.0, |c| c.mean_ms),
        batch_p50_ms: batch.map_or(0.0, |c| c.p50_ms),
        batch_p99_ms: batch.map_or(0.0, |c| c.p99_ms),
        ls_completed: ls.map_or(0, |c| c.completed),
        batch_completed: batch.map_or(0, |c| c.completed),
        bottleneck_util: bottleneck,
        drops: m.world.pkt_drops,
    }
}

/// The (baseline, optimized) row pairs of a sweep, by ascending load.
fn pairs(rows: &[SweepRow]) -> Vec<(&SweepRow, &SweepRow)> {
    let mut points: Vec<f64> = rows.iter().map(|r| r.rps).collect();
    points.sort_by(|a, b| a.partial_cmp(b).unwrap());
    points.dedup();
    let find = |rps, opt| rows.iter().find(|r| r.rps == rps && r.optimized == opt);
    points
        .into_iter()
        .filter_map(|rps| Some((find(rps, false)?, find(rps, true)?)))
        .collect()
}

/// Render sweep rows as the Fig 4 data table.
pub(crate) fn render_fig4(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str("# Fig 4: HTTP request latency (ms) vs offered load\n");
    out.push_str(
        "# rps | w/o opt p50 | w/ opt p50 | w/o opt p99 | w/ opt p99 | p50 speedup | p99 speedup\n",
    );
    for (b, o) in pairs(rows) {
        out.push_str(&format!(
            "{:>5} | {:>11.1} | {:>10.1} | {:>11.1} | {:>10.1} | {:>10.2}x | {:>10.2}x\n",
            b.rps,
            b.ls_p50_ms,
            o.ls_p50_ms,
            b.ls_p99_ms,
            o.ls_p99_ms,
            b.ls_p50_ms / o.ls_p50_ms.max(1e-9),
            b.ls_p99_ms / o.ls_p99_ms.max(1e-9),
        ));
    }
    out
}

/// Render the T1 batch-degradation table (§4.3's "<5 % increase in batch
/// p99" claim).
pub(crate) fn render_t1(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str("# T1: batch-analytics p99 (ms) with vs without prioritization\n");
    out.push_str("# rps | w/o opt p99 | w/ opt p99 | degradation\n");
    for (b, o) in pairs(rows) {
        let deg = (o.batch_p99_ms - b.batch_p99_ms) / b.batch_p99_ms.max(1e-9) * 100.0;
        out.push_str(&format!(
            "{:>5} | {:>11.1} | {:>10.1} | {:>+10.1}%\n",
            b.rps, b.batch_p99_ms, o.batch_p99_ms, deg,
        ));
    }
    out
}

/// The canonical flight world: e-library at 30+30 rps with the
/// paper-prototype optimizations.
pub(crate) fn fig4_flight(len: RunLength) -> SimSpec {
    elibrary_at(30.0, XLayerConfig::paper_prototype(), len)
}

/// Fig 4 (latency-sensitive p50/p99 vs RPS, with and without cross-layer
/// optimization) and the §4.3 batch-degradation claim (T1), plus the
/// telemetry artifacts of one short optimized run at the middle point.
pub(crate) fn fig4(ctx: &Ctx) -> u8 {
    let len = ctx.len;
    let (base, proto) = (XLayerConfig::baseline, XLayerConfig::paper_prototype);
    let points = match ctx.args.points.as_slice() {
        [] => vec![10.0, 20.0, 30.0, 40.0, 50.0],
        p => p.to_vec(),
    };
    eprintln!(
        "running fig4 sweep: rps={points:?}, {}s per run ({} runs)...",
        len.secs,
        points.len() * 2
    );
    let jobs: Vec<(f64, bool)> = points
        .iter()
        .flat_map(|&rps| [(rps, false), (rps, true)])
        .collect();
    let mut arms: Vec<Arm> = jobs
        .iter()
        .map(|&(rps, opt)| {
            let label = format!("rps{rps} {}", if opt { "opt" } else { "base" });
            let xl = if opt { proto() } else { base() };
            Arm::spec(label, elibrary_at(rps, xl, len))
        })
        .collect();
    // Kept short: the sweep already covers the curve.
    let mid = points[points.len() / 2];
    let telem_len = RunLength {
        secs: len.secs.min(10),
        warmup: len.warmup.min(2),
        ..len
    };
    let spec = elibrary_at(mid, proto(), telem_len);
    arms.push(
        Arm::spec(format!("rps{mid} telemetry"), spec)
            .artifacts("fig4", true)
            .with_spans(),
    );
    let runs = ctx.runs(arms);
    let rows: Vec<SweepRow> = jobs
        .iter()
        .zip(&runs)
        .map(|(&(rps, opt), m)| sweep_row(rps, opt, m))
        .collect();
    println!("{}", render_fig4(&rows));
    println!("{}", render_t1(&rows));
    println!("{}", serde_json::to_string_pretty(&rows).expect("rows"));
    0
}

/// T2: the sidecar overhead behind the §3.6 challenge — "the increased
/// latency imposed by the two sidecars interposed between each
/// application-layer end-to-end communication... in the range of 3 msec
/// at the 99th percentile for Istio". A chain app at several depths with
/// the proxy-overhead model on and off.
pub(crate) fn t2(ctx: &Ctx) -> u8 {
    const DEPTHS: [usize; 4] = [1, 2, 4, 8];
    let len = RunLength {
        secs: ctx.len.secs.min(15),
        ..ctx.len
    };
    let arms = DEPTHS
        .iter()
        .flat_map(|&depth| {
            [false, true].map(|mesh| {
                let mut spec = fanout(1, depth, 1, 0.5, 50.0);
                if !mesh {
                    spec.mesh.proxy_overhead = Dist::constant(0.0);
                    spec.config.app_sidecar_delay = SimDuration::ZERO;
                }
                len.apply(&mut spec);
                let label = format!("depth{depth}-{}", if mesh { "mesh" } else { "nomesh" });
                Arm::spec(label, spec)
            })
        })
        .collect();
    let p = ctx.fan_out(arms, |_, m| {
        let c = m.class("fanout").expect("class");
        (c.p50_ms, c.p99_ms)
    });
    println!("# T2: latency added by sidecar interposition (chain app, 50 rps)");
    println!("# depth = number of service hops after the ingress; each hop");
    println!("# crosses two sidecars, as in the paper's architecture.");
    println!(
        "# hops | p50 no-mesh | p50 mesh | p99 no-mesh | p99 mesh | p99 added | per 2-sidecar hop"
    );
    for (depth, pair) in DEPTHS.iter().zip(p.chunks(2)) {
        let [(p50_off, p99_off), (p50_on, p99_on)] = [pair[0], pair[1]];
        let added = p99_on - p99_off;
        // hops crossing two sidecars: ingress->root + chain = depth + 1.
        let per_hop = added / (*depth as f64 + 1.0);
        println!(
            "{depth:>6} | {p50_off:>11.2} | {p50_on:>8.2} | {p99_off:>11.2} | {p99_on:>8.2} | {added:>9.2} | {per_hop:>8.2} ms",
        );
    }
    println!();
    println!("# Istio's published figure is ~3 ms p99 for the two sidecars of one hop;");
    println!("# the default proxy-overhead model lands in the same order of magnitude.");
    0
}
