//! Operator views: one run each, rendered as the table an operator reads.
//! Unlike the experiments, a view keeps the simulator's default seed and
//! derives its warm-up from the run length (a quarter, at least 1 s).

use crate::adaptation::slo_world;
use crate::{elibrary_world, incident_report, with_transitions, Arm, Ctx};
use meshlayer_core::{FaultKind, FaultScript, SimSpec, TopoMix, TopoParams, XLayerConfig};
use meshlayer_mesh::Sampling;
use meshlayer_simcore::{SimDuration, SimTime};

/// Run `spec` for `secs` with a quarter of it (at least 1 s) as warm-up.
fn view_len(mut spec: SimSpec, secs: u64) -> SimSpec {
    spec.config.duration = SimDuration::from_secs(secs);
    spec.config.warmup = SimDuration::from_secs((secs / 4).max(1));
    spec
}

/// `incident`: drive the closed adaptation loop (A6's setup) at a
/// contended load with a flight capture attached, then join burn alerts,
/// anomalies, the policy transition, per-layer acks and the recovery into
/// one ordered causal timeline.
pub(crate) fn incident(ctx: &Ctx) -> u8 {
    run_incident(ctx, "incident", None)
}

/// `chaos`: the same closed loop with a deterministic fault script
/// injected mid-run — a gray `ratings` replica followed by a short
/// `reviews` partition. The capture tags every injection, so the
/// timeline's causal chain starts at the fault, not at the alert.
pub(crate) fn chaos(ctx: &Ctx) -> u8 {
    let ms = ctx.len.secs * 1000;
    let script = FaultScript::new()
        .with(
            SimTime::from_millis(ms / 4),
            FaultKind::GrayFailure {
                service: "ratings".into(),
                replica: 0,
                speed_factor: 2.0,
                failure_rate: 0.4,
                clear_after: Some(SimDuration::from_millis(ms / 5)),
            },
        )
        .with(
            SimTime::from_millis(ms / 2),
            FaultKind::Partition {
                service: "reviews".into(),
                heal_after: SimDuration::from_millis(ms / 8),
            },
        );
    print!("{}", script.render());
    run_incident(ctx, "chaos", Some(script))
}

fn run_incident(ctx: &Ctx, name: &'static str, chaos: Option<FaultScript>) -> u8 {
    let (rps, secs) = (ctx.point(80.0), ctx.len.secs);
    let mut spec = view_len(slo_world(rps, XLayerConfig::baseline(), true), secs);
    spec.chaos = chaos;
    eprintln!(
        "running adaptive e-library at {rps}+{rps} rps for {secs}s (capturing flight log)..."
    );
    let arm = Arm::recorded(name, name, spec);
    let (m, transitions) = &ctx.fan_out(vec![arm], with_transitions)[0];
    let report = incident_report(m, transitions, name);
    print!("{}", report.render());
    u8::from(!report.complete)
}

/// `links`: a generated ~200-pod fabric under the background-heavy mix
/// with the background classes as fluid rate flows (DESIGN.md §14), then
/// the per-link utilization table with the packet vs fluid byte split,
/// busiest links first. Every column derives from simulation counters,
/// never wall clock, so two invocations print the same bytes.
pub(crate) fn links(ctx: &Ctx) -> u8 {
    let (rps, secs) = (ctx.point(20_000.0), ctx.len.secs);
    let mut p = TopoParams::sized(200, rps);
    p.mix = TopoMix::BackgroundFluid;
    eprintln!(
        "running a {}-pod generated fabric at {rps:.0} rps (fluid background) for {secs}s...",
        p.pod_count()
    );
    let spec = view_len(p.spec(), secs);
    let m = ctx.runs(vec![Arm::spec("links", spec)]).remove(0);
    let sim_s = m.sim_seconds.max(1e-9);
    // Share of line rate per plane, from deterministic byte counters.
    let share = |bytes: u64, rate_bps: u64| bytes as f64 * 8.0 / (rate_bps as f64 * sim_s);
    let mut rows: Vec<_> = m.links.iter().collect();
    // Busiest first; ties break on the (unique) rendered name so the
    // ordering — and therefore the byte output — is total.
    rows.sort_by(|a, b| {
        let ua = share(a.tx_bytes + a.fluid_bytes, a.rate_bps);
        let ub = share(b.tx_bytes + b.fluid_bytes, b.rate_bps);
        ub.partial_cmp(&ua)
            .unwrap()
            .then_with(|| a.name.cmp(&b.name))
    });
    const TOP: usize = 12;
    println!(
        "# links: top {} of {} by utilization (packet + fluid share of line rate)",
        TOP.min(rows.len()),
        rows.len()
    );
    println!(
        "# link                           | rate Gbps | pkt MiB  | fluid MiB | pkt%  | fluid% | drops | fluid-drop B"
    );
    for l in rows.iter().take(TOP) {
        println!(
            "{:<33} | {:>9.1} | {:>8.2} | {:>9.2} | {:>5.1} | {:>6.1} | {:>5} | {:>12}",
            l.name,
            l.rate_bps as f64 / 1e9,
            l.tx_bytes as f64 / (1024.0 * 1024.0),
            l.fluid_bytes as f64 / (1024.0 * 1024.0),
            share(l.tx_bytes, l.rate_bps) * 100.0,
            share(l.fluid_bytes, l.rate_bps) * 100.0,
            l.drops,
            l.fluid_drop_bytes,
        );
    }
    let pkt: u64 = m.links.iter().map(|l| l.tx_bytes).sum();
    let fluid: u64 = m.links.iter().map(|l| l.fluid_bytes).sum();
    let fdrop: u64 = m.links.iter().map(|l| l.fluid_drop_bytes).sum();
    println!("totals: pkt_bytes={pkt} fluid_bytes={fluid} fluid_drop_bytes={fdrop}");
    for f in &m.fluid {
        println!(
            "fluid class {}: flows={} demand_bps={} alloc_bps={} delivered={} dropped={}",
            f.class, f.flows, f.demand_bps, f.alloc_bps, f.delivered_bytes, f.dropped_bytes
        );
    }
    if fluid == 0 {
        eprintln!("links: FAIL: no fluid bytes flowed on any link");
        return 1;
    }
    0
}

/// `top`: the fleet roll-up view. One run, then the merged pod →
/// service → zone → mesh latency hierarchy — every row's quantiles are
/// true quantiles over its members' samples (exact sketch merge), not
/// averages of averages.
pub(crate) fn top(ctx: &Ctx) -> u8 {
    let (rps, secs) = (ctx.point(30.0), ctx.len.secs);
    eprintln!("running e-library at {rps}+{rps} rps for {secs}s...");
    let spec = view_len(elibrary_world(rps, XLayerConfig::paper_prototype()), secs);
    let m = ctx.runs(vec![Arm::spec("top", spec)]).remove(0);
    if m.telemetry.rollup.is_empty() {
        eprintln!("no roll-up rows (no requests completed?)");
        return 1;
    }
    println!(
        "# level   name                     parent           count   err |   p50ms   p99ms   maxms"
    );
    for r in &m.telemetry.rollup {
        let indent = match r.level.as_str() {
            "mesh" => "",
            "zone" | "service" => "  ",
            _ => "    ",
        };
        println!(
            "{:<9} {:<24} {:<16} {:>6} {:>5} | {:>7.1} {:>7.1} {:>7.1}",
            r.level,
            format!("{indent}{}", r.name),
            r.parent,
            r.count,
            r.errors,
            r.p50_ms,
            r.p99_ms,
            r.max_ms
        );
    }
    0
}

/// `trace`: one fully sampled run, its metrics, then the slowest
/// distributed trace with its critical path.
pub(crate) fn trace(ctx: &Ctx) -> u8 {
    let (rps, secs) = (ctx.point(30.0), ctx.len.secs);
    let mut spec = view_len(elibrary_world(rps, XLayerConfig::paper_prototype()), secs);
    spec.mesh.sampling = Sampling::Always;
    let (m, slowest) = ctx
        .fan_out(vec![Arm::spec("trace", spec)], |sim, m| {
            let traces = sim.tracer().traces();
            let slowest = traces
                .iter()
                .filter(|t| t.root().is_some())
                .max_by_key(|t| t.duration().unwrap_or_default())
                .map(|t| {
                    format!(
                        "slowest of {} traces ({}):\n{}critical path: {}\n",
                        traces.len(),
                        t.duration().unwrap_or_default(),
                        t.render(),
                        t.critical_path().join(" -> ")
                    )
                });
            (m, slowest)
        })
        .remove(0);
    println!("{}", m.render());
    let Some(slowest) = slowest else {
        eprintln!("no complete traces collected");
        return 1;
    };
    print!("{slowest}");
    0
}
