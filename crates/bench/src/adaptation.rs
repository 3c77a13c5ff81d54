//! A6: closed-loop adaptation — the policy plane reacts to a live SLO
//! burn alert by pushing the paper-prototype optimizations mid-run.
//!
//! Three e-library runs at the same offered load: a **static baseline**
//! (the "before" half of Fig 4), an **adaptive** run that starts as the
//! baseline and pushes policy v2 (classification + subset routing + host
//! TC + fabric prio) to every layer when the latency-sensitive SLO's
//! burn-rate alert fires, and a **static optimized** run, the bound the
//! adaptive one should approach after its flip. The interesting number
//! is the adaptive run's latency-sensitive p99 before and after the
//! convergence instant; the transition is versioned, acked per layer and
//! visible in the `policy_version` gauge.
//!
//! `--record` / `--replay` capture a fourth, shorter adaptive world (see
//! [`flight_spec`]) that walks every layer's install and reset path.

use crate::{elibrary_world, with_transitions, Arm, Ctx, RunLength};
use meshlayer_core::{AdaptationConfig, FaultKind, FaultScript, RunMetrics, SimSpec, XLayerConfig};
use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_telemetry::{GaugeKind, SloTarget, TelemetryConfig};

/// SLO: latency-sensitive requests should finish within this budget.
const SLO_LATENCY_MS: u64 = 100;
/// Fraction of requests allowed over the latency target.
const SLO_BUDGET: f64 = 0.05;

/// The e-library world at `rps` under `xlayer`, with the
/// latency-sensitive SLO target set and, when `adaptive`, the controller
/// that pushes the prototype policy when it burns; no run length applied.
/// Also the world of A7.4 and the `incident` views.
pub(crate) fn slo_world(rps: f64, xlayer: XLayerConfig, adaptive: bool) -> SimSpec {
    let mut spec = elibrary_world(rps, xlayer);
    spec.config.telemetry = TelemetryConfig::default().with_target(SloTarget::new(
        "latency-sensitive",
        SimDuration::from_millis(SLO_LATENCY_MS),
        SLO_BUDGET,
    ));
    if adaptive {
        spec.adaptation = Some(AdaptationConfig::new(
            "latency-sensitive",
            XLayerConfig::paper_prototype(),
        ));
    }
    spec
}

/// The recorded adaptive world. It starts at baseline (v1). A 1 ms target
/// burns at the first scrape with samples, so the controller pushes every
/// optimization as v2. At 60 % of the run a rollback re-pushes v1 as v3.
/// Between them the two pushes install and reset every layer: subset
/// routes, compute priority, the scavenger profile, host TC and fabric
/// priority queues.
pub(crate) fn flight_spec(len: RunLength) -> SimSpec {
    let mut spec = slo_world(30.0, XLayerConfig::baseline(), false);
    len.apply(&mut spec);
    spec.config.telemetry = TelemetryConfig::default().with_target(SloTarget::new(
        "latency-sensitive",
        SimDuration::from_millis(1),
        SLO_BUDGET,
    ));
    spec.adaptation = Some(AdaptationConfig::new(
        "latency-sensitive",
        XLayerConfig::full(),
    ));
    spec.chaos = Some(FaultScript::new().with(
        SimTime::from_millis(len.secs * 600),
        FaultKind::Rollback { to_version: 1 },
    ));
    spec
}

/// Count-weighted mean of per-interval latency stats over `[from_s, to_s)`.
fn window_stats(m: &RunMetrics, from_s: f64, to_s: f64) -> Option<(f64, f64, u64)> {
    let series = m.telemetry.class("latency-sensitive")?;
    let mut total = 0u64;
    let (mut p99, mut mean) = (0.0, 0.0);
    for p in &series.points {
        if p.count == 0 || p.t_s < from_s || p.t_s >= to_s {
            continue;
        }
        total += p.count;
        p99 += p.p99_ms * p.count as f64;
        mean += p.mean_ms * p.count as f64;
    }
    if total == 0 {
        return None;
    }
    Some((p99 / total as f64, mean / total as f64, total))
}

pub(crate) fn a6(ctx: &Ctx) -> u8 {
    let (rps, len) = (ctx.point(80.0), ctx.len);
    let variants = [
        ("static baseline", XLayerConfig::baseline(), false),
        ("adaptive (closed loop)", XLayerConfig::baseline(), true),
        ("static optimized", XLayerConfig::paper_prototype(), false),
    ];
    let arms = variants
        .iter()
        .map(|(name, xl, adaptive)| {
            let mut spec = slo_world(rps, *xl, *adaptive);
            len.apply(&mut spec);
            Arm::spec(*name, spec).artifacts("a6", *adaptive)
        })
        .collect();
    let runs = ctx.fan_out(arms, with_transitions);

    println!(
        "# A6: closed-loop adaptation at {rps} rps ({}s runs, seed {})",
        len.secs, len.seed
    );
    println!(
        "# SLO: latency-sensitive p(latency <= {SLO_LATENCY_MS} ms) with {:.0}% error budget;",
        SLO_BUDGET * 100.0
    );
    println!("# the adaptive run starts baseline and pushes the prototype policy when");
    println!("# the burn-rate alert fires. Static runs bracket it from both sides.");
    println!("# variant               | p50 (ms) | p99 (ms) | batch p99 | ls done |  drops");
    for ((name, ..), (m, _)) in variants.iter().zip(&runs) {
        let ls = m.class("latency-sensitive").expect("ls class");
        let batch = m.class("batch-analytics").expect("batch class");
        println!(
            "{name:<22} | {:>8.1} | {:>8.1} | {:>9.1} | {:>8} | {:>6}",
            ls.p50_ms, ls.p99_ms, batch.p99_ms, ls.completed, m.world.pkt_drops
        );
    }
    println!();

    let (adapt, transitions) = &runs[1];
    if transitions.is_empty() {
        println!("no policy transition fired: the SLO never burned at {rps} rps");
        println!("(raise the load or tighten the target to exercise the loop)");
        return 0;
    }
    for t in transitions {
        let conv = t
            .converged_at
            .map(|c| format!("{:.2}s", c.as_secs_f64()))
            .unwrap_or_else(|| "never".into());
        println!(
            "policy transition: v{} reason={} proposed={:.2}s converged={}",
            t.version,
            t.reason,
            t.proposed_at.as_secs_f64(),
            conv
        );
    }
    // The flip is visible from telemetry alone: the policy_version gauge
    // steps to v2 at the first scrape after convergence.
    if let Some(g) = adapt.telemetry.gauge(GaugeKind::PolicyVersion, "fleet") {
        if let Some(p) = g.points.iter().find(|p| p.value >= 2.0) {
            println!("policy_version gauge reads v{} at t={:.2}s", p.value, p.t_s);
        }
    }

    let Some(conv) = transitions[0].converged_at else {
        println!("transition never converged; no before/after split");
        return 0;
    };
    let conv_s = conv.as_secs_f64();
    let horizon = adapt.sim_seconds;
    // Skip one second after convergence: queues built up before the flip
    // still have to drain through the new qdiscs.
    let settle_s = (conv_s + 1.0).min(horizon);
    let before = window_stats(adapt, 0.0, conv_s);
    let after = window_stats(adapt, settle_s, horizon);
    match (before, after) {
        (Some((b_p99, b_mean, b_n)), Some((a_p99, a_mean, a_n))) => {
            println!();
            println!("# adaptive run, latency-sensitive, split at convergence ({conv_s:.2}s):");
            println!("#  window             | p99 (ms) | mean (ms) | samples");
            println!("before flip (0..{conv_s:.1}s)  | {b_p99:>8.1} | {b_mean:>9.1} | {b_n:>7}");
            println!(
                "after flip ({settle_s:.1}..{horizon:.0}s) | {a_p99:>8.1} | {a_mean:>9.1} | {a_n:>7}"
            );
            println!(
                "p99 recovery: {b_p99:.1} ms -> {a_p99:.1} ms ({:.2}x)",
                b_p99 / a_p99.max(1e-9)
            );
        }
        _ => println!("not enough samples on one side of the flip for a split"),
    }

    // The same flip as a causal incident timeline: burn alert →
    // controller decision → policy push → convergence → recovery
    // anomaly, joined from telemetry and the transition history alone
    // (`experiment incident` attaches a flight log for per-layer acks).
    println!();
    print!(
        "{}",
        meshlayer_core::build_incident_report(&adapt.telemetry, transitions, None).render()
    );
    println!();
    println!("# Expectation: before the flip the adaptive run tracks the static baseline;");
    println!("# after convergence its p99 drops toward the static-optimized bound, while");
    println!("# the version bump, per-layer acks and gauge step make the change auditable.");
    0
}
