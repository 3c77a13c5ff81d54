//! A6: closed-loop adaptation — the policy plane reacts to a live SLO
//! burn alert by pushing the paper-prototype optimizations mid-run.
//!
//! Three e-library runs at the same offered load:
//!
//! * **static baseline** — no cross-layer optimizations, ever. The
//!   batch class saturates the shared links and latency-sensitive p99
//!   collapses (the "before" half of Fig 4).
//! * **adaptive** — starts identical to the baseline, but the control
//!   plane watches the latency-sensitive SLO. When the burn-rate alert
//!   fires it proposes policy v2 (classification + subset routing +
//!   host TC + fabric prio), pushes it to every layer, and the run
//!   finishes optimized. The transition is versioned, acked per layer,
//!   visible in the `policy_version` gauge, and recorded in the flight
//!   log as `policy-apply` decisions.
//! * **static optimized** — prototype config from t=0: the upper bound
//!   the adaptive run should approach after its flip.
//!
//! The interesting number is the adaptive run's before/after split of
//! latency-sensitive p99 around the convergence instant.
//!
//! `--record` / `--replay` capture a fourth, shorter adaptive world (see
//! [`flight_spec`]) that walks every layer's install and reset path.

use meshlayer_apps::{elibrary, ElibraryParams};
use meshlayer_bench::{write_telemetry_artifacts, RunLength};
use meshlayer_core::{
    AdaptationConfig, FaultKind, FaultScript, RunMetrics, SimSpec, Simulation, XLayerConfig,
};
use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_telemetry::{GaugeKind, SloTarget, TelemetryConfig};

/// SLO: latency-sensitive requests should finish within this budget.
const SLO_LATENCY_MS: u64 = 100;
/// Fraction of requests allowed over the latency target.
const SLO_BUDGET: f64 = 0.05;

fn spec_at(rps: f64, adaptive: bool, len: RunLength) -> SimSpec {
    let params = ElibraryParams {
        ls_rps: rps,
        batch_rps: rps,
        ..ElibraryParams::default()
    };
    let mut spec = elibrary(&params);
    spec.xlayer = XLayerConfig::baseline();
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
    len.apply(&mut spec);
    spec
}

/// The recorded adaptive world. It starts at baseline (v1). A 1 ms target
/// burns at the first scrape with samples, so the controller pushes every
/// optimization as v2. At 60 % of the run a rollback re-pushes v1 as v3.
/// Between them the two pushes install and reset every layer: subset
/// routes, compute priority, the scavenger profile, host TC and fabric
/// priority queues.
fn flight_spec(len: RunLength) -> SimSpec {
    let mut spec = spec_at(30.0, false, len);
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

fn row(name: &str, m: &RunMetrics) {
    let ls = m.class("latency-sensitive").expect("ls class");
    let batch = m.class("batch-analytics").expect("batch class");
    println!(
        "{name:<22} | {:>8.1} | {:>8.1} | {:>9.1} | {:>8} | {:>6}",
        ls.p50_ms, ls.p99_ms, batch.p99_ms, ls.completed, m.world.pkt_drops
    );
}

fn main() {
    if let Some(code) = meshlayer_bench::handle_flight_with("a6_adaptation", &[], flight_spec) {
        std::process::exit(code);
    }
    let len = RunLength::from_env();
    let rps: f64 = meshlayer_bench::positional_args()
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(80.0);

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

    let base = meshlayer_bench::run_profiled(
        &mut Simulation::build(spec_at(rps, false, len)),
        "static baseline",
    );
    row("static baseline", &base);

    let mut sim = Simulation::build(spec_at(rps, true, len));
    let adapt = meshlayer_bench::run_profiled(&mut sim, "adaptive");
    row("adaptive (closed loop)", &adapt);

    let mut opt_spec = spec_at(rps, false, len);
    opt_spec.xlayer = XLayerConfig::paper_prototype();
    let opt = meshlayer_bench::run_profiled(&mut Simulation::build(opt_spec), "static optimized");
    row("static optimized", &opt);
    println!();

    meshlayer_bench::write_profile_artifact();
    let transitions = sim.policy().transitions();
    if transitions.is_empty() {
        println!("no policy transition fired: the SLO never burned at {rps} rps");
        println!("(raise the load or tighten the target to exercise the loop)");
        std::process::exit(0);
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
        std::process::exit(0);
    };
    let conv_s = conv.as_secs_f64();
    let horizon = adapt.sim_seconds;
    // Skip one second after convergence: queues built up before the flip
    // still have to drain through the new qdiscs.
    let settle_s = (conv_s + 1.0).min(horizon);
    let before = window_stats(&adapt, 0.0, conv_s);
    let after = window_stats(&adapt, settle_s, horizon);
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

    if let Err(e) = write_telemetry_artifacts("a6", &adapt, None) {
        eprintln!("telemetry artifacts failed: {e}");
    }

    // The same flip as a causal incident timeline: burn alert →
    // controller decision → policy push → convergence → recovery
    // anomaly, joined from telemetry and the transition history alone
    // (attach a flight log via `meshctl incident` for per-layer acks).
    println!();
    print!(
        "{}",
        meshlayer_core::build_incident_report(&adapt.telemetry, transitions, None).render()
    );
    println!();
    println!("# Expectation: before the flip the adaptive run tracks the static baseline;");
    println!("# after convergence its p99 drops toward the static-optimized bound, while");
    println!("# the version bump, per-layer acks and gauge step make the change auditable.");
}
