//! A7: deterministic chaos — seeded fault scripts driven through the
//! engine's event loop, every injection a tagged flight frame.
//!
//! Four experiments over the resilience machinery §3.4 describes:
//!
//! * **A7.1 retry-storm amplification** — a gray `ratings` replica under
//!   contended load; the retry *budget* (Envoy's `retry_budget`) is the
//!   difference between a bounded recovery and a storm. Reported as the
//!   amplification factor (attempts per RPC) with the budget off vs on.
//! * **A7.2 outlier-ejection recovery** — crash one `reviews` replica,
//!   restart it mid-run; the callers' outlier detectors must eject the
//!   stale endpoint (discovery keeps advertising it) and un-eject after
//!   the restart. Reported as the p99 recovery time after the restart.
//! * **A7.3 breaker under gray failure** — a slow-but-alive replica in a
//!   4-replica pool, with and without hedging. Hedged attempts that lose
//!   the race are *cancelled*, and a cancel is health-neutral — it must
//!   not heal the breaker (the regression this PR pins down).
//! * **A7.4 closed-loop adaptation under injected faults** — A6's
//!   burn-alert → policy-push loop with a mid-run `ratings` partition,
//!   captured to a flight log so the incident timeline joins the
//!   injected fault into its causal chain as the root cause.
//!
//! `--record` / `--replay` exercise the canonical chaos capture: one run
//! scheduling **all five fault kinds**, recorded (or replayed)
//! bit-identically.

use meshlayer_apps::{elibrary, fanout, ElibraryParams};
use meshlayer_bench::{artifact_dir, RunLength};
use meshlayer_core::{
    build_incident_report, AdaptationConfig, FaultKind, FaultScript, RunMetrics, SimSpec,
    Simulation, XLayerConfig,
};
use meshlayer_mesh::ClusterPolicy;
use meshlayer_simcore::{Dist, SimDuration, SimTime};
use meshlayer_telemetry::{SloTarget, TelemetryConfig};

/// Script times scale with the run length so the same scenario works at
/// CI's 6 s and the default 30 s.
fn frac_t(len: RunLength, frac: f64) -> SimTime {
    SimTime::from_millis((len.secs as f64 * frac * 1000.0) as u64)
}

fn frac_d(len: RunLength, frac: f64) -> SimDuration {
    SimDuration::from_millis((len.secs as f64 * frac * 1000.0) as u64)
}

/// The canonical chaos capture: the e-library world with every fault
/// kind scheduled once. Pure function of the run length, so record and
/// replay build identical specs.
fn chaos_flight_spec(len: RunLength) -> SimSpec {
    let params = ElibraryParams {
        ls_rps: 30.0,
        batch_rps: 30.0,
        ..ElibraryParams::default()
    };
    let mut spec = elibrary(&params);
    spec.xlayer = XLayerConfig::paper_prototype();
    len.apply(&mut spec);
    spec.chaos = Some(
        FaultScript::new()
            .with(
                frac_t(len, 0.15),
                FaultKind::PodCrash {
                    service: "reviews".into(),
                    replica: 1,
                    restart_after: Some(frac_d(len, 0.2)),
                },
            )
            .with(
                frac_t(len, 0.3),
                FaultKind::GrayFailure {
                    service: "ratings".into(),
                    replica: 0,
                    speed_factor: 3.0,
                    failure_rate: 0.3,
                    clear_after: Some(frac_d(len, 0.2)),
                },
            )
            .with(
                frac_t(len, 0.45),
                FaultKind::LinkFlap {
                    service: "details".into(),
                    replica: 0,
                    up_after: frac_d(len, 0.15),
                },
            )
            .with(frac_t(len, 0.55), FaultKind::Rollback { to_version: 1 })
            .with(
                frac_t(len, 0.65),
                FaultKind::Partition {
                    service: "reviews".into(),
                    heal_after: frac_d(len, 0.1),
                },
            ),
    );
    spec
}

/// Apply `f` to every policy the spec carries (the default and any
/// per-cluster override) so a knob change reaches every cluster.
fn for_each_policy(spec: &mut SimSpec, mut f: impl FnMut(&mut ClusterPolicy)) {
    f(&mut spec.mesh.default_policy);
    for p in spec.mesh.cluster_policies.values_mut() {
        f(p);
    }
}

/// Set the retry budget on every policy the spec carries; 0 disables
/// the budget check.
fn set_budget(spec: &mut SimSpec, ratio: f64) {
    for_each_policy(spec, |p| p.retry.budget_ratio = ratio);
}

/// Push the breaker threshold out of reach. A 50 %-failing replica
/// opens the default breaker (5 consecutive 5xx) almost immediately and
/// its 5 s open period then fail-fasts the rest of a short run — which
/// smothers whichever *other* primitive a scenario is trying to study.
fn disable_breaker(spec: &mut SimSpec) {
    for_each_policy(spec, |p| p.breaker.failure_threshold = u32::MAX);
}

/// Push outlier ejection out of reach (same isolation logic).
fn disable_outlier(spec: &mut SimSpec) {
    for_each_policy(spec, |p| p.outlier.consecutive_5xx = u32::MAX);
}

/// Attempts per RPC across the fleet: 1.0 means no request was ever
/// retried or hedged; a storm pushes it far above.
fn amplification(m: &RunMetrics) -> f64 {
    m.fleet.outbound_requests as f64 / (m.world.rpcs as f64).max(1.0)
}

/// A7.1: the same gray-ratings incident with the retry budget off vs on.
fn retry_storm(rps: f64, len: RunLength) -> (f64, f64) {
    println!("## A7.1: retry-storm amplification (gray ratings replica at {rps} rps)");
    println!("#  budget | retries | fail-fast |  5xx   | amplification | LS p99 (ms)");
    let mut amps = (0.0, 0.0);
    for budget_on in [false, true] {
        let params = ElibraryParams {
            ls_rps: rps,
            batch_rps: rps,
            ..ElibraryParams::default()
        };
        let mut spec = elibrary(&params);
        spec.xlayer = XLayerConfig::paper_prototype();
        len.apply(&mut spec);
        set_budget(&mut spec, if budget_on { 0.2 } else { 0.0 });
        // Isolate the retry path: with the breaker or ejection active the
        // gray replica gets cut off and no storm can form at all.
        disable_breaker(&mut spec);
        disable_outlier(&mut spec);
        for_each_policy(&mut spec, |p| p.retry.max_retries = 3);
        spec.chaos = Some(FaultScript::new().with(
            frac_t(len, 0.35),
            FaultKind::GrayFailure {
                service: "ratings".into(),
                replica: 0,
                speed_factor: 2.0,
                failure_rate: 0.9,
                clear_after: Some(frac_d(len, 0.3)),
            },
        ));
        let m = meshlayer_bench::run_profiled(
            &mut Simulation::build(spec),
            &format!("storm budget={budget_on}"),
        );
        let amp = amplification(&m);
        if budget_on {
            amps.1 = amp;
        } else {
            amps.0 = amp;
        }
        let ls = m.class("latency-sensitive").expect("ls class");
        println!(
            "{:>8} | {:>7} | {:>9} | {:>6} | {:>13.3} | {:>11.1}",
            if budget_on { "on" } else { "off" },
            m.fleet.retries,
            m.fleet.fail_fast,
            m.fleet.resp_5xx,
            amp,
            ls.p99_ms
        );
    }
    println!(
        "amplification factor: {:.3} with budget off vs {:.3} with budget on",
        amps.0, amps.1
    );
    println!();
    amps
}

/// A7.2: crash + restart one `reviews` replica; how long after the
/// restart does latency-sensitive p99 return to its pre-fault level?
fn outlier_recovery(rps: f64, len: RunLength) {
    println!("## A7.2: outlier-ejection recovery after a crashed replica returns");
    let crash_frac = 0.3;
    let down_frac = 0.2;
    let params = ElibraryParams {
        ls_rps: rps,
        batch_rps: rps,
        ..ElibraryParams::default()
    };
    let mut spec = elibrary(&params);
    spec.xlayer = XLayerConfig::paper_prototype();
    len.apply(&mut spec);
    // Default ejection (30 s) outlives short runs; scale it down so the
    // detector re-probes the restarted pod within the window. The
    // breaker is out of the picture here: it is cluster-scoped, so one
    // dead replica opening it would fail-fast the healthy replica too.
    let ejection = frac_d(len, 0.05);
    for_each_policy(&mut spec, |p| p.outlier.base_ejection = ejection);
    disable_breaker(&mut spec);
    spec.chaos = Some(FaultScript::new().with(
        frac_t(len, crash_frac),
        FaultKind::PodCrash {
            service: "reviews".into(),
            replica: 1,
            restart_after: Some(frac_d(len, down_frac)),
        },
    ));
    let m = meshlayer_bench::run_profiled(&mut Simulation::build(spec), "outlier recovery");
    for p in &m.pods {
        if p.name.starts_with("reviews") {
            println!(
                "pod {:<12} jobs={:<6} peak_queue={}",
                p.name, p.jobs, p.peak_queue
            );
        }
    }
    println!(
        "fleet: {} retries, {} fail-fasts, {} 5xx",
        m.fleet.retries, m.fleet.fail_fast, m.fleet.resp_5xx
    );
    let crash_s = frac_t(len, crash_frac).as_secs_f64();
    let restart_s = crash_s + frac_d(len, down_frac).as_secs_f64();
    match p99_recovery_after(&m, crash_s, restart_s) {
        Some((baseline, at_s)) => println!(
            "ejection recovery: p99 back under 1.5x pre-fault baseline ({baseline:.1} ms) \
             {:.1}s after the restart at {restart_s:.1}s",
            at_s - restart_s
        ),
        None => println!(
            "ejection recovery: p99 did not return to 1.5x the pre-fault baseline before \
             the run ended (restart at {restart_s:.1}s)"
        ),
    }
    println!();
}

/// First telemetry interval at/after `restart_s` whose latency-sensitive
/// p99 is back within 1.5x the pre-fault baseline. Returns
/// `(baseline_p99_ms, recovery_t_s)`.
fn p99_recovery_after(m: &RunMetrics, crash_s: f64, restart_s: f64) -> Option<(f64, f64)> {
    let series = m.telemetry.class("latency-sensitive")?;
    let pre: Vec<_> = series
        .points
        .iter()
        .filter(|p| p.count > 0 && p.t_s < crash_s)
        .collect();
    if pre.is_empty() {
        return None;
    }
    let baseline = pre.iter().map(|p| p.p99_ms * p.count as f64).sum::<f64>()
        / pre.iter().map(|p| p.count as f64).sum::<f64>();
    series
        .points
        .iter()
        .find(|p| p.count > 0 && p.t_s >= restart_s && p.p99_ms <= baseline * 1.5)
        .map(|p| (baseline, p.t_s))
}

/// A7.3: a gray replica in a 4-replica pool, hedging off vs on. The
/// breaker must open on the gray replica either way: a cancelled hedge
/// loser is health-neutral and must not reset its failure streak.
fn gray_breaker(rps: f64, len: RunLength) {
    println!("## A7.3: circuit breaker under gray failure, hedging off vs on ({rps} rps)");
    println!("#    hedge | p50 (ms) | p99 (ms) | hedges | retries | fail-fast");
    for hedge in [false, true] {
        let mut spec = fanout(1, 1, 4, 4.0, rps);
        // Heavy-tailed service time so hedges fire on the tail.
        for svc in &mut spec.services {
            if svc.name.starts_with("svc-") {
                for (_, b) in &mut svc.behaviors {
                    b.on_request =
                        meshlayer_cluster::CallStep::Compute(Dist::lognormal(0.004, 1.2));
                }
            }
        }
        if hedge {
            spec.mesh.default_policy.hedge_after = Some(SimDuration::from_millis(12));
        }
        len.apply(&mut spec);
        spec.chaos = Some(FaultScript::new().with(
            frac_t(len, 0.3),
            FaultKind::GrayFailure {
                service: "svc-c0-d0".into(),
                replica: 0,
                speed_factor: 8.0,
                failure_rate: 0.3,
                clear_after: Some(frac_d(len, 0.3)),
            },
        ));
        let m = meshlayer_bench::run_profiled(
            &mut Simulation::build(spec),
            &format!("gray hedge={hedge}"),
        );
        let c = m.class("fanout").expect("fanout class");
        println!(
            "{:>10} | {:>8.2} | {:>8.2} | {:>6} | {:>7} | {:>9}",
            if hedge { "12 ms" } else { "off" },
            c.p50_ms,
            c.p99_ms,
            m.world.hedges,
            m.fleet.retries,
            m.fleet.fail_fast
        );
    }
    println!();
}

/// A7.4: A6's closed loop with a mid-run partition, flight-recorded so
/// the incident timeline joins the injected fault as the root cause.
fn adaptation_incident(rps: f64, len: RunLength) {
    // The flight capture at this load grows ~1 GiB per 3 simulated
    // seconds and is loaded back whole for the incident join, so cap
    // this scenario at 8 s — the fault, alert, push and recovery all
    // land inside that window (the other scenarios use the full length).
    let len = RunLength {
        secs: len.secs.min(8),
        ..len
    };
    println!(
        "## A7.4: closed-loop adaptation under an injected partition ({rps} rps, {}s)",
        len.secs
    );
    let params = ElibraryParams {
        ls_rps: rps,
        batch_rps: rps,
        ..ElibraryParams::default()
    };
    let mut spec = elibrary(&params);
    spec.xlayer = XLayerConfig::baseline();
    spec.config.telemetry = TelemetryConfig::default().with_target(SloTarget::new(
        "latency-sensitive",
        SimDuration::from_millis(100),
        0.05,
    ));
    spec.adaptation = Some(AdaptationConfig::new(
        "latency-sensitive",
        XLayerConfig::paper_prototype(),
    ));
    len.apply(&mut spec);
    let script = FaultScript::new().with(
        frac_t(len, 0.25),
        FaultKind::Partition {
            service: "ratings".into(),
            heal_after: frac_d(len, 0.1),
        },
    );
    print!("{}", script.render());
    spec.chaos = Some(script);
    let mut sim = Simulation::build(spec);
    let path = artifact_dir().join("a7_incident.flight");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = sim.record_to("a7_incident", &path) {
        eprintln!("cannot attach flight capture at {}: {e}", path.display());
        return;
    }
    let m = meshlayer_bench::run_profiled(&mut sim, "adaptation under partition");
    let log = match meshlayer_flightrec::FlightLog::load(&path) {
        Ok(log) => Some(log),
        Err(e) => {
            eprintln!("flight log unreadable: {e}");
            None
        }
    };
    let report = build_incident_report(&m.telemetry, sim.policy().transitions(), log.as_ref());
    print!("{}", report.render());
    println!();
}

fn main() {
    if let Some(code) = meshlayer_bench::handle_flight_with("a7_chaos", &[], chaos_flight_spec) {
        std::process::exit(code);
    }
    let len = RunLength::from_env();
    let rps: f64 = meshlayer_bench::positional_args()
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(80.0);
    println!(
        "# A7: deterministic chaos at {rps} rps ({}s runs, seed {})",
        len.secs, len.seed
    );
    println!("# every fault is a seeded script event: same spec + seed => same injections,");
    println!("# same flight frames, bit-identical replay.");
    println!();
    retry_storm(rps, len);
    outlier_recovery(rps, len);
    gray_breaker(150.0, len);
    adaptation_incident(rps, len);
    meshlayer_bench::write_profile_artifact();
    println!("# Expectation: the budget caps the storm (amplification close to 1 with it");
    println!("# on), ejection recovers within a few intervals of the restart, hedging does");
    println!("# not mask the gray replica's breaker, and the incident chain begins at the");
    println!("# injected fault.");
}
