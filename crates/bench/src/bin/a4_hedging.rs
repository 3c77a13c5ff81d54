//! A4: request hedging (§3.4, paper ref \[50] "low latency via
//! redundancy") — issue a duplicate attempt when the first is slow, take
//! whichever responds first.
//!
//! A 4-replica backend with high service-time variance (log-normal):
//! hedging after ~p90 of the service time cuts the tail at a small
//! duplicate-work cost, entirely inside the sidecar.

use meshlayer_apps::fanout;
use meshlayer_bench::{write_telemetry_artifacts, RunLength};
use meshlayer_core::Simulation;
use meshlayer_simcore::{Dist, SimDuration};

fn main() {
    if let Some(code) = meshlayer_bench::handle_flight("a4_hedging") {
        std::process::exit(code);
    }
    let len = RunLength::from_env();
    let rps: f64 = meshlayer_bench::positional_args()
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(150.0);
    println!("# A4: request hedging at {rps} rps ({}s runs)", len.secs);
    println!("# 4 replicas, log-normal service time (mean 4 ms, sigma 1.2: heavy tail)");
    println!("# hedge delay | p50 (ms) | p90 (ms) | p99 (ms) | hedges | extra work");
    for hedge_ms in [0u64, 8, 15, 30] {
        let mut spec = fanout(1, 1, 4, 4.0, rps);
        // Heavy-tailed service time (replaces fanout's exponential).
        for svc in &mut spec.services {
            if svc.name.starts_with("svc-") {
                for (_, b) in &mut svc.behaviors {
                    b.on_request =
                        meshlayer_cluster::CallStep::Compute(Dist::lognormal(0.004, 1.2));
                }
            }
        }
        if hedge_ms > 0 {
            spec.mesh.default_policy.hedge_after = Some(SimDuration::from_millis(hedge_ms));
        }
        len.apply(&mut spec);
        let m = meshlayer_bench::run_profiled(
            &mut Simulation::build(spec),
            &format!("hedge{hedge_ms}"),
        );
        let c = m.class("fanout").expect("class");
        let extra = m.world.hedges as f64 / m.world.roots_started.max(1) as f64 * 100.0;
        let label = if hedge_ms == 0 {
            "off".to_string()
        } else {
            format!("{hedge_ms} ms")
        };
        println!(
            "{label:>11} | {:>8.2} | {:>8.2} | {:>8.2} | {:>6} | {:>9.1}%",
            c.p50_ms, c.p90_ms, c.p99_ms, m.world.hedges, extra
        );
        if hedge_ms == 15 {
            if let Err(e) = write_telemetry_artifacts("a4", &m, None) {
                eprintln!("telemetry artifacts failed: {e}");
            }
        }
    }
    println!();
    println!("# Expectation: a hedge delay near the service-time p90 trims p99 with");
    println!("# only a few percent duplicated requests.");
    meshlayer_bench::write_profile_artifact();
}
