//! A3: adaptive replica selection (§3.4, paper refs \[30]/\[50]) — the sidecar's
//! load-balancing policy versus a straggler replica.
//!
//! One of four backend replicas runs 8× slower. Round-robin and random
//! keep sending it 25 % of traffic; least-request and latency-EWMA route
//! around it, cutting the tail — the "adaptive replica selection in the
//! sidecar" direction the paper proposes.

use meshlayer_apps::fanout;
use meshlayer_bench::{write_telemetry_artifacts, RunLength};
use meshlayer_core::Simulation;
use meshlayer_mesh::LbPolicy;

fn main() {
    if let Some(code) = meshlayer_bench::handle_flight("a3_lb_tail") {
        std::process::exit(code);
    }
    let len = RunLength::from_env();
    let rps: f64 = meshlayer_bench::positional_args()
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(200.0);
    println!(
        "# A3: LB policy vs a straggler replica ({rps} rps, {}s runs)",
        len.secs
    );
    println!("# one of 4 replicas is 8x slower (exp service time, mean 2 ms vs 16 ms)");
    println!("# policy        | p50 (ms) | p90 (ms) | p99 (ms) | straggler share");
    for policy in [
        LbPolicy::RoundRobin,
        LbPolicy::Random,
        LbPolicy::LeastRequest,
        LbPolicy::PeakEwma,
    ] {
        // Single 1-deep service with 4 replicas behind the root.
        let mut spec = fanout(1, 1, 4, 2.0, rps);
        spec.mesh.default_policy.lb = policy;
        len.apply(&mut spec);
        let mut sim = Simulation::build(spec);
        // Mark replica 0 of the leaf service as the straggler.
        let straggler = sim.cluster().endpoints("svc-c0-d0", None)[0];
        sim.cluster_mut().pod_mut(straggler).speed_factor = 8.0;
        let m = meshlayer_bench::run_profiled(&mut sim, &format!("{policy:?}"));
        let c = m.class("fanout").expect("class");
        let straggler_jobs = m
            .pods
            .iter()
            .find(|p| p.name == "svc-c0-d0-1")
            .map(|p| p.jobs)
            .unwrap_or(0);
        let all_jobs: u64 = m
            .pods
            .iter()
            .filter(|p| p.name.starts_with("svc-c0-d0"))
            .map(|p| p.jobs)
            .sum();
        let share = straggler_jobs as f64 / all_jobs.max(1) as f64 * 100.0;
        println!(
            "{:<14} | {:>8.2} | {:>8.2} | {:>8.2} | {:>14.1}%",
            format!("{policy:?}"),
            c.p50_ms,
            c.p90_ms,
            c.p99_ms,
            share,
        );
        if policy == LbPolicy::PeakEwma {
            if let Err(e) = write_telemetry_artifacts("a3", &m, None) {
                eprintln!("telemetry artifacts failed: {e}");
            }
        }
    }
    println!();
    println!("# Expectation: PeakEwma/LeastRequest starve the straggler and cut p99;");
    println!("# RoundRobin/Random keep feeding it a full quarter of the traffic.");
    meshlayer_bench::write_profile_artifact();
}
