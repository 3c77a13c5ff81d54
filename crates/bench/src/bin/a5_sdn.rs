//! A5: coordination with lower layers (§3.5) — the SDN controller feeds
//! link-utilization snapshots to the mesh, which steers requests away
//! from endpoints behind congested access links.
//!
//! One of three backend replicas sits behind a 100 Mbit/s access link
//! (the others have 10 Gbit/s); with 128 KiB responses, a third of the
//! traffic saturates the slow link. Compare: blind round robin, round
//! robin + SDN congestion filtering, and latency-EWMA (which infers the
//! same thing from response times, §3.3's "automatic inference" path).

use meshlayer_apps::fanout;
use meshlayer_bench::{write_telemetry_artifacts, RunLength};
use meshlayer_core::Simulation;
use meshlayer_mesh::LbPolicy;
use meshlayer_simcore::Dist;

fn main() {
    if let Some(code) = meshlayer_bench::handle_flight("a5_sdn") {
        std::process::exit(code);
    }
    let len = RunLength::from_env();
    let rps: f64 = meshlayer_bench::positional_args()
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(250.0);
    println!(
        "# A5: SDN-coordinated load balancing at {rps} rps ({}s runs)",
        len.secs
    );
    println!("# 3 replicas; replica 1's access link is 100 Mbit/s (others 10 Gbit/s);");
    println!("# 128 KiB responses -> blind balancing saturates the slow link (~90%).");
    println!("# variant              | p50 (ms) | p90 (ms) | p99 (ms) | slow-pod share");
    for (name, policy, sdn) in [
        ("RoundRobin", LbPolicy::RoundRobin, false),
        ("RoundRobin + SDN", LbPolicy::RoundRobin, true),
        ("PeakEwma (inference)", LbPolicy::PeakEwma, false),
    ] {
        let mut spec = fanout(1, 1, 3, 1.0, rps);
        for svc in &mut spec.services {
            if svc.name.starts_with("svc-") {
                for (_, b) in &mut svc.behaviors {
                    b.response_bytes = Dist::constant(131_072.0);
                }
            }
        }
        spec.network.default_rate_bps = 10_000_000_000;
        spec.network = spec.network.with_pod_rate("svc-c0-d0-1", 100_000_000);
        spec.mesh.default_policy.lb = policy;
        spec.xlayer.sdn_lb = sdn;
        len.apply(&mut spec);
        let m = meshlayer_bench::run_profiled(&mut Simulation::build(spec), name);
        let c = m.class("fanout").expect("class");
        let slow_jobs = m
            .pods
            .iter()
            .find(|p| p.name == "svc-c0-d0-1")
            .map(|p| p.jobs)
            .unwrap_or(0);
        let total: u64 = m
            .pods
            .iter()
            .filter(|p| p.name.starts_with("svc-c0-d0"))
            .map(|p| p.jobs)
            .sum();
        println!(
            "{name:<21} | {:>8.2} | {:>8.2} | {:>8.2} | {:>12.1}%",
            c.p50_ms,
            c.p90_ms,
            c.p99_ms,
            slow_jobs as f64 / total.max(1) as f64 * 100.0
        );
        if sdn {
            if let Err(e) = write_telemetry_artifacts("a5", &m, None) {
                eprintln!("telemetry artifacts failed: {e}");
            }
        }
    }
    println!();
    println!("# Expectation: the SDN signal removes the slow pod from rotation within");
    println!("# one observation window; EWMA converges to the same steady state from");
    println!("# latency alone (§3.3), validating both coordination paths the paper names.");
    meshlayer_bench::write_profile_artifact();
}
