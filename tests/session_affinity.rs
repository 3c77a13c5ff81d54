//! Session affinity through the full stack: six workloads each stamp one
//! random `x-session-key`, the sidecar's RingHash policy pins each key to
//! a replica, and every request of a key lands on the same one.

use meshlayer::cluster::{ServiceBehavior, ServiceSpec};
use meshlayer::core::{SimSpec, Simulation};
use meshlayer::mesh::LbPolicy;
use meshlayer::simcore::{SimDuration, SimRng};
use meshlayer::workload::WorkloadSpec;

fn run(policy: LbPolicy, seed: u64) -> Vec<u64> {
    // Single-tier service with 4 replicas; requests carry session keys.
    let backend = ServiceSpec::new("kv", 4, ServiceBehavior::leaf(0.001, 2048.0));
    // Emulate per-session keys by running several single-key workloads
    // (each workload stamps a constant key header — the sticky property is
    // that all of one key's requests hit one replica).
    let mut workloads = Vec::new();
    let mut rng = SimRng::new(seed);
    for k in 0..6 {
        let key = format!("user-{}", rng.below(1_000_000));
        workloads.push(
            WorkloadSpec::get(format!("sess-{k}"), "/get", 20.0)
                .with_authority("kv")
                .with_header("x-session-key", key),
        );
    }
    let mut spec = SimSpec::new(vec![backend], workloads);
    spec.mesh.default_policy.lb = policy;
    spec.config.duration = SimDuration::from_secs(4);
    spec.config.warmup = SimDuration::from_millis(500);
    let m = Simulation::build(spec).run();
    m.pods
        .iter()
        .filter(|p| p.name.starts_with("kv"))
        .map(|p| p.jobs)
        .collect()
}

#[test]
fn ring_hash_pins_sessions_to_replicas() {
    let jobs = run(LbPolicy::RingHash, 7);
    let total: u64 = jobs.iter().sum();
    assert!(total > 200, "traffic flowed: {jobs:?}");
    // 6 keys over 4 replicas: every replica's share must be a whole
    // number of key-streams (~total/6 each); in particular at least one
    // replica holds 2+ keys and shares are multiples of one stream.
    let stream = total as f64 / 6.0;
    for &j in &jobs {
        let streams = j as f64 / stream;
        let nearest = streams.round();
        assert!(
            (streams - nearest).abs() < 0.25,
            "replica load {j} is not a whole number of sessions (jobs {jobs:?})"
        );
    }
}

#[test]
fn round_robin_spreads_sessions_evenly() {
    let jobs = run(LbPolicy::RoundRobin, 7);
    let total: u64 = jobs.iter().sum();
    let mean = total as f64 / jobs.len() as f64;
    for &j in &jobs {
        assert!(
            (j as f64 - mean).abs() < mean * 0.2,
            "RR should spread evenly: {jobs:?}"
        );
    }
}

#[test]
fn ring_hash_is_deterministic_per_key() {
    let a = run(LbPolicy::RingHash, 7);
    let b = run(LbPolicy::RingHash, 7);
    assert_eq!(a, b);
}
