//! Engine-observatory guarantees: wall-clock phase profiling must be
//! invisible to the simulation (byte-identical captures, identical
//! metrics), and sim-time latency provenance must be exact (per-layer
//! components sum to the recorded end-to-end latency for every request)
//! and bit-deterministic from run to run.

use meshlayer::apps::{elibrary, fanout, ElibraryParams};
use meshlayer::core::{FlightOutcome, SimSpec, Simulation, XLayerConfig};
use meshlayer::prof::{chrome_trace_json, validate_chrome_trace, Layer, ProfileReport};
use meshlayer::simcore::SimDuration;
use std::path::PathBuf;

mod common;
use common::metrics_fingerprint;

fn flight_path(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join("meshlayer-observability-tests")
        .join(name)
}

/// Short e-library run (the paper's running example).
fn elib_spec() -> SimSpec {
    let mut spec = elibrary(&ElibraryParams {
        ls_rps: 20.0,
        batch_rps: 10.0,
        ..ElibraryParams::default()
    });
    spec.xlayer = XLayerConfig::paper_prototype();
    spec.config.duration = SimDuration::from_secs(2);
    spec.config.warmup = SimDuration::from_millis(300);
    spec.config.cooldown = SimDuration::from_millis(200);
    spec
}

/// Fan-out app: exercises `Par` joins in the provenance composition.
fn fanout_spec() -> SimSpec {
    let mut spec = fanout(2, 1, 3, 2.0, 50.0);
    spec.config.duration = SimDuration::from_secs(2);
    spec.config.warmup = SimDuration::from_millis(300);
    spec.config.cooldown = SimDuration::from_millis(200);
    spec
}

/// Record a run, optionally profiled. Returns the capture bytes, the
/// metrics fingerprint, and the profile report.
fn recorded_run(
    spec: SimSpec,
    profile: bool,
    tag: &str,
) -> (Vec<u8>, String, Option<ProfileReport>) {
    let path = flight_path(tag);
    let mut sim = Simulation::build(spec);
    sim.record_to("test", &path).expect("create capture");
    if profile {
        sim.enable_profiling();
    }
    let m = sim.run();
    match sim.take_flight_outcome() {
        Some(FlightOutcome::Recorded(_)) => {}
        other => panic!("expected a recording, got {other:?}"),
    }
    let report = sim.take_profile();
    assert_eq!(report.is_some(), profile, "profile iff requested");
    let bytes = std::fs::read(&path).unwrap();
    (bytes, metrics_fingerprint(&m), report)
}

/// Phase profiling is observation only: captures and metrics are
/// byte-identical with it on or off.
#[test]
fn profiling_leaves_captures_and_metrics_byte_identical() {
    let (plain_bytes, plain_print, _) = recorded_run(elib_spec(), false, "plain.flight");
    let (prof_bytes, prof_print, report) = recorded_run(elib_spec(), true, "profiled.flight");
    assert!(
        plain_bytes == prof_bytes,
        "profiling changed the capture ({} vs {} bytes)",
        plain_bytes.len(),
        prof_bytes.len()
    );
    assert_eq!(plain_print, prof_print, "profiling changed RunMetrics");
    let report = report.expect("profile present");
    assert!(report.summary.events > 0, "no events profiled");
}

/// The emitted Chrome trace JSON is well-formed and non-empty.
#[test]
fn profiler_trace_json_validates() {
    let mut sim = Simulation::build(elib_spec());
    sim.enable_profiling();
    sim.run();
    let report = sim.take_profile().expect("profile present");
    let json = chrome_trace_json(&[("engine", &report.trace)]);
    let spans = validate_chrome_trace(&json).unwrap_or_else(|e| panic!("trace invalid: {e}"));
    assert!(spans > 0, "empty trace");
}

/// Exactness: for every recorded request, the seven per-layer components
/// sum to the recorded end-to-end latency — and the provenance stream is
/// bit-identical between two runs of the same spec.
#[test]
fn provenance_components_sum_exactly_and_match_run_to_run() {
    type SpecFn = fn() -> SimSpec;
    let apps: [(&str, SpecFn); 2] = [("elibrary", elib_spec), ("fanout", fanout_spec)];
    for (name, build) in apps {
        let mut prints = Vec::new();
        for run in 0..2 {
            let mut sim = Simulation::build(build());
            sim.run();
            let provs = sim.request_provenance();
            assert!(!provs.is_empty(), "{name} run {run}: no provenance records");
            for p in provs {
                assert_eq!(
                    p.breakdown.sum(),
                    p.total_ns,
                    "{name} run {run}: request {} components sum to {} ns, \
                     e2e is {} ns ({:?})",
                    p.request_id,
                    p.breakdown.sum(),
                    p.total_ns,
                    p.breakdown
                );
                assert_eq!(
                    p.total_ns,
                    p.completed_ns - p.intended_ns,
                    "{name} run {run}: total disagrees with timestamps"
                );
            }
            // Some latency must land in real layers, not just residuals.
            let fabric: u64 = provs.iter().map(|p| p.breakdown.get(Layer::Fabric)).sum();
            let app: u64 = provs.iter().map(|p| p.breakdown.get(Layer::App)).sum();
            assert!(fabric > 0, "{name} run {run}: no fabric time attributed");
            assert!(app > 0, "{name} run {run}: no app time attributed");
            prints.push(serde_json::to_string(&provs.to_vec()).unwrap());
        }
        assert_eq!(
            prints[0], prints[1],
            "{name}: provenance differs between two runs of one spec"
        );
    }
}
