//! Property-based tests over the whole simulation: conservation
//! invariants that must hold for *any* small random application under
//! any optimization mix, plus flight-recorder guarantees (byte-identical
//! captures, zero-divergence replay, damage detection).

use meshlayer::apps::{ecommerce, elibrary, fanout, ElibraryParams};
use meshlayer::cluster::{CallStep, ServiceBehavior, ServiceSpec};
use meshlayer::core::{Classifier, FlightOutcome, Priority, SimSpec, Simulation, XLayerConfig};
use meshlayer::flightrec::{LogReader, Record, ReplayReport};
use meshlayer::simcore::{Dist, SimDuration};
use meshlayer::workload::WorkloadSpec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

mod common;
use common::metrics_fingerprint;

/// Build a random 1..=3-tier chain app.
fn random_spec(
    tiers: usize,
    replicas: u32,
    rps: f64,
    svc_ms: f64,
    resp_kb: f64,
    xlayer_idx: usize,
    seed: u64,
) -> SimSpec {
    let mut services = Vec::new();
    for t in 0..tiers {
        let behavior = if t + 1 < tiers {
            ServiceBehavior {
                on_request: CallStep::Seq(vec![
                    CallStep::Compute(Dist::exp(svc_ms / 1000.0)),
                    CallStep::call(format!("tier{}", t + 1), "/x"),
                ]),
                response_bytes: Dist::constant(resp_kb * 1024.0),
            }
        } else {
            ServiceBehavior {
                on_request: CallStep::Compute(Dist::exp(svc_ms / 1000.0)),
                response_bytes: Dist::constant(resp_kb * 1024.0),
            }
        };
        services.push(ServiceSpec::new(format!("tier{t}"), replicas, behavior));
    }
    let wl = WorkloadSpec::get("w", "/x", rps).with_authority("tier0");
    let mut spec = SimSpec::new(services, vec![wl]);
    spec.classifier = Classifier::new().route("/", Priority::High);
    spec.xlayer = [
        XLayerConfig::baseline(),
        XLayerConfig::paper_prototype(),
        XLayerConfig::full(),
    ][xlayer_idx % 3];
    spec.config.seed = seed;
    spec.config.duration = SimDuration::from_secs(2);
    spec.config.warmup = SimDuration::from_millis(300);
    spec.config.cooldown = SimDuration::from_millis(200);
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariants that hold for any app/config: accounting conservation,
    /// no stuck requests under generous timeouts, sane histograms.
    #[test]
    fn simulation_conservation(
        tiers in 1usize..4,
        replicas in 1u32..4,
        rps in 5.0f64..60.0,
        svc_ms in 0.1f64..5.0,
        resp_kb in 0.5f64..64.0,
        xlayer_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let spec = random_spec(tiers, replicas, rps, svc_ms, resp_kb, xlayer_idx, seed);
        let m = Simulation::build(spec).run();
        let w = &m.world;
        // Every root either completed, failed, or was still in flight at
        // the horizon (completions can't exceed starts).
        prop_assert!(w.roots_ok + w.roots_failed <= w.roots_started);
        // With 15s timeouts and a 2s run, nothing should *fail*.
        prop_assert_eq!(w.roots_failed, 0, "unexpected failures: {:?}", w);
        // The vast majority complete within the horizon.
        prop_assert!(
            w.roots_ok as f64 >= w.roots_started as f64 * 0.9,
            "too many stuck: {:?}", w
        );
        // Sidecar accounting: every inbound is either a root's ingress
        // arrival or some sidecar's outbound; requests still in flight at
        // the horizon make it an inequality with small slack.
        prop_assert!(m.fleet.inbound_requests <= m.fleet.outbound_requests + w.roots_started);
        prop_assert!(
            m.fleet.inbound_requests + 64 >= m.fleet.outbound_requests + w.roots_started,
            "too many undelivered outbound requests: {:?} fleet {:?}", w, m.fleet
        );
        // Per-hop RPC count: every *completed* root traversed `tiers` call
        // edges; roots in flight at the horizon may not have spawned all
        // of theirs yet.
        prop_assert!(w.rpcs <= w.roots_started * tiers as u64);
        prop_assert!(w.rpcs >= w.roots_ok * tiers as u64);
        // Latency histogram sanity.
        if let Some(c) = m.class("w") {
            prop_assert!(c.p50_ms <= c.p90_ms + 1e-9);
            prop_assert!(c.p90_ms <= c.p99_ms + 1e-9);
            prop_assert!(c.p99_ms <= c.max_ms + 1e-9);
            prop_assert!(c.mean_ms > 0.0);
        }
        // Transport: bytes acked never exceed bytes sent.
        prop_assert!(m.transport.bytes_sent >= 1);
    }

    /// Determinism for arbitrary specs: same seed, same world — every
    /// field of `RunMetrics` but the host's wall clock.
    #[test]
    fn simulation_determinism(seed in 0u64..500, xlayer_idx in 0usize..3) {
        let run = || {
            let spec = random_spec(2, 2, 20.0, 1.0, 8.0, xlayer_idx, seed);
            metrics_fingerprint(&Simulation::build(spec).run())
        };
        prop_assert_eq!(run(), run());
    }
}

/// The exact shrunk configuration from the committed
/// `prop_sim.proptest-regressions` entry (`cc f2b73130…`): a 3-tier
/// chain with single replicas at ~24.7 rps, ~3.9 ms exponential service
/// time, tiny responses, baseline x-layer, seed 570. Triage: the
/// config passes every `simulation_conservation` invariant on current
/// code, so the committed seed is stale (the failure it caught has
/// since been fixed). Kept as a named test so that exact configuration
/// re-runs on every `cargo test` — the harness does not re-read the
/// regression file itself.
#[test]
fn regression_f2b73130_three_tier_single_replica() {
    let spec = random_spec(3, 1, 24.68777765203335, 3.911213300492541, 0.5, 0, 570);
    let m = Simulation::build(spec).run();
    let w = &m.world;
    assert!(w.roots_ok + w.roots_failed <= w.roots_started);
    assert_eq!(w.roots_failed, 0, "unexpected failures: {w:?}");
    assert!(
        w.roots_ok as f64 >= w.roots_started as f64 * 0.9,
        "too many stuck: {w:?}"
    );
    assert!(m.fleet.inbound_requests <= m.fleet.outbound_requests + w.roots_started);
    assert!(
        m.fleet.inbound_requests + 64 >= m.fleet.outbound_requests + w.roots_started,
        "too many undelivered outbound requests: {w:?} fleet {:?}",
        m.fleet
    );
    assert!(w.rpcs <= w.roots_started * 3);
    assert!(w.rpcs >= w.roots_ok * 3);
    let c = m.class("w").expect("workload class present");
    assert!(c.p50_ms <= c.p90_ms + 1e-9);
    assert!(c.p90_ms <= c.p99_ms + 1e-9);
    assert!(c.p99_ms <= c.max_ms + 1e-9);
    assert!(c.mean_ms > 0.0);
    assert!(m.transport.bytes_sent >= 1);
}

// ---------------------------------------------------------------------
// Flight recorder: capture determinism, replay, damage detection
// ---------------------------------------------------------------------

fn flight_path(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join("meshlayer-flight-tests")
        .join(name)
}

/// Shrink an app spec so full-event capture stays fast.
fn shorten(mut spec: SimSpec) -> SimSpec {
    spec.config.duration = SimDuration::from_secs(2);
    spec.config.warmup = SimDuration::from_millis(300);
    spec.config.cooldown = SimDuration::from_millis(200);
    spec
}

fn record_run(spec: SimSpec, path: &Path) {
    let mut sim = Simulation::build(spec);
    sim.record_to("test", path).expect("create capture");
    sim.run();
    match sim.take_flight_outcome() {
        Some(FlightOutcome::Recorded(_)) => {}
        other => panic!("expected a recording, got {other:?}"),
    }
}

fn replay_run(spec: SimSpec, path: &Path) -> ReplayReport {
    let mut sim = Simulation::build(spec);
    sim.replay_from(path).expect("open capture");
    sim.run();
    match sim.take_flight_outcome() {
        Some(FlightOutcome::Replayed(report)) => report,
        other => panic!("expected a replay report, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two captures of the same spec+seed are byte-identical files —
    /// determinism down to the serialized event/packet/decision streams.
    #[test]
    fn flight_capture_byte_identical(seed in 0u64..200, xlayer_idx in 0usize..3) {
        let a = flight_path(&format!("ident-a-{seed}-{xlayer_idx}.flight"));
        let b = flight_path(&format!("ident-b-{seed}-{xlayer_idx}.flight"));
        record_run(random_spec(2, 2, 20.0, 1.0, 8.0, xlayer_idx, seed), &a);
        record_run(random_spec(2, 2, 20.0, 1.0, 8.0, xlayer_idx, seed), &b);
        let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        prop_assert!(ba == bb, "captures differ: {} vs {} bytes", ba.len(), bb.len());
    }
}

type SpecFn = fn() -> SimSpec;

#[test]
fn flight_replay_zero_divergence_across_apps() {
    let apps: [(&str, SpecFn); 3] = [
        ("elibrary", || {
            let params = ElibraryParams {
                ls_rps: 20.0,
                batch_rps: 10.0,
                ..ElibraryParams::default()
            };
            let mut spec = elibrary(&params);
            spec.xlayer = XLayerConfig::paper_prototype();
            spec
        }),
        ("ecommerce", || ecommerce(20.0, 5.0)),
        ("fanout", || fanout(2, 1, 3, 2.0, 50.0)),
    ];
    for (name, build) in apps {
        let path = flight_path(&format!("replay-{name}.flight"));
        record_run(shorten(build()), &path);
        let report = replay_run(shorten(build()), &path);
        assert!(report.ok(), "{name} diverged:\n{}", report.render());
        assert!(
            report.checked > 100,
            "{name}: only {} events",
            report.checked
        );
        assert!(report.render().contains("0 divergences"));
    }
}

#[test]
fn flight_replay_detects_truncation() {
    let spec = || shorten(fanout(2, 1, 3, 2.0, 50.0));
    let path = flight_path("truncate.flight");
    record_run(spec(), &path);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
    let report = replay_run(spec(), &path);
    let rendered = report.render();
    let d = report.divergence.expect("truncated capture must diverge");
    assert!(
        rendered.contains("DIVERGENCE at event"),
        "render lacks location:\n{rendered}"
    );
    // The cut is past warmup, so plenty of the prefix still matched.
    assert!(report.checked > 0, "no events matched before the cut");
    assert!(d.index >= report.checked);
}

#[test]
fn flight_replay_locates_corrupted_record() {
    let spec = || shorten(fanout(2, 1, 3, 2.0, 50.0));
    let path = flight_path("corrupt.flight");
    record_run(spec(), &path);

    // Find the frame holding event #200 and flip one payload byte.
    let target_seq = 200u64;
    let mut frame_offset = None;
    let mut reader = LogReader::open(&path).unwrap();
    while let Some((offset, rec)) = reader.next().unwrap() {
        if let Record::Event(e) = rec {
            if e.seq == target_seq {
                frame_offset = Some(offset);
                break;
            }
        }
    }
    let offset = frame_offset.expect("run long enough to hold event #200") as usize;
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[offset + 5] ^= 0xff; // first payload byte (after tag u8 + len u32)
    std::fs::write(&path, &bytes).unwrap();

    // Replay must flag exactly that event: the 200 intact frames before
    // it all match, then the checksum failure surfaces as a located
    // divergence with the live event's sim time attached.
    let report = replay_run(spec(), &path);
    let rendered = report.render();
    let d = report.divergence.expect("corrupted capture must diverge");
    assert_eq!(d.index, target_seq, "wrong location:\n{rendered}");
    assert_eq!(report.checked, target_seq);
    assert!(d.reason.contains("checksum"), "reason: {}", d.reason);
    assert!(
        rendered.contains("DIVERGENCE at event 200 (t="),
        "render lacks index/time:\n{rendered}"
    );
    assert!(d.t_ns > 0, "divergence carries the sim time");
}
