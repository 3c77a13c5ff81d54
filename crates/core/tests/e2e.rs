//! End-to-end driver tests on a minimal two-service app.

use meshlayer_cluster::{CallStep, ServiceBehavior, ServiceSpec};
use meshlayer_core::{Classifier, Priority, SimSpec, Simulation, XLayerConfig};
use meshlayer_simcore::{Dist, SimDuration};
use meshlayer_workload::WorkloadSpec;

fn tiny_spec(rps: f64, secs: u64) -> SimSpec {
    let frontend = ServiceSpec::new(
        "frontend",
        1,
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(Dist::constant(0.001)),
                CallStep::call("backend", "/get"),
            ]),
            response_bytes: Dist::constant(2048.0),
        },
    );
    let backend = ServiceSpec::new(
        "backend",
        2,
        ServiceBehavior {
            on_request: CallStep::Compute(Dist::constant(0.002)),
            response_bytes: Dist::constant(4096.0),
        },
    );
    let wl = WorkloadSpec::get("users", "/get", rps);
    let mut spec = SimSpec::new(vec![frontend, backend], vec![wl]);
    spec.classifier = Classifier::new().route("/", Priority::High);
    spec.config.duration = SimDuration::from_secs(secs);
    spec.config.warmup = SimDuration::from_secs(1);
    spec.config.cooldown = SimDuration::from_millis(500);
    spec
}

#[test]
fn requests_complete_end_to_end() {
    let mut sim = Simulation::build(tiny_spec(50.0, 10));
    let m = sim.run();
    assert!(m.world.roots_started > 400, "{:?}", m.world);
    assert_eq!(m.world.roots_failed, 0, "{:?}", m.world);
    assert!(
        m.world.roots_ok >= m.world.roots_started - 5,
        "most roots complete: {:?}",
        m.world
    );
    let users = m.class("users").expect("class recorded");
    assert!(users.completed > 300);
    // Uncongested: a few ms end to end, well under 50 ms.
    assert!(users.p50_ms > 0.5, "p50 {}", users.p50_ms);
    assert!(users.p50_ms < 50.0, "p50 {}", users.p50_ms);
    assert!(users.p99_ms < 100.0, "p99 {}", users.p99_ms);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = Simulation::build(tiny_spec(30.0, 5));
        let m = sim.run();
        (
            m.world.roots_ok,
            m.events,
            m.class("users")
                .map(|c| (c.completed, c.p50_ms.to_bits(), c.p99_ms.to_bits())),
        )
    };
    assert_eq!(run(), run(), "same spec + seed must be bit-identical");
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        let mut spec = tiny_spec(30.0, 5);
        spec.config.seed = seed;
        let m = Simulation::build(spec).run();
        // Arrival processes differ by seed, so event counts differ.
        (m.events, m.world.roots_started)
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn xlayer_toggles_do_not_break_uncongested_runs() {
    for xl in [
        XLayerConfig::baseline(),
        XLayerConfig::paper_prototype(),
        XLayerConfig::full(),
    ] {
        let mut spec = tiny_spec(20.0, 5);
        spec.xlayer = xl;
        let m = Simulation::build(spec).run();
        assert_eq!(m.world.roots_failed, 0, "{xl:?}: {:?}", m.world);
        assert!(m.class("users").unwrap().completed > 40, "{xl:?}");
    }
}

#[test]
fn sidecar_fleet_sees_traffic() {
    let mut spec = tiny_spec(20.0, 5);
    // Priority propagation needs the ingress classifier stamping headers.
    spec.xlayer.classify = true;
    let mut sim = Simulation::build(spec);
    let m = sim.run();
    // Each root crosses ingress + frontend + backend sidecars.
    assert!(m.fleet.inbound_requests >= 3 * m.world.roots_ok);
    assert!(m.fleet.outbound_requests >= 2 * m.world.roots_ok);
    assert_eq!(m.fleet.fail_fast, 0);
    // Priority propagated from frontend onto backend calls.
    assert!(m.fleet.priority_propagated > 0);
}

#[test]
fn links_carry_bytes_and_transport_delivers() {
    let mut sim = Simulation::build(tiny_spec(20.0, 5));
    let m = sim.run();
    let total_tx: u64 = m.links.iter().map(|l| l.tx_bytes).sum();
    assert!(total_tx > 100_000, "links moved {total_tx} bytes");
    assert!(m.transport.msgs_delivered >= 4 * m.world.roots_ok);
    assert!(m.transport.connections >= 3);
    assert_eq!(m.world.pkt_drops, 0, "no drops when uncongested");
}

#[test]
fn traces_are_collected_with_correct_depth() {
    let mut spec = tiny_spec(10.0, 3);
    spec.mesh.sampling = meshlayer_mesh::Sampling::Always;
    let mut sim = Simulation::build(spec);
    let m = sim.run();
    assert!(m.spans > 0);
    let traces = sim.tracer().traces();
    // Find a complete trace: frontend (root server span) -> backend.
    let complete = traces
        .iter()
        .filter(|t| t.root().is_some() && t.spans.len() >= 2)
        .count();
    assert!(complete > 10, "complete traces: {complete}");
}

#[test]
fn metrics_report_is_complete_and_queryable() {
    let mut sim = Simulation::build(tiny_spec(20.0, 5));
    let m = sim.run();
    // Lookups.
    assert!(m.class("users").is_some());
    assert!(m.class("nope").is_none());
    assert!(m.link("frontend-1->switch").is_some());
    assert!(m.link("no->where").is_none());
    // Render mentions the workload and a hot link, and core counters.
    let r = m.render();
    assert!(r.contains("users"), "{r}");
    assert!(r.contains("roots"), "{r}");
    // Pods reported for every pod incl. the ingress gateway.
    assert_eq!(m.pods.len(), sim.cluster().pod_count());
    // Serializes for the harness's JSON output.
    let json = serde_json::to_string(&m).expect("metrics serialize");
    assert!(json.contains("latency") || json.contains("classes"));
    // Simulated duration matches the configured horizon.
    assert!((m.sim_seconds - 5.0).abs() < 0.2, "{}", m.sim_seconds);
}

#[test]
fn mid_run_policy_flip_applies_and_converges() {
    let mut sim = Simulation::build(tiny_spec(30.0, 6));
    assert_eq!(sim.policy().converged_version(), 1);
    let v = sim.schedule_policy_change(
        meshlayer_simcore::SimTime::from_secs(2),
        XLayerConfig::paper_prototype(),
        "scheduled",
    );
    assert_eq!(v, 2);
    let m = sim.run();
    assert_eq!(m.world.roots_failed, 0, "{:?}", m.world);
    // Every layer acked: the transition converged shortly after the push.
    assert_eq!(sim.policy().converged_version(), 2);
    let t = &sim.policy().transitions()[0];
    assert_eq!(t.version, 2);
    assert_eq!(t.reason, "scheduled");
    let converged = t.converged_at.expect("converged");
    assert!(converged >= meshlayer_simcore::SimTime::from_secs(2));
    assert!(
        converged < meshlayer_simcore::SimTime::from_secs(3),
        "{converged:?}"
    );
    // The live config is now the prototype; the spec is untouched.
    let live = sim.live_xlayer();
    assert!(live.classify && live.mesh_subset_routing && live.host_tc);
    assert_ne!(*live, XLayerConfig::baseline());
}

#[test]
fn mid_run_policy_flip_records_and_replays_with_zero_divergence() {
    let dir = std::env::temp_dir().join("meshlayer-e2e-policy");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("flip-{}.mlflight", std::process::id()));

    let flip_at = meshlayer_simcore::SimTime::from_secs(2);
    let build = || {
        let mut sim = Simulation::build(tiny_spec(30.0, 5));
        sim.schedule_policy_change(flip_at, XLayerConfig::full(), "e2e-flip");
        sim
    };

    let mut rec = build();
    rec.record_to("policy-flip", &path).unwrap();
    rec.run();
    match rec.take_flight_outcome() {
        Some(meshlayer_core::FlightOutcome::Recorded(c)) => {
            assert!(c.events > 0 && c.decisions > 0)
        }
        other => panic!("expected Recorded, got {other:?}"),
    }

    // The capture holds a policy-apply frame per sidecar plus one per
    // fleet-wide layer (4 pods + 4 layers here), all tagged version 2.
    let log = meshlayer_flightrec::FlightLog::load(&path).unwrap();
    let applies: Vec<_> = log
        .decisions
        .iter()
        .filter(|d| d.kind == meshlayer_flightrec::DecisionKind::PolicyApply.code())
        .collect();
    assert_eq!(applies.len(), 8, "4 sidecars + 4 global layers");
    assert!(applies.iter().all(|d| d.trace == 2));
    for layer in ["mesh", "transport", "host-tc", "fabric", "compute"] {
        assert!(
            applies.iter().any(|d| d.cluster == layer),
            "missing {layer} apply"
        );
    }
    assert!(applies.iter().all(|d| d.t_ns > flip_at.as_nanos()));

    // Replaying the same spec + schedule reproduces the event stream
    // bit-for-bit, including the policy events.
    let mut rep = build();
    rep.replay_from(&path).unwrap();
    rep.run();
    match rep.take_flight_outcome() {
        Some(meshlayer_core::FlightOutcome::Replayed(r)) => {
            assert!(r.ok(), "diverged: {:?}", r.divergence)
        }
        other => panic!("expected Replayed, got {other:?}"),
    }

    // A run *without* the flip must diverge against the capture:
    // control-plane drift is caught exactly like data-plane drift.
    let mut bad = Simulation::build(tiny_spec(30.0, 5));
    bad.replay_from(&path).unwrap();
    bad.run();
    match bad.take_flight_outcome() {
        Some(meshlayer_core::FlightOutcome::Replayed(r)) => {
            assert!(!r.ok(), "missing flip must diverge")
        }
        other => panic!("expected Replayed, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_fault_kind_lands_a_tagged_frame_and_replays() {
    use meshlayer_core::{FaultCode, FaultKind, FaultScript};
    let dir = std::env::temp_dir().join("meshlayer-e2e-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("chaos-{}.mlflight", std::process::id()));

    let t = meshlayer_simcore::SimTime::from_millis;
    let d = SimDuration::from_millis;
    let build = || {
        let mut spec = tiny_spec(40.0, 5);
        spec.chaos = Some(
            FaultScript::new()
                .with(
                    t(1200),
                    FaultKind::PodCrash {
                        service: "backend".into(),
                        replica: 1,
                        restart_after: Some(d(800)),
                    },
                )
                .with(
                    t(1600),
                    FaultKind::GrayFailure {
                        service: "backend".into(),
                        replica: 0,
                        speed_factor: 2.0,
                        failure_rate: 0.2,
                        clear_after: Some(d(700)),
                    },
                )
                .with(
                    t(2400),
                    FaultKind::LinkFlap {
                        service: "frontend".into(),
                        replica: 0,
                        up_after: d(300),
                    },
                )
                .with(t(3000), FaultKind::Rollback { to_version: 1 })
                .with(
                    t(3400),
                    FaultKind::Partition {
                        service: "backend".into(),
                        heal_after: d(400),
                    },
                ),
        );
        Simulation::build(spec)
    };

    let mut rec = build();
    rec.record_to("chaos", &path).unwrap();
    let m = rec.run();
    // The world survives all five faults (retries/ejection absorb them).
    assert!(m.world.roots_ok > 0, "{:?}", m.world);

    // Every scheduled fault appears as a phase-0 frame with its kind
    // code and subject, and every self-clearing fault as a phase-1
    // frame; injections carry the script's times.
    let log = meshlayer_flightrec::FlightLog::load(&path).unwrap();
    let expect = [
        (FaultCode::PodCrash, "backend/1", 1200u64),
        (FaultCode::GrayFailure, "backend/0", 1600),
        (FaultCode::LinkFlap, "frontend/0", 2400),
        (FaultCode::Rollback, "v1", 3000),
        (FaultCode::Partition, "backend", 3400),
    ];
    for (i, (code, subject, at_ms)) in expect.iter().enumerate() {
        let f = log
            .faults
            .iter()
            .find(|f| f.fault == i as u32 && f.phase == 0)
            .unwrap_or_else(|| panic!("no inject frame for fault {i}"));
        assert_eq!(f.kind, *code as u8, "kind of fault {i}");
        assert_eq!(f.subject, *subject, "subject of fault {i}");
        assert_eq!(f.t_ns, at_ms * 1_000_000, "time of fault {i}");
        assert!(!f.detail.is_empty());
    }
    // All but the rollback clear themselves later in the run.
    for i in [0u32, 1, 2, 4] {
        assert!(
            log.faults.iter().any(|f| f.fault == i && f.phase == 1),
            "no clear frame for fault {i}"
        );
    }

    // The same script replays bit-identically...
    let mut rep = build();
    rep.replay_from(&path).unwrap();
    rep.run();
    match rep.take_flight_outcome() {
        Some(meshlayer_core::FlightOutcome::Replayed(r)) => {
            assert!(r.ok(), "diverged: {:?}", r.divergence)
        }
        other => panic!("expected Replayed, got {other:?}"),
    }

    // ...and a fault-free run diverges: injected chaos is part of the
    // recorded truth, not an out-of-band mutation.
    let mut bad = Simulation::build(tiny_spec(40.0, 5));
    bad.replay_from(&path).unwrap();
    bad.run();
    match bad.take_flight_outcome() {
        Some(meshlayer_core::FlightOutcome::Replayed(r)) => {
            assert!(!r.ok(), "missing faults must diverge")
        }
        other => panic!("expected Replayed, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}
