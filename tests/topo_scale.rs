//! Production-scale topology acceptance tests: generated fabrics must
//! meet exactly the determinism bar of the hand-written worlds — same
//! seed, same bytes.

use meshlayer::core::{FlightOutcome, Simulation, TopoParams};
use meshlayer::simcore::SimDuration;
use std::path::PathBuf;

fn flight_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("meshlayer-topo-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.flight", std::process::id()))
}

/// Natural seconds capped by `MESHLAYER_SECS` (the repo-wide quick-run
/// convention). The default here is already short — the cap only ever
/// shrinks it further, floored at 1 s so a run still happens.
fn secs(default: u64) -> u64 {
    match std::env::var("MESHLAYER_SECS") {
        Ok(v) => v
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("MESHLAYER_SECS is {v:?}, not an unsigned integer"))
            .clamp(1, default),
        Err(_) => default,
    }
}

/// A ~1,000-pod generated zonal world, load scaled down so the capture
/// (which records every packet op) stays small while still exercising
/// every leaf and spine.
fn thousand_pod_spec() -> meshlayer::core::SimSpec {
    let p = TopoParams::sized(1000, 1_000.0);
    let mut spec = p.spec();
    spec.config.duration = SimDuration::from_secs(secs(1));
    spec.config.warmup = SimDuration::from_millis(200);
    spec.config.cooldown = SimDuration::from_millis(200);
    spec
}

/// Same parameters → byte-identical generated spec: the canonical
/// `describe()` rendering digests equal, and two independently built
/// simulations of it produce identical run metrics.
#[test]
fn generator_is_deterministic_per_seed() {
    let p = TopoParams::sized(1000, 100_000.0);
    assert_eq!(p.describe(), p.describe());
    let q = TopoParams::sized(1000, 100_000.0);
    assert_eq!(p.describe(), q.describe(), "sized() must be pure");
    let mut r = TopoParams::sized(1000, 100_000.0);
    r.seed = 7;
    assert_ne!(p.describe(), r.describe(), "seed must reach generation");
}

/// The determinism bar on a generated ~1k-pod fabric: a second run of
/// the same spec writes a byte-identical FLTREC01 capture (which
/// subsumes digest equality), and a third replays it with zero
/// divergence.
#[test]
fn thousand_pod_capture_identical_run_to_run() {
    let base_path = flight_path("topo-a");
    let mut rec = Simulation::build(thousand_pod_spec());
    rec.record_to("topo", &base_path).expect("create capture");
    let m1 = rec.run();
    match rec.take_flight_outcome() {
        Some(FlightOutcome::Recorded(c)) => assert!(c.events > 0),
        other => panic!("expected Recorded, got {other:?}"),
    }
    assert!(m1.world.roots_started > 0, "no load reached the fabric");

    let again_path = flight_path("topo-b");
    let mut rec2 = Simulation::build(thousand_pod_spec());
    rec2.record_to("topo", &again_path).expect("create capture");
    rec2.run();
    match rec2.take_flight_outcome() {
        Some(FlightOutcome::Recorded(_)) => {}
        other => panic!("expected Recorded, got {other:?}"),
    }
    let base = std::fs::read(&base_path).unwrap();
    let again = std::fs::read(&again_path).unwrap();
    assert!(
        base == again,
        "two captures of the generated fabric differ ({} vs {} bytes)",
        again.len(),
        base.len()
    );
    std::fs::remove_file(&again_path).ok();

    let mut rep = Simulation::build(thousand_pod_spec());
    rep.replay_from(&base_path).expect("open capture");
    rep.run();
    match rep.take_flight_outcome() {
        Some(FlightOutcome::Replayed(r)) => {
            assert!(r.ok(), "replay diverged: {:?}", r.divergence);
            assert!(r.checked > 100, "only {} events checked", r.checked);
        }
        other => panic!("expected Replayed, got {other:?}"),
    }
    std::fs::remove_file(&base_path).ok();
}
