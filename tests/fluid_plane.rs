//! Fluid traffic plane acceptance tests (DESIGN.md §14): background
//! classes running as deterministic rate flows must meet the same
//! determinism bar as per-packet traffic, conserve bytes exactly, and
//! keep the foreground latency error of the fluid approximation inside
//! the documented bound at matched load.

use meshlayer::core::{FaultKind, FaultScript, FlightOutcome, Simulation, TopoMix, TopoParams};
use meshlayer::simcore::{SimDuration, SimTime};
use std::path::PathBuf;

fn flight_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("meshlayer-fluid-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.flight", std::process::id()))
}

/// Natural seconds capped by `MESHLAYER_SECS` (the repo-wide quick-run
/// convention). The defaults here are already short — the cap only ever
/// shrinks them further, floored at 1 s so a run still happens.
fn secs(default: u64) -> u64 {
    match std::env::var("MESHLAYER_SECS") {
        Ok(v) => v
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("MESHLAYER_SECS is {v:?}, not an unsigned integer"))
            .clamp(1, default),
        Err(_) => default,
    }
}

/// A ~200-pod generated zonal world on the background-heavy mix, fluid
/// or per-packet, load scaled down so per-packet captures stay small.
fn bg_spec(mix: TopoMix, rps: f64, run_secs: u64) -> meshlayer::core::SimSpec {
    let mut p = TopoParams::sized(200, rps);
    p.mix = mix;
    let mut spec = p.spec();
    spec.config.duration = SimDuration::from_secs(run_secs);
    spec.config.warmup = SimDuration::from_millis(200);
    spec.config.cooldown = SimDuration::from_millis(200);
    spec
}

/// The determinism bar with fluid flows live: a second run of the same
/// spec writes a byte-identical FLTREC01 capture, and a third replays
/// it with zero divergence. `FluidUpdate` events are wire-coded and
/// digest-folded like any other, so this subsumes digest equality of
/// the rate staircase.
#[test]
fn fluid_capture_identical_run_to_run() {
    let run_secs = secs(1);
    let base_path = flight_path("fluid-a");
    let mut rec = Simulation::build(bg_spec(TopoMix::BackgroundFluid, 2_000.0, run_secs));
    rec.record_to("fluid", &base_path).expect("create capture");
    let m1 = rec.run();
    match rec.take_flight_outcome() {
        Some(FlightOutcome::Recorded(c)) => assert!(c.events > 0),
        other => panic!("expected Recorded, got {other:?}"),
    }
    assert!(m1.world.roots_started > 0, "no foreground load flowed");
    assert!(!m1.fluid.is_empty(), "no fluid classes reported");

    // The capture documents the rate staircase: a seed frame at time
    // zero, then one frame per epoch tick.
    let log = meshlayer::flightrec::FlightLog::load(&base_path).unwrap();
    assert!(
        log.fluids.len() >= 2,
        "only {} fluid frames captured",
        log.fluids.len()
    );
    assert_eq!(log.fluids[0].cause, 0, "first fluid frame must be the seed");
    assert!(log.fluids[0].demand_bps > 0);

    let again_path = flight_path("fluid-b");
    let mut rec2 = Simulation::build(bg_spec(TopoMix::BackgroundFluid, 2_000.0, run_secs));
    rec2.record_to("fluid", &again_path)
        .expect("create capture");
    rec2.run();
    match rec2.take_flight_outcome() {
        Some(FlightOutcome::Recorded(_)) => {}
        other => panic!("expected Recorded, got {other:?}"),
    }
    let base = std::fs::read(&base_path).unwrap();
    let again = std::fs::read(&again_path).unwrap();
    assert!(
        base == again,
        "two captures of the fluid world differ ({} vs {} bytes)",
        again.len(),
        base.len()
    );
    std::fs::remove_file(&again_path).ok();

    let mut rep = Simulation::build(bg_spec(TopoMix::BackgroundFluid, 2_000.0, run_secs));
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

/// End-to-end conservation under chaos: run the fluid world with a
/// link flap on a frontend replica mid-run. Per class, exactly
/// `injected == delivered + dropped`; the flap starves the flows to the
/// downed replica, so drops are non-zero and a chaos-caused re-solve
/// (cause 2) lands in the capture between the epoch ticks.
#[test]
fn fluid_conservation_holds_under_chaos() {
    let run_secs = secs(3);
    let mut spec = bg_spec(TopoMix::BackgroundFluid, 2_000.0, run_secs);
    spec.chaos = Some(FaultScript::new().with(
        SimTime::from_millis(600),
        FaultKind::LinkFlap {
            service: "frontend".into(),
            replica: 0,
            up_after: SimDuration::from_millis(800),
        },
    ));
    let path = flight_path("fluid-chaos");
    let mut sim = Simulation::build(spec);
    sim.record_to("fluid-chaos", &path).expect("create capture");
    let m = sim.run();

    assert!(!m.fluid.is_empty(), "no fluid classes reported");
    let mut total_dropped = 0u64;
    for c in &m.fluid {
        assert_eq!(
            c.injected_bytes,
            c.delivered_bytes + c.dropped_bytes,
            "class {} leaks bytes",
            c.class
        );
        assert!(c.injected_bytes > 0, "class {} injected nothing", c.class);
        assert!(c.flows > 0, "class {} has no flows", c.class);
        total_dropped += c.dropped_bytes;
    }
    assert!(
        total_dropped > 0,
        "link flap on a frontend replica must starve its flows into drops"
    );

    // Link-level accounting agrees: some link carried fluid bytes, and
    // the flap's drops were charged to a link.
    let fluid_on_links: u64 = m.links.iter().map(|l| l.fluid_bytes).sum();
    let drops_on_links: u64 = m.links.iter().map(|l| l.fluid_drop_bytes).sum();
    assert!(fluid_on_links > 0, "no link carried fluid bytes");
    assert_eq!(
        drops_on_links, total_dropped,
        "link drop accounting disagrees with per-class totals"
    );

    // The capture shows the chaos-caused re-solves (inject + clear).
    let log = meshlayer::flightrec::FlightLog::load(&path).unwrap();
    let chaos_solves = log.fluids.iter().filter(|f| f.cause == 2).count();
    assert!(
        chaos_solves >= 2,
        "expected chaos-caused fluid re-solves at flap inject and clear, saw {chaos_solves}"
    );
    std::fs::remove_file(&path).ok();
}

/// The headline trade at matched load: the fluid world processes far
/// fewer events than the all-packet world offering the identical mix,
/// while the per-packet foreground classes (browse, checkout) see only
/// the bounded latency shift documented in EXPERIMENTS.md — the fluid
/// background still consumes link capacity inside the qdisc model, it
/// just stops paying per-packet event costs.
#[test]
fn fluid_matches_packet_foreground_within_documented_bound() {
    let run_secs = secs(2);
    let rps = 4_000.0;
    let m_pkt = Simulation::build(bg_spec(TopoMix::BackgroundPacket, rps, run_secs)).run();
    let m_fl = Simulation::build(bg_spec(TopoMix::BackgroundFluid, rps, run_secs)).run();

    // Event-count savings: the background is 85% of offered requests
    // (and ~99% of offered bytes), so the fluid world must process well
    // under half the events at matched load. The full-scale sweep in
    // EXPERIMENTS.md shows ≥5× at 10⁵ RPS; this short low-rate smoke
    // asserts the direction with margin.
    assert!(
        m_fl.events * 2 < m_pkt.events,
        "fluid world processed {} events vs {} per-packet — background \
         classes are still generating packets",
        m_fl.events,
        m_pkt.events
    );
    assert!(m_fl.fluid.iter().any(|c| c.delivered_bytes > 0));
    assert!(
        m_pkt.fluid.is_empty(),
        "per-packet world reported fluid classes"
    );

    // Foreground latency error of the fluid approximation, documented
    // in EXPERIMENTS.md ("Fluid vs per-packet"): at matched load the
    // foreground p50 stays within 15% or 200µs (whichever is larger),
    // and p99 within 25% or 1ms. The fluid side elides the background's
    // downstream fan-out, so it under-models queueing — the bound is
    // the price of the ≥5× event cut.
    for class in ["browse", "checkout"] {
        let find = |m: &meshlayer::core::RunMetrics| {
            m.classes
                .iter()
                .find(|c| c.class == class)
                .unwrap_or_else(|| panic!("{class} summary missing"))
                .clone()
        };
        let pkt = find(&m_pkt);
        let fl = find(&m_fl);
        assert!(pkt.completed > 0 && fl.completed > 0, "{class} idle");
        // Measured numbers for the EXPERIMENTS.md table (run with
        // `--nocapture` in release to regenerate them).
        eprintln!(
            "{class}: packet p50={:.3}ms p99={:.3}ms | fluid p50={:.3}ms p99={:.3}ms \
             (events {} vs {})",
            pkt.p50_ms, pkt.p99_ms, fl.p50_ms, fl.p99_ms, m_pkt.events, m_fl.events
        );
        let p50_tol = (0.15 * pkt.p50_ms).max(0.2);
        let p99_tol = (0.25 * pkt.p99_ms).max(1.0);
        assert!(
            (fl.p50_ms - pkt.p50_ms).abs() <= p50_tol,
            "{class} p50 {:.3}ms (fluid) vs {:.3}ms (packet): outside the \
             documented bound ({:.3}ms)",
            fl.p50_ms,
            pkt.p50_ms,
            p50_tol
        );
        assert!(
            (fl.p99_ms - pkt.p99_ms).abs() <= p99_tol,
            "{class} p99 {:.3}ms (fluid) vs {:.3}ms (packet): outside the \
             documented bound ({:.3}ms)",
            fl.p99_ms,
            pkt.p99_ms,
            p99_tol
        );
    }
}
