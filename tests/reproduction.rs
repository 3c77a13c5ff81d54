//! Reproduction smoke tests: short versions of the paper's experiments,
//! asserting the *direction* of every headline result. The full-length
//! regenerations are the entries of the `experiment` binary's table
//! (`crates/bench/src/lib.rs`).

use meshlayer::apps::{ecommerce, elibrary, fanout, ElibraryParams};
use meshlayer::core::{Simulation, XLayerConfig};
use meshlayer::mesh::LbPolicy;
use meshlayer::simcore::SimDuration;

/// Run length for one scenario: its natural `default` seconds, capped
/// by `MESHLAYER_SECS` when set so CI can trim every suite with one
/// knob (see `scripts/ci.sh`, which uses 6 — the shortest length at
/// which every directional margin below still holds). The floor of 4
/// keeps a typo'd `MESHLAYER_SECS=1` from shrinking runs past their
/// warmup.
fn secs(default: u64) -> u64 {
    match std::env::var("MESHLAYER_SECS") {
        Ok(v) => v
            .parse::<u64>()
            .unwrap_or_else(|_| {
                panic!("MESHLAYER_SECS is set to {v:?}, which is not a valid unsigned integer")
            })
            .clamp(4, default),
        Err(_) => default,
    }
}

fn elib_run(rps: f64, xlayer: XLayerConfig, secs: u64) -> meshlayer::core::RunMetrics {
    let params = ElibraryParams {
        ls_rps: rps,
        batch_rps: rps,
        ..ElibraryParams::default()
    };
    let mut spec = elibrary(&params);
    spec.xlayer = xlayer;
    spec.config.duration = SimDuration::from_secs(secs);
    spec.config.warmup = SimDuration::from_secs(secs / 4);
    spec.config.cooldown = SimDuration::from_secs(1);
    Simulation::build(spec).run()
}

/// Fig 4's direction: at a contended load, cross-layer prioritization
/// reduces latency-sensitive p99.
#[test]
fn fig4_direction_prioritization_helps_ls_tail() {
    let base = elib_run(40.0, XLayerConfig::baseline(), secs(8));
    let opt = elib_run(40.0, XLayerConfig::paper_prototype(), secs(8));
    let b = base.class("latency-sensitive").expect("baseline ls");
    let o = opt.class("latency-sensitive").expect("optimized ls");
    assert!(b.completed > 150 && o.completed > 150);
    assert!(
        o.p99_ms < b.p99_ms,
        "optimized p99 {:.1} !< baseline p99 {:.1}",
        o.p99_ms,
        b.p99_ms
    );
    // And the improvement is material, not epsilon.
    assert!(
        b.p99_ms / o.p99_ms > 1.15,
        "speedup {:.2}x too small",
        b.p99_ms / o.p99_ms
    );
}

/// §4.3's side claim: batch p99 does not collapse under prioritization.
#[test]
fn t1_direction_batch_not_destroyed() {
    let base = elib_run(30.0, XLayerConfig::baseline(), secs(8));
    let opt = elib_run(30.0, XLayerConfig::paper_prototype(), secs(8));
    let b = base.class("batch-analytics").expect("baseline batch");
    let o = opt.class("batch-analytics").expect("optimized batch");
    // Short runs are tail-noisy; allow generous slack while still
    // catching a real starvation regression (which would multiply p99).
    assert!(
        o.p99_ms < b.p99_ms * 2.0,
        "batch p99 exploded: {:.1} -> {:.1}",
        b.p99_ms,
        o.p99_ms
    );
    assert!(
        o.completed as f64 > b.completed as f64 * 0.8,
        "batch goodput collapsed"
    );
}

/// The bottleneck link is where the contention lives (sanity for the
/// whole Fig 3 setup).
#[test]
fn bottleneck_is_the_ratings_uplink() {
    let m = elib_run(40.0, XLayerConfig::baseline(), secs(6));
    let bottleneck = m.link("ratings-1->switch").expect("bottleneck link");
    assert_eq!(bottleneck.rate_bps, 1_000_000_000);
    assert!(
        bottleneck.utilization > 0.3,
        "bottleneck only {:.0}% utilized",
        bottleneck.utilization * 100.0
    );
    // Every other link is far less utilized.
    for l in &m.links {
        if l.name != "ratings-1->switch" {
            assert!(
                l.utilization < bottleneck.utilization,
                "{} hotter than the bottleneck",
                l.name
            );
        }
    }
}

/// A2's direction: a scavenger for batch cuts LS tail latency with no
/// routing or TC changes.
#[test]
fn a2_direction_scavenger_helps() {
    let mk = |scavenger: bool| {
        let mut xl = XLayerConfig {
            classify: true,
            ..XLayerConfig::baseline()
        };
        if scavenger {
            xl = xl.with_scavenger(meshlayer::transport::CcAlgo::Ledbat);
        }
        elib_run(40.0, xl, secs(8))
    };
    let cubic = mk(false);
    let ledbat = mk(true);
    let c = cubic.class("latency-sensitive").expect("ls");
    let l = ledbat.class("latency-sensitive").expect("ls");
    assert!(
        l.p99_ms < c.p99_ms * 1.05,
        "scavenger made LS worse: {:.1} vs {:.1}",
        l.p99_ms,
        c.p99_ms
    );
}

/// A3's direction: latency-aware LB cuts the straggler tail versus
/// round robin.
#[test]
fn a3_direction_ewma_routes_around_straggler() {
    let run = |policy: LbPolicy| {
        let mut spec = fanout(1, 1, 4, 2.0, 150.0);
        spec.mesh.default_policy.lb = policy;
        spec.config.duration = SimDuration::from_secs(secs(6));
        spec.config.warmup = SimDuration::from_secs(1);
        let mut sim = Simulation::build(spec);
        let straggler = sim.cluster().endpoints("svc-c0-d0", None)[0];
        sim.cluster_mut().pod_mut(straggler).speed_factor = 8.0;
        let m = sim.run();
        m.class("fanout").expect("class").p99_ms
    };
    let rr = run(LbPolicy::RoundRobin);
    let ewma = run(LbPolicy::PeakEwma);
    assert!(
        ewma < rr * 0.6,
        "PeakEwma p99 {ewma:.1} not clearly better than RoundRobin {rr:.1}"
    );
}

/// The e-commerce scenario (§4.1) runs end to end with deep call trees.
#[test]
fn ecommerce_scenario_serves_all_four_workloads() {
    let mut spec = ecommerce(20.0, 8.0);
    spec.xlayer = XLayerConfig::paper_prototype();
    spec.config.duration = SimDuration::from_secs(secs(6));
    spec.config.warmup = SimDuration::from_secs(1);
    let m = Simulation::build(spec).run();
    for class in [
        "user-browse",
        "user-checkout",
        "ads-analytics",
        "log-collect",
    ] {
        let c = m.class(class).unwrap_or_else(|| panic!("{class} missing"));
        assert!(c.completed > 5, "{class}: only {} completed", c.completed);
    }
    // User-facing traffic is much faster than the scans.
    let browse = m.class("user-browse").expect("browse");
    let ads = m.class("ads-analytics").expect("ads");
    assert!(browse.p50_ms < ads.p50_ms);
}

/// Determinism across the whole stack at the integration level.
#[test]
fn full_stack_determinism() {
    let run = || {
        let m = elib_run(20.0, XLayerConfig::full(), secs(5));
        (
            m.events,
            m.world.roots_ok,
            m.transport.bytes_sent,
            m.class("latency-sensitive").map(|c| c.p99_ms.to_bits()),
        )
    };
    assert_eq!(run(), run());
}

/// A4's direction: hedging cuts the tail on a heavy-tailed backend.
#[test]
fn a4_direction_hedging_cuts_tail() {
    let run = |hedge: Option<SimDuration>| {
        let mut spec = fanout(1, 1, 4, 4.0, 100.0);
        for svc in &mut spec.services {
            if svc.name.starts_with("svc-") {
                for (_, b) in &mut svc.behaviors {
                    b.on_request = meshlayer::cluster::CallStep::Compute(
                        meshlayer::simcore::Dist::lognormal(0.004, 1.2),
                    );
                }
            }
        }
        spec.mesh.default_policy.hedge_after = hedge;
        spec.config.duration = SimDuration::from_secs(secs(8));
        spec.config.warmup = SimDuration::from_secs(1);
        let m = Simulation::build(spec).run();
        (m.class("fanout").expect("class").p99_ms, m.world.hedges)
    };
    let (p99_off, hedges_off) = run(None);
    let (p99_on, hedges_on) = run(Some(SimDuration::from_millis(10)));
    assert_eq!(hedges_off, 0);
    assert!(hedges_on > 20, "hedges issued: {hedges_on}");
    assert!(
        p99_on < p99_off * 0.8,
        "hedged p99 {p99_on:.1} not clearly better than {p99_off:.1}"
    );
}

/// A5's direction (§3.5): SDN congestion signals steer the mesh away
/// from a saturated access link.
#[test]
fn a5_direction_sdn_avoids_congested_link() {
    let run = |sdn: bool| {
        let mut spec = fanout(1, 1, 3, 1.0, 250.0);
        for svc in &mut spec.services {
            if svc.name.starts_with("svc-") {
                for (_, b) in &mut svc.behaviors {
                    b.response_bytes = meshlayer::simcore::Dist::constant(131_072.0);
                }
            }
        }
        spec.network.default_rate_bps = 10_000_000_000;
        spec.network = spec.network.with_pod_rate("svc-c0-d0-1", 100_000_000);
        spec.xlayer.sdn_lb = sdn;
        spec.config.duration = SimDuration::from_secs(secs(6));
        spec.config.warmup = SimDuration::from_secs(2);
        let m = Simulation::build(spec).run();
        m.class("fanout").expect("class").p90_ms
    };
    let blind = run(false);
    let informed = run(true);
    assert!(
        informed < blind * 0.5,
        "SDN-informed p90 {informed:.1} not clearly better than blind {blind:.1}"
    );
}

// ---------------------------------------------------------------------
// Same simulation, whatever the engine does: pinned model fingerprints
// ---------------------------------------------------------------------

/// Everything the model decided in a run — per-class completions and
/// latency, per-link bytes and drops, transport recovery, root outcomes —
/// and nothing the engine is free to change (event counts, host time).
fn model_fingerprint(m: &meshlayer::core::RunMetrics) -> String {
    use meshlayer::flightrec::digest::{fold_bytes, fold_u64, FNV_OFFSET};
    let mut out = String::new();
    for c in &m.classes {
        out.push_str(&format!(
            "{}: completed={} failed={} p50={}ms p99={}ms\n",
            c.class, c.completed, c.failed, c.p50_ms, c.p99_ms
        ));
    }
    // Per link, folded: a packet taking another path, or one more drop on
    // one link, changes the fold even when the totals agree.
    let (mut tx, mut drops, mut fold) = (0u64, 0u64, FNV_OFFSET);
    for l in &m.links {
        tx += l.tx_bytes;
        drops += l.drops;
        fold = fold_u64(
            fold_u64(fold_bytes(fold, l.name.as_bytes()), l.tx_bytes),
            l.drops,
        );
    }
    out.push_str(&format!(
        "links: n={} tx_bytes={tx} drops={drops} per_link={fold:016x}\n",
        m.links.len()
    ));
    out.push_str(&format!(
        "transport: fast_retx={} timeouts={} msgs_delivered={}\n",
        m.transport.fast_retx, m.transport.timeouts, m.transport.msgs_delivered
    ));
    out.push_str(&format!(
        "roots: ok={} failed={}\n",
        m.world.roots_ok, m.world.roots_failed
    ));
    out
}

fn pinned_elib_run(xlayer: XLayerConfig) -> meshlayer::core::RunMetrics {
    let mut spec = elibrary(&ElibraryParams {
        ls_rps: 40.0,
        batch_rps: 40.0,
        ..ElibraryParams::default()
    });
    spec.xlayer = xlayer;
    spec.config.seed = 42;
    spec.config.duration = SimDuration::from_secs(3);
    spec.config.warmup = SimDuration::from_secs(1);
    spec.config.cooldown = SimDuration::from_secs(1);
    run_conserving_packets(spec)
}

/// Run `spec` and hold the engine to packet conservation at the end:
/// every packet still in the in-flight store is owned by a pending
/// `PktArrive` and the other way round — the event the loop pops past
/// `end_at` and drops must not leak its packet (on the fabric world it is
/// a `PktArrive`: without the take there, 4 stored meet 3 arriving).
fn run_conserving_packets(spec: meshlayer::core::SimSpec) -> meshlayer::core::RunMetrics {
    let mut sim = Simulation::build(spec);
    let m = sim.run();
    let (stored, arriving) = sim.packets_in_flight();
    assert_eq!(stored, arriving, "packets stored vs PktArrive pending");
    assert!(m.engine.pkt_slab_peak >= stored);
    m
}

/// The engine may change how many events a run costs (ISSUE 13 cut a
/// third of them), never what the run computes. These fingerprints were
/// captured at commit 84d1cea — one `LinkTx` and one `PktArrive` per hop,
/// one `ConnTimer` per timer restart — and must hold for every engine
/// that follows. A deliberate model change re-pins them and says why.
///
/// What each run costs is pinned beside them, apart from the model: the
/// exact `(events, packet-hops)` of the same three worlds, captured at
/// commit 239c94d (one event per uncontended hop, one live timer per
/// connection endpoint). Packet-hops are the model's; events are the
/// engine's diet. A deliberate diet change re-pins `DIET_*` alone and
/// says why.
#[test]
fn model_fingerprints_match_the_pre_diet_engine() {
    let diet = |m: &meshlayer::core::RunMetrics| (m.events, m.pkt_hops());
    let base = pinned_elib_run(XLayerConfig::baseline());
    assert_eq!(model_fingerprint(&base), PIN_ELIB_BASELINE);
    assert_eq!(diet(&base), DIET_ELIB_BASELINE);
    let proto = pinned_elib_run(XLayerConfig::paper_prototype());
    assert_eq!(model_fingerprint(&proto), PIN_ELIB_PROTOTYPE);
    assert_eq!(diet(&proto), DIET_ELIB_PROTOTYPE);
    // A generated 52-pod zonal fabric, 1 sim-s of the all-packet mix.
    let mut p = meshlayer::core::TopoParams::sized(50, 2000.0);
    p.mix = meshlayer::core::TopoMix::BackgroundPacket;
    let mut spec = p.spec();
    spec.config.duration = SimDuration::from_millis(1_000);
    spec.config.warmup = SimDuration::from_millis(250);
    spec.config.cooldown = SimDuration::from_millis(250);
    let fabric = run_conserving_packets(spec);
    assert_eq!(model_fingerprint(&fabric), PIN_FABRIC_50);
    assert_eq!(diet(&fabric), DIET_FABRIC_50);
}

/// The three worlds above run no fluid flow, no fault and no policy push.
/// This one runs all three: 1.5 sim-s of the 52-pod fabric on the
/// fluid-background mix, a link flap on a frontend replica (which also
/// re-solves the fluid plane) and a runtime push of the paper's prototype
/// policy. Its fold covers what the model decided: classes, per-link
/// packet and fluid bytes, fluid classes, policy transitions and world
/// counters. Captured at commit 66e5d63, before the simulation's state
/// was split by plane.
#[test]
fn fluid_fault_and_policy_world_matches_its_pin() {
    use meshlayer::core::{FaultKind, FaultScript, TopoMix, TopoParams};
    use meshlayer::flightrec::digest::{fold_bytes, fold_u64, FNV_OFFSET};
    use meshlayer::simcore::SimTime;
    let mut p = TopoParams::sized(50, 2000.0);
    p.mix = TopoMix::BackgroundFluid;
    let mut spec = p.spec();
    spec.config.duration = SimDuration::from_millis(1_500);
    spec.config.warmup = SimDuration::from_millis(250);
    spec.config.cooldown = SimDuration::from_millis(250);
    spec.chaos = Some(FaultScript::new().with(
        SimTime::from_millis(400),
        FaultKind::LinkFlap {
            service: "frontend".into(),
            replica: 0,
            up_after: SimDuration::from_millis(300),
        },
    ));
    let mut sim = Simulation::build(spec);
    sim.schedule_policy_change(
        SimTime::from_millis(700),
        XLayerConfig::paper_prototype(),
        "pinned",
    );
    let m = sim.run();
    let (stored, arriving) = sim.packets_in_flight();
    assert_eq!(stored, arriving, "packets stored vs PktArrive pending");

    let mut fold = FNV_OFFSET;
    for c in &m.classes {
        fold = fold_bytes(fold, serde_json::to_string(c).unwrap().as_bytes());
    }
    for l in &m.links {
        fold = fold_bytes(fold, l.name.as_bytes());
        for v in [l.tx_packets, l.tx_bytes, l.fluid_bytes, l.fluid_drop_bytes] {
            fold = fold_u64(fold, v);
        }
    }
    for f in &m.fluid {
        fold = fold_bytes(fold, serde_json::to_string(f).unwrap().as_bytes());
    }
    for t in sim.policy().transitions() {
        fold = fold_bytes(fold_u64(fold, t.version), t.reason.as_bytes());
        fold = fold_u64(fold, t.proposed_at.as_nanos());
        fold = fold_u64(fold, t.converged_at.map_or(u64::MAX, |c| c.as_nanos()));
    }
    fold = fold_bytes(fold, serde_json::to_string(&m.world).unwrap().as_bytes());
    assert!(!m.fluid.is_empty() && sim.policy().transitions().len() == 1);
    assert_eq!((m.events, m.pkt_hops()), DIET_FLUID_FAULT_POLICY);
    assert_eq!(format!("{fold:016x}"), PIN_FLUID_FAULT_POLICY);
}

/// `(events, packet-hops)` and model fold of the fourth pinned world.
const DIET_FLUID_FAULT_POLICY: (u64, u64) = (88_745, 55_662);
const PIN_FLUID_FAULT_POLICY: &str = "7e55ce09effbfcee";

/// `(events, packet-hops)` of the three pinned worlds.
const DIET_ELIB_BASELINE: (u64, u64) = (2_496_524, 1_811_728);
const DIET_ELIB_PROTOTYPE: (u64, u64) = (2_044_879, 1_529_740);
const DIET_FABRIC_50: (u64, u64) = (510_078, 326_668);

const PIN_ELIB_BASELINE: &str = "\
batch-analytics: completed=42 failed=0 p50=42.074112ms p99=267.911168ms
latency-sensitive: completed=39 failed=0 p50=21.2992ms p99=51.511296ms
links: n=12 tx_bytes=666966430 drops=0 per_link=fea6429a7ed4c1cd
transport: fast_retx=148 timeouts=47 msgs_delivered=1664
roots: ok=237 failed=0
";
const PIN_ELIB_PROTOTYPE: &str = "\
batch-analytics: completed=42 failed=0 p50=38.141952ms p99=156.403545ms
latency-sensitive: completed=39 failed=0 p50=17.104896ms p99=26.5084ms
links: n=12 tx_bytes=635811320 drops=0 per_link=1d57b4741adb5493
transport: fast_retx=190 timeouts=24 msgs_delivered=1664
roots: ok=237 failed=0
";
const PIN_FABRIC_50: &str = "\
analytics: completed=195 failed=0 p50=7.913472ms p99=12.156928ms
browse: completed=97 failed=0 p50=7.979008ms p99=13.778317ms
checkout: completed=44 failed=0 p50=8.486912ms p99=11.63264ms
elephant: completed=628 failed=0 p50=8.11008ms p99=12.419072ms
links: n=114 tx_bytes=159169132 drops=0 per_link=3722dc60d057bc98
transport: fast_retx=0 timeouts=0 msgs_delivered=50238
roots: ok=1925 failed=0
";
