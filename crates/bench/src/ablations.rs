//! A1–A5: the per-layer ablation of the §4.2 optimizations and the
//! extensions the paper proposes for the sidecar and the layers below it.

use crate::{elibrary_at, Arm, Ctx};
use meshlayer_apps::fanout;
use meshlayer_cluster::{CallStep, ServiceBehavior};
use meshlayer_core::{RunMetrics, SimSpec, Simulation, XLayerConfig};
use meshlayer_mesh::LbPolicy;
use meshlayer_simcore::{Dist, SimDuration};
use meshlayer_transport::CcAlgo;

/// Percentage of the jobs of the pods named `prefix*` that `pod` served.
fn job_share(m: &RunMetrics, pod: &str, prefix: &str) -> f64 {
    let mut pool = m.pods.iter().filter(|p| p.name.starts_with(prefix));
    let total: u64 = pool.clone().map(|p| p.jobs).sum();
    let one = pool.find(|p| p.name == pod).map_or(0, |p| p.jobs);
    one as f64 / total.max(1) as f64 * 100.0
}

/// Apply `f` to every behaviour of fanout's backend services.
fn for_each_backend(spec: &mut SimSpec, f: impl Fn(&mut ServiceBehavior)) {
    for svc in spec.services.iter_mut() {
        if svc.name.starts_with("svc-") {
            svc.behaviors.iter_mut().for_each(|(_, b)| f(b));
        }
    }
}

/// Replace fanout's exponential service time with a heavy-tailed
/// log-normal one (mean 4 ms, sigma 1.2), so hedges fire on the tail.
pub(crate) fn heavy_tail(spec: &mut SimSpec) {
    for_each_backend(spec, |b| {
        b.on_request = CallStep::Compute(Dist::lognormal(0.004, 1.2));
    });
}

/// A1: the e-library workload at a fixed RPS, toggling each optimization
/// site independently; LS/batch latency for each combination.
pub(crate) fn a1(ctx: &Ctx) -> u8 {
    let rps = ctx.point(30.0);
    let base = XLayerConfig::baseline();
    let proto = XLayerConfig::paper_prototype();
    let with = |mut xl: XLayerConfig, set: fn(&mut XLayerConfig)| {
        set(&mut xl);
        xl
    };
    let variants = [
        ("baseline (all off)", base),
        ("classify only", with(base, |x| x.classify = true)),
        (
            "+ subset routing (a)",
            with(base, |x| (x.classify, x.mesh_subset_routing) = (true, true)),
        ),
        (
            "+ host TC only (c)",
            with(base, |x| (x.classify, x.host_tc) = (true, true)),
        ),
        ("paper prototype (a+c)", proto),
        ("+ scavenger (b)", with(proto, |x| x.scavenger_batch = true)),
        (
            "+ net prio (d)",
            with(proto, |x| (x.dscp_tagging, x.net_prio) = (true, true)),
        ),
        ("full (a+b+c+d + compute)", XLayerConfig::full()),
    ];
    let arms = variants
        .iter()
        .map(|(name, xl)| {
            Arm::spec(*name, elibrary_at(rps, *xl, ctx.len))
                .artifacts("a1", name.starts_with("full"))
        })
        .collect();
    let runs = ctx.runs(arms);
    println!("# A1 ablation at {rps} rps ({}s runs)", ctx.len.secs);
    println!("# variant                   | LS p50 | LS p99 | batch p50 | batch p99");
    for ((name, _), m) in variants.iter().zip(&runs) {
        let ls = m.class("latency-sensitive");
        let ba = m.class("batch-analytics");
        println!(
            "{name:<27} | {:>6.1} | {:>6.1} | {:>9.1} | {:>9.1}",
            ls.map_or(0.0, |c| c.p50_ms),
            ls.map_or(0.0, |c| c.p99_ms),
            ba.map_or(0.0, |c| c.p50_ms),
            ba.map_or(0.0, |c| c.p99_ms)
        );
    }
    0
}

/// A2: can a scavenger congestion controller alone — no replica
/// splitting, no TC rules — protect latency-sensitive traffic at a
/// shared bottleneck? Classification on (so batch rides its own
/// connections), batch congestion control varied.
pub(crate) fn a2(ctx: &Ctx) -> u8 {
    let rps = ctx.point(40.0);
    let variants = [
        ("cubic (baseline)", false, CcAlgo::Cubic),
        ("reno", false, CcAlgo::Reno),
        ("ledbat (scav)", true, CcAlgo::Cubic),
        ("tcp-lp (scav)", true, CcAlgo::Cubic),
    ];
    let arms = variants
        .iter()
        .map(|&(name, scavenger, default_cc)| {
            // Classification only: priorities get separate connection
            // pools but share replicas and plain FIFO links — isolating
            // the transport.
            let mut xl = XLayerConfig {
                classify: true,
                scavenger_batch: scavenger,
                ..XLayerConfig::baseline()
            };
            if name == "tcp-lp (scav)" {
                xl.scavenger_algo = CcAlgo::TcpLp;
            }
            let mut spec = elibrary_at(rps, xl, ctx.len);
            spec.config.default_cc = default_cc;
            Arm::spec(name, spec).artifacts("a2", name.starts_with("ledbat"))
        })
        .collect();
    let runs = ctx.runs(arms);
    println!(
        "# A2: scavenger transport ablation at {rps} rps ({}s runs)",
        ctx.len.secs
    );
    println!("# batch CC        | LS p50 | LS p99 | batch p50 | batch p99 | drops");
    for ((name, ..), m) in variants.iter().zip(&runs) {
        let ls = m.class("latency-sensitive").expect("ls");
        let ba = m.class("batch-analytics").expect("batch");
        println!(
            "{name:<17} | {:>6.1} | {:>6.1} | {:>9.1} | {:>9.1} | {:>5}",
            ls.p50_ms, ls.p99_ms, ba.p50_ms, ba.p99_ms, m.world.pkt_drops
        );
    }
    println!();
    println!("# Expectation: LEDBAT batch yields at the 1 Gbps queue, cutting LS tail");
    println!("# latency without any mesh routing or TC changes (the (b)-only win).");
    0
}

/// A3: adaptive replica selection (§3.4, paper refs \[30]/\[50]). One of
/// four backend replicas runs 8× slower; round-robin and random keep
/// sending it 25 % of traffic, least-request and latency-EWMA route
/// around it.
pub(crate) fn a3(ctx: &Ctx) -> u8 {
    let rps = ctx.point(200.0);
    let policies = [
        LbPolicy::RoundRobin,
        LbPolicy::Random,
        LbPolicy::LeastRequest,
        LbPolicy::PeakEwma,
    ];
    let len = ctx.len;
    let arms = policies
        .iter()
        .map(|&policy| {
            Arm::new(format!("{policy:?}"), move || {
                // Single 1-deep service with 4 replicas behind the root.
                let mut spec = fanout(1, 1, 4, 2.0, rps);
                spec.mesh.default_policy.lb = policy;
                len.apply(&mut spec);
                let mut sim = Simulation::build(spec);
                // Replica 0 of the leaf service is the straggler.
                let straggler = sim.cluster().endpoints("svc-c0-d0", None)[0];
                sim.cluster_mut().pod_mut(straggler).speed_factor = 8.0;
                sim
            })
            .artifacts("a3", policy == LbPolicy::PeakEwma)
        })
        .collect();
    let runs = ctx.runs(arms);
    println!(
        "# A3: LB policy vs a straggler replica ({rps} rps, {}s runs)",
        len.secs
    );
    println!("# one of 4 replicas is 8x slower (exp service time, mean 2 ms vs 16 ms)");
    println!("# policy        | p50 (ms) | p90 (ms) | p99 (ms) | straggler share");
    for (policy, m) in policies.iter().zip(&runs) {
        let c = m.class("fanout").expect("class");
        println!(
            "{:<14} | {:>8.2} | {:>8.2} | {:>8.2} | {:>14.1}%",
            format!("{policy:?}"),
            c.p50_ms,
            c.p90_ms,
            c.p99_ms,
            job_share(m, "svc-c0-d0-1", "svc-c0-d0"),
        );
    }
    println!();
    println!("# Expectation: PeakEwma/LeastRequest starve the straggler and cut p99;");
    println!("# RoundRobin/Random keep feeding it a full quarter of the traffic.");
    0
}

/// A4: request hedging (§3.4, paper ref \[50] "low latency via
/// redundancy"). A 4-replica backend with high service-time variance:
/// hedging after ~p90 of the service time cuts the tail at a small
/// duplicate-work cost, entirely inside the sidecar.
pub(crate) fn a4(ctx: &Ctx) -> u8 {
    let rps = ctx.point(150.0);
    let delays = [0u64, 8, 15, 30];
    let arms = delays
        .iter()
        .map(|&hedge_ms| {
            let mut spec = fanout(1, 1, 4, 4.0, rps);
            heavy_tail(&mut spec);
            if hedge_ms > 0 {
                spec.mesh.default_policy.hedge_after = Some(SimDuration::from_millis(hedge_ms));
            }
            ctx.len.apply(&mut spec);
            Arm::spec(format!("hedge{hedge_ms}"), spec).artifacts("a4", hedge_ms == 15)
        })
        .collect();
    let runs = ctx.runs(arms);
    println!(
        "# A4: request hedging at {rps} rps ({}s runs)",
        ctx.len.secs
    );
    println!("# 4 replicas, log-normal service time (mean 4 ms, sigma 1.2: heavy tail)");
    println!("# hedge delay | p50 (ms) | p90 (ms) | p99 (ms) | hedges | extra work");
    for (hedge_ms, m) in delays.iter().zip(&runs) {
        let c = m.class("fanout").expect("class");
        let extra = m.world.hedges as f64 / m.world.roots_started.max(1) as f64 * 100.0;
        let label = if *hedge_ms == 0 {
            "off".to_string()
        } else {
            format!("{hedge_ms} ms")
        };
        println!(
            "{label:>11} | {:>8.2} | {:>8.2} | {:>8.2} | {:>6} | {:>9.1}%",
            c.p50_ms, c.p90_ms, c.p99_ms, m.world.hedges, extra
        );
    }
    println!();
    println!("# Expectation: a hedge delay near the service-time p90 trims p99 with");
    println!("# only a few percent duplicated requests.");
    0
}

/// A5: coordination with lower layers (§3.5). One of three replicas sits
/// behind a 100 Mbit/s access link; with 128 KiB responses a third of
/// the traffic saturates it. Blind round robin vs round robin with SDN
/// congestion filtering vs latency-EWMA (§3.3's "automatic inference").
pub(crate) fn a5(ctx: &Ctx) -> u8 {
    let rps = ctx.point(250.0);
    let variants = [
        ("RoundRobin", LbPolicy::RoundRobin, false),
        ("RoundRobin + SDN", LbPolicy::RoundRobin, true),
        ("PeakEwma (inference)", LbPolicy::PeakEwma, false),
    ];
    let arms = variants
        .iter()
        .map(|&(name, policy, sdn)| {
            let mut spec = fanout(1, 1, 3, 1.0, rps);
            for_each_backend(&mut spec, |b| b.response_bytes = Dist::constant(131_072.0));
            spec.network.default_rate_bps = 10_000_000_000;
            spec.network = spec.network.with_pod_rate("svc-c0-d0-1", 100_000_000);
            spec.mesh.default_policy.lb = policy;
            spec.xlayer.sdn_lb = sdn;
            ctx.len.apply(&mut spec);
            Arm::spec(name, spec).artifacts("a5", sdn)
        })
        .collect();
    let runs = ctx.runs(arms);
    println!(
        "# A5: SDN-coordinated load balancing at {rps} rps ({}s runs)",
        ctx.len.secs
    );
    println!("# 3 replicas; replica 1's access link is 100 Mbit/s (others 10 Gbit/s);");
    println!("# 128 KiB responses -> blind balancing saturates the slow link (~90%).");
    println!("# variant              | p50 (ms) | p90 (ms) | p99 (ms) | slow-pod share");
    for ((name, ..), m) in variants.iter().zip(&runs) {
        let c = m.class("fanout").expect("class");
        println!(
            "{name:<21} | {:>8.2} | {:>8.2} | {:>8.2} | {:>12.1}%",
            c.p50_ms,
            c.p90_ms,
            c.p99_ms,
            job_share(m, "svc-c0-d0-1", "svc-c0-d0")
        );
    }
    println!();
    println!("# Expectation: the SDN signal removes the slow pod from rotation within");
    println!("# one observation window; EWMA converges to the same steady state from");
    println!("# latency alone (§3.3), validating both coordination paths the paper names.");
    0
}
