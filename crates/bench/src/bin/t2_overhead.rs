//! T2: the sidecar-overhead experiment behind the §3.6 challenge — "the
//! increased latency imposed by the two sidecars interposed between each
//! application-layer end-to-end communication... in the range of 3 msec at
//! the 99th percentile for Istio".
//!
//! Runs a chain app at several depths with the mesh's proxy-overhead model
//! on and off, and reports the added latency per hop count.

use meshlayer_apps::fanout;
use meshlayer_bench::RunLength;
use meshlayer_core::Simulation;
use meshlayer_simcore::Dist;

fn run(depth: usize, with_overhead: bool, len: RunLength) -> (f64, f64) {
    let mut spec = fanout(1, depth, 1, 0.5, 50.0);
    if !with_overhead {
        spec.mesh.proxy_overhead = Dist::constant(0.0);
        spec.config.app_sidecar_delay = meshlayer_simcore::SimDuration::ZERO;
    }
    len.apply(&mut spec);
    let m = meshlayer_bench::run_profiled(
        &mut Simulation::build(spec),
        &format!(
            "depth{depth}-{}",
            if with_overhead { "mesh" } else { "nomesh" }
        ),
    );
    let c = m.class("fanout").expect("class");
    (c.p50_ms, c.p99_ms)
}

fn main() {
    // Exits 2 on a flag the harness does not know.
    meshlayer_bench::positional_args();
    let len = {
        let mut l = RunLength::from_env();
        l.secs = l.secs.min(15);
        l
    };
    println!("# T2: latency added by sidecar interposition (chain app, 50 rps)");
    println!("# depth = number of service hops after the ingress; each hop");
    println!("# crosses two sidecars, as in the paper's architecture.");
    println!(
        "# hops | p50 no-mesh | p50 mesh | p99 no-mesh | p99 mesh | p99 added | per 2-sidecar hop"
    );
    for depth in [1usize, 2, 4, 8] {
        let (p50_off, p99_off) = run(depth, false, len);
        let (p50_on, p99_on) = run(depth, true, len);
        let added = p99_on - p99_off;
        // hops crossing two sidecars: ingress->root + chain = depth + 1.
        let per_hop = added / (depth as f64 + 1.0);
        println!(
            "{depth:>6} | {p50_off:>11.2} | {p50_on:>8.2} | {p99_off:>11.2} | {p99_on:>8.2} | {added:>9.2} | {per_hop:>8.2} ms",
        );
    }
    println!();
    println!("# Istio's published figure is ~3 ms p99 for the two sidecars of one hop;");
    println!("# the default proxy-overhead model lands in the same order of magnitude.");
    meshlayer_bench::write_profile_artifact();
}
