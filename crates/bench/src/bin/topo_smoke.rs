//! Topology-scale CI smoke: a generated ~200-pod zonal fabric driven
//! end to end, with the three guarantees CI cares about checked in one
//! binary:
//!
//! - default (sweep) mode: run the fabric for a `MESHLAYER_SECS`-capped
//!   window at the standard request-class mix, print the throughput
//!   row, and — with `--rss-ceiling-mib N` — exit 1 if peak RSS exceeds
//!   the committed ceiling (the arena/SoA state must keep a 200-pod
//!   world cheap even in debug builds);
//! - `--record`: capture the canonical generated-fabric run (FLTREC01,
//!   modest load so the every-packet capture stays small);
//! - `--replay`: re-run against the capture and report divergences, so
//!   the generated fabric is held to the same bit-identity bar as the
//!   e-library worlds.
//!
//! Flags: `--pods N` (default 200), `--rps R` (default 5000 for the
//! sweep; the record/replay scenario is fixed at 500 so both sides
//! agree), `--rss-ceiling-mib N`.

use meshlayer_bench::{handle_flight_with, peak_rss_bytes, run_profiled, RunLength};
use meshlayer_core::{Simulation, TopoParams};

/// Parse `--flag <number>` from `args`, exiting 2 on a missing or
/// malformed value.
fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let v = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("topo_smoke: {flag} requires a value");
        std::process::exit(2);
    });
    Some(v.parse().unwrap_or_else(|_| {
        eprintln!("topo_smoke: bad value {v:?} for {flag}");
        std::process::exit(2);
    }))
}

/// The value-taking flags only this binary takes.
const OWN_FLAGS: [&str; 3] = ["--pods", "--rps", "--rss-ceiling-mib"];

fn main() {
    // Record/replay: fixed ~200-pod scenario, a pure function of the
    // run length so the recording and replaying processes line up.
    if let Some(code) = handle_flight_with("topo_smoke", &OWN_FLAGS, |len| {
        let mut p = TopoParams::sized(200, 500.0);
        p.seed = len.seed;
        let mut spec = p.spec();
        len.apply(&mut spec);
        spec
    }) {
        std::process::exit(code);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let pods: usize = parse_num(&args, "--pods").unwrap_or(200);
    let rps: f64 = parse_num(&args, "--rps").unwrap_or(5_000.0);
    let ceiling_mib: Option<u64> = parse_num(&args, "--rss-ceiling-mib");

    let mut len = RunLength::from_env();
    if std::env::var("MESHLAYER_SECS").is_err() {
        len.secs = 2;
    }
    if std::env::var("MESHLAYER_WARMUP").is_err() {
        len.warmup = 1;
    }

    let mut p = TopoParams::sized(pods, rps);
    p.seed = len.seed;
    let mut spec = p.spec();
    len.apply(&mut spec);
    eprintln!(
        "topo_smoke: {} pods on a generated zonal fabric at {rps:.0} rps, {}s...",
        p.pod_count(),
        len.secs
    );
    let mut sim = Simulation::build(spec);
    let m = run_profiled(&mut sim, "topo_smoke");
    let rss = peak_rss_bytes();
    println!(
        "topo_smoke: pods={} rps={rps:.0} events={} ns/packet-hop={:.0} roots_ok={} peak_rss_mib={:.1}",
        p.pod_count(),
        m.events,
        m.wall_ns as f64 / (m.pkt_hops() as f64).max(1.0),
        m.world.roots_ok,
        rss as f64 / (1024.0 * 1024.0),
    );
    if m.world.roots_ok == 0 {
        eprintln!("topo_smoke: FAIL: no request completed on the generated fabric");
        std::process::exit(1);
    }
    if let Some(mib) = ceiling_mib {
        if rss > mib * 1024 * 1024 {
            eprintln!(
                "topo_smoke: FAIL: peak RSS {:.1} MiB exceeds the {} MiB ceiling",
                rss as f64 / (1024.0 * 1024.0),
                mib
            );
            std::process::exit(1);
        }
        eprintln!("topo_smoke: peak RSS within {mib} MiB ceiling");
    }
}
