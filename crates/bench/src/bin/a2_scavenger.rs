//! A2: scavenger transports (§4.2 optimization (b) / §3.4 evolvability).
//!
//! Can a scavenger congestion controller alone — no replica splitting, no
//! TC rules — protect latency-sensitive traffic at a shared bottleneck?
//! Runs the e-library mix with classification on (so batch rides its own
//! connections) and compares batch congestion control algorithms.

use meshlayer_apps::{elibrary, ElibraryParams};
use meshlayer_bench::{write_telemetry_artifacts, RunLength};
use meshlayer_core::{Simulation, XLayerConfig};
use meshlayer_transport::CcAlgo;

fn main() {
    if let Some(code) = meshlayer_bench::handle_flight("a2_scavenger") {
        std::process::exit(code);
    }
    let len = RunLength::from_env();
    let rps: f64 = meshlayer_bench::positional_args()
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(40.0);
    println!(
        "# A2: scavenger transport ablation at {rps} rps ({}s runs)",
        len.secs
    );
    println!("# batch CC        | LS p50 | LS p99 | batch p50 | batch p99 | drops");
    for (name, scavenger, default_cc) in [
        ("cubic (baseline)", false, CcAlgo::Cubic),
        ("reno", false, CcAlgo::Reno),
        ("ledbat (scav)", true, CcAlgo::Cubic),
        ("tcp-lp (scav)", true, CcAlgo::Cubic),
    ] {
        let params = ElibraryParams {
            ls_rps: rps,
            batch_rps: rps,
            ..ElibraryParams::default()
        };
        let mut spec = elibrary(&params);
        // Classification only: priorities get separate connection pools but
        // share replicas and plain FIFO links — isolating the transport.
        spec.xlayer = XLayerConfig {
            classify: true,
            scavenger_batch: scavenger,
            ..XLayerConfig::baseline()
        };
        spec.config.default_cc = default_cc;
        if name == "tcp-lp (scav)" {
            spec.xlayer.scavenger_algo = CcAlgo::TcpLp;
        }
        len.apply(&mut spec);
        let m = meshlayer_bench::run_profiled(&mut Simulation::build(spec), name);
        let ls = m.class("latency-sensitive").expect("ls");
        let ba = m.class("batch-analytics").expect("batch");
        println!(
            "{name:<17} | {:>6.1} | {:>6.1} | {:>9.1} | {:>9.1} | {:>5}",
            ls.p50_ms, ls.p99_ms, ba.p50_ms, ba.p99_ms, m.world.pkt_drops
        );
        if scavenger && name.starts_with("ledbat") {
            if let Err(e) = write_telemetry_artifacts("a2", &m, None) {
                eprintln!("telemetry artifacts failed: {e}");
            }
        }
    }
    println!();
    println!("# Expectation: LEDBAT batch yields at the 1 Gbps queue, cutting LS tail");
    println!("# latency without any mesh routing or TC changes (the (b)-only win).");
    meshlayer_bench::write_profile_artifact();
}
