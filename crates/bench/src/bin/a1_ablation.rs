//! A1: per-layer ablation of the §4.2 optimizations. Runs the e-library
//! workload at a fixed RPS, toggling each optimization site independently,
//! and prints LS/batch latency for each combination.

use meshlayer_bench::{run_elibrary, write_telemetry_artifacts, RunLength};
use meshlayer_core::XLayerConfig;

fn main() {
    if let Some(code) = meshlayer_bench::handle_flight("a1_ablation") {
        std::process::exit(code);
    }
    let len = RunLength::from_env();
    let rps: f64 = meshlayer_bench::positional_args()
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(30.0);
    let mut variants: Vec<(&str, XLayerConfig)> = vec![
        ("baseline (all off)", XLayerConfig::baseline()),
        (
            "classify only",
            XLayerConfig {
                classify: true,
                ..XLayerConfig::baseline()
            },
        ),
        (
            "+ subset routing (a)",
            XLayerConfig {
                classify: true,
                mesh_subset_routing: true,
                ..XLayerConfig::baseline()
            },
        ),
        (
            "+ host TC only (c)",
            XLayerConfig {
                classify: true,
                host_tc: true,
                ..XLayerConfig::baseline()
            },
        ),
        ("paper prototype (a+c)", XLayerConfig::paper_prototype()),
        (
            "+ scavenger (b)",
            XLayerConfig {
                scavenger_batch: true,
                ..XLayerConfig::paper_prototype()
            },
        ),
        (
            "+ net prio (d)",
            XLayerConfig {
                dscp_tagging: true,
                net_prio: true,
                ..XLayerConfig::paper_prototype()
            },
        ),
        ("full (a+b+c+d + compute)", XLayerConfig::full()),
    ];
    println!("# A1 ablation at {rps} rps ({}s runs)", len.secs);
    println!("# variant                   | LS p50 | LS p99 | batch p50 | batch p99");
    let mut last = None;
    for (name, xl) in variants.drain(..) {
        let m = run_elibrary(rps, xl, len);
        let ls = m
            .class("latency-sensitive")
            .cloned()
            .unwrap_or_else(|| empty("ls"));
        let ba = m
            .class("batch-analytics")
            .cloned()
            .unwrap_or_else(|| empty("ba"));
        println!(
            "{name:<27} | {:>6.1} | {:>6.1} | {:>9.1} | {:>9.1}",
            ls.p50_ms, ls.p99_ms, ba.p50_ms, ba.p99_ms
        );
        last = Some(m);
    }
    // Telemetry artifacts from the full (a+b+c+d) variant.
    if let Some(m) = last {
        if let Err(e) = write_telemetry_artifacts("a1", &m, None) {
            eprintln!("telemetry artifacts failed: {e}");
        }
    }
    meshlayer_bench::write_profile_artifact();
}

fn empty(class: &str) -> meshlayer_workload::ClassSummary {
    meshlayer_workload::ClassSummary {
        class: class.into(),
        completed: 0,
        failed: 0,
        mean_ms: 0.0,
        p50_ms: 0.0,
        p90_ms: 0.0,
        p99_ms: 0.0,
        max_ms: 0.0,
    }
}
