//! Regenerates the paper's Fig 4 (latency-sensitive p50/p99 vs RPS, with
//! and without cross-layer optimization) and the §4.3 batch-degradation
//! claim (T1). Set MESHLAYER_SECS to shrink run length.

use meshlayer_bench::{
    fig4_sweep, render_fig4, render_t1, run_elibrary_sim, write_telemetry_artifacts, RunLength,
};
use meshlayer_core::XLayerConfig;

fn main() {
    if let Some(code) = meshlayer_bench::handle_flight("fig4_latency") {
        std::process::exit(code);
    }
    let len = RunLength::from_env();
    let points: Vec<f64> = meshlayer_bench::positional_args()
        .iter()
        .filter_map(|a| a.parse().ok())
        .collect();
    let points = if points.is_empty() {
        vec![10.0, 20.0, 30.0, 40.0, 50.0]
    } else {
        points
    };
    eprintln!(
        "running fig4 sweep: rps={points:?}, {}s per run ({} runs)...",
        len.secs,
        points.len() * 2
    );
    let rows = fig4_sweep(&points, len);
    println!("{}", render_fig4(&rows));
    println!("{}", render_t1(&rows));
    println!(
        "{}",
        serde_json::to_string_pretty(&rows).expect("serializable rows")
    );

    // Telemetry artifacts from one representative optimized run at the
    // middle load point (kept short; the sweep already covers the curve).
    let mid = points[points.len() / 2];
    let mut telem_len = len;
    telem_len.secs = telem_len.secs.min(10);
    telem_len.warmup = telem_len.warmup.min(2);
    let (sim, m) = run_elibrary_sim(mid, XLayerConfig::paper_prototype(), telem_len);
    match write_telemetry_artifacts("fig4", &m, Some(sim.tracer().spans())) {
        Ok(paths) => {
            for p in paths {
                eprintln!("wrote {}", p.display());
            }
        }
        Err(e) => eprintln!("telemetry artifacts failed: {e}"),
    }
    meshlayer_bench::write_profile_artifact();
}
