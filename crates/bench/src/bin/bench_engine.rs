//! Continuous benchmark for the event-engine hot path.
//!
//! Runs the fig4 sweep shape serially (each rps point with and without
//! cross-layer optimization), takes event-loop wall-clock per simulated
//! packet-hop — the model fixes the packet-hops of a run, an engine is
//! free to spend fewer events on them — and writes `BENCH_engine.json`
//! to the artifact directory so the perf trajectory is tracked across
//! PRs.
//!
//! Flags:
//! - `--smoke`: short CI run (2 sim-seconds, reduced point set) unless
//!   `MESHLAYER_SECS` explicitly overrides.
//! - `--gate <baseline.json>`: exit non-zero if, over the runs the
//!   checked-in baseline also has (same rps, optimization and length),
//!   host ns per packet-hop exceeds 1.25x the baseline's, or
//!   the deterministic events per packet-hop moved by more than 1 %.
//! - `--profile <trace.json>`: phase-profile every run and write one
//!   Chrome trace-event file (load at ui.perfetto.dev), one track of
//!   ~1 ms event slices per run.
//! - `--overhead-check`: paired smoke — fail (exit 1) if the
//!   profiled run's speed drops below 95 % of the unprofiled run's
//!   (whose loop reads no clock at all).
//! - `--topo 100,250,1000`: pod counts for the topology-scale axis —
//!   one generated zonal fabric per count, driven at 10⁵ RPS (2·10⁴
//!   under `--smoke`), emitted as `topo_scale` rows. Defaults to
//!   `100,250,1000` (or `50,200` under `--smoke`); `--topo 0` skips the
//!   axis entirely.
//!
//! Defaults to `MESHLAYER_SECS=10` (not the harness-wide 30) — long
//! enough for stable throughput, short enough to run on every PR.
//! Topology-scale rows cap at 2 sim-seconds each: at 10⁵ offered RPS a
//! generated fabric processes tens of millions of events in that window
//! already.

use meshlayer_bench::{
    artifact_dir, engine_macro_bench, run_elibrary_profiled, topo_scale_bench,
    write_profile_artifact, EngineBenchReport, RunLength,
};
use meshlayer_core::XLayerConfig;

/// Multiple of the baseline's host ns per packet-hop above which the
/// gate fails.
const GATE_CEILING: f64 = 1.25;

/// Relative drift of events per packet-hop beyond which the gate fails.
/// The figure is deterministic, so any drift is a change to the engine's
/// event diet (or to the model): deliberate ones regenerate the baseline.
const EVENTS_TOLERANCE: f64 = 0.01;

/// Multiple of the baseline peak RSS above which a topology-scale row
/// fails the gate (memory is as much the scale story as throughput).
const RSS_CEILING: f64 = 1.2;

/// Fraction of unprofiled speed the profiled run must keep
/// (`--overhead-check`): phase timing is meant to be low-overhead.
const OVERHEAD_FLOOR: f64 = 0.95;

/// Paired smoke comparing profiled vs unprofiled loop time over
/// the same run (same events, same packet-hops). Best-of-2 on each side
/// to damp scheduler noise.
fn overhead_check(len: RunLength) -> i32 {
    let mut best = [u64::MAX; 2];
    for (i, profile) in [false, true].into_iter().enumerate() {
        for _ in 0..2 {
            let (_, m, _) =
                run_elibrary_profiled(30.0, XLayerConfig::paper_prototype(), len, profile);
            best[i] = best[i].min(m.wall_ns);
        }
    }
    let ratio = best[0] as f64 / (best[1] as f64).max(1.0);
    eprintln!(
        "overhead-check: loop {:.1} ms unprofiled, {:.1} ms profiled ({:.3}x speed, floor {OVERHEAD_FLOOR}x)",
        best[0] as f64 / 1e6,
        best[1] as f64 / 1e6,
        ratio
    );
    if ratio < OVERHEAD_FLOOR {
        eprintln!(
            "bench_engine: FAIL: profiling overhead exceeds {:.0}% of the unprofiled loop",
            (1.0 - OVERHEAD_FLOOR) * 100.0
        );
        return 1;
    }
    eprintln!("overhead-check: ok");
    0
}

/// Work and cost of one side of a gate comparison.
#[derive(Clone, Copy, Default)]
struct Cost {
    events: u64,
    pkt_hops: u64,
    wall_ns: u64,
}

/// Gate one matched pair: host ns per packet-hop against the ceiling,
/// events per packet-hop against the tolerance. Returns `true` on a
/// failure (already reported).
fn gate_pair(what: &str, now: Cost, base: Cost, baseline_path: &str) -> bool {
    let per = |num: u64, c: Cost| num as f64 / (c.pkt_hops as f64).max(1.0);
    let (ns, base_ns) = (per(now.wall_ns, now), per(base.wall_ns, base));
    let (ev, base_ev) = (per(now.events, now), per(base.events, base));
    let ns_ratio = ns / base_ns.max(1e-12);
    let ev_drift = ev / base_ev.max(1e-12) - 1.0;
    eprintln!(
        "gate: {what}: {ns:.1} ns/packet-hop vs baseline {base_ns:.1} ({ns_ratio:.2}x, \
         ceiling {GATE_CEILING}x); {ev:.4} events/packet-hop vs {base_ev:.4} ({:+.2} %, \
         tolerance {:.0} %)",
        ev_drift * 100.0,
        EVENTS_TOLERANCE * 100.0
    );
    let mut failed = false;
    if ns_ratio > GATE_CEILING {
        eprintln!(
            "bench_engine: FAIL: {what} host time per packet-hop regressed >{:.0}% vs {baseline_path}",
            (GATE_CEILING - 1.0) * 100.0
        );
        failed = true;
    }
    if ev_drift.abs() > EVENTS_TOLERANCE {
        eprintln!(
            "bench_engine: FAIL: {what} events per packet-hop moved >{:.0}% vs {baseline_path} \
             (deterministic: the engine's event diet or the model changed — regenerate the \
             baseline if deliberate)",
            EVENTS_TOLERANCE * 100.0
        );
        failed = true;
    }
    failed
}

fn main() {
    // Exits 2 on a flag the harness does not know.
    meshlayer_bench::positional_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let baseline_path = args.iter().position(|a| a == "--gate").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("bench_engine: --gate requires a path to a baseline BENCH_engine.json");
            std::process::exit(2);
        })
    });
    // `--topo` takes a comma list of pod counts; `0` entries are dropped,
    // so `--topo 0` skips the topology-scale axis.
    let topo_pods: Vec<usize> = args
        .iter()
        .position(|a| a == "--topo")
        .map(|i| {
            let v = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!(
                    "bench_engine: --topo requires a comma list of pod counts, e.g. 100,1000"
                );
                std::process::exit(2);
            });
            v.split(',')
                .map(|p| {
                    p.trim().parse().unwrap_or_else(|_| {
                        eprintln!("bench_engine: bad pod count {p:?} in --topo {v}");
                        std::process::exit(2);
                    })
                })
                .filter(|&n: &usize| n > 0)
                .collect()
        })
        .unwrap_or_else(|| {
            if smoke {
                vec![50, 200]
            } else {
                vec![100, 250, 1000]
            }
        });

    let mut len = RunLength::from_env();
    if std::env::var("MESHLAYER_SECS").is_err() {
        len.secs = if smoke { 2 } else { 10 };
    }
    if std::env::var("MESHLAYER_WARMUP").is_err() {
        len.warmup = 1;
    }
    if args.iter().any(|a| a == "--overhead-check") {
        std::process::exit(overhead_check(len));
    }
    let points: Vec<f64> = if smoke {
        vec![20.0, 40.0]
    } else {
        vec![10.0, 20.0, 30.0, 40.0, 50.0]
    };

    eprintln!(
        "bench_engine: fig4 macro bench, rps={points:?}, {}s per run ({} serial runs)...",
        len.secs,
        points.len() * 2
    );
    let mut report = engine_macro_bench(&points, len);
    if !topo_pods.is_empty() {
        let topo_rps = if smoke { 20_000.0 } else { 100_000.0 };
        // Generated fabrics process orders of magnitude more events per
        // sim-second than the e-library sweep; 2 sim-seconds per fabric
        // keeps the artifact regenerable on every PR.
        let mut tl = len;
        tl.secs = tl.secs.min(2);
        eprintln!(
            "bench_engine: topology scale, pods={topo_pods:?} at {topo_rps:.0} rps, {}s per fabric...",
            tl.secs
        );
        report.topo_scale = topo_scale_bench(&topo_pods, topo_rps, tl);
    }
    print!("{}", report.render());
    write_profile_artifact();

    let dir = artifact_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("bench_engine: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let out = dir.join("BENCH_engine.json");
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("bench_engine: cannot write {}: {e}", out.display());
        std::process::exit(2);
    }
    eprintln!("wrote {}", out.display());

    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_engine: cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        // An unparseable baseline is almost always an older-schema
        // artifact (the vendored serde has no field defaulting), not a
        // perf signal: warn and skip the gate instead of failing the PR.
        let baseline: EngineBenchReport = match serde_json::from_str(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "bench_engine: WARN: baseline {path} does not parse as schema \
                     v{} ({e}); regenerate it with this binary — skipping gate",
                    meshlayer_bench::ENGINE_BENCH_VERSION
                );
                return;
            }
        };
        // fig4 runs gate in aggregate over the runs both reports have:
        // a run is named by (rps, optimized, secs) under one seed, so a
        // smoke run meets the baseline's smoke rows, never its full ones.
        let mut failed = false;
        let (mut now, mut base) = (Cost::default(), Cost::default());
        if baseline.seed == report.seed {
            for run in &report.runs {
                let Some(b) = baseline.runs.iter().find(|b| {
                    b.rps == run.rps && b.optimized == run.optimized && b.secs == run.secs
                }) else {
                    continue;
                };
                for (sum, r) in [(&mut now, run), (&mut base, b)] {
                    sum.events += r.events;
                    sum.pkt_hops += r.pkt_hops;
                    sum.wall_ns += r.wall_ns;
                }
            }
        }
        if base.pkt_hops == 0 {
            eprintln!(
                "gate: fig4: baseline has no {}s seed-{} rows for these rps points, skipping",
                report.secs, report.seed
            );
        } else {
            failed |= gate_pair("fig4", now, base, &path);
        }
        // Topology-scale rows gate pairwise by (pods, variant): host time
        // per packet-hop must stay at <=1.25x the baseline, events per
        // packet-hop within 1 %, and peak RSS at <=1.2x. Rows the
        // baseline lacks (new pod counts, new variants) are skipped —
        // they have nothing to regress against yet.
        for row in &report.topo_scale {
            let Some(base) = baseline
                .topo_scale
                .iter()
                .find(|b| b.pods == row.pods && b.variant == row.variant)
            else {
                eprintln!(
                    "gate: topo {} {} pods: no baseline row, skipping",
                    row.variant, row.pods
                );
                continue;
            };
            let cost = |r: &meshlayer_bench::TopoScaleRow| Cost {
                events: r.events,
                pkt_hops: r.pkt_hops,
                wall_ns: r.wall_ns,
            };
            let what = format!("topo {} {} pods", row.variant, row.pods);
            failed |= gate_pair(&what, cost(row), cost(base), &path);
            let rss_ratio = row.peak_rss_bytes as f64 / base.peak_rss_bytes.max(1) as f64;
            eprintln!(
                "gate: {what}: rss {:.1} MiB ({rss_ratio:.2}x, ceiling {RSS_CEILING}x)",
                row.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            );
            if base.peak_rss_bytes > 0 && rss_ratio > RSS_CEILING {
                eprintln!(
                    "bench_engine: FAIL: topo {} {} pods peak RSS grew >{:.0}% vs {path}",
                    row.variant,
                    row.pods,
                    (RSS_CEILING - 1.0) * 100.0
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("gate: ok");
    }
}
