//! `meshbench` — the repository's benchmark.
//!
//! ```text
//! meshbench --workload NAME --seed N --seconds S --trace 0|1
//! meshbench [--seed N] [--seconds S] [--trace 0|1] [--check-repeat]
//! meshbench --emit-contract
//! ```
//!
//! With `--workload`, measures that workload in this process: set-up
//! timing, then identical passes over the workload until `--seconds`
//! have been measured, then one line per metric (name, value, unit) and,
//! last, the result object the driver reads. Without it, runs every
//! workload in a child process of its own (peak RSS is per process), and
//! with `--check-repeat` runs each twice and compares the two results
//! within the benchmark's own bounds. See `benchmark/README.md`.

mod metrics;
mod probes;
mod trace;
mod workloads;

use metrics::{median, ratio, Ledger, Metric};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Spans;
use workloads::{Env, Pass, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    emit_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        check_repeat: false,
        emit_contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", known()))?,
                );
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {v:?} is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                };
            }
            "--check-repeat" => args.check_repeat = true,
            "--emit-contract" => args.emit_contract = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `benchmark/out/`: trace files and temporary captures, inside the
/// checkout the binary was built in.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Set-up time of one pass: spec generation plus `Simulation::build` for
/// each build of the pass. A build takes 0.1–5 ms, so it is repeated —
/// at least nine times and for about 0.3 s — and the median reported.
fn measure_setup(w: Workload, seed: u64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 9 || (started.elapsed().as_secs_f64() < 0.3 && samples.len() < 999) {
        let mut took = 0.0;
        for build in 0..w.builds() {
            let t = Instant::now();
            let sim = meshlayer_core::Simulation::build(w.spec(seed, build));
            took += t.elapsed().as_secs_f64();
            drop(sim);
        }
        samples.push(took);
    }
    median(&samples)
}

/// The untraced run: the seven end-to-end metrics.
fn measure(w: Workload, args: &Args) -> Result<(Ledger, u64, u64), String> {
    let env = Env {
        traced: false,
        out_dir: out_dir(),
    };
    let setup_s = measure_setup(w, args.seed);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let pass = w.pass(args.seed, &mut Spans::new(), &env)?;
        let last = pass.wall_s;
        if passes.is_empty() {
            // What one pass needs: later passes reuse a fragmented heap
            // and push the high-water mark up by a varying 0–25 %.
            peak_rss = peak_rss_mib()?;
        }
        passes.push(pass);
        // Start another pass only while at least half of it fits.
        if started.elapsed().as_secs_f64() + last / 2.0 > args.seconds {
            break;
        }
    }
    let first = &passes[0];
    if let Some(n) = passes
        .iter()
        .position(|p| p.fingerprint != first.fingerprint)
    {
        return Err(format!(
            "pass {n} differs from pass 0 on the same inputs:\n  {}\n  {}",
            passes[n].fingerprint, first.fingerprint
        ));
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut l = Ledger::default();
    l.set(
        "wall_ns_per_pkt_hop",
        per_pass(&|p| ratio(p.wall_s * 1e9, p.hops as f64)),
    );
    l.set("setup_s", setup_s);
    l.set(
        "pkt_hops_per_run_s",
        per_pass(&|p| ratio(p.hops as f64, p.run_s)),
    );
    l.set("peak_rss_mib", peak_rss);
    l.set(
        "ok_share",
        ratio(
            first.roots_ok as f64,
            (first.roots_ok + first.roots_failed) as f64,
        ),
    );
    l.set("fg_p50_ms", first.fg_p50_ms);
    l.set("fg_tail_ms", first.fg_tail_ms);
    eprintln!(
        "{}: {} passes of {:.2} s (median), {} packet-hops and {} foreground samples each, tail = p{}",
        w.name(),
        passes.len(),
        per_pass(&|p| p.wall_s),
        first.hops,
        first.fg_samples,
        w.tail_q() * 100.0,
    );
    let attempted = passes.iter().map(|p| p.roots_ok + p.roots_failed).sum();
    let failed = passes.iter().map(|p| p.roots_failed).sum();
    Ok((l, attempted, failed))
}

/// The traced run: one untraced reference pass, one pass with spans,
/// profiling and allocation counting on, then the layer probes.
fn measure_traced(w: Workload, args: &Args) -> Result<(Ledger, u64, u64), String> {
    let out_dir = out_dir();
    let env = |traced| Env {
        traced,
        out_dir: out_dir.clone(),
    };
    let reference = w.pass(args.seed, &mut Spans::new(), &env(false))?;
    let mut spans = Spans::new();
    let traced = w.pass(args.seed, &mut spans, &env(true))?;
    if traced.fingerprint != reference.fingerprint {
        return Err(format!(
            "tracing changed the model's outputs:\n  {}\n  {}",
            traced.fingerprint, reference.fingerprint
        ));
    }
    let mut l = traced.ledger;
    let alloc = trace::alloc_counts();

    if w == Workload::ChaosFlight {
        // What capture and replay cost on top of a plain run, all three
        // under the traced pass's settings.
        let plain = w.plain_loop_s(args.seed, &mut spans, &env(true))?;
        l.set(
            "flightrec.record_cost_share",
            ratio(traced.loop_s[0], plain) - 1.0,
        );
        l.set(
            "flightrec.replay_cost_share",
            ratio(traced.loop_s[1], plain) - 1.0,
        );
    }

    let spec = w.spec(args.seed, 0);
    let network = spec.network.clone();
    let sim = meshlayer_core::Simulation::build(spec);
    let mut fabric = meshlayer_core::Fabric::build(sim.cluster(), &network);
    drop(sim);
    l.absorb(probes::run_all(&mut spans, &mut fabric));

    let events = l.get("core.engine.events");
    let roots = l.get("workload.roots_ok") + l.get("workload.roots_failed");
    l.set("alloc.count_per_event", ratio(alloc.allocs as f64, events));
    l.set("alloc.bytes_per_event", ratio(alloc.bytes as f64, events));
    l.set("alloc.count_per_root", ratio(alloc.allocs as f64, roots));
    l.set(
        "alloc.peak_live_mib",
        alloc.peak_live as f64 / (1024.0 * 1024.0),
    );
    l.set(
        "prof.profile_cost_share",
        ratio(traced.run_s, reference.run_s) - 1.0,
    );
    l.set(
        "bench.trace_overhead_share",
        ratio(traced.wall_s, reference.wall_s) - 1.0,
    );
    l.set("bench.pass_wall_s", reference.wall_s);
    l.set("bench.spans", spans.spans().len() as f64);

    let json = trace::chrome_trace_json(w.name(), spans.spans());
    meshlayer_prof::validate_chrome_trace(&json)
        .map_err(|e| format!("trace would not pass `meshctl validate-trace`: {e}"))?;
    let path = out_dir.join(format!("{}.trace.json", w.name()));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("{}: wrote {}", w.name(), path.display());
    let selfs = trace::self_times_ns(spans.spans());
    for (s, self_ns) in spans.spans().iter().zip(selfs) {
        if s.parent.is_none_or(|p| p == 0) {
            eprintln!(
                "  span {:<16} {:>9.3} ms, self {:>9.3} ms",
                s.name,
                (s.end_ns - s.start_ns) as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    }
    Ok((
        l,
        traced.roots_ok + traced.roots_failed,
        traced.roots_failed,
    ))
}

fn registry(trace: bool) -> Vec<Metric> {
    if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    }
}

/// Measure one workload in this process and print its report.
fn run_workload(w: Workload, args: &Args) -> ExitCode {
    let registry = registry(args.trace);
    let measured = if args.trace {
        measure_traced(w, args)
    } else {
        measure(w, args)
    }
    .and_then(
        |(ledger, attempted, failed)| match ledger.unknown(&registry)[..] {
            [] => Ok((ledger, attempted.max(1), failed)),
            ref names => Err(format!("metrics missing from the registry: {names:?}")),
        },
    );
    match measured {
        Ok((ledger, attempted, failed)) => {
            for m in &registry {
                println!("{:<40} {:>20} {}", m.name, ledger.get(&m.name), m.unit);
            }
            println!(
                "{}",
                metrics::result_line(true, attempted, failed, &registry, &ledger)
            );
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{}: INVALID RUN: {why}", w.name());
            println!(
                "{}",
                metrics::result_line(false, 1, 1, &registry, &Ledger::default())
            );
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in a child process; pass its report through and
/// return the parsed result line.
fn run_child(w: Workload, args: &Args) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or("child printed no report")?;
    println!("== {} (seed {})\n{report}", w.name(), args.seed);
    let (correct, values) = metrics::parse_result(line)?;
    if !out.status.success() || !correct {
        return Err(format!("{} run is invalid ({})", w.name(), out.status));
    }
    Ok(values)
}

/// Compare two results of one workload: model-decided metrics must be
/// equal, bounded host metrics within their bound either way.
fn compare(
    registry: &[Metric],
    a: &std::collections::BTreeMap<String, f64>,
    b: &std::collections::BTreeMap<String, f64>,
) -> Vec<String> {
    let mut out = Vec::new();
    println!(
        "  {} model-decided metrics must repeat exactly",
        registry.iter().filter(|m| m.exact).count()
    );
    for m in registry {
        let (x, y) = (a[&m.name], b[&m.name]);
        if m.exact && x != y {
            out.push(format!("{}: {x} then {y}, must repeat exactly", m.name));
        }
        if let Some(bound) = m.bound.filter(|_| !m.exact) {
            let worse = metrics::worsening(m, x, y).abs();
            let verdict = if worse > bound { "OUTSIDE" } else { "within" };
            println!(
                "  {:<22} {x:>16.6} then {y:>16.6}: {:>5.1} % apart, {verdict} ±{:.0} %",
                m.name,
                worse * 100.0,
                bound * 100.0
            );
            if worse > bound {
                out.push(format!("{}: {x} then {y}, beyond ±{bound}", m.name));
            }
        }
    }
    out
}

/// Run every workload, each in its own process.
fn run_suite(args: &Args) -> ExitCode {
    let registry = registry(args.trace);
    let mut complaints = Vec::new();
    for w in Workload::ALL {
        let first = match run_child(w, args) {
            Ok(v) => v,
            Err(e) => {
                complaints.push(e);
                continue;
            }
        };
        if args.check_repeat {
            match run_child(w, args) {
                Ok(second) => {
                    println!("== {} repeat check", w.name());
                    complaints.extend(
                        compare(&registry, &first, &second)
                            .into_iter()
                            .map(|c| format!("{}: {c}", w.name())),
                    );
                }
                Err(e) => complaints.push(e),
            }
        }
    }
    for c in &complaints {
        eprintln!("FAILED: {c}");
    }
    if complaints.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("meshbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_contract {
        let workloads = Workload::ALL.map(|w| (w.name(), w.why()));
        print!("{}", metrics::contract_json(&workloads));
        return ExitCode::SUCCESS;
    }
    match args.workload {
        Some(w) => run_workload(w, &args),
        None => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_registry_written_out() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let workloads = Workload::ALL.map(|w| (w.name(), w.why()));
        assert_eq!(
            on_disk,
            metrics::contract_json(&workloads),
            "regenerate with `meshbench --emit-contract > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{:?}", w);
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn setup_time_of_a_small_world_is_positive_and_far_below_a_second() {
        let s = measure_setup(Workload::Fig4Elibrary, 7);
        assert!(s > 0.0 && s < 1.0, "{s}");
    }

    #[test]
    fn repeat_check_wants_equal_model_metrics_and_bounded_host_metrics() {
        let registry = metrics::end_to_end();
        let base: std::collections::BTreeMap<String, f64> =
            registry.iter().map(|m| (m.name.clone(), 100.0)).collect();
        assert!(compare(&registry, &base, &base).is_empty());
        let mut drift = base.clone();
        drift.insert("fg_p50_ms".into(), 100.000001);
        drift.insert("setup_s".into(), 120.0);
        drift.insert("peak_rss_mib".into(), 80.0);
        let complaints = compare(&registry, &base, &drift);
        assert_eq!(complaints.len(), 2, "{complaints:?}");
        assert!(complaints[0].starts_with("peak_rss_mib"));
        assert!(complaints[1].starts_with("fg_p50_ms"));
    }
}
