//! # meshlayer-bench
//!
//! The experiment harness. Every figure and table of the paper, every
//! ablation, the CI smokes and the simulating operator views are entries
//! of one table, `TABLE`, run by one binary:
//!
//! ```sh
//! experiment <name> [points…] [--profile PATH] [--record|--replay [--dump [ID]]] [own flags]
//! ```
//!
//! Points are the entry's offered loads (requests/s). `--record`,
//! `--replay` and `--dump` exist only on entries with a flight world of
//! their own. See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod adaptation;
mod chaos;
mod paper;
mod smokes;
mod views;

use meshlayer_apps::{elibrary, ElibraryParams};
use meshlayer_core::{
    build_incident_report, FlightOutcome, IncidentReport, PolicyTransition, RunMetrics, SimSpec,
    Simulation, XLayerConfig,
};
use meshlayer_flightrec::FlightLog;
use meshlayer_prof::{
    chrome_trace_json, provenance_csv, provenance_json, PhaseSummary, ProfileReport,
};
use meshlayer_simcore::SimDuration;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Harness-wide run-length knobs (overridable via env for quick runs).
#[derive(Clone, Copy, Debug)]
struct RunLength {
    /// Simulated seconds per run.
    secs: u64,
    /// Warm-up seconds.
    warmup: u64,
    /// Random seed.
    seed: u64,
}

impl RunLength {
    const fn new(secs: u64, warmup: u64) -> RunLength {
        RunLength {
            secs,
            warmup,
            seed: 42,
        }
    }

    /// Read `MESHLAYER_SECS` / `MESHLAYER_WARMUP` / `MESHLAYER_SEED` from
    /// the environment, falling back to `default` for each unset one.
    ///
    /// A set variable that does not parse as an unsigned integer is an
    /// error naming the variable and the value: a typo like
    /// `MESHLAYER_SECS=1O` must not silently run the full-length default.
    /// So is a length that leaves no measurement window between warm-up
    /// and cooldown: it would report zero latencies as a result.
    fn from_env_or(default: RunLength) -> Result<RunLength, String> {
        let get = |k: &str, d: u64| match std::env::var(k) {
            Ok(v) => v
                .parse()
                .map_err(|_| format!("{k} is set to {v:?}, which is not a valid unsigned integer")),
            Err(_) => Ok(d),
        };
        let len = RunLength {
            secs: get("MESHLAYER_SECS", default.secs)?,
            warmup: get("MESHLAYER_WARMUP", default.warmup)?,
            seed: get("MESHLAYER_SEED", default.seed)?,
        };
        if len.secs <= len.warmup_secs() + len.cooldown_secs() {
            return Err(format!(
                "a {}s run with {}s warm-up and {}s cooldown measures nothing; \
                 set MESHLAYER_SECS to at least 2",
                len.secs,
                len.warmup_secs(),
                len.cooldown_secs()
            ));
        }
        Ok(len)
    }

    fn warmup_secs(&self) -> u64 {
        self.warmup.min(self.secs / 3)
    }

    fn cooldown_secs(&self) -> u64 {
        (self.secs / 10).max(1)
    }

    /// Apply to a spec.
    fn apply(&self, spec: &mut SimSpec) {
        spec.config.duration = SimDuration::from_secs(self.secs);
        spec.config.warmup = SimDuration::from_secs(self.warmup_secs());
        spec.config.cooldown = SimDuration::from_secs(self.cooldown_secs());
        spec.config.seed = self.seed;
    }
}

/// Flight-recorder mode requested on the command line.
#[derive(Clone, Copy, Debug)]
enum FlightMode {
    /// `--record`: run the entry's flight world and capture it.
    Record,
    /// `--replay`: re-run the entry's flight world against the capture.
    Replay,
}

/// An entry's parsed command line.
#[derive(Debug, Default)]
struct Args {
    /// Positional offered loads, each a finite number > 0.
    points: Vec<f64>,
    /// `--record` or `--replay`.
    flight: Option<FlightMode>,
    /// `--dump [request-id]`.
    dump: Option<Option<String>>,
    /// `--profile <path>`: where to write the Chrome trace of every run.
    profile: Option<PathBuf>,
    own: Vec<(&'static str, f64)>,
}

impl Args {
    /// The value of one of the entry's own `--flag <number>`s.
    fn flag(&self, name: &str) -> Option<f64> {
        self.own.iter().find(|(f, _)| *f == name).map(|&(_, v)| v)
    }
}

/// A finite number > 0, or an error naming the bad value.
fn number(v: &str, what: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!(
            "bad value {v:?}{what}: expected a finite number > 0"
        )),
    }
}

/// Parse an entry's arguments. `flight` says whether the entry has a
/// flight world (and so takes `--record --replay --dump`); `own` names
/// its value-taking flags. Any other `--flag`, a flag missing its value,
/// or a value that is not a finite number > 0 is an error: a typo like
/// `--recrod` or `3O`, or another entry's `--pods`, must not silently
/// run the default experiment.
fn parse_args(args: &[String], flight: bool, own: &[&'static str]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let a = a.as_str();
        match a {
            "--profile" => {
                let v = it.next().ok_or("--profile requires an output path")?;
                out.profile = Some(PathBuf::from(v));
            }
            "--record" if flight => out.flight = Some(FlightMode::Record),
            "--replay" if flight => {
                out.flight.get_or_insert(FlightMode::Replay);
            }
            "--dump" if flight => {
                out.dump = Some(it.next_if(|v| !v.starts_with("--")).cloned());
            }
            _ if a.starts_with("--") => {
                let Some(&flag) = own.iter().find(|f| **f == a) else {
                    let mut known = vec!["--profile"];
                    if flight {
                        known.extend(["--record", "--replay", "--dump"]);
                    }
                    known.extend(own);
                    return Err(format!(
                        "unknown flag {a}; accepted flags: {}",
                        known.join(" ")
                    ));
                };
                let v = it.next().ok_or(format!("{a} requires a value"))?;
                out.own.push((flag, number(v, &format!(" for {a}"))?));
            }
            _ => out.points.push(number(a, "")?),
        }
    }
    Ok(out)
}

/// One labelled simulation of an entry: how to build it, and whether its
/// run writes the telemetry artifact set (see [`write_telemetry_artifacts`]).
struct Arm {
    label: String,
    build: Box<dyn FnOnce() -> Simulation + Send>,
    artifacts: Option<&'static str>,
    spans: bool,
}

impl Arm {
    /// An arm whose simulation `build` makes (e.g. to slow a pod down
    /// after `Simulation::build`).
    fn new(label: impl Into<String>, build: impl FnOnce() -> Simulation + Send + 'static) -> Self {
        Arm {
            label: label.into(),
            build: Box::new(build),
            artifacts: None,
            spans: false,
        }
    }

    /// An arm that runs `spec` as built.
    fn spec(label: impl Into<String>, spec: SimSpec) -> Self {
        Arm::new(label, move || Simulation::build(spec))
    }

    /// An arm that runs `spec` with a flight capture named `name`; a
    /// capture that cannot be created ends the process with exit code 2.
    fn recorded(label: &str, name: &'static str, spec: SimSpec) -> Self {
        Arm::new(label, move || {
            let (mut sim, path) = (Simulation::build(spec), capture_path(name));
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = sim.record_to(name, &path) {
                eprintln!("flight: cannot create capture at {}: {e}", path.display());
                std::process::exit(2);
            }
            sim
        })
    }

    /// When `when` holds, write the telemetry artifacts under `name`
    /// after the run.
    fn artifacts(mut self, name: &'static str, when: bool) -> Self {
        if when {
            self.artifacts = Some(name);
        }
        self
    }

    /// Add the span dump to the artifacts.
    fn with_spans(mut self) -> Self {
        self.spans = true;
        self
    }
}

/// What an entry's function gets: its arguments, its run length, and
/// the one way to run simulations ([`Ctx::fan_out`]).
struct Ctx {
    /// The parsed command line.
    args: Args,
    /// The run length, from the environment over the entry's default.
    len: RunLength,
    profiles: RefCell<Vec<(String, ProfileReport)>>,
}

impl Ctx {
    fn new(args: Args, len: RunLength) -> Ctx {
        Ctx {
            args,
            len,
            profiles: RefCell::default(),
        }
    }

    /// The first point given, or the entry's default load.
    fn point(&self, default: f64) -> f64 {
        self.args.points.first().copied().unwrap_or(default)
    }

    /// Run every arm across [`concurrent_runs`] lanes of the host's
    /// threads and return `keep` of each finished run in arm order.
    fn fan_out<T: Send>(
        &self,
        arms: Vec<Arm>,
        keep: impl Fn(&Simulation, RunMetrics) -> T + Sync,
    ) -> Vec<T> {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.fan_out_on(concurrent_runs(arms.len(), host), arms, keep)
    }

    /// [`Ctx::fan_out`] keeping each run's metrics.
    fn runs(&self, arms: Vec<Arm>) -> Vec<RunMetrics> {
        self.fan_out(arms, |_, m| m)
    }

    fn fan_out_on<T: Send>(
        &self,
        lanes: usize,
        arms: Vec<Arm>,
        keep: impl Fn(&Simulation, RunMetrics) -> T + Sync,
    ) -> Vec<T> {
        let profile = self.args.profile.is_some();
        let queue = Mutex::new(arms.into_iter().enumerate());
        let mut done = std::thread::scope(|s| {
            let lanes: Vec<_> = (0..lanes)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            // Take the next arm, releasing the queue before it runs.
                            let next = queue.lock().expect("arm queue").next();
                            let Some((i, arm)) = next else {
                                return mine;
                            };
                            mine.push((i, run_arm(arm, profile, &keep)));
                        }
                    })
                })
                .collect();
            lanes
                .into_iter()
                .flat_map(|l| l.join().expect("an arm panicked"))
                .collect::<Vec<_>>()
        });
        done.sort_by_key(|(i, _)| *i);
        let mut profiles = self.profiles.borrow_mut();
        done.into_iter()
            .map(|(_, (kept, part))| {
                profiles.extend(part);
                kept
            })
            .collect()
    }
}

/// Build, run (profiled under `--profile`) and report one arm.
fn run_arm<T>(
    arm: Arm,
    profile: bool,
    keep: impl Fn(&Simulation, RunMetrics) -> T,
) -> (T, Option<(String, ProfileReport)>) {
    let mut sim = (arm.build)();
    if profile {
        sim.enable_profiling();
    }
    let m = sim.run();
    if let Some(name) = arm.artifacts {
        let spans = arm.spans.then(|| sim.tracer().spans());
        if let Err(e) = write_telemetry_artifacts(name, &m, spans) {
            eprintln!("telemetry artifacts failed: {e}");
        }
    }
    eprintln!("progress: {} done", arm.label);
    let part = sim.take_profile().map(|r| (arm.label, r));
    (keep(&sim, m), part)
}

/// How many simulation runs may execute concurrently: one per host
/// thread, at least 1 and never more than `runs`.
fn concurrent_runs(runs: usize, host_threads: usize) -> usize {
    host_threads.clamp(1, runs.max(1))
}

/// A `keep` for [`Ctx::fan_out`]: the metrics and the policy transitions.
fn with_transitions(sim: &Simulation, m: RunMetrics) -> (RunMetrics, Vec<PolicyTransition>) {
    (m, sim.policy().transitions().to_vec())
}

/// Write every profiled run as one Chrome trace-event JSON file at
/// `path`, one track group per run in arm order, and print the merged
/// summary.
fn write_profile_artifact(path: &Path, parts: &[(String, ProfileReport)]) {
    if parts.is_empty() {
        eprintln!("profile: --profile given but no run was profiled");
        return;
    }
    let refs: Vec<(&str, &meshlayer_prof::TraceBook)> =
        parts.iter().map(|(l, r)| (l.as_str(), &r.trace)).collect();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, chrome_trace_json(&refs)) {
        Ok(()) => eprintln!(
            "profile: wrote {} ({} tracks) — load it at ui.perfetto.dev",
            path.display(),
            parts.len()
        ),
        Err(e) => eprintln!("profile: cannot write {}: {e}", path.display()),
    }
    let mut merged = PhaseSummary::default();
    for (_, r) in parts {
        merged.merge(&r.summary);
    }
    eprint!("{}", merged.render());
}

/// The e-library world at `rps` latency-sensitive plus `rps` batch
/// requests per second under `xlayer`.
fn elibrary_world(rps: f64, xlayer: XLayerConfig) -> SimSpec {
    let mut spec = elibrary(&ElibraryParams {
        ls_rps: rps,
        batch_rps: rps,
        ..ElibraryParams::default()
    });
    spec.xlayer = xlayer;
    spec
}

/// [`elibrary_world`] with `len` applied.
fn elibrary_at(rps: f64, xlayer: XLayerConfig, len: RunLength) -> SimSpec {
    let mut spec = elibrary_world(rps, xlayer);
    len.apply(&mut spec);
    spec
}

/// Where experiment artifacts land (`MESHLAYER_OUT`, default `results`).
fn artifact_dir() -> PathBuf {
    PathBuf::from(std::env::var("MESHLAYER_OUT").unwrap_or_else(|_| "results".into()))
}

/// Where the flight capture named `name` lands.
fn capture_path(name: &str) -> PathBuf {
    artifact_dir().join(format!("{name}.flight"))
}

/// Join telemetry, policy transitions and the capture named `name` (when
/// it loads) into one causal incident timeline.
fn incident_report(m: &RunMetrics, transitions: &[PolicyTransition], name: &str) -> IncidentReport {
    let log = FlightLog::load(&capture_path(name))
        .map_err(|e| eprintln!("flight log unreadable: {e}"))
        .ok();
    build_incident_report(&m.telemetry, transitions, log.as_ref())
}

/// Write the standard telemetry artifact set for one experiment under
/// [`artifact_dir`] with stable filenames:
/// `<name>_telemetry.json`, `<name>_latency.csv`, `<name>_gauges.csv`,
/// `<name>_rollup.csv`, `<name>_anomalies.csv`, `<name>_metrics.prom`,
/// the provenance pair when the run kept any, and (when spans are given)
/// `<name>_spans.json`.
fn write_telemetry_artifacts(
    name: &str,
    m: &RunMetrics,
    spans: Option<&[meshlayer_mesh::Span]>,
) -> std::io::Result<()> {
    use meshlayer_telemetry::export;
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir)?;
    let put =
        |suffix: &str, contents| std::fs::write(dir.join(format!("{name}_{suffix}")), contents);
    put("telemetry.json", export::summary_json(&m.telemetry))?;
    put("latency.csv", export::latency_csv(&m.telemetry))?;
    put("gauges.csv", export::gauges_csv(&m.telemetry))?;
    put("rollup.csv", export::rollup_csv(&m.telemetry))?;
    put("anomalies.csv", export::anomalies_csv(&m.telemetry))?;
    put("metrics.prom", export::prometheus_text(&m.telemetry))?;
    if !m.provenance.is_empty() {
        put("provenance.csv", provenance_csv(&m.provenance))?;
        put("provenance.json", provenance_json(&m.provenance))?;
    }
    if let Some(spans) = spans {
        put("spans.json", export::zipkin_json(spans))?;
    }
    Ok(())
}

/// Record or replay the world `spec` of entry `name` at
/// `<artifact_dir>/<name>.flight`: exit code 0 on a clean capture or a
/// 0-divergence replay, 1 on a divergent replay, 2 on setup/I/O errors.
/// After a recording, `--dump` prints one request's timeline.
fn run_flight(name: &str, args: &Args, mode: FlightMode, spec: SimSpec, len: RunLength) -> u8 {
    let path = &capture_path(name);
    let mut sim = Simulation::build(spec);
    let opened = match mode {
        FlightMode::Record => sim.record_to(name, path),
        FlightMode::Replay => sim.replay_from(path),
    };
    if let Err(e) = opened {
        eprintln!("flight: cannot {mode:?} {}: {e}", path.display());
        return 2;
    }
    eprintln!(
        "flight: {mode:?} of the {}s {name} run (seed {}) at {}",
        len.secs,
        len.seed,
        path.display()
    );
    let m = sim.run();
    match sim.take_flight_outcome() {
        Some(FlightOutcome::Recorded(c)) => {
            println!(
                "recorded {}: {} events, {} packets, {} decisions, {} msg-binds ({} loop events)",
                path.display(),
                c.events,
                c.packets,
                c.decisions,
                c.binds,
                m.events
            );
            if let Some(rid) = &args.dump {
                dump_flight_request(path, rid.as_deref());
            }
            0
        }
        Some(FlightOutcome::Replayed(report)) => {
            print!("{}", report.render());
            u8::from(!report.ok())
        }
        Some(FlightOutcome::Failed(e)) => {
            eprintln!("flight: capture failed: {e}");
            2
        }
        None => {
            eprintln!("flight: no outcome produced (engine bug)");
            2
        }
    }
}

/// Print one request's merged decision/bind/packet timeline from a
/// capture. With `request_id` `None`, picks the first request in the log.
fn dump_flight_request(path: &Path, request_id: Option<&str>) {
    let Ok(log) =
        FlightLog::load(path).map_err(|e| eprintln!("flight: cannot load {}: {e}", path.display()))
    else {
        return;
    };
    print!("{}", log.summary());
    let ids = log.request_ids();
    let Some(rid) = request_id
        .map(str::to_string)
        .or_else(|| ids.first().cloned())
    else {
        eprintln!("flight: capture holds no correlated requests");
        return;
    };
    match log.dump_request(&rid) {
        Some(dump) => print!("{dump}"),
        None => eprintln!("flight: request id {rid:?} not found ({} known)", ids.len()),
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where that interface is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// One experiment: a figure, a table, an ablation, a CI smoke or an
/// operator view.
struct Entry {
    /// What `experiment <name>` calls it; also its capture and output name.
    name: &'static str,
    /// Run length and warm-up when `MESHLAYER_SECS` / `MESHLAYER_WARMUP`
    /// are unset.
    len: RunLength,
    /// The world `--record` / `--replay` capture, a pure function of the
    /// run length so both sides line up; `None` takes no flight flags.
    flight: Option<fn(RunLength) -> SimSpec>,
    /// The value-taking flags only this entry takes.
    flags: &'static [&'static str],
    /// Builds the arms, runs them and prints the tables; returns the
    /// process exit code.
    run: fn(&Ctx) -> u8,
}

/// Run length of every flight capture when the environment sets none:
/// short, because a capture records every event.
const FLIGHT_LEN: RunLength = RunLength::new(6, 1);

const fn entry(name: &'static str, secs: u64, run: fn(&Ctx) -> u8) -> Entry {
    Entry {
        name,
        len: RunLength::new(secs, 5),
        flight: None,
        flags: &[],
        run,
    }
}

const fn with_flight(entry: Entry, world: fn(RunLength) -> SimSpec) -> Entry {
    Entry {
        flight: Some(world),
        ..entry
    }
}

/// Every experiment the harness runs.
const TABLE: &[Entry] = &[
    entry("fig2_stack", 30, paper::fig2),
    entry("fig3_topology", 30, paper::fig3),
    with_flight(entry("fig4_latency", 30, paper::fig4), paper::fig4_flight),
    entry("t2_overhead", 15, paper::t2),
    entry("a1_ablation", 30, ablations::a1),
    entry("a2_scavenger", 30, ablations::a2),
    entry("a3_lb_tail", 30, ablations::a3),
    entry("a4_hedging", 30, ablations::a4),
    entry("a5_sdn", 30, ablations::a5),
    with_flight(
        entry("a6_adaptation", 30, adaptation::a6),
        adaptation::flight_spec,
    ),
    with_flight(entry("a7_chaos", 30, chaos::a7), chaos::flight_spec),
    Entry {
        len: RunLength::new(2, 1),
        flags: &["--pods", "--rps", "--rss-ceiling-mib"],
        ..with_flight(
            entry("topo_smoke", 2, smokes::topo_smoke),
            smokes::topo_flight,
        )
    },
    Entry {
        flags: &["--scrapes", "--ceiling-mib"],
        ..entry("telemetry_mem", 30, smokes::telemetry_mem)
    },
    entry("incident", 10, views::incident),
    entry("chaos", 10, views::chaos),
    entry("links", 10, views::links),
    entry("top", 10, views::top),
    entry("trace", 10, views::trace),
];

/// Run `experiment <name> [args…]` and return the process exit code:
/// 2 for an unknown entry, a bad argument or a bad run length.
pub fn experiment(argv: &[String]) -> u8 {
    let Some(entry) = argv
        .first()
        .and_then(|n| TABLE.iter().find(|e| e.name == n))
    else {
        let names: Vec<_> = TABLE.iter().map(|e| e.name).collect();
        eprintln!("usage: experiment <name> [points…] [flags]");
        eprintln!("names: {}", names.join(" "));
        return 2;
    };
    run_entry(entry, &argv[1..]).unwrap_or_else(|e| {
        eprintln!("{}: {e}", entry.name);
        2
    })
}

fn run_entry(entry: &Entry, argv: &[String]) -> Result<u8, String> {
    let args = parse_args(argv, entry.flight.is_some(), entry.flags)?;
    let default = match args.flight {
        Some(_) => FLIGHT_LEN,
        None => entry.len,
    };
    let len = RunLength::from_env_or(default)?;
    if let (Some(mode), Some(world)) = (args.flight, entry.flight) {
        return Ok(run_flight(entry.name, &args, mode, world(len), len));
    }
    let ctx = Ctx::new(args, len);
    let code = (entry.run)(&ctx);
    if let Some(path) = &ctx.args.profile {
        write_profile_artifact(path, &ctx.profiles.borrow());
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paper::{render_fig4, render_t1, sweep_row, SweepRow};

    fn quick() -> RunLength {
        RunLength::new(4, 1)
    }

    fn parse(v: &[&str], flight: bool, own: &[&'static str]) -> Result<Args, String> {
        parse_args(
            &v.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            flight,
            own,
        )
    }

    #[test]
    fn concurrent_runs_is_bounded_by_host_and_runs() {
        assert_eq!(concurrent_runs(8, 8), 8);
        assert_eq!(concurrent_runs(8, 2), 2);
        // Never more lanes than runs.
        assert_eq!(concurrent_runs(2, 64), 2);
        // Degenerate: zero runs, or a host reporting zero threads, still
        // yields one lane.
        assert_eq!(concurrent_runs(0, 4), 1);
        assert_eq!(concurrent_runs(4, 0), 1);
    }

    /// On two lanes the short first and third arms share a lane while the
    /// long second one runs, so arms finish out of order (and each lane
    /// holds a non-contiguous share); results and profile parts still come
    /// back in arm order, as on one lane.
    #[test]
    fn fan_out_keeps_arm_order_on_any_lane_count() {
        let arms = || -> Vec<Arm> {
            [1u64, 6, 2]
                .into_iter()
                .map(|secs| {
                    let mut spec = meshlayer_apps::fanout(1, 1, 1, 1.0, 50.0);
                    RunLength::new(secs, 0).apply(&mut spec);
                    Arm::spec(format!("{secs}s"), spec)
                })
                .collect()
        };
        for lanes in [1, 2] {
            let args = Args {
                profile: Some("unused.json".into()),
                ..Args::default()
            };
            let ctx = Ctx::new(args, quick());
            let secs = ctx.fan_out_on(lanes, arms(), |_, m| m.sim_seconds.round() as u64);
            assert_eq!(secs, [1, 6, 2], "results in arm order on {lanes} lanes");
            let labels: Vec<String> = ctx.profiles.take().into_iter().map(|(l, _)| l).collect();
            assert_eq!(
                labels,
                ["1s", "6s", "2s"],
                "profiles in order on {lanes} lanes"
            );
        }
    }

    #[test]
    fn split_args_keeps_positionals_and_rejects_unknown_flags() {
        let points = |v: &[&str], own: &[&'static str]| parse(v, true, own).map(|a| a.points);
        assert_eq!(
            points(&["20", "--profile", "t.json", "40", "--record"], &[]),
            Ok(vec![20.0, 40.0])
        );
        // `--dump` takes a request id when one follows, never a flag.
        let a = parse(&["--record", "--dump", "req-7", "30"], true, &[]).unwrap();
        assert_eq!((a.points, a.dump), (vec![30.0], Some(Some("req-7".into()))));
        assert_eq!(points(&["--dump", "--record"], &[]), Ok(vec![]));
        // A misspelt or unsupported flag is named, next to the accepted
        // ones; its value must not fall through as an rps point.
        for bad in ["--recrod", "--jobs"] {
            let err = points(&["20", bad, "4"], &[]).expect_err("unknown flag");
            assert!(err.contains(&format!("unknown flag {bad};")), "{err}");
            assert!(
                err.contains("--record") && err.contains("--profile"),
                "{err}"
            );
        }
        // Flight flags exist only on entries with a flight world.
        let err = parse(&["--record"], false, &[]).expect_err("no flight world");
        assert!(err.contains("unknown flag --record;"), "{err}");
        // An entry's own flags are its own: `--pods` parses where the
        // entry declares it and is a named error everywhere else.
        let a = parse(&["--pods", "500", "30"], true, &["--pods"]).unwrap();
        assert_eq!((a.flag("--pods"), a.points), (Some(500.0), vec![30.0]));
        let err = points(&["--pods", "500"], &[]).expect_err("foreign flag");
        assert!(err.contains("unknown flag --pods;"), "{err}");
        let err = points(&["--rss-ceiling-mib", "1"], &["--pods"]).expect_err("foreign");
        assert!(err.contains("unknown flag --rss-ceiling-mib;"), "{err}");
        assert!(err.contains("--pods"), "lists the entry's own flags: {err}");
    }

    /// A malformed point or flag value exits with its name, instead of
    /// running a default (`3O`, `2O`) or panicking in a worker (`nan`).
    #[test]
    fn malformed_values_are_named_not_defaulted() {
        for bad in ["3O", "2O", "nan", "inf", "-5", "0", ""] {
            let err = parse(&["20", bad], false, &[]).expect_err(bad);
            assert!(err.contains(&format!("bad value {bad:?}")), "{err}");
        }
        let err = parse(&["--pods", "2OO"], false, &["--pods"]).expect_err("flag");
        assert!(err.contains("\"2OO\" for --pods"), "{err}");
        for missing in [&["--pods"][..], &["--profile"]] {
            assert!(parse(missing, false, &["--pods"]).is_err());
        }
        let a = parse(&["1e1", "2.5"], false, &[]).map(|a| a.points);
        assert_eq!(a, Ok(vec![10.0, 2.5]));
    }

    #[test]
    fn elibrary_run_produces_both_classes() {
        let m = Simulation::build(elibrary_at(10.0, XLayerConfig::baseline(), quick())).run();
        assert!(m.class("latency-sensitive").unwrap().completed > 10);
        assert!(m.class("batch-analytics").unwrap().completed > 10);
    }

    #[test]
    fn sweep_row_extraction() {
        let spec = elibrary_at(10.0, XLayerConfig::paper_prototype(), quick());
        let row = sweep_row(10.0, true, &Simulation::build(spec).run());
        assert!(row.optimized);
        assert!(row.ls_p50_ms > 0.0);
        assert!(row.bottleneck_util > 0.0, "bottleneck saw traffic");
    }

    #[test]
    fn render_contains_speedup_column() {
        let row = |optimized, ls_p50_ms, ls_p99_ms, batch_p99_ms| SweepRow {
            rps: 10.0,
            optimized,
            ls_p50_ms,
            ls_p99_ms,
            batch_p99_ms,
            ..SweepRow::default()
        };
        let rows = [row(false, 30.0, 90.0, 100.0), row(true, 20.0, 45.0, 103.0)];
        let fig = render_fig4(&rows);
        assert!(fig.contains("1.50x"), "{fig}");
        assert!(fig.contains("2.00x"), "{fig}");
        let t1 = render_t1(&rows);
        assert!(t1.contains("+3.0%"), "{t1}");
    }

    /// One test covers every `from_env_or` path so the process-global env
    /// mutations stay sequential (tests run concurrently by default).
    #[test]
    fn from_env_parses_overrides_and_rejects_garbage() {
        let from_env = || RunLength::from_env_or(RunLength::new(30, 5));
        for k in ["MESHLAYER_SECS", "MESHLAYER_WARMUP", "MESHLAYER_SEED"] {
            std::env::remove_var(k);
        }
        let d = from_env().expect("defaults");
        assert_eq!(
            (d.secs, d.warmup, d.seed),
            (30, 5, 42),
            "unset vars fall back to defaults"
        );
        let e = RunLength::from_env_or(RunLength::new(10, 2)).expect("entry default");
        assert_eq!((e.secs, e.warmup), (10, 2), "an entry's own default");

        std::env::set_var("MESHLAYER_SECS", "7");
        std::env::set_var("MESHLAYER_SEED", "123");
        let l = from_env().expect("overrides");
        assert_eq!((l.secs, l.warmup, l.seed), (7, 5, 123));

        // A typo'd value is an error naming the variable and the value —
        // not a silent full-length default sweep.
        std::env::set_var("MESHLAYER_SECS", "1O");
        let msg = from_env().expect_err("malformed MESHLAYER_SECS");
        assert!(msg.contains("MESHLAYER_SECS"), "names the variable: {msg}");
        assert!(msg.contains("\"1O\""), "names the bad value: {msg}");

        // Negative and empty values are rejected too (u64 parse).
        std::env::set_var("MESHLAYER_SECS", "3");
        std::env::set_var("MESHLAYER_WARMUP", "-1");
        assert!(from_env().is_err());
        std::env::set_var("MESHLAYER_WARMUP", "");
        assert!(from_env().is_err());

        // A length whose cooldown (at least 1 s) eats the whole run
        // measures nothing, so it is refused; 2 s is the shortest run.
        std::env::set_var("MESHLAYER_WARMUP", "1");
        for secs in ["0", "1"] {
            std::env::set_var("MESHLAYER_SECS", secs);
            let msg = from_env().expect_err("empty window");
            assert!(msg.contains("measures nothing"), "{msg}");
        }
        std::env::set_var("MESHLAYER_SECS", "2");
        assert_eq!(from_env().map(|l| l.secs), Ok(2));

        for k in ["MESHLAYER_SECS", "MESHLAYER_WARMUP", "MESHLAYER_SEED"] {
            std::env::remove_var(k);
        }
    }

    /// Every `experiment <name>` the scripts invoke is a table entry, so
    /// a renamed entry fails here and not at the end of a CI run.
    #[test]
    fn scripts_invoke_only_table_entries() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for script in ["scripts/run_all_experiments.sh", "scripts/ci.sh"] {
            let text = std::fs::read_to_string(root.join(script)).expect(script);
            // The name follows the binary, past cargo's `--`; a forwarded
            // `"$@"` names nothing.
            let words: Vec<&str> = text
                .lines()
                .filter(|l| !l.trim_start().starts_with('#'))
                .flat_map(str::split_whitespace)
                .filter(|w| *w != "--")
                .collect();
            let names: Vec<&str> = words
                .windows(2)
                .filter(|w| w[0] == "experiment" || w[0].ends_with("/experiment"))
                .map(|w| w[1])
                .filter(|n| !n.trim_start_matches('"').starts_with('$'))
                .collect();
            assert!(!names.is_empty(), "{script} invokes no experiment");
            for name in names {
                assert!(
                    TABLE.iter().any(|e| e.name == name),
                    "{script} runs `experiment {name}`, which is not a table entry"
                );
            }
        }
    }
}
