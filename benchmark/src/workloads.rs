//! The four workloads: how each generates its specs from the seed, what
//! one pass over it runs, which outputs it checks, and which counts it
//! contributes to the per-layer ledger.
//!
//! Only stable public entry points are called — `elibrary`,
//! `TopoParams::sized(..).spec()`, `XLayerConfig::{baseline,
//! paper_prototype}`, `FaultScript`, `Simulation::{build, run,
//! enable_profiling, record_to, replay_from, take_flight_outcome}`,
//! `RunMetrics`, `FlightLog::load` and the telemetry exporters — plus
//! `Simulation::fabric()` for the one model counter `RunMetrics` lacks
//! (packets sent per link). `config.threads` is never touched.

use crate::metrics::{ratio, supported_tail, Ledger, EVENT_KINDS};
use crate::trace::{counting, Spans};
use meshlayer_apps::{elibrary, ElibraryParams};
use meshlayer_core::{
    FaultKind, FaultScript, FlightOutcome, RunMetrics, SimSpec, Simulation, TopoMix, TopoParams,
    XLayerConfig,
};
use meshlayer_flightrec::FlightLog;
use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_telemetry::export;
use std::path::PathBuf;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig4Elibrary,
    FabricPacket,
    FabricFluid,
    ChaosFlight,
}

const LS: &str = "latency-sensitive";
const BATCH: &str = "batch-analytics";

/// Per-pass settings: whether this is the traced pass (profiling on,
/// allocations counted, ledger filled) and where temporary captures go.
pub struct Env {
    pub traced: bool,
    pub out_dir: PathBuf,
}

/// What one pass over a workload measured.
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Host seconds inside `Simulation::run`, summed over the runs.
    pub run_s: f64,
    /// Host seconds inside the event loop, per run.
    pub loop_s: Vec<f64>,
    /// Simulated packet-hops (packets sent, summed over links and runs).
    pub hops: u64,
    pub roots_ok: u64,
    pub roots_failed: u64,
    pub fg_samples: u64,
    pub fg_p50_ms: f64,
    pub fg_tail_ms: f64,
    /// Everything the model decided, for exact comparison between passes.
    pub fingerprint: String,
    /// Per-layer counts and spans (traced pass only).
    pub ledger: Ledger,
}

/// One finished `Simulation::run`.
struct Run {
    m: RunMetrics,
    run_s: f64,
    hops: u64,
    flight: Option<FlightOutcome>,
}

fn millis(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Elibrary,
        Workload::FabricPacket,
        Workload::FabricFluid,
        Workload::ChaosFlight,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Elibrary => "fig4_elibrary",
            Workload::FabricPacket => "fabric_packet",
            Workload::FabricFluid => "fabric_fluid",
            Workload::ChaosFlight => "chaos_flight",
        }
    }

    /// The one-sentence reason the workload exists (`BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig4Elibrary => "paper Fig 4 point (e-library, 40+40 RPS, baseline then prototype): over 90% of loop time is PktArrive+LinkTx, so packet-plane work shows at full strength and mesh work not at all",
            Workload::FabricPacket => "208-pod generated fabric, all-packet background mix at 20k RPS: about 45% of loop time is sidecar/rpc/exec handlers over 5.4k connections, so mesh, allocation and routing work shows here",
            Workload::FabricFluid => "1,001-pod fabric at 100k RPS with 85% of load as fluid flows: same link layer at 5x the world, so per-pod state and fluid accounting regressions show here and not on the small fabric",
            Workload::ChaosFlight => "e-library under three scripted faults, recorded, replayed and loaded: flight-recorder writes and reads dominate and retries, ejection and chaos paths run, so engine work moves it little",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The class whose latency the end-to-end metrics report.
    pub fn fg_class(self) -> &'static str {
        match self {
            Workload::Fig4Elibrary | Workload::ChaosFlight => LS,
            Workload::FabricPacket | Workload::FabricFluid => "browse",
        }
    }

    /// The percentile `fg_tail_ms` reports: the highest one the class
    /// summary publishes that keeps at least ten samples beyond it at
    /// this workload's size (checked on every pass).
    pub fn tail_q(self) -> f64 {
        match self {
            // ~200 and ~235 foreground completions per run.
            Workload::Fig4Elibrary | Workload::ChaosFlight => 0.90,
            // ~1,190 and ~5,980.
            Workload::FabricPacket | Workload::FabricFluid => 0.99,
        }
    }

    /// `Simulation::build` calls in one pass.
    pub fn builds(self) -> usize {
        match self {
            Workload::Fig4Elibrary | Workload::ChaosFlight => 2,
            Workload::FabricPacket | Workload::FabricFluid => 1,
        }
    }

    /// Generate the spec of build number `build` of a pass. The seed is
    /// the only source of randomness; the program sees only this spec.
    pub fn spec(self, seed: u64, build: usize) -> SimSpec {
        match self {
            Workload::Fig4Elibrary => {
                let mut spec = elibrary(&ElibraryParams {
                    ls_rps: 40.0,
                    batch_rps: 40.0,
                    ..ElibraryParams::default()
                });
                spec.xlayer = if build == 0 {
                    XLayerConfig::baseline()
                } else {
                    XLayerConfig::paper_prototype()
                };
                spec.config.seed = seed;
                spec.config.duration = millis(8_000);
                spec.config.warmup = millis(1_000);
                spec.config.cooldown = millis(2_000);
                spec
            }
            Workload::FabricPacket | Workload::FabricFluid => {
                let mut p = if self == Workload::FabricPacket {
                    TopoParams::sized(200, 20_000.0)
                } else {
                    TopoParams::sized(1000, 100_000.0)
                };
                p.seed = seed;
                p.mix = if self == Workload::FabricPacket {
                    TopoMix::BackgroundPacket
                } else {
                    TopoMix::BackgroundFluid
                };
                let mut spec = p.spec();
                spec.config.duration = millis(1_200);
                spec.config.warmup = millis(300);
                spec.config.cooldown = millis(300);
                spec
            }
            Workload::ChaosFlight => {
                // No 1 Gbps bottleneck here: congestion at the bottleneck
                // makes the event count of a seed swing by 2.5x, and this
                // workload is about capture volume and the fault paths.
                let base = ElibraryParams::default();
                // Foreground at 60 RPS: its requests are a few hundred
                // events each, and twice the samples steady the p90.
                let mut spec = elibrary(&ElibraryParams {
                    ls_rps: 60.0,
                    batch_rps: 30.0,
                    bottleneck_bps: base.line_rate_bps,
                    ..base
                });
                // Pooled `reviews` replicas, so the crash below is
                // absorbed by retries and ejection instead of failing
                // every request of one priority class.
                spec.xlayer = XLayerConfig::baseline();
                spec.config.seed = seed;
                spec.config.duration = millis(10_000);
                spec.config.warmup = millis(1_000);
                spec.config.cooldown = millis(1_000);
                spec.chaos = Some(chaos_script());
                spec
            }
        }
    }

    /// Run one pass: every run of the workload, its follow-on phases and
    /// its output checks.
    pub fn pass(self, seed: u64, spans: &mut Spans, env: &Env) -> Result<Pass, String> {
        let mut ledger = Ledger::default();
        let (runs, wall_s) = spans.scope("workload", |spans| match self {
            Workload::Fig4Elibrary => fig4_pass(seed, spans, env, &mut ledger),
            Workload::FabricPacket | Workload::FabricFluid => fabric_pass(self, seed, spans, env),
            Workload::ChaosFlight => chaos_pass(seed, spans, env, &mut ledger),
        });
        let (runs, fg_run) = runs?;

        let fg = runs[fg_run]
            .m
            .class(self.fg_class())
            .ok_or_else(|| format!("class {} missing from the run", self.fg_class()))?;
        if fg.failed != 0 {
            // A failed root is slower than any percentile; the summary's
            // percentiles leave failures out, so refuse to report them.
            return Err(format!(
                "{} foreground roots failed; latency percentiles would ignore them",
                fg.failed
            ));
        }
        if supported_tail(fg.completed).is_none_or(|q| q < self.tail_q()) {
            return Err(format!(
                "{} foreground samples leave fewer than ten beyond p{}",
                fg.completed,
                self.tail_q() * 100.0
            ));
        }
        let fg_tail_ms = if self.tail_q() < 0.99 {
            fg.p90_ms
        } else {
            fg.p99_ms
        };
        let all: Vec<&RunMetrics> = runs.iter().map(|r| &r.m).collect();
        let loop_s: Vec<f64> = all.iter().map(|m| m.wall_ns as f64 / 1e9).collect();
        let run_s: f64 = runs.iter().map(|r| r.run_s).sum();
        let hops: u64 = runs.iter().map(|r| r.hops).sum();
        if env.traced {
            count_ledger(&all, &mut ledger);
            ledger.set("workload.fg_samples", fg.completed as f64);
            ledger.set("netsim.link.pkt_hops", hops as f64);
            ledger.set("core.metrics.collect_s", run_s - loop_s.iter().sum::<f64>());
        }
        Ok(Pass {
            wall_s,
            run_s,
            loop_s,
            hops,
            roots_ok: all.iter().map(|m| m.world.roots_ok).sum(),
            roots_failed: all.iter().map(|m| m.world.roots_failed).sum(),
            fg_samples: fg.completed,
            fg_p50_ms: fg.p50_ms,
            fg_tail_ms,
            fingerprint: fingerprint(&all),
            ledger,
        })
    }

    /// The workload's first spec run with nothing attached: event-loop
    /// seconds of a plain run, the base of the recorder's cost shares.
    pub fn plain_loop_s(self, seed: u64, spans: &mut Spans, env: &Env) -> Result<f64, String> {
        let (run, _) = spans.scope("plain", |spans| {
            run_one(spans, env, || self.spec(seed, 0), no_attach)
        });
        Ok(run?.m.wall_ns as f64 / 1e9)
    }
}

/// Gray `ratings` r0 (x3 slow, 10 % errors) over 20–50 % of the run, crash
/// `reviews` r1 at 60 % and restart it 10 % later, flap `details` r0 at
/// 80 % for 1 %. Error rate and flap length are low enough that retries
/// and retransmissions absorb them: with 30 % errors a `ratings` breaker
/// opens on some seeds and not on others, and a 5 % flap puts the
/// foreground p90 on the edge of the stalled requests.
fn chaos_script() -> FaultScript {
    let at = |pct: u64| SimTime::from_millis(pct * 100);
    let lasting = |pct: u64| Some(millis(pct * 100));
    FaultScript::new()
        .with(
            at(20),
            FaultKind::GrayFailure {
                service: "ratings".into(),
                replica: 0,
                speed_factor: 3.0,
                failure_rate: 0.1,
                clear_after: lasting(30),
            },
        )
        .with(
            at(60),
            FaultKind::PodCrash {
                service: "reviews".into(),
                replica: 1,
                restart_after: lasting(10),
            },
        )
        .with(
            at(80),
            FaultKind::LinkFlap {
                service: "details".into(),
                replica: 0,
                up_after: millis(100),
            },
        )
}

/// Build and run one spec; `attach` may hook a recorder or replayer onto
/// the built simulation.
fn run_one(
    spans: &mut Spans,
    env: &Env,
    gen: impl FnOnce() -> SimSpec,
    attach: impl FnOnce(&mut Simulation) -> std::io::Result<()>,
) -> Result<Run, String> {
    let (spec, _) = spans.scope("spec", |_| gen());
    let (mut sim, _) = spans.scope("build", |_| Simulation::build(spec));
    attach(&mut sim).map_err(|e| format!("flight recorder attach failed: {e}"))?;
    if env.traced {
        sim.enable_profiling();
    }
    let (m, run_s) = spans.scope("run", |_| {
        if env.traced {
            counting(|| sim.run())
        } else {
            sim.run()
        }
    });
    spans.split_last("loop", "collect", m.wall_ns);
    let hops = sim
        .fabric()
        .topology
        .links()
        .map(|l| l.stats().tx_packets)
        .sum();
    Ok(Run {
        m,
        run_s,
        hops,
        flight: sim.take_flight_outcome(),
    })
}

fn no_attach(_: &mut Simulation) -> std::io::Result<()> {
    Ok(())
}

fn no_failed_roots(m: &RunMetrics) -> Result<(), String> {
    match m.world.roots_failed {
        0 => Ok(()),
        n => Err(format!("{n} root requests failed on a fault-free run")),
    }
}

/// Returns the pass's runs and the index of the one whose foreground
/// class is reported.
type Runs = Result<(Vec<Run>, usize), String>;

fn fig4_pass(seed: u64, spans: &mut Spans, env: &Env, ledger: &mut Ledger) -> Runs {
    let w = Workload::Fig4Elibrary;
    let base = run_one(spans, env, || w.spec(seed, 0), no_attach)?;
    let opt = run_one(spans, env, || w.spec(seed, 1), no_attach)?;
    no_failed_roots(&base.m)?;
    no_failed_roots(&opt.m)?;
    let class = |m: &RunMetrics, name: &str| {
        m.class(name)
            .cloned()
            .ok_or_else(|| format!("class {name} missing"))
    };
    let (b_ls, o_ls) = (class(&base.m, LS)?, class(&opt.m, LS)?);
    let (b_ba, o_ba) = (class(&base.m, BATCH)?, class(&opt.m, BATCH)?);
    // The paper's result, at the percentile this run length supports.
    if o_ls.p90_ms >= b_ls.p90_ms {
        return Err(format!(
            "prioritisation did not help: LS p90 {} ms optimised vs {} ms baseline",
            o_ls.p90_ms, b_ls.p90_ms
        ));
    }
    if env.traced {
        ledger.set("core.xlayer.ls_p99_gain", ratio(b_ls.p99_ms, o_ls.p99_ms));
        ledger.set("core.xlayer.ls_p50_gain", ratio(b_ls.p50_ms, o_ls.p50_ms));
        ledger.set(
            "core.xlayer.batch_p99_cost",
            ratio(o_ba.p99_ms, b_ba.p99_ms),
        );
    }
    Ok((vec![base, opt], 1))
}

fn fabric_pass(w: Workload, seed: u64, spans: &mut Spans, env: &Env) -> Runs {
    let run = run_one(spans, env, || w.spec(seed, 0), no_attach)?;
    no_failed_roots(&run.m)?;
    if w == Workload::FabricPacket {
        let drops: u64 = run.m.links.iter().map(|l| l.drops).sum();
        if drops + run.m.world.pkt_drops != 0 {
            return Err(format!("{drops} packets dropped on an uncongested fabric"));
        }
    } else {
        if run.m.fluid.is_empty() {
            return Err("no fluid classes ran".into());
        }
        for f in &run.m.fluid {
            if f.injected_bytes != f.delivered_bytes + f.dropped_bytes {
                return Err(format!(
                    "fluid class {}: injected {} != delivered {} + dropped {}",
                    f.class, f.injected_bytes, f.delivered_bytes, f.dropped_bytes
                ));
            }
        }
    }
    Ok((vec![run], 0))
}

/// Removes the temporary capture directory however the pass ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn chaos_pass(seed: u64, spans: &mut Spans, env: &Env, ledger: &mut Ledger) -> Runs {
    let w = Workload::ChaosFlight;
    let dir = TempDir(env.out_dir.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("cannot create {:?}: {e}", dir.0))?;
    let capture = dir.0.join("chaos.flight");

    let (record, record_s) = spans.scope("record", |spans| {
        run_one(
            spans,
            env,
            || w.spec(seed, 0),
            |sim| sim.record_to(w.name(), &capture),
        )
    });
    let mut record = record?;
    let Some(FlightOutcome::Recorded(counts)) = record.flight.take() else {
        return Err(format!("capture did not close: {:?}", record.flight));
    };

    let (replay, replay_s) = spans.scope("replay", |spans| {
        run_one(
            spans,
            env,
            || w.spec(seed, 1),
            |sim| sim.replay_from(&capture),
        )
    });
    let mut replay = replay?;
    let Some(FlightOutcome::Replayed(report)) = replay.flight.take() else {
        return Err(format!("replay produced no report: {:?}", replay.flight));
    };
    if let Some(d) = &report.divergence {
        return Err(format!(
            "replay diverged at event {}: {}",
            d.index, d.reason
        ));
    }

    let (loaded, load_s) = spans.scope("load", |_| -> Result<u64, String> {
        let log = FlightLog::load(&capture).map_err(|e| format!("capture unreadable: {e}"))?;
        if log.end.is_none() {
            return Err("capture has no end frame".into());
        }
        if log.events.len() as u64 != record.m.events {
            return Err(format!(
                "capture holds {} events, the loop ran {}",
                log.events.len(),
                record.m.events
            ));
        }
        let rid = log
            .request_ids()
            .into_iter()
            .next()
            .ok_or("capture correlates no request")?;
        let dump = log.dump_request(&rid).ok_or("first request id not found")?;
        std::hint::black_box(dump);
        Ok(log.faults.len() as u64)
    });
    let fault_frames = loaded?;
    let script = chaos_script();
    let expected_frames: u64 = script
        .faults
        .iter()
        .map(|f| 1 + f.kind.clear_after().is_some() as u64)
        .sum();
    if fault_frames != expected_frames || counts.faults != expected_frames {
        return Err(format!(
            "{fault_frames} fault frames loaded, {} written, {expected_frames} injected and cleared",
            counts.faults
        ));
    }

    let (exported, export_s) = spans.scope("export", |_| -> std::io::Result<()> {
        let t = &record.m.telemetry;
        for (file, text) in [
            ("telemetry.json", export::summary_json(t)),
            ("latency.csv", export::latency_csv(t)),
            ("gauges.csv", export::gauges_csv(t)),
            ("rollup.csv", export::rollup_csv(t)),
            ("anomalies.csv", export::anomalies_csv(t)),
            ("metrics.prom", export::prometheus_text(t)),
        ] {
            std::fs::write(dir.0.join(file), text)?;
        }
        Ok(())
    });
    exported.map_err(|e| format!("telemetry export failed: {e}"))?;

    if env.traced {
        let bytes = std::fs::metadata(&capture).map_or(0, |m| m.len());
        let frames = 2 // meta + end
            + counts.events
            + counts.packets
            + counts.decisions
            + counts.binds
            + counts.anomalies
            + counts.faults
            + counts.fluids;
        ledger.set("flightrec.capture_bytes", bytes as f64);
        ledger.set(
            "flightrec.bytes_per_event",
            ratio(bytes as f64, counts.events as f64),
        );
        ledger.set("flightrec.frames", frames as f64);
        ledger.set("flightrec.divergences", 0.0);
        ledger.set("flightrec.record_s", record_s);
        ledger.set("flightrec.replay_s", replay_s);
        ledger.set("flightrec.load_s", load_s);
        ledger.set("telemetry.export_s", export_s);
        ledger.set("chaos.faults_injected", script.faults.len() as f64);
        ledger.set("chaos.fault_frames", fault_frames as f64);
    }
    Ok((vec![record, replay], 0))
}

/// Everything the model decided in these runs — per-class completions,
/// failures and latency, link bytes and drops, transport messages — and
/// nothing the engine is free to change (no event counts, no host time).
fn fingerprint(runs: &[&RunMetrics]) -> String {
    let mut out = String::new();
    for m in runs {
        for c in &m.classes {
            out.push_str(&format!(
                "{}:{}/{}/{}/{};",
                c.class, c.completed, c.failed, c.p50_ms, c.p99_ms
            ));
        }
        let tx: u64 = m.links.iter().map(|l| l.tx_bytes).sum();
        let drops: u64 = m.links.iter().map(|l| l.drops).sum();
        out.push_str(&format!(
            "tx={tx} drops={drops} msgs={} roots={}/{}|",
            m.transport.msgs_delivered, m.world.roots_ok, m.world.roots_failed
        ));
    }
    out
}

/// The exact counts of the traced pass, summed over its runs.
fn count_ledger(runs: &[&RunMetrics], l: &mut Ledger) {
    // Sums that only feed ratios.
    let (mut loop_ns, mut sim_s, mut unpopped, mut rpcs) = (0.0, 0.0, 0.0, 0.0);
    let (mut fluid_bytes, mut fluid_dropped) = (0.0, 0.0);
    let mut kind_ns = [0.0; EVENT_KINDS.len()];
    for m in runs {
        loop_ns += m.wall_ns as f64;
        sim_s += m.sim_seconds;
        unpopped += (m.events_pushed - m.events_popped) as f64;
        rpcs += m.world.rpcs as f64;
        l.add("core.engine.events", m.events as f64);
        for p in &m.event_profile {
            if let Some(k) = EVENT_KINDS.iter().position(|k| *k == p.event) {
                l.add(&format!("core.engine.ev.{}.count", p.event), p.count as f64);
                kind_ns[k] += p.wall_ns as f64;
            }
        }
        l.add("simcore.queue.pushed", m.events_pushed as f64);
        for link in &m.links {
            fluid_bytes += link.fluid_bytes as f64;
            l.add("netsim.link.tx_bytes", link.tx_bytes as f64);
            l.add("netsim.link.drops", link.drops as f64);
            l.max("netsim.link.peak_queue_pkts", link.peak_queue_pkts as f64);
            l.max("netsim.link.bottleneck_util", link.utilization);
        }
        l.add("transport.connections", m.transport.connections as f64);
        l.add(
            "transport.msgs_delivered",
            m.transport.msgs_delivered as f64,
        );
        l.add("transport.fast_retx", m.transport.fast_retx as f64);
        l.add("transport.timeouts", m.transport.timeouts as f64);
        l.add("transport.bytes_sent", m.transport.bytes_sent as f64);
        for pod in &m.pods {
            l.add("cluster.compute.jobs", pod.jobs as f64);
            l.add("cluster.compute.rejected", pod.rejected as f64);
            l.max("cluster.compute.peak_queue", pod.peak_queue as f64);
        }
        l.add("mesh.sidecar.outbound", m.fleet.outbound_requests as f64);
        l.add("mesh.sidecar.retries", m.fleet.retries as f64);
        l.add("mesh.sidecar.fail_fast", m.fleet.fail_fast as f64);
        l.add("mesh.sidecar.resp_5xx", m.fleet.resp_5xx as f64);
        l.add(
            "mesh.sidecar.priority_propagated",
            m.fleet.priority_propagated as f64,
        );
        l.add("workload.roots_started", m.world.roots_started as f64);
        l.add("workload.roots_ok", m.world.roots_ok as f64);
        l.add("workload.roots_failed", m.world.roots_failed as f64);
        for f in &m.fluid {
            fluid_dropped += f.dropped_bytes as f64;
            l.add("core.fluid.flows", f.flows as f64);
            l.add("core.fluid.injected_bytes", f.injected_bytes as f64);
        }
        l.add("telemetry.scrapes", m.telemetry.scrapes as f64);
    }
    let events = l.get("core.engine.events");
    let roots = l.get("workload.roots_ok") + l.get("workload.roots_failed");
    for (k, ns) in EVENT_KINDS.iter().zip(kind_ns) {
        let count = l.get(&format!("core.engine.ev.{k}.count"));
        l.set(&format!("core.engine.ev.{k}.ns"), ratio(ns, count));
        l.set(&format!("core.engine.ev.{k}.share"), ratio(ns, loop_ns));
    }
    l.set("core.engine.events_per_root", ratio(events, roots));
    l.set(
        "core.engine.events_per_msg",
        ratio(events, l.get("transport.msgs_delivered")),
    );
    l.set("core.engine.loop_ns_per_event", ratio(loop_ns, events));
    l.set("core.engine.sim_s_per_wall_s", ratio(sim_s, loop_ns / 1e9));
    l.set(
        "simcore.queue.unpopped_share",
        ratio(unpopped, l.get("simcore.queue.pushed")),
    );
    l.set(
        "netsim.link.fluid_share",
        ratio(fluid_bytes, fluid_bytes + l.get("netsim.link.tx_bytes")),
    );
    l.set(
        "transport.timer_useful_share",
        ratio(
            l.get("transport.timeouts"),
            l.get("core.engine.ev.ConnTimer.count"),
        ),
    );
    l.set(
        "mesh.attempts_per_rpc",
        ratio(l.get("mesh.sidecar.outbound"), rpcs),
    );
    l.set(
        "core.fluid.solves",
        l.get("core.engine.ev.FluidUpdate.count"),
    );
    l.set(
        "core.fluid.dropped_share",
        ratio(fluid_dropped, l.get("core.fluid.injected_bytes")),
    );
}
