//! The metric registry — every name, unit, direction and bound the
//! benchmark reports — and the small statistics the report needs.
//!
//! `BENCHMARK.json` at the repository root is this registry written out
//! (`meshbench --emit-contract`); a unit test keeps the two equal.

use serde::Node;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    /// Decided by the model alone: two runs of one seed must agree to the
    /// last digit. Host-measured metrics (times, allocations) are not.
    pub exact: bool,
}

/// How long one run measures, seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 20;

/// A host-measured metric.
fn m(name: &str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// A metric the model decides (see [`Metric::exact`]).
fn x(name: &str, unit: &'static str, better: Better) -> Metric {
    Metric {
        exact: true,
        ..m(name, unit, better)
    }
}

/// The seven end-to-end metrics, reported on every workload. Host
/// metrics are per simulated packet-hop (one packet sent on one link):
/// the work a seed generates varies by ±20 % on the e-library workloads,
/// host time per packet-hop by ±1 %, and a packet-hop — unlike an event —
/// is a quantity of the model that an engine optimisation may not change.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    let bound = |metric: Metric, bound| Metric {
        bound: Some(bound),
        ..metric
    };
    vec![
        bound(m("wall_ns_per_pkt_hop", "ns", Lower), 0.15),
        bound(m("setup_s", "s", Lower), 0.25),
        bound(m("pkt_hops_per_run_s", "1/s", Higher), 0.15),
        bound(m("peak_rss_mib", "MiB", Lower), 0.15),
        bound(x("ok_share", "ratio", Higher), 0.05),
        bound(x("fg_p50_ms", "ms", Lower), 0.10),
        bound(x("fg_tail_ms", "ms", Lower), 0.15),
    ]
}

/// Event kinds the per-layer ledger breaks the loop down by; a kind the
/// engine does not emit on a workload reads as 0.
pub const EVENT_KINDS: [&str; 10] = [
    "PktArrive",
    "LinkTx",
    "ConnTimer",
    "SendMsg",
    "ComputeDone",
    "AttemptResponse",
    "ExecStart",
    "TelemetryTick",
    "FluidUpdate",
    "Fault",
];

/// The per-layer ledger of the traced run; layer = crate or module name.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut v = vec![
        x("core.engine.events", "count", Lower),
        x("core.engine.events_per_root", "count", Lower),
        x("core.engine.events_per_msg", "count", Lower),
    ];
    for k in EVENT_KINDS {
        v.push(x(&format!("core.engine.ev.{k}.count"), "count", Lower));
        v.push(m(&format!("core.engine.ev.{k}.ns"), "ns", Lower));
        v.push(m(&format!("core.engine.ev.{k}.share"), "ratio", Lower));
    }
    v.extend([
        m("core.engine.loop_ns_per_event", "ns", Lower),
        m("core.engine.sim_s_per_wall_s", "ratio", Higher),
        m("core.metrics.collect_s", "s", Lower),
        m("simcore.queue.hold64_ns", "ns", Lower),
        m("simcore.queue.hold1k_ns", "ns", Lower),
        m("simcore.queue.hold16k_ns", "ns", Lower),
        m("simcore.queue.overflow_ns", "ns", Lower),
        m("simcore.hist.record_ns", "ns", Lower),
        x("simcore.queue.pushed", "count", Lower),
        x("simcore.queue.unpopped_share", "ratio", Lower),
        x("netsim.link.pkt_hops", "count", Lower),
        x("netsim.link.tx_bytes", "B", Lower),
        x("netsim.link.drops", "count", Lower),
        x("netsim.link.peak_queue_pkts", "count", Lower),
        x("netsim.link.bottleneck_util", "ratio", Lower),
        x("netsim.link.fluid_share", "ratio", Higher),
        m("netsim.link.offer_tx_ns", "ns", Lower),
        m("netsim.qdisc.droptail_ns", "ns", Lower),
        m("netsim.qdisc.htb_ns", "ns", Lower),
        m("netsim.qdisc.prio_ns", "ns", Lower),
        m("netsim.tc.classify_ns", "ns", Lower),
        m("netsim.route.next_hop_ns", "ns", Lower),
        x("transport.connections", "count", Lower),
        x("transport.msgs_delivered", "count", Higher),
        x("transport.fast_retx", "count", Lower),
        x("transport.timeouts", "count", Lower),
        x("transport.bytes_sent", "B", Lower),
        x("transport.timer_useful_share", "ratio", Higher),
        m("transport.conn.msg64k_ns", "ns", Lower),
        m("transport.conn.pkt_ns", "ns", Lower),
        m("httpsim.codec.roundtrip_ns", "ns", Lower),
        m("httpsim.headers.get_set_ns", "ns", Lower),
        x("cluster.compute.jobs", "count", Higher),
        x("cluster.compute.rejected", "count", Lower),
        x("cluster.compute.peak_queue", "count", Lower),
        m("cluster.compute.submit_done_ns", "ns", Lower),
        x("mesh.sidecar.outbound", "count", Lower),
        x("mesh.sidecar.retries", "count", Lower),
        x("mesh.sidecar.fail_fast", "count", Lower),
        x("mesh.sidecar.resp_5xx", "count", Lower),
        x("mesh.sidecar.priority_propagated", "count", Higher),
        x("mesh.attempts_per_rpc", "ratio", Lower),
        m("mesh.sidecar.hop_ns", "ns", Lower),
        m("mesh.lb.pick_ns", "ns", Lower),
        m("mesh.resilience.admit_ns", "ns", Lower),
        x("workload.roots_started", "count", Higher),
        x("workload.roots_ok", "count", Higher),
        x("workload.roots_failed", "count", Lower),
        x("workload.fg_samples", "count", Higher),
        m("workload.recorder.record_ns", "ns", Lower),
        x("core.fluid.solves", "count", Lower),
        x("core.fluid.flows", "count", Lower),
        x("core.fluid.injected_bytes", "B", Higher),
        x("core.fluid.dropped_share", "ratio", Lower),
        x("core.xlayer.ls_p99_gain", "ratio", Higher),
        x("core.xlayer.ls_p50_gain", "ratio", Higher),
        x("core.xlayer.batch_p99_cost", "ratio", Lower),
        x("telemetry.scrapes", "count", Lower),
        m("telemetry.sketch.record_ns", "ns", Lower),
        m("telemetry.sketch.merge_ns", "ns", Lower),
        m("telemetry.hub.scrape_ns", "ns", Lower),
        m("telemetry.export_s", "s", Lower),
        x("flightrec.capture_bytes", "B", Lower),
        x("flightrec.bytes_per_event", "B", Lower),
        x("flightrec.frames", "count", Lower),
        x("flightrec.divergences", "count", Lower),
        m("flightrec.record_s", "s", Lower),
        m("flightrec.replay_s", "s", Lower),
        m("flightrec.load_s", "s", Lower),
        m("flightrec.record_cost_share", "ratio", Lower),
        m("flightrec.replay_cost_share", "ratio", Lower),
        x("chaos.faults_injected", "count", Higher),
        x("chaos.fault_frames", "count", Higher),
        m("prof.profile_cost_share", "ratio", Lower),
        m("alloc.count_per_event", "count", Lower),
        m("alloc.bytes_per_event", "B", Lower),
        m("alloc.count_per_root", "count", Lower),
        m("alloc.peak_live_mib", "MiB", Lower),
        m("bench.trace_overhead_share", "ratio", Lower),
        m("bench.spans", "count", Lower),
        m("bench.pass_wall_s", "s", Lower),
    ]);
    v
}

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Ledger(BTreeMap<String, f64>);

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    pub fn max(&mut self, name: &str, value: f64) {
        let slot = self.0.entry(name.to_string()).or_insert(value);
        *slot = slot.max(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.0.extend(other.0);
    }

    /// Names set in the ledger that the registry does not list — a typo
    /// in the benchmark, caught by a unit test and at run time.
    pub fn unknown(&self, registry: &[Metric]) -> Vec<String> {
        self.0
            .keys()
            .filter(|k| !registry.iter().any(|m| &m.name == *k))
            .cloned()
            .collect()
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The percentiles a class summary publishes, lowest first.
const TAIL_CANDIDATES: [f64; 2] = [0.90, 0.99];

/// The highest published percentile with at least ten samples beyond
/// it, or `None` when even the lowest has fewer.
pub fn supported_tail(samples: u64) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

fn map(entries: Vec<(&str, Node)>) -> Node {
    Node::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The result object the driver reads from the last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    registry: &[Metric],
    ledger: &Ledger,
) -> String {
    let metrics = registry
        .iter()
        .map(|m| {
            let value = map(vec![
                ("value", Node::Float(ledger.get(&m.name))),
                ("unit", Node::Str(m.unit.into())),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    let obj = map(vec![
        ("correct", Node::Bool(correct)),
        ("attempted", Node::UInt(attempted as u128)),
        ("failed", Node::UInt(failed as u128)),
        ("metrics", Node::Map(metrics)),
    ]);
    serde_json::to_string(&obj).expect("node tree serializes")
}

/// `BENCHMARK.json`, rendered from the registry.
pub fn contract_json(workloads: &[(&str, &str)]) -> String {
    let metric = |m: &Metric| {
        let mut e = vec![
            ("name", Node::Str(m.name.clone())),
            ("unit", Node::Str(m.unit.into())),
            ("better", Node::Str(m.better.token().into())),
        ];
        if let Some(b) = m.bound {
            e.push(("bound", Node::Float(b)));
        }
        map(e)
    };
    let strs = |xs: &[&str]| Node::Seq(xs.iter().map(|s| Node::Str(s.to_string())).collect());
    let obj = map(vec![
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Node::UInt(RUN_SECONDS as u128)),
        (
            "workloads",
            Node::Seq(
                workloads
                    .iter()
                    .map(|(name, why)| {
                        map(vec![
                            ("name", Node::Str(name.to_string())),
                            ("why", Node::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Node::Seq(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Node::Seq(per_layer().iter().map(metric).collect()),
        ),
    ]);
    let mut s = serde_json::to_string_pretty(&obj).expect("node tree serializes");
    s.push('\n');
    s
}

/// Parse a result line back into `(correct, name → value)`.
pub fn parse_result(line: &str) -> Result<(bool, BTreeMap<String, f64>), String> {
    let bad = |what: &str| format!("result line lacks {what}: {line}");
    let Node::Map(top) = serde_json::from_str::<Node>(line).map_err(|e| e.to_string())? else {
        return Err(bad("an object"));
    };
    let field = |k: &str| top.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    let Some(Node::Bool(correct)) = field("correct") else {
        return Err(bad("`correct`"));
    };
    let Some(Node::Map(metrics)) = field("metrics") else {
        return Err(bad("`metrics`"));
    };
    let mut values = BTreeMap::new();
    for (name, entry) in metrics {
        let Node::Map(e) = entry else {
            return Err(bad("a metric object"));
        };
        let value = match e.iter().find(|(k, _)| k == "value").map(|(_, v)| v) {
            Some(Node::Float(f)) => *f,
            Some(Node::UInt(u)) => *u as f64,
            Some(Node::Int(i)) => *i as f64,
            _ => return Err(bad("a metric value")),
        };
        values.insert(name.clone(), value);
    }
    Ok((*correct, values))
}

/// By how much of `first` the value `second` is worse, given the
/// metric's direction (negative = better).
pub fn worsening(metric: &Metric, first: f64, second: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(999), Some(0.90));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(1_000_000), Some(0.99));
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            let n = &m.name;
            assert!(!n.is_empty() && n.len() <= 64, "{n}");
            assert!(n.as_bytes()[0].is_ascii_alphanumeric(), "{n}");
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{n}"
            );
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{n}");
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{n}"
            );
            assert!(seen.insert(n.clone()), "{n} listed twice");
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(end_to_end().iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound == Some(0.25)));
    }

    #[test]
    fn median_of_nine_and_of_an_even_count() {
        assert_eq!(median(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_round_trips() {
        let reg = end_to_end();
        let mut l = Ledger::default();
        l.set("setup_s", 0.001234567);
        l.set("ok_share", 1.0);
        let line = result_line(true, 12, 0, &reg, &l);
        assert!(!line.contains('\n'));
        let (correct, values) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(values.len(), reg.len());
        assert_eq!(values["setup_s"], 0.001234567);
        assert_eq!(values["fg_p50_ms"], 0.0);
        assert!(l.unknown(&reg).is_empty());
        l.set("typo", 1.0);
        assert_eq!(l.unknown(&reg), vec!["typo".to_string()]);
    }

    #[test]
    fn worsening_follows_the_direction() {
        let reg = end_to_end();
        let lower = reg.iter().find(|m| m.name == "setup_s").unwrap();
        let higher = reg.iter().find(|m| m.name == "ok_share").unwrap();
        assert!((worsening(lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 2.0, 2.2) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(higher, 1.0, 1.0), 0.0);
    }
}
