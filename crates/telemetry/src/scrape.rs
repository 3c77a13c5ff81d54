//! The telemetry hub: collection point for the engine's scrape loop.
//!
//! The simulation engine drives a [`TelemetryHub`] from two directions:
//! continuously, as requests complete (`observe_latency`,
//! `observe_pod_latency`), and at every `TelemetryTick` (`scrape_gauge` +
//! `on_scrape`), when it samples links, pods, and sidecar counters. The
//! hub owns the per-class latency series, the gauge series, the per-pod
//! roll-up sketches, the online anomaly detector, and the SLO monitor,
//! and renders everything into a serializable [`TelemetrySummary`] at end
//! of run. Retention is bounded: every series rolls old intervals up into
//! coarser sketches (see [`crate::series`]) and the hub keeps at most
//! [`ANOMALY_CAP`] anomalies, so hub memory is O(classes × sketch size),
//! not O(run length).

use crate::anomaly::{AnomalyDetector, AnomalyEvent};
use crate::rollup::{build_rollup, PodStats, RollupRow};
use crate::series::{GaugeSeries, IntervalStats, LatencySeries};
use crate::sketch::SUB_BITS;
use crate::slo::{Alert, BurnRateRule, SloMonitor, SloTarget};
use meshlayer_simcore::{QuantileSketch, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a gauge sample measures. The name maps to the Prometheus metric
/// family the sample is exported under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GaugeKind {
    /// Link utilization in `[0,1]` (`link_utilization`).
    LinkUtilization,
    /// Packets queued on a link's qdisc (`link_queue_depth`).
    LinkQueueDepth,
    /// Packets dropped on a link since the last scrape (`link_drops`).
    LinkDrops,
    /// Requests waiting for a pod's compute (`pod_compute_queue`).
    PodComputeQueue,
    /// Sidecar requests seen since the last scrape (`sidecar_requests`).
    SidecarRequests,
    /// Sidecar retries since the last scrape (`sidecar_retries`).
    SidecarRetries,
    /// Sidecar fail-fast rejections since the last scrape (`sidecar_fail_fast`).
    SidecarFailFast,
    /// Sidecar 5xx responses since the last scrape (`sidecar_5xx`).
    Sidecar5xx,
    /// Policy snapshot version applied fleet-wide (`policy_version`).
    PolicyVersion,
    /// Whether a class's SLO burn alert is firing, 0/1 (`slo_burning`).
    SloBurning,
}

impl GaugeKind {
    /// The Prometheus metric family name.
    pub fn metric_name(self) -> &'static str {
        match self {
            GaugeKind::LinkUtilization => "link_utilization",
            GaugeKind::LinkQueueDepth => "link_queue_depth",
            GaugeKind::LinkDrops => "link_drops",
            GaugeKind::PodComputeQueue => "pod_compute_queue",
            GaugeKind::SidecarRequests => "sidecar_requests",
            GaugeKind::SidecarRetries => "sidecar_retries",
            GaugeKind::SidecarFailFast => "sidecar_fail_fast",
            GaugeKind::Sidecar5xx => "sidecar_5xx",
            GaugeKind::PolicyVersion => "policy_version",
            GaugeKind::SloBurning => "slo_burning",
        }
    }

    /// One-line `# HELP` text for the Prometheus exposition.
    pub fn help(self) -> &'static str {
        match self {
            GaugeKind::LinkUtilization => "Link utilization in [0,1].",
            GaugeKind::LinkQueueDepth => "Packets queued on the link qdisc.",
            GaugeKind::LinkDrops => "Packets dropped on the link since the last scrape.",
            GaugeKind::PodComputeQueue => "Requests waiting for pod compute.",
            GaugeKind::SidecarRequests => "Requests seen by the sidecar since the last scrape.",
            GaugeKind::SidecarRetries => "Sidecar retries since the last scrape.",
            GaugeKind::SidecarFailFast => "Sidecar fail-fast rejections since the last scrape.",
            GaugeKind::Sidecar5xx => "Sidecar 5xx responses since the last scrape.",
            GaugeKind::PolicyVersion => "Policy snapshot version applied fleet-wide.",
            GaugeKind::SloBurning => "Whether the class's SLO burn alert is firing (0/1).",
        }
    }

    /// Whether this gauge measures a queue depth the anomaly detector
    /// should watch for unbounded growth.
    pub fn is_queue(self) -> bool {
        matches!(self, GaugeKind::LinkQueueDepth | GaugeKind::PodComputeQueue)
    }

    /// Every kind, in export order.
    pub fn all() -> [GaugeKind; 10] {
        [
            GaugeKind::LinkUtilization,
            GaugeKind::LinkQueueDepth,
            GaugeKind::LinkDrops,
            GaugeKind::PodComputeQueue,
            GaugeKind::SidecarRequests,
            GaugeKind::SidecarRetries,
            GaugeKind::SidecarFailFast,
            GaugeKind::Sidecar5xx,
            GaugeKind::PolicyVersion,
            GaugeKind::SloBurning,
        ]
    }
}

/// Anomaly events the hub retains (oldest dropped beyond this);
/// flight-recorded anomaly frames are unaffected.
pub const ANOMALY_CAP: usize = 4096;

/// Telemetry configuration carried in the simulation spec.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Scrape (and latency bucketing) interval.
    pub interval: SimDuration,
    /// Burn-rate rule applied to every target.
    pub rule: BurnRateRule,
    /// SLO targets to monitor.
    pub targets: Vec<SloTarget>,
}

impl Default for TelemetryConfig {
    /// 100 ms scrapes — ≥ 10 points over even the shortest (2 s) runs.
    fn default() -> Self {
        TelemetryConfig {
            interval: SimDuration::from_millis(100),
            rule: BurnRateRule::default(),
            targets: Vec::new(),
        }
    }
}

impl TelemetryConfig {
    /// Add an SLO target.
    pub fn with_target(mut self, target: SloTarget) -> Self {
        self.targets.push(target);
        self
    }
}

/// Everything the hub collected, in serializable form.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Scrape interval in seconds.
    pub interval_s: f64,
    /// Number of scrapes performed.
    pub scrapes: u64,
    /// Per-class interval series, sorted by class name.
    pub classes: Vec<ClassSeries>,
    /// Gauge series, sorted by (metric, instance).
    pub gauges: Vec<GaugeSeries>,
    /// SLO alerts fired during the run.
    pub alerts: Vec<Alert>,
    /// Anomalies the online detector flagged, in detection order.
    pub anomalies: Vec<AnomalyEvent>,
    /// Hierarchical pod → service → zone → mesh latency roll-up.
    pub rollup: Vec<RollupRow>,
}

/// The latency series of one traffic class.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassSeries {
    /// Traffic class (workload name).
    pub class: String,
    /// Closed intervals, oldest first (coarse roll-ups before fine).
    pub points: Vec<IntervalStats>,
}

impl TelemetrySummary {
    /// The series for one class.
    pub fn class(&self, name: &str) -> Option<&ClassSeries> {
        self.classes.iter().find(|c| c.class == name)
    }

    /// The gauge series for one (kind, instance) pair.
    pub fn gauge(&self, kind: GaugeKind, instance: &str) -> Option<&GaugeSeries> {
        self.gauges
            .iter()
            .find(|g| g.name == kind.metric_name() && g.instance == instance)
    }
}

/// Live collection state driven by the engine.
pub struct TelemetryHub {
    config: TelemetryConfig,
    classes: BTreeMap<String, LatencySeries>,
    gauges: BTreeMap<(GaugeKind, String), GaugeSeries>,
    pods: BTreeMap<String, PodStats>,
    detector: AnomalyDetector,
    anomalies: Vec<AnomalyEvent>,
    slo: SloMonitor,
    scrapes: u64,
}

impl TelemetryHub {
    /// Hub with the given configuration.
    pub fn new(config: TelemetryConfig) -> TelemetryHub {
        let slo = SloMonitor::new(config.rule.clone(), config.targets.clone());
        let detector = AnomalyDetector::new();
        TelemetryHub {
            config,
            classes: BTreeMap::new(),
            gauges: BTreeMap::new(),
            pods: BTreeMap::new(),
            detector,
            anomalies: Vec::new(),
            slo,
            scrapes: 0,
        }
    }

    /// The scrape interval.
    pub fn interval(&self) -> SimDuration {
        self.config.interval
    }

    /// Record a completed request: its latency (measured from intended
    /// send time) or `None` for a failure.
    pub fn observe_latency(&mut self, class: &str, now: SimTime, latency: Option<SimDuration>) {
        let interval = self.config.interval;
        let series = self
            .classes
            .entry(class.to_string())
            .or_insert_with(|| LatencySeries::new(interval));
        match latency {
            Some(l) => series.record(now, l),
            None => series.record_error(now),
        }
        self.slo.observe(class, now, latency);
    }

    /// Record one server-window sample at a pod, for the hierarchical
    /// roll-up. `zone` is the node the pod runs on.
    pub fn observe_pod_latency(
        &mut self,
        pod: &str,
        service: &str,
        zone: &str,
        latency: SimDuration,
        error: bool,
    ) {
        let stats = self
            .pods
            .entry(pod.to_string())
            .or_insert_with(|| PodStats {
                service: service.to_string(),
                zone: zone.to_string(),
                errors: 0,
                sketch: QuantileSketch::new(SUB_BITS),
            });
        stats.sketch.record_duration(latency);
        if error {
            stats.errors += 1;
        }
    }

    /// Record one gauge sample for the current scrape.
    pub fn scrape_gauge(&mut self, kind: GaugeKind, instance: &str, now: SimTime, value: f64) {
        self.gauges
            .entry((kind, instance.to_string()))
            .or_insert_with(|| GaugeSeries::new(kind.metric_name(), instance))
            .push(now, value);
    }

    /// Finish one scrape: roll latency intervals forward, run the anomaly
    /// detector over everything that closed, and evaluate SLO rules. Call
    /// after the gauge samples for this tick. Returns the anomalies newly
    /// flagged on this scrape, in deterministic (class-sorted) order.
    pub fn on_scrape(&mut self, now: SimTime) -> Vec<AnomalyEvent> {
        self.scrapes += 1;
        let mut fresh = Vec::new();
        for (class, series) in self.classes.iter_mut() {
            series.advance_to(now);
            self.detector.scan_class(class, series, &mut fresh);
        }
        for ((kind, instance), series) in self.gauges.iter() {
            if kind.is_queue() {
                self.detector
                    .scan_queue(kind.metric_name(), instance, &series.points, &mut fresh);
            }
        }
        self.slo.evaluate(now);
        self.anomalies.extend(fresh.iter().cloned());
        if self.anomalies.len() > ANOMALY_CAP {
            let drop = self.anomalies.len() - ANOMALY_CAP;
            self.anomalies.drain(..drop);
        }
        fresh
    }

    /// Number of scrapes so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes
    }

    /// Alerts fired so far.
    pub fn alerts(&self) -> &[Alert] {
        self.slo.alerts()
    }

    /// Anomalies flagged so far (the most recent [`ANOMALY_CAP`] are
    /// retained; older ones age out of the hub but stay in any attached
    /// flight recording).
    pub fn anomalies(&self) -> &[AnomalyEvent] {
        &self.anomalies
    }

    /// Whether `class`'s SLO alert is firing as of the last scrape.
    pub fn burning(&self, class: &str) -> bool {
        self.slo.burning(class)
    }

    /// The monitored SLO classes, in target order.
    pub fn slo_classes(&self) -> Vec<String> {
        self.config
            .targets
            .iter()
            .map(|t| t.class.clone())
            .collect()
    }

    /// Bytes of latency/gauge/roll-up/anomaly state the hub currently
    /// holds. Bounded by the retention constants regardless of run length —
    /// this is what the ci memory-ceiling check asserts on.
    pub fn memory_bytes(&self) -> usize {
        let classes: usize = self
            .classes
            .iter()
            .map(|(name, s)| name.len() + s.mem_bytes())
            .sum();
        let gauges: usize = self
            .gauges
            .iter()
            .map(|((_, instance), g)| instance.len() + g.mem_bytes())
            .sum();
        let pods: usize = self
            .pods
            .iter()
            .map(|(name, p)| {
                name.len()
                    + p.service.len()
                    + p.zone.len()
                    + p.sketch.mem_bytes()
                    + std::mem::size_of::<PodStats>()
            })
            .sum();
        let anomalies: usize = self
            .anomalies
            .iter()
            .map(|a| std::mem::size_of::<AnomalyEvent>() + a.subject.len() + a.detail.len())
            .sum();
        classes + gauges + pods + anomalies
    }

    /// Close all series and render the summary.
    pub fn finish(self, now: SimTime) -> TelemetrySummary {
        TelemetrySummary {
            interval_s: self.config.interval.as_secs_f64(),
            scrapes: self.scrapes,
            classes: self
                .classes
                .into_iter()
                .map(|(class, series)| ClassSeries {
                    class,
                    points: series.into_points(now),
                })
                .collect(),
            gauges: self.gauges.into_values().collect(),
            alerts: self.slo.into_alerts(),
            anomalies: self.anomalies,
            rollup: build_rollup(&self.pods),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_collects_classes_and_gauges() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        for i in 0..50u64 {
            let now = SimTime::from_millis(i * 20);
            hub.observe_latency("ls", now, Some(SimDuration::from_millis(2)));
            if i % 5 == 0 {
                hub.scrape_gauge(GaugeKind::LinkUtilization, "a->b", now, 0.5);
                hub.on_scrape(now);
            }
        }
        let summary = hub.finish(SimTime::from_secs(1));
        assert_eq!(summary.scrapes, 10);
        let ls = summary.class("ls").expect("class series");
        assert!(ls.points.len() >= 9, "got {} points", ls.points.len());
        assert!(ls.points.iter().map(|p| p.count).sum::<u64>() >= 50);
        let util = summary.gauge(GaugeKind::LinkUtilization, "a->b").unwrap();
        assert_eq!(util.points.len(), 10);
    }

    #[test]
    fn hub_fires_alert_on_violations() {
        let config = TelemetryConfig::default().with_target(SloTarget::new(
            "ls",
            SimDuration::from_millis(1),
            0.001,
        ));
        let mut hub = TelemetryHub::new(config);
        for i in 0..3000u64 {
            let now = SimTime::from_millis(i);
            hub.observe_latency("ls", now, Some(SimDuration::from_millis(100)));
            if i % 100 == 0 {
                hub.on_scrape(now);
            }
        }
        assert!(!hub.alerts().is_empty());
        let summary = hub.finish(SimTime::from_secs(3));
        assert!(!summary.alerts.is_empty());
    }

    #[test]
    fn hub_builds_pod_rollup() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        for i in 0..20u64 {
            let pod = if i % 2 == 0 { "web-0" } else { "web-1" };
            let zone = if i % 2 == 0 { "node0" } else { "node1" };
            hub.observe_pod_latency(pod, "web", zone, SimDuration::from_millis(3), i % 7 == 0);
        }
        let summary = hub.finish(SimTime::from_secs(1));
        let row = |level: &str, name: &str| {
            summary
                .rollup
                .iter()
                .find(|r| r.level == level && r.name == name)
                .unwrap_or_else(|| panic!("row {level}/{name}"))
        };
        assert_eq!(row("mesh", "mesh").count, 20);
        assert_eq!(row("mesh", "mesh").errors, 3);
        assert_eq!(row("service", "web").count, 20);
        assert_eq!(row("pod", "web-0").count, 10);
        assert_eq!(row("zone", "node1").count, 10);
    }

    #[test]
    fn hub_flags_latency_shift_anomaly() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        let mut events = Vec::new();
        for i in 0..30u64 {
            let lat = if i < 15 { 5 } else { 120 };
            for j in 0..8u64 {
                let now = SimTime::from_millis(i * 100 + j * 10);
                hub.observe_latency("ls", now, Some(SimDuration::from_millis(lat)));
            }
            events.extend(hub.on_scrape(SimTime::from_millis((i + 1) * 100)));
        }
        assert_eq!(events.len(), 1, "events: {events:?}");
        assert_eq!(events[0].subject, "ls");
        assert_eq!(events[0].direction, 1);
        let summary = hub.finish(SimTime::from_secs(3));
        assert_eq!(summary.anomalies.len(), 1);
    }

    #[test]
    fn hub_memory_is_bounded_over_long_runs() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        let mut at_1k = 0usize;
        for i in 0..20_000u64 {
            let now = SimTime::from_millis(i * 100);
            hub.observe_latency("ls", now, Some(SimDuration::from_millis(2)));
            hub.scrape_gauge(GaugeKind::LinkUtilization, "a->b", now, 0.5);
            hub.on_scrape(now);
            if i == 1_000 {
                at_1k = hub.memory_bytes();
            }
        }
        let end = hub.memory_bytes();
        assert!(
            end <= at_1k * 2,
            "memory grew: {at_1k} bytes at 1k scrapes, {end} at 20k"
        );
    }
}
