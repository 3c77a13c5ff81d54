//! Time-series telemetry for the mesh simulator.
//!
//! The simulation engine drives a periodic scrape (`TelemetryTick`) that
//! samples links, pods, sidecars, and per-class latency into
//! interval-bucketed series backed by mergeable quantile sketches with
//! age-based roll-up, so telemetry memory stays bounded over arbitrarily
//! long runs. On top of the raw series sit trace-derived analytics
//! (critical paths, per-service self time), a hierarchical pod → service
//! → zone → mesh roll-up, an online anomaly detector, an SLO monitor with
//! multi-window burn-rate alerts, and exporters (Prometheus text,
//! CSV/JSON, Zipkin-style JSON).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod anomaly;
pub mod export;
pub mod rollup;
pub mod scrape;
pub mod series;
pub mod sketch;
pub mod slo;

pub use analytics::{CriticalPathStat, ServiceSelfTime, TraceAnalytics};
pub use anomaly::{AnomalyDetector, AnomalyEvent, AnomalyKind};
pub use export::{PromSample, ZipkinSpan};
pub use meshlayer_simcore::QuantileSketch;
pub use rollup::{PodStats, RollupRow};
pub use scrape::{ClassSeries, GaugeKind, TelemetryConfig, TelemetryHub, TelemetrySummary};
pub use series::{GaugeSeries, IntervalStats, LatencySeries, SeriesPoint};
pub use sketch::IntervalSketch;
pub use slo::{Alert, BurnRateRule, SloMonitor, SloTarget};
