//! Hierarchical latency aggregation: pod → service → zone → mesh.
//!
//! Each pod accumulates one whole-run [`QuantileSketch`] of its server
//! window (request arrival at the sidecar to response hand-off). Because
//! sketch merge is exact and order-independent, every higher level is
//! simply the merge of its members' sketches — the service quantiles are
//! *true* quantiles over all member samples, not averages of averages.
//! The result is a flat list of [`RollupRow`]s (mesh first, then zones,
//! services, pods, each naming its parent) that the exporters and
//! `experiment top` render.

use crate::sketch::SUB_BITS;
use meshlayer_simcore::{LatencyMs, QuantileSketch};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-pod accumulation state.
#[derive(Clone, Debug)]
pub struct PodStats {
    /// Owning service (the `app` label).
    pub service: String,
    /// Zone: the node the pod runs on.
    pub zone: String,
    /// Failures observed at this pod.
    pub errors: u64,
    /// Server-window latency samples.
    pub sketch: QuantileSketch,
}

/// One row of the hierarchical roll-up.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RollupRow {
    /// Aggregation level: `mesh`, `zone`, `service`, or `pod`.
    pub level: String,
    /// Row name (mesh is always named `mesh`).
    pub name: String,
    /// Parent row name (empty for the mesh row).
    pub parent: String,
    /// Latency samples aggregated.
    pub count: u64,
    /// Failures aggregated.
    pub errors: u64,
    /// Mean latency, milliseconds (exact — sums merge exactly).
    pub mean_ms: f64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Maximum, milliseconds (exact).
    pub max_ms: f64,
}

fn row(level: &str, name: &str, parent: &str, sketch: &QuantileSketch, errors: u64) -> RollupRow {
    let LatencyMs {
        mean,
        p50,
        p90,
        p99,
        max,
    } = sketch.latency_ms();
    RollupRow {
        level: level.to_string(),
        name: name.to_string(),
        parent: parent.to_string(),
        count: sketch.count(),
        errors,
        mean_ms: mean,
        p50_ms: p50,
        p90_ms: p90,
        p99_ms: p99,
        max_ms: max,
    }
}

/// Merge the per-pod sketches up the hierarchy. Row order is
/// deterministic: mesh, zones (sorted), services (sorted), pods
/// (sorted) — the BTreeMap iteration order.
pub fn build_rollup(pods: &BTreeMap<String, PodStats>) -> Vec<RollupRow> {
    if pods.is_empty() {
        return Vec::new();
    }
    let mut mesh = QuantileSketch::new(SUB_BITS);
    let mut mesh_errors = 0u64;
    let mut zones: BTreeMap<&str, (QuantileSketch, u64)> = BTreeMap::new();
    let mut services: BTreeMap<&str, (QuantileSketch, u64, &str)> = BTreeMap::new();
    for stats in pods.values() {
        mesh.merge(&stats.sketch);
        mesh_errors += stats.errors;
        let (zs, ze) = zones
            .entry(stats.zone.as_str())
            .or_insert_with(|| (QuantileSketch::new(SUB_BITS), 0));
        zs.merge(&stats.sketch);
        *ze += stats.errors;
        let (ss, se, _) = services
            .entry(stats.service.as_str())
            .or_insert_with(|| (QuantileSketch::new(SUB_BITS), 0, stats.zone.as_str()));
        ss.merge(&stats.sketch);
        *se += stats.errors;
    }
    let mut rows = Vec::with_capacity(1 + zones.len() + services.len() + pods.len());
    rows.push(row("mesh", "mesh", "", &mesh, mesh_errors));
    for (zone, (sketch, errors)) in &zones {
        rows.push(row("zone", zone, "mesh", sketch, *errors));
    }
    for (service, (sketch, errors, _)) in &services {
        rows.push(row("service", service, "mesh", sketch, *errors));
    }
    for (pod, stats) in pods {
        rows.push(row("pod", pod, &stats.service, &stats.sketch, stats.errors));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod(service: &str, zone: &str, values: &[u64]) -> PodStats {
        let mut sketch = QuantileSketch::new(SUB_BITS);
        for &v in values {
            sketch.record(v);
        }
        PodStats {
            service: service.to_string(),
            zone: zone.to_string(),
            errors: values.len() as u64 / 10,
            sketch,
        }
    }

    #[test]
    fn rollup_merges_up_the_hierarchy() {
        let mut pods = BTreeMap::new();
        pods.insert(
            "web-0".to_string(),
            pod("web", "node0", &[1_000_000, 2_000_000]),
        );
        pods.insert("web-1".to_string(), pod("web", "node1", &[3_000_000]));
        pods.insert("db-0".to_string(), pod("db", "node0", &[10_000_000]));
        let rows = build_rollup(&pods);
        let find = |level: &str, name: &str| {
            rows.iter()
                .find(|r| r.level == level && r.name == name)
                .unwrap_or_else(|| panic!("row {level}/{name}"))
        };
        assert_eq!(find("mesh", "mesh").count, 4);
        assert_eq!(find("service", "web").count, 3);
        assert_eq!(find("service", "db").count, 1);
        assert_eq!(find("zone", "node0").count, 3);
        assert_eq!(find("zone", "node1").count, 1);
        assert_eq!(find("pod", "web-0").count, 2);
        assert_eq!(find("pod", "web-0").parent, "web");
        // The mesh max is the true max of every member.
        assert!((find("mesh", "mesh").max_ms - 10.0).abs() < 1e-9);
        // Mesh row comes first.
        assert_eq!(rows[0].level, "mesh");
    }

    #[test]
    fn empty_rollup_is_empty() {
        assert!(build_rollup(&BTreeMap::new()).is_empty());
    }
}
