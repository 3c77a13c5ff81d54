//! Latency provenance: exact per-layer decomposition of request
//! latency, measured entirely in simulated time.
//!
//! Every root request's end-to-end latency is attributed to the seven
//! [`Layer`]s below such that the components **sum exactly** to the
//! recorded latency — no sampling, no residual bucket hidden from the
//! reader (unattributed waits land in [`Layer::RetryWait`], which is
//! where a retrying/hedging client actually spends them). Because the
//! attribution uses only simulated timestamps already computed by the
//! handlers, it is as deterministic as the run itself.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of attribution layers.
pub const LAYER_COUNT: usize = 7;

/// One layer of the mesh stack a nanosecond of latency is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layer {
    /// Application service time (sampled compute actually running).
    App,
    /// Waiting in a pod's compute queue for a free slot.
    ComputeQueue,
    /// Client-side sidecar processing (proxy overhead on send and on
    /// response receipt).
    SidecarClient,
    /// Server-side sidecar processing (inbound admission, response
    /// proxying).
    SidecarServer,
    /// Client waits between attempts: backoff, hedge delay, and time
    /// lost to attempts that never produced the winning response.
    RetryWait,
    /// Host/NIC transmission and queueing: wire time beyond the
    /// fabric's unloaded baseline.
    NetQueue,
    /// Fabric propagation + serialization at the unloaded baseline.
    Fabric,
}

impl Layer {
    /// All layers in waterfall (stack) order.
    pub const ALL: [Layer; LAYER_COUNT] = [
        Layer::App,
        Layer::ComputeQueue,
        Layer::SidecarClient,
        Layer::SidecarServer,
        Layer::RetryWait,
        Layer::NetQueue,
        Layer::Fabric,
    ];

    /// Stable short name (used in CSV headers and tables).
    pub fn name(self) -> &'static str {
        match self {
            Layer::App => "app",
            Layer::ComputeQueue => "compute_q",
            Layer::SidecarClient => "sidecar_cli",
            Layer::SidecarServer => "sidecar_srv",
            Layer::RetryWait => "retry_wait",
            Layer::NetQueue => "net_q",
            Layer::Fabric => "fabric",
        }
    }
}

/// Nanoseconds charged to each layer. Additive: breakdowns compose by
/// summation along the request's call tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Nanoseconds per layer, indexed in [`Layer::ALL`] order.
    pub ns: [u64; LAYER_COUNT],
}

impl Breakdown {
    /// The zero breakdown.
    pub const ZERO: Breakdown = Breakdown {
        ns: [0; LAYER_COUNT],
    };

    /// Charge `ns` nanoseconds to `layer`.
    #[inline]
    pub fn add_ns(&mut self, layer: Layer, ns: u64) {
        self.ns[layer as usize] += ns;
    }

    /// Fold another breakdown into this one.
    #[inline]
    pub fn add(&mut self, other: &Breakdown) {
        for (a, b) in self.ns.iter_mut().zip(&other.ns) {
            *a += b;
        }
    }

    /// Total nanoseconds across all layers.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Nanoseconds charged to `layer`.
    #[inline]
    pub fn get(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }
}

/// One completed root request's provenance record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RequestProv {
    /// Mesh-minted request id (matches flight-recorder root records).
    pub request_id: String,
    /// Traffic class the request arrived on.
    pub class: String,
    /// Arrival (intended) simulated time, nanoseconds.
    pub intended_ns: u64,
    /// Completion simulated time, nanoseconds.
    pub completed_ns: u64,
    /// End-to-end latency, nanoseconds (`completed - intended`); the
    /// breakdown sums to exactly this.
    pub total_ns: u64,
    /// Per-layer attribution.
    pub breakdown: Breakdown,
}

/// Per-route (traffic-class) aggregate of request breakdowns.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RouteBreakdown {
    /// Traffic class.
    pub class: String,
    /// Requests aggregated.
    pub requests: u64,
    /// Summed end-to-end latency, nanoseconds.
    pub total_ns: u64,
    /// Summed per-layer nanoseconds ([`Layer::ALL`] order).
    pub layer_ns: [u64; LAYER_COUNT],
}

impl RouteBreakdown {
    /// Mean end-to-end latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.requests as f64 / 1e6
        }
    }

    /// Share of total latency charged to `layer` (0..=1).
    pub fn share(&self, layer: Layer) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.layer_ns[layer as usize] as f64 / self.total_ns as f64
        }
    }
}

/// Aggregate request records into per-class routes, sorted by class
/// name for deterministic output.
pub fn aggregate_routes(reqs: &[RequestProv]) -> Vec<RouteBreakdown> {
    let mut by_class: BTreeMap<&str, RouteBreakdown> = BTreeMap::new();
    for r in reqs {
        let agg = by_class.entry(&r.class).or_insert_with(|| RouteBreakdown {
            class: r.class.clone(),
            ..RouteBreakdown::default()
        });
        agg.requests += 1;
        agg.total_ns += r.total_ns;
        for (a, b) in agg.layer_ns.iter_mut().zip(&r.breakdown.ns) {
            *a += b;
        }
    }
    by_class.into_values().collect()
}

/// Render the per-route latency breakdown table (percent of each
/// route's end-to-end latency charged to every layer).
pub fn render_route_table(routes: &[RouteBreakdown]) -> String {
    if routes.is_empty() {
        return String::new();
    }
    let mut out = String::from("latency provenance (per-route, % of e2e):\n");
    let mut header = format!("  {:<16} {:>8} {:>9}", "route", "reqs", "mean");
    for l in Layer::ALL {
        let _ = write!(header, " {:>11}", l.name());
    }
    out.push_str(&header);
    out.push('\n');
    for r in routes {
        let mut row = format!("  {:<16} {:>8} {:>7.2}ms", r.class, r.requests, r.mean_ms());
        for l in Layer::ALL {
            let _ = write!(row, " {:>10.1}%", r.share(l) * 100.0);
        }
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Render one request's latency waterfall: a stacked bar per layer at
/// its cumulative offset, components summing to the printed total.
pub fn render_waterfall(req: &RequestProv) -> String {
    const WIDTH: u64 = 48;
    let total = req.total_ns.max(1);
    let mut out = format!(
        "request {} class={} e2e={:.3}ms (sim {:.3}ms -> {:.3}ms)\n",
        req.request_id,
        req.class,
        req.total_ns as f64 / 1e6,
        req.intended_ns as f64 / 1e6,
        req.completed_ns as f64 / 1e6,
    );
    let mut offset_ns = 0u64;
    for l in Layer::ALL {
        let ns = req.breakdown.get(l);
        if ns == 0 {
            continue;
        }
        let start = offset_ns * WIDTH / total;
        let mut len = ns * WIDTH / total;
        if len == 0 {
            len = 1;
        }
        let end = (start + len).min(WIDTH);
        let bar: String = (0..WIDTH)
            .map(|i| if i >= start && i < end { '#' } else { ' ' })
            .collect();
        let _ = writeln!(
            out,
            "  {:<12} {:>9.3}ms {:>5.1}% |{}|",
            l.name(),
            ns as f64 / 1e6,
            ns as f64 / total as f64 * 100.0,
            bar
        );
        offset_ns += ns;
    }
    let _ = writeln!(
        out,
        "  {:<12} {:>9.3}ms  sum == e2e: {}",
        "total",
        req.breakdown.sum() as f64 / 1e6,
        if req.breakdown.sum() == req.total_ns {
            "yes"
        } else {
            "NO"
        }
    );
    out
}

/// CSV export of per-route breakdowns (nanosecond totals per layer).
pub fn provenance_csv(routes: &[RouteBreakdown]) -> String {
    let mut out = String::from("class,requests,total_ns");
    for l in Layer::ALL {
        let _ = write!(out, ",{}_ns", l.name());
    }
    out.push('\n');
    for r in routes {
        let _ = write!(out, "{},{},{}", r.class, r.requests, r.total_ns);
        for ns in r.layer_ns {
            let _ = write!(out, ",{ns}");
        }
        out.push('\n');
    }
    out
}

/// Pretty-printed JSON export of per-route breakdowns.
pub fn provenance_json(routes: &[RouteBreakdown]) -> String {
    serde_json::to_string_pretty(&routes.to_vec()).expect("route breakdowns serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, class: &str, app: u64, fabric: u64) -> RequestProv {
        let mut bd = Breakdown::ZERO;
        bd.add_ns(Layer::App, app);
        bd.add_ns(Layer::Fabric, fabric);
        RequestProv {
            request_id: format!("req-{id}"),
            class: class.to_string(),
            intended_ns: 1_000,
            completed_ns: 1_000 + app + fabric,
            total_ns: app + fabric,
            breakdown: bd,
        }
    }

    #[test]
    fn breakdown_is_additive() {
        let mut a = Breakdown::ZERO;
        a.add_ns(Layer::App, 5);
        a.add_ns(Layer::RetryWait, 7);
        let mut b = Breakdown::ZERO;
        b.add_ns(Layer::App, 3);
        a.add(&b);
        assert_eq!(a.get(Layer::App), 8);
        assert_eq!(a.sum(), 15);
    }

    #[test]
    fn routes_aggregate_deterministically_by_class() {
        let reqs = vec![
            req(1, "browse", 100, 50),
            req(2, "checkout", 10, 5),
            req(3, "browse", 200, 70),
        ];
        let routes = aggregate_routes(&reqs);
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].class, "browse");
        assert_eq!(routes[0].requests, 2);
        assert_eq!(routes[0].total_ns, 420);
        assert_eq!(routes[0].layer_ns[Layer::App as usize], 300);
        assert_eq!(routes[1].class, "checkout");
        let table = render_route_table(&routes);
        assert!(table.contains("browse") && table.contains("fabric"));
        let csv = provenance_csv(&routes);
        assert!(csv.starts_with("class,requests,total_ns,app_ns"));
        assert_eq!(csv.lines().count(), 3);
        let json = provenance_json(&routes);
        let parsed: Vec<RouteBreakdown> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn waterfall_components_sum_to_total() {
        let r = req(42, "browse", 1_000_000, 250_000);
        let text = render_waterfall(&r);
        assert!(text.contains("sum == e2e: yes"), "{text}");
        assert!(text.contains("app") && text.contains("fabric"));
        assert!(!text.contains("retry_wait"), "zero layers hidden");
    }
}
