//! The §4.1 motivating scenario: "a hypothetical microservice-based
//! e-commerce application".
//!
//! Four workloads share the same services, "sometimes buried several hops
//! deep in the tree of API calls":
//!
//! * `user-browse` (latency-sensitive, ~200 ms budget): frontend →
//!   catalog (→ cache → db), recommendations (→ db);
//! * `user-checkout` (latency-sensitive): frontend → cart → orders → db,
//!   plus inventory;
//! * `ads-analytics` (latency-insensitive): scans the catalog and the
//!   order history through the same db/cache;
//! * `log-collect` (latency-insensitive): periodic bulk writes to the
//!   logging service backed by the same db.

use meshlayer_cluster::{CallStep, ComputeConfig, ServiceBehavior, ServiceSpec, Subset};
use meshlayer_core::{Classifier, NetworkPlan, Priority, SimSpec};
use meshlayer_simcore::Dist;
use meshlayer_workload::WorkloadSpec;
use std::collections::BTreeMap;

fn labels(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn prio_split(spec: ServiceSpec) -> ServiceSpec {
    spec.with_replica_labels(vec![
        labels(&[("prio", "high")]),
        labels(&[("prio", "low")]),
    ])
    .with_subset(Subset::label("high", "prio", "high"))
    .with_subset(Subset::label("low", "prio", "low"))
}

/// Build the e-commerce experiment: `(ls_rps, batch_rps)` split across the
/// two user-facing and two batch workloads.
pub fn ecommerce(ls_rps: f64, batch_rps: f64) -> SimSpec {
    let ms = |m: f64| Dist::lognormal(m / 1000.0, 0.5);

    let frontend = ServiceSpec::new(
        "shopfront",
        2,
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(3.0)),
                CallStep::Par(vec![
                    CallStep::call("catalog", "/browse"),
                    CallStep::call("recs", "/browse"),
                ]),
            ]),
            response_bytes: Dist::constant(24_576.0),
        },
    )
    .with_path_behavior(
        "/checkout",
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(2.0)),
                CallStep::call("cart", "/checkout"),
                CallStep::call("inventory", "/reserve"),
            ]),
            response_bytes: Dist::constant(4_096.0),
        },
    )
    .with_path_behavior(
        "/ads",
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(2.0)),
                CallStep::Par(vec![
                    CallStep::call("catalog", "/scan"),
                    CallStep::call("orders", "/scan"),
                ]),
            ]),
            response_bytes: Dist::constant(65_536.0),
        },
    )
    .with_path_behavior(
        "/logs",
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(1.0)),
                CallStep::Call {
                    service: "logging".into(),
                    path: "/append".into(),
                    // Bulk log uploads: large *requests*.
                    req_bytes: Dist::constant(262_144.0),
                },
            ]),
            response_bytes: Dist::constant(512.0),
        },
    );

    let catalog = prio_split(ServiceSpec::new(
        "catalog",
        2,
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(2.0)),
                CallStep::call("cache", "/get"),
            ]),
            response_bytes: Dist::constant(16_384.0),
        },
    ))
    .with_path_behavior(
        "/scan",
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(4.0)),
                CallStep::call("db", "/scan"),
            ]),
            response_bytes: Dist::constant(131_072.0),
        },
    );

    let recs = ServiceSpec::new(
        "recs",
        2,
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(5.0)),
                CallStep::call("db", "/get"),
            ]),
            response_bytes: Dist::constant(8_192.0),
        },
    );

    let cart = ServiceSpec::new(
        "cart",
        2,
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(2.0)),
                CallStep::call("orders", "/create"),
            ]),
            response_bytes: Dist::constant(2_048.0),
        },
    );

    let inventory = ServiceSpec::new(
        "inventory",
        1,
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(1.5)),
                CallStep::call("db", "/get"),
            ]),
            response_bytes: Dist::constant(1_024.0),
        },
    );

    let orders = ServiceSpec::new(
        "orders",
        2,
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(2.0)),
                CallStep::call("db", "/put"),
            ]),
            response_bytes: Dist::constant(1_024.0),
        },
    )
    .with_path_behavior(
        "/scan",
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(4.0)),
                CallStep::call("db", "/scan"),
            ]),
            response_bytes: Dist::constant(131_072.0),
        },
    );

    // The shared cache and database — "buried several hops deep".
    let cache = prio_split(ServiceSpec::new(
        "cache",
        2,
        ServiceBehavior {
            on_request: CallStep::Compute(ms(0.3)),
            response_bytes: Dist::constant(12_288.0),
        },
    ));

    let db = ServiceSpec::new(
        "db",
        1,
        ServiceBehavior {
            on_request: CallStep::Compute(ms(2.0)),
            response_bytes: Dist::constant(8_192.0),
        },
    )
    .with_path_behavior(
        "/scan",
        ServiceBehavior {
            on_request: CallStep::Compute(ms(8.0)),
            // Large scan results congest the db's access link.
            response_bytes: Dist::constant(1_048_576.0),
        },
    )
    .with_path_behavior(
        "/put",
        ServiceBehavior {
            on_request: CallStep::Compute(ms(3.0)),
            response_bytes: Dist::constant(256.0),
        },
    )
    .with_compute(ComputeConfig {
        workers: 32,
        queue_limit: 8192,
        priority_aware: false,
    });

    let logging = ServiceSpec::new(
        "logging",
        1,
        ServiceBehavior {
            on_request: CallStep::Seq(vec![
                CallStep::Compute(ms(1.0)),
                CallStep::call("db", "/put"),
            ]),
            response_bytes: Dist::constant(256.0),
        },
    );

    let workloads = vec![
        WorkloadSpec::get("user-browse", "/browse", ls_rps * 0.7).with_authority("shopfront"),
        WorkloadSpec::get("user-checkout", "/checkout", ls_rps * 0.3).with_authority("shopfront"),
        WorkloadSpec::get("ads-analytics", "/ads", batch_rps * 0.6).with_authority("shopfront"),
        WorkloadSpec::get("log-collect", "/logs", batch_rps * 0.4).with_authority("shopfront"),
    ];

    let network = NetworkPlan {
        default_rate_bps: 10_000_000_000,
        queue_pkts: 2048,
        ..NetworkPlan::default()
    }
    .with_service_rate("db", 1_000_000_000)
    .with_service_rate("cache", 2_000_000_000);

    let classifier = Classifier::new()
        .route("/browse", Priority::High)
        .route("/checkout", Priority::High)
        .route("/ads", Priority::Low)
        .route("/logs", Priority::Low);

    let mut spec = SimSpec::new(
        vec![
            frontend, catalog, recs, cart, inventory, orders, cache, db, logging,
        ],
        workloads,
    );
    spec.network = network;
    spec.classifier = classifier;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_shape() {
        let spec = ecommerce(20.0, 10.0);
        assert_eq!(spec.services.len(), 9);
        assert_eq!(spec.workloads.len(), 4);
        assert_eq!(spec.network.rate_for("db"), 1_000_000_000);
    }

    #[test]
    fn rates_split_across_workloads() {
        let spec = ecommerce(20.0, 10.0);
        let total_ls: f64 = spec
            .workloads
            .iter()
            .filter(|w| w.name.starts_with("user"))
            .map(|w| w.arrival.rps)
            .sum();
        assert!((total_ls - 20.0).abs() < 1e-9);
    }

    #[test]
    fn classification() {
        let spec = ecommerce(10.0, 10.0);
        for (path, want) in [
            ("/browse/1", Priority::High),
            ("/checkout", Priority::High),
            ("/ads/scan", Priority::Low),
            ("/logs/upload", Priority::Low),
        ] {
            let req = meshlayer_http::Request::get("shopfront", path);
            assert_eq!(spec.classifier.classify(&req), want, "{path}");
        }
    }

    #[test]
    fn deep_call_tree() {
        // browse: shopfront -> catalog -> cache = depth 3 of calls.
        let spec = ecommerce(10.0, 10.0);
        let mut sim = meshlayer_core::Simulation::build(spec);
        let _ = &mut sim;
        let browse = sim.cluster().behavior("shopfront", "/browse").unwrap();
        assert!(browse.on_request.call_count() >= 2);
    }

    #[test]
    fn builds_and_deploys() {
        let sim = meshlayer_core::Simulation::build(ecommerce(5.0, 5.0));
        assert!(sim.cluster().pod_count() >= 14);
    }
}
