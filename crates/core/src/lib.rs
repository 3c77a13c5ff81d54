//! # meshlayer-core
//!
//! The paper's contribution, end to end: **provenance-driven cross-layer
//! prioritization in a service mesh**, plus the simulation world that
//! exercises it against the full substrate stack.
//!
//! * [`provenance`] — priority classes and the ingress classifier
//!   (§4.2 component 1);
//! * propagation — implemented in the sidecar (`meshlayer-mesh`) via
//!   `x-request-id` correlation (§4.2 component 2) and *used* here;
//! * [`xlayer`] — the four cross-layer optimization sites (§4.2
//!   component 3a–d) as independent toggles, with one apply function per
//!   layer (routes, compute queues, host TC, fabric priority queues);
//! * [`netplan`] — the emulated link fabric (15 Gbps default, per-service
//!   overrides for the 1 Gbps bottleneck);
//! * [`sim`] — the deterministic event-driven world gluing cluster, mesh,
//!   transport, network and workload together;
//! * [`metrics`] — per-class latency, link utilization, fleet telemetry.
//!
//! ```no_run
//! use meshlayer_core::{Simulation, SimSpec, XLayerConfig};
//! use meshlayer_cluster::{ServiceBehavior, ServiceSpec};
//! use meshlayer_workload::WorkloadSpec;
//!
//! let services = vec![ServiceSpec::new("frontend", 1, ServiceBehavior::leaf(0.001, 4096.0))];
//! let workloads = vec![WorkloadSpec::get("users", "/product", 20.0)];
//! let mut spec = SimSpec::new(services, workloads);
//! spec.xlayer = XLayerConfig::paper_prototype();
//! let metrics = Simulation::build(spec).run();
//! println!("{}", metrics.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod incident;
pub mod metrics;
pub mod netplan;
pub mod policy;
pub mod provenance;
pub mod sdn;
pub mod sim;
pub mod topo_gen;
pub mod xlayer;

pub use incident::{build_incident_report, IncidentEvent, IncidentReport};
pub use meshlayer_chaos::{FaultCode, FaultEvent, FaultKind, FaultScript};
pub use metrics::{EngineVitals, EvProfile, LinkReport, PodReport, RunMetrics, TransportReport};
pub use netplan::{Fabric, FabricKind, NetworkPlan};
pub use policy::{
    AdaptationConfig, AdaptationController, PolicyLayer, PolicyPlane, PolicySnapshot,
    PolicyTransition,
};
pub use provenance::{request_priority, Classifier, Priority};
pub use sdn::SdnController;
pub use sim::{FlightOutcome, SimConfig, SimSpec, Simulation, INGRESS_SERVICE};
pub use topo_gen::{TopoMix, TopoParams};
pub use xlayer::{
    apply_compute, apply_host_tc, apply_net_prio, apply_routes, XLayerConfig, HIGH_PRIO_SHARE,
};
