//! # meshlayer-cluster
//!
//! The container-orchestration substrate: the Kubernetes-KIND stand-in.
//!
//! The paper's prototype runs the e-library app as Kubernetes pods — one
//! sidecar per application container, replicas behind services, discovery
//! by service name. This crate models exactly the slice of orchestration
//! the experiment depends on:
//!
//! * [`ServiceSpec`] / [`Cluster::deploy`] — declarative services with
//!   replica counts, labels and subsets ([`Subset`], the `DestinationRule`
//!   analogue used to pin priorities to replicas);
//! * [`scheduler`] — pod placement (spread);
//! * discovery — [`Cluster::endpoints`] resolves a service (and optional
//!   subset) to live pod endpoints, which sidecars load-balance across;
//! * [`behavior`] — declarative service behaviour: per-request compute
//!   time, downstream call graph ([`behavior::CallStep`]), response sizes.
//!   The simulation driver interprets these graphs to produce the
//!   request trees of the paper's Fig 3;
//! * [`compute`] — per-pod execution: a bounded, optionally
//!   priority-aware run queue with `workers` concurrent slots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod cluster;
pub mod compute;
pub mod gen;
pub mod scheduler;

pub use behavior::{CallStep, ServiceBehavior};
pub use cluster::{Cluster, Pod, PodId, ServiceId, ServiceSpec, Subset};
pub use compute::{Admission, ComputeConfig, PodCompute};
pub use gen::{service_tree, ServiceTreeParams};
pub use scheduler::Scheduler;
