//! # meshlayer-mesh
//!
//! The service-mesh layer itself — the paper's "new layer in the network
//! stack between application and transport" (§3.1), as an implementable
//! library.
//!
//! Data plane: [`Sidecar`] — one decision engine per pod implementing the
//! §2 function list: service-discovery-driven routing, load balancing
//! ([`lb`]), retries / circuit breaking / outlier ejection
//! ([`resilience`]), distributed tracing ([`tracing`]), provenance
//! (priority) propagation keyed on `x-request-id`, and the proxy's own
//! latency cost model.
//!
//! Control plane: [`ControlPlane`] — versioned configuration distribution
//! (xDS-style pull) and certificate management.
//!
//! All state machines here are time-passive: the simulation driver (in
//! `meshlayer-core`) owns the clock and the network and consults these
//! types for decisions, which keeps them directly reusable by the
//! real-socket prototype.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod lb;
pub mod resilience;
pub mod sidecar;
pub mod tracing;

pub use config::{ClusterPolicy, MeshConfig};
pub use control::{ControlPlane, WorkloadCert};
pub use lb::{LbPolicy, LoadBalancer, PickCtx};
pub use resilience::{
    AttemptFailure, BreakerConfig, BreakerState, CircuitBreaker, OutlierConfig, OutlierDetector,
    RetryBudget, RetryPolicy,
};
pub use sidecar::{Decision, DecisionSink, InboundCtx, RouteOutcome, Sidecar, SidecarStats};
pub use tracing::{Sampling, Span, SpanId, SpanKind, TraceId, TraceTree, Tracer};
