//! # meshlayer
//!
//! Façade crate for the `meshlayer` workspace — a reproduction of
//! *"Leveraging Service Meshes as a New Network Layer"* (Ashok, Godfrey,
//! Mittal — HotNets '21).
//!
//! The workspace models the full "cloud native" stack of the paper's Fig 2,
//! bottom-up:
//!
//! * [`simcore`] — deterministic discrete-event engine (time, events, RNG,
//!   histograms).
//! * [`netsim`] — the physical/virtual network: links, TC-style qdiscs,
//!   topology, routing.
//! * [`transport`] — window-based transport with pluggable congestion
//!   control, including scavenger variants.
//! * [`http`] — the application-layer message model and codec.
//! * [`cluster`] — the orchestration substrate (nodes, pods, services,
//!   discovery, service behaviour graphs).
//! * [`mesh`] — the service-mesh layer itself: sidecar proxies and an
//!   xDS-like control plane.
//! * [`flightrec`] — flight recorder: deterministic event/packet/decision
//!   capture with replay and divergence detection.
//! * [`prof`] — the engine observatory: wall-clock phase profiling
//!   (Chrome trace export) and sim-time latency provenance
//!   (per-layer latency attribution, waterfalls).
//! * [`core`] — the paper's contribution: provenance tracing and
//!   cross-layer prioritization, plus the end-to-end simulation world.
//! * [`apps`] — reference applications (bookinfo/e-library, e-commerce).
//! * [`workload`] — wrk2-style open-loop load generation and measurement.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and
//! `crates/bench` for the harnesses that regenerate every figure and table
//! in the paper's evaluation.

pub use meshlayer_apps as apps;
pub use meshlayer_cluster as cluster;
pub use meshlayer_core as core;
pub use meshlayer_flightrec as flightrec;
pub use meshlayer_http as http;
pub use meshlayer_mesh as mesh;
pub use meshlayer_netsim as netsim;
pub use meshlayer_prof as prof;
pub use meshlayer_simcore as simcore;
pub use meshlayer_telemetry as telemetry;
pub use meshlayer_transport as transport;
pub use meshlayer_workload as workload;
