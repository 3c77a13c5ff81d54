//! # meshlayer-prof
//!
//! The engine observatory (DESIGN.md §10). Two independent halves:
//!
//! * **Phase profiling** ([`PhaseProfiler`], [`PhaseSummary`]) —
//!   wall-clock timers over the event loop, exported as Chrome
//!   trace-event JSON ([`chrome_trace_json`]) that Perfetto and
//!   `chrome://tracing` load directly. Wall-clock only: enabling it
//!   never touches simulation state, RNG draws, or the flight-recorder
//!   digest chain.
//! * **Latency provenance** ([`Layer`], [`Breakdown`], [`RequestProv`])
//!   — sim-time-only decomposition of a request's end-to-end latency
//!   into per-layer components that sum *exactly* to the recorded
//!   latency, and deterministic like the run itself.
//!
//! This crate is deliberately leaf-level (serde only) so every layer of
//! the workspace — core, bench, the CLIs — can depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod phase;
mod provenance;
mod trace;

pub use phase::{PhaseProfiler, PhaseSummary, ProfileReport};
pub use provenance::{
    aggregate_routes, provenance_csv, provenance_json, render_route_table, render_waterfall,
    Breakdown, Layer, RequestProv, RouteBreakdown, LAYER_COUNT,
};
pub use trace::{chrome_trace_json, validate_chrome_trace, TraceBook, TraceSpan};
