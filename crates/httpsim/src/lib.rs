//! # meshlayer-http
//!
//! The application-layer message model of the simulated mesh
//! (`meshlayer-mesh`).
//!
//! * [`headers`] — a case-insensitive header multimap plus the well-known
//!   mesh headers: `x-request-id` (Envoy's request correlation id, which
//!   the paper's prototype uses to propagate priority) and
//!   `x-mesh-priority` (the custom priority header of §4.3).
//! * [`message`] — [`Request`]/[`Response`] with explicit body sizes (the
//!   simulation transfers sizes, not payload bytes).
//! * [`codec`] — a byte-level HTTP/1.1 codec; tests check the simulated
//!   wire sizes against it.
//! * [`route`] — virtual-service routing rules (host/path/header matches to
//!   named clusters and subsets), the Istio `VirtualService` analogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod headers;
pub mod message;
pub mod route;

pub use headers::{HeaderMap, HDR_B3_SPAN_ID, HDR_B3_TRACE_ID, HDR_PRIORITY, HDR_REQUEST_ID};
pub use message::{Method, Request, Response, StatusCode};
pub use route::{HeaderMatch, RouteRule, RouteTable, RouteTarget};
