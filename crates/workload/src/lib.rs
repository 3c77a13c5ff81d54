//! # meshlayer-workload
//!
//! Open-loop load generation and latency measurement — the `wrk2` \[47]
//! substitute.
//!
//! The paper drives its prototype with wrk2 generating "two different
//! workloads that hit the ingress gateway simultaneously": latency-
//! sensitive user requests and latency-insensitive batch requests with
//! ≈200× larger responses, both with uniformly random inter-arrival times
//! at 10–50 RPS. This crate reproduces that methodology:
//!
//! * [`Arrival`] — wrk2's uniformly random inter-arrival process;
//! * [`WorkloadSpec`] / [`OpenLoopGen`] — constant-throughput open-loop
//!   generators that never slow down when the system backs up (the wrk2
//!   property);
//! * [`Recorder`] — latency recording *from the intended send time*, the
//!   coordinated-omission correction wrk2 exists to make.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod generator;
pub mod mix;
pub mod recorder;

pub use arrival::Arrival;
pub use generator::{GenRequest, Granularity, OpenLoopGen, WorkloadSpec};
pub use mix::{scale_mix, scale_mix_bg, weighted_mix, MixClass, ELEPHANT_BODY_BYTES};
pub use recorder::{ClassSummary, Recorder};
