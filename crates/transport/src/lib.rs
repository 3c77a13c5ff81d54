//! # meshlayer-transport
//!
//! Window-based reliable transport for the sidecar-to-sidecar channel.
//!
//! The paper's §3.4 observes that service meshes make new transport
//! protocols deployable "while leaving the application itself unmodified",
//! and §4.2(b) specifically proposes scavenger transports for
//! latency-insensitive requests. This crate provides:
//!
//! * [`Conn`] — a reliable connection endpoint that interleaves its
//!   messages round-robin (structured-streams style, §3.6), with
//!   cumulative acks, NewReno-style loss recovery and RTO backoff;
//! * [`cc`] — pluggable congestion control: [`cc::Reno`], [`cc::CubicLite`],
//!   and the scavengers [`cc::Ledbat`] and [`cc::TcpLp`];
//! * [`rtt`] — Jacobson/Karels RTT estimation with datacenter RTO clamps;
//! * [`TimerSlot`] — the driver's side of the retransmission timer: one
//!   live event per endpoint however often the timer restarts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod conn;
pub mod rtt;
pub mod timer;

pub use cc::{CcAlgo, CongestionControl, INIT_CWND, MSS};
pub use conn::{Conn, ConnConfig, ConnOutput, ConnStats, Delivered};
pub use rtt::RttEstimator;
pub use timer::{TimerPop, TimerSlot};
