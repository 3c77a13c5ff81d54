//! # meshlayer-simcore
//!
//! Deterministic discrete-event simulation core used by every other
//! `meshlayer` crate.
//!
//! The paper's prototype ran on a real 32-core testbed; this crate is the
//! substitute substrate: a virtual clock ([`SimTime`]), a deterministic
//! event queue ([`EventQueue`]) with stable tie-breaking, a seedable RNG
//! ([`SimRng`]) that can be split per component, the sampling
//! distributions service times and message sizes draw from ([`dist`]), the
//! one quantile structure ([`QuantileSketch`], HdrHistogram's log-linear
//! bucketing, mergeable) behind both the `wrk2`-style latency recorder
//! ([`Histogram`]) and the telemetry series, and the EWMA the load
//! balancer keeps per endpoint ([`stats`]).
//!
//! Everything here is pure: no wall-clock reads, no global state, no
//! threads. A simulation run is a function of `(spec, seed)` and nothing
//! else, which is what lets the integration tests pin exact metric values.
//!
//! ```
//! use meshlayer_simcore::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(2), "second");
//! q.push(SimTime::ZERO + SimDuration::from_millis(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t.as_millis(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod fxmap;
pub mod rng;
pub mod sketch;
pub mod stats;
pub mod time;

pub use dist::Dist;
pub use event::EventQueue;
pub use fxmap::FxHashMap;
pub use rng::SimRng;
pub use sketch::{Histogram, LatencyMs, QuantileSketch};
pub use stats::Ewma;
pub use time::{SimDuration, SimTime};
