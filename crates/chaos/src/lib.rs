//! # meshlayer-chaos
//!
//! The deterministic fault-injection plane: a [`FaultScript`] is a
//! scheduled list of faults that a simulation run injects at exact
//! simulated times. Because the script is part of the spec and every
//! injection travels through the engine's event loop as an ordinary
//! event, a chaos run is exactly as deterministic as a fault-free run —
//! it records and replays bit-identically, and every
//! injection (and its later clear) lands in the flight recorder as a
//! tagged fault frame.
//!
//! The faults cover the stack the paper's §2 machinery is supposed to
//! absorb:
//!
//! * **compute layer** — [`FaultKind::PodCrash`] (a replica starts
//!   refusing everything, optionally restarting later; chains of these
//!   model replica churn) and [`FaultKind::GrayFailure`] (slow-but-alive:
//!   inflated compute time and/or a failure rate, the regime where
//!   breakers and outlier detection earn their keep);
//! * **fabric layer** — [`FaultKind::LinkFlap`] (one pod's access links
//!   drop everything for a window) and [`FaultKind::Partition`] (every
//!   replica of a service unreachable until healed);
//! * **control plane** — [`FaultKind::Rollback`] (re-propose an earlier
//!   policy snapshot through the ordinary push/ack protocol).
//!
//! This crate is deliberately tiny and engine-agnostic: it defines the
//! script *format* and helpers. The runtime that resolves service names
//! to pods/links and mutates the world lives in `meshlayer-core`
//! (`sim/chaos.rs`), next to the other engine wiring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use meshlayer_simcore::{SimDuration, SimTime};

/// Stable wire discriminants for fault kinds (part of the flight-recorder
/// format — append, never renumber).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultCode {
    /// Pod crash / restart.
    PodCrash = 0,
    /// Link flap (one pod's access links).
    LinkFlap = 1,
    /// Service partition.
    Partition = 2,
    /// Gray failure (slow-but-alive pod).
    GrayFailure = 3,
    /// Policy rollback.
    Rollback = 4,
}

impl FaultCode {
    /// Inverse of `code as u8`.
    pub fn from_code(code: u8) -> Option<FaultCode> {
        Some(match code {
            0 => FaultCode::PodCrash,
            1 => FaultCode::LinkFlap,
            2 => FaultCode::Partition,
            3 => FaultCode::GrayFailure,
            4 => FaultCode::Rollback,
            _ => return None,
        })
    }

    /// Short label for fault frames and incident timelines.
    pub fn label(self) -> &'static str {
        match self {
            FaultCode::PodCrash => "pod-crash",
            FaultCode::LinkFlap => "link-flap",
            FaultCode::Partition => "partition",
            FaultCode::GrayFailure => "gray-failure",
            FaultCode::Rollback => "rollback",
        }
    }
}

/// One fault to inject. Targets are named by `(service, replica)` — the
/// runtime resolves them against the deployed cluster, so scripts are
/// written against the spec, not against pod ids.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The replica crashes: every request routed to it is refused
    /// immediately (connection refused → 503), exactly what outlier
    /// detection and circuit breaking exist to absorb. Endpoint
    /// discovery still advertises the pod (stale-endpoints semantics —
    /// in a mesh, *sidecars* detect failure, not discovery). With
    /// `restart_after` the pod comes back healthy after that long.
    PodCrash {
        /// Service whose replica crashes.
        service: String,
        /// 0-based replica index within the service.
        replica: usize,
        /// Restart delay; `None` means the pod stays down for the run.
        restart_after: Option<SimDuration>,
    },
    /// The replica's access links (uplink and downlink) go
    /// administratively down: every packet offered while down is dropped
    /// on the floor, so in-flight transfers stall into timeouts. Comes
    /// back up after `up_after`.
    LinkFlap {
        /// Service whose replica's links flap.
        service: String,
        /// 0-based replica index within the service.
        replica: usize,
        /// How long the links stay down.
        up_after: SimDuration,
    },
    /// Every replica of the service is unreachable (all access links
    /// down) until healed — the service side of a network partition.
    Partition {
        /// Service cut off from the fabric.
        service: String,
        /// How long the partition lasts.
        heal_after: SimDuration,
    },
    /// Slow-but-alive: the replica keeps answering, but compute is
    /// stretched by `speed_factor` and each request fails with
    /// probability `failure_rate`. The nastiest failure mode for
    /// health-checking — nothing is *down*, everything is *worse*.
    GrayFailure {
        /// Service whose replica degrades.
        service: String,
        /// 0-based replica index within the service.
        replica: usize,
        /// Multiplier on compute time (1.0 = unchanged; 10.0 = 10× slower).
        speed_factor: f64,
        /// Per-request failure probability injected while gray (0..=1).
        failure_rate: f64,
        /// Recovery delay; `None` means gray for the rest of the run.
        clear_after: Option<SimDuration>,
    },
    /// Re-propose an earlier policy snapshot as a new version through the
    /// ordinary push/ack fan-out — a config rollback, observable in the
    /// policy plane's transition history and ack frames.
    Rollback {
        /// The historical version whose snapshot is re-proposed.
        to_version: u64,
    },
}

impl FaultKind {
    /// The stable wire code of this fault.
    pub fn code(&self) -> FaultCode {
        match self {
            FaultKind::PodCrash { .. } => FaultCode::PodCrash,
            FaultKind::LinkFlap { .. } => FaultCode::LinkFlap,
            FaultKind::Partition { .. } => FaultCode::Partition,
            FaultKind::GrayFailure { .. } => FaultCode::GrayFailure,
            FaultKind::Rollback { .. } => FaultCode::Rollback,
        }
    }

    /// The subject this fault targets, for fault frames ("reviews/1",
    /// "details", "v1").
    pub fn subject(&self) -> String {
        match self {
            FaultKind::PodCrash {
                service, replica, ..
            }
            | FaultKind::LinkFlap {
                service, replica, ..
            }
            | FaultKind::GrayFailure {
                service, replica, ..
            } => format!("{service}/{replica}"),
            FaultKind::Partition { service, .. } => service.clone(),
            FaultKind::Rollback { to_version } => format!("v{to_version}"),
        }
    }

    /// When the fault clears on its own, the injection→clear delay.
    pub fn clear_after(&self) -> Option<SimDuration> {
        match self {
            FaultKind::PodCrash { restart_after, .. } => *restart_after,
            FaultKind::LinkFlap { up_after, .. } => Some(*up_after),
            FaultKind::Partition { heal_after, .. } => Some(*heal_after),
            FaultKind::GrayFailure { clear_after, .. } => *clear_after,
            FaultKind::Rollback { .. } => None,
        }
    }
}

/// One scheduled fault: inject `kind` at simulated time `at`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Injection time.
    pub at: SimTime,
    /// What to inject.
    pub kind: FaultKind,
}

/// A deterministic fault schedule, part of the simulation spec. The
/// script is data: two runs with the same spec (script included) and
/// seed make identical injections at identical times.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScript {
    /// The scheduled faults, in the order they were added (injection
    /// order at equal times follows script order).
    pub faults: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty script.
    pub fn new() -> FaultScript {
        FaultScript::default()
    }

    /// Whether the script schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Schedule one fault (builder-style).
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> FaultScript {
        self.faults.push(FaultEvent { at, kind });
        self
    }

    /// Render the schedule (one line per fault) for experiment headers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.faults.iter().enumerate() {
            let clear = match f.kind.clear_after() {
                Some(d) => format!(" clear_after={d}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "fault[{i}] t={:.3}s {} {}{}\n",
                f.at.as_nanos() as f64 / 1e9,
                f.kind.code().label(),
                f.kind.subject(),
                clear
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_codes_round_trip() {
        for c in [
            FaultCode::PodCrash,
            FaultCode::LinkFlap,
            FaultCode::Partition,
            FaultCode::GrayFailure,
            FaultCode::Rollback,
        ] {
            assert_eq!(FaultCode::from_code(c as u8), Some(c));
        }
        assert_eq!(FaultCode::from_code(99), None);
    }

    #[test]
    fn subjects_and_clears() {
        let crash = FaultKind::PodCrash {
            service: "reviews".into(),
            replica: 1,
            restart_after: Some(SimDuration::from_secs(2)),
        };
        assert_eq!(crash.subject(), "reviews/1");
        assert_eq!(crash.clear_after(), Some(SimDuration::from_secs(2)));
        assert_eq!(crash.code().label(), "pod-crash");
        let part = FaultKind::Partition {
            service: "details".into(),
            heal_after: SimDuration::from_millis(500),
        };
        assert_eq!(part.subject(), "details");
        let rb = FaultKind::Rollback { to_version: 1 };
        assert_eq!(rb.subject(), "v1");
        assert_eq!(rb.clear_after(), None);
    }

    #[test]
    fn render_lists_schedule() {
        let s = FaultScript::new().with(
            SimTime::from_secs(2),
            FaultKind::GrayFailure {
                service: "ratings".into(),
                replica: 0,
                speed_factor: 10.0,
                failure_rate: 0.2,
                clear_after: Some(SimDuration::from_secs(1)),
            },
        );
        let r = s.render();
        assert!(r.contains("t=2.000s gray-failure ratings/0"), "{r}");
        assert!(r.contains("clear_after="), "{r}");
    }
}
