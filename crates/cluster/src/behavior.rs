//! Declarative service behaviour.
//!
//! Each service's request handling is described as a [`CallStep`] tree:
//! local compute, downstream calls, and sequential/parallel composition.
//! The simulation driver interprets one tree instance per request, which
//! produces exactly the "requests propagate through the application as per
//! the request tree" structure of the paper's Fig 3 (stage 3–4).

use meshlayer_simcore::Dist;
use serde::{Deserialize, Serialize};

/// One step of a service's request-handling logic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CallStep {
    /// Burn local CPU for a sampled duration (seconds).
    Compute(Dist),
    /// Issue a request to another service and wait for the response.
    Call {
        /// Destination service name.
        service: String,
        /// Request path (drives per-path behaviour at the callee).
        path: String,
        /// Request body size (bytes).
        req_bytes: Dist,
    },
    /// Run steps one after another.
    Seq(Vec<CallStep>),
    /// Run steps concurrently and wait for all of them.
    Par(Vec<CallStep>),
    /// Do nothing (useful as a leaf for probabilistic branches).
    Noop,
}

impl CallStep {
    /// Convenience: a call with a small constant request size.
    pub fn call(service: impl Into<String>, path: impl Into<String>) -> CallStep {
        CallStep::Call {
            service: service.into(),
            path: path.into(),
            req_bytes: Dist::constant(256.0),
        }
    }

    /// Total number of `Call` leaves in this tree (fan-out of one request).
    pub fn call_count(&self) -> usize {
        match self {
            CallStep::Call { .. } => 1,
            CallStep::Seq(steps) | CallStep::Par(steps) => {
                steps.iter().map(|s| s.call_count()).sum()
            }
            CallStep::Compute(_) | CallStep::Noop => 0,
        }
    }

    /// Maximum depth of nested downstream calls reachable from this step,
    /// given a lookup of other services' behaviours. Used by tests to
    /// assert the topology shape and by the control plane to warn about
    /// deep trees. `depth_budget` guards against call cycles.
    pub fn call_depth(
        &self,
        lookup: &dyn Fn(&str, &str) -> Option<ServiceBehavior>,
        depth_budget: usize,
    ) -> usize {
        if depth_budget == 0 {
            return usize::MAX; // cycle
        }
        match self {
            CallStep::Call { service, path, .. } => match lookup(service, path) {
                Some(b) => b
                    .on_request
                    .call_depth(lookup, depth_budget - 1)
                    .saturating_add(1),
                None => 1,
            },
            CallStep::Seq(steps) | CallStep::Par(steps) => steps
                .iter()
                .map(|s| s.call_depth(lookup, depth_budget))
                .max()
                .unwrap_or(0),
            CallStep::Compute(_) | CallStep::Noop => 0,
        }
    }
}

/// How a service handles requests to one path prefix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceBehavior {
    /// The handling logic.
    pub on_request: CallStep,
    /// Response body size (bytes).
    pub response_bytes: Dist,
}

impl ServiceBehavior {
    /// A leaf service: compute for `mean_secs` (exponential) and respond
    /// with `resp_bytes` constant bytes.
    pub fn leaf(mean_secs: f64, resp_bytes: f64) -> ServiceBehavior {
        ServiceBehavior {
            on_request: CallStep::Compute(Dist::exp(mean_secs)),
            response_bytes: Dist::constant(resp_bytes),
        }
    }

    /// A pure responder: no compute, constant response size.
    pub fn respond(resp_bytes: f64) -> ServiceBehavior {
        ServiceBehavior {
            on_request: CallStep::Noop,
            response_bytes: Dist::constant(resp_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_count_over_composites() {
        let step = CallStep::Seq(vec![
            CallStep::Compute(Dist::constant(0.001)),
            CallStep::Par(vec![
                CallStep::call("details", "/d"),
                CallStep::call("reviews", "/r"),
            ]),
            CallStep::call("ads", "/a"),
        ]);
        assert_eq!(step.call_count(), 3);
        assert_eq!(CallStep::Noop.call_count(), 0);
    }

    #[test]
    fn depth_follows_downstream_behaviours() {
        // frontend -> reviews -> ratings (depth 2 from frontend's step).
        let lookup = |svc: &str, _path: &str| -> Option<ServiceBehavior> {
            match svc {
                "reviews" => Some(ServiceBehavior {
                    on_request: CallStep::call("ratings", "/rate"),
                    response_bytes: Dist::constant(100.0),
                }),
                "ratings" => Some(ServiceBehavior::leaf(0.001, 50.0)),
                _ => None,
            }
        };
        let frontend = CallStep::call("reviews", "/r");
        assert_eq!(frontend.call_depth(&lookup, 16), 2);
        // Unknown service counts as depth 1.
        assert_eq!(CallStep::call("nowhere", "/x").call_depth(&lookup, 16), 1);
    }

    #[test]
    fn cycle_detection_via_budget() {
        let lookup = |svc: &str, _p: &str| -> Option<ServiceBehavior> {
            // a calls a: infinite recursion.
            (svc == "a").then(|| ServiceBehavior {
                on_request: CallStep::call("a", "/x"),
                response_bytes: Dist::constant(1.0),
            })
        };
        let step = CallStep::call("a", "/x");
        assert_eq!(step.call_depth(&lookup, 8), usize::MAX);
    }

    #[test]
    fn builders() {
        let b = ServiceBehavior::leaf(0.002, 4096.0);
        assert_eq!(b.response_bytes.mean(), 4096.0);
        match &b.on_request {
            CallStep::Compute(d) => assert!((d.mean() - 0.002).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        let r = ServiceBehavior::respond(128.0);
        assert_eq!(r.on_request, CallStep::Noop);
    }

    #[test]
    fn serde_round_trip() {
        let b = ServiceBehavior {
            on_request: CallStep::Par(vec![
                CallStep::call("x", "/1"),
                CallStep::Compute(Dist::exp(0.01)),
            ]),
            response_bytes: Dist::lognormal(150.0, 0.3),
        };
        let s = serde_json::to_string(&b).unwrap();
        let back: ServiceBehavior = serde_json::from_str(&s).unwrap();
        assert_eq!(b, back);
    }
}
