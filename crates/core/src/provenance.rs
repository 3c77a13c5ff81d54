//! Provenance: classifying and carrying performance objectives.
//!
//! Design component (1) of §4.2: "classify applications' performance
//! objectives at the ingress point of the request". A [`Classifier`] maps
//! an arriving external request to a [`Priority`], which is stamped into
//! the `x-mesh-priority` header; from there the sidecars' `x-request-id`
//! correlation (component (2)) carries it through the entire call tree.

use meshlayer_http::{Request, HDR_PRIORITY};
use serde::{Deserialize, Serialize};

/// A request's performance objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Priority {
    /// Latency-sensitive: user-facing, ~200 ms budgets.
    High,
    /// Latency-insensitive: batch/analytics, minutes-to-hours tolerance.
    #[default]
    Low,
}

impl Priority {
    /// The header value carried in `x-mesh-priority`.
    pub fn header_value(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Low => "low",
        }
    }

    /// Parse from a header value (unknown values are treated as low, the
    /// safe default for an unrecognized objective).
    pub fn from_header(v: Option<&str>) -> Priority {
        match v {
            Some("high") => Priority::High,
            _ => Priority::Low,
        }
    }
}

/// One classification rule: requests whose path starts with `path_prefix`
/// (and, if set, whose named header equals the given value) get `priority`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassifyRule {
    /// Path prefix to match.
    pub path_prefix: String,
    /// Optional `(header, value)` equality condition.
    pub header_equals: Option<(String, String)>,
    /// Priority assigned on match.
    pub priority: Priority,
}

/// The ingress classifier: ordered rules, first match wins; default Low.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Classifier {
    rules: Vec<ClassifyRule>,
}

impl Classifier {
    /// A classifier with no rules (everything Low).
    pub fn new() -> Self {
        Classifier::default()
    }

    /// Append a path-prefix rule.
    pub fn route(mut self, path_prefix: impl Into<String>, priority: Priority) -> Self {
        self.rules.push(ClassifyRule {
            path_prefix: path_prefix.into(),
            header_equals: None,
            priority,
        });
        self
    }

    /// Append a rule with an additional header condition.
    pub fn route_header(
        mut self,
        path_prefix: impl Into<String>,
        header: impl Into<String>,
        value: impl Into<String>,
        priority: Priority,
    ) -> Self {
        self.rules.push(ClassifyRule {
            path_prefix: path_prefix.into(),
            header_equals: Some((header.into(), value.into())),
            priority,
        });
        self
    }

    /// Classify a request (without mutating it).
    pub fn classify(&self, req: &Request) -> Priority {
        for r in &self.rules {
            if !req.path.starts_with(r.path_prefix.as_str()) {
                continue;
            }
            if let Some((h, v)) = &r.header_equals {
                if req.headers.get(h) != Some(v.as_str()) {
                    continue;
                }
            }
            return r.priority;
        }
        Priority::Low
    }

    /// Classify and stamp the `x-mesh-priority` header (§4.3 step 1).
    /// Returns the assigned priority.
    pub fn stamp(&self, req: &mut Request) -> Priority {
        let p = self.classify(req);
        req.headers.set(HDR_PRIORITY, p.header_value());
        p
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the classifier has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Read a request's priority from its header (downstream of the ingress).
pub fn request_priority(req: &Request) -> Priority {
    Priority::from_header(req.headers.get(HDR_PRIORITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_low() {
        let c = Classifier::new();
        assert!(c.is_empty());
        assert_eq!(c.classify(&Request::get("f", "/anything")), Priority::Low);
    }

    #[test]
    fn path_prefix_classification() {
        let c = Classifier::new()
            .route("/product", Priority::High)
            .route("/analytics", Priority::Low);
        assert_eq!(
            c.classify(&Request::get("f", "/product/42")),
            Priority::High
        );
        assert_eq!(
            c.classify(&Request::get("f", "/analytics/scan")),
            Priority::Low
        );
        assert_eq!(c.classify(&Request::get("f", "/other")), Priority::Low);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn header_condition() {
        let c = Classifier::new().route_header("/", "x-user-tier", "premium", Priority::High);
        let premium = Request::get("f", "/x").with_header("x-user-tier", "premium");
        let free = Request::get("f", "/x").with_header("x-user-tier", "free");
        assert_eq!(c.classify(&premium), Priority::High);
        assert_eq!(c.classify(&free), Priority::Low);
    }

    #[test]
    fn first_match_wins() {
        let c = Classifier::new()
            .route("/api", Priority::Low)
            .route("/api/urgent", Priority::High);
        // The broader rule shadows the later one (ordered semantics).
        assert_eq!(
            c.classify(&Request::get("f", "/api/urgent/1")),
            Priority::Low
        );
    }

    #[test]
    fn stamp_sets_header() {
        let c = Classifier::new().route("/product", Priority::High);
        let mut req = Request::get("f", "/product");
        assert_eq!(c.stamp(&mut req), Priority::High);
        assert_eq!(req.headers.get(HDR_PRIORITY), Some("high"));
        assert_eq!(request_priority(&req), Priority::High);
    }

    #[test]
    fn header_round_trip() {
        assert_eq!(Priority::from_header(Some("high")), Priority::High);
        assert_eq!(Priority::from_header(Some("low")), Priority::Low);
        assert_eq!(Priority::from_header(Some("weird")), Priority::Low);
        assert_eq!(Priority::from_header(None), Priority::Low);
    }
}
