//! The incident-timeline engine: join the run's observability streams
//! into one ordered causal report.
//!
//! An "incident" in this simulator is the closed adaptation loop doing
//! its job: an SLO burn alert fires, the controller proposes a policy,
//! the push fans out, every layer acks, and the latency series recovers.
//! Each of those steps already leaves a deterministic trace somewhere —
//! burn alerts and anomalies in the [`TelemetrySummary`], proposals in
//! the [`PolicyPlane`](crate::policy::PolicyPlane)'s transition history,
//! per-layer acks and sidecar reactions (retries, fail-fasts) in the
//! flight log. This module merges them by simulated time (and, for the
//! sidecar activity, by `x-request-id`) into a single [`IncidentReport`]
//! whose `causal chain` line asserts the expected ordering.
//!
//! Everything here is a pure function of already-deterministic inputs,
//! so the rendered report is byte-identical from run to run.

use crate::policy::PolicyTransition;
use meshlayer_flightrec::{DecisionKind, FlightLog};
use meshlayer_telemetry::{AnomalyKind, TelemetrySummary};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One entry in the merged incident timeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IncidentEvent {
    /// Simulated time, seconds.
    pub t_s: f64,
    /// Causal stage: `fault-inject`, `burn-alert`, `anomaly`,
    /// `controller-decision`, `policy-push`, `policy-ack`,
    /// `sidecar-activity`, `fault-clear`, or `recovery`.
    pub stage: String,
    /// What the entry concerns (class, version, pod, ...).
    pub subject: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// The joined, ordered incident timeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IncidentReport {
    /// Timeline entries, ordered by (time, causal stage).
    pub events: Vec<IncidentEvent>,
    /// Per-layer policy acks observed in the flight log.
    pub acks: usize,
    /// Stages present, in causal order (the `causal chain` line).
    pub chain: Vec<String>,
    /// Whether the full burn-alert → ... → recovery chain reconstructed
    /// in non-decreasing time order.
    pub complete: bool,
}

/// Sort rank enforcing causal order among same-instant entries. An
/// injected fault is the root cause, so it sorts ahead of the anomaly it
/// produced; its clear precedes the recovery it enables.
fn stage_rank(stage: &str) -> u8 {
    match stage {
        "fault-inject" => 0,
        "anomaly" => 1,
        "burn-alert" => 2,
        "controller-decision" => 3,
        "policy-push" => 4,
        "policy-ack" => 5,
        "sidecar-activity" => 6,
        "fault-clear" => 7,
        "recovery" => 8,
        _ => 9,
    }
}

/// Join telemetry, policy-plane history, and (optionally) a flight log
/// into an ordered causal incident report.
///
/// Without a flight log the ack and sidecar-activity stages are absent
/// (the chain then reports acks from the transition's convergence).
pub fn build_incident_report(
    telemetry: &TelemetrySummary,
    transitions: &[PolicyTransition],
    log: Option<&FlightLog>,
) -> IncidentReport {
    let mut events: Vec<IncidentEvent> = Vec::new();

    for a in &telemetry.alerts {
        events.push(IncidentEvent {
            t_s: a.at_s,
            stage: "burn-alert".into(),
            subject: a.class.clone(),
            detail: format!(
                "fast_burn={:.2} slow_burn={:.2} threshold={:.2}",
                a.fast_burn, a.slow_burn, a.threshold
            ),
        });
    }

    // Degradations vs. recoveries: a downward latency shift after the
    // first proposal is the mesh getting better, not a new problem.
    let first_proposed_s = transitions.first().map(|t| t.proposed_at.as_secs_f64());
    for a in &telemetry.anomalies {
        let recovery = a.kind == AnomalyKind::LatencyShift
            && a.direction < 0
            && first_proposed_s.is_some_and(|p| a.at_s >= p);
        events.push(IncidentEvent {
            t_s: a.at_s,
            stage: if recovery { "recovery" } else { "anomaly" }.into(),
            subject: a.subject.clone(),
            detail: format!("{} {}", a.kind.label(), a.detail),
        });
    }

    for t in transitions {
        events.push(IncidentEvent {
            t_s: t.proposed_at.as_secs_f64(),
            stage: "controller-decision".into(),
            subject: format!("v{}", t.version),
            detail: format!("reason={}", t.reason),
        });
        let converged = t
            .converged_at
            .map(|c| format!("converged={:.2}s", c.as_secs_f64()))
            .unwrap_or_else(|| "converged=never".into());
        events.push(IncidentEvent {
            t_s: t.proposed_at.as_secs_f64(),
            stage: "policy-push".into(),
            subject: format!("v{}", t.version),
            detail: converged,
        });
    }

    let mut acks = 0usize;
    let mut faults = 0usize;
    if let Some(log) = log {
        // Chaos-plane fault frames are the root causes of everything
        // downstream: join them ahead of the anomalies they produced.
        for f in &log.faults {
            let stage = if f.phase == 0 {
                faults += 1;
                "fault-inject"
            } else {
                "fault-clear"
            };
            events.push(IncidentEvent {
                t_s: f.t_ns as f64 / 1e9,
                stage: stage.into(),
                subject: f.subject.clone(),
                detail: format!("fault[{}] {}", f.fault, f.detail),
            });
        }
        for d in &log.decisions {
            if d.kind == DecisionKind::PolicyApply.code() {
                acks += 1;
                events.push(IncidentEvent {
                    t_s: d.t_ns as f64 / 1e9,
                    stage: "policy-ack".into(),
                    subject: d.pod.clone(),
                    detail: format!("v{} layer={} {}", d.trace, d.cluster, d.detail),
                });
            }
        }
        // Sidecar reactions inside the incident window, joined by
        // x-request-id: how the data plane behaved while the mesh was
        // degraded, summarized (individual frames would swamp the
        // timeline).
        if let Some(window_start) = events
            .iter()
            .filter(|e| e.stage == "burn-alert" || e.stage == "anomaly")
            .map(|e| e.t_s)
            .min_by(f64::total_cmp)
        {
            let window_end = events
                .iter()
                .filter(|e| e.stage == "recovery")
                .map(|e| e.t_s)
                .min_by(f64::total_cmp)
                .unwrap_or(f64::INFINITY);
            let mut retries = 0usize;
            let mut fail_fasts = 0usize;
            let mut sample_ids: Vec<&str> = Vec::new();
            for d in &log.decisions {
                let t_s = d.t_ns as f64 / 1e9;
                if t_s < window_start || t_s > window_end {
                    continue;
                }
                let hit = match DecisionKind::from_code(d.kind) {
                    Some(DecisionKind::Retry) => {
                        retries += 1;
                        true
                    }
                    Some(DecisionKind::FailFast) => {
                        fail_fasts += 1;
                        true
                    }
                    _ => false,
                };
                if hit && !d.request_id.is_empty() && sample_ids.len() < 3 {
                    sample_ids.push(&d.request_id);
                }
            }
            if retries + fail_fasts > 0 {
                events.push(IncidentEvent {
                    t_s: window_start,
                    stage: "sidecar-activity".into(),
                    subject: "window".into(),
                    detail: format!(
                        "{retries} retries, {fail_fasts} fail-fasts during the incident (e.g. {})",
                        sample_ids.join(", ")
                    ),
                });
            }
        }
    }

    events.sort_by(|a, b| {
        a.t_s
            .total_cmp(&b.t_s)
            .then_with(|| stage_rank(&a.stage).cmp(&stage_rank(&b.stage)))
            .then_with(|| a.subject.cmp(&b.subject))
    });

    // The causal chain: first occurrence of each stage must appear in
    // non-decreasing time order.
    let first_of = |stage: &str| -> Option<f64> {
        events
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.t_s)
            .min_by(f64::total_cmp)
    };
    let alert_t = first_of("burn-alert");
    let decision_t = first_of("controller-decision");
    let push_t = first_of("policy-push");
    let ack_t = first_of("policy-ack").or_else(|| {
        // Without a flight log, convergence stands in for the last ack.
        transitions
            .first()
            .and_then(|t| t.converged_at)
            .map(|c| c.as_secs_f64())
    });
    let recovery_t = first_of("recovery");
    let complete = match (alert_t, decision_t, push_t, ack_t, recovery_t) {
        (Some(a), Some(d), Some(p), Some(k), Some(r)) => a <= d && d <= p && p <= k && k <= r,
        _ => false,
    };

    let mut chain = Vec::new();
    if faults > 0 {
        chain.push(format!("fault-inject({faults})"));
    }
    if alert_t.is_some() {
        chain.push("burn-alert".to_string());
    }
    if decision_t.is_some() {
        chain.push("controller-decision".to_string());
    }
    if push_t.is_some() {
        chain.push("policy-push".to_string());
    }
    if ack_t.is_some() {
        chain.push(format!("acks({acks})"));
    }
    if recovery_t.is_some() {
        chain.push("recovery".to_string());
    }

    IncidentReport {
        events,
        acks,
        chain,
        complete,
    }
}

impl IncidentReport {
    /// Render the timeline plus the `causal chain:` summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "incident timeline: {} events", self.events.len());
        let mut acks_shown = 0usize;
        for e in &self.events {
            if e.stage == "policy-ack" {
                acks_shown += 1;
                if acks_shown == 4 && self.acks > 4 {
                    let _ = writeln!(
                        out,
                        "  ...                              ({} more policy-acks)",
                        self.acks - 3
                    );
                }
                if acks_shown >= 4 && self.acks > 4 {
                    continue;
                }
            }
            let _ = writeln!(
                out,
                "  t={:<9.3}s {:<19} {:<24} {}",
                e.t_s, e.stage, e.subject, e.detail
            );
        }
        let chain = if self.chain.is_empty() {
            "(no incident)".to_string()
        } else {
            self.chain.join(" -> ")
        };
        let status = if self.complete {
            "[complete]"
        } else {
            "[incomplete]"
        };
        let _ = writeln!(out, "causal chain: {chain} {status}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshlayer_simcore::SimTime;
    use meshlayer_telemetry::{Alert, AnomalyEvent, AnomalyKind};

    fn summary_with(alert_at: f64, up_at: f64, down_at: f64) -> TelemetrySummary {
        TelemetrySummary {
            alerts: vec![Alert {
                class: "ls".into(),
                at_s: alert_at,
                fast_burn: 20.0,
                slow_burn: 8.0,
                threshold: 14.4,
            }],
            anomalies: vec![
                AnomalyEvent {
                    at_s: up_at,
                    kind: AnomalyKind::LatencyShift,
                    subject: "ls".into(),
                    value: 106.0,
                    baseline: 20.0,
                    direction: 1,
                    detail: "p99 106.0ms vs baseline 20.0ms".into(),
                },
                AnomalyEvent {
                    at_s: down_at,
                    kind: AnomalyKind::LatencyShift,
                    subject: "ls".into(),
                    value: 23.0,
                    baseline: 106.0,
                    direction: -1,
                    detail: "p99 23.0ms vs baseline 106.0ms".into(),
                },
            ],
            ..TelemetrySummary::default()
        }
    }

    fn transition(proposed_s: u64, converged_s: u64) -> PolicyTransition {
        PolicyTransition {
            version: 2,
            reason: "slo-burn:ls".into(),
            proposed_at: SimTime::from_secs(proposed_s),
            converged_at: Some(SimTime::from_secs(converged_s)),
        }
    }

    #[test]
    fn full_chain_reconstructs_in_order() {
        let summary = summary_with(1.5, 1.4, 3.0);
        let report = build_incident_report(&summary, &[transition(2, 2)], None);
        assert!(report.complete, "chain: {:?}", report.chain);
        assert_eq!(
            report.chain,
            vec![
                "burn-alert",
                "controller-decision",
                "policy-push",
                "acks(0)",
                "recovery"
            ]
        );
        let rendered = report.render();
        assert!(rendered.contains("causal chain: burn-alert -> controller-decision -> policy-push -> acks(0) -> recovery [complete]"),
            "{rendered}");
        // Stages are time-ordered in the timeline.
        let stages: Vec<&str> = report.events.iter().map(|e| e.stage.as_str()).collect();
        assert_eq!(
            stages,
            vec![
                "anomaly",
                "burn-alert",
                "controller-decision",
                "policy-push",
                "recovery"
            ]
        );
    }

    #[test]
    fn downward_shift_before_proposal_is_not_recovery() {
        // A down-shift before any policy action is just an anomaly.
        let summary = summary_with(5.0, 4.9, 1.0);
        let report = build_incident_report(&summary, &[transition(6, 7)], None);
        assert!(!report.complete);
        assert!(report.events.iter().all(|e| e.stage != "recovery"));
    }

    #[test]
    fn injected_faults_join_the_chain_as_root_cause() {
        use meshlayer_flightrec::{FaultRecord, FlightLog};
        let summary = summary_with(1.5, 1.4, 3.0);
        let log = FlightLog {
            faults: vec![
                FaultRecord {
                    t_ns: 1_000_000_000,
                    fault: 0,
                    phase: 0,
                    kind: 3,
                    subject: "ratings/0".into(),
                    detail: "pod ratings-0 gray".into(),
                },
                FaultRecord {
                    t_ns: 2_500_000_000,
                    fault: 0,
                    phase: 1,
                    kind: 3,
                    subject: "ratings/0".into(),
                    detail: "pod ratings-0 gray cleared".into(),
                },
            ],
            ..FlightLog::default()
        };
        let report = build_incident_report(&summary, &[transition(2, 2)], Some(&log));
        assert!(report.complete, "chain: {:?}", report.chain);
        assert_eq!(
            report.chain.first().map(String::as_str),
            Some("fault-inject(1)")
        );
        // The injection sorts ahead of everything downstream of it; the
        // clear lands before the recovery it enables.
        let stages: Vec<&str> = report.events.iter().map(|e| e.stage.as_str()).collect();
        assert_eq!(
            stages,
            vec![
                "fault-inject",
                "anomaly",
                "burn-alert",
                "controller-decision",
                "policy-push",
                "fault-clear",
                "recovery"
            ]
        );
        let rendered = report.render();
        assert!(
            rendered.contains("causal chain: fault-inject(1) -> burn-alert -> controller-decision -> policy-push -> acks(0) -> recovery [complete]"),
            "{rendered}"
        );
    }

    #[test]
    fn no_transitions_no_chain_completion() {
        let summary = summary_with(1.0, 0.9, 2.0);
        let report = build_incident_report(&summary, &[], None);
        assert!(!report.complete);
        assert!(report.render().contains("[incomplete]"));
    }
}
