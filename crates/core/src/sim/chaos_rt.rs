//! Chaos-plane runtime: applying the spec's [`FaultScript`] to the
//! running world.
//!
//! `meshlayer-chaos` defines the *format* (what faults exist and when
//! they fire); this module is the engine side that resolves
//! `(service, replica)` targets against the deployed cluster and
//! mutates the relevant layer. Every injection and clear travels
//! through the event loop as an [`Ev::Fault`] — folded into the
//! flight-recorder digest like any other event and written as a
//! `TAG_FAULT` frame — so a chaos run records and replays
//! bit-identically.
//!
//! Mechanics per fault kind:
//!
//! * **pod crash** — flip [`meshlayer_cluster::Pod::up`]; requests
//!   routed to the pod fail instantly with 503 while discovery keeps
//!   advertising it (stale endpoints), so the callers' outlier
//!   detectors must notice and eject. Restart flips it back.
//! * **link flap / partition** — admin-down the pod's (or every
//!   replica's) access links; offered packets drop until the heal.
//! * **gray failure** — inflate `speed_factor` / `failure_rate` on a
//!   replica, saving the originals for the clear.
//! * **rollback** — re-propose an earlier policy snapshot as a new
//!   version through the ordinary [`Ev::PolicyPush`] fan-out.

use super::engine::Ctx;
use super::{Ev, Simulation};
use meshlayer_chaos::{FaultKind, FaultScript};
use meshlayer_cluster::PodId;
use meshlayer_simcore::{FxHashMap, SimTime};

/// The chaos plane: the run's fault script and what active faults saved
/// at injection for their clear phase.
pub(crate) struct ChaosRt {
    script: FaultScript,
    /// Per gray fault: the (pod, speed_factor, failure_rate) to restore.
    gray_saved: FxHashMap<u32, (PodId, f64, f64)>,
}

impl ChaosRt {
    pub(crate) fn new(script: FaultScript) -> ChaosRt {
        ChaosRt {
            script,
            gray_saved: FxHashMap::default(),
        }
    }

    /// Seed one [`Ev::Fault`] injection per scheduled fault (called from
    /// `seed_events`).
    pub(crate) fn seed(&self, ctx: &mut Ctx) {
        for (i, f) in self.script.faults.iter().enumerate() {
            let ev = Ev::Fault {
                fault: i as u32,
                phase: 0,
            };
            ctx.push_before_end(f.at, ev);
        }
    }
}

impl Simulation {
    /// Resolve a `(service, replica)` target against the cluster.
    fn resolve_pod(&self, service: &str, replica: usize) -> Option<PodId> {
        let cluster = &self.app.cluster;
        cluster
            .endpoints(service, None)
            .into_iter()
            .find(|&p| cluster.pod(p).replica as usize == replica)
    }

    /// Handle one [`Ev::Fault`]: mutate the world, write the fault frame,
    /// and (on injection) schedule the clear.
    pub(crate) fn on_fault(&mut self, fault: u32, phase: u8, now: SimTime) {
        // One fault, cloned so injecting it can change the planes.
        let Some(ev) = self.chaos.script.faults.get(fault as usize).cloned() else {
            return;
        };
        let kind = ev.kind.code();
        let subject = ev.kind.subject();
        let detail = if phase == 0 {
            self.inject(fault, &ev.kind, now)
        } else {
            self.clear(fault, &ev.kind)
        };
        let Some(detail) = detail else {
            // Unresolvable target (bad service/replica/version): drop the
            // fault silently but deterministically.
            return;
        };
        if let Some(fr) = self.obs.flight_rec() {
            fr.record_fault(now, fault, phase, kind as u8, &subject, &detail);
        }
        // Link-mutating faults change fluid-plane capacity: re-solve the
        // rate allocation at the same instant (both injection and clear
        // flip admin state). Routed through the event loop like every
        // other state change so the re-solve lands in the digest.
        if self.fluid.active()
            && matches!(
                ev.kind,
                FaultKind::LinkFlap { .. } | FaultKind::Partition { .. }
            )
        {
            self.ctx.queue.push(
                now,
                Ev::FluidUpdate {
                    cause: super::fluid::CAUSE_CHAOS,
                },
            );
        }
        if phase == 0 {
            if let Some(after) = ev.kind.clear_after() {
                self.ctx
                    .push_before_end(now + after, Ev::Fault { fault, phase: 1 });
            }
        }
    }

    /// Apply the fault. Returns the frame detail, or `None` if the target
    /// does not resolve.
    fn inject(&mut self, fault: u32, kind: &FaultKind, now: SimTime) -> Option<String> {
        match kind {
            FaultKind::PodCrash {
                service,
                replica,
                restart_after,
            } => {
                let pod = self.resolve_pod(service, *replica)?;
                self.app.cluster.pod_mut(pod).up = false;
                let name = self.app.cluster.pod(pod).name.clone();
                Some(match restart_after {
                    Some(d) => format!("pod {name} crashed (restart in {d})"),
                    None => format!("pod {name} crashed (no restart)"),
                })
            }
            FaultKind::LinkFlap {
                service,
                replica,
                up_after,
            } => {
                let pod = self.resolve_pod(service, *replica)?;
                self.set_pod_links(pod, false);
                let name = self.app.cluster.pod(pod).name.clone();
                Some(format!("links of {name} admin-down (up in {up_after})"))
            }
            FaultKind::Partition {
                service,
                heal_after,
            } => {
                let pods = self.app.cluster.endpoints(service, None);
                if pods.is_empty() {
                    return None;
                }
                for pod in &pods {
                    self.set_pod_links(*pod, false);
                }
                Some(format!(
                    "service {service} partitioned: {} replicas cut off (heal in {heal_after})",
                    pods.len()
                ))
            }
            FaultKind::GrayFailure {
                service,
                replica,
                speed_factor,
                failure_rate,
                ..
            } => {
                let pod = self.resolve_pod(service, *replica)?;
                let p = self.app.cluster.pod_mut(pod);
                self.chaos
                    .gray_saved
                    .insert(fault, (pod, p.speed_factor, p.failure_rate));
                p.speed_factor = *speed_factor;
                p.failure_rate = *failure_rate;
                let name = p.name.clone();
                Some(format!(
                    "pod {name} gray: speed_factor={speed_factor} failure_rate={failure_rate}"
                ))
            }
            FaultKind::Rollback { to_version } => {
                let plane = &mut self.mesh.policy.plane;
                let snap = plane.snapshot(*to_version)?.clone();
                let version = plane.propose(
                    snap.xlayer,
                    snap.high_share,
                    snap.queue_pkts,
                    now,
                    &format!("chaos-rollback:v{to_version}"),
                );
                self.ctx.queue.push(now, Ev::PolicyPush { version });
                Some(format!("rolled back to v{to_version} as v{version}"))
            }
        }
    }

    /// Undo the fault (phase 1). Targets re-resolve deterministically;
    /// gray failures restore the saved originals.
    fn clear(&mut self, fault: u32, kind: &FaultKind) -> Option<String> {
        match kind {
            FaultKind::PodCrash {
                service, replica, ..
            } => {
                let pod = self.resolve_pod(service, *replica)?;
                self.app.cluster.pod_mut(pod).up = true;
                let name = self.app.cluster.pod(pod).name.clone();
                Some(format!("pod {name} restarted"))
            }
            FaultKind::LinkFlap {
                service, replica, ..
            } => {
                let pod = self.resolve_pod(service, *replica)?;
                self.set_pod_links(pod, true);
                let name = self.app.cluster.pod(pod).name.clone();
                Some(format!("links of {name} admin-up"))
            }
            FaultKind::Partition { service, .. } => {
                let pods = self.app.cluster.endpoints(service, None);
                if pods.is_empty() {
                    return None;
                }
                for pod in &pods {
                    self.set_pod_links(*pod, true);
                }
                Some(format!("service {service} partition healed"))
            }
            FaultKind::GrayFailure { .. } => {
                let (pod, speed, rate) = self.chaos.gray_saved.remove(&fault)?;
                let p = self.app.cluster.pod_mut(pod);
                p.speed_factor = speed;
                p.failure_rate = rate;
                let name = p.name.clone();
                Some(format!("pod {name} gray cleared"))
            }
            // Rollbacks have no clear phase.
            FaultKind::Rollback { .. } => None,
        }
    }

    /// Admin-up/-down both access links of a pod (star fabric: every pod
    /// reaches the rest of the world through its uplink + downlink).
    fn set_pod_links(&mut self, pod: PodId, up: bool) {
        let fabric = &mut self.net.fabric;
        for link in [fabric.uplink(pod), fabric.downlink(pod)] {
            fabric.topology.link_mut(link).set_admin_up(up);
        }
    }
}
