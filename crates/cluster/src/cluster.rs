//! The cluster: nodes, services, pods, and service discovery.

use crate::behavior::ServiceBehavior;
use crate::compute::{ComputeConfig, PodCompute};
use crate::scheduler::Scheduler;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a deployed service.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ServiceId(pub u32);

/// Identifier of a pod.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct PodId(pub u32);

/// A named label selector defining a subset of a service's pods —
/// the `DestinationRule` subset analogue. The paper's prototype uses two
/// subsets of `reviews` (replica 1 vs replica 2) to separate priorities.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subset {
    /// Subset name referenced by route rules.
    pub name: String,
    /// Labels a pod must carry to belong to this subset.
    pub selector: BTreeMap<String, String>,
}

impl Subset {
    /// Subset selecting pods with a single `key=value` label.
    pub fn label(
        name: impl Into<String>,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Subset {
        let mut selector = BTreeMap::new();
        selector.insert(key.into(), value.into());
        Subset {
            name: name.into(),
            selector,
        }
    }
}

/// Declarative description of a service to deploy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Service (cluster) name used in discovery and routing.
    pub name: String,
    /// Number of replicas. Per-replica labels come from `replica_labels`.
    pub replicas: u32,
    /// Labels applied to replica `i` (cycled if shorter than `replicas`);
    /// every pod also gets `app=<name>` automatically.
    pub replica_labels: Vec<BTreeMap<String, String>>,
    /// Declared subsets for routing.
    pub subsets: Vec<Subset>,
    /// Behaviour per path prefix (longest prefix wins); the `""` prefix is
    /// the default handler.
    pub behaviors: Vec<(String, ServiceBehavior)>,
    /// Compute-queue settings per pod.
    pub compute: ComputeConfig,
}

impl ServiceSpec {
    /// A service with `replicas` identical replicas and one behaviour.
    pub fn new(name: impl Into<String>, replicas: u32, behavior: ServiceBehavior) -> ServiceSpec {
        ServiceSpec {
            name: name.into(),
            replicas,
            replica_labels: Vec::new(),
            subsets: Vec::new(),
            behaviors: vec![(String::new(), behavior)],
            compute: ComputeConfig::default(),
        }
    }

    /// Builder: add a subset.
    pub fn with_subset(mut self, subset: Subset) -> Self {
        self.subsets.push(subset);
        self
    }

    /// Builder: set per-replica labels.
    pub fn with_replica_labels(mut self, labels: Vec<BTreeMap<String, String>>) -> Self {
        self.replica_labels = labels;
        self
    }

    /// Builder: add a path-specific behaviour.
    pub fn with_path_behavior(mut self, prefix: impl Into<String>, b: ServiceBehavior) -> Self {
        self.behaviors.push((prefix.into(), b));
        self
    }

    /// Builder: set compute config.
    pub fn with_compute(mut self, compute: ComputeConfig) -> Self {
        self.compute = compute;
        self
    }
}

/// A running pod.
pub struct Pod {
    /// Pod id.
    pub id: PodId,
    /// Owning service.
    pub service: ServiceId,
    /// Replica index within the service.
    pub replica: u32,
    /// Node (host) index the pod runs on.
    pub node: usize,
    /// Virtual IP (unique per pod; what TC rules match on).
    pub ip: u32,
    /// Labels (`app=<service>` plus per-replica labels).
    pub labels: BTreeMap<String, String>,
    /// Execution queue.
    pub compute: PodCompute,
    /// Service-time multiplier (1.0 = nominal; >1 = slow replica). Used by
    /// straggler/outlier experiments.
    pub speed_factor: f64,
    /// Probability that a request handled by this pod fails with a 500
    /// (fault injection for retry/outlier/breaker experiments).
    pub failure_rate: f64,
    /// Whether the pod process is alive. A crashed pod (`up = false`)
    /// refuses every request instantly (connection refused → 503) without
    /// consuming compute; discovery still advertises it (stale-endpoints
    /// semantics), so sidecars must detect the crash themselves via
    /// outlier detection. Toggled by the chaos plane's crash/restart
    /// faults.
    pub up: bool,
    /// Human-readable name, e.g. `reviews-1`.
    pub name: String,
}

impl Pod {
    /// Whether this pod matches a subset selector.
    pub fn matches(&self, selector: &BTreeMap<String, String>) -> bool {
        selector.iter().all(|(k, v)| self.labels.get(k) == Some(v))
    }
}

/// A deployed service's bookkeeping.
struct Service {
    spec: ServiceSpec,
    pods: Vec<PodId>,
}

/// The cluster: hosts, deployed services, pods, discovery.
pub struct Cluster {
    node_names: Vec<String>,
    scheduler: Scheduler,
    services: Vec<Service>,
    pods: Vec<Pod>,
    next_ip: u32,
}

/// Base of the virtual pod network (10.0.0.0).
const POD_NET_BASE: u32 = 0x0a00_0000;

impl Cluster {
    /// A cluster of `nodes` named hosts, each able to run `pods_per_node`
    /// pods.
    pub fn new(nodes: &[&str], pods_per_node: u32) -> Self {
        Cluster {
            node_names: nodes.iter().map(|s| s.to_string()).collect(),
            scheduler: Scheduler::new(vec![pods_per_node; nodes.len()]),
            services: Vec::new(),
            pods: Vec::new(),
            next_ip: POD_NET_BASE + 1,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Name of a node.
    pub fn node_name(&self, i: usize) -> &str {
        &self.node_names[i]
    }

    /// Deploy a service: creates and schedules its replicas.
    ///
    /// # Panics
    /// Panics if the cluster has no capacity left.
    pub fn deploy(&mut self, spec: ServiceSpec) -> ServiceId {
        assert!(
            self.find_service(&spec.name).is_none(),
            "service {:?} already deployed",
            spec.name
        );
        let sid = ServiceId(self.services.len() as u32);
        let mut pod_ids = Vec::new();
        for replica in 0..spec.replicas {
            let node = self
                .scheduler
                .place()
                .unwrap_or_else(|| panic!("no capacity for {}-{replica}", spec.name));
            let pid = PodId(self.pods.len() as u32);
            let mut labels = BTreeMap::new();
            labels.insert("app".to_string(), spec.name.clone());
            if !spec.replica_labels.is_empty() {
                let extra = &spec.replica_labels[replica as usize % spec.replica_labels.len()];
                labels.extend(extra.clone());
            }
            self.pods.push(Pod {
                id: pid,
                service: sid,
                replica,
                node,
                ip: self.next_ip,
                labels,
                compute: PodCompute::new(spec.compute.clone()),
                speed_factor: 1.0,
                failure_rate: 0.0,
                up: true,
                name: format!("{}-{}", spec.name, replica + 1),
            });
            self.next_ip += 1;
            pod_ids.push(pid);
        }
        self.services.push(Service {
            spec,
            pods: pod_ids,
        });
        sid
    }

    /// Look a service up by name.
    pub fn find_service(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.spec.name == name)
            .map(|i| ServiceId(i as u32))
    }

    /// The spec a service was deployed with.
    pub fn spec(&self, id: ServiceId) -> &ServiceSpec {
        &self.services[id.0 as usize].spec
    }

    /// Service discovery: live endpoints of `service`, optionally narrowed
    /// to a named subset. Unknown subset names resolve to no endpoints
    /// (matching Envoy, where a missing subset 503s).
    pub fn endpoints(&self, service: &str, subset: Option<&str>) -> Vec<PodId> {
        let Some(sid) = self.find_service(service) else {
            return Vec::new();
        };
        let svc = &self.services[sid.0 as usize];
        match subset {
            None => svc.pods.clone(),
            Some(name) => {
                let Some(sub) = svc.spec.subsets.iter().find(|s| s.name == name) else {
                    return Vec::new();
                };
                svc.pods
                    .iter()
                    .copied()
                    .filter(|&p| self.pod(p).matches(&sub.selector))
                    .collect()
            }
        }
    }

    /// Immutable pod access.
    pub fn pod(&self, id: PodId) -> &Pod {
        &self.pods[id.0 as usize]
    }

    /// Mutable pod access.
    pub fn pod_mut(&mut self, id: PodId) -> &mut Pod {
        &mut self.pods[id.0 as usize]
    }

    /// All pods.
    pub fn pods(&self) -> impl Iterator<Item = &Pod> {
        self.pods.iter()
    }

    /// Total number of pods.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// Resolve the behaviour for `service` at `path` (longest matching
    /// prefix; the `""` prefix is the default).
    pub fn behavior(&self, service: &str, path: &str) -> Option<&ServiceBehavior> {
        let sid = self.find_service(service)?;
        let spec = &self.services[sid.0 as usize].spec;
        spec.behaviors
            .iter()
            .filter(|(prefix, _)| path.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, b)| b)
    }

    /// Render a `kubectl get pods`-style listing (used by the Fig 3
    /// harness binary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cluster: {} nodes, {} services, {} pods\n",
            self.node_count(),
            self.services.len(),
            self.pod_count()
        ));
        for p in &self.pods {
            let labels: Vec<String> = p
                .labels
                .iter()
                .filter(|(k, _)| k.as_str() != "app")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!(
                "  {:<16} node={:<8} ip=10.0.{}.{} {}\n",
                p.name,
                self.node_names[p.node],
                (p.ip >> 8) & 0xff,
                p.ip & 0xff,
                labels.join(","),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ServiceBehavior;

    fn labels(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn demo_cluster() -> Cluster {
        let mut c = Cluster::new(&["w1", "w2"], 16);
        c.deploy(
            ServiceSpec::new("reviews", 2, ServiceBehavior::leaf(0.001, 1000.0))
                .with_replica_labels(vec![
                    labels(&[("prio", "high")]),
                    labels(&[("prio", "low")]),
                ])
                .with_subset(Subset::label("high", "prio", "high"))
                .with_subset(Subset::label("low", "prio", "low")),
        );
        c.deploy(ServiceSpec::new(
            "details",
            1,
            ServiceBehavior::leaf(0.001, 500.0),
        ));
        c
    }

    #[test]
    fn deploy_creates_replicas_with_unique_ips() {
        let c = demo_cluster();
        assert_eq!(c.pod_count(), 3);
        let ips: Vec<u32> = c.pods().map(|p| p.ip).collect();
        let mut dedup = ips.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ips.len());
        assert_eq!(c.pod(PodId(0)).name, "reviews-1");
        assert_eq!(c.pod(PodId(1)).name, "reviews-2");
    }

    #[test]
    fn discovery_all_endpoints() {
        let c = demo_cluster();
        assert_eq!(c.endpoints("reviews", None).len(), 2);
        assert_eq!(c.endpoints("details", None).len(), 1);
        assert!(c.endpoints("missing", None).is_empty());
    }

    #[test]
    fn discovery_subsets_select_by_label() {
        let c = demo_cluster();
        let high = c.endpoints("reviews", Some("high"));
        assert_eq!(high.len(), 1);
        assert_eq!(
            c.pod(high[0]).labels.get("prio").map(String::as_str),
            Some("high")
        );
        let low = c.endpoints("reviews", Some("low"));
        assert_eq!(low.len(), 1);
        assert_ne!(high[0], low[0]);
        assert!(c.endpoints("reviews", Some("nope")).is_empty());
    }

    #[test]
    fn behavior_longest_prefix() {
        let mut c = Cluster::new(&["n"], 8);
        c.deploy(
            ServiceSpec::new("svc", 1, ServiceBehavior::respond(10.0))
                .with_path_behavior("/big", ServiceBehavior::respond(1_000_000.0))
                .with_path_behavior("/big/huge", ServiceBehavior::respond(9_000_000.0)),
        );
        assert_eq!(c.behavior("svc", "/x").unwrap().response_bytes.mean(), 10.0);
        assert_eq!(
            c.behavior("svc", "/big/1").unwrap().response_bytes.mean(),
            1_000_000.0
        );
        assert_eq!(
            c.behavior("svc", "/big/huge/2")
                .unwrap()
                .response_bytes
                .mean(),
            9_000_000.0
        );
        assert!(c.behavior("other", "/").is_none());
    }

    #[test]
    fn spread_placement_uses_both_nodes() {
        let c = demo_cluster();
        let nodes: Vec<usize> = c.pods().map(|p| p.node).collect();
        assert!(nodes.contains(&0) && nodes.contains(&1));
    }

    #[test]
    #[should_panic(expected = "already deployed")]
    fn duplicate_service_rejected() {
        let mut c = demo_cluster();
        c.deploy(ServiceSpec::new(
            "reviews",
            1,
            ServiceBehavior::respond(1.0),
        ));
    }

    #[test]
    #[should_panic(expected = "no capacity")]
    fn over_capacity_panics() {
        let mut c = Cluster::new(&["tiny"], 1);
        c.deploy(ServiceSpec::new("a", 2, ServiceBehavior::respond(1.0)));
    }

    #[test]
    fn render_contains_pods() {
        let c = demo_cluster();
        let s = c.render();
        assert!(s.contains("reviews-1"));
        assert!(s.contains("prio=high"));
        assert!(s.contains("2 services"));
    }
}
