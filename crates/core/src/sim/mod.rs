//! The end-to-end simulation: every substrate wired together.
//!
//! [`Simulation`] owns the cluster, the mesh (sidecars + control plane),
//! the network fabric, the transport connections, the workload generators
//! and the measurement machinery, and advances them through one
//! deterministic event loop. The request lifecycle it implements is the
//! paper's Fig 3:
//!
//! 1. an external request arrives at the ingress gateway (stage 1–2),
//!    where the [`crate::provenance::Classifier`] stamps its priority;
//! 2. sidecars route it through the service graph, each app spawning
//!    child requests per its behaviour tree (stage 3–4), with priority
//!    propagated via `x-request-id` correlation;
//! 3. every message crosses the packet network through per-priority
//!    transport connections, contending at link qdiscs — where the
//!    cross-layer TC rules act;
//! 4. responses propagate back and the recorder measures end-to-end
//!    latency from the intended send time.

mod chaos_rt;
mod engine;
mod exec;
mod flight;
mod fluid;
mod obs;
mod policy_rt;
mod prov;
mod rpc;
mod store;
mod subset;

pub use flight::FlightOutcome;

use crate::netplan::{Fabric, NetworkPlan};
use crate::policy::{AdaptationConfig, PolicyPlane};
use crate::provenance::{Classifier, Priority};
use crate::xlayer::{self, XLayerConfig};
use meshlayer_cluster::{Cluster, PodId, ServiceSpec};
use meshlayer_http::{Request, Response, RouteRule, StatusCode};
use meshlayer_mesh::{ControlPlane, InboundCtx, MeshConfig, Sidecar, SpanId, TraceId, Tracer};
use meshlayer_netsim::{LinkId, NodeId};
use meshlayer_simcore::FxHashMap;
use meshlayer_simcore::{Dist, EventQueue, SimDuration, SimRng, SimTime};
use meshlayer_telemetry::{TelemetryConfig, TelemetryHub};
use meshlayer_transport::{CcAlgo, Conn, TimerSlot};
use meshlayer_workload::{OpenLoopGen, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Scalar knobs of a run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Root RNG seed; a run is a pure function of `(spec, seed)`.
    pub seed: u64,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Cool-down excluded from measurement.
    pub cooldown: SimDuration,
    /// One crossing of the app↔sidecar localhost boundary.
    pub app_sidecar_delay: SimDuration,
    /// Congestion control for non-scavenger connections.
    pub default_cc: CcAlgo,
    /// Number of cluster nodes (hosts). The paper uses one 32-core server.
    pub nodes: usize,
    /// Pod capacity per node.
    pub pods_per_node: u32,
    /// Endpoint subsetting in discovery: a client whose upstream replica
    /// pool is larger than this sees only a deterministic per-client
    /// subset of this size (0 disables subsetting). Shrinks per-client
    /// route/conn tables at thousand-replica scale; every replica is
    /// still covered by some client's subset (see `sim/subset.rs`).
    pub subset_size: usize,
    /// Time-series telemetry: scrape interval and SLO targets.
    pub telemetry: TelemetryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            duration: SimDuration::from_secs(30),
            warmup: SimDuration::from_secs(5),
            cooldown: SimDuration::from_secs(2),
            app_sidecar_delay: SimDuration::from_micros(30),
            default_cc: CcAlgo::Cubic,
            nodes: 1,
            pods_per_node: 64,
            subset_size: 0,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Everything needed to build a [`Simulation`].
#[derive(Clone)]
pub struct SimSpec {
    /// Services to deploy (the application).
    pub services: Vec<ServiceSpec>,
    /// Link plan.
    pub network: NetworkPlan,
    /// Workloads hitting the ingress.
    pub workloads: Vec<WorkloadSpec>,
    /// Ingress classification rules.
    pub classifier: Classifier,
    /// Cross-layer optimization toggles.
    pub xlayer: XLayerConfig,
    /// Scalar knobs.
    pub config: SimConfig,
    /// Base mesh configuration (routes are filled in by the builder).
    pub mesh: MeshConfig,
    /// Closed-loop adaptation: when set, the control plane watches this
    /// SLO class's burn alert (and the SDN congestion view) each telemetry
    /// scrape and pushes the configured policy when it fires.
    pub adaptation: Option<AdaptationConfig>,
    /// Deterministic fault-injection schedule (the chaos plane). Each
    /// scheduled fault becomes an ordinary engine event, so a chaos run
    /// records and replays bit-identically like any other.
    pub chaos: Option<meshlayer_chaos::FaultScript>,
}

impl SimSpec {
    /// A spec with default network/mesh/config for the given app and
    /// workloads.
    pub fn new(services: Vec<ServiceSpec>, workloads: Vec<WorkloadSpec>) -> SimSpec {
        SimSpec {
            services,
            network: NetworkPlan::default(),
            workloads,
            classifier: Classifier::new(),
            xlayer: XLayerConfig::baseline(),
            config: SimConfig::default(),
            mesh: MeshConfig::default(),
            adaptation: None,
            chaos: None,
        }
    }
}

/// The service name used for the ingress gateway pod.
pub const INGRESS_SERVICE: &str = "ingress-gateway";

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// The simulation's event alphabet.
#[derive(Debug)]
pub(crate) enum Ev {
    /// Workload generator `gen` emits its next request.
    Arrival { gen: usize },
    /// A link with a backlog finished serializing its in-flight packet
    /// (an uncontended transmission is released at its start and needs
    /// no such event — see `meshlayer_netsim::link`).
    LinkTx { link: LinkId },
    /// A link should retry dequeueing: its shaper has tokens again, or
    /// its released wire is free and a backlog formed meanwhile.
    LinkKick { link: LinkId },
    /// A packet arrives at a node after serialization and propagation.
    /// `pkt` indexes the in-flight packet slab ([`store::Slab`]): an event
    /// carries an index so that timers and ticks do not pay for a
    /// packet's 88 bytes.
    PktArrive { pkt: u32, node: NodeId },
    /// The live timer event of endpoint `(conn, dir)` — at most one per
    /// endpoint, see [`meshlayer_transport::TimerSlot`].
    ConnTimer { conn: u64, dir: u8 },
    /// Hand a message to a connection endpoint (after sidecar overhead).
    SendMsg {
        conn: u64,
        dir: u8,
        msg: u64,
        bytes: u64,
    },
    /// Start interpreting an inbound request's behaviour tree.
    ExecStart { exec: u64 },
    /// A compute job finished on a pod.
    ComputeDone { pod: PodId, token: u64 },
    /// A response reached the calling sidecar (post-overhead).
    AttemptResponse {
        rpc: u64,
        attempt: u32,
        status: StatusCode,
    },
    /// Per-attempt timeout.
    PerTryTimeout { rpc: u64, attempt: u32 },
    /// Whole-request timeout.
    RpcTimeout { rpc: u64 },
    /// A scheduled retry fires.
    RetryFire { rpc: u64 },
    /// A hedge delay elapsed: consider duplicating the attempt.
    HedgeFire { rpc: u64, attempt: u32 },
    /// SDN controller takes a link-utilization snapshot (§3.5).
    SdnTick,
    /// Control plane housekeeping: cert rotation.
    ControlTick,
    /// Telemetry scrape: sample links, pods, and sidecars into the
    /// time-series hub and roll latency intervals forward.
    TelemetryTick,
    /// The control plane starts pushing policy snapshot `version`: render
    /// the mesh config and fan out per-layer applies.
    PolicyPush { version: u64 },
    /// One layer applies policy snapshot `version`. `layer` is a
    /// [`crate::PolicyLayer`] code; `pod` is the applying sidecar for the
    /// mesh layer, `u32::MAX` for fleet-wide layers.
    PolicyApply { version: u64, layer: u8, pod: u32 },
    /// The chaos plane injects (`phase` 0) or clears (`phase` 1) fault
    /// number `fault` of the spec's [`meshlayer_chaos::FaultScript`].
    Fault { fault: u32, phase: u8 },
    /// Re-solve the fluid traffic plane: settle every flow's bytes since
    /// the previous update, recompute max-min fair allocations over the
    /// current topology, and refresh per-link `fluid_bps` reservations.
    /// `cause` is a `fluid::CAUSE_*` code (seed, epoch tick, or
    /// chaos-driven link change) folded into the flight digest.
    FluidUpdate { cause: u8 },
}

// Every queue entry is `(SimTime, seq, Ev)`: a variant that grows `Ev`
// grows every pending event. Put large payloads in a store, carry an id.
const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

impl Ev {
    /// Number of variants ([`Ev::code`] is `0..COUNT`).
    pub(crate) const COUNT: usize = 20;

    /// Variant names, indexed by [`Ev::code`] — for the per-event
    /// profiling counters.
    pub(crate) const NAMES: [&'static str; Ev::COUNT] = [
        "Arrival",
        "LinkTx",
        "LinkKick",
        "PktArrive",
        "ConnTimer",
        "SendMsg",
        "ExecStart",
        "ComputeDone",
        "AttemptResponse",
        "PerTryTimeout",
        "RpcTimeout",
        "RetryFire",
        "HedgeFire",
        "SdnTick",
        "ControlTick",
        "TelemetryTick",
        "PolicyPush",
        "PolicyApply",
        "Fault",
        "FluidUpdate",
    ];
}

// ---------------------------------------------------------------------------
// In-flight bookkeeping
// ---------------------------------------------------------------------------

/// A message travelling through the transport.
pub(crate) enum MsgInFlight {
    /// A request on its way to `rpc`'s chosen endpoint.
    Request {
        /// The request (headers already annotated).
        req: Request,
        /// Owning RPC.
        rpc: u64,
        /// Attempt number.
        attempt: u32,
    },
    /// A response on its way back to the caller.
    Response {
        /// The response.
        resp: Response,
        /// Owning RPC.
        rpc: u64,
        /// Attempt it answers.
        attempt: u32,
        /// When the server sidecar put it on the wire (provenance).
        sent_at: SimTime,
        /// Server-side latency attribution for the whole server window.
        server: meshlayer_prof::Breakdown,
    },
}

/// Who gets notified when an RPC completes.
#[derive(Debug)]
pub(crate) enum CompletionKey {
    /// A root (external) request from workload generator `class`.
    Root {
        class: String,
        intended_at: SimTime,
        request_id: String,
    },
    /// A `Call` step inside an app execution.
    Exec { exec: u64, token: u64 },
}

/// One attempt of an RPC (initial, retry, or hedge).
pub(crate) struct AttemptState {
    pub pod: PodId,
    pub sent: SimTime,
    pub done: bool,
}

/// One logical RPC: a request to a service plus its attempts (retries are
/// sequential, hedges concurrent) and eventual completion.
pub(crate) struct Rpc {
    pub caller: PodId,
    pub cluster: String,
    pub req: Request,
    pub completion: CompletionKey,
    pub priority: Priority,
    pub attempts: Vec<AttemptState>,
    pub pool_size: usize,
    /// When the RPC started — the anchor the provenance residual
    /// (backoff, losing attempts) is measured against.
    pub started: SimTime,
    /// Client span to record at completion (sampled traces only).
    pub span: Option<ClientSpanCtx>,
}

/// The pending client span of a sampled outbound RPC. `id` is the span id
/// `annotate_outbound` stamped into `x-b3-spanid` (so the callee's server
/// span parents onto it); `parent` is the caller's own server span.
pub(crate) struct ClientSpanCtx {
    pub trace: TraceId,
    pub id: SpanId,
    pub parent: SpanId,
    pub started: SimTime,
}

impl Rpc {
    /// Attempts still awaiting a response.
    pub fn live_attempts(&self) -> usize {
        self.attempts.iter().filter(|a| !a.done).count()
    }
}

/// Continuation node of a behaviour-tree execution.
pub(crate) enum Cont {
    Seq {
        rest: std::collections::VecDeque<meshlayer_cluster::CallStep>,
        parent: u64,
        /// Latency attribution accumulated across completed children.
        /// Sequential children are contiguous in sim time, so the sum
        /// spans the whole `Seq` exactly.
        acc: meshlayer_prof::Breakdown,
    },
    Par {
        remaining: usize,
        parent: u64,
    },
}

/// Token identifying "the whole request" continuation.
pub(crate) const ROOT_TOKEN: u64 = 0;

/// One inbound request being handled by an app instance.
pub(crate) struct Exec {
    pub pod: PodId,
    pub req: Request,
    pub ctx: InboundCtx,
    pub started: SimTime,
    pub response_bytes: u64,
    pub failed: Option<StatusCode>,
    pub conts: FxHashMap<u64, Cont>,
    /// Latency attribution of the completed behaviour tree (root token).
    pub bd: meshlayer_prof::Breakdown,
    /// Reply path: the connection/direction the request arrived on.
    pub reply_conn: u64,
    pub reply_dir: u8,
    pub rpc: u64,
    pub attempt: u32,
}

/// A queued or running compute step.
pub(crate) struct ComputeJob {
    pub exec: u64,
    pub parent: u64,
    pub dist: Dist,
    /// When the job was offered to the pod (queueing starts here).
    pub offered_at: SimTime,
    /// When it actually started running (service time starts here).
    pub run_started: SimTime,
}

/// A transport connection pair (both endpoints).
pub(crate) struct ConnPair {
    pub a_pod: PodId,
    pub b_pod: PodId,
    pub a: Conn,
    pub b: Conn,
    /// Transport class the pair was pooled under (0 = high, 1 = low) —
    /// policy pushes re-derive DSCP/CC for live connections from it.
    pub class: u8,
    /// The live timer event of each direction's endpoint.
    pub timers: [TimerSlot; 2],
}

/// Aggregate counters the run reports (see [`crate::metrics::RunMetrics`]).
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct WorldStats {
    /// Root requests injected.
    pub roots_started: u64,
    /// Root requests completed successfully.
    pub roots_ok: u64,
    /// Root requests failed (error status or timeout).
    pub roots_failed: u64,
    /// RPCs started (all levels).
    pub rpcs: u64,
    /// RPC attempts that timed out.
    pub attempt_timeouts: u64,
    /// Compute jobs rejected by full pod queues.
    pub compute_rejections: u64,
    /// Hedge (redundant) attempts issued.
    pub hedges: u64,
    /// Packets dropped at link queues.
    pub pkt_drops: u64,
}

// ---------------------------------------------------------------------------
// The simulation, by plane
// ---------------------------------------------------------------------------

/// The mesh plane: one sidecar per pod, what discovery shows each client,
/// the control plane, the SDN controller, the policy plane and the
/// ingress classifier.
pub(crate) struct MeshPlane {
    pub sidecars: store::Sidecars,
    /// Deterministic endpoint subsets per (client pod, service), when
    /// [`SimConfig::subset_size`] is non-zero.
    pub subsets: subset::Subsets,
    pub control: ControlPlane,
    pub sdn: crate::sdn::SdnController,
    /// Policy-plane runtime state: the live configuration, the base
    /// routes, the version history and the adaptation loop.
    pub policy: policy_rt::PolicyRt,
    pub ingress_pod: PodId,
    /// Ingress classification rules (§4.3 step 1).
    pub classifier: Classifier,
}

/// The application plane: the deployed pods, the workload generators and
/// every request in flight between them.
pub(crate) struct AppPlane {
    pub cluster: Cluster,
    pub gens: Vec<OpenLoopGen>,
    pub rpcs: store::IdSlab<Rpc>,
    pub execs: store::IdSlab<Exec>,
    pub compute_jobs: store::IdSlab<ComputeJob>,
    /// When dead RPC deadlines are next compacted out of the queue's far
    /// heap, and what compaction has done so far.
    pub far: rpc::FarCompaction,
    next_rpc: u64,
    next_exec: u64,
    next_token: u64,
}

/// The fully wired world (see module docs), one field per plane that owns
/// its state. A handler changes the plane it belongs to and reads the
/// others; observers (`obs::Observers`) read the model planes only by
/// `&`, so no observation can change what the model does.
pub struct Simulation {
    /// Scalar knobs of the run. The rest of the spec lives in the plane
    /// that reads it.
    pub(crate) config: SimConfig,
    /// Event queue, world RNG, world counters and the run horizon.
    pub(crate) ctx: engine::Ctx,
    pub(crate) net: engine::NetPlane,
    pub(crate) transport: engine::TransportPlane,
    pub(crate) mesh: MeshPlane,
    pub(crate) app: AppPlane,
    /// Fluid traffic plane: rate flows for
    /// [`meshlayer_workload::Granularity::Fluid`] workloads (see
    /// [`mod@self::fluid`]). Empty for all-packet worlds.
    pub(crate) fluid: fluid::FluidRt,
    /// Chaos plane: the fault script and what each active fault saved for
    /// its clear phase.
    pub(crate) chaos: chaos_rt::ChaosRt,
    pub(crate) obs: obs::Observers,
}

impl Simulation {
    /// Build the world from a spec: deploy the cluster (ingress gateway
    /// first, then the app), wire the mesh, build the fabric, install the
    /// enabled cross-layer optimizations, and prime the workload
    /// generators.
    pub fn build(spec: SimSpec) -> Simulation {
        let SimSpec {
            services,
            network,
            workloads,
            classifier,
            xlayer,
            config,
            mesh: mesh_config,
            adaptation,
            chaos,
        } = spec;
        let rng = SimRng::new(config.seed);
        let node_names: Vec<String> = (0..config.nodes).map(|i| format!("node{i}")).collect();
        let node_refs: Vec<&str> = node_names.iter().map(String::as_str).collect();
        let mut cluster = Cluster::new(&node_refs, config.pods_per_node);

        // The ingress gateway is itself a pod with a sidecar (stage 1).
        let ingress_spec = ServiceSpec::new(
            INGRESS_SERVICE,
            1,
            meshlayer_cluster::ServiceBehavior::respond(0.0),
        );
        cluster.deploy(ingress_spec);
        let ingress_pod = cluster.endpoints(INGRESS_SERVICE, None)[0];
        let mut mesh = mesh_config;
        for svc in services {
            // Mesh config: one passthrough route per service. Policy
            // pushes rebuild the live table from these base routes.
            mesh.routes.push(RouteRule::passthrough(svc.name.clone()));
            cluster.deploy(svc);
        }
        let policy =
            policy_rt::PolicyRt::new(xlayer, network.queue_pkts, adaptation, mesh.routes.clone());
        let mut fabric = Fabric::build(&cluster, &network);

        // Policy v1 goes through the per-layer functions of a runtime push.
        // Off is what `Cluster::deploy`/`Fabric::build` made: only on layers apply.
        let v1 = policy.plane.latest();
        if v1.xlayer.mesh_subset_routing {
            mesh.routes = xlayer::apply_routes(&policy.base_routes, &cluster, v1);
        }
        if v1.xlayer.compute_prio {
            xlayer::apply_compute(&mut cluster, v1);
        }
        if v1.xlayer.host_tc {
            xlayer::apply_host_tc(&mut fabric, &cluster, v1, SimTime::ZERO);
        }
        if v1.xlayer.net_prio {
            xlayer::apply_net_prio(&mut fabric, &cluster, v1, SimTime::ZERO);
        }

        let mut control = ControlPlane::new(mesh.clone());
        let mut sidecars = store::Sidecars::default();
        for p in cluster.pods() {
            let service = p.labels.get("app").cloned().unwrap_or_default();
            // Each sidecar draws from its own stream, a pure function
            // of (seed, pod).
            let sc_rng = rng.pod_stream(p.id.0 as u64);
            control.issue_cert(p.id, &service, SimTime::ZERO);
            sidecars.push(
                p.id,
                Sidecar::new(p.name.clone(), service, mesh.clone(), sc_rng),
            );
        }

        // Only per-packet workloads get open-loop generators; fluid
        // classes are handled by the fluid plane. Seeding stays keyed on
        // the *spec* index so an all-packet world draws exactly the same
        // streams it always did.
        let fluid = fluid::FluidRt::build(&workloads, &cluster);
        let gens: Vec<OpenLoopGen> = workloads
            .into_iter()
            .enumerate()
            .filter(|(_, w)| w.granularity == meshlayer_workload::Granularity::Packet)
            .map(|(i, w)| OpenLoopGen::new(w, SimTime::ZERO, rng.split_idx("workload", i as u64)))
            .collect();
        let subsets = subset::Subsets::build(config.subset_size, &cluster, &rng);

        let end_at = SimTime::ZERO + config.duration;
        let obs = obs::Observers::new(&config, end_at);
        Simulation {
            ctx: engine::Ctx {
                queue: EventQueue::new(),
                rng: rng.split("world"),
                stats: WorldStats::default(),
                end_at,
            },
            net: engine::NetPlane {
                fabric,
                pkts: store::Slab::default(),
            },
            transport: engine::TransportPlane::default(),
            mesh: MeshPlane {
                sidecars,
                subsets,
                control,
                sdn: crate::sdn::SdnController::new(0.7),
                policy,
                ingress_pod,
                classifier,
            },
            app: AppPlane {
                cluster,
                gens,
                rpcs: store::IdSlab::default(),
                execs: store::IdSlab::default(),
                compute_jobs: store::IdSlab::default(),
                far: rpc::FarCompaction::default(),
                next_rpc: 1,
                next_exec: 1,
                next_token: 1,
            },
            fluid,
            chaos: chaos_rt::ChaosRt::new(chaos.unwrap_or_default()),
            obs,
            config,
        }
    }

    /// Current simulated time.
    #[inline(always)]
    pub fn now(&self) -> SimTime {
        self.ctx.queue.now()
    }

    /// The deployed cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.app.cluster
    }

    /// Mutable cluster access, for pre-run adjustments (e.g. marking a
    /// replica as a straggler via [`meshlayer_cluster::Pod::speed_factor`]).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.app.cluster
    }

    /// The network fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.net.fabric
    }

    /// The control plane.
    pub fn control(&self) -> &ControlPlane {
        &self.mesh.control
    }

    /// The trace collector.
    pub fn tracer(&self) -> &Tracer {
        &self.obs.tracer
    }

    /// The time-series telemetry hub (scrape series + SLO monitor).
    pub fn telemetry(&self) -> &TelemetryHub {
        &self.obs.telemetry
    }

    /// The SDN controller (§3.5 coordination).
    pub fn sdn(&self) -> &crate::sdn::SdnController {
        &self.mesh.sdn
    }

    /// The policy plane: version history, transitions, convergence state.
    pub fn policy(&self) -> &PolicyPlane {
        &self.mesh.policy.plane
    }

    /// The live cross-layer configuration (policy-applied, not the spec).
    pub fn live_xlayer(&self) -> &XLayerConfig {
        &self.mesh.policy.live
    }

    /// Schedule a runtime policy change: at simulated time `at` the
    /// control plane pushes a new snapshot with the given toggles (and the
    /// default TC share) to every layer. Returns the new version.
    pub fn schedule_policy_change(
        &mut self,
        at: SimTime,
        config: XLayerConfig,
        reason: &str,
    ) -> u64 {
        self.schedule_policy_change_with(at, config, xlayer::HIGH_PRIO_SHARE, reason)
    }

    /// [`Simulation::schedule_policy_change`] with an explicit high-class
    /// TC bandwidth share.
    pub fn schedule_policy_change_with(
        &mut self,
        at: SimTime,
        config: XLayerConfig,
        high_share: f64,
        reason: &str,
    ) -> u64 {
        let policy = &mut self.mesh.policy;
        let version = policy
            .plane
            .propose(config, high_share, policy.queue_pkts, at, reason);
        self.ctx.queue.push(at, Ev::PolicyPush { version });
        version
    }

    /// Record wall-clock timings of the event loop during the next
    /// `run()`. Wall-clock only:
    /// event order, RNG draws, metrics and flight-recorder captures are
    /// byte-identical whether or not profiling is enabled.
    pub fn enable_profiling(&mut self) {
        self.obs.profile_requested = true;
    }

    /// Take the phase profile recorded by the last profiled run.
    pub fn take_profile(&mut self) -> Option<meshlayer_prof::ProfileReport> {
        self.obs.profile.take()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &WorldStats {
        &self.ctx.stats
    }
}

impl AppPlane {
    pub(crate) fn alloc_rpc(&mut self) -> u64 {
        let id = self.next_rpc;
        self.next_rpc += 1;
        id
    }

    pub(crate) fn alloc_exec(&mut self) -> u64 {
        let id = self.next_exec;
        self.next_exec += 1;
        id
    }

    pub(crate) fn alloc_token(&mut self) -> u64 {
        let id = self.next_token;
        self.next_token += 1;
        id
    }

    /// The service name a pod belongs to.
    pub(crate) fn service_of(&self, pod: PodId) -> &str {
        let labels = &self.cluster.pod(pod).labels;
        labels.get("app").map_or("", String::as_str)
    }
}
