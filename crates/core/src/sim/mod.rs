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
use meshlayer_netsim::{LinkId, NodeId, Packet};
use meshlayer_simcore::FxHashMap;
use meshlayer_simcore::{Dist, EventQueue, SimDuration, SimRng, SimTime};
use meshlayer_telemetry::{TelemetryConfig, TelemetryHub};
use meshlayer_transport::{CcAlgo, Conn, ConnConfig, TimerSlot};
use meshlayer_workload::{OpenLoopGen, Recorder, WorkloadSpec};
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
    /// Control plane housekeeping: telemetry collection, cert rotation.
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

/// Per-entity snapshots from the previous telemetry scrape, so cumulative
/// counters can be reported as per-interval deltas. Both tables are
/// dense (links by `LinkId.0`, sidecar counters SoA by `PodId.0`) — at
/// generated-fabric scale a scrape touches every entity anyway.
#[derive(Default)]
pub(crate) struct ScrapeState {
    /// When the previous scrape ran.
    pub last_at: SimTime,
    /// Per link (indexed by `LinkId.0`): (busy_ns, drops) at the
    /// previous scrape.
    pub links: Vec<(u64, u64)>,
    /// Per sidecar: counter lanes at the previous scrape.
    pub sidecars: store::ScrapeSidecars,
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
#[derive(Clone, Debug)]
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
    pub completed: bool,
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
    pub service: String,
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
// The simulation
// ---------------------------------------------------------------------------

/// The fully wired world (see module docs).
pub struct Simulation {
    pub(crate) spec: SimSpec,
    /// Policy-plane runtime state: the live configuration, the base
    /// routes, the version history and the adaptation loop.
    pub(crate) policy: policy_rt::PolicyRt,
    pub(crate) cluster: Cluster,
    pub(crate) fabric: Fabric,
    pub(crate) control: ControlPlane,
    pub(crate) sidecars: store::Sidecars,
    pub(crate) ingress_pod: PodId,
    pub(crate) queue: EventQueue<Ev>,
    /// When dead RPC deadlines are next compacted out of the queue's far
    /// heap, and what compaction has done so far.
    pub(crate) far: rpc::FarCompaction,
    pub(crate) pair_pools: store::PairPools,
    pub(crate) conns: store::ConnTable<ConnPair>,
    pub(crate) msg_store: store::IdSlab<MsgInFlight>,
    /// Packets between a link's far end and their `PktArrive` event.
    pub(crate) pkts: store::Slab<Packet>,
    pub(crate) rpcs: store::IdSlab<Rpc>,
    pub(crate) execs: store::IdSlab<Exec>,
    pub(crate) compute_jobs: store::IdSlab<ComputeJob>,
    pub(crate) gens: Vec<OpenLoopGen>,
    pub(crate) sdn: crate::sdn::SdnController,
    pub(crate) recorder: Recorder,
    pub(crate) tracer: Tracer,
    pub(crate) telemetry: TelemetryHub,
    pub(crate) scrape: ScrapeState,
    /// Per-Ev-variant profile of the last run, indexed by [`Ev::code`]:
    /// (exact count, handler wall nanos estimated from the timed sample —
    /// zero unless profiling was enabled; see `engine::EvMeter`).
    pub(crate) ev_profile: [(u64, u64); Ev::COUNT],
    /// Sim-time latency provenance (always on; see [`mod@self::prov`]).
    pub(crate) prov: prov::ProvTrack,
    /// Chaos-plane runtime state (what each active fault saved for its
    /// clear phase).
    pub(crate) chaos: chaos_rt::ChaosRt,
    /// Fluid traffic plane: rate flows for
    /// [`meshlayer_workload::Granularity::Fluid`] workloads (see
    /// [`mod@self::fluid`]). Empty for all-packet worlds.
    pub(crate) fluid: fluid::FluidRt,
    /// Deterministic endpoint subsets per (client pod, service), when
    /// [`SimConfig::subset_size`] is non-zero.
    pub(crate) subsets: subset::Subsets,
    /// Whether the next `run()` should record wall-clock phase timings.
    profile_requested: bool,
    /// The phase profile of the last profiled run, until taken.
    profile: Option<meshlayer_prof::ProfileReport>,
    pub(crate) rng: SimRng,
    pub(crate) stats: WorldStats,
    pub(crate) end_at: SimTime,
    /// Flight-recorder capture/replay state, when attached.
    pub(crate) flight: Option<flight::FlightState>,
    /// Outcome of the last run's capture/replay, until taken.
    pub(crate) flight_outcome: Option<FlightOutcome>,
    /// Wall-clock nanoseconds the last `run()` spent in the event loop.
    pub(crate) wall_ns: u64,
    next_msg: u64,
    next_rpc: u64,
    next_exec: u64,
    next_token: u64,
}

impl Simulation {
    /// Build the world from a spec: deploy the cluster (ingress gateway
    /// first, then the app), wire the mesh, build the fabric, install the
    /// enabled cross-layer optimizations, and prime the workload
    /// generators.
    pub fn build(spec: SimSpec) -> Simulation {
        let rng = SimRng::new(spec.config.seed);
        let node_names: Vec<String> = (0..spec.config.nodes).map(|i| format!("node{i}")).collect();
        let node_refs: Vec<&str> = node_names.iter().map(String::as_str).collect();
        let mut cluster = Cluster::new(&node_refs, spec.config.pods_per_node);

        // The ingress gateway is itself a pod with a sidecar (stage 1).
        let ingress_spec = ServiceSpec::new(
            INGRESS_SERVICE,
            1,
            meshlayer_cluster::ServiceBehavior::respond(0.0),
        );
        cluster.deploy(ingress_spec);
        let ingress_pod = cluster.endpoints(INGRESS_SERVICE, None)[0];
        for svc in &spec.services {
            cluster.deploy(svc.clone());
        }

        // Mesh config: one passthrough route per service. Policy pushes
        // rebuild the live table from these base routes.
        let mut mesh = spec.mesh.clone();
        for svc in &spec.services {
            mesh.routes.push(RouteRule::passthrough(svc.name.clone()));
        }
        let policy = policy_rt::PolicyRt::new(&spec, mesh.routes.clone());
        let mut fabric = Fabric::build(&cluster, &spec.network);

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
        let pod_list: Vec<(PodId, String, String)> = cluster
            .pods()
            .map(|p| {
                (
                    p.id,
                    p.name.clone(),
                    p.labels.get("app").cloned().unwrap_or_default(),
                )
            })
            .collect();
        for (pid, name, service) in pod_list {
            // Each sidecar draws from its own stream, a pure function
            // of (seed, pod).
            let sc_rng = rng.pod_stream(pid.0 as u64);
            sidecars.push(
                pid,
                Sidecar::new(name, service.clone(), mesh.clone(), sc_rng),
            );
            control.issue_cert(pid, &service, SimTime::ZERO);
        }

        // Only per-packet workloads get open-loop generators; fluid
        // classes are handled by the fluid plane. Seeding stays keyed on
        // the *spec* index so an all-packet world draws exactly the same
        // streams it always did.
        let gens: Vec<OpenLoopGen> = spec
            .workloads
            .iter()
            .enumerate()
            .filter(|(_, w)| w.granularity == meshlayer_workload::Granularity::Packet)
            .map(|(i, w)| {
                OpenLoopGen::new(
                    w.clone(),
                    SimTime::ZERO,
                    rng.split_idx("workload", i as u64),
                )
            })
            .collect();

        let fluid = fluid::FluidRt::build(&spec, &cluster);
        let subsets = subset::Subsets::build(spec.config.subset_size, &cluster, &rng);

        let end_at = SimTime::ZERO + spec.config.duration;
        let window_start = SimTime::ZERO + spec.config.warmup;
        let window_end = end_at
            .saturating_since(SimTime::ZERO + spec.config.cooldown)
            .as_nanos();
        let recorder = Recorder::new(
            window_start,
            SimTime::from_nanos(window_end.max(window_start.as_nanos() + 1)),
        );
        let telemetry = TelemetryHub::new(spec.config.telemetry.clone());

        Simulation {
            spec,
            policy,
            cluster,
            fabric,
            control,
            sidecars,
            ingress_pod,
            queue: EventQueue::new(),
            far: rpc::FarCompaction::default(),
            pair_pools: store::PairPools::default(),
            conns: store::ConnTable::default(),
            msg_store: store::IdSlab::default(),
            pkts: store::Slab::default(),
            rpcs: store::IdSlab::default(),
            execs: store::IdSlab::default(),
            compute_jobs: store::IdSlab::default(),
            gens,
            sdn: crate::sdn::SdnController::new(0.7),
            recorder,
            tracer: Tracer::new(100_000),
            telemetry,
            scrape: ScrapeState::default(),
            ev_profile: [(0, 0); Ev::COUNT],
            prov: prov::ProvTrack::default(),
            chaos: chaos_rt::ChaosRt::default(),
            fluid,
            subsets,
            profile_requested: false,
            profile: None,
            rng: rng.split("world"),
            stats: WorldStats::default(),
            end_at,
            flight: None,
            flight_outcome: None,
            wall_ns: 0,
            next_msg: 1,
            next_rpc: 1,
            next_exec: 1,
            next_token: 1,
        }
    }

    /// Current simulated time.
    #[inline(always)]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The deployed cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access, for pre-run adjustments (e.g. marking a
    /// replica as a straggler via [`meshlayer_cluster::Pod::speed_factor`]).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The network fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The control plane.
    pub fn control(&self) -> &ControlPlane {
        &self.control
    }

    /// The trace collector.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The time-series telemetry hub (scrape series + SLO monitor).
    pub fn telemetry(&self) -> &TelemetryHub {
        &self.telemetry
    }

    /// The SDN controller (§3.5 coordination).
    pub fn sdn(&self) -> &crate::sdn::SdnController {
        &self.sdn
    }

    /// The policy plane: version history, transitions, convergence state.
    pub fn policy(&self) -> &PolicyPlane {
        &self.policy.plane
    }

    /// The live cross-layer configuration (policy-applied, not the spec).
    pub fn live_xlayer(&self) -> &XLayerConfig {
        &self.policy.live
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
        let version =
            self.policy
                .plane
                .propose(config, high_share, self.spec.network.queue_pkts, at, reason);
        self.push_ev(at, Ev::PolicyPush { version });
        version
    }

    /// Record wall-clock timings of the event loop during the next
    /// `run()`. Wall-clock only:
    /// event order, RNG draws, metrics and flight-recorder captures are
    /// byte-identical whether or not profiling is enabled.
    pub fn enable_profiling(&mut self) {
        self.profile_requested = true;
    }

    /// Take the phase profile recorded by the last profiled run.
    pub fn take_profile(&mut self) -> Option<meshlayer_prof::ProfileReport> {
        self.profile.take()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &WorldStats {
        &self.stats
    }

    pub(crate) fn alloc_msg(&mut self) -> u64 {
        let id = self.next_msg;
        self.next_msg += 1;
        id
    }

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

    /// Transport connections per (pod pair, priority class) — Envoy-style
    /// upstream connection pooling. Messages rotate across the pool.
    const CONNS_PER_PAIR: usize = 4;

    /// Resolve (or create) the connection pair between two pods for a
    /// transport class, returning `(conn id, direction for x)`.
    pub(crate) fn conn_for(&mut self, x: PodId, y: PodId, priority: Priority) -> (u64, u8) {
        let (class, dscp, cc) = self
            .policy
            .live
            .transport_class(priority, self.spec.config.default_cc);
        let (a, b) = if x.0 <= y.0 { (x, y) } else { (y, x) };
        // Rotate across the connection pool for this pair+class.
        let (slot, existing) = self.pair_pools.rotate(a, b, class, Self::CONNS_PER_PAIR);
        let id = if existing != 0 {
            existing
        } else {
            let id = self.conns.next_id();
            self.pair_pools.assign(a, b, class, slot, id);
            let mk_cfg = |src: PodId, dst: PodId, cluster: &Cluster| ConnConfig {
                dscp,
                cc,
                src_ip: cluster.pod(src).ip,
                dst_ip: cluster.pod(dst).ip,
                ..ConnConfig::default()
            };
            let cfg_a = mk_cfg(a, b, &self.cluster);
            let cfg_b = mk_cfg(b, a, &self.cluster);
            let conn_a = Conn::new(id, 0, self.fabric.node_of(a), self.fabric.node_of(b), cfg_a);
            let conn_b = Conn::new(id, 1, self.fabric.node_of(b), self.fabric.node_of(a), cfg_b);
            self.conns.push(ConnPair {
                a_pod: a,
                b_pod: b,
                a: conn_a,
                b: conn_b,
                class,
                timers: [TimerSlot::default(); 2],
            })
        };
        let dir = if x == a { 0 } else { 1 };
        (id, dir)
    }

    /// The service name a pod belongs to.
    pub(crate) fn service_of(&self, pod: PodId) -> String {
        self.cluster
            .pod(pod)
            .labels
            .get("app")
            .cloned()
            .unwrap_or_default()
    }
}
