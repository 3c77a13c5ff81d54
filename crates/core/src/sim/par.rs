//! Sharded conservative-parallel event engine.
//!
//! The topology is partitioned into logical processes (LPs): one per
//! fabric node — a pod together with its sidecar and the endpoints of
//! its access links — plus one *control* LP owning topology-wide events
//! (workload arrivals enter at the ingress pod's LP; ticks and policy
//! events live on the control LP). Each LP owns its own calendar
//! [`EventQueue`], and the engine advances in conservative time windows
//! `[t_min, t_min + L)` where `L` is the Chandy–Misra lookahead: the
//! minimum delay of any link whose endpoints live in different LPs
//! (every cross-LP interaction crosses such a link, so no event outside
//! the window can schedule work inside it).
//!
//! Execution of one window has two phases:
//!
//! 1. **Drain (parallel)**: worker threads pop every event scheduled
//!    before the horizon out of the per-LP calendars — the calendar
//!    maintenance (bucket sorts, overflow migration, cursor advance)
//!    that the sequential engine pays inside `pop()` — and hand the
//!    sorted batches back. No handler runs during this phase, so the
//!    drains are embarrassingly parallel.
//! 2. **Commit (sequenced)**: the batches are merged by the global
//!    total order `(SimTime, push-seq)` and handlers execute one at a
//!    time against the un-sharded world state. Events a handler pushes
//!    inside the window go straight into the live merge heap; events at
//!    or past the horizon go to their LP's calendar.
//!
//! Because the commit phase replays the exact total order the
//! single-threaded engine would pop — push sequence numbers are
//! assigned in handler execution order, which the merge rule preserves
//! inductively — the committed event stream, every RNG draw, every id
//! allocation, the flight-recorder digest chain, telemetry scrapes and
//! [`crate::metrics::RunMetrics`] are bit-identical to `threads = 1`.
//! Notably, determinism does *not* depend on the LP assignment: the
//! merge key is global, so affinity only spreads drain work. The
//! lookahead window is what a fully-parallel conservative executor
//! could safely run concurrently; here it bounds each barrier's batch.

use super::{Ev, Simulation};
use meshlayer_prof::PhaseProfiler;
use meshlayer_simcore::{EventQueue, SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::mpsc;
use std::time::Instant;

/// An event routed into a per-LP calendar: the payload carries the
/// *global* push sequence so cross-LP merges preserve the total order.
pub(crate) struct SeqEv {
    seq: u64,
    ev: Ev,
}

/// A drained (or freshly pushed in-window) event awaiting commit.
struct WinEv {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for WinEv {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for WinEv {}
impl PartialOrd for WinEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WinEv {
    // Reversed: BinaryHeap is a max-heap, the commit loop wants the
    // earliest `(at, seq)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Static partition of the topology into logical processes.
pub(crate) struct ShardPlan {
    /// LP index per fabric node (`NodeId.0` → LP).
    lp_of_node: Vec<usize>,
    /// LP index per link (`LinkId.0` → the LP owning the `from` node).
    lp_of_link: Vec<usize>,
    /// The control LP: ticks, policy pushes/applies.
    control_lp: usize,
    /// LP of the ingress pod's node (workload arrivals enter here).
    ingress_lp: usize,
    /// Number of LPs (`lp_of_node` targets plus the control LP).
    lp_count: usize,
    /// Conservative lookahead: minimum cross-LP link delay.
    pub(crate) lookahead: SimDuration,
}

impl ShardPlan {
    /// Partition the fabric. Returns `None` when no conservative
    /// lookahead exists (no cross-LP link with a positive delay), in
    /// which case the caller must fall back to the sequential engine.
    pub(crate) fn build(sim: &Simulation) -> Option<ShardPlan> {
        let topo = &sim.fabric.topology;
        let nodes = topo.node_count();
        if nodes < 2 {
            return None;
        }
        // One LP per fabric node: pod LPs plus the switch LP.
        let lp_of_node: Vec<usize> = (0..nodes).collect();
        let lp_of_link: Vec<usize> = topo
            .links()
            .map(|l| lp_of_node[l.from().0 as usize])
            .collect();
        let lookahead = topo
            .min_link_delay(|l| lp_of_node[l.from().0 as usize] != lp_of_node[l.to().0 as usize])?;
        if lookahead == SimDuration::from_nanos(0) {
            return None;
        }
        // Below ~10 µs the conservative windows get so narrow that
        // barrier overhead swamps any parallel win (DESIGN.md §13); the
        // run stays correct, so warn rather than refuse.
        if lookahead < SimDuration::from_micros(10) {
            if let Some(l) = topo.links().find(|l| {
                l.delay() == lookahead
                    && lp_of_node[l.from().0 as usize] != lp_of_node[l.to().0 as usize]
            }) {
                eprintln!(
                    "par: WARN: lookahead {} ns is below the 10 µs floor — link {} -> {} has the \
                     smallest cross-shard delay; expect barrier overhead to dominate",
                    lookahead.as_nanos(),
                    topo.node_name(l.from()),
                    topo.node_name(l.to()),
                );
            }
        }
        let control_lp = nodes;
        let ingress_lp = lp_of_node[sim.fabric.node_of(sim.ingress_pod).0 as usize];
        Some(ShardPlan {
            lp_of_node,
            lp_of_link,
            control_lp,
            ingress_lp,
            lp_count: nodes + 1,
            lookahead,
        })
    }
}

/// Live state of a sharded run. Once installed on the [`Simulation`],
/// every push is routed here and the clock/counters replace the single
/// queue's (the spent `EventQueue` in `Simulation::queue` is left
/// drained).
pub(crate) struct ShardRt {
    pub(crate) plan: ShardPlan,
    /// Per-LP calendars. `None` while a queue is out with a drain worker.
    queues: Vec<Option<EventQueue<SeqEv>>>,
    /// The current window's merge heap, ordered by `(at, seq)`.
    window: BinaryHeap<WinEv>,
    /// End (exclusive) of the current window. Pushes before it enter the
    /// merge heap; pushes at or past it go to their LP calendar.
    horizon: SimTime,
    /// Next global push sequence — assigned in handler execution order,
    /// exactly as the single queue would.
    gseq: u64,
    /// Total pushes (mirrors `EventQueue::total_pushed`).
    pub(crate) pushed: u64,
    /// Total commits (mirrors `EventQueue::total_popped`).
    pub(crate) popped: u64,
    /// Time of the most recently committed event (the simulation clock).
    pub(crate) clock: SimTime,
}

impl ShardRt {
    fn new(plan: ShardPlan) -> ShardRt {
        let queues = (0..plan.lp_count)
            .map(|_| Some(EventQueue::new()))
            .collect();
        ShardRt {
            plan,
            queues,
            window: BinaryHeap::new(),
            horizon: SimTime::ZERO,
            gseq: 0,
            pushed: 0,
            popped: 0,
            clock: SimTime::ZERO,
        }
    }

    fn push_window(&mut self, at: SimTime, ev: Ev) {
        let seq = self.gseq;
        self.gseq += 1;
        self.pushed += 1;
        self.window.push(WinEv { at, seq, ev });
    }

    fn push_lp(&mut self, at: SimTime, ev: Ev, lp: usize) {
        let seq = self.gseq;
        self.gseq += 1;
        self.pushed += 1;
        self.queues[lp]
            .as_mut()
            .expect("LP calendars are home outside the drain phase")
            .push(at, SeqEv { seq, ev });
    }

    /// Earliest pending fire time across every LP calendar.
    fn next_time(&self) -> Option<SimTime> {
        self.queues
            .iter()
            .filter_map(|q| q.as_ref().and_then(EventQueue::peek_time))
            .min()
    }
}

/// Pop everything scheduled before `horizon` out of one LP calendar, in
/// the calendar's own `(at, seq)` order. Pure queue maintenance — safe
/// to run on any thread while no handler executes.
fn drain_until(q: &mut EventQueue<SeqEv>, horizon: SimTime) -> Vec<WinEv> {
    let mut out = Vec::new();
    while q.peek_time().is_some_and(|t| t < horizon) {
        let (at, sev) = q.pop().expect("peeked");
        out.push(WinEv {
            at,
            seq: sev.seq,
            ev: sev.ev,
        });
    }
    out
}

/// A drain request handed to a worker thread: the LP's calendar moves to
/// the worker and comes back with the drained batch.
struct DrainJob {
    lp: usize,
    queue: EventQueue<SeqEv>,
    horizon: SimTime,
    /// Profiler epoch when phase timing is on: the worker stamps its
    /// drain span relative to it. `None` keeps the unprofiled fast path
    /// free of clock reads.
    epoch: Option<Instant>,
}

struct DrainDone {
    lp: usize,
    queue: EventQueue<SeqEv>,
    batch: Vec<WinEv>,
    /// Which drain worker ran the job (profiler lane; committer is 0).
    worker: u32,
    /// `(start_ns, dur_ns)` of the drain relative to the profiler epoch.
    span: Option<(u64, u64)>,
}

// The drain protocol moves per-LP calendars (and therefore `Ev`
// payloads) across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DrainJob>();
    assert_send::<DrainDone>();
};

impl Simulation {
    /// Route one scheduled event. Sequential runs push straight into the
    /// single calendar; sharded runs route by LP affinity — or into the
    /// live window when the event fires before the current horizon.
    ///
    /// The split keeps `threads = 1` at baseline speed: the fast path is
    /// one branch plus the direct calendar push (small enough that LLVM
    /// inlines it into every handler, as the pre-sharding call did),
    /// while the affinity match lives in the outlined slow path.
    #[inline(always)]
    pub(crate) fn push_ev(&mut self, at: SimTime, ev: Ev) {
        if self.shards.is_none() {
            self.queue.push(at, ev);
        } else {
            self.push_ev_sharded(at, ev);
        }
    }

    #[inline(never)]
    fn push_ev_sharded(&mut self, at: SimTime, ev: Ev) {
        let rt = self.shards.as_mut().expect("sharded push");
        if at < rt.horizon {
            // In-window push: the committer is mid-merge; the event joins
            // the live heap (affinity is irrelevant to the total order).
            rt.push_window(at, ev);
            return;
        }
        let plan = &rt.plan;
        let lp = match &ev {
            Ev::Arrival { .. } => plan.ingress_lp,
            Ev::LinkTx { link } | Ev::LinkKick { link } => plan.lp_of_link[link.0 as usize],
            Ev::PktArrive { node, .. } => plan.lp_of_node[node.0 as usize],
            Ev::ConnTimer { conn, .. } | Ev::SendMsg { conn, .. } => match self.conns.get(*conn) {
                Some(pair) => {
                    let pod = if matches!(&ev, Ev::ConnTimer { dir, .. } | Ev::SendMsg { dir, .. } if *dir == 0)
                    {
                        pair.a_pod
                    } else {
                        pair.b_pod
                    };
                    plan.lp_of_node[self.fabric.node_of(pod).0 as usize]
                }
                None => plan.control_lp,
            },
            Ev::ExecStart { exec } => match self.execs.get(*exec) {
                Some(e) => plan.lp_of_node[self.fabric.node_of(e.pod).0 as usize],
                None => plan.control_lp,
            },
            Ev::ComputeDone { pod, .. } => plan.lp_of_node[self.fabric.node_of(*pod).0 as usize],
            Ev::AttemptResponse { rpc, .. }
            | Ev::PerTryTimeout { rpc, .. }
            | Ev::RpcTimeout { rpc }
            | Ev::RetryFire { rpc }
            | Ev::HedgeFire { rpc, .. } => match self.rpcs.get(*rpc) {
                Some(r) => plan.lp_of_node[self.fabric.node_of(r.caller).0 as usize],
                None => plan.control_lp,
            },
            Ev::SdnTick
            | Ev::ControlTick
            | Ev::TelemetryTick
            | Ev::PolicyPush { .. }
            | Ev::PolicyApply { .. }
            | Ev::Fault { .. }
            | Ev::FluidUpdate { .. } => plan.control_lp,
        };
        rt.push_lp(at, ev, lp);
    }

    /// Run the sharded engine with `threads` total workers (the commit
    /// thread counts as one; `threads - 1` drain workers are spawned).
    /// Falls back to the sequential engine when the topology yields no
    /// conservative lookahead.
    pub(crate) fn run_sharded(&mut self, threads: usize) -> crate::metrics::RunMetrics {
        let Some(plan) = ShardPlan::build(self) else {
            return self.run_sequential();
        };
        let lookahead = plan.lookahead;
        self.shards = Some(ShardRt::new(plan));

        // Events scheduled before the run (e.g. pre-planned policy
        // pushes) sit in the single calendar; migrate them in `(at, seq)`
        // order, which re-assigns global sequences without disturbing
        // their relative order — then seed, exactly as the sequential
        // engine would push them.
        let mut pre = Vec::new();
        while let Some((t, ev)) = self.queue.pop() {
            pre.push((t, ev));
        }
        for (t, ev) in pre {
            self.push_ev(t, ev);
        }
        self.seed_events();

        let drain_workers = threads.saturating_sub(1);
        let mut processed: u64 = 0;
        let max_events: u64 = 2_000_000_000;
        let mut prof = self
            .profile_requested
            .then(|| PhaseProfiler::sharded(threads, lookahead.as_nanos()));
        let mut meter = super::engine::EvMeter::new(self.profile_requested);
        let loop_wall = std::time::Instant::now();

        std::thread::scope(|s| {
            let (done_tx, done_rx) = mpsc::channel::<DrainDone>();
            let mut job_tx: Vec<mpsc::Sender<DrainJob>> = Vec::with_capacity(drain_workers);
            for w in 0..drain_workers {
                let (tx, rx) = mpsc::channel::<DrainJob>();
                let done = done_tx.clone();
                let worker = (w + 1) as u32; // lane 0 is the committer
                s.spawn(move || {
                    while let Ok(mut job) = rx.recv() {
                        let t0 = job.epoch.map(|e| (Instant::now(), e));
                        let batch = drain_until(&mut job.queue, job.horizon);
                        let span = t0.map(|(start, epoch)| {
                            (
                                start.duration_since(epoch).as_nanos() as u64,
                                start.elapsed().as_nanos() as u64,
                            )
                        });
                        if done
                            .send(DrainDone {
                                lp: job.lp,
                                queue: job.queue,
                                batch,
                                worker,
                                span,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                });
                job_tx.push(tx);
            }
            drop(done_tx);

            'run: loop {
                // ---- Window selection ----------------------------------
                let win_t0 = prof.as_ref().map(|_| Instant::now());
                let rt = self.shards.as_mut().expect("sharded run");
                let Some(t_min) = rt.next_time() else {
                    break 'run; // every calendar is empty
                };
                let horizon = t_min + lookahead;
                rt.horizon = horizon;

                // ---- Drain phase (parallel) ----------------------------
                let active: Vec<usize> = (0..rt.plan.lp_count)
                    .filter(|&lp| {
                        rt.queues[lp]
                            .as_ref()
                            .and_then(EventQueue::peek_time)
                            .is_some_and(|t| t < horizon)
                    })
                    .collect();
                let mut win_drain_end = None;
                let mut win_collect_end = None;
                if active.len() <= 1 || drain_workers == 0 {
                    for lp in active {
                        let q = rt.queues[lp].as_mut().expect("home");
                        let batch = drain_until(q, horizon);
                        rt.window.extend(batch);
                    }
                    if prof.is_some() {
                        let t = Instant::now();
                        win_drain_end = Some(t);
                        win_collect_end = Some(t); // nothing to wait for
                    }
                } else {
                    // Deterministic round-robin over {committer, workers};
                    // result arrival order is irrelevant to the merge.
                    let epoch = prof.as_ref().map(PhaseProfiler::epoch);
                    let mut outstanding = 0usize;
                    let mut own: Vec<usize> = Vec::new();
                    for (i, &lp) in active.iter().enumerate() {
                        let drainer = i % (drain_workers + 1);
                        if drainer == 0 {
                            own.push(lp);
                        } else {
                            let queue = rt.queues[lp].take().expect("home");
                            job_tx[drainer - 1]
                                .send(DrainJob {
                                    lp,
                                    queue,
                                    horizon,
                                    epoch,
                                })
                                .expect("drain worker alive");
                            outstanding += 1;
                        }
                    }
                    for lp in own {
                        let q = rt.queues[lp].as_mut().expect("home");
                        let batch = drain_until(q, horizon);
                        rt.window.extend(batch);
                    }
                    win_drain_end = prof.as_ref().map(|_| Instant::now());
                    for _ in 0..outstanding {
                        let done = done_rx.recv().expect("drain worker alive");
                        rt.queues[done.lp] = Some(done.queue);
                        rt.window.extend(done.batch);
                        if let (Some(p), Some((start, dur))) = (prof.as_mut(), done.span) {
                            p.on_worker_drain(done.worker, done.lp, start, dur);
                        }
                    }
                    win_collect_end = prof.as_ref().map(|_| Instant::now());
                }

                // ---- Commit phase (sequenced) --------------------------
                let win_events_before = processed;
                loop {
                    let rt = self.shards.as_mut().expect("sharded run");
                    let Some(WinEv { at: t, ev, .. }) = rt.window.pop() else {
                        break; // window exhausted: next barrier
                    };
                    rt.popped += 1;
                    rt.clock = t;
                    if t > self.end_at {
                        break 'run;
                    }
                    let code = ev.code() as usize;
                    let timed = meter.begin(code);
                    self.flight_observe(t, &ev);
                    self.handle(ev, t);
                    if let Some(start) = timed {
                        meter.end(code, start);
                    }
                    processed += 1;
                    assert!(processed < max_events, "event-loop runaway");
                }
                if let (Some(p), Some(t0), Some(de), Some(ce)) =
                    (prof.as_mut(), win_t0, win_drain_end, win_collect_end)
                {
                    p.on_window(t0, de, ce, Instant::now(), processed - win_events_before);
                }
            }
            drop(job_tx); // workers observe the hangup and exit
        });

        self.wall_ns = loop_wall.elapsed().as_nanos() as u64;
        if let Some(p) = prof {
            self.profile = Some(p.finish(self.wall_ns));
        }
        self.finish_run(&meter);
        crate::metrics::RunMetrics::collect(self, processed)
    }
}
