//! Property-based transport tests: reliable delivery under arbitrary
//! loss/reorder patterns, for every congestion controller, and
//! timer-driver equivalence: one live timer event per endpoint fires
//! `on_timer` exactly when an event per timer restart does.

use meshlayer_netsim::Packet;
use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_transport::{CcAlgo, Conn, ConnConfig, ConnOutput, Delivered, TimerPop, TimerSlot};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The calls [`lossy_exchange`] makes into an endpoint.
trait Endpoint {
    fn send_message(&mut self, id: u64, len: u64, now: SimTime) -> ConnOutput;
    fn on_packet(&mut self, pkt: &Packet, now: SimTime) -> ConnOutput;
    fn on_timer(&mut self, gen: u64, now: SimTime) -> ConnOutput;
    fn timer_state(&self) -> Option<(SimTime, u64)>;
}

impl Endpoint for Conn {
    fn send_message(&mut self, id: u64, len: u64, now: SimTime) -> ConnOutput {
        Conn::send_message(self, id, len, now)
    }
    fn on_packet(&mut self, pkt: &Packet, now: SimTime) -> ConnOutput {
        Conn::on_packet(self, pkt, now)
    }
    fn on_timer(&mut self, gen: u64, now: SimTime) -> ConnOutput {
        Conn::on_timer(self, gen, now)
    }
    fn timer_state(&self) -> Option<(SimTime, u64)> {
        Conn::timer_state(self)
    }
}

/// Two copies of one endpoint fed the same calls: `by_value` through the
/// by-value methods, `into` through the `*_into` ones, writing into one
/// buffer that is reused (cleared, capacity kept) for every call. Each
/// call asserts the two emitted field-identical packets, deliveries and
/// timers.
struct Twin {
    by_value: Conn,
    into: Conn,
    buf: ConnOutput,
}

impl Twin {
    fn new(conn: u64, dir: u8, cfg: &ConnConfig) -> Twin {
        let node = meshlayer_netsim::NodeId;
        let (local, remote) = (node(dir as u32), node(1 - dir as u32));
        // Dirty from the start: capacity left over from earlier output.
        let mut buf = ConnOutput::default();
        buf.packets.push(Packet::data(0, local, remote, 0, 0, 1, 0));
        buf.delivered.push(Delivered { msg: 0, len: 1 });
        buf.clear();
        Twin {
            by_value: Conn::new(conn, dir, local, remote, cfg.clone()),
            into: Conn::new(conn, dir, local, remote, cfg.clone()),
            buf,
        }
    }

    /// Compare `out` with what the `into` twin wrote, then reset the buffer.
    fn check(&mut self, out: ConnOutput) -> ConnOutput {
        assert_eq!(
            format!("{:?}", out.packets),
            format!("{:?}", self.buf.packets)
        );
        assert_eq!(out.delivered, self.buf.delivered);
        assert_eq!(out.timer, self.buf.timer);
        assert_eq!(
            format!("{:?}", self.by_value.stats()),
            format!("{:?}", self.into.stats())
        );
        self.buf.clear();
        out
    }
}

impl Endpoint for Twin {
    fn send_message(&mut self, id: u64, len: u64, now: SimTime) -> ConnOutput {
        self.into.send_message_into(id, len, now, &mut self.buf);
        let out = self.by_value.send_message(id, len, now);
        self.check(out)
    }
    fn on_packet(&mut self, pkt: &Packet, now: SimTime) -> ConnOutput {
        self.into.on_packet_into(pkt, now, &mut self.buf);
        let out = self.by_value.on_packet(pkt, now);
        self.check(out)
    }
    fn on_timer(&mut self, gen: u64, now: SimTime) -> ConnOutput {
        self.into.on_timer_into(gen, now, &mut self.buf);
        let out = self.by_value.on_timer(gen, now);
        self.check(out)
    }
    fn timer_state(&self) -> Option<(SimTime, u64)> {
        assert_eq!(self.by_value.timer_state(), self.into.timer_state());
        self.by_value.timer_state()
    }
}

/// Run a lossy exchange: each a->b packet is dropped iff the next value of
/// `drops` says so (acks and retransmissions always get through — losing
/// them too only changes timing, and RTO handling is separately tested).
/// Timers fire whenever the exchange goes quiet.
fn lossy_exchange<E: Endpoint>(
    a: &mut E,
    b: &mut E,
    msgs: &[(u64, u64)],
    mut drop_pattern: VecDeque<bool>,
) -> Vec<Delivered> {
    let owd = SimDuration::from_micros(100);
    let mut now = SimTime::ZERO;
    let mut to_b: Vec<Packet> = Vec::new();
    for &(id, len) in msgs {
        to_b.extend(a.send_message(id, len, now).packets);
    }
    let mut to_a: Vec<Packet> = Vec::new();
    let mut delivered = Vec::new();
    let mut first_pass = true;
    for _round in 0..200_000 {
        if to_b.is_empty() && to_a.is_empty() {
            // Quiescent: do what a driver does — jump to the armed timer's
            // fire time and deliver the timer event (drives RTO recovery).
            match a.timer_state() {
                Some((at, gen)) => {
                    now = now.max(at);
                    let o = a.on_timer(gen, now);
                    if o.packets.is_empty() {
                        break; // timer no longer relevant: done
                    }
                    to_b.extend(o.packets);
                }
                None => break, // truly done (or stuck: caught by assert below)
            }
        }
        now += owd;
        let mut next_a = Vec::new();
        let mut next_b = Vec::new();
        for p in to_b.drain(..) {
            let lose = first_pass && drop_pattern.pop_front().unwrap_or(false);
            if lose {
                continue;
            }
            let o = b.on_packet(&p, now);
            delivered.extend(o.delivered);
            next_a.extend(o.packets);
        }
        for p in to_a.drain(..) {
            let o = a.on_packet(&p, now);
            next_b.extend(o.packets);
        }
        if drop_pattern.is_empty() {
            first_pass = false;
        }
        to_a = next_a;
        to_b = next_b;
    }
    delivered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message is delivered exactly once, with the right length,
    /// under arbitrary first-transmission loss.
    #[test]
    fn reliable_delivery_under_loss(
        lens in prop::collection::vec(1u64..60_000, 1..8),
        drops in prop::collection::vec(any::<bool>(), 0..64),
        algo_idx in 0usize..4,
    ) {
        let algo = [CcAlgo::Reno, CcAlgo::Cubic, CcAlgo::Ledbat, CcAlgo::TcpLp][algo_idx];
        let cfg = ConnConfig {
            cc: algo,
            ..ConnConfig::default()
        };
        let mut a = Conn::new(9, 0, meshlayer_netsim::NodeId(0), meshlayer_netsim::NodeId(1), cfg.clone());
        let mut b = Conn::new(9, 1, meshlayer_netsim::NodeId(1), meshlayer_netsim::NodeId(0), cfg);
        let msgs: Vec<(u64, u64)> = lens.iter().enumerate().map(|(i, &l)| (i as u64 + 1, l)).collect();
        let delivered = lossy_exchange(&mut a, &mut b, &msgs, drops.into());
        prop_assert_eq!(delivered.len(), msgs.len(), "missing deliveries");
        let mut got: Vec<(u64, u64)> = delivered.iter().map(|d| (d.msg, d.len)).collect();
        got.sort_unstable();
        let mut want = msgs.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(b.stats().msgs_delivered, msgs.len() as u64);
    }

    /// The `*_into` calls with one reused buffer emit exactly what the
    /// by-value calls do, on both endpoints, under the same loss patterns
    /// (and the reordering their retransmissions cause).
    #[test]
    fn into_calls_with_a_reused_buffer_match_by_value_calls(
        lens in prop::collection::vec(1u64..60_000, 1..8),
        drops in prop::collection::vec(any::<bool>(), 0..64),
        algo_idx in 0usize..4,
    ) {
        let cfg = ConnConfig {
            cc: [CcAlgo::Reno, CcAlgo::Cubic, CcAlgo::Ledbat, CcAlgo::TcpLp][algo_idx],
            ..ConnConfig::default()
        };
        let (mut a, mut b) = (Twin::new(9, 0, &cfg), Twin::new(9, 1, &cfg));
        let msgs: Vec<(u64, u64)> = lens.iter().enumerate().map(|(i, &l)| (i as u64 + 1, l)).collect();
        let delivered = lossy_exchange(&mut a, &mut b, &msgs, drops.into());
        prop_assert_eq!(delivered.len(), msgs.len(), "missing deliveries");
    }

    /// Reordering (reversing packet batches) never breaks reassembly.
    #[test]
    fn delivery_under_reordering(lens in prop::collection::vec(1u64..40_000, 1..6)) {
        let cfg = ConnConfig::default();
        let mut a = Conn::new(3, 0, meshlayer_netsim::NodeId(0), meshlayer_netsim::NodeId(1), cfg.clone());
        let mut b = Conn::new(3, 1, meshlayer_netsim::NodeId(1), meshlayer_netsim::NodeId(0), cfg);
        let mut now = SimTime::ZERO;
        let mut to_b: Vec<Packet> = Vec::new();
        for (i, &l) in lens.iter().enumerate() {
            to_b.extend(a.send_message(i as u64 + 1, l, now).packets);
        }
        let mut to_a: Vec<Packet> = Vec::new();
        let mut n_delivered = 0;
        for _ in 0..100_000 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            now += SimDuration::from_micros(100);
            // Reverse each batch: worst-case reordering within a window.
            to_b.reverse();
            let mut next_a = Vec::new();
            let mut next_b = Vec::new();
            for p in to_b.drain(..) {
                let o = b.on_packet(&p, now);
                n_delivered += o.delivered.len();
                next_a.extend(o.packets);
            }
            for p in to_a.drain(..) {
                let o = a.on_packet(&p, now);
                next_b.extend(o.packets);
            }
            to_a = next_a;
            to_b = next_b;
        }
        prop_assert_eq!(n_delivered, lens.len());
    }

    /// cwnd never goes below one MSS for any algorithm under any event mix.
    #[test]
    fn cwnd_floor(events in prop::collection::vec(0u8..3, 1..200), algo_idx in 0usize..4) {
        let algo = [CcAlgo::Reno, CcAlgo::Cubic, CcAlgo::Ledbat, CcAlgo::TcpLp][algo_idx];
        let mut cc = algo.build();
        let mut now = SimTime::ZERO;
        for e in events {
            now += SimDuration::from_millis(1);
            match e {
                0 => cc.on_ack(1448, SimDuration::from_millis(2), now),
                1 => cc.on_loss(now),
                _ => cc.on_timeout(now),
            }
            prop_assert!(cc.cwnd() >= meshlayer_transport::MSS, "{} cwnd {}", cc.name(), cc.cwnd());
        }
    }
}

// ---------------------------------------------------------------------
// Timer drivers: one live event per endpoint vs. one event per restart
// ---------------------------------------------------------------------

/// Who schedules the sender's timer events.
#[derive(Clone, Copy, Debug)]
enum TimerDriver {
    /// The reference: an event per generation ([`ConnOutput::timer`]
    /// restarts); [`Conn::on_timer`] discards the stale ones.
    PerRestart { scheduled_gen: u64 },
    /// A single self-rescheduling event ([`TimerSlot`]).
    OneLive(TimerSlot),
}

/// One step of the exchange. The derived order is the tie rule at one
/// instant, the same under both drivers: packets, then submissions, then
/// timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    ToB(usize),
    ToA(usize),
    Send(usize),
    Timer(u64),
}

/// What the sender did, as the network saw it.
#[derive(Debug, PartialEq)]
struct TimerTrace {
    /// Instants at which `on_timer` took an RTO.
    fires: Vec<SimTime>,
    /// Every data packet the sender emitted: (instant, stream offset).
    sent: Vec<(SimTime, u64)>,
    timeouts: u64,
    fast_retx: u64,
    delivered: u64,
}

/// Run one sender/receiver pair under `driver`; returns the trace and how
/// many timer events the driver popped. The n-th data packet is lost iff
/// `data_loss[n % len]`, likewise acks; one-way delay of the n-th packet
/// is 60 us plus `jitter[n % len]`.
fn timed_exchange(
    mut driver: TimerDriver,
    cfg: &ConnConfig,
    msgs: &[(u64, u64)],
    data_loss: &[bool],
    ack_loss: &[bool],
    jitter: &[u64],
) -> (TimerTrace, u64) {
    let node = meshlayer_netsim::NodeId;
    let mut a = Conn::new(5, 0, node(0), node(1), cfg.clone());
    let mut b = Conn::new(5, 1, node(1), node(0), cfg.clone());
    let mut heap = BinaryHeap::new();
    let mut pushed = 0u64;
    let mut push = |heap: &mut BinaryHeap<_>, at: SimTime, step: Step| {
        heap.push(Reverse((at, step, pushed)));
        pushed += 1;
    };
    for (i, &(at_us, _)) in msgs.iter().enumerate() {
        push(&mut heap, SimTime::from_micros(at_us), Step::Send(i));
    }
    let mut wire: Vec<Packet> = Vec::new();
    let mut trace = TimerTrace {
        fires: Vec::new(),
        sent: Vec::new(),
        timeouts: 0,
        fast_retx: 0,
        delivered: 0,
    };
    let (mut n_data, mut n_ack, mut timer_pops) = (0usize, 0usize, 0u64);
    while let Some(Reverse((now, step, _))) = heap.pop() {
        // The sender's output, if this step poked it.
        let out: Option<ConnOutput> = match step {
            Step::Send(i) => Some(a.send_message(i as u64 + 1, msgs[i].1, now)),
            Step::ToA(p) => Some(a.on_packet(&wire[p], now)),
            Step::ToB(p) => {
                let o = b.on_packet(&wire[p], now);
                trace.delivered += o.delivered.len() as u64;
                for ack in o.packets {
                    let lost = ack_loss[n_ack % ack_loss.len()];
                    let delay = 60_000 + jitter[n_ack % jitter.len()];
                    n_ack += 1;
                    if !lost {
                        wire.push(ack);
                        push(
                            &mut heap,
                            now + SimDuration::from_nanos(delay),
                            Step::ToA(wire.len() - 1),
                        );
                    }
                }
                None
            }
            Step::Timer(gen) => {
                timer_pops += 1;
                let fire = match &mut driver {
                    TimerDriver::PerRestart { .. } => Some(gen),
                    TimerDriver::OneLive(slot) => match slot.on_pop(now, a.timer_state()) {
                        TimerPop::Idle => None,
                        TimerPop::Push(at) => {
                            push(&mut heap, at, Step::Timer(0));
                            None
                        }
                        TimerPop::Fire(gen) => Some(gen),
                    },
                };
                fire.map(|gen| {
                    let before = a.stats().timeouts;
                    let o = a.on_timer(gen, now);
                    if a.stats().timeouts > before {
                        trace.fires.push(now);
                    }
                    o
                })
            }
        };
        let Some(out) = out else { continue };
        for pkt in out.packets {
            trace.sent.push((now, pkt.seq));
            let lost = data_loss[n_data % data_loss.len()];
            let delay = 60_000 + jitter[n_data % jitter.len()];
            n_data += 1;
            if !lost {
                wire.push(pkt);
                push(
                    &mut heap,
                    now + SimDuration::from_nanos(delay),
                    Step::ToB(wire.len() - 1),
                );
            }
        }
        match &mut driver {
            TimerDriver::PerRestart { scheduled_gen } => {
                if let Some((at, gen)) = out.timer {
                    if gen > *scheduled_gen {
                        *scheduled_gen = gen;
                        push(&mut heap, at, Step::Timer(gen));
                    }
                }
            }
            TimerDriver::OneLive(slot) => {
                if let Some(at) = slot.arm(out.timer) {
                    push(&mut heap, at, Step::Timer(0));
                }
            }
        }
    }
    trace.timeouts = a.stats().timeouts;
    trace.fast_retx = a.stats().fast_retx;
    (trace, timer_pops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under arbitrary data loss, ack loss and delay jitter, the single
    /// live timer event takes every RTO at the instant the
    /// event-per-restart driver does — so the sender emits the same
    /// packets at the same instants — with no more (and, once acks flow,
    /// far fewer) timer events.
    #[test]
    fn one_live_timer_event_fires_when_an_event_per_restart_does(
        msgs in prop::collection::vec((0u64..30_000, 1u64..80_000), 1..6),
        data_loss in prop::collection::vec(0u8..6, 1..24),
        ack_loss in prop::collection::vec(0u8..6, 1..24),
        jitter in prop::collection::vec(0u64..400_000, 1..16),
        algo_idx in 0usize..4,
    ) {
        let cfg = ConnConfig {
            cc: [CcAlgo::Reno, CcAlgo::Cubic, CcAlgo::Ledbat, CcAlgo::TcpLp][algo_idx],
            ..ConnConfig::default()
        };
        // About one packet in six is lost, and some packet of every cycle
        // gets through, so the exchange ends.
        let lossy = |draws: Vec<u8>| -> Vec<bool> {
            draws.iter().map(|&d| d == 0).chain([false]).collect()
        };
        let (data_loss, ack_loss) = (lossy(data_loss), lossy(ack_loss));
        let run = |driver| timed_exchange(driver, &cfg, &msgs, &data_loss, &ack_loss, &jitter);
        let (reference, ref_pops) = run(TimerDriver::PerRestart { scheduled_gen: 0 });
        let (one_live, live_pops) = run(TimerDriver::OneLive(TimerSlot::default()));
        prop_assert_eq!(&reference, &one_live);
        prop_assert_eq!(reference.delivered, msgs.len() as u64, "exchange did not complete");
        prop_assert!(live_pops <= ref_pops, "{live_pops} timer events vs {ref_pops}");
    }
}
