//! Property-based tests for qdiscs and classification: conservation
//! (every enqueued packet is either delivered or counted as dropped),
//! ordering, and classifier totality — and for the link driver protocol:
//! releasing uncontended transmissions changes no instant, drop or counter
//! against the classic completion-event-per-packet driver.

use meshlayer_netsim::{
    ClassId, Deq, DropTail, FilterMatch, HtbClass, HtbLite, Link, LinkId, LinkOutcome, NodeId,
    Packet, Prio, Qdisc, TcTable, DSCP_BATCH, DSCP_LATENCY,
};
use meshlayer_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

fn pkt(id: u64, payload: u32, dscp: u8) -> Packet {
    Packet::data(id, NodeId(0), NodeId(1), 1, 0, payload, dscp)
}

/// Drain a qdisc fully at a far-future time (so shapers are token-rich).
fn drain(q: &mut dyn Qdisc) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut now = SimTime::from_secs(3600);
    loop {
        match q.dequeue(now) {
            Deq::Packet(p) => out.push(p),
            Deq::NotReadyUntil(at) => {
                assert!(at > now, "NotReadyUntil must be in the future");
                now = at;
            }
            Deq::Empty => break,
        }
    }
    out
}

/// Conservation check for any qdisc: enqueued = drained + dropped.
fn conservation(q: &mut dyn Qdisc, pkts: Vec<(u32, u8, u16)>) -> Result<(), TestCaseError> {
    let now = SimTime::ZERO;
    let mut accepted = HashSet::new();
    let mut dropped = 0u64;
    for (i, (payload, dscp, class)) in pkts.into_iter().enumerate() {
        let p = pkt(i as u64, payload % 9000, dscp);
        match q.enqueue(p, ClassId(class % 4), now) {
            Ok(()) => {
                accepted.insert(i as u64);
            }
            Err(_) => dropped += 1,
        }
    }
    prop_assert_eq!(q.dropped(), dropped);
    let out = drain(q);
    prop_assert_eq!(out.len(), accepted.len());
    let out_ids: HashSet<u64> = out.iter().map(|p| p.id).collect();
    prop_assert_eq!(out_ids, accepted);
    prop_assert_eq!(q.len(), 0);
    prop_assert_eq!(q.byte_len(), 0);
    Ok(())
}

proptest! {
    #[test]
    fn droptail_conserves(pkts in prop::collection::vec((0u32..9000, any::<u8>(), any::<u16>()), 0..300)) {
        let mut q = DropTail::new(64);
        conservation(&mut q, pkts)?;
    }

    #[test]
    fn prio_conserves(pkts in prop::collection::vec((0u32..9000, any::<u8>(), any::<u16>()), 0..300)) {
        let mut q = Prio::new(3, 32);
        conservation(&mut q, pkts)?;
    }

    #[test]
    fn htb_conserves(pkts in prop::collection::vec((0u32..9000, any::<u8>(), any::<u16>()), 0..300)) {
        let mut q = HtbLite::new(vec![
            HtbClass { limit_pkts: 32, ..HtbClass::new(95_000_000, 100_000_000, 0) },
            HtbClass { limit_pkts: 32, ..HtbClass::new(5_000_000, 100_000_000, 1) },
        ]);
        conservation(&mut q, pkts)?;
    }

    /// DropTail preserves FIFO order among accepted packets.
    #[test]
    fn droptail_fifo(pkts in prop::collection::vec(0u32..1500, 1..200)) {
        let mut q = DropTail::new(1000);
        let now = SimTime::ZERO;
        for (i, payload) in pkts.iter().enumerate() {
            q.enqueue(pkt(i as u64, *payload, 0), ClassId(0), now).unwrap();
        }
        let out = drain(&mut q);
        let ids: Vec<u64> = out.iter().map(|p| p.id).collect();
        prop_assert_eq!(ids, (0..pkts.len() as u64).collect::<Vec<_>>());
    }

    /// Strict priority: after draining, every band-0 packet precedes every
    /// band-1 packet that was enqueued before the drain began.
    #[test]
    fn prio_strictness(assignment in prop::collection::vec(0u16..2, 1..100)) {
        let mut q = Prio::new(2, 1000);
        let now = SimTime::ZERO;
        for (i, &band) in assignment.iter().enumerate() {
            q.enqueue(pkt(i as u64, 100, 0), ClassId(band), now).unwrap();
        }
        let out = drain(&mut q);
        let first_low = out.iter().position(|p| assignment[p.id as usize] == 1);
        if let Some(fl) = first_low {
            for p in &out[fl..] {
                prop_assert_eq!(assignment[p.id as usize], 1, "high after low");
            }
        }
    }

    /// The classifier is total: every packet gets some class, and adding a
    /// catch-all filter makes it that class.
    #[test]
    fn classifier_total(dscp in any::<u8>(), mark in any::<u32>(), dst_ip in any::<u32>()) {
        let mut t = TcTable::new(ClassId(7));
        let mut p = pkt(1, 100, dscp);
        p.mark = mark;
        p.dst_ip = dst_ip;
        prop_assert_eq!(t.classify(&p), ClassId(7));
        t.add_filter(FilterMatch::any(), ClassId(3));
        prop_assert_eq!(t.classify(&p), ClassId(3));
    }

    /// Filter matching is consistent: a filter built from a packet's own
    /// fields always matches that packet.
    #[test]
    fn filter_self_match(dscp in any::<u8>(), mark in any::<u32>(), src_ip in any::<u32>(), dst_ip in any::<u32>()) {
        let mut p = pkt(1, 100, dscp);
        p.mark = mark;
        p.src_ip = src_ip;
        p.dst_ip = dst_ip;
        let m = FilterMatch::any().dscp(dscp).mark(mark).src_ip(src_ip).dst_ip(dst_ip);
        prop_assert!(m.matches(&p));
    }
}

// ---------------------------------------------------------------------
// Link driver protocol: released wire vs. one completion event per packet
// ---------------------------------------------------------------------

/// One step of a link schedule. The derived order is the tie rule both
/// drivers share at one instant: a probe reads first (a tick scheduled
/// long ago pops ahead of a completion), then the link's own events,
/// then the outside world.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    Probe,
    TxDone,
    Kick,
    Admin(bool),
    Fluid(u64),
    Offer(u64),
}

/// What a driver observed: every delivery `(packet, arrival instant)` in
/// wire order, every dropped packet, the counters at each probe, and the
/// final counters.
#[derive(Debug, PartialEq)]
struct LinkTrace {
    arrivals: Vec<(u64, SimTime)>,
    dropped: Vec<u64>,
    probes: Vec<String>,
    end: String,
}

fn counters(link: &Link, now: SimTime) -> String {
    let s = link.stats();
    format!(
        "pkts={} bytes={} ls={} batch={} busy={} peak={}/{} admin_drops={} fluid_delay={} \
         drops={} queued={}/{} util={}",
        s.tx_packets,
        s.tx_bytes,
        s.bytes_for_dscp(DSCP_LATENCY),
        s.bytes_for_dscp(DSCP_BATCH),
        s.busy_ns,
        s.peak_queue_pkts,
        s.peak_queue_bytes,
        s.admin_drops,
        s.fluid_delay_ns,
        link.drops(),
        link.queue_len(),
        link.queue_bytes(),
        link.utilization(now),
    )
}

/// A 1 Gbps link (1500 B = 12 us) with short queues under one of four
/// qdiscs, latency-tagged packets classified ahead of batch ones.
fn test_link(qdisc: usize) -> Link {
    let q: Box<dyn Qdisc> = match qdisc {
        0 => Box::new(DropTail::new(6)),
        1 => Box::new(Prio::new(2, 4)),
        2 => Box::new(HtbLite::new(vec![
            HtbClass {
                limit_pkts: 4,
                ..HtbClass::new(600_000_000, 800_000_000, 0)
            },
            HtbClass {
                limit_pkts: 4,
                ..HtbClass::new(100_000_000, 400_000_000, 1)
            },
        ])),
        // A token-bucket shaper: one class with rate = ceil.
        _ => Box::new(HtbLite::new(vec![HtbClass {
            burst_bytes: 3_000,
            limit_pkts: 6,
            ..HtbClass::new(400_000_000, 400_000_000, 0)
        }])),
    };
    let mut link = Link::new(
        LinkId(0),
        NodeId(0),
        NodeId(1),
        1_000_000_000,
        SimDuration::from_micros(5),
        q,
    );
    link.tc_mut()
        .add_filter(FilterMatch::any().dscp(DSCP_LATENCY), ClassId(0));
    link.tc_mut()
        .add_filter(FilterMatch::any().dscp(DSCP_BATCH), ClassId(1));
    link
}

/// Drive `link` through `schedule`. With `release` the driver takes each
/// transmission the link will release and never waits for it; without,
/// it is the classic protocol: one `TxDone` per packet.
fn drive(
    mut link: Link,
    schedule: &[(SimTime, Step)],
    pkts: &[Packet],
    release: bool,
) -> LinkTrace {
    let mut heap = BinaryHeap::new();
    let mut pushed = 0u64;
    let mut push = |heap: &mut BinaryHeap<_>, at: SimTime, step: Step| {
        heap.push(Reverse((at, step, pushed)));
        pushed += 1;
    };
    for &(at, step) in schedule {
        push(&mut heap, at, step);
    }
    let mut trace = LinkTrace {
        arrivals: Vec::new(),
        dropped: Vec::new(),
        probes: Vec::new(),
        end: String::new(),
    };
    while let Some(Reverse((now, step, _))) = heap.pop() {
        let outcome = match step {
            Step::Probe => {
                link.settle_before(now);
                trace.probes.push(counters(&link, now));
                LinkOutcome::Idle
            }
            Step::TxDone => {
                let (pkt, next) = link.on_tx_done(now);
                trace.arrivals.push((pkt.id, now + link.delay()));
                next
            }
            Step::Kick => link.on_kick(now),
            Step::Admin(up) => {
                link.set_admin_up(up);
                LinkOutcome::Idle
            }
            Step::Fluid(bps) => {
                link.set_fluid_bps(bps);
                LinkOutcome::Idle
            }
            Step::Offer(i) => {
                let (outcome, dropped) = link.offer(pkts[i as usize].clone(), now);
                if dropped {
                    trace.dropped.push(i);
                }
                outcome
            }
        };
        match outcome {
            LinkOutcome::Busy { done_at } => match release.then(|| link.release()).flatten() {
                Some(pkt) => trace.arrivals.push((pkt.id, done_at + link.delay())),
                None => push(&mut heap, done_at, Step::TxDone),
            },
            LinkOutcome::KickAt { at } => push(&mut heap, at, Step::Kick),
            LinkOutcome::Idle => {}
        }
    }
    // Long after the last serialization either driver saw end.
    let after = SimTime::from_secs(10);
    link.settle_before(after);
    trace.end = counters(&link, after);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Same deliveries at the same instants, same drops, same counters at
    /// every probe and at the end — whichever protocol drives the link.
    #[test]
    fn released_wire_matches_completion_event_per_packet(
        offers in prop::collection::vec((0u64..30_000, 1u32..1435, any::<bool>()), 1..120),
        qdisc in 0usize..4,
        down in (0u64..1_500_000, 0u64..200_000),
        fluid in (0u64..1_500_000, 0u64..1_000_000_000),
        probe_gap in 1u64..150_000,
    ) {
        let mut schedule = Vec::new();
        let mut pkts = Vec::new();
        let mut t = 0u64;
        for (i, &(gap, payload, latency)) in offers.iter().enumerate() {
            t += gap;
            let dscp = if latency { DSCP_LATENCY } else { DSCP_BATCH };
            pkts.push(pkt(i as u64, payload, dscp));
            schedule.push((SimTime::from_nanos(t), Step::Offer(i as u64)));
        }
        schedule.push((SimTime::from_nanos(down.0), Step::Admin(false)));
        schedule.push((SimTime::from_nanos(down.0 + down.1), Step::Admin(true)));
        schedule.push((SimTime::from_nanos(fluid.0), Step::Fluid(fluid.1)));
        for k in 1..=(t / probe_gap).min(40) {
            schedule.push((SimTime::from_nanos(k * probe_gap), Step::Probe));
        }
        let classic = drive(test_link(qdisc), &schedule, &pkts, false);
        let released = drive(test_link(qdisc), &schedule, &pkts, true);
        prop_assert_eq!(&classic.arrivals, &released.arrivals);
        prop_assert_eq!(&classic.dropped, &released.dropped);
        prop_assert_eq!(&classic.probes, &released.probes);
        prop_assert_eq!(&classic.end, &released.end);
        // The schedule is not vacuous: something was delivered.
        prop_assert!(!classic.arrivals.is_empty() || !classic.dropped.is_empty());
    }
}
