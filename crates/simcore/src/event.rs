//! Deterministic event queue.
//!
//! The queue is a hierarchical calendar (timing-wheel) keyed on
//! `(SimTime, sequence)` where the sequence number is assigned at push
//! time. Two events scheduled for the same instant therefore fire in push
//! order, which makes simulation runs bit-for-bit reproducible regardless
//! of queue internals.
//!
//! # Structure
//!
//! Near-future events land in a wheel of [`SLOTS`] buckets, each
//! [`BUCKET_NS`] nanoseconds wide (512 × 16.4 µs: a horizon ≈ 8.4 ms of
//! simulated time) — push is O(1). Events beyond the horizon —
//! retransmission timers, RPC deadlines, ticks — go to an overflow binary
//! heap and migrate into the wheel as the cursor advances past their
//! bucket. Popping drains one bucket at a time through a `due` buffer
//! sorted by `(at, seq)`, so the global pop order is *identical* to a
//! total sort — the determinism contract the flight recorder
//! (`FLTREC01` captures) and every seeded test depend on. See DESIGN.md
//! §"Calendar queue".
//!
//! An entry is its 16-byte `(at, seq)` key plus the payload: 48 bytes
//! for the simulation's 32-byte event. The wheel is small on purpose: a
//! slot's buffer keeps the capacity of its fullest visit, so memory is
//! slots × burst.
//!
//! # Compaction
//!
//! [`EventQueue::retain_far`] filters the overflow heap — and only it —
//! under a caller's predicate. It guarantees that every survivor keeps its
//! `(at, seq)`, so survivors pop in the order, ties included, they would
//! have popped in anyway, and that [`EventQueue::len`] counts them alone.
//! Whether a dropped event was safe to drop is the caller's business.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the wheel slot count.
const SLOT_BITS: usize = 9;
/// Number of wheel slots.
const SLOTS: usize = 1 << SLOT_BITS;
/// log2 of a bucket's width in nanoseconds (2^14 ns ≈ 16.4 µs).
const BUCKET_BITS: u32 = 14;
/// Bucket width in nanoseconds.
#[cfg(test)]
const BUCKET_NS: u64 = 1 << BUCKET_BITS;
/// Words in the slot-occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// A pending event: fire time, tie-break sequence, payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Absolute bucket index of an instant.
#[inline]
fn bucket(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_BITS
}

/// A deterministic future-event list.
///
/// Generic over the event payload `E`; the simulation driver defines its own
/// event enum and dispatches popped events itself. Pushing an event earlier
/// than the last popped time is a logic error and panics in debug builds
/// (time cannot flow backwards).
///
/// # Invariants
///
/// With `cursor` the absolute index of the bucket currently draining:
/// - `due` holds every pending event whose bucket is ≤ `cursor`, sorted
///   descending by `(at, seq)` (pop takes from the end);
/// - `slots[b & (SLOTS-1)]` holds events with `cursor < b < cursor + SLOTS`
///   (unsorted; sorted once when the bucket is reached);
/// - `overflow` holds events with bucket ≥ `cursor + SLOTS`.
pub struct EventQueue<E> {
    /// Current bucket's events, sorted descending by `(at, seq)`.
    due: Vec<(SimTime, u64, E)>,
    /// The wheel: one unsorted vec per slot.
    slots: Vec<Vec<(SimTime, u64, E)>>,
    /// One bit per slot: does it hold any events?
    occupancy: [u64; WORDS],
    /// Far-future events, beyond the wheel horizon.
    overflow: BinaryHeap<Entry<E>>,
    /// Absolute index of the bucket `due` is draining.
    cursor: u64,
    /// Pending events across `due` + wheel + overflow.
    pending: usize,
    /// Most events `overflow` has held at once.
    far_peak: usize,
    seq: u64,
    now: SimTime,
    pushed: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            due: Vec::new(),
            slots: std::iter::repeat_with(Vec::new).take(SLOTS).collect(),
            occupancy: [0; WORDS],
            overflow: BinaryHeap::new(),
            cursor: 0,
            pending: 0,
            far_peak: 0,
            seq: 0,
            now: SimTime::ZERO,
            pushed: 0,
            popped: 0,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at `at`.
    ///
    /// `at` may equal `now()` (the event fires in the current instant, after
    /// events already queued for that instant) but must not precede it.
    pub fn push(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {:?} < {:?}",
            at,
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.pushed += 1;
        self.pending += 1;
        let b = bucket(at);
        if b <= self.cursor {
            Self::insert_due(&mut self.due, at, seq, payload);
        } else if b < self.cursor + SLOTS as u64 {
            let s = (b as usize) & (SLOTS - 1);
            self.slots[s].push((at, seq, payload));
            self.occupancy[s >> 6] |= 1 << (s & 63);
        } else {
            self.overflow.push(Entry { at, seq, payload });
            self.far_peak = self.far_peak.max(self.overflow.len());
        }
    }

    /// Binary-insert into the descending-sorted `due` buffer.
    fn insert_due(due: &mut Vec<(SimTime, u64, E)>, at: SimTime, seq: u64, payload: E) {
        let idx = due.partition_point(|e| (e.0, e.1) > (at, seq));
        due.insert(idx, (at, seq, payload));
    }

    /// Pop the earliest event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some((at, _, payload)) = self.due.pop() {
                self.now = at;
                self.popped += 1;
                self.pending -= 1;
                return Some((at, payload));
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Move the cursor to the next non-empty bucket, filling `due`.
    /// Returns false when no events remain anywhere.
    fn advance(&mut self) -> bool {
        let cs = (self.cursor as usize) & (SLOTS - 1);
        if let Some(d) = self.next_occupied_distance(cs) {
            self.cursor += d as u64;
            let s = (self.cursor as usize) & (SLOTS - 1);
            // `due` is empty here; swapping recycles its allocation as the
            // slot's next scratch buffer.
            std::mem::swap(&mut self.slots[s], &mut self.due);
            self.occupancy[s >> 6] &= !(1 << (s & 63));
            self.due
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
            self.migrate_overflow();
            true
        } else if let Some(top) = self.overflow.peek() {
            // Wheel is drained: jump straight to the first overflow bucket.
            self.cursor = bucket(top.at);
            self.migrate_overflow();
            true
        } else {
            false
        }
    }

    /// Pull every overflow event whose bucket now fits the wheel horizon
    /// into its slot (or `due`, when its bucket is the cursor's).
    fn migrate_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            let b = bucket(top.at);
            if b >= self.cursor + SLOTS as u64 {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            if b <= self.cursor {
                Self::insert_due(&mut self.due, e.at, e.seq, e.payload);
            } else {
                let s = (b as usize) & (SLOTS - 1);
                self.slots[s].push((e.at, e.seq, e.payload));
                self.occupancy[s >> 6] |= 1 << (s & 63);
            }
        }
    }

    /// Distance (in buckets, 1..SLOTS) from the cursor's slot `cs` to the
    /// next occupied slot, scanning the bitmap with wrap-around.
    fn next_occupied_distance(&self, cs: usize) -> Option<usize> {
        let start = (cs + 1) & (SLOTS - 1);
        let mut w = start >> 6;
        let mut mask = !0u64 << (start & 63);
        for _ in 0..=WORDS {
            let bits = self.occupancy[w] & mask;
            if bits != 0 {
                let s = (w << 6) + bits.trailing_zeros() as usize;
                let d = (s + SLOTS - cs) & (SLOTS - 1);
                debug_assert!(d != 0, "cursor slot cannot be occupied");
                return Some(d);
            }
            w = (w + 1) % WORDS;
            mask = !0;
        }
        None
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Payloads of the pending events, in no particular order — for
    /// audits that count what is still in flight.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        let near = std::iter::once(&self.due).chain(&self.slots).flatten();
        near.map(|e| &e.2)
            .chain(self.overflow.iter().map(|e| &e.payload))
    }

    /// Events now in the far-future heap (beyond the wheel horizon).
    pub fn far_len(&self) -> usize {
        self.overflow.len()
    }

    /// Drop from the far-future heap every event `keep` rejects, and
    /// return how many went. Only the heap is visited: events already in
    /// the wheel fire as usual. Survivors keep their `(at, seq)`, so pop
    /// order and same-instant ties among them are exactly what they were;
    /// a dropped event is gone as if never pushed, apart from
    /// [`EventQueue::total_pushed`].
    pub fn retain_far(&mut self, mut keep: impl FnMut(&E) -> bool) -> usize {
        let before = self.overflow.len();
        self.overflow.retain(|e| keep(&e.payload));
        let dropped = before - self.overflow.len();
        self.pending -= dropped;
        dropped
    }

    /// Most events the far-future heap has held at once.
    pub fn far_peak(&self) -> usize {
        self.far_peak
    }

    /// Total events pushed over the queue's lifetime (for run statistics).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events popped over the queue's lifetime (for run statistics).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 32-byte payload makes a 48-byte entry, in the wheel and in the
    /// far heap: the `(at, seq)` key costs 16 bytes and nothing else does.
    #[test]
    fn entry_is_key_plus_payload() {
        type Payload = [u64; 4];
        assert_eq!(std::mem::size_of::<(SimTime, u64, Payload)>(), 48);
        assert_eq!(std::mem::size_of::<Entry<Payload>>(), 48);
    }

    #[test]
    fn iter_sees_due_wheel_and_overflow() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(50), 1); // overflow
        q.push(SimTime::from_millis(2), 2); // wheel
        q.push(SimTime::ZERO, 3); // due
        let mut seen: Vec<i32> = q.iter().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(q.far_peak(), 1);
        q.pop();
        assert_eq!(q.iter().count(), q.len());
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 5);
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_in_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    fn push_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        q.pop();
        q.push(q.now(), "b");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        assert_eq!(e, "b");
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn push_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        // Popping the rest leaves the queue clear.
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 10u32);
        q.push(SimTime::from_millis(30), 30);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_millis(), e), (10, 10));
        // Schedule between now and the remaining event.
        q.push(SimTime::from_millis(20), 20);
        assert_eq!(q.pop().unwrap().1, 20);
        assert_eq!(q.pop().unwrap().1, 30);
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        // Events far beyond the wheel horizon start in overflow and must
        // migrate into the wheel (and fire in exact order) as time advances.
        let mut q = EventQueue::new();
        let horizon = BUCKET_NS * SLOTS as u64;
        let times = [
            1,
            horizon - 1,
            horizon,
            horizon + 1,
            3 * horizon + 17,
            10 * horizon,
            10 * horizon, // same instant: FIFO by push order
        ];
        for (i, &ns) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(ns), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn overflow_jump_then_push_at_now() {
        // After the wheel drains, the cursor jumps straight to the first
        // overflow bucket; pushes at the (jumped-to) current instant must
        // still honor FIFO order against migrated events.
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(100);
        q.push(far, "far");
        q.push(SimTime::from_nanos(5), "near");
        assert_eq!(q.pop().unwrap().1, "near"); // cursor now at bucket(5ns)
        q.push(far, "far2"); // overflow again
        assert_eq!(q.pop().unwrap().1, "far"); // overflow jump: cursor at bucket(100s)
        q.push(q.now(), "now"); // same instant, pushed after far2
        assert_eq!(q.pop().unwrap().1, "far2");
        assert_eq!(q.pop().unwrap().1, "now");
        assert!(q.pop().is_none());
    }

    /// Cross-validation: a pseudorandom push/pop workload spanning bucket
    /// boundaries, wheel wraps, and the overflow horizon — with the far
    /// heap compacted under a pseudorandom predicate now and then — must
    /// pop in exactly the order a total `(at, seq)` sort of the survivors
    /// would produce.
    #[test]
    fn matches_total_order_reference() {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64, u32)> = Vec::new(); // (at_ns, seq, id)
        let mut seq = 0u64;
        let mut now = 0u64;
        // xorshift64 for a deterministic but irregular schedule.
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut step = |m: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % m
        };
        let pop_min = |model: &mut Vec<(u64, u64, u32)>| {
            let min = model
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, _)| i)
                .unwrap();
            model.swap_remove(min).2
        };
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        let mut dropped = 0;
        #[allow(clippy::explicit_counter_loop)] // seq mirrors the queue's push counter
        for round in 0..5000u32 {
            // Mix of near (same bucket), mid (within wheel), far (overflow).
            let delta = match step(10) {
                0..=5 => step(BUCKET_NS * 4),
                6..=8 => step(BUCKET_NS * SLOTS as u64),
                _ => BUCKET_NS * SLOTS as u64 + step(1 << 34),
            };
            let at = now + delta;
            q.push(SimTime::from_nanos(at), round);
            model.push((at, seq, round));
            seq += 1;
            // Pop roughly as often as we push, plus bursts.
            for _ in 0..=step(2) {
                if let Some((t, id)) = q.pop() {
                    now = t.as_nanos();
                    popped.push(id);
                    expected.push(pop_min(&mut model));
                }
            }
            // Every so often push a burst of far events and drop about a
            // third of the far heap. The model's far set is whatever lies
            // at or past the horizon of the bucket being drained, which
            // is `now`'s: the queue's cursor only moves on a pop.
            if round % 100 == 99 {
                let horizon = ((now >> BUCKET_BITS) + SLOTS as u64) << BUCKET_BITS;
                for i in 0..30 {
                    let at = horizon + step(1 << 30);
                    q.push(SimTime::from_nanos(at), 10_000 + round + i);
                    model.push((at, seq, 10_000 + round + i));
                    seq += 1;
                }
                let salt = step(3) as u32;
                let keep = |id: u32| !(id + salt).is_multiple_of(3);
                let before = model.len();
                model.retain(|e| e.0 < horizon || keep(e.2));
                let gone = q.retain_far(|&id| keep(id));
                assert_eq!(gone, before - model.len());
                assert_eq!(q.len(), model.len());
                dropped += gone;
            }
        }
        while let Some((_, id)) = q.pop() {
            popped.push(id);
            expected.push(pop_min(&mut model));
        }
        assert!(model.is_empty());
        assert!(dropped > 300, "compaction had something to drop: {dropped}");
        assert_eq!(popped, expected);
        assert_eq!(q.total_pushed(), q.total_popped() + dropped as u64);
    }
}
