//! Dense hot-path storage for the simulation's id-keyed state.
//!
//! The engine allocates monotonically increasing `u64` ids (messages,
//! rpcs, execs, compute tokens, connections) and removes them in roughly
//! FIFO order as requests complete. Generic hash maps pay hashing and
//! pointer-chasing on every event for what is really a sliding window of
//! live ids — at production fabric sizes (thousands of pods, 10⁵+ RPS)
//! that cost dominates the hot path and fragments memory.
//!
//! The types here exploit the allocation discipline directly:
//!
//! * [`IdSlab`] — a sliding-window slab over monotonic ids: O(1)
//!   indexed access at `id - head`, memory proportional to the *live id
//!   span*, with the window front compacted as old ids are removed.
//! * [`Slab`] — a free-list slab for entries that leave in no particular
//!   order (packets in flight): the index is storage, reused after a
//!   `take`, and never part of an entry's identity.
//! * [`ConnTable`] — connections are never removed, so a plain `Vec`
//!   indexed by `id - 1` suffices. It also keeps the one reusable
//!   `ConnOutput` every endpoint call writes into.
//! * [`Sidecars`] — exactly one sidecar per pod, keyed by `PodId`,
//!   stored as a dense `Vec` whose iteration order *is* ascending pod
//!   order (the order every sorted-key loop already used).
//! * [`PairPools`] — the per-(pod pair, class) connection pool: cursor
//!   plus slot table in one entry, replacing two parallel hash maps.
//!
//! None of this changes observable behaviour: ids remain the public
//! identity of every entity (slabs never reuse or renumber them), so
//! event payloads, RNG draw order and flight-recorder digests are
//! byte-identical to the hash-map layout.

use meshlayer_cluster::PodId;
use meshlayer_mesh::Sidecar;
use meshlayer_simcore::FxHashMap;
use meshlayer_transport::ConnOutput;
use std::collections::VecDeque;

/// A sliding-window slab keyed by monotonically allocated `u64` ids.
///
/// Entries are stored at offset `id - head` in a deque; removing the
/// oldest live entries advances `head`, so memory tracks the span
/// between the oldest and newest live id rather than the total ever
/// allocated. Gaps (ids never inserted, e.g. continuation tokens that
/// are not compute jobs) cost one `None` slot until the window slides
/// past them.
pub(crate) struct IdSlab<T> {
    /// Id of the entry at `slots[0]`.
    head: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for IdSlab<T> {
    fn default() -> Self {
        IdSlab {
            head: 1,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> IdSlab<T> {
    #[inline]
    fn index_of(&self, id: u64) -> Option<usize> {
        let off = id.checked_sub(self.head)?;
        let i = off as usize;
        (i < self.slots.len()).then_some(i)
    }

    /// Insert `value` under `id`. Ids must be allocated monotonically
    /// (the engine's `alloc_*` counters guarantee this).
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        if self.slots.is_empty() {
            self.head = id;
        }
        debug_assert!(id >= self.head, "ids must be monotonic");
        let i = (id - self.head) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        debug_assert!(self.slots[i].is_none(), "duplicate id {id}");
        self.slots[i] = Some(value);
        self.live += 1;
    }

    /// Shared access by id.
    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        self.index_of(id).and_then(|i| self.slots[i].as_ref())
    }

    /// Mutable access by id.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.index_of(id).and_then(|i| self.slots[i].as_mut())
    }

    /// Whether `id` is live.
    #[inline]
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Remove and return the entry under `id`, compacting the window
    /// front past any leading dead slots.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.index_of(id)?;
        let v = self.slots[i].take();
        if v.is_some() {
            self.live -= 1;
        }
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.head += 1;
        }
        v
    }

    /// Number of live entries.
    #[allow(dead_code)]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Width of the current window (live span including gaps) — the
    /// quantity memory use is proportional to.
    #[allow(dead_code)]
    pub(crate) fn window_len(&self) -> usize {
        self.slots.len()
    }
}

/// A free-list slab: `put` returns a `u32` index that stays valid until
/// `take`, and freed indices are reused last-freed-first, so memory
/// tracks the most entries ever live at once — whatever order they leave
/// in, which is what [`IdSlab`]'s sliding window cannot give packets
/// (a packet queued behind a backlog outlives thousands sent after it).
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Store `value`, returning its index.
    #[inline]
    pub(crate) fn put(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                u32::try_from(self.slots.len() - 1).expect("slab: more than u32::MAX live entries")
            }
        }
    }

    /// Shared access to the live entry at `i`.
    #[inline]
    pub(crate) fn get(&self, i: u32) -> &T {
        self.slots[i as usize]
            .as_ref()
            .expect("slab: get of a free slot")
    }

    /// Remove and return the live entry at `i`, freeing the index.
    #[inline]
    pub(crate) fn take(&mut self, i: u32) -> T {
        let v = self.slots[i as usize]
            .take()
            .expect("slab: take of a free slot");
        self.free.push(i);
        v
    }

    /// Number of live entries.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Most entries ever live at once: a slot is added only when none is
    /// free.
    pub(crate) fn high_water(&self) -> usize {
        self.slots.len()
    }
}

/// Dense table of connection pairs, keyed by 1-based connection id.
/// Connections live for the whole run, so this is append-only.
///
/// Beside the pairs sits the one [`ConnOutput`] every endpoint call
/// writes into: the engine drains it and hands it back empty, so its
/// vectors are allocated once per run, not once per packet.
pub(crate) struct ConnTable<T> {
    inner: Vec<T>,
    out: ConnOutput,
}

impl<T> Default for ConnTable<T> {
    fn default() -> Self {
        ConnTable {
            inner: Vec::new(),
            out: ConnOutput::default(),
        }
    }
}

impl<T> ConnTable<T> {
    /// The id the next [`ConnTable::push`] will occupy (ids start at 1).
    #[inline]
    pub(crate) fn next_id(&self) -> u64 {
        self.inner.len() as u64 + 1
    }

    /// Append a pair, returning its id.
    pub(crate) fn push(&mut self, pair: T) -> u64 {
        self.inner.push(pair);
        self.inner.len() as u64
    }

    /// Shared access by id.
    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        let i = id.checked_sub(1)? as usize;
        self.inner.get(i)
    }

    /// Mutable access by id.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = id.checked_sub(1)? as usize;
        self.inner.get_mut(i)
    }

    /// Mutable access by id, with the shared output buffer (empty).
    #[inline]
    pub(crate) fn get_mut_with_out(&mut self, id: u64) -> Option<(&mut T, &mut ConnOutput)> {
        let i = id.checked_sub(1)? as usize;
        Some((self.inner.get_mut(i)?, &mut self.out))
    }

    /// Take the shared output buffer to drain it while the table is
    /// borrowed elsewhere; [`ConnTable::restore_out`] gives it back.
    #[inline]
    pub(crate) fn take_out(&mut self) -> ConnOutput {
        std::mem::take(&mut self.out)
    }

    /// Hand the drained buffer back, emptied but keeping its capacity.
    #[inline]
    pub(crate) fn restore_out(&mut self, mut out: ConnOutput) {
        out.clear();
        self.out = out;
    }

    /// Number of connections.
    pub(crate) fn len(&self) -> usize {
        self.inner.len()
    }

    /// Iterate `(id, pair)` in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.inner
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64 + 1, p))
    }

    /// Iterate pairs mutably in ascending id order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inner.iter_mut()
    }
}

/// One sidecar per pod, stored densely by `PodId`. Iteration order is
/// ascending pod id — the order the telemetry/control/policy loops
/// previously obtained by sorting hash-map keys.
#[derive(Default)]
pub(crate) struct Sidecars {
    inner: Vec<Sidecar>,
}

impl Sidecars {
    /// Register the sidecar for the next pod id (pods are deployed in
    /// ascending id order at build time).
    pub(crate) fn push(&mut self, pod: PodId, sidecar: Sidecar) {
        debug_assert_eq!(pod.0 as usize, self.inner.len(), "pods deploy in order");
        self.inner.push(sidecar);
    }

    /// Shared access by pod.
    #[inline]
    pub(crate) fn get(&self, pod: PodId) -> Option<&Sidecar> {
        self.inner.get(pod.0 as usize)
    }

    /// Mutable access by pod.
    #[inline]
    pub(crate) fn get_mut(&mut self, pod: PodId) -> Option<&mut Sidecar> {
        self.inner.get_mut(pod.0 as usize)
    }

    /// Number of sidecars (== number of pods).
    pub(crate) fn len(&self) -> usize {
        self.inner.len()
    }

    /// Iterate `(pod, sidecar)` in ascending pod order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PodId, &Sidecar)> {
        self.inner
            .iter()
            .enumerate()
            .map(|(i, sc)| (PodId(i as u32), sc))
    }

    /// Iterate sidecars mutably in ascending pod order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Sidecar> {
        self.inner.iter_mut()
    }
}

/// The connection pool for one `(pod pair, transport class)`: Envoy-style
/// rotation cursor plus the conn id assigned to each slot (0 = not yet
/// connected).
pub(crate) struct PairPool {
    cursor: usize,
    slots: Vec<u64>,
}

/// All per-pair connection pools. The map is touched once per RPC
/// attempt (not per packet), so a hash map over the sparse pair space is
/// the right trade at fleet scale — only pairs that actually talk pay
/// memory.
#[derive(Default)]
pub(crate) struct PairPools {
    map: FxHashMap<(PodId, PodId, u8), PairPool>,
}

impl PairPools {
    /// Advance the pool cursor for `(a, b, class)` and return the conn
    /// id in the selected slot (0 when the slot has no connection yet —
    /// the caller allocates one and stores it with
    /// [`PairPools::assign`]).
    pub(crate) fn rotate(&mut self, a: PodId, b: PodId, class: u8, pool: usize) -> (usize, u64) {
        let p = self.map.entry((a, b, class)).or_insert_with(|| PairPool {
            cursor: 0,
            slots: vec![0; pool],
        });
        let slot = p.cursor % pool;
        p.cursor += 1;
        (slot, p.slots[slot])
    }

    /// Record the conn id just created for a slot.
    pub(crate) fn assign(&mut self, a: PodId, b: PodId, class: u8, slot: usize, id: u64) {
        let p = self.map.get_mut(&(a, b, class)).expect("pool exists");
        p.slots[slot] = id;
    }
}

#[cfg(test)]
mod tests {
    use super::{IdSlab, Slab};

    #[test]
    fn free_list_slab_reuses_indices_after_take() {
        let mut s: Slab<&'static str> = Slab::default();
        let (a, b, c) = (s.put("a"), s.put("b"), s.put("c"));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(s.take(b), "b");
        assert_eq!(s.take(a), "a");
        assert_eq!((s.live(), s.high_water()), (1, 3));
        // Last freed, first reused; no new slot while one is free.
        assert_eq!(s.put("d"), a);
        assert_eq!(s.put("e"), b);
        assert_eq!(s.get(a), &"d");
        assert_eq!(s.get(c), &"c");
        assert_eq!((s.live(), s.high_water()), (3, 3));
        assert_eq!(s.put("f"), 3);
        assert_eq!((s.live(), s.high_water()), (4, 4));
    }

    #[test]
    #[should_panic(expected = "slab: take of a free slot")]
    fn free_list_slab_take_of_a_free_slot_panics() {
        let mut s: Slab<u32> = Slab::default();
        let i = s.put(7);
        s.take(i);
        s.take(i);
    }

    #[test]
    fn slab_roundtrip_and_window_slides() {
        let mut s: IdSlab<&'static str> = IdSlab::default();
        s.insert(1, "a");
        s.insert(2, "b");
        s.insert(4, "d"); // gap at 3 (e.g. a non-compute token)
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(1), Some(&"a"));
        assert_eq!(s.get(3), None);
        assert!(s.contains(4));
        assert_eq!(s.remove(1), Some("a"));
        // Front compacted: window now starts at 2.
        assert_eq!(s.window_len(), 3);
        assert_eq!(s.remove(2), Some("b"));
        // Gap 3 compacts away with 2.
        assert_eq!(s.window_len(), 1);
        assert_eq!(s.remove(4), Some("d"));
        assert_eq!(s.window_len(), 0);
        assert_eq!(s.len(), 0);
        // Stale ids answer None, never a later entry.
        assert_eq!(s.get(2), None);
        assert_eq!(s.remove(2), None);
        s.insert(9, "i");
        assert_eq!(s.get(9), Some(&"i"));
        assert_eq!(s.get(4), None);
    }

    #[test]
    fn slab_mid_window_removal_keeps_neighbors() {
        let mut s: IdSlab<u32> = IdSlab::default();
        for id in 1..=5 {
            s.insert(id, id as u32 * 10);
        }
        assert_eq!(s.remove(3), Some(30));
        assert_eq!(s.get(2), Some(&20));
        assert_eq!(s.get(4), Some(&40));
        assert_eq!(s.get(3), None);
        *s.get_mut(5).unwrap() += 1;
        assert_eq!(s.get(5), Some(&51));
    }
}
