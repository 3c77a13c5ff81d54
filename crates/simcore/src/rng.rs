//! Deterministic, splittable randomness.
//!
//! All randomness in a simulation flows from a single root seed. Components
//! obtain their own stream with [`SimRng::split`], keyed by a label, so that
//! adding a new random consumer does not perturb the draws seen by existing
//! ones — a property the regression tests rely on.

/// A seeded simulation RNG.
///
/// An in-tree xoshiro256++ (the algorithm behind rand's `SmallRng` on
/// 64-bit platforms), state-expanded from the seed with splitmix64: fast,
/// deterministic for a given seed, and explicitly not cryptographic —
/// exactly right for simulation.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a root seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            seed,
        }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream keyed by `label`.
    ///
    /// The child seed is `fnv1a(root_seed || label)`, so the mapping from
    /// label to stream is stable across runs and across code changes that
    /// add or remove *other* labels.
    pub fn split(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.seed.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::new(h)
    }

    /// Derive an independent child stream keyed by an index (e.g. a replica
    /// number), composing with [`SimRng::split`] for labelled families.
    pub fn split_idx(&self, label: &str, idx: u64) -> SimRng {
        self.split(label).split(&idx.to_string())
    }

    /// The RNG stream of one pod's sidecar: a pure function of
    /// `(seed, pod)`, so the draws a pod consumes never depend on what
    /// any other pod does.
    ///
    /// The derivation is `split_idx("sidecar", pod)` and existing
    /// captures replay only while it stays that; a pinning test
    /// hard-codes its output.
    pub fn pod_stream(&self, pod: u64) -> SimRng {
        self.split_idx("sidecar", pod)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` over the full range.
    pub fn u64(&mut self) -> u64 {
        // xoshiro256++
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        let s2 = s2 ^ t;
        let s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform `u32`.
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Rejection sampling over the widest multiple of n, so every
        // value in [0, n) is exactly equally likely.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Pick a uniformly random element of `xs`; `None` if empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len() as u64) as usize])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_stable_and_independent() {
        let root = SimRng::new(7);
        let mut x1 = root.split("link");
        let mut x2 = root.split("link");
        assert_eq!(x1.u64(), x2.u64());
        let mut y = root.split("pod");
        assert_ne!(root.split("link").u64(), y.u64());
    }

    #[test]
    fn split_idx_distinguishes() {
        let root = SimRng::new(7);
        let a = root.split_idx("replica", 0).u64();
        let b = root.split_idx("replica", 1).u64();
        assert_ne!(a, b);
    }

    /// Pins the `(seed, pod)` → stream derivation of [`SimRng::pod_stream`]
    /// to literal values. If this test ever fails, the per-pod streams
    /// moved and every recorded capture is invalidated: do not update the
    /// constants without bumping the flight-recorder format.
    #[test]
    fn pod_stream_derivation_is_pinned() {
        let root = SimRng::new(42);
        let expected: [(u64, u64); 4] = [
            (0, 7779028253670538330),
            (1, 6375213557762187844),
            (2, 14084948068515536441),
            (63, 14305704856544001626),
        ];
        for (pod, first_draw) in expected {
            assert_eq!(
                root.pod_stream(pod).u64(),
                first_draw,
                "pod_stream({pod}) moved for seed 42"
            );
            // The named derivation and the historical split spell the
            // same stream.
            assert_eq!(
                root.pod_stream(pod).u64(),
                root.split_idx("sidecar", pod).u64()
            );
        }
        // Distinct pods get distinct streams; other seeds differ too.
        assert_ne!(root.pod_stream(0).u64(), root.pod_stream(1).u64());
        assert_ne!(
            SimRng::new(43).pod_stream(0).u64(),
            root.pod_stream(0).u64()
        );
    }

    #[test]
    fn below_and_range_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(17);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn choose_and_shuffle() {
        let mut r = SimRng::new(11);
        let xs = [1, 2, 3];
        assert!(xs.contains(r.choose(&xs).unwrap()));
        let empty: [i32; 0] = [];
        assert!(r.choose(&empty).is_none());

        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle was identity");
    }
}
