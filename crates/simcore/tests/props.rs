//! Property-based tests for the simulation core.

use meshlayer_simcore::{Dist, EventQueue, QuantileSketch, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// The event queue is a total order: popping always yields
    /// non-decreasing times, regardless of push pattern.
    #[test]
    fn event_queue_pops_monotonically(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    /// Same-time events preserve push order (the determinism guarantee).
    #[test]
    fn event_queue_fifo_within_instant(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_millis(5), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// Compacting the far heap under an arbitrary predicate, between
    /// arbitrary pushes and pops, leaves a queue that pops its survivors
    /// in exactly the order a total `(at, seq)` sort of them gives, with
    /// `len()` in agreement — against a plain vector as the reference.
    #[test]
    fn event_queue_retain_far_matches_reference(
        ops in prop::collection::vec((0u8..8, 0u64..20_000_000_000), 1..300),
        salt in 0u64..3,
    ) {
        let mut q = EventQueue::new();
        // (at_ns, id); ids are handed out in push order, like `seq`.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let (mut now, mut next_id) = (0u64, 0u64);
        let keep = |id: u64| !(id + salt).is_multiple_of(3);
        for &(op, x) in &ops {
            match op {
                // Push: same bucket, inside the wheel, or seconds ahead.
                0..=4 => {
                    let delta = match op {
                        0 | 1 => x % 50_000,
                        2 => x % 5_000_000,
                        _ => x,
                    };
                    q.push(SimTime::from_nanos(now + delta), next_id);
                    model.push((now + delta, next_id));
                    next_id += 1;
                }
                5 | 6 => {
                    let want = model.iter().copied().min();
                    model.retain(|e| Some(*e) != want);
                    let got = q.pop().map(|(t, id)| (t.as_nanos(), id));
                    prop_assert_eq!(got, want);
                    now = got.map_or(now, |(t, _)| t);
                }
                _ => {
                    let mut gone = Vec::new();
                    let n = q.retain_far(|&id| {
                        if !keep(id) {
                            gone.push(id);
                        }
                        keep(id)
                    });
                    prop_assert_eq!(n, gone.len());
                    // Only far events go, and all of the rejected ones
                    // that are far by any measure (the wheel spans ms).
                    let far = |at: u64| at >= now + 1_000_000_000;
                    for &(at, id) in &model {
                        prop_assert!(!gone.contains(&id) || at > now);
                        prop_assert!(gone.contains(&id) || keep(id) || !far(at));
                    }
                    model.retain(|e| !gone.contains(&e.1));
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        model.sort_unstable();
        let rest: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, id)| (t.as_nanos(), id))).collect();
        prop_assert_eq!(rest, model);
    }

    /// All distributions produce non-negative, finite samples.
    #[test]
    fn distributions_are_nonnegative_finite(seed in 0u64..1_000_000, mean in 0.001f64..100.0, shape in 0.05f64..2.0) {
        let mut rng = SimRng::new(seed);
        for d in [
            Dist::constant(mean),
            Dist::exp(mean),
            Dist::lognormal(mean, shape),
        ] {
            for _ in 0..20 {
                let v = d.sample(&mut rng);
                prop_assert!(v.is_finite() && v >= 0.0, "{:?} -> {}", d, v);
            }
        }
    }

    /// Split RNG streams are stable: the same label always gives the same
    /// stream, and different labels differ.
    #[test]
    fn rng_split_stability(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let root = SimRng::new(seed);
        let mut a = root.split(&label);
        let mut b = root.split(&label);
        prop_assert_eq!(a.u64(), b.u64());
        let mut c = root.split(&format!("{label}x"));
        let mut a2 = root.split(&label);
        // Not a hard guarantee bitwise, but collisions should be absent in
        // practice for these tiny label sets.
        prop_assert_ne!(a2.u64(), c.u64());
    }
}

/// Deterministic xorshift stream seeded per case.
fn samples(n: usize, lo: u64, span_exp: u32, seed: u64) -> Vec<u64> {
    let span = 1u64 << span_exp;
    let mut x = seed.wrapping_mul(2_685_821_657_736_338_717).max(1);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            lo + x % span
        })
        .collect()
}

fn sketch_of(vals: &[u64], sub_bits: u32) -> QuantileSketch {
    let mut s = QuantileSketch::new(sub_bits);
    for &v in vals {
        s.record(v);
    }
    s
}

/// Exact quantile with the same ceil-rank rule the sketch uses.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

// The quantile sketch's algebra, at every resolution from 2 sub-bits to
// the recorder histogram's 8: merge is exactly associative and
// commutative (byte-for-byte equal sketches, so roll-up order can never
// affect an exported artifact), and any quantile is within the
// documented relative error bound of the exact sorted-sample quantile.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merge algebra: for any 3-way split of any sample set,
    /// `(a ∪ b) ∪ c == a ∪ (b ∪ c)` and `a ∪ b == b ∪ a`, byte for
    /// byte, and both equal recording the whole set into one sketch.
    #[test]
    fn merge_is_associative_and_commutative(
        n in 0usize..300,
        lo in 0u64..50_000,
        span_exp in 0u32..30,
        seed in 0u64..10_000,
        sub_bits in 2u32..9,
        split in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let vals = samples(n, lo, span_exp, seed);
        let cut1 = (vals.len() as f64 * split.0.min(split.1)) as usize;
        let cut2 = (vals.len() as f64 * split.0.max(split.1)) as usize;
        let a = sketch_of(&vals[..cut1], sub_bits);
        let b = sketch_of(&vals[cut1..cut2], sub_bits);
        let c = sketch_of(&vals[cut2..], sub_bits);

        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "merge must be associative");

        // a ∪ b == b ∪ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        // Either grouping equals direct recording of the full set.
        let whole = sketch_of(&vals, sub_bits);
        prop_assert_eq!(&left, &whole, "merge must equal direct recording");
    }

    /// Accuracy contract: any quantile of any sample set is within
    /// `relative_error()` of the exact sorted-sample quantile.
    #[test]
    fn quantiles_within_relative_error_of_exact(
        n in 1usize..400,
        lo in 0u64..100_000,
        span_exp in 0u32..30,
        seed in 0u64..10_000,
        sub_bits in 2u32..9,
    ) {
        let vals = samples(n, lo, span_exp, seed);
        let s = sketch_of(&vals, sub_bits);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let got = s.value_at_quantile(q);
            let err = (got as f64 - exact as f64).abs() / (exact as f64).max(1.0);
            prop_assert!(
                err <= s.relative_error() + 1e-12,
                "q={q}: sketch {got} vs exact {exact} (rel err {err:.5} > {:.5}, sub_bits {sub_bits})",
                s.relative_error()
            );
        }
        // min/max/count are exact, not approximated.
        prop_assert_eq!(s.min(), sorted[0]);
        prop_assert_eq!(s.max(), *sorted.last().unwrap());
        prop_assert_eq!(s.count(), sorted.len() as u64);
    }
}
