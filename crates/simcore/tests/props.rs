//! Property-based tests for the simulation core.

use meshlayer_simcore::{Dist, EventQueue, Histogram, SimRng, SimTime};
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

    /// Histogram quantiles are within the documented 1% relative error and
    /// never exceed the observed extremes.
    #[test]
    fn histogram_quantile_bounds(values in prop::collection::vec(1u64..10_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let got = h.value_at_quantile(q);
            prop_assert!(got >= h.min());
            prop_assert!(got <= h.max());
            // Compare against the exact nearest-rank value.
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = sorted[rank - 1];
            let rel = (got as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(rel < 0.01, "q={} got={} exact={} rel={}", q, got, exact, rel);
        }
    }

    /// Merging histograms equals recording the union.
    #[test]
    fn histogram_merge_is_union(
        xs in prop::collection::vec(1u64..1_000_000, 0..200),
        ys in prop::collection::vec(1u64..1_000_000, 0..200),
    ) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        for &x in &xs { a.record(x); u.record(x); }
        for &y in &ys { b.record(y); u.record(y); }
        a.merge(&b);
        prop_assert_eq!(a.count(), u.count());
        prop_assert_eq!(a.value_at_quantile(0.5), u.value_at_quantile(0.5));
        prop_assert_eq!(a.value_at_quantile(0.99), u.value_at_quantile(0.99));
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
