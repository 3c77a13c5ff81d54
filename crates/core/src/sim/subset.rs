//! Deterministic endpoint subsetting (Envoy/gRPC-style) for discovery.
//!
//! At thousand-replica scale, letting every client see every replica of
//! every upstream makes per-client route/conn tables O(replicas). With
//! [`super::SimConfig::subset_size`] set, a client whose candidate pool
//! is larger than the subset size sees only a deterministic per-client
//! subset of it.
//!
//! The construction guarantees full coverage: each service's replica
//! list is shuffled once with a seed split from the root seed, then
//! tiled into wraparound blocks of exactly `subset_size` replicas
//! (block `b` covers shuffled positions `[b·size, b·size+size) mod n`),
//! and a client is assigned block `client_pod mod n_blocks`. With
//! `n_blocks = ceil(n / size)`, shuffled position `i` belongs to block
//! `⌊i/size⌋`, so every replica is in at least one block — and every
//! block is hit by some client as long as there are at least `n_blocks`
//! client pods (property-tested below). Being a pure function of
//! `(seed, service, client pod)`, subsetting never threatens
//! determinism: the same world routes identically on every run.

use meshlayer_cluster::{Cluster, PodId};
use meshlayer_simcore::{FxHashMap, SimRng};

/// Precomputed per-service shuffled replica pools.
#[derive(Default)]
pub(crate) struct Subsets {
    /// Subset size; 0 = subsetting disabled.
    size: usize,
    /// Service name → seed-shuffled replica list.
    pools: FxHashMap<String, Vec<PodId>>,
}

impl Subsets {
    /// Shuffle each service's replica list with a per-service stream
    /// split from the root build RNG. `size == 0` disables subsetting
    /// and skips the precomputation entirely.
    pub(crate) fn build(size: usize, cluster: &Cluster, rng: &SimRng) -> Subsets {
        let mut pools = FxHashMap::default();
        if size > 0 {
            // Sorted unique service names give a deterministic
            // per-service split index independent of pod layout.
            let mut names: Vec<String> = cluster
                .pods()
                .filter_map(|p| p.labels.get("app").cloned())
                .collect();
            names.sort();
            names.dedup();
            for (i, name) in names.into_iter().enumerate() {
                let mut pool = cluster.endpoints(&name, None);
                if pool.len() > size {
                    rng.split_idx("subset", i as u64).shuffle(&mut pool);
                }
                pools.insert(name, pool);
            }
        }
        Subsets { size, pools }
    }

    /// The caller's deterministic subset of `service`'s replicas
    /// (wraparound block of the shuffled pool). `None` when subsetting
    /// is disabled or the pool is not larger than the subset size.
    fn subset_of(&self, caller: PodId, service: &str) -> Option<Vec<PodId>> {
        if self.size == 0 {
            return None;
        }
        let pool = self.pools.get(service)?;
        let n = pool.len();
        if n <= self.size {
            return None;
        }
        let n_blocks = n.div_ceil(self.size);
        let b = caller.0 as usize % n_blocks;
        Some(
            (0..self.size)
                .map(|i| pool[(b * self.size + i) % n])
                .collect(),
        )
    }

    /// Restrict a candidate endpoint list to the caller's subset,
    /// preserving candidate order. Falls back to the unrestricted list
    /// when the subset would leave no candidate at all (e.g. the
    /// candidates were already narrowed by priority-subset routing or
    /// SDN congestion filtering to pods outside this client's block) —
    /// an empty pool must stay a routing decision, not an artifact of
    /// discovery trimming.
    pub(crate) fn filter(&self, caller: PodId, service: &str, eps: Vec<PodId>) -> Vec<PodId> {
        let Some(subset) = self.subset_of(caller, service) else {
            return eps;
        };
        let kept: Vec<PodId> = eps.iter().copied().filter(|p| subset.contains(p)).collect();
        if kept.is_empty() {
            eps
        } else {
            kept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshlayer_cluster::{Cluster, ServiceBehavior, ServiceSpec};

    fn world(replicas: u32) -> Cluster {
        let mut c = Cluster::new(&["n0"], replicas + 8);
        c.deploy(ServiceSpec::new(
            "backend",
            replicas,
            ServiceBehavior::respond(0.0),
        ));
        c
    }

    /// Every replica is covered by some client's subset, for a sweep of
    /// pool sizes and subset sizes (including non-dividing remainders).
    #[test]
    fn every_replica_covered_by_some_client() {
        for n in [3u32, 5, 8, 13, 29, 64] {
            for size in [1usize, 2, 3, 5, 8] {
                let cluster = world(n);
                let rng = SimRng::new(42);
                let subs = Subsets::build(size, &cluster, &rng);
                let all = cluster.endpoints("backend", None);
                let n_blocks = (n as usize).div_ceil(size);
                let mut covered = std::collections::BTreeSet::new();
                // Any n_blocks consecutive client pods hit every block.
                for client in 0..n_blocks as u32 {
                    let got = subs.filter(PodId(client), "backend", all.clone());
                    if all.len() > size {
                        assert_eq!(got.len(), size, "n={n} size={size}");
                    }
                    covered.extend(got);
                }
                assert_eq!(
                    covered.len(),
                    all.len(),
                    "replicas uncovered at n={n} size={size}"
                );
            }
        }
    }

    /// Subsetting is a pure function of (seed, service, client): the
    /// same inputs always produce the same subset, and different seeds
    /// shuffle differently.
    #[test]
    fn deterministic_per_client() {
        let cluster = world(24);
        let all = cluster.endpoints("backend", None);
        let a = Subsets::build(4, &cluster, &SimRng::new(7));
        let b = Subsets::build(4, &cluster, &SimRng::new(7));
        for client in 0..12u32 {
            assert_eq!(
                a.filter(PodId(client), "backend", all.clone()),
                b.filter(PodId(client), "backend", all.clone())
            );
        }
    }

    /// Pools at or below the subset size pass through untouched, as does
    /// a disabled (size 0) configuration.
    #[test]
    fn small_pools_and_disabled_pass_through() {
        let cluster = world(4);
        let all = cluster.endpoints("backend", None);
        let subs = Subsets::build(8, &cluster, &SimRng::new(1));
        assert_eq!(subs.filter(PodId(0), "backend", all.clone()), all);
        let off = Subsets::build(0, &cluster, &SimRng::new(1));
        assert_eq!(off.filter(PodId(0), "backend", all.clone()), all);
    }

    /// Candidates already narrowed to pods outside the caller's block
    /// fall back to the narrowed list rather than returning nothing.
    #[test]
    fn disjoint_candidates_fall_back() {
        let cluster = world(24);
        let subs = Subsets::build(4, &cluster, &SimRng::new(7));
        let all = cluster.endpoints("backend", None);
        let mine = subs.filter(PodId(0), "backend", all.clone());
        let outside: Vec<PodId> = all
            .iter()
            .copied()
            .filter(|p| !mine.contains(p))
            .take(3)
            .collect();
        assert_eq!(subs.filter(PodId(0), "backend", outside.clone()), outside);
    }
}
