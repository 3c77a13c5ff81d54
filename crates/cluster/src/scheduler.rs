//! Pod placement.
//!
//! Kubernetes' scheduler reduced to the one policy the experiments use:
//! *spread*, which balances pods across nodes.

/// A pure placement function over node occupancy.
#[derive(Clone, Debug)]
pub struct Scheduler {
    /// Pods per node.
    occupancy: Vec<u32>,
    /// Capacity per node (max pods).
    capacity: Vec<u32>,
}

impl Scheduler {
    /// Scheduler over `node_capacities[i]` pod slots per node.
    pub fn new(node_capacities: Vec<u32>) -> Self {
        Scheduler {
            occupancy: vec![0; node_capacities.len()],
            capacity: node_capacities,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.capacity.len()
    }

    /// Current pod count on a node.
    pub fn occupancy(&self, node: usize) -> u32 {
        self.occupancy[node]
    }

    /// Choose a node for the next pod: the one with the fewest pods that
    /// has room (ties: lowest id). `None` if the cluster is full.
    pub fn place(&mut self) -> Option<usize> {
        let choice = self
            .occupancy
            .iter()
            .enumerate()
            .filter(|(i, &o)| o < self.capacity[*i])
            .min_by_key(|(i, &o)| (o, *i))
            .map(|(i, _)| i)?;
        self.occupancy[choice] += 1;
        Some(choice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_balances() {
        let mut s = Scheduler::new(vec![10, 10, 10]);
        let placements: Vec<usize> = (0..6).map(|_| s.place().unwrap()).collect();
        assert_eq!(placements, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn spread_skips_full_nodes() {
        let mut s = Scheduler::new(vec![1, 5]);
        assert_eq!(s.place(), Some(0));
        assert_eq!(s.place(), Some(1));
        assert_eq!(s.place(), Some(1), "node 0 is full");
    }

    #[test]
    fn empty_cluster_places_nothing() {
        let mut s = Scheduler::new(vec![]);
        assert_eq!(s.place(), None);
    }
}
