//! Cluster topology: nodes, cages, cores.

/// Identifier of a compute node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a cage (a power-monitored group of nodes). Only tests name
/// one: the machine's per-node reference and the topology's own.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct CageId(pub usize);

/// Static description of a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Number of cages (each with its own power monitor).
    pub num_cages: usize,
    /// Nodes per cage.
    pub nodes_per_cage: usize,
    /// CPU sockets per node.
    pub sockets_per_node: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
}

impl ClusterTopology {
    /// The *Caddy* cluster: 15 cages × 10 nodes, 2 × 8-core sockets per node
    /// ⇒ 150 nodes / 2400 cores.
    pub fn caddy() -> Self {
        ClusterTopology {
            num_cages: 15,
            nodes_per_cage: 10,
            sockets_per_node: 2,
            cores_per_socket: 8,
        }
    }

    /// A Caddy-style machine scaled to exactly `nodes` nodes (same node
    /// hardware: 2 × 8-core sockets). Cages stay at Caddy's ten nodes
    /// whenever `nodes` divides evenly; otherwise the cage size drops to
    /// the largest divisor of `nodes` that is ≤ 10, so `num_nodes()` is
    /// always exactly `nodes` — node counts must never truncate (the
    /// same lesson as `per_node_payload`'s ceiling division: a floor
    /// here would silently under-provision every non-divisible machine).
    ///
    /// `caddy_scaled(150)` is [`ClusterTopology::caddy`] exactly.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn caddy_scaled(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        let nodes_per_cage = (1..=10usize)
            .rev()
            .find(|d| nodes % d == 0)
            .expect("1 divides every count");
        ClusterTopology {
            num_cages: nodes / nodes_per_cage,
            nodes_per_cage,
            ..ClusterTopology::caddy()
        }
    }

    /// A small topology for fast tests (2 cages × 2 nodes).
    #[cfg(test)]
    pub(crate) fn tiny() -> Self {
        ClusterTopology {
            num_cages: 2,
            nodes_per_cage: 2,
            sockets_per_node: 2,
            cores_per_socket: 8,
        }
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.num_cages * self.nodes_per_cage
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Total core count.
    pub fn num_cores(&self) -> usize {
        self.num_nodes() * self.cores_per_node()
    }

    /// The cage containing `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[cfg(test)]
    fn cage_of(&self, node: NodeId) -> CageId {
        assert!(node.0 < self.num_nodes(), "node {node:?} out of range");
        CageId(node.0 / self.nodes_per_cage)
    }

    /// The nodes belonging to `cage`, in id order.
    ///
    /// # Panics
    /// Panics if `cage` is out of range.
    #[cfg(test)]
    pub(crate) fn nodes_in(&self, cage: CageId) -> impl Iterator<Item = NodeId> + '_ {
        assert!(cage.0 < self.num_cages, "cage {cage:?} out of range");
        let start = cage.0 * self.nodes_per_cage;
        (start..start + self.nodes_per_cage).map(NodeId)
    }

    /// All cage ids.
    #[cfg(test)]
    fn cages(&self) -> impl Iterator<Item = CageId> {
        (0..self.num_cages).map(CageId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caddy_counts_match_paper() {
        let c = ClusterTopology::caddy();
        assert_eq!(c.num_nodes(), 150);
        assert_eq!(c.num_cores(), 2400);
        assert_eq!(c.cores_per_node(), 16);
        assert_eq!(c.num_cages, 15);
    }

    #[test]
    fn cage_mapping_partitions_nodes() {
        let c = ClusterTopology::caddy();
        for cage in c.cages() {
            for node in c.nodes_in(cage) {
                assert_eq!(c.cage_of(node), cage);
            }
        }
        // Every node appears exactly once across cages.
        let total: usize = c.cages().map(|g| c.nodes_in(g).count()).sum();
        assert_eq!(total, c.num_nodes());
    }

    #[test]
    fn caddy_scaled_150_is_caddy_exactly() {
        assert_eq!(ClusterTopology::caddy_scaled(150), ClusterTopology::caddy());
    }

    #[test]
    fn caddy_scaled_is_exact_for_awkward_counts() {
        for nodes in [1usize, 2, 9, 10, 11, 97, 150, 151, 1_000, 9_999, 10_000] {
            let t = ClusterTopology::caddy_scaled(nodes);
            assert_eq!(t.num_nodes(), nodes, "node count truncated at {nodes}");
            assert_eq!(t.cores_per_node(), 16, "node hardware changed");
            assert!(t.nodes_per_cage <= 10, "cages outgrew the Appro monitors");
            // Cage mapping still partitions all nodes.
            let total: usize = t.cages().map(|g| t.nodes_in(g).count()).sum();
            assert_eq!(total, nodes);
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn caddy_scaled_rejects_zero() {
        let _ = ClusterTopology::caddy_scaled(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cage_of_rejects_bad_node() {
        let c = ClusterTopology::tiny();
        let _ = c.cage_of(NodeId(99));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nodes_in_rejects_bad_cage() {
        let c = ClusterTopology::tiny();
        let _ = c.nodes_in(CageId(7)).count();
    }
}
