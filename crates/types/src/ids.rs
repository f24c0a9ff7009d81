//! Identifiers for clusters and nodes.
//!
//! The paper's architecture model is a federation of clusters, each holding
//! many nodes. Protocol state (SN, DDV) is *per cluster*; messages travel
//! *between nodes*. Identifiers are small `Copy` types so they can be
//! embedded freely in events and protocol messages.

use std::fmt;

/// Index of a cluster within the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u16);

/// The widest federation a [`ClusterId`] can address. Everything that
/// accepts a cluster count from outside (topology files, `netsim`'s
/// `Topology::new`, the protocol configuration) rejects more, because a
/// wider index would silently wrap when narrowed to an id.
pub const MAX_CLUSTERS: usize = u16::MAX as usize + 1;

impl ClusterId {
    /// Zero-based cluster index as `usize` (for table lookups).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A node, addressed by its cluster and its rank within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// The cluster this node belongs to.
    pub cluster: ClusterId,
    /// Zero-based rank within the cluster.
    pub rank: u32,
}

impl NodeId {
    /// Construct from raw parts.
    #[inline]
    pub fn new(cluster: u16, rank: u32) -> Self {
        NodeId {
            cluster: ClusterId(cluster),
            rank,
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.n{}", self.cluster, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::new(2, 17).to_string(), "C2.n17");
        assert_eq!(ClusterId(0).to_string(), "C0");
    }

    #[test]
    fn ordering_groups_by_cluster() {
        let a = NodeId::new(0, 99);
        let b = NodeId::new(1, 0);
        assert!(a < b);
    }
}
