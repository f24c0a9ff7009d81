//! Protocol configuration.

use crate::msg::DDV_ENTRY_BYTES;
use hc3i_types::{NodeId, MAX_CLUSTERS};
use storage::ReplicationPolicy;

/// What inter-cluster application messages piggyback for dependency
/// tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PiggybackMode {
    /// The paper's protocol: piggyback the sender cluster's SN only.
    #[default]
    SnOnly,
    /// The paper's §7 extension: piggyback the whole DDV, adding
    /// transitivity to dependency tracking (fewer forced CLCs).
    FullDdv,
}

/// Static configuration shared by every node engine of a federation.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Nodes per cluster, indexed by cluster.
    pub cluster_sizes: Vec<u32>,
    /// SN-only (paper) or full-DDV (paper §7 extension) piggybacking.
    pub piggyback: PiggybackMode,
    /// In-cluster stable-storage replication policy.
    pub replication: ReplicationPolicy,
}

impl ProtocolConfig {
    /// Config for `cluster_sizes` with paper defaults everywhere else.
    pub fn new(cluster_sizes: Vec<u32>) -> Self {
        assert!(
            !cluster_sizes.is_empty(),
            "a federation needs at least one cluster"
        );
        assert!(
            cluster_sizes.len() <= MAX_CLUSTERS,
            "a federation has at most {MAX_CLUSTERS} clusters, got {}",
            cluster_sizes.len()
        );
        assert!(
            cluster_sizes.iter().all(|&n| n > 0),
            "clusters cannot be empty"
        );
        ProtocolConfig {
            cluster_sizes,
            piggyback: PiggybackMode::default(),
            replication: ReplicationPolicy::paper_default(),
        }
    }

    /// Switch the piggyback mode.
    pub fn with_piggyback(mut self, mode: PiggybackMode) -> Self {
        self.piggyback = mode;
        self
    }

    /// Switch the replication policy.
    pub fn with_replication(mut self, policy: ReplicationPolicy) -> Self {
        self.replication = policy;
        self
    }

    /// Number of clusters in the federation.
    pub fn num_clusters(&self) -> usize {
        self.cluster_sizes.len()
    }

    /// Number of nodes in cluster `c`.
    pub(crate) fn nodes_in(&self, c: usize) -> u32 {
        self.cluster_sizes[c]
    }

    /// The coordinator of cluster `c`: rank 0, for the whole run — a failed
    /// coordinator is revived by the rollback its cluster's recovery
    /// performs. Cluster 0's coordinator is also the GC initiator.
    #[inline]
    pub fn coordinator(&self, c: usize) -> NodeId {
        NodeId::new(c as u16, 0)
    }

    /// Wire size of a DDV of federation dimension.
    pub fn ddv_bytes(&self) -> u64 {
        DDV_ENTRY_BYTES * self.num_clusters() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ProtocolConfig::new(vec![100, 100]);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.nodes_in(1), 100);
        assert_eq!(c.piggyback, PiggybackMode::SnOnly);
        assert_eq!(c.replication.degree(), 1);
        assert_eq!(c.coordinator(1), NodeId::new(1, 0));
        assert_eq!(c.ddv_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn rejects_empty_federation() {
        ProtocolConfig::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "at most 65536 clusters")]
    fn rejects_overwide_federation() {
        ProtocolConfig::new(vec![1; MAX_CLUSTERS + 1]);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn rejects_empty_cluster() {
        ProtocolConfig::new(vec![4, 0]);
    }

    #[test]
    fn builders_compose() {
        let c = ProtocolConfig::new(vec![2])
            .with_piggyback(PiggybackMode::FullDdv)
            .with_replication(storage::ReplicationPolicy::with_degree(2));
        assert_eq!(c.piggyback, PiggybackMode::FullDdv);
        assert_eq!(c.replication.degree(), 2);
    }
}
