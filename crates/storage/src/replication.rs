//! In-cluster stable storage by neighbour replication.
//!
//! The paper (§3.1): "each node record its part of the CLCs, and in the
//! memory of an other node in the cluster. Because of this stable storage
//! implementation, only one simultaneous fault in a cluster is tolerated."
//! The future-work section asks for a configurable replication degree — we
//! implement that generalization: node `i`'s fragment is replicated on the
//! `degree` following nodes (mod cluster size), tolerating `degree`
//! simultaneous faults.

/// Placement policy for checkpoint fragments inside one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPolicy {
    degree: u32,
}

impl ReplicationPolicy {
    /// The largest replication degree: an engine tracks which holders have
    /// stored its fragment in one 64-bit mask, holder `(rank + d) % n` at
    /// bit `d - 1`.
    pub const MAX_DEGREE: u32 = 64;

    /// The paper's policy: one replica on the next node (degree 1).
    pub fn paper_default() -> Self {
        ReplicationPolicy { degree: 1 }
    }

    /// A policy with `degree` replicas per fragment.
    ///
    /// # Panics
    /// If `degree == 0` (a fragment existing only on its owner cannot
    /// survive that owner's failure) or `degree` exceeds
    /// [`ReplicationPolicy::MAX_DEGREE`].
    pub fn with_degree(degree: u32) -> Self {
        assert!(degree > 0, "replication degree must be at least 1");
        assert!(
            degree <= Self::MAX_DEGREE,
            "replication degree must be at most {}, got {degree}",
            Self::MAX_DEGREE
        );
        ReplicationPolicy { degree }
    }

    /// Number of replicas per fragment (excluding the owner's copy).
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Total copies of each fragment (owner + replicas).
    pub fn copies(&self) -> u32 {
        self.degree + 1
    }

    /// Ranks holding a replica of `rank`'s fragment in a cluster of
    /// `n` nodes (owner excluded), nearest first: the `i`-th is
    /// `(rank + i + 1) % n`. Fewer than `degree` if the cluster is small.
    pub fn replica_holders(&self, rank: u32, n: u32) -> impl ExactSizeIterator<Item = u32> {
        assert!(rank < n, "rank out of range");
        let k = self.degree.min(n - 1);
        (0..k).map(move |i| (rank + i + 1) % n)
    }

    /// Can the cluster reconstruct every fragment if `failed` ranks fail
    /// simultaneously? (Every fragment needs a surviving copy.)
    pub fn recoverable(&self, failed: &[u32], n: u32) -> bool {
        let is_failed = |r: u32| failed.contains(&r);
        if failed.iter().any(|&r| r >= n) {
            return false;
        }
        for &f in failed {
            // The owner's copy is gone; some replica holder must survive
            // (a lone node has none, and `all` of nothing holds).
            if self.replica_holders(f, n).all(is_failed) {
                return false;
            }
        }
        true
    }

    /// Maximum number of simultaneous faults guaranteed recoverable for a
    /// cluster of `n` nodes (i.e. every failure pattern of this size is
    /// survivable). With replicas on consecutive neighbours this is the
    /// degree, as long as the cluster is strictly larger than the degree.
    pub fn guaranteed_faults(&self, n: u32) -> u32 {
        if n <= 1 {
            0
        } else {
            self.degree.min(n - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_degree_one() {
        let p = ReplicationPolicy::paper_default();
        assert_eq!(p.degree(), 1);
        assert_eq!(p.copies(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn degree_zero_rejected() {
        ReplicationPolicy::with_degree(0);
    }

    #[test]
    #[should_panic(expected = "at most 64, got 65")]
    fn degree_above_the_holder_mask_rejected() {
        assert_eq!(ReplicationPolicy::with_degree(64).degree(), 64);
        ReplicationPolicy::with_degree(65);
    }

    fn holders(p: ReplicationPolicy, rank: u32, n: u32) -> Vec<u32> {
        p.replica_holders(rank, n).collect()
    }

    #[test]
    fn holders_wrap_around() {
        let p = ReplicationPolicy::with_degree(2);
        assert_eq!(holders(p, 8, 10), [9, 0]);
        assert_eq!(holders(p, 0, 10), [1, 2]);
    }

    #[test]
    fn holders_clamped_in_tiny_cluster() {
        let p = ReplicationPolicy::with_degree(3);
        assert_eq!(holders(p, 0, 2), [1]);
        assert_eq!(p.replica_holders(0, 1).len(), 0);
    }

    #[test]
    fn single_fault_recoverable_at_degree_one() {
        let p = ReplicationPolicy::paper_default();
        for f in 0..10 {
            assert!(p.recoverable(&[f], 10));
        }
    }

    #[test]
    fn adjacent_double_fault_not_recoverable_at_degree_one() {
        let p = ReplicationPolicy::paper_default();
        // Node 3's only replica lives on node 4; both down -> unrecoverable.
        assert!(!p.recoverable(&[3, 4], 10));
        // Non-adjacent double faults happen to survive...
        assert!(p.recoverable(&[3, 7], 10));
        // ...but are not *guaranteed*:
        assert_eq!(p.guaranteed_faults(10), 1);
    }

    #[test]
    fn degree_two_survives_adjacent_pairs() {
        let p = ReplicationPolicy::with_degree(2);
        assert!(p.recoverable(&[3, 4], 10));
        assert!(
            !p.recoverable(&[3, 4, 5], 10),
            "three consecutive exceed degree 2"
        );
        assert_eq!(p.guaranteed_faults(10), 2);
    }

    #[test]
    fn out_of_range_failure_is_unrecoverable() {
        let p = ReplicationPolicy::paper_default();
        assert!(!p.recoverable(&[10], 10));
    }

    #[test]
    fn degenerate_cluster_sizes() {
        let p = ReplicationPolicy::paper_default();
        assert_eq!(p.guaranteed_faults(1), 0);
        assert!(
            !p.recoverable(&[0], 1),
            "lone node has nowhere to replicate"
        );
    }
}
