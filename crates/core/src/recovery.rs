//! Recovery-line computation.
//!
//! The operational protocol computes the recovery line through cascading
//! rollback alerts (paper §3.4). This module provides the same computation
//! as a pure function over the clusters' stored `(SN, DDV)` lists. It is
//! used by:
//!
//! * the garbage collector, which "simulates a failure in each cluster and
//!   keeps the smallest SN to which the clusters of the federation might
//!   rollback" (paper §3.5);
//! * tests, which check the operational cascade converges to this line.
//!
//! ## The rollback rule
//!
//! On an alert `(origin, s)` a cluster must discard state that depends on
//! `origin`'s execution *after* its restored CLC `s` — i.e. on messages
//! piggybacking an SN `>= s` (a message stamped `s` is sent after CLC `s`
//! commits). The key property (paper §3.2 mechanics): a message that
//! *raises* a DDV entry forces a CLC and is delivered only after that CLC
//! commits, so a CLC's **state** depends on `origin` only up to its
//! *predecessor's* DDV entry. The oldest CLC stamped `DDV[origin] >= s`
//! therefore has a clean state (its predecessor is `< s` by minimality)
//! and is the restore point — the paper's "first (the older) CLC which has
//! its DDV entry … greater than or equal to the received SN".

use std::sync::Arc;
use storage::{Ddv, SeqNum};

/// The stored checkpoints of one cluster: `(SN, DDV)` pairs, oldest first.
///
/// The stamps are `Arc`-shared with the stores they came from
/// ([`storage::ClcStore::ddv_list`]): the recovery-line and GC analyses
/// borrow the stored DDVs structurally instead of deep-copying one vector
/// per checkpoint per query.
pub(crate) type ClcList = Vec<(SeqNum, Arc<Ddv>)>;

/// The recovery line: for each cluster, the SN of the CLC it ends up
/// restoring (its current latest if it does not roll back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryLine {
    /// Restored SN per cluster.
    pub sns: Vec<SeqNum>,
    /// Which clusters restored a checkpoint — thereby losing their live
    /// post-checkpoint execution — including restores of their *latest*
    /// CLC (the paper's C1 in Figure 5 "has to rollback to its last CLC").
    pub rolled_back: Vec<bool>,
}

/// Compute the recovery line after a failure in cluster `faulty`.
///
/// Models the alert cascade: the faulty cluster restores its newest CLC
/// and alerts everyone; a cluster whose newest surviving CLC is stamped
/// `DDV[origin] >= alert_sn` falls back to the *oldest* CLC with such a
/// stamp and emits its own alert; repeat to fixpoint. Positions only move
/// backwards, so the computation terminates.
///
/// # Panics
/// If any cluster has no stored CLC or `faulty` is out of range.
pub fn recovery_line(lists: &[ClcList], faulty: usize) -> RecoveryLine {
    recovery_line_multi(lists, &[faulty])
}

/// Compute the recovery line after **simultaneous** failures in every
/// cluster of `faulty_set` (the paper's §7 extension: "the protocol should
/// tolerate simultaneous faults in different clusters").
///
/// # Panics
/// If any cluster has no stored CLC, `faulty_set` is empty, or an index is
/// out of range.
pub(crate) fn recovery_line_multi(lists: &[ClcList], faulty_set: &[usize]) -> RecoveryLine {
    assert!(!faulty_set.is_empty(), "need at least one faulty cluster");
    for &faulty in faulty_set {
        assert!(faulty < lists.len(), "faulty cluster out of range");
    }
    for (c, l) in lists.iter().enumerate() {
        assert!(!l.is_empty(), "cluster {c} has no stored CLC");
    }
    // pos[j] = index into lists[j] of the checkpoint cluster j stands at.
    let mut pos: Vec<usize> = lists.iter().map(|l| l.len() - 1).collect();
    // Clusters that performed a restore (losing their live suffix).
    let mut reset = vec![false; lists.len()];

    // Every faulty cluster restores its newest stored CLC and alerts.
    let mut worklist: Vec<(usize, SeqNum)> = faulty_set
        .iter()
        .map(|&faulty| {
            reset[faulty] = true;
            (faulty, lists[faulty][pos[faulty]].0)
        })
        .collect();
    // Each (cluster, restored SN) alert is emitted at most once — the pure
    // analogue of the operational protocol's per-epoch alert dedup, and
    // what terminates echo cascades.
    let mut emitted: std::collections::HashSet<(usize, SeqNum)> =
        worklist.iter().copied().collect();

    while let Some((origin, alert_sn)) = worklist.pop() {
        for j in 0..lists.len() {
            if j == origin {
                continue;
            }
            if lists[j][pos[j]].1.get(origin) < alert_sn {
                continue; // no dependency on the lost suffix
            }
            // Oldest CLC (within the surviving prefix) stamped >= alert_sn.
            let first_offending = lists[j][..=pos[j]]
                .iter()
                .position(|(_, ddv)| ddv.get(origin) >= alert_sn)
                .expect("latest offends, so some entry does");
            // Even when the position does not move (the cluster restores
            // its current checkpoint), the restore discards the live
            // post-checkpoint segment, so the alert still propagates.
            pos[j] = first_offending;
            reset[j] = true;
            let alert = (j, lists[j][first_offending].0);
            if emitted.insert(alert) {
                worklist.push(alert);
            }
        }
    }

    RecoveryLine {
        sns: (0..lists.len()).map(|j| lists[j][pos[j]].0).collect(),
        rolled_back: reset,
    }
}

/// Check that per-cluster restored SNs form a *consistent cut*: no
/// cluster's restored **state** depends on the lost execution of a
/// cluster that rolled back. A CLC's state depends on cluster `i` only up
/// to the DDV entry of its *predecessor* (the entry-raising message is
/// delivered after the commit). A dependency on `i` at stamp `d` is a
/// ghost iff `i` rolled back (losing its execution after CLC `sns[i]`)
/// and `d >= sns[i]` (messages stamped `sns[i]` are sent after CLC
/// `sns[i]` commits). Clusters that did not roll back lose nothing.
pub fn is_consistent_cut(lists: &[ClcList], sns: &[SeqNum], rolled_back: &[bool]) -> bool {
    assert_eq!(lists.len(), sns.len());
    assert_eq!(lists.len(), rolled_back.len());
    for (j, list) in lists.iter().enumerate() {
        let Some(idx) = list.iter().position(|(sn, _)| *sn == sns[j]) else {
            return false; // restored SN not even stored
        };
        // The state at `idx` contains deliveries made before its commit,
        // bounded by the predecessor's stamp (initial CLC: no deliveries).
        if idx == 0 {
            continue;
        }
        let bound = &list[idx - 1].1;
        for (i, &sn_i) in sns.iter().enumerate() {
            if i == j || !rolled_back[i] {
                continue;
            }
            let dep = bound.get(i);
            if dep >= sn_i && dep > SeqNum::ZERO {
                return false; // state contains a delivery from i's lost suffix
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddv(entries: &[u64]) -> Arc<Ddv> {
        Arc::new(Ddv::from_entries(
            entries.iter().map(|&e| SeqNum(e)).collect(),
        ))
    }

    /// Three clusters, mirroring the paper's Figure 5 topology of
    /// dependencies (cluster indices 0,1,2 = paper's clusters 1,2,3).
    fn figure5_lists() -> Vec<ClcList> {
        let c0 = vec![
            (SeqNum(1), ddv(&[1, 0, 0])),
            (SeqNum(2), ddv(&[2, 0, 0])),
            (SeqNum(3), ddv(&[3, 0, 4])),
        ];
        let c1 = vec![
            (SeqNum(1), ddv(&[0, 1, 0])),
            (SeqNum(2), ddv(&[1, 2, 0])),
            (SeqNum(3), ddv(&[1, 3, 0])),
        ];
        let c2 = vec![
            (SeqNum(1), ddv(&[0, 0, 1])),
            (SeqNum(2), ddv(&[2, 0, 2])),
            (SeqNum(3), ddv(&[2, 3, 3])),
            (SeqNum(4), ddv(&[2, 3, 4])),
        ];
        vec![c0, c1, c2]
    }

    #[test]
    fn paper_figure5_fault_in_cluster2() {
        // The paper's scenario: fault in its cluster 2 (our index 1),
        // which restores its last CLC, SN 3, and sends Alert(3).
        // * Cluster 0 (paper C1): no DDV[1] entry >= 3 — does not roll.
        // * Cluster 2 (paper C3): oldest CLC with DDV[1] >= 3 is its CLC3
        //   ("has to rollback to the first CLC that has its associated DDV
        //   containing cluster 2 entry greater than or equal") -> SN 3,
        //   sends Alert(3).
        // * Cluster 0: oldest CLC with DDV[2] >= 3 is its CLC3 (DDV[2]=4)
        //   ("has to rollback to its last CLC which has 4 in cluster 3's
        //   entry") -> restores SN 3, alerts — nobody depends further.
        let lists = figure5_lists();
        let line = recovery_line(&lists, 1);
        assert_eq!(line.sns, vec![SeqNum(3), SeqNum(3), SeqNum(3)]);
        // All three clusters restore a checkpoint: C1 (our cluster 0)
        // "has to rollback to its last CLC" — a live-state reset.
        assert_eq!(line.rolled_back, vec![true, true, true]);
        assert!(is_consistent_cut(&lists, &line.sns, &line.rolled_back));
    }

    #[test]
    fn fault_at_pipeline_tail_hurts_nobody() {
        let lists = figure5_lists();
        // Cluster 2 (paper C3) fails: restores SN 4; cluster 0's CLC3 has
        // DDV[2]=4 >= 4 -> restores CLC3 (its first offending). Cluster 1
        // has no DDV[2] entries. Cluster 2's own alert cascade then stops.
        let line = recovery_line(&lists, 2);
        assert_eq!(line.sns, vec![SeqNum(3), SeqNum(3), SeqNum(4)]);
        assert!(!line.rolled_back[1]);
        assert!(is_consistent_cut(&lists, &line.sns, &line.rolled_back));
    }

    #[test]
    fn independent_clusters_never_roll_back() {
        let lists = vec![
            vec![(SeqNum(1), ddv(&[1, 0])), (SeqNum(2), ddv(&[2, 0]))],
            vec![(SeqNum(1), ddv(&[0, 1])), (SeqNum(2), ddv(&[0, 2]))],
        ];
        let line = recovery_line(&lists, 0);
        assert_eq!(line.sns, vec![SeqNum(2), SeqNum(2)]);
        assert_eq!(
            line.rolled_back,
            vec![true, false],
            "only the faulty cluster"
        );
        assert!(is_consistent_cut(&lists, &line.sns, &line.rolled_back));
    }

    #[test]
    fn single_cluster_line_is_its_latest() {
        let lists = vec![vec![(SeqNum(1), ddv(&[1])), (SeqNum(5), ddv(&[5]))]];
        let line = recovery_line(&lists, 0);
        assert_eq!(line.sns, vec![SeqNum(5)]);
    }

    #[test]
    fn forced_clcs_stop_the_domino() {
        // Tight ping-pong history: every CLC records the other side's
        // latest. Under the oldest-offending rule the forced CLC itself is
        // the restore point, so one failure costs each cluster at most one
        // hop back — no domino.
        let mut c0 = vec![(SeqNum(1), ddv(&[1, 0]))];
        let mut c1 = vec![(SeqNum(1), ddv(&[0, 1]))];
        for k in 2..=10u64 {
            c0.push((SeqNum(k), ddv(&[k, k - 1])));
            c1.push((SeqNum(k), ddv(&[k, k])));
        }
        let lists = vec![c0, c1];
        let line = recovery_line(&lists, 0);
        // Cluster 0 restores SN 10. Cluster 1's oldest CLC with DDV[0] >=
        // 10 is its own SN 10 -> restores it, alerts with 10; cluster 0's
        // oldest with DDV[1] >= 10: none (max 9) -> stop.
        assert_eq!(line.sns, vec![SeqNum(10), SeqNum(10)]);
        assert!(is_consistent_cut(&lists, &line.sns, &line.rolled_back));
    }

    #[test]
    fn dependency_chain_cascades_one_hop_each() {
        // 0 -> 1 -> 2 pipeline with one dependency hop per stage.
        let lists = vec![
            vec![(SeqNum(1), ddv(&[1, 0, 0])), (SeqNum(2), ddv(&[2, 0, 0]))],
            vec![(SeqNum(1), ddv(&[0, 1, 0])), (SeqNum(2), ddv(&[2, 2, 0]))],
            vec![(SeqNum(1), ddv(&[0, 0, 1])), (SeqNum(2), ddv(&[0, 2, 2]))],
        ];
        // Fault in 0: restores SN 2 (losing the suffix where the SN-2
        // message was sent). Cluster 1's oldest CLC with DDV[0] >= 2 is
        // its CLC2 — restored, alert SN 2. Cluster 2's oldest with
        // DDV[1] >= 2 is its CLC2 — restored. Every cluster keeps SN 2:
        // the forced CLCs contain the recovery line.
        let line = recovery_line(&lists, 0);
        assert_eq!(line.sns, vec![SeqNum(2), SeqNum(2), SeqNum(2)]);
        assert!(is_consistent_cut(&lists, &line.sns, &line.rolled_back));
    }

    #[test]
    fn consistent_cut_checks_predecessor_stamps() {
        let lists = vec![
            vec![
                (SeqNum(1), ddv(&[1, 0])),
                (SeqNum(2), ddv(&[2, 3])),
                (SeqNum(3), ddv(&[3, 3])),
            ],
            vec![
                (SeqNum(1), ddv(&[0, 1])),
                (SeqNum(2), ddv(&[0, 2])),
                (SeqNum(3), ddv(&[0, 3])),
            ],
        ];
        // Cluster 0 at SN 3: its predecessor (SN 2) is stamped DDV[1]=3 —
        // its state contains deliveries from cluster 1's post-CLC-3
        // execution. If cluster 1 rolled back to 3, that is inconsistent…
        assert!(!is_consistent_cut(
            &lists,
            &[SeqNum(3), SeqNum(3)],
            &[true, true]
        ));
        // …but harmless when cluster 1 did NOT roll back (nothing lost).
        assert!(is_consistent_cut(
            &lists,
            &[SeqNum(3), SeqNum(3)],
            &[true, false]
        ));
        // Cluster 0 at SN 2 is fine even with both rolled back.
        assert!(is_consistent_cut(
            &lists,
            &[SeqNum(2), SeqNum(3)],
            &[true, true]
        ));
        // Unknown SN is inconsistent.
        assert!(!is_consistent_cut(
            &lists,
            &[SeqNum(9), SeqNum(3)],
            &[true, true]
        ));
    }

    #[test]
    fn alert_echo_terminates() {
        // Both clusters' newest CLCs reference each other at the newest
        // SNs — the echo case. The no-progress cut must still terminate
        // and produce a consistent line.
        let lists = vec![
            vec![(SeqNum(1), ddv(&[1, 0])), (SeqNum(2), ddv(&[2, 2]))],
            vec![(SeqNum(1), ddv(&[0, 1])), (SeqNum(2), ddv(&[2, 2]))],
        ];
        let line = recovery_line(&lists, 0);
        assert_eq!(line.sns, vec![SeqNum(2), SeqNum(2)]);
        assert!(is_consistent_cut(&lists, &line.sns, &line.rolled_back));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn faulty_out_of_range_panics() {
        recovery_line(&figure5_lists(), 7);
    }

    #[test]
    #[should_panic(expected = "no stored CLC")]
    fn empty_list_panics() {
        recovery_line(&[vec![]], 0);
    }
}
