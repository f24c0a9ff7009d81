//! End-of-run metrics, folded from the [`ProtoEvent`] vocabulary.
//!
//! [`RunReport::observe`] is the one fold from events to report fields:
//! the simulator calls it from its [`Host::emit`](crate::Host::emit), the
//! threaded runtime from its controller as it drains the event channel.
//! A report's `Debug` dump is the determinism fingerprint, so field names
//! and order are part of the contract.

use crate::io::ProtoEvent;
use crate::node::NodeEngine;
use hc3i_types::{SimDuration, SimTime};
use storage::SeqNum;

/// Per-cluster checkpointing statistics.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Unforced (timer-driven) CLCs committed.
    pub unforced_clcs: u64,
    /// Forced (communication-induced) CLCs committed.
    pub forced_clcs: u64,
    /// CLCs currently stored at end of run (coordinator's store).
    pub stored_clcs: usize,
    /// Largest number of CLCs simultaneously stored.
    pub peak_stored_clcs: usize,
    /// Rollbacks this cluster performed: `(time, restored SN, discarded)`.
    pub rollbacks: Vec<(SimTime, SeqNum, usize)>,
    /// Work lost per rollback: the rollback instant minus the restored
    /// CLC's commit instant.
    pub work_lost: Vec<SimDuration>,
    /// GC before/after stored-CLC counts, one pair per collection.
    pub gc_before_after: Vec<(usize, usize)>,
    /// Messages currently logged at end of run (cluster-wide total).
    pub logged_messages: u64,
    /// Peak simultaneously logged messages (cluster-wide total of peaks).
    pub peak_logged_messages: u64,
}

impl ClusterStats {
    /// Fill the end-of-run storage and log occupancy from the cluster's
    /// engines, coordinator (rank 0) first.
    pub fn close<'a>(&mut self, engines: impl IntoIterator<Item = &'a NodeEngine>) {
        let (mut logged, mut peak_logged) = (0, 0);
        for (rank, e) in engines.into_iter().enumerate() {
            if rank == 0 {
                self.stored_clcs = e.store().len();
                self.peak_stored_clcs = e.store().peak();
            }
            logged += e.log().len() as u64;
            peak_logged += e.log().peak() as u64;
        }
        self.logged_messages = logged;
        self.peak_logged_messages = peak_logged;
    }

    /// Total committed CLCs (excluding the initial checkpoint).
    pub fn total_clcs(&self) -> u64 {
        self.unforced_clcs + self.forced_clcs
    }
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-cluster statistics.
    pub clusters: Vec<ClusterStats>,
    /// Application messages delivered end-to-end.
    pub app_delivered: u64,
    /// Application messages the workload issued.
    pub app_sent: u64,
    /// `(from, to)` application message counts per cluster pair.
    pub app_matrix: Vec<Vec<u64>>,
    /// Total protocol-control messages on the wire.
    pub protocol_messages: u64,
    /// Total protocol-control bytes on the wire.
    pub protocol_bytes: u64,
    /// Inter-cluster acknowledgement messages.
    pub ack_messages: u64,
    /// Inter-cluster acknowledgement bytes.
    pub ack_bytes: u64,
    /// Application payload bytes on the wire (piggyback overhead included).
    pub app_bytes: u64,
    /// Consistency-monitor events (must be 0 for a sound run).
    pub late_crossings: u64,
    /// Unrecoverable-fault reports (fragment lost).
    pub unrecoverable_faults: u64,
    /// Events the host dispatched.
    pub events_processed: u64,
    /// Time at which the run ended.
    pub ended_at: SimTime,
}

impl RunReport {
    /// An empty report for a federation of `n` clusters.
    pub fn new(n: usize) -> Self {
        RunReport {
            clusters: vec![ClusterStats::default(); n],
            app_matrix: vec![vec![0; n]; n],
            ..Default::default()
        }
    }

    /// Fold one protocol event observed at `at` — the single fold behind
    /// every host's report. It reads the event and nothing else.
    #[inline]
    pub fn observe(&mut self, at: SimTime, ev: &ProtoEvent) {
        match *ev {
            ProtoEvent::Delivered { .. } => self.app_delivered += 1,
            ProtoEvent::Committed {
                cluster, forced, ..
            } => {
                let c = &mut self.clusters[cluster];
                if forced {
                    c.forced_clcs += 1;
                } else {
                    c.unforced_clcs += 1;
                }
            }
            ProtoEvent::RolledBack {
                node,
                restore_sn,
                discarded_clcs,
                committed_at,
            } => {
                // One entry per cluster rollback: rank 0's.
                if node.rank == 0 {
                    let c = &mut self.clusters[node.cluster.index()];
                    c.rollbacks.push((at, restore_sn, discarded_clcs));
                    c.work_lost.push(at.saturating_since(committed_at));
                }
            }
            ProtoEvent::GcReport {
                cluster,
                before,
                after,
            } => self.clusters[cluster].gc_before_after.push((before, after)),
            ProtoEvent::Unrecoverable { .. } => self.unrecoverable_faults += 1,
            ProtoEvent::LateCrossing { .. } => self.late_crossings += 1,
        }
    }

    /// Total rollbacks across the federation.
    pub fn total_rollbacks(&self) -> usize {
        self.clusters.iter().map(|c| c.rollbacks.len()).sum()
    }

    /// Render the Table-1-style application message matrix.
    pub fn format_app_matrix(&self) -> String {
        let mut s = String::from("Sender's   Receiver's  Message\nCluster    Cluster     Count\n");
        let n = self.app_matrix.len();
        // The paper lists intra pairs first, then inter pairs.
        for i in 0..n {
            s.push_str(&format!(
                "Cluster {i}  Cluster {i}   {}\n",
                self.app_matrix[i][i]
            ));
        }
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s.push_str(&format!(
                        "Cluster {i}  Cluster {j}   {}\n",
                        self.app_matrix[i][j]
                    ));
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut r = RunReport::default();
        r.clusters.push(ClusterStats {
            unforced_clcs: 3,
            forced_clcs: 2,
            rollbacks: vec![(SimTime::ZERO, SeqNum(1), 2)],
            ..Default::default()
        });
        r.clusters.push(ClusterStats::default());
        assert_eq!(r.clusters[0].total_clcs(), 5);
        assert_eq!(r.total_rollbacks(), 1);
    }

    #[test]
    fn matrix_formatting_lists_intra_then_inter() {
        let r = RunReport {
            app_matrix: vec![vec![2920, 145], vec![11, 2497]],
            ..Default::default()
        };
        let s = r.format_app_matrix();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].contains("2920"));
        assert!(lines[3].contains("2497"));
        assert!(lines[4].contains("145"));
        assert!(lines[5].contains("11"));
    }
}
