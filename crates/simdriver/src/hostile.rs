//! Side statistics of hostile-network runs.
//!
//! [`RunReport`](crate::RunReport) is the fingerprinted artifact of a run —
//! its `Debug` dump *is* the determinism contract — so hostile-network
//! observations live in this separate structure, returned only by
//! [`run_hostile`](crate::run_hostile). A run with every hostile feature
//! disabled produces byte-identical reports to one that never heard of
//! this module.

use desim::SimTime;

/// Where and when the workload issued one ledger entry.
#[derive(Debug, Clone, Copy)]
struct Sent {
    /// Sending cluster.
    cluster: usize,
    /// Send instant.
    at: SimTime,
    /// The sending cluster later restored a CLC committed before `at`:
    /// the send was undone by its own sender's rollback — uncommitted
    /// work, which nothing promises to deliver.
    undone: bool,
}

/// Per-tag delivery ledger: which workload sends were delivered, how many
/// times, and in which incarnation (rollback epoch) of the receiving
/// cluster.
///
/// Observation only — recording never feeds back into the run.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLedger {
    /// The send the workload issued under each recorded tag. Keyed, not
    /// indexed: only inter-cluster sends are recorded, a small share of
    /// the tag space.
    sent: std::collections::BTreeMap<u64, Sent>,
    /// `delivered[tag]` = total application deliveries of this tag,
    /// replays included.
    delivered: Vec<u32>,
    /// Deliveries per `(tag, receiver-cluster incarnation)`, where the
    /// incarnation index is the number of rollbacks the receiving cluster
    /// had completed when the delivery happened.
    per_incarnation: std::collections::BTreeMap<(u64, usize), u32>,
}

impl DeliveryLedger {
    fn slot(v: &mut Vec<u32>, tag: u64) -> &mut u32 {
        let i = tag as usize;
        if v.len() <= i {
            v.resize(i + 1, 0);
        }
        &mut v[i]
    }

    pub(crate) fn record_sent(&mut self, tag: u64, cluster: usize, at: SimTime) {
        let undone = false;
        self.sent.insert(
            tag,
            Sent {
                cluster,
                at,
                undone,
            },
        );
    }

    /// `cluster` rolled back to a CLC committed at `restored_at`: every
    /// send it issued after that instant is undone with it.
    pub(crate) fn record_rollback(&mut self, cluster: usize, restored_at: SimTime) {
        for s in self.sent.values_mut() {
            if s.cluster == cluster && s.at > restored_at {
                s.undone = true;
            }
        }
    }

    pub(crate) fn record_delivered(&mut self, tag: u64, incarnation: usize) {
        *Self::slot(&mut self.delivered, tag) += 1;
        *self.per_incarnation.entry((tag, incarnation)).or_default() += 1;
    }

    /// Tags that were sent, not undone by their own sender's rollback,
    /// and never delivered (committed work lost).
    pub fn undelivered(&self) -> Vec<u64> {
        self.sent
            .iter()
            .filter(|&(&tag, s)| {
                !s.undone && self.delivered.get(tag as usize).copied().unwrap_or(0) == 0
            })
            .map(|(&tag, _)| tag)
            .collect()
    }

    /// `(tag, incarnation, count)` entries delivered more than once within
    /// a single incarnation of the receiving cluster.
    pub fn duplicated_in_incarnation(&self) -> Vec<(u64, usize, u32)> {
        self.per_incarnation
            .iter()
            .filter(|&(_, &count)| count > 1)
            .map(|(&(tag, inc), &count)| (tag, inc, count))
            .collect()
    }

    /// Number of distinct tags delivered at least once.
    pub fn delivered_tags(&self) -> usize {
        self.delivered.iter().filter(|&&d| d > 0).count()
    }
}

/// What the hostile network did during a run, plus the optional delivery
/// ledger. Everything here is derived state — the fingerprinted
/// [`RunReport`](crate::RunReport) never references it.
#[derive(Debug, Clone, Default)]
pub struct HostileRunStats {
    /// Scripted partitions that became active during the run.
    pub partitions_activated: u64,
    /// Partitions that healed during the run.
    pub partitions_healed: u64,
    /// Messages held at a partition cut.
    pub messages_held: u64,
    /// Duplicate message copies injected.
    pub duplicates_injected: u64,
    /// Messages released from FIFO order.
    pub messages_reordered: u64,
    /// Messages that vanished on the wire (loss model; retransmitted
    /// copies that are lost count individually).
    pub messages_lost: u64,
    /// Copies put back on the wire by the reliable transport.
    pub retransmissions: u64,
    /// The delivery ledger, present when
    /// [`SimConfig::with_delivery_ledger`](crate::SimConfig::with_delivery_ledger)
    /// was set.
    pub ledger: Option<DeliveryLedger>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn a_send_undone_by_its_senders_rollback_is_not_lost_committed_work() {
        let mut l = DeliveryLedger::default();
        l.record_sent(0, 0, t(900)); // before cluster 0's CLC at 988 s
        l.record_sent(1, 0, t(1079)); // after it
        l.record_sent(2, 1, t(1079)); // another cluster's
        assert_eq!(l.undelivered(), vec![0, 1, 2]);

        // Cluster 0 restores the CLC committed at 988 s: only its own
        // later send goes with it.
        l.record_rollback(0, t(988));
        assert_eq!(l.undelivered(), vec![0, 2]);

        // Sends issued after the rollback are fresh obligations.
        l.record_sent(3, 0, t(1100));
        assert_eq!(l.undelivered(), vec![0, 2, 3]);
        l.record_delivered(0, 0);
        l.record_delivered(2, 0);
        l.record_delivered(3, 1);
        assert!(l.undelivered().is_empty());
    }
}
