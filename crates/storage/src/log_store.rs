//! Sender-side optimistic message log.
//!
//! Paper §3.3: "When a message is sent outside a cluster, the sender logs it
//! optimistically in its volatile memory. The message is acknowledged with
//! the receiver's SN which is logged along with the message itself." On a
//! rollback alert from cluster `X` with sequence number `s`, logged messages
//! destined to `X` that were acknowledged with an SN **greater than `s`**,
//! or not acknowledged at all, are resent (§3.4). The GC removes logged
//! messages acked with an SN below the receiver cluster's safe minimum
//! (§3.5).

use crate::stamp::SeqNum;

/// Identifier of one logged message within a sender's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogId(pub u64);

/// One optimistically logged inter-cluster message.
#[derive(Debug, Clone)]
pub struct LogEntry<P> {
    /// Log identifier (used to attach the ack).
    pub id: LogId,
    /// Destination cluster index.
    pub dest_cluster: usize,
    /// Destination node rank within the destination cluster.
    pub dest_rank: u32,
    /// The payload to replay on demand.
    pub payload: P,
    /// Payload size in bytes (storage-cost accounting).
    pub bytes: u64,
    /// Receiver cluster SN from the ack, if the ack arrived.
    pub ack_sn: Option<SeqNum>,
    /// The *sender* cluster's SN when the message was logged. A send that
    /// happened at own SN `s` occurred after the CLC numbered `s` committed,
    /// so a rollback restoring CLC `r` discards entries with
    /// `logged_at_sn >= r` (those sends will happen again).
    pub logged_at_sn: SeqNum,
}

/// A sender's volatile log of inter-cluster messages.
#[derive(Debug, Clone)]
pub struct MessageLog<P> {
    next_id: u64,
    entries: Vec<LogEntry<P>>,
    /// High-water mark of simultaneously logged messages.
    peak: usize,
}

impl<P> Default for MessageLog<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> MessageLog<P> {
    /// Empty log.
    pub fn new() -> Self {
        MessageLog {
            next_id: 0,
            entries: vec![],
            peak: 0,
        }
    }

    /// Log an outgoing inter-cluster message sent while the own cluster's SN
    /// was `own_sn`; returns its id.
    pub fn log(
        &mut self,
        dest_cluster: usize,
        dest_rank: u32,
        payload: P,
        bytes: u64,
        own_sn: SeqNum,
    ) -> LogId {
        let id = LogId(self.next_id);
        self.next_id += 1;
        self.entries.push(LogEntry {
            id,
            dest_cluster,
            dest_rank,
            payload,
            bytes,
            ack_sn: None,
            logged_at_sn: own_sn,
        });
        self.peak = self.peak.max(self.entries.len());
        id
    }

    /// Attach the receiver-SN acknowledgement to a logged message.
    /// Returns `false` if the entry no longer exists (already pruned).
    pub fn ack(&mut self, id: LogId, receiver_sn: SeqNum) -> bool {
        match self.entries.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.ack_sn = Some(receiver_sn);
                true
            }
            None => false,
        }
    }

    /// Messages to replay after an alert `(dest_cluster, alert_sn)`:
    /// destined to that cluster and acked with SN **>= alert_sn**, or not
    /// acked at all.
    ///
    /// The paper states the condition as strictly greater; but a message
    /// acknowledged with SN `s` was *delivered* while the receiver stood in
    /// the execution segment after CLC `s`, so restoring CLC `s` itself
    /// (alert SN = `s`) also loses the delivery. We therefore use `>=`;
    /// receiver-side duplicate suppression makes the inclusive bound safe.
    pub fn to_resend(&self, dest_cluster: usize, alert_sn: SeqNum) -> Vec<&LogEntry<P>> {
        self.entries
            .iter()
            .filter(|e| {
                e.dest_cluster == dest_cluster
                    && match e.ack_sn {
                        None => true,
                        Some(sn) => sn >= alert_sn,
                    }
            })
            .collect()
    }

    /// Mark an entry as resent: its previous ack referred to a receiver
    /// state that has been rolled back, so the entry reverts to unacked
    /// until the replay is acknowledged again.
    pub fn mark_resent(&mut self, id: LogId) -> bool {
        match self.entries.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.ack_sn = None;
                true
            }
            None => false,
        }
    }

    /// GC: drop entries destined to `dest_cluster` acked with SN < `min_sn`.
    /// Unacked entries are always kept. Returns how many were removed.
    pub fn prune(&mut self, dest_cluster: usize, min_sn: SeqNum) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| {
            e.dest_cluster != dest_cluster
                || match e.ack_sn {
                    None => true,
                    Some(sn) => sn >= min_sn,
                }
        });
        before - self.entries.len()
    }

    /// Apply a *sender-side* rollback restoring the CLC numbered
    /// `restore_sn`: entries logged at own SN `>= restore_sn` belong to the
    /// discarded execution suffix (those sends will happen again) and are
    /// dropped. Returns how many were removed.
    pub fn truncate_after_rollback(&mut self, restore_sn: SeqNum) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.logged_at_sn < restore_sn);
        before - self.entries.len()
    }

    /// Number of currently logged messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// High-water mark of simultaneously logged messages.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Iterate current entries in logging order.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry<P>> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> MessageLog<&'static str> {
        let mut l = MessageLog::new();
        let a = l.log(1, 0, "m1", 100, SeqNum(1));
        let b = l.log(1, 3, "m2", 200, SeqNum(2));
        let _c = l.log(2, 0, "m3", 300, SeqNum(3));
        l.ack(a, SeqNum(2));
        l.ack(b, SeqNum(5));
        l
    }

    #[test]
    fn log_and_ack() {
        let mut l = MessageLog::new();
        let id = l.log(1, 0, "x", 10, SeqNum(1));
        assert!(l.ack(id, SeqNum(3)));
        assert_eq!(l.iter().next().unwrap().ack_sn, Some(SeqNum(3)));
        assert!(!l.ack(LogId(99), SeqNum(1)), "unknown id");
    }

    #[test]
    fn resend_selects_by_ack_sn() {
        let l = filled();
        // Alert from cluster 1 with SN 3: m2 (acked 5 > 3) must be resent,
        // m1 (acked 2 <= 3) must not; m3 goes to another cluster.
        let r = l.to_resend(1, SeqNum(3));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].payload, "m2");
    }

    #[test]
    fn resend_includes_unacked() {
        let mut l = filled();
        l.log(1, 9, "m4", 50, SeqNum(3)); // never acked
        let r = l.to_resend(1, SeqNum(100));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].payload, "m4");
    }

    #[test]
    fn resend_boundary_is_inclusive() {
        let l = filled();
        // Alert SN exactly equal to the ack: the delivery happened *after*
        // the restored CLC committed, so it is lost — resend.
        let r = l.to_resend(1, SeqNum(5));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].payload, "m2");
        // One past the ack: the delivery survives in the restored state.
        let r = l.to_resend(1, SeqNum(6));
        assert!(r.is_empty());
    }

    #[test]
    fn prune_removes_old_acked_only() {
        let mut l = filled();
        assert_eq!(l.prune(1, SeqNum(5)), 1); // m1 (acked 2) goes
        assert_eq!(l.len(), 2);
        // m2 acked exactly at min stays.
        assert!(l.iter().any(|e| e.payload == "m2"));
        // Other-cluster entry untouched.
        assert!(l.iter().any(|e| e.payload == "m3"));
    }

    #[test]
    fn prune_keeps_unacked() {
        let mut l = MessageLog::new();
        l.log(0, 0, "pending", 1, SeqNum(1));
        assert_eq!(l.prune(0, SeqNum(100)), 0);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn clear_on_sender_rollback() {
        let mut l = filled();
        assert_eq!(l.truncate_after_rollback(SeqNum(1)), 3);
        assert!(l.is_empty());
        assert_eq!(l.peak(), 3, "peak survives clear");
    }

    #[test]
    fn byte_accounting() {
        let mut l = filled();
        let bytes = |l: &MessageLog<&str>| l.iter().map(|e| e.bytes).sum::<u64>();
        assert_eq!(bytes(&l), 600);
        l.prune(1, SeqNum(5));
        assert_eq!(bytes(&l), 500);
    }

    #[test]
    fn sender_rollback_drops_suffix_entries() {
        let mut l = filled(); // logged at own SN 1, 2, 3
                              // Restoring CLC 2: entries logged at SN >= 2 are from the discarded
                              // suffix.
        assert_eq!(l.truncate_after_rollback(SeqNum(2)), 2);
        assert_eq!(l.len(), 1);
        assert_eq!(l.iter().next().unwrap().payload, "m1");
    }

    #[test]
    fn sender_rollback_to_initial_clears_all() {
        let mut l = filled();
        assert_eq!(l.truncate_after_rollback(SeqNum(1)), 3);
        assert!(l.is_empty());
    }
}
