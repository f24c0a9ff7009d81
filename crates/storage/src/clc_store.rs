//! Per-cluster store of committed cluster-level checkpoints (CLCs).
//!
//! The communication-induced layer forces clusters to keep *multiple* CLCs
//! so that a recovery line can be computed at rollback time (paper §3.5).
//! This store keeps them ordered by sequence number and implements the three
//! queries the protocol needs:
//!
//! * the newest CLC (what a faulty cluster restores),
//! * the rollback target for an incoming alert (newest CLC whose DDV entry
//!   for the faulty cluster is *below* the alert SN — everything from the
//!   oldest offending CLC onward is discarded),
//! * GC pruning below a safe sequence number.

use crate::stamp::{Ddv, SeqNum};
use hc3i_types::SimTime;
use std::sync::Arc;

/// Metadata of one committed CLC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClcMeta {
    /// The cluster SN value this CLC committed as (1 for the initial CLC).
    pub sn: SeqNum,
    /// The DDV stamped on this CLC at commit time.
    ///
    /// `Arc`-shared: every node of a cluster stores the *same* immutable
    /// stamp the coordinator broadcast in the `ClcCommit`, and the
    /// garbage collector's DDV-list collection borrows these stamps
    /// instead of deep-cloning one vector per stored CLC per round.
    pub ddv: Arc<Ddv>,
    /// Commit time.
    pub committed_at: SimTime,
    /// Whether this CLC was forced by an incoming inter-cluster message.
    pub forced: bool,
}

/// One stored CLC: metadata plus an engine-specific payload (unit for the
/// discrete-event simulator, per-node state fragments for the threaded
/// runtime).
#[derive(Debug, Clone)]
pub struct ClcEntry<T> {
    /// Protocol-visible metadata.
    pub meta: ClcMeta,
    /// Engine-specific checkpoint content.
    pub payload: T,
}

/// Ordered store of one cluster's committed CLCs.
#[derive(Debug, Clone)]
pub struct ClcStore<T> {
    entries: Vec<ClcEntry<T>>,
    /// High-water mark of stored CLCs (for the storage-cost evaluation).
    peak: usize,
}

impl<T> Default for ClcStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ClcStore<T> {
    /// Empty store.
    pub fn new() -> Self {
        ClcStore {
            entries: vec![],
            peak: 0,
        }
    }

    /// Append a committed CLC. SNs must be strictly increasing.
    pub fn commit(&mut self, meta: ClcMeta, payload: T) {
        if let Some(last) = self.entries.last() {
            assert!(
                meta.sn > last.meta.sn,
                "CLC sequence numbers must increase: {} after {}",
                meta.sn,
                last.meta.sn
            );
            debug_assert!(
                last.meta.ddv.dominated_by(&meta.ddv),
                "DDV must be monotone across a cluster's CLCs"
            );
        }
        self.entries.push(ClcEntry { meta, payload });
        self.peak = self.peak.max(self.entries.len());
    }

    /// Number of stored CLCs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest number of CLCs ever stored simultaneously.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Newest stored CLC.
    pub fn latest(&self) -> Option<&ClcEntry<T>> {
        self.entries.last()
    }

    /// All stored `(SN, DDV)` pairs, oldest first (what the GC initiator
    /// collects from each cluster). The stamps are `Arc`-shared with the
    /// store — assembling the list clones pointers, not vectors.
    pub fn ddv_list(&self) -> Vec<(SeqNum, Arc<Ddv>)> {
        self.entries
            .iter()
            .map(|e| (e.meta.sn, e.meta.ddv.clone()))
            .collect()
    }

    /// Entry with exactly this SN.
    pub fn get(&self, sn: SeqNum) -> Option<&ClcEntry<T>> {
        self.entries.iter().find(|e| e.meta.sn == sn)
    }

    /// The rollback target for an alert `(faulty_cluster, alert_sn)`:
    /// the **oldest** CLC whose `DDV[faulty] >= alert_sn` (the paper's
    /// rule). Returns `None` when the *newest* CLC is below the bound —
    /// the cluster does not depend on the lost execution.
    ///
    /// Restoring the oldest offending CLC is safe because the message that
    /// raised the entry is delivered only *after* the forced CLC commits:
    /// a CLC's state depends on the faulty cluster only up to its
    /// *predecessor's* DDV entry, which is `< alert_sn` by minimality.
    pub fn rollback_target(&self, faulty: usize, alert_sn: SeqNum) -> Option<&ClcEntry<T>> {
        let latest = self.entries.last()?;
        if latest.meta.ddv.get(faulty) < alert_sn {
            return None; // no dependency on the lost suffix
        }
        // DDV entries are monotone: the first (oldest) entry at or above
        // the bound is the restore point.
        self.entries
            .iter()
            .find(|e| e.meta.ddv.get(faulty) >= alert_sn)
    }

    /// Discard every CLC newer than `sn` (after restoring the CLC with
    /// sequence number `sn`). Returns how many were dropped.
    pub fn truncate_after(&mut self, sn: SeqNum) -> usize {
        let keep = self.entries.iter().take_while(|e| e.meta.sn <= sn).count();
        let dropped = self.entries.len() - keep;
        self.entries.truncate(keep);
        dropped
    }

    /// GC: drop CLCs with `SN < min_sn`, but always keep at least the
    /// newest one. Returns how many were removed.
    pub fn prune_below(&mut self, min_sn: SeqNum) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        let last_sn = self.entries.last().expect("non-empty").meta.sn;
        let threshold = min_sn.min(last_sn);
        let before = self.entries.len();
        self.entries.retain(|e| e.meta.sn >= threshold);
        before - self.entries.len()
    }

    /// Iterate stored entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &ClcEntry<T>> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(sn: u64, ddv: Vec<u64>, forced: bool) -> ClcMeta {
        ClcMeta {
            sn: SeqNum(sn),
            ddv: Arc::new(Ddv::from_entries(ddv.into_iter().map(SeqNum).collect())),
            committed_at: SimTime::ZERO,
            forced,
        }
    }

    /// A 2-cluster store seen from cluster 0's perspective:
    /// DDV = [own SN, last SN heard from cluster 1].
    fn sample_store() -> ClcStore<()> {
        let mut s = ClcStore::new();
        s.commit(meta(1, vec![1, 0], false), ());
        s.commit(meta(2, vec![2, 0], false), ());
        s.commit(meta(3, vec![3, 2], true), ());
        s.commit(meta(4, vec![4, 5], true), ());
        s
    }

    #[test]
    fn commit_orders_and_tracks_peak() {
        let s = sample_store();
        assert_eq!(s.len(), 4);
        assert_eq!(s.peak(), 4);
        assert_eq!(s.latest().unwrap().meta.sn, SeqNum(4));
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn commit_rejects_non_increasing_sn() {
        let mut s = sample_store();
        s.commit(meta(4, vec![4, 5], false), ());
    }

    #[test]
    fn rollback_target_none_when_independent() {
        let s = sample_store();
        // Alert from cluster 1 with SN 6: even the newest CLC has DDV[1]=5<6.
        assert!(s.rollback_target(1, SeqNum(6)).is_none());
    }

    #[test]
    fn rollback_target_oldest_at_or_above_alert() {
        let s = sample_store();
        // Alert from cluster 1 with SN 3: the oldest CLC with DDV[1] >= 3
        // is CLC4 (DDV[1]=5). Its predecessor CLC3 has DDV[1]=2 < 3, so
        // CLC4's state contains no delivery stamped >= 3: safe to restore.
        let target = s.rollback_target(1, SeqNum(3)).unwrap();
        assert_eq!(target.meta.sn, SeqNum(4));
        // Alert SN 1: the oldest offending is CLC3 (DDV[1]=2 >= 1).
        let target = s.rollback_target(1, SeqNum(1)).unwrap();
        assert_eq!(target.meta.sn, SeqNum(3));
        // Alert SN 2: same target (first entry >= 2 is CLC3).
        let target = s.rollback_target(1, SeqNum(2)).unwrap();
        assert_eq!(target.meta.sn, SeqNum(3));
    }

    #[test]
    fn rollback_target_first_forced_clc_when_everything_depends() {
        let mut s = ClcStore::new();
        s.commit(meta(1, vec![1, 0], false), ());
        s.commit(meta(2, vec![2, 1], true), ());
        // Alert SN 1 from cluster 1: CLC2 is the first to record the
        // dependency — it is the restore point (the message that raised
        // the entry was delivered after CLC2 committed).
        let t = s.rollback_target(1, SeqNum(1)).unwrap();
        assert_eq!(t.meta.sn, SeqNum(2));
    }

    #[test]
    fn truncate_after_drops_future() {
        let mut s = sample_store();
        assert_eq!(s.truncate_after(SeqNum(2)), 2);
        assert_eq!(s.latest().unwrap().meta.sn, SeqNum(2));
        assert_eq!(s.peak(), 4, "peak is a high-water mark");
    }

    #[test]
    fn prune_below_keeps_tail() {
        let mut s = sample_store();
        assert_eq!(s.prune_below(SeqNum(3)), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().next().unwrap().meta.sn, SeqNum(3));
    }

    #[test]
    fn prune_never_removes_latest() {
        let mut s = sample_store();
        // min_sn far beyond anything stored: keep only the newest.
        assert_eq!(s.prune_below(SeqNum(100)), 3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.latest().unwrap().meta.sn, SeqNum(4));
    }

    #[test]
    fn prune_empty_store_is_noop() {
        let mut s: ClcStore<()> = ClcStore::new();
        assert_eq!(s.prune_below(SeqNum(5)), 0);
    }

    #[test]
    fn ddv_list_round_trips() {
        let s = sample_store();
        let l = s.ddv_list();
        assert_eq!(l.len(), 4);
        assert_eq!(l[2].0, SeqNum(3));
        assert_eq!(l[2].1.get(1), SeqNum(2));
    }

    #[test]
    fn get_by_sn() {
        let s = sample_store();
        assert!(s.get(SeqNum(3)).is_some());
        assert!(s.get(SeqNum(9)).is_none());
    }
}
