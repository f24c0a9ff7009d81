//! Per-node checkpoint content.

use crate::msg::AppPayload;
use hc3i_types::{FastHashMap as HashMap, NodeId};
use std::sync::Arc;
use storage::SeqNum;

/// Key of one inter-cluster delivery: `(sender node, sender log id)`.
pub type DeliveredKey = (NodeId, u64);

/// Generations deeper than this are flattened at the next seal, bounding
/// the lookup chain walk. The value trades the duplicate-check miss cost
/// (every inter-cluster receive probes up to `depth + 1` maps) against
/// the amortized flatten: each entry is copied at most once per
/// `COLLAPSE_DEPTH` CLCs, still a `COLLAPSE_DEPTH`-fold reduction in copy
/// volume over the eager clone-per-CLC representation this replaced.
const COLLAPSE_DEPTH: usize = 8;

/// One sealed, immutable generation of delivery records.
///
/// A generation owns the entries recorded between two consecutive CLCs and
/// links to the generation sealed at the previous CLC. Chains are shared
/// (`Arc`) between the live engine record and every stored checkpoint, so
/// sealing a checkpoint never copies what older checkpoints already hold.
#[derive(Debug)]
struct DeliveredGen {
    parent: Option<Arc<DeliveredGen>>,
    entries: HashMap<DeliveredKey, SeqNum>,
    /// Cumulative entry count including all parents (keys are recorded at
    /// most once across a chain, so the sum is exact).
    len: usize,
    /// Chain length including this generation.
    depth: usize,
}

/// The inter-cluster delivery record: `(sender, log id) -> SN at delivery`.
///
/// Copy-on-write and generational: an immutable, `Arc`-shared **base**
/// (the chain of generations sealed at past CLCs) plus a small mutable
/// **delta** holding only the deliveries since the last seal. The protocol
/// operations map onto it directly:
///
/// * delivering a message inserts into the delta — O(1);
/// * `freeze_and_stage` calls [`DeliveredRecord::seal`], which moves the
///   delta into a new shared generation — O(1) moves, no per-entry copy,
///   where the eager representation cloned the whole map at every CLC;
/// * a rollback restores the stored checkpoint's record by cloning it —
///   an `Arc` bump, not a rebuild.
///
/// Lookups check the delta, then walk the generation chain; chains are
/// flattened once they exceed an internal depth bound, so lookups stay
/// O(1) amortized. Content equality and the persisted encoding are
/// independent of the generation structure (two records with the same
/// entries are equal however they were sealed).
#[derive(Debug, Clone, Default)]
pub struct DeliveredRecord {
    base: Option<Arc<DeliveredGen>>,
    delta: HashMap<DeliveredKey, SeqNum>,
}

impl DeliveredRecord {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a record holding exactly `entries` (one flat generation).
    /// Keys must be distinct.
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (DeliveredKey, SeqNum)>) -> Self {
        let mut rec = DeliveredRecord::new();
        for (k, sn) in entries {
            rec.insert(k, sn);
        }
        rec
    }

    /// The delivery SN recorded for `key`, if any.
    pub fn get(&self, key: &DeliveredKey) -> Option<SeqNum> {
        if let Some(sn) = self.delta.get(key) {
            return Some(*sn);
        }
        let mut gen = self.base.as_deref();
        while let Some(g) = gen {
            if let Some(sn) = g.entries.get(key) {
                return Some(*sn);
            }
            gen = g.parent.as_deref();
        }
        None
    }

    /// Record a delivery. The key must not be present yet (the engine only
    /// records a delivery after the duplicate check).
    pub fn insert(&mut self, key: DeliveredKey, sn: SeqNum) {
        debug_assert!(self.get(&key).is_none(), "delivery recorded twice");
        self.delta.insert(key, sn);
    }

    /// Number of recorded deliveries.
    pub fn len(&self) -> usize {
        self.delta.len() + self.base.as_ref().map_or(0, |g| g.len)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seal the current content into the shared immutable base and return
    /// a snapshot of it (what a staged checkpoint stores). O(delta): the
    /// delta map is *moved* into a new generation; nothing already sealed
    /// is copied. Afterwards the live record continues on an empty delta
    /// over the new base.
    pub fn seal(&mut self) -> DeliveredRecord {
        if !self.delta.is_empty() {
            let parent = self.base.take();
            let (plen, pdepth) = parent.as_ref().map_or((0, 0), |g| (g.len, g.depth));
            let entries = std::mem::take(&mut self.delta);
            self.base = Some(Arc::new(DeliveredGen {
                len: plen + entries.len(),
                depth: pdepth + 1,
                parent,
                entries,
            }));
        }
        if self.base.as_ref().is_some_and(|g| g.depth > COLLAPSE_DEPTH) {
            self.collapse();
        }
        DeliveredRecord {
            base: self.base.clone(),
            delta: HashMap::default(),
        }
    }

    /// Flatten the generation chain into a single generation (bounds the
    /// lookup walk; sharing with already-stored checkpoints is unaffected —
    /// they keep their own chains).
    fn collapse(&mut self) {
        let mut entries: HashMap<DeliveredKey, SeqNum> =
            HashMap::with_capacity_and_hasher(self.len(), Default::default());
        let mut gen = self.base.as_deref();
        while let Some(g) = gen {
            for (k, sn) in &g.entries {
                entries.insert(*k, *sn);
            }
            gen = g.parent.as_deref();
        }
        let len = entries.len();
        self.base = Some(Arc::new(DeliveredGen {
            parent: None,
            entries,
            len,
            depth: 1,
        }));
    }

    /// Every recorded delivery, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (DeliveredKey, SeqNum)> + '_ {
        DeliveredIter {
            delta: self.delta.iter(),
            gen: self.base.as_deref(),
            gen_iter: None,
        }
    }

    /// Every recorded delivery, sorted by key (the canonical order used by
    /// the persisted encoding and anything else that must be
    /// representation-independent).
    pub fn sorted_entries(&self) -> Vec<(DeliveredKey, SeqNum)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// The entries of `self` that are **not** part of `ancestor`'s sealed
    /// content, when `self` structurally extends `ancestor` (i.e.
    /// `ancestor` is a sealed snapshot whose base appears in `self`'s
    /// generation chain). Returns `None` when the records do not share
    /// structure that way — callers then fall back to a full copy.
    /// Used by the persisted encoding to store only per-CLC deltas.
    pub(crate) fn delta_since(
        &self,
        ancestor: &DeliveredRecord,
    ) -> Option<Vec<(DeliveredKey, SeqNum)>> {
        if !ancestor.delta.is_empty() {
            return None; // not a sealed snapshot
        }
        let mut out: Vec<(DeliveredKey, SeqNum)> =
            self.delta.iter().map(|(k, sn)| (*k, *sn)).collect();
        let mut gen = self.base.as_ref();
        loop {
            match (gen, ancestor.base.as_ref()) {
                (None, None) => break,
                (Some(g), Some(a)) if Arc::ptr_eq(g, a) => break,
                (Some(g), _) => {
                    out.extend(g.entries.iter().map(|(k, sn)| (*k, *sn)));
                    gen = g.parent.as_ref();
                }
                (None, Some(_)) => return None,
            }
        }
        Some(out)
    }

    /// Extend a sealed snapshot by the finished generation `add` (keys
    /// distinct from the snapshot's — the decoder checks), producing the
    /// record a delta-encoded checkpoint round-trips back to (decode-side
    /// companion of [`DeliveredRecord::delta_since`]). The map becomes the
    /// generation as it is — never rehashed, never collapsed — so
    /// re-encoding a decoded store reproduces the same structural deltas
    /// byte-for-byte.
    pub(crate) fn extended_with(&self, add: HashMap<DeliveredKey, SeqNum>) -> Self {
        let mut base = self.base.clone();
        if !add.is_empty() {
            let (plen, pdepth) = base.as_ref().map_or((0, 0), |g| (g.len, g.depth));
            base = Some(Arc::new(DeliveredGen {
                len: plen + add.len(),
                depth: pdepth + 1,
                parent: base,
                entries: add,
            }));
        }
        DeliveredRecord {
            base,
            delta: HashMap::default(),
        }
    }
}

struct DeliveredIter<'a> {
    delta: std::collections::hash_map::Iter<'a, DeliveredKey, SeqNum>,
    gen: Option<&'a DeliveredGen>,
    gen_iter: Option<std::collections::hash_map::Iter<'a, DeliveredKey, SeqNum>>,
}

impl Iterator for DeliveredIter<'_> {
    type Item = (DeliveredKey, SeqNum);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some((k, sn)) = self.delta.next() {
            return Some((*k, *sn));
        }
        loop {
            if let Some(it) = self.gen_iter.as_mut() {
                if let Some((k, sn)) = it.next() {
                    return Some((*k, *sn));
                }
            }
            let g = self.gen?;
            self.gen_iter = Some(g.entries.iter());
            self.gen = g.parent.as_deref();
        }
    }
}

/// Content equality, independent of the generation structure.
impl PartialEq for DeliveredRecord {
    fn eq(&self, other: &Self) -> bool {
        // Keys are unique within a record, so equal lengths plus one-way
        // containment imply equality.
        self.len() == other.len() && self.iter().all(|(k, sn)| other.get(&k) == Some(sn))
    }
}

impl Eq for DeliveredRecord {}

impl FromIterator<(DeliveredKey, SeqNum)> for DeliveredRecord {
    fn from_iter<I: IntoIterator<Item = (DeliveredKey, SeqNum)>>(iter: I) -> Self {
        DeliveredRecord::from_entries(iter)
    }
}

/// What one node stores at each CLC, besides the protocol stamp.
///
/// In the discrete-event simulator the application state is abstract, but
/// the protocol-level content is real: the receiver-side delivery record
/// (inter-cluster duplicate suppression must roll back together with the
/// application) and the intra-cluster channel state captured during the
/// freeze window (messages that crossed the checkpoint line and must be
/// re-delivered after a restore). The threaded runtime additionally stores
/// the serialized application state.
///
/// The delivery record is a copy-on-write [`DeliveredRecord`]: staged
/// checkpoints share their content with the engine's live record and with
/// older checkpoints instead of deep-cloning a map per CLC.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeCheckpoint {
    /// Inter-cluster messages delivered so far:
    /// `(sender node, sender log id) -> SN at delivery`.
    pub delivered: DeliveredRecord,
    /// Intra-cluster application messages captured during the freeze window
    /// (Chandy–Lamport channel state): re-delivered after a restore.
    pub channel_state: Vec<(NodeId, AppPayload)>,
    /// Opaque serialized application state (used by the threaded runtime;
    /// `None` under the simulator).
    pub app_state: Option<Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(c: u16, r: u32, id: u64) -> DeliveredKey {
        (NodeId::new(c, r), id)
    }

    #[test]
    fn seal_is_a_snapshot_not_a_copy() {
        let mut live = DeliveredRecord::new();
        live.insert(key(0, 0, 1), SeqNum(1));
        let snap1 = live.seal();
        live.insert(key(0, 0, 2), SeqNum(2));
        let snap2 = live.seal();
        // Snapshots froze their content; the live record kept growing.
        assert_eq!(snap1.len(), 1);
        assert_eq!(snap2.len(), 2);
        assert_eq!(live.len(), 2);
        assert_eq!(snap1.get(&key(0, 0, 2)), None);
        assert_eq!(snap2.get(&key(0, 0, 1)), Some(SeqNum(1)));
        // snap2 structurally extends snap1 by exactly the second entry.
        let delta = snap2.delta_since(&snap1).expect("shares structure");
        assert_eq!(delta, vec![(key(0, 0, 2), SeqNum(2))]);
        assert_eq!(snap2.delta_since(&snap2).expect("self"), vec![]);
    }

    #[test]
    fn sealing_an_unchanged_record_shares_the_base() {
        let mut live = DeliveredRecord::new();
        live.insert(key(1, 0, 9), SeqNum(3));
        let a = live.seal();
        let b = live.seal();
        assert_eq!(a, b);
        assert_eq!(b.delta_since(&a).expect("same base"), vec![]);
    }

    #[test]
    fn restore_is_a_cheap_clone_with_equal_content() {
        let mut live = DeliveredRecord::new();
        for i in 0..10 {
            live.insert(key(0, 0, i), SeqNum(i));
        }
        let snap = live.seal();
        live.insert(key(0, 0, 99), SeqNum(42));
        // Rollback: replace the live record with the stored snapshot.
        live = snap.clone();
        assert_eq!(live.len(), 10);
        assert_eq!(live.get(&key(0, 0, 99)), None);
        assert_eq!(live, snap);
    }

    #[test]
    fn equality_ignores_generation_structure() {
        let mut a = DeliveredRecord::new();
        a.insert(key(0, 0, 1), SeqNum(1));
        let _ = a.seal();
        a.insert(key(0, 1, 2), SeqNum(2));
        let flat =
            DeliveredRecord::from_entries([(key(0, 1, 2), SeqNum(2)), (key(0, 0, 1), SeqNum(1))]);
        assert_eq!(a, flat);
        let mut different = flat.clone();
        different.insert(key(3, 0, 0), SeqNum(9));
        assert_ne!(a, different);
    }

    #[test]
    fn deep_chains_collapse_but_keep_content() {
        let mut live = DeliveredRecord::new();
        for i in 0..(COLLAPSE_DEPTH as u64 + 10) {
            live.insert(key(0, 0, i), SeqNum(i + 1));
            let _ = live.seal();
        }
        assert_eq!(live.len(), COLLAPSE_DEPTH + 10);
        for i in 0..(COLLAPSE_DEPTH as u64 + 10) {
            assert_eq!(live.get(&key(0, 0, i)), Some(SeqNum(i + 1)));
        }
        assert!(
            live.base.as_ref().expect("sealed").depth <= COLLAPSE_DEPTH + 1,
            "chain depth bounded"
        );
    }

    #[test]
    fn sorted_entries_are_canonical() {
        let rec = DeliveredRecord::from_entries([
            (key(1, 0, 5), SeqNum(5)),
            (key(0, 2, 1), SeqNum(1)),
            (key(0, 1, 9), SeqNum(2)),
        ]);
        let sorted = rec.sorted_entries();
        assert_eq!(
            sorted,
            vec![
                (key(0, 1, 9), SeqNum(2)),
                (key(0, 2, 1), SeqNum(1)),
                (key(1, 0, 5), SeqNum(5)),
            ]
        );
    }

    #[test]
    fn delta_since_unrelated_records_falls_back() {
        let mut a = DeliveredRecord::new();
        a.insert(key(0, 0, 1), SeqNum(1));
        let a = a.seal();
        let mut b = DeliveredRecord::new();
        b.insert(key(0, 0, 1), SeqNum(1));
        let b = b.seal();
        // Same content, different chains: no structural delta.
        assert_eq!(a, b);
        assert!(b.delta_since(&a).is_none());
    }

    #[test]
    fn extended_with_round_trips_delta() {
        let mut live = DeliveredRecord::new();
        live.insert(key(0, 0, 1), SeqNum(1));
        let base = live.seal();
        live.insert(key(2, 1, 7), SeqNum(4));
        let next = live.seal();
        let delta = next.delta_since(&base).expect("extends");
        assert_eq!(base.extended_with(delta.into_iter().collect()), next);
    }
}
