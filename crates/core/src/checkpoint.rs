//! Per-node checkpoint content.

use crate::msg::AppPayload;
use hc3i_types::{FastHashMap as HashMap, NodeId};
use std::sync::Arc;
use storage::SeqNum;

/// Key of one inter-cluster delivery: `(sender node, sender log id)`.
pub type DeliveredKey = (NodeId, u64);

/// A delivery key as one integer, `cluster << 96 | rank << 64 | log id`,
/// whose order is exactly [`DeliveredKey`]'s derived `Ord` (cluster, then
/// rank, then log id). Every sort of delivery keys sorts on it: one
/// 128-bit comparison instead of the tuple's three-level one. Searches and
/// the decoder's order check compare keys directly; both orders are one.
pub(crate) fn order_key((node, log_id): DeliveredKey) -> u128 {
    u128::from(node.cluster.0) << 96 | u128::from(node.rank) << 64 | u128::from(log_id)
}

/// Generations deeper than this are flattened at the next seal, bounding
/// the lookup chain walk. The value trades the duplicate-check miss cost
/// (every inter-cluster receive probes the delta map and binary-searches
/// up to `depth` sorted runs) against the amortized flatten: each entry is
/// copied at most once per `COLLAPSE_DEPTH` CLCs, still a
/// `COLLAPSE_DEPTH`-fold reduction in copy volume over the eager
/// clone-per-CLC representation this replaced.
const COLLAPSE_DEPTH: usize = 8;

/// One sealed, immutable generation of delivery records.
///
/// A generation owns the entries recorded between two consecutive CLCs —
/// a key-sorted, exact-size run, 24 bytes an entry, searched by bisection
/// — and links to the generation sealed at the previous CLC. Chains are
/// shared (`Arc`) between the live engine record and every stored
/// checkpoint, so sealing a checkpoint never copies what older checkpoints
/// already hold.
#[derive(Debug)]
struct DeliveredGen {
    parent: Option<Arc<DeliveredGen>>,
    /// Strictly increasing keys.
    entries: Box<[(DeliveredKey, SeqNum)]>,
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
/// * delivering a message inserts into the delta map — O(1);
/// * `freeze_and_stage` seals it ([`DeliveredRecord::seal`]), which sorts
///   the delta's entries into a new shared generation — O(delta log
///   delta), where the eager representation cloned the whole map at every
///   CLC — and stages the new base alone;
/// * a rollback rebuilds the live record from the stored checkpoint's
///   base — an `Arc` bump, not a rebuild.
///
/// Lookups check the delta, then binary-search each sealed run down the
/// chain; chains are flattened into one run once they exceed an internal
/// depth bound, so a lookup probes a bounded number of runs. Content
/// equality and the persisted encoding are independent of the generation
/// structure (two records with the same entries are equal however they
/// were sealed).
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
            if let Ok(i) = g.entries.binary_search_by(|(k, _)| k.cmp(key)) {
                return Some(g.entries[i].1);
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
    /// a snapshot of it. O(delta log delta): the delta's entries are sorted
    /// into a new generation; nothing already sealed is copied. Afterwards
    /// the live record continues on an empty delta over the new base.
    pub fn seal(&mut self) -> DeliveredRecord {
        self.seal_base().record()
    }

    /// [`DeliveredRecord::seal`], returning the snapshot in its 8-byte
    /// sealed form (what a staged checkpoint stores).
    pub(crate) fn seal_base(&mut self) -> SealedRecord {
        if !self.delta.is_empty() {
            let parent = self.base.take();
            let (plen, pdepth) = parent.as_ref().map_or((0, 0), |g| (g.len, g.depth));
            let mut entries: Vec<_> = std::mem::take(&mut self.delta).into_iter().collect();
            entries.sort_unstable_by_key(|&(k, _)| order_key(k));
            let entries = entries.into_boxed_slice();
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
        SealedRecord(self.base.clone())
    }

    /// Flatten the generation chain into a single generation (bounds the
    /// lookup walk; sharing with already-stored checkpoints is unaffected —
    /// they keep their own chains). The sorted runs are merged straight
    /// into the new run, with no scratch buffer: the run with the smallest
    /// head gives up every entry below the smallest other head at once
    /// (keys are distinct across the chain, so no two heads are equal).
    fn collapse(&mut self) {
        let mut runs: Vec<&[(DeliveredKey, SeqNum)]> = Vec::new();
        let mut gen = self.base.as_deref();
        while let Some(g) = gen {
            if !g.entries.is_empty() {
                runs.push(&g.entries);
            }
            gen = g.parent.as_deref();
        }
        let head = |run: &[(DeliveredKey, SeqNum)]| order_key(run[0].0);
        let mut entries = Vec::with_capacity(self.len());
        while let Some(i) = (0..runs.len()).min_by_key(|&i| head(runs[i])) {
            let next = (0..runs.len())
                .filter(|&j| j != i)
                .map(|j| head(runs[j]))
                .min()
                .unwrap_or(u128::MAX);
            let run = runs[i];
            let take = run
                .iter()
                .position(|&(k, _)| order_key(k) > next)
                .unwrap_or(run.len());
            entries.extend_from_slice(&run[..take]);
            runs[i] = &run[take..];
            if runs[i].is_empty() {
                runs.swap_remove(i);
            }
        }
        let len = entries.len();
        self.base = Some(Arc::new(DeliveredGen {
            parent: None,
            entries: entries.into_boxed_slice(),
            len,
            depth: 1,
        }));
    }

    /// Every recorded delivery, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (DeliveredKey, SeqNum)> + '_ {
        DeliveredIter {
            delta: self.delta.iter(),
            gen: self.base.as_deref(),
            gen_iter: [].iter(),
        }
    }

    /// Every recorded delivery, sorted by key (the canonical order used by
    /// the persisted encoding and anything else that must be
    /// representation-independent).
    pub fn sorted_entries(&self) -> Vec<(DeliveredKey, SeqNum)> {
        let mut v = Vec::with_capacity(self.len());
        v.extend(self.iter());
        v.sort_unstable_by_key(|&(k, _)| order_key(k));
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
                    out.extend_from_slice(&g.entries);
                    gen = g.parent.as_ref();
                }
                (None, Some(_)) => return None,
            }
        }
        Some(out)
    }

    /// Extend a sealed snapshot by the finished generation `add` (a
    /// key-sorted run, keys distinct from the snapshot's — the decoder
    /// checks both), producing the record a delta-encoded checkpoint
    /// round-trips back to (decode-side companion of
    /// [`DeliveredRecord::delta_since`]). The run becomes the generation as
    /// it is — never re-sorted, never collapsed — so re-encoding a decoded
    /// store reproduces the same structural deltas byte-for-byte.
    pub(crate) fn extended_with(&self, add: Vec<(DeliveredKey, SeqNum)>) -> Self {
        debug_assert!(add.windows(2).all(|w| w[0].0 < w[1].0), "unsorted run");
        let mut base = self.base.clone();
        if !add.is_empty() {
            let (plen, pdepth) = base.as_ref().map_or((0, 0), |g| (g.len, g.depth));
            base = Some(Arc::new(DeliveredGen {
                len: plen + add.len(),
                depth: pdepth + 1,
                parent: base,
                entries: add.into_boxed_slice(),
            }));
        }
        DeliveredRecord {
            base,
            delta: HashMap::default(),
        }
    }
}

/// A delivery record as a CLC sealed it: the shared generation chain
/// alone. A sealed record's delta is always empty, so this form drops the
/// map and keeps 8 bytes.
#[derive(Debug, Clone, Default)]
pub(crate) struct SealedRecord(Option<Arc<DeliveredGen>>);

impl SealedRecord {
    /// The live record this seal restores to — an `Arc` bump, sharing
    /// every generation, so a durable body built from it still encodes as
    /// a delta against its predecessor's.
    pub(crate) fn record(&self) -> DeliveredRecord {
        DeliveredRecord {
            base: self.0.clone(),
            delta: HashMap::default(),
        }
    }
}

struct DeliveredIter<'a> {
    delta: std::collections::hash_map::Iter<'a, DeliveredKey, SeqNum>,
    gen: Option<&'a DeliveredGen>,
    gen_iter: std::slice::Iter<'a, (DeliveredKey, SeqNum)>,
}

impl Iterator for DeliveredIter<'_> {
    type Item = (DeliveredKey, SeqNum);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some((k, sn)) = self.delta.next() {
            return Some((*k, *sn));
        }
        loop {
            if let Some(&entry) = self.gen_iter.next() {
                return Some(entry);
            }
            let g = self.gen?;
            self.gen_iter = g.entries.iter();
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

/// The durable body of one checkpoint: what the segment log writes for
/// a committed CLC ([`CheckpointCodec`](crate::CheckpointCodec)'s
/// payload) and what [`storage::recover`] rebuilds. An engine keeps the
/// compact [`StoredCheckpoint`] instead; `hc3i_core::host` converts at
/// the durable boundary.
///
/// In the discrete-event simulator the application state is abstract, but
/// the protocol-level content is real: the receiver-side delivery record
/// (inter-cluster duplicate suppression must roll back together with the
/// application) and the intra-cluster channel state captured during the
/// freeze window (messages that crossed the checkpoint line and must be
/// re-delivered after a restore). The threaded runtime additionally stores
/// the serialized application state.
///
/// The delivery record is a copy-on-write [`DeliveredRecord`]: consecutive
/// bodies of one node share their sealed prefix, which the codec writes
/// as a delta.
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

/// Content equality: a durable body equals the stored checkpoint it was
/// written from (and that [`storage::recover`] read back).
impl PartialEq<StoredCheckpoint> for NodeCheckpoint {
    fn eq(&self, stored: &StoredCheckpoint) -> bool {
        self.delivered == stored.delivered()
            && self.channel_state == stored.channel_state()
            && self.app_state.as_deref() == stored.app_state()
    }
}

/// What an engine's CLC store keeps per checkpoint: the sealed delivery
/// record, and the channel state and application snapshot boxed together
/// only when one of them is non-empty. 16 bytes, so a stored entry with
/// its [`storage::ClcMeta`] is 48 — a flat [`NodeCheckpoint`] would make
/// it 120, and under the simulator the other 72 are always empty.
#[derive(Debug, Clone, Default)]
pub struct StoredCheckpoint {
    delivered: SealedRecord,
    extra: Option<Box<CheckpointExtra>>,
}

/// The rarely-present part of a [`StoredCheckpoint`].
#[derive(Debug, Clone)]
struct CheckpointExtra {
    channel_state: Vec<(NodeId, AppPayload)>,
    app_state: Option<Vec<u8>>,
}

impl StoredCheckpoint {
    pub(crate) fn new(
        delivered: SealedRecord,
        channel_state: Vec<(NodeId, AppPayload)>,
        app_state: Option<Vec<u8>>,
    ) -> Self {
        let extra = (!channel_state.is_empty() || app_state.is_some()).then(|| {
            Box::new(CheckpointExtra {
                channel_state,
                app_state,
            })
        });
        StoredCheckpoint { delivered, extra }
    }

    /// The delivery record this checkpoint restores (an `Arc` bump).
    pub fn delivered(&self) -> DeliveredRecord {
        self.delivered.record()
    }

    /// Intra-cluster application messages captured during the freeze
    /// window, re-delivered after a restore.
    pub fn channel_state(&self) -> &[(NodeId, AppPayload)] {
        self.extra.as_ref().map_or(&[], |x| &x.channel_state)
    }

    /// The application snapshot taken at the freeze, if the host
    /// published one.
    pub fn app_state(&self) -> Option<&[u8]> {
        self.extra.as_ref()?.app_state.as_deref()
    }

    /// The durable body of this checkpoint. Its delivery record shares
    /// the engine's generations, so the codec writes it as a delta
    /// against the previous body's, as it would the engine's own.
    pub(crate) fn to_durable(&self) -> NodeCheckpoint {
        NodeCheckpoint {
            delivered: self.delivered(),
            channel_state: self.channel_state().to_vec(),
            app_state: self.app_state().map(<[u8]>::to_vec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(c: u16, r: u32, id: u64) -> DeliveredKey {
        (NodeId::new(c, r), id)
    }

    /// Values at and around `max`, plus small and arbitrary ones.
    fn edge(max: u64) -> impl Strategy<Value = u64> {
        prop_oneof![0u64..4, max - 3..=max, 0..=max]
    }

    fn any_key() -> impl Strategy<Value = DeliveredKey> {
        (edge(u16::MAX.into()), edge(u32::MAX.into()), edge(u64::MAX))
            .prop_map(|(c, r, id)| key(c as u16, r as u32, id))
    }

    proptest! {
        /// The packed key orders every pair of keys as the key's own
        /// `Ord` does, the id types' maxima included.
        #[test]
        fn order_key_orders_as_the_key_does(a in any_key(), b in any_key()) {
            prop_assert_eq!(order_key(a).cmp(&order_key(b)), a.cmp(&b));
        }
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
        let mut delta = next.delta_since(&base).expect("extends");
        delta.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(base.extended_with(delta), next);
    }
}
