//! Checkpoint persistence.
//!
//! The paper implements stable storage as in-memory neighbour replication
//! (one simultaneous fault per cluster). A deployment that must survive
//! whole-cluster power loss needs checkpoints on disk; this module
//! serializes a node's CLC store — protocol stamps, delivery records,
//! channel state and application snapshots — in the same varint format as
//! the wire codec (`codec`; both use [`storage::varint`]), and restores it
//! byte-exactly.
//!
//! ## Format
//!
//! The image format is **v2**, which mirrors the in-memory copy-on-write
//! [`DeliveredRecord`]: consecutive checkpoints in a store share their
//! delivery-record prefix structurally, so each entry is written either
//! as a *delta* against the previous entry (tag 1 — the common case,
//! O(new deliveries) bytes) or in *full* (tag 0 — the first entry, or
//! when the records do not share structure). Decoding rebuilds the same
//! generation chain — one sealed generation per entry, built straight
//! from the bytes — so `encode(decode(bytes)) == bytes` for both
//! representations, and entries within a record are always written in
//! sorted key order, so images stay deterministic despite hash maps.
//!
//! v1 (every delivery record in full, no tag) is no longer read: no v1
//! image was ever written outside this crate's own tests, and
//! [`decode_store`] answers one with [`DecodeError::BadVersion`].

use crate::checkpoint::{DeliveredKey, DeliveredRecord, NodeCheckpoint};
use crate::codec::{expect_end, get_node, put_node, DecodeError};
use crate::msg::AppPayload;
use desim::SimTime;
use netsim::{FastHashMap, NodeId};
use std::io::{Read, Write};
use std::sync::Arc;
use storage::varint::{put_ddv, put_u64, Cursor};
use storage::{ClcMeta, ClcStore, SeqNum};

/// Magic bytes + format version at the head of a store image.
const MAGIC: &[u8; 4] = b"HC3I";
/// The copy-on-write store format.
const STORE_VERSION: u8 = 2;

/// Delivered-record encoding tags inside a store entry.
const DELIVERED_FULL: u8 = 0;
const DELIVERED_DELTA: u8 = 1;

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u64(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

fn put_delivered_entries(buf: &mut Vec<u8>, entries: &[(DeliveredKey, SeqNum)]) {
    put_u64(buf, entries.len() as u64);
    for ((node, log_id), sn) in entries {
        put_node(buf, *node);
        put_u64(buf, *log_id);
        put_u64(buf, sn.0);
    }
}

/// One record's entries as the finished map of a delivery generation,
/// built straight from the bytes (an entry is four varints).
fn get_delivered_entries(
    cur: &mut Cursor<'_>,
) -> Result<FastHashMap<DeliveredKey, SeqNum>, DecodeError> {
    let n = cur.count(4)?;
    let mut entries = FastHashMap::with_capacity_and_hasher(n, Default::default());
    for _ in 0..n {
        let key = (get_node(cur)?, cur.u64()?);
        if entries.insert(key, SeqNum(cur.u64()?)).is_some() {
            return Err(DecodeError::Invalid("duplicate delivery key"));
        }
    }
    Ok(entries)
}

fn put_channel_and_app(buf: &mut Vec<u8>, ckpt: &NodeCheckpoint) {
    put_u64(buf, ckpt.channel_state.len() as u64);
    for (from, payload) in &ckpt.channel_state {
        put_node(buf, *from);
        put_u64(buf, payload.bytes);
        put_u64(buf, payload.tag);
    }
    match &ckpt.app_state {
        None => buf.push(0),
        Some(state) => {
            buf.push(1);
            put_bytes(buf, state);
        }
    }
}

/// Decoded channel-state and application-snapshot tail of a checkpoint.
type ChannelAndApp = (Vec<(NodeId, AppPayload)>, Option<Vec<u8>>);

fn get_channel_and_app(cur: &mut Cursor<'_>) -> Result<ChannelAndApp, DecodeError> {
    let m = cur.count(4)?;
    let mut channel_state = Vec::with_capacity(m);
    for _ in 0..m {
        let from = get_node(cur)?;
        let bytes = cur.u64()?;
        let tag = cur.u64()?;
        channel_state.push((from, AppPayload { bytes, tag }));
    }
    let app_state = match cur.u8()? {
        0 => None,
        1 => Some(cur.bytes()?.to_vec()),
        t => return Err(DecodeError::BadTag(t)),
    };
    Ok((channel_state, app_state))
}

/// Encode a checkpoint as a store-entry body: the delivery record is a
/// structural delta against `prev` when the records share their base.
fn encode_entry_body(ckpt: &NodeCheckpoint, prev: Option<&DeliveredRecord>) -> Vec<u8> {
    let mut buf = Vec::new();
    match prev.and_then(|p| ckpt.delivered.delta_since(p)) {
        Some(mut delta) => {
            buf.push(DELIVERED_DELTA);
            delta.sort_unstable_by_key(|&(k, _)| k);
            put_delivered_entries(&mut buf, &delta);
        }
        None => {
            buf.push(DELIVERED_FULL);
            put_delivered_entries(&mut buf, &ckpt.delivered.sorted_entries());
        }
    }
    put_channel_and_app(&mut buf, ckpt);
    buf
}

/// Decode a store-entry body (all of `buf`), rebuilding the structural
/// sharing with the previous entry's record.
fn decode_entry_body(
    buf: &[u8],
    prev: Option<&DeliveredRecord>,
) -> Result<NodeCheckpoint, DecodeError> {
    let mut cur = Cursor::new(buf);
    let delivered = match cur.u8()? {
        DELIVERED_FULL => DeliveredRecord::new().extended_with(get_delivered_entries(&mut cur)?),
        DELIVERED_DELTA => {
            let prev = prev.ok_or(DecodeError::BadTag(DELIVERED_DELTA))?;
            let entries = get_delivered_entries(&mut cur)?;
            // A delta shadowing keys the previous record already holds is
            // corrupt: the live engine only seals fresh deliveries.
            if entries.keys().any(|k| prev.get(k).is_some()) {
                return Err(DecodeError::Invalid("delta overlaps previous record"));
            }
            prev.extended_with(entries)
        }
        t => return Err(DecodeError::BadTag(t)),
    };
    let (channel_state, app_state) = get_channel_and_app(&mut cur)?;
    expect_end(&cur)?;
    Ok(NodeCheckpoint {
        delivered,
        channel_state,
        app_state,
    })
}

/// The v2 checkpoint encoding as a [`storage::EntryCodec`]: what the
/// durable segment log ([`storage::DurableStore`]) writes per chain entry.
///
/// Each entry body is exactly the v2 store-entry body — a structural
/// delta against the previous chain entry's delivery record when they
/// share their base, a full record otherwise — so a durable log entry is
/// byte-identical to the corresponding span of [`encode_store`]'s image.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCodec;

impl storage::EntryCodec for CheckpointCodec {
    type Payload = NodeCheckpoint;

    fn encode_payload(&self, payload: &NodeCheckpoint, prev: Option<&NodeCheckpoint>) -> Vec<u8> {
        encode_entry_body(payload, prev.map(|p| &p.delivered))
    }

    fn decode_payload(
        &self,
        buf: &[u8],
        prev: Option<&NodeCheckpoint>,
    ) -> Result<NodeCheckpoint, String> {
        decode_entry_body(buf, prev.map(|p| &p.delivered)).map_err(|e| e.to_string())
    }
}

/// Serialize a whole CLC store (all checkpoints, oldest first).
pub fn encode_store(store: &ClcStore<NodeCheckpoint>) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.push(STORE_VERSION);
    put_u64(&mut buf, store.len() as u64);
    let mut prev: Option<&DeliveredRecord> = None;
    for entry in store.iter() {
        put_u64(&mut buf, entry.meta.sn.0);
        put_ddv(&mut buf, &entry.meta.ddv);
        put_u64(&mut buf, entry.meta.committed_at.nanos());
        buf.push(entry.meta.forced as u8);
        let body = encode_entry_body(&entry.payload, prev);
        put_bytes(&mut buf, &body);
        prev = Some(&entry.payload.delivered);
    }
    buf
}

/// Deserialize a CLC store image.
pub fn decode_store(buf: &[u8]) -> Result<ClcStore<NodeCheckpoint>, DecodeError> {
    let mut cur = Cursor::new(buf);
    let magic = cur.take(4)?;
    if magic != MAGIC {
        return Err(DecodeError::BadTag(magic[0]));
    }
    let version = cur.u8()?;
    if version != STORE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    // An entry is four meta fields and a body length, at the least.
    let n = cur.count(5)?;
    let mut store: ClcStore<NodeCheckpoint> = ClcStore::new();
    for _ in 0..n {
        let sn = SeqNum(cur.u64()?);
        let ddv = cur.ddv()?;
        let committed_at = SimTime(cur.u64()?);
        let forced = cur.u8()? != 0;
        let last = store.latest();
        let payload = decode_entry_body(cur.bytes()?, last.map(|e| &e.payload.delivered))?;
        // Semantic validation before `ClcStore::commit` (which *asserts*
        // these invariants): corrupt images must error, not panic.
        if let Some(last) = last {
            if sn <= last.meta.sn
                || ddv.len() != last.meta.ddv.len()
                || !last.meta.ddv.dominated_by(&ddv)
            {
                return Err(DecodeError::Invalid("non-monotone store entries"));
            }
        }
        store.commit(
            ClcMeta {
                sn,
                ddv: Arc::new(ddv),
                committed_at,
                forced,
            },
            payload,
        );
    }
    expect_end(&cur)?;
    Ok(store)
}

/// Write a store image to a file (atomically: temp file + rename).
pub fn save_store(store: &ClcStore<NodeCheckpoint>, path: &std::path::Path) -> std::io::Result<()> {
    let bytes = encode_store(store);
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Read a store image back from a file.
pub fn load_store(path: &std::path::Path) -> std::io::Result<ClcStore<NodeCheckpoint>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_store(&bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::Ddv;

    fn sample_checkpoint(k: u64) -> NodeCheckpoint {
        let delivered = DeliveredRecord::from_entries([
            ((NodeId::new(0, 3), 7 + k), SeqNum(2)),
            ((NodeId::new(2, 0), 1), SeqNum(k + 1)),
        ]);
        NodeCheckpoint {
            delivered,
            channel_state: vec![(
                NodeId::new(0, 1),
                AppPayload {
                    bytes: 512,
                    tag: 40 + k,
                },
            )],
            app_state: k.is_multiple_of(2).then(|| vec![1, 2, 3, k as u8]),
        }
    }

    fn sample_store() -> ClcStore<NodeCheckpoint> {
        let mut store = ClcStore::new();
        for k in 1..=4u64 {
            let mut ddv = Ddv::zeros(3);
            ddv.set(1, SeqNum(k));
            ddv.raise(0, SeqNum(k / 2));
            store.commit(
                ClcMeta {
                    sn: SeqNum(k),
                    ddv: Arc::new(ddv),
                    committed_at: SimTime(k * 1_000_000),
                    forced: k.is_multiple_of(2),
                },
                sample_checkpoint(k),
            );
        }
        store
    }

    /// A store whose checkpoints share their delivery records the way a
    /// live engine's do: each entry structurally extends the previous.
    fn generational_store() -> ClcStore<NodeCheckpoint> {
        let mut store = ClcStore::new();
        let mut live = DeliveredRecord::new();
        for k in 1..=5u64 {
            live.insert((NodeId::new(1, (k % 3) as u32), 100 + k), SeqNum(k));
            let mut ddv = Ddv::zeros(2);
            ddv.set(0, SeqNum(k));
            store.commit(
                ClcMeta {
                    sn: SeqNum(k),
                    ddv: Arc::new(ddv),
                    committed_at: SimTime(k),
                    forced: false,
                },
                NodeCheckpoint {
                    delivered: live.seal(),
                    channel_state: vec![],
                    app_state: None,
                },
            );
        }
        store
    }

    fn stores_equal(a: &ClcStore<NodeCheckpoint>, b: &ClcStore<NodeCheckpoint>) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.meta == y.meta && x.payload == y.payload)
    }

    #[test]
    fn checkpoint_round_trips() {
        use storage::EntryCodec;
        for k in 0..4 {
            let c = sample_checkpoint(k);
            let bytes = CheckpointCodec.encode_payload(&c, None);
            assert_eq!(CheckpointCodec.decode_payload(&bytes, None), Ok(c));
        }
    }

    #[test]
    fn store_round_trips() {
        let store = sample_store();
        let bytes = encode_store(&store);
        let back = decode_store(&bytes).unwrap();
        assert!(stores_equal(&store, &back));
    }

    #[test]
    fn generational_store_round_trips_and_uses_deltas() {
        let store = generational_store();
        let bytes = encode_store(&store);
        let back = decode_store(&bytes).unwrap();
        assert!(stores_equal(&store, &back));
        // Image size is O(total deliveries), not O(n * deliveries): the
        // eager (all-full) encoding of the same content is strictly larger.
        let mut eager = Vec::new();
        eager.extend_from_slice(MAGIC);
        eager.push(STORE_VERSION);
        put_u64(&mut eager, store.len() as u64);
        for entry in store.iter() {
            put_u64(&mut eager, entry.meta.sn.0);
            put_ddv(&mut eager, &entry.meta.ddv);
            put_u64(&mut eager, entry.meta.committed_at.nanos());
            eager.push(entry.meta.forced as u8);
            let body = encode_entry_body(&entry.payload, None);
            put_bytes(&mut eager, &body);
        }
        assert!(
            bytes.len() < eager.len(),
            "delta image ({}) not smaller than eager image ({})",
            bytes.len(),
            eager.len()
        );
    }

    #[test]
    fn encoding_is_byte_stable_across_round_trips() {
        for store in [sample_store(), generational_store()] {
            let bytes = encode_store(&store);
            let reencoded = encode_store(&decode_store(&bytes).unwrap());
            assert_eq!(bytes, reencoded, "encode∘decode must be byte-stable");
        }
    }

    #[test]
    fn encoding_is_deterministic_despite_hashmap() {
        // The delivery record is hash-map backed; the image must still be
        // stable.
        let a = encode_store(&sample_store());
        let b = encode_store(&sample_store());
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_images_are_rejected_not_panicked() {
        let bytes = encode_store(&sample_store());
        for cut in 0..bytes.len() {
            assert!(decode_store(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_store(&bad).is_err(), "bad magic");
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_store(&bad),
            Err(DecodeError::BadVersion(99))
        ));
        // v1 is no longer read.
        let mut bad = bytes.clone();
        bad[4] = 1;
        assert!(matches!(
            decode_store(&bad),
            Err(DecodeError::BadVersion(1))
        ));
        let mut bad = bytes;
        bad.push(0);
        assert!(matches!(
            decode_store(&bad),
            Err(DecodeError::TrailingBytes(_))
        ));
    }

    /// Lengths and counts no bytes back: an error, in debug and release,
    /// before anything is sized from them.
    #[test]
    fn crafted_lengths_and_counts_are_truncation_not_panic_or_allocation() {
        use storage::EntryCodec;
        // FULL, no deliveries, no channel state, an app snapshot of
        // u64::MAX bytes (was `*pos + len` overflowing in debug builds).
        let app_len = [
            0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
        ];
        // FULL, 2^28 deliveries, none present (was a `Vec` and a `HashSet`
        // reserved for 2^28 entries before the first read).
        let count = [0, 0x80, 0x80, 0x80, 0x80, 0x01];
        for body in [&app_len[..], &count[..]] {
            assert_eq!(
                CheckpointCodec.decode_payload(body, None),
                Err(DecodeError::Truncated.to_string())
            );
            // The same body inside a one-entry store image.
            let mut image = b"HC3I\x02\x01\x01\x01\x00\x00\x00".to_vec();
            put_bytes(&mut image, body);
            assert_eq!(decode_store(&image).err(), Some(DecodeError::Truncated));
        }
    }

    #[test]
    fn file_round_trip() {
        let store = sample_store();
        let path =
            std::env::temp_dir().join(format!("hc3i-persist-test-{}.clc", std::process::id()));
        save_store(&store, &path).unwrap();
        let back = load_store(&path).unwrap();
        assert!(stores_equal(&store, &back));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_round_trips() {
        let store: ClcStore<NodeCheckpoint> = ClcStore::new();
        let back = decode_store(&encode_store(&store)).unwrap();
        assert_eq!(back.len(), 0);
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("hc3i-persist-does-not-exist.clc");
        assert!(load_store(&path).is_err());
    }
}
