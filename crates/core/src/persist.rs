//! The checkpoint entry-body format: what the durable segment log
//! ([`storage::DurableStore`]) writes for each CLC a node commits, and
//! [`storage::recover`] reads back.
//!
//! The paper implements stable storage as in-memory neighbour replication
//! (one simultaneous fault per cluster). A deployment that must survive
//! whole-cluster power loss needs checkpoints on disk: the segment log
//! frames each chain entry's meta (SN, DDV, commit time, forced bit) and
//! hands the checkpoint itself — delivery record, channel state and
//! application snapshot — to [`CheckpointCodec`], which writes it with
//! [`storage::varint`] and restores it byte-exactly.
//!
//! ## Format
//!
//! A body mirrors the in-memory copy-on-write [`DeliveredRecord`]:
//! consecutive checkpoints in a chain share their delivery-record prefix
//! structurally, so each body writes its record either as a *delta*
//! against the previous entry's (tag 1 — the common case, O(new
//! deliveries) bytes) or in *full* (tag 0 — a chain's first entry, or
//! when the records do not share structure); a delivery is `(cluster,
//! rank, log id, SN)`. The channel state (`(cluster, rank, bytes, tag)`
//! per message) and the application snapshot (tag 0 for none, tag 1 and a
//! length-prefixed byte string) follow. Decoding rebuilds the same
//! generation chain — one sealed generation per entry, built straight
//! from the bytes — so `encode(decode(body)) == body` for both
//! representations. The key order is defined once, by the delivery key
//! itself: cluster, then rank, then log id, which is the order of the one
//! packed integer every sort of keys sorts on (`order_key`). A body's
//! delivery keys are strictly increasing in it: the encoder writes them
//! sorted, so bodies stay deterministic despite the live record's hash
//! map, and the decoder checks it, so a body with a repeated or
//! descending key is an error. The sorted bytes are the sealed
//! generation's run as it is, without a rebuild. A body must be consumed
//! exactly, and a cluster or rank out of its id type's range is an error,
//! never a wrapped id.

use crate::checkpoint::{order_key, DeliveredKey, DeliveredRecord, NodeCheckpoint};
use crate::msg::AppPayload;
use hc3i_types::NodeId;
use storage::varint::{put_u64, Cursor};
use storage::SeqNum;

/// Delivered-record encoding tags at the head of a body.
const DELIVERED_FULL: u8 = 0;
const DELIVERED_DELTA: u8 = 1;

fn put_node(buf: &mut Vec<u8>, n: NodeId) {
    put_u64(buf, u64::from(n.cluster.0));
    put_u64(buf, u64::from(n.rank));
}

// Forced inline: its `String` error paths put it over the inliner's
// threshold, and the out-of-line call per delivery costs ~3 % of
// `storage::recover`'s wall time on a 2048-node log.
#[inline(always)]
fn get_node(cur: &mut Cursor<'_>) -> Result<NodeId, String> {
    let (cluster, rank) = (cur.u64()?, cur.u64()?);
    match (u16::try_from(cluster), u32::try_from(rank)) {
        (Ok(c), Ok(r)) => Ok(NodeId::new(c, r)),
        _ => Err(format!("node id ({cluster}, {rank}) out of range")),
    }
}

fn put_delivered_entries(buf: &mut Vec<u8>, entries: &[(DeliveredKey, SeqNum)]) {
    put_u64(buf, entries.len() as u64);
    for ((node, log_id), sn) in entries {
        put_node(buf, *node);
        put_u64(buf, *log_id);
        put_u64(buf, sn.0);
    }
}

/// One record's entries as the finished sorted run of a delivery
/// generation, built straight from the bytes (an entry is four varints).
/// Keys must be strictly increasing, which also rules out a repeat.
fn get_delivered_entries(cur: &mut Cursor<'_>) -> Result<Vec<(DeliveredKey, SeqNum)>, String> {
    let n = cur.count(4)?;
    let mut entries: Vec<(DeliveredKey, SeqNum)> = Vec::with_capacity(n);
    for _ in 0..n {
        let key = (get_node(cur)?, cur.u64()?);
        if entries.last().is_some_and(|&(prev, _)| prev >= key) {
            return Err("delivery keys not strictly increasing".into());
        }
        entries.push((key, SeqNum(cur.u64()?)));
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
            put_u64(buf, state.len() as u64);
            buf.extend_from_slice(state);
        }
    }
}

/// Decoded channel-state and application-snapshot tail of a checkpoint.
type ChannelAndApp = (Vec<(NodeId, AppPayload)>, Option<Vec<u8>>);

fn get_channel_and_app(cur: &mut Cursor<'_>) -> Result<ChannelAndApp, String> {
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
        t => return Err(format!("unknown app-state tag {t}")),
    };
    Ok((channel_state, app_state))
}

/// The checkpoint entry-body encoding as a [`storage::EntryCodec`]: what
/// the durable segment log writes per chain entry. The delivery record is
/// a structural delta against the previous chain entry's when they share
/// their base, a full record otherwise (layout in the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCodec;

impl storage::EntryCodec for CheckpointCodec {
    type Payload = NodeCheckpoint;

    fn encode_into(&self, ckpt: &NodeCheckpoint, prev: Option<&NodeCheckpoint>, out: &mut Vec<u8>) {
        match prev.and_then(|p| ckpt.delivered.delta_since(&p.delivered)) {
            Some(mut delta) => {
                out.push(DELIVERED_DELTA);
                delta.sort_unstable_by_key(|&(k, _)| order_key(k));
                put_delivered_entries(out, &delta);
            }
            None => {
                out.push(DELIVERED_FULL);
                put_delivered_entries(out, &ckpt.delivered.sorted_entries());
            }
        }
        put_channel_and_app(out, ckpt);
    }

    /// Decode a body (all of `buf`), rebuilding the structural sharing
    /// with the previous entry's record.
    fn decode_payload(
        &self,
        buf: &[u8],
        prev: Option<&NodeCheckpoint>,
    ) -> Result<NodeCheckpoint, String> {
        let mut cur = Cursor::new(buf);
        let delivered = match cur.u8()? {
            DELIVERED_FULL => {
                DeliveredRecord::new().extended_with(get_delivered_entries(&mut cur)?)
            }
            DELIVERED_DELTA => {
                let prev = &prev.ok_or("delta body without a previous entry")?.delivered;
                let entries = get_delivered_entries(&mut cur)?;
                // A delta shadowing keys the previous record already holds
                // is corrupt: the live engine only seals fresh deliveries.
                if entries.iter().any(|(k, _)| prev.get(k).is_some()) {
                    return Err("delta overlaps previous record".into());
                }
                prev.extended_with(entries)
            }
            t => return Err(format!("unknown delivered tag {t}")),
        };
        let (channel_state, app_state) = get_channel_and_app(&mut cur)?;
        cur.finish()?;
        Ok(NodeCheckpoint {
            delivered,
            channel_state,
            app_state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{varint, EntryCodec};

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

    /// Checkpoints sharing no structure: every body is a full record.
    fn sample_chain() -> Vec<NodeCheckpoint> {
        (1..=4).map(sample_checkpoint).collect()
    }

    /// Checkpoints sharing their delivery records the way a live engine's
    /// do: each entry structurally extends the previous.
    fn generational_chain() -> Vec<NodeCheckpoint> {
        let mut live = DeliveredRecord::new();
        (1..=5u64)
            .map(|k| {
                live.insert((NodeId::new(1, (k % 3) as u32), 100 + k), SeqNum(k));
                NodeCheckpoint {
                    delivered: live.seal(),
                    ..NodeCheckpoint::default()
                }
            })
            .collect()
    }

    /// Each body encoded against the previous checkpoint, as the segment
    /// log writes a chain (`delta`), or against nothing.
    fn encode_chain(chain: &[NodeCheckpoint], delta: bool) -> Vec<Vec<u8>> {
        let mut prev = None;
        chain
            .iter()
            .map(|c| {
                let body = CheckpointCodec.encode_payload(c, prev.filter(|_| delta));
                prev = Some(c);
                body
            })
            .collect()
    }

    /// Each body decoded against the previous *decoded* checkpoint, as
    /// recovery replays a chain.
    fn decode_chain(bodies: &[Vec<u8>]) -> Result<Vec<NodeCheckpoint>, String> {
        let mut chain: Vec<NodeCheckpoint> = Vec::new();
        for body in bodies {
            let c = CheckpointCodec.decode_payload(body, chain.last())?;
            chain.push(c);
        }
        Ok(chain)
    }

    #[test]
    fn checkpoint_round_trips() {
        for k in 0..4 {
            let c = sample_checkpoint(k);
            let bytes = CheckpointCodec.encode_payload(&c, None);
            assert_eq!(CheckpointCodec.decode_payload(&bytes, None), Ok(c));
        }
    }

    #[test]
    fn store_round_trips() {
        for chain in [sample_chain(), generational_chain()] {
            assert_eq!(decode_chain(&encode_chain(&chain, true)), Ok(chain));
        }
    }

    #[test]
    fn generational_store_round_trips_and_uses_deltas() {
        let chain = generational_chain();
        let bodies = encode_chain(&chain, true);
        assert_eq!(decode_chain(&bodies).as_ref(), Ok(&chain));
        assert!(bodies[1..].iter().all(|b| b[0] == DELIVERED_DELTA));
        // Chain size is O(total deliveries), not O(n * deliveries): the
        // eager (all-full) encoding of the same content is strictly larger.
        let size = |bodies: Vec<Vec<u8>>| bodies.concat().len();
        let (delta, eager) = (size(bodies), size(encode_chain(&chain, false)));
        assert!(
            delta < eager,
            "delta chain ({delta}) not smaller than eager chain ({eager})"
        );
    }

    /// An engine stores a compact checkpoint and `StoreOp::append` turns
    /// it into a durable body: the bodies of two consecutive CLCs must
    /// still share their record, or the second is written in full.
    #[test]
    fn consecutive_engine_clcs_appended_by_the_host_are_delta_bodies() {
        use crate::host::{open_log, Layout};
        use crate::testkit::InstantFederation;
        use crate::{ProtocolConfig, StoreOp};
        let dir = std::env::temp_dir().join(format!("hc3i-persist-delta-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ProtocolConfig::new(vec![1, 1]);
        let layout = Layout::new(&cfg);
        let mut fed = InstantFederation::new(cfg);
        let mut log = open_log(&dir, &layout, layout.ids().map(|id| fed.engine(id))).expect("log");
        // The first delivery forces SN 2; each timer CLC then seals one
        // more delivery (SN 3 and 4).
        let (receiver, sender) = (NodeId::new(0, 0), NodeId::new(1, 0));
        for tag in 1..=2 {
            fed.app_send(sender, receiver, AppPayload { bytes: 8, tag });
            fed.fire_clc_timer(0);
        }
        let engine = fed.engine(receiver);
        let sns: Vec<SeqNum> = engine.store().iter().map(|e| e.meta.sn).collect();
        assert_eq!(sns, [SeqNum(1), SeqNum(2), SeqNum(3), SeqNum(4)]);
        for &sn in &sns[1..] {
            StoreOp::Committed(sn)
                .append(&mut log, &layout, engine)
                .expect("append");
        }
        // The log's own chain is what it encoded each body against.
        let chain = log.store(layout.index(receiver) as u64).expect("chain");
        let bodies: Vec<&NodeCheckpoint> = chain.iter().map(|e| &e.payload).collect();
        let (third, fourth) = (bodies[2], bodies[3]);
        assert_eq!(third.delivered.len(), 1);
        assert_eq!(
            CheckpointCodec.encode_payload(fourth, Some(third))[0],
            DELIVERED_DELTA,
            "SN 4's body is a delta against SN 3's"
        );
        assert_eq!(
            fourth
                .delivered
                .delta_since(&third.delivered)
                .map(|d| d.len()),
            Some(1)
        );
        drop(log);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encoding_is_byte_stable_across_round_trips() {
        for chain in [sample_chain(), generational_chain()] {
            let bodies = encode_chain(&chain, true);
            let reencoded = encode_chain(&decode_chain(&bodies).unwrap(), true);
            assert_eq!(bodies, reencoded, "encode∘decode must be byte-stable");
        }
    }

    #[test]
    fn encoding_is_deterministic_despite_hashmap() {
        // The live delivery record's delta is a hash map; the bodies must
        // still be stable.
        assert_eq!(
            encode_chain(&sample_chain(), true),
            encode_chain(&sample_chain(), true)
        );
    }

    #[test]
    fn corrupt_images_are_rejected_not_panicked() {
        for chain in [sample_chain(), generational_chain()] {
            let bodies = encode_chain(&chain, true);
            for (i, body) in bodies.iter().enumerate() {
                let prev = i.checked_sub(1).map(|p| &chain[p]);
                for cut in 0..body.len() {
                    let r = CheckpointCodec.decode_payload(&body[..cut], prev);
                    assert!(r.is_err(), "entry {i} cut at {cut}");
                }
                let mut bad = body.clone();
                bad.push(0);
                assert_eq!(
                    CheckpointCodec.decode_payload(&bad, prev),
                    Err(varint::Error::Trailing.into())
                );
            }
        }
    }

    /// Lengths and counts no bytes back: an error, in debug and release,
    /// before anything is sized from them.
    #[test]
    fn crafted_lengths_and_counts_are_truncation_not_panic_or_allocation() {
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
                Err(varint::Error::Truncated.into())
            );
        }
    }

    /// Every engine's store starts with an empty checkpoint: it is a full
    /// body of four zero bytes, and an empty delta against itself.
    #[test]
    fn empty_store_round_trips() {
        let empty = NodeCheckpoint::default();
        let bodies = encode_chain(&[empty.clone(), empty.clone()], true);
        assert_eq!(
            bodies,
            [[DELIVERED_FULL, 0, 0, 0], [DELIVERED_DELTA, 0, 0, 0]]
        );
        assert_eq!(decode_chain(&bodies), Ok(vec![empty.clone(), empty]));
    }

    /// A full body of `deliveries` `(cluster, rank, log id, SN)`, no
    /// channel state and no application snapshot, varint by varint.
    fn full_body(deliveries: &[[u64; 4]]) -> Vec<u8> {
        let mut body = vec![DELIVERED_FULL];
        put_u64(&mut body, deliveries.len() as u64);
        deliveries
            .iter()
            .flatten()
            .for_each(|&v| put_u64(&mut body, v));
        body.extend([0, 0]);
        body
    }

    const NOT_INCREASING: &str = "delivery keys not strictly increasing";

    /// Two bodies that break the key-order rule — descending keys, and a
    /// key written twice — beside the ascending body they are made from.
    fn misordered_bodies() -> [Vec<u8>; 3] {
        [
            full_body(&[[0, 0, 9, 2], [0, 1, 5, 1]]),
            full_body(&[[0, 1, 5, 1], [0, 0, 9, 2]]),
            full_body(&[[1, 2, 3, 1], [1, 2, 3, 2]]),
        ]
    }

    /// Keys in a body are strictly increasing, and decoding checks it: a
    /// descending or repeated key is an error, not a panic and not a
    /// record the encoder would write differently.
    #[test]
    fn descending_or_repeated_delivery_keys_are_errors() {
        let [sorted, descending, repeated] = misordered_bodies();
        let ok = CheckpointCodec
            .decode_payload(&sorted, None)
            .expect("sorted");
        assert_eq!(ok.delivered.len(), 2);
        assert_eq!(CheckpointCodec.encode_payload(&ok, None), sorted);
        for body in [descending, repeated] {
            assert_eq!(
                CheckpointCodec.decode_payload(&body, None),
                Err(NOT_INCREASING.into())
            );
            // A delta body's deliveries are held to the same rule.
            let mut delta = body;
            delta[0] = DELIVERED_DELTA;
            assert_eq!(
                CheckpointCodec.decode_payload(&delta, Some(&NodeCheckpoint::default())),
                Err(NOT_INCREASING.into())
            );
        }
    }

    /// Writes each payload's bytes as the entry body, unchecked.
    struct RawBodies;

    impl EntryCodec for RawBodies {
        type Payload = Vec<u8>;

        fn encode_into(&self, body: &Vec<u8>, _: Option<&Vec<u8>>, out: &mut Vec<u8>) {
            out.extend_from_slice(body);
        }

        fn decode_payload(&self, buf: &[u8], _: Option<&Vec<u8>>) -> Result<Vec<u8>, String> {
            Ok(buf.to_vec())
        }
    }

    /// Through [`storage::recover`], a checksummed frame whose body breaks
    /// the key-order rule is a `Corrupt` frame, in the final segment too.
    #[test]
    fn recovery_reports_misordered_delivery_keys_as_corrupt() {
        use std::sync::Arc;
        use storage::{ClcMeta, Ddv, DurableError, DurableOptions, DurableStore, SyncPolicy};
        let [sorted, descending, repeated] = misordered_bodies();
        for (name, body) in [("descending", descending), ("repeated", repeated)] {
            let dir = std::env::temp_dir()
                .join(format!("hc3i-persist-order-{name}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let opts = DurableOptions {
                sync: SyncPolicy::Manual,
                compact_bytes: None,
            };
            let mut log = DurableStore::open(&dir, RawBodies, opts).expect("open log");
            for (k, body) in [&sorted, &body].into_iter().enumerate() {
                let meta = ClcMeta {
                    sn: SeqNum(k as u64 + 1),
                    ddv: Arc::new(Ddv::zeros(1)),
                    committed_at: hc3i_types::SimTime(k as u64),
                    forced: false,
                };
                log.append_commit(0, &meta, body).expect("append");
            }
            log.sync().expect("sync");
            drop(log);
            match storage::recover(&dir, &CheckpointCodec) {
                Err(DurableError::Corrupt { what, .. }) => assert_eq!(what, NOT_INCREASING),
                other => panic!(
                    "{name}: expected Corrupt, got {:?}",
                    other.map(|r| r.frames)
                ),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A delivery or channel message from a cluster or rank that
    /// [`NodeId`] cannot hold is corruption: an error, not an id wrapped to
    /// another node's (which would also re-encode to different bytes).
    #[test]
    fn out_of_range_node_ids_are_errors() {
        for (cluster, rank) in [(1 << 16, 0), (0, 1 << 32)] {
            let delivery = [0, 1, cluster, rank, 7, 2, 0, 0];
            let channel = [0, 0, 1, cluster, rank, 512, 40, 0];
            for varints in [delivery, channel] {
                let mut body = Vec::new();
                varints.iter().for_each(|&v| put_u64(&mut body, v));
                let r = CheckpointCodec.decode_payload(&body, None);
                assert!(r.is_err(), "({cluster}, {rank}) decoded to {r:?}");
            }
        }
    }
}
