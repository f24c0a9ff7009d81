//! Property tests for the wire codec and the versioned checkpoint-store
//! codec: arbitrary messages and stores round-trip, and arbitrary byte
//! soup never panics either decoder.

use hc3i_core::codec::{decode, decode_envelope, encode, encode_envelope};
use hc3i_core::persist::{decode_store, encode_store};
use hc3i_core::{
    AppPayload, ClcReason, Ddv, DeliveredRecord, LogId, Msg, NodeCheckpoint, Piggyback, SeqNum,
};
use netsim::NodeId;
use proptest::prelude::*;
use storage::{ClcMeta, ClcStore};

fn ddv_strategy() -> impl Strategy<Value = Ddv> {
    prop::collection::vec(any::<u64>(), 1..8)
        .prop_map(|v| Ddv::from_entries(v.into_iter().map(SeqNum).collect()))
}

fn piggyback_strategy() -> impl Strategy<Value = Piggyback> {
    prop_oneof![
        any::<u64>().prop_map(|v| Piggyback::Sn(SeqNum(v))),
        ddv_strategy().prop_map(|d| Piggyback::Ddv(std::sync::Arc::new(d))),
    ]
}

fn payload_strategy() -> impl Strategy<Value = AppPayload> {
    (any::<u64>(), any::<u64>()).prop_map(|(bytes, tag)| AppPayload { bytes, tag })
}

fn reason_strategy() -> impl Strategy<Value = ClcReason> {
    prop_oneof![
        Just(ClcReason::Timer),
        (piggyback_strategy(), 0usize..16).prop_map(|(p, c)| ClcReason::Forced(p, c)),
    ]
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (reason_strategy(), any::<u64>())
            .prop_map(|(reason, epoch)| Msg::ClcInit { reason, epoch }),
        (any::<u64>(), any::<u64>()).prop_map(|(round, epoch)| Msg::ClcRequest { round, epoch }),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(round, owner, epoch)| {
            Msg::FragmentReplica {
                round,
                owner,
                epoch,
            }
        }),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(round, holder, epoch)| {
            Msg::FragmentStored {
                round,
                holder,
                epoch,
            }
        }),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(round, rank, epoch)| Msg::ClcAck {
            round,
            rank,
            epoch
        }),
        (
            any::<u64>(),
            any::<u64>(),
            ddv_strategy(),
            any::<bool>(),
            any::<u64>()
        )
            .prop_map(|(round, sn, ddv, forced, epoch)| Msg::ClcCommit {
                round,
                sn: SeqNum(sn),
                ddv: std::sync::Arc::new(ddv),
                forced,
                epoch,
            }),
        (payload_strategy(), any::<u64>()).prop_map(|(payload, sn)| Msg::AppIntra {
            payload,
            sent_at_sn: SeqNum(sn),
        }),
        (
            payload_strategy(),
            piggyback_strategy(),
            any::<u64>(),
            any::<bool>(),
            any::<u64>()
        )
            .prop_map(
                |(payload, piggyback, id, resend, sender_epoch)| Msg::AppInter {
                    payload,
                    piggyback,
                    log_id: LogId(id),
                    resend,
                    sender_epoch,
                }
            ),
        (any::<u64>(), any::<u64>()).prop_map(|(id, sn)| Msg::InterAck {
            log_id: LogId(id),
            receiver_sn: SeqNum(sn),
        }),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(sn, epoch, nc)| {
            Msg::RollbackOrder {
                restore_sn: SeqNum(sn),
                epoch,
                new_coordinator: nc,
            }
        }),
        (0usize..16, any::<u64>(), any::<u64>()).prop_map(|(origin, sn, e)| Msg::RollbackAlert {
            origin,
            sn: SeqNum(sn),
            origin_epoch: e,
        }),
        (0usize..16, any::<u64>(), any::<u64>()).prop_map(|(origin, sn, e)| Msg::AlertLocal {
            origin,
            sn: SeqNum(sn),
            origin_epoch: e,
        }),
        Just(Msg::GcCollect),
        (
            0usize..16,
            prop::collection::vec((any::<u64>(), ddv_strategy()), 0..6)
        )
            .prop_map(|(cluster, raw)| Msg::GcDdvList {
                cluster,
                list: raw
                    .into_iter()
                    .map(|(sn, ddv)| (SeqNum(sn), std::sync::Arc::new(ddv)))
                    .collect(),
            }),
        prop::collection::vec(any::<u64>(), 0..8).prop_map(|v| Msg::GcPrune {
            min_sns: v.into_iter().map(SeqNum).collect(),
        }),
    ]
}

/// One step of a random store history: deliveries recorded since the
/// previous CLC, plus whether the application published a snapshot.
#[derive(Debug, Clone)]
struct StoreStep {
    deliveries: Vec<(u16, u32, u64, u64)>,
    channel: Vec<(u16, u32, u64, u64)>,
    app_state: Option<Vec<u8>>,
    forced: bool,
}

fn store_strategy() -> impl Strategy<Value = Vec<StoreStep>> {
    prop::collection::vec(
        (
            prop::collection::vec((0u16..4, 0u32..4, any::<u64>(), any::<u64>()), 0..5),
            prop::collection::vec((0u16..4, 0u32..4, 0u64..1 << 20, any::<u64>()), 0..3),
            // (the vendored proptest has no `prop::option`; model the
            // optional app snapshot with an explicit presence bool)
            (any::<bool>(), prop::collection::vec(any::<u8>(), 0..16)),
            any::<bool>(),
        )
            .prop_map(|(deliveries, channel, (has_app, app), forced)| StoreStep {
                deliveries,
                channel,
                app_state: has_app.then_some(app),
                forced,
            }),
        0..10,
    )
}

/// Build a store the way a live engine does: one sealed, structurally
/// shared delivered-record per CLC.
fn build_store(steps: &[StoreStep]) -> ClcStore<NodeCheckpoint> {
    let mut store = ClcStore::new();
    let mut live = DeliveredRecord::new();
    for (i, step) in steps.iter().enumerate() {
        for &(c, r, id, sn) in &step.deliveries {
            let key = (NodeId::new(c, r), id);
            if live.get(&key).is_none() {
                live.insert(key, SeqNum(sn));
            }
        }
        let sn = SeqNum(i as u64 + 1);
        let mut ddv = Ddv::zeros(4);
        ddv.set(0, sn);
        store.commit(
            ClcMeta {
                sn,
                ddv: std::sync::Arc::new(ddv),
                committed_at: desim::SimTime(i as u64),
                forced: step.forced,
            },
            NodeCheckpoint {
                delivered: live.seal(),
                channel_state: step
                    .channel
                    .iter()
                    .map(|&(c, r, bytes, tag)| (NodeId::new(c, r), AppPayload { bytes, tag }))
                    .collect(),
                app_state: step.app_state.clone(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_message_round_trips(msg in msg_strategy()) {
        let wire = encode(&msg);
        prop_assert_eq!(decode(&wire).unwrap(), msg);
    }

    #[test]
    fn envelopes_round_trip(
        msg in msg_strategy(),
        fc in any::<u16>(), fr in any::<u32>(),
        tc in any::<u16>(), tr in any::<u32>(),
    ) {
        let from = NodeId::new(fc, fr);
        let to = NodeId::new(tc, tr);
        let wire = encode_envelope(from, to, &msg);
        let (f, t, m) = decode_envelope(&wire).unwrap();
        prop_assert_eq!(f, from);
        prop_assert_eq!(t, to);
        prop_assert_eq!(m, msg);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
        let _ = decode_envelope(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_messages(
        msg in msg_strategy(),
        flip_at in any::<prop::sample::Index>(),
        new_byte in any::<u8>(),
    ) {
        let mut wire = encode(&msg);
        if wire.is_empty() {
            return Ok(());
        }
        let idx = flip_at.index(wire.len());
        wire[idx] = new_byte;
        let _ = decode(&wire); // must not panic; Err or a different Msg are both fine
    }

    #[test]
    fn encoding_is_deterministic(msg in msg_strategy()) {
        prop_assert_eq!(encode(&msg), encode(&msg));
    }

    #[test]
    fn versioned_store_encoding_round_trips_byte_stably(steps in store_strategy()) {
        let store = build_store(&steps);
        let bytes = encode_store(&store);
        let back = decode_store(&bytes).unwrap();
        prop_assert!(stores_equal(&store, &back), "content round-trip");
        // Byte stability: re-encoding the decoded store reproduces the
        // image exactly (the decoder rebuilt the structural deltas).
        prop_assert_eq!(encode_store(&back), bytes);
    }

    #[test]
    fn store_decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_store(&bytes);
    }

    #[test]
    fn store_decoder_never_panics_on_mutated_valid_images(
        steps in store_strategy(),
        flip_at in any::<prop::sample::Index>(),
        new_byte in any::<u8>(),
    ) {
        let mut bytes = encode_store(&build_store(&steps));
        let idx = flip_at.index(bytes.len());
        bytes[idx] = new_byte;
        let _ = decode_store(&bytes); // Err or a different store; no panic
    }

    // Every strict prefix of a valid image must fail to decode with a
    // `DecodeError` — the decoder may never panic on missing bytes, and
    // (because lengths are explicit and trailing bytes are rejected) may
    // never silently return a shorter-but-valid store either. This is
    // what the durable segment log leans on when a torn frame slips
    // past framing: the payload decoder itself detects the cut.
    #[test]
    fn prefix_truncation_of_v2_images_always_errors(
        steps in store_strategy(),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let bytes = encode_store(&build_store(&steps));
        let cut = cut_at.index(bytes.len()); // 0..len: a strict prefix
        prop_assert!(
            decode_store(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes must not decode",
            bytes.len()
        );
    }
}
