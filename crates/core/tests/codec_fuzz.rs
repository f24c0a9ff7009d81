//! Property tests for the segment log's checkpoint entry codec
//! ([`CheckpointCodec`]) over chains built the way a live engine builds
//! them: bodies round-trip byte-stably, deltas pay for themselves, and
//! mutated, truncated or malformed bodies are errors — never panics, never
//! a silently different checkpoint.

use hc3i_core::{AppPayload, CheckpointCodec, DeliveredRecord, NodeCheckpoint, SeqNum};
use hc3i_types::NodeId;
use proptest::prelude::*;
use storage::varint::put_u64;
use storage::EntryCodec;

/// One step of a random chain history: deliveries recorded since the
/// previous CLC, the channel state captured at it, and whether the
/// application published a snapshot.
#[derive(Debug, Clone)]
struct ChainStep {
    deliveries: Vec<(u16, u32, u64, u64)>,
    channel: Vec<(u16, u32, u64, u64)>,
    app_state: Option<Vec<u8>>,
}

fn chain_strategy() -> impl Strategy<Value = Vec<ChainStep>> {
    prop::collection::vec(
        (
            prop::collection::vec((0u16..4, 0u32..4, any::<u64>(), any::<u64>()), 0..5),
            prop::collection::vec((0u16..4, 0u32..4, 0u64..1 << 20, any::<u64>()), 0..3),
            // (the vendored proptest has no `prop::option`; model the
            // optional app snapshot with an explicit presence bool)
            (any::<bool>(), prop::collection::vec(any::<u8>(), 0..16)),
        )
            .prop_map(|(deliveries, channel, (has_app, app))| ChainStep {
                deliveries,
                channel,
                app_state: has_app.then_some(app),
            }),
        1..10,
    )
}

/// Build a chain the way a live engine does: one sealed, structurally
/// shared delivered-record per CLC.
fn build_chain(steps: &[ChainStep]) -> Vec<NodeCheckpoint> {
    let mut live = DeliveredRecord::new();
    steps
        .iter()
        .map(|step| {
            for &(c, r, id, sn) in &step.deliveries {
                let key = (NodeId::new(c, r), id);
                if live.get(&key).is_none() {
                    live.insert(key, SeqNum(sn));
                }
            }
            NodeCheckpoint {
                delivered: live.seal(),
                channel_state: step
                    .channel
                    .iter()
                    .map(|&(c, r, bytes, tag)| (NodeId::new(c, r), AppPayload { bytes, tag }))
                    .collect(),
                app_state: step.app_state.clone(),
            }
        })
        .collect()
}

/// Each body encoded against the previous checkpoint, as the segment log
/// writes a chain (`delta`), or against nothing.
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

/// Values at and around `max`, plus small and arbitrary ones.
fn edge_strategy(max: u64) -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, max - 2..=max + 2, any::<u64>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Decoding each body against the previous *decoded* checkpoint — as
    /// recovery replays a chain — gives back the content, and re-encoding
    /// gives back every body byte for byte (the decoder rebuilt the
    /// structural deltas).
    #[test]
    fn entry_chain_round_trips_byte_stably(steps in chain_strategy()) {
        let chain = build_chain(&steps);
        let bodies = encode_chain(&chain, true);
        let mut back: Vec<NodeCheckpoint> = Vec::new();
        for body in &bodies {
            let c = CheckpointCodec.decode_payload(body, back.last()).unwrap();
            prop_assert_eq!(&CheckpointCodec.encode_payload(&c, back.last()), body);
            back.push(c);
        }
        prop_assert_eq!(back, chain);
    }

    /// Chain size is O(total deliveries): once a CLC follows one that
    /// holds deliveries, the delta chain is strictly smaller than the
    /// all-full one.
    #[test]
    fn delta_chain_is_smaller_than_full_chain(steps in chain_strategy()) {
        let chain = build_chain(&steps);
        let size = |delta| encode_chain(&chain, delta).concat().len();
        if chain.windows(2).any(|w| !w[0].delivered.is_empty()) {
            prop_assert!(size(true) < size(false), "{} vs {}", size(true), size(false));
        } else {
            prop_assert_eq!(size(true), size(false));
        }
    }

    /// Two encodings of the same hash-map-backed chain are equal.
    #[test]
    fn entry_encoding_is_deterministic(steps in chain_strategy()) {
        let chain = build_chain(&steps);
        prop_assert_eq!(encode_chain(&chain, true), encode_chain(&chain, true));
    }

    #[test]
    fn entry_decoder_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = CheckpointCodec.decode_payload(&bytes, None);
        let _ = CheckpointCodec.decode_payload(&bytes, Some(&NodeCheckpoint::default()));
    }

    #[test]
    fn entry_decoder_never_panics_on_mutated_bodies(
        steps in chain_strategy(),
        entry_at in any::<prop::sample::Index>(),
        flip_at in any::<prop::sample::Index>(),
        new_byte in any::<u8>(),
    ) {
        let chain = build_chain(&steps);
        let bodies = encode_chain(&chain, true);
        let i = entry_at.index(bodies.len());
        let mut body = bodies[i].clone();
        let idx = flip_at.index(body.len());
        body[idx] = new_byte;
        // Err or a different checkpoint; no panic.
        let _ = CheckpointCodec.decode_payload(&body, i.checked_sub(1).map(|p| &chain[p]));
    }

    // Every strict prefix of a valid body must fail to decode — the
    // decoder may never panic on missing bytes, and (because lengths are
    // explicit and trailing bytes are rejected) may never silently return
    // a shorter-but-valid checkpoint either. This is what the durable
    // segment log leans on when a torn frame slips past framing: the
    // payload decoder itself detects the cut.
    #[test]
    fn every_strict_prefix_of_an_entry_body_errors(
        steps in chain_strategy(),
        entry_at in any::<prop::sample::Index>(),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let chain = build_chain(&steps);
        let bodies = encode_chain(&chain, true);
        let i = entry_at.index(bodies.len());
        let cut = cut_at.index(bodies[i].len()); // 0..len: a strict prefix
        let prev = i.checked_sub(1).map(|p| &chain[p]);
        prop_assert!(
            CheckpointCodec.decode_payload(&bodies[i][..cut], prev).is_err(),
            "entry {i} truncated to {cut}/{} bytes must not decode",
            bodies[i].len()
        );
    }

    /// A trailing byte, an unknown delivered tag and a DELTA body with no
    /// previous entry are each an error.
    #[test]
    fn malformed_entry_bodies_are_rejected(
        steps in chain_strategy(),
        entry_at in any::<prop::sample::Index>(),
        extra in any::<u8>(),
        tag in 2u8..=255,
    ) {
        let chain = build_chain(&steps);
        let bodies = encode_chain(&chain, true);
        let i = entry_at.index(bodies.len());
        let prev = i.checked_sub(1).map(|p| &chain[p]);
        let mut trailing = bodies[i].clone();
        trailing.push(extra);
        prop_assert!(CheckpointCodec.decode_payload(&trailing, prev).is_err());
        let mut unknown = bodies[i].clone();
        unknown[0] = tag;
        prop_assert!(CheckpointCodec.decode_payload(&unknown, prev).is_err());
        let delta = CheckpointCodec.encode_payload(&chain[i], Some(&chain[i]));
        prop_assert!(CheckpointCodec.decode_payload(&delta, None).is_err());
    }

    /// A delivery from a node id at or past the edges of `u16` clusters
    /// and `u32` ranks decodes exactly when the id fits, and then
    /// re-encodes to the same bytes — never wrapped into another node.
    #[test]
    fn node_ids_decode_only_in_range_and_byte_stably(
        cluster in edge_strategy(u64::from(u16::MAX)),
        rank in edge_strategy(u64::from(u32::MAX)),
    ) {
        let mut body = Vec::new();
        for v in [0, 1, cluster, rank, 7, 2, 0, 0] {
            put_u64(&mut body, v);
        }
        let fits = cluster <= u64::from(u16::MAX) && rank <= u64::from(u32::MAX);
        match CheckpointCodec.decode_payload(&body, None) {
            Ok(c) => {
                prop_assert!(fits, "({cluster}, {rank}) decoded");
                prop_assert_eq!(CheckpointCodec.encode_payload(&c, None), body);
            }
            Err(_) => prop_assert!(!fits, "({cluster}, {rank}) rejected"),
        }
    }
}
