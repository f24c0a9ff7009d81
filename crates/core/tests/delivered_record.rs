//! Property test: the generational, copy-on-write [`DeliveredRecord`]
//! behaves identically to the eager clone-per-CLC representation it
//! replaced, across random CLC / rollback / GC interleavings.
//!
//! The model is the old representation itself: a plain `HashMap` whose
//! "seal" is a full deep clone. The test drives both through the same
//! random op sequence —
//!
//! * `Insert` — an inter-cluster delivery recorded between CLCs;
//! * `Seal` — `freeze_and_stage` staging a checkpoint;
//! * `Restore(i)` — a rollback to the `i`-th stored checkpoint (newer
//!   snapshots are discarded, like `ClcStore::truncate_after`);
//! * `Prune(n)` — garbage collection dropping the `n` oldest snapshots
//!   (shared generations must keep later snapshots intact);
//!
//! — and asserts lookups, lengths, snapshot contents and the persisted
//! encoding agree at every step. At every step the stored snapshots also
//! go through [`CheckpointCodec`] the way the segment log writes and
//! recovery reads a chain — each encoded against its predecessor, decoded
//! against the decoded predecessor — and what comes back must answer
//! every key of the key space, misses included, as the model does.

use hc3i_core::{CheckpointCodec, DeliveredKey, DeliveredRecord, NodeCheckpoint, SeqNum};
use hc3i_types::NodeId;
use proptest::prelude::*;
use std::collections::HashMap;
use storage::EntryCodec;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { key_seed: u32, sn: u64 },
    Seal,
    Restore { pick: usize },
    Prune { count: usize },
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            5 => (any::<u32>(), 1u64..1000).prop_map(|(key_seed, sn)| Op::Insert { key_seed, sn }),
            3 => Just(Op::Seal),
            1 => any::<prop::sample::Index>().prop_map(|i| Op::Restore { pick: i.index(64) }),
            1 => any::<prop::sample::Index>().prop_map(|i| Op::Prune { count: i.index(4) }),
        ],
        0..80,
    )
}

fn key(seed: u32) -> DeliveredKey {
    // A small key space so inserts collide with existing entries often
    // (collisions are skipped, as the engine's duplicate check does).
    (
        NodeId::new((seed % 3) as u16, (seed >> 2) % 4),
        (seed % 11) as u64,
    )
}

fn contents_match(rec: &DeliveredRecord, model: &HashMap<DeliveredKey, SeqNum>) -> bool {
    rec.len() == model.len() && model.iter().all(|(k, sn)| rec.get(k) == Some(*sn))
}

/// Every key [`key`] can produce.
fn key_space() -> impl Iterator<Item = DeliveredKey> {
    (0..3u16).flat_map(|c| {
        (0..4u32).flat_map(move |r| (0..11u64).map(move |id| (NodeId::new(c, r), id)))
    })
}

/// `rec` answers every key of the key space as `model` does, hits and
/// misses alike, and holds as many entries.
fn answers_match(rec: &DeliveredRecord, model: &HashMap<DeliveredKey, SeqNum>) -> bool {
    rec.len() == model.len() && key_space().all(|k| rec.get(&k) == model.get(&k).copied())
}

/// The records a chain of `snaps` reads back as from the segment log:
/// each body encoded against its predecessor's record, decoded against
/// the decoded predecessor.
fn through_the_codec(snaps: &[DeliveredRecord]) -> Vec<DeliveredRecord> {
    let mut prev: Option<(NodeCheckpoint, NodeCheckpoint)> = None;
    snaps
        .iter()
        .map(|rec| {
            let ckpt = NodeCheckpoint {
                delivered: rec.clone(),
                ..NodeCheckpoint::default()
            };
            let body = CheckpointCodec.encode_payload(&ckpt, prev.as_ref().map(|(p, _)| p));
            let back = CheckpointCodec
                .decode_payload(&body, prev.as_ref().map(|(_, d)| d))
                .expect("a chain the codec wrote decodes");
            let delivered = back.delivered.clone();
            prev = Some((ckpt, back));
            delivered
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generational_record_matches_eager_model(ops in ops_strategy()) {
        let mut live = DeliveredRecord::new();
        let mut model: HashMap<DeliveredKey, SeqNum> = HashMap::new();
        // Parallel stores of (generational snapshot, eager clone).
        let mut snaps: Vec<(DeliveredRecord, HashMap<DeliveredKey, SeqNum>)> = Vec::new();

        for op in ops {
            match op {
                Op::Insert { key_seed, sn } => {
                    let k = key(key_seed);
                    // The engine only records a delivery after its
                    // duplicate check; mirror that here.
                    if live.get(&k).is_none() {
                        prop_assert!(!model.contains_key(&k), "model diverged");
                        live.insert(k, SeqNum(sn));
                        model.insert(k, SeqNum(sn));
                    } else {
                        prop_assert_eq!(live.get(&k), model.get(&k).copied());
                    }
                }
                Op::Seal => {
                    // Old representation: full clone. New: O(delta) seal.
                    snaps.push((live.seal(), model.clone()));
                }
                Op::Restore { pick } => {
                    if !snaps.is_empty() {
                        let idx = pick % snaps.len();
                        // Rollback: restore snapshot `idx`, discard newer.
                        live = snaps[idx].0.clone();
                        model = snaps[idx].1.clone();
                        snaps.truncate(idx + 1);
                    }
                }
                Op::Prune { count } => {
                    // GC drops the oldest checkpoints; later snapshots and
                    // the live record must be unaffected even though they
                    // share generations with the dropped ones.
                    let n = count.min(snaps.len());
                    snaps.drain(..n);
                }
            }
            prop_assert!(contents_match(&live, &model), "live record diverged");
            let records: Vec<DeliveredRecord> = snaps.iter().map(|(rec, _)| rec.clone()).collect();
            for (back, (_, eager)) in through_the_codec(&records).iter().zip(&snaps) {
                prop_assert!(answers_match(back, eager), "decoded snapshot diverged");
            }
        }

        // Every surviving snapshot still equals its eager counterpart…
        for (rec, eager) in &snaps {
            prop_assert!(contents_match(rec, eager), "snapshot diverged");
            // …is canonical under sorting…
            let mut expect: Vec<_> = eager.iter().map(|(k, sn)| (*k, *sn)).collect();
            expect.sort_unstable_by_key(|&(k, _)| k);
            prop_assert_eq!(rec.sorted_entries(), expect);
            // …and round-trips through the full checkpoint encoding.
            let ckpt = NodeCheckpoint {
                delivered: rec.clone(),
                channel_state: vec![],
                app_state: None,
            };
            let bytes = CheckpointCodec.encode_payload(&ckpt, None);
            let back = CheckpointCodec.decode_payload(&bytes, None).unwrap();
            prop_assert_eq!(&back.delivered, rec);
        }
    }
}

/// More seals than the chain keeps unflattened, each generation's keys
/// interleaved with the others' (a generation takes every `GENS`-th id of
/// each sender), so flattening must merge runs, not append them; every
/// snapshot is checked before and after the codec, misses included.
#[test]
fn collapse_merges_interleaved_runs() {
    const GENS: u64 = 20;
    let mut live = DeliveredRecord::new();
    let mut model: HashMap<DeliveredKey, SeqNum> = HashMap::new();
    let mut snaps = Vec::new();
    for g in 0..GENS {
        for sender in [NodeId::new(2, 1), NodeId::new(0, 3), NodeId::new(1, 0)] {
            for id in (g..4 * GENS).step_by(GENS as usize) {
                let sn = SeqNum(1 + g * 1000 + id);
                live.insert((sender, id), sn);
                model.insert((sender, id), sn);
            }
        }
        snaps.push((live.seal(), model.clone()));
    }
    // Every id below 4 * GENS of the three senders and one beyond, and a
    // sender that never sent.
    let probes = |rec: &DeliveredRecord, model: &HashMap<DeliveredKey, SeqNum>| {
        assert_eq!(rec.len(), model.len());
        for sender in [
            NodeId::new(2, 1),
            NodeId::new(0, 3),
            NodeId::new(1, 0),
            NodeId::new(1, 1),
        ] {
            for id in 0..=4 * GENS {
                assert_eq!(rec.get(&(sender, id)), model.get(&(sender, id)).copied());
            }
        }
        let mut expect: Vec<_> = model.iter().map(|(k, sn)| (*k, *sn)).collect();
        expect.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(rec.sorted_entries(), expect);
    };
    let records: Vec<DeliveredRecord> = snaps.iter().map(|(rec, _)| rec.clone()).collect();
    let decoded = through_the_codec(&records);
    for ((rec, model), back) in snaps.iter().zip(&decoded) {
        probes(rec, model);
        probes(back, model);
    }
    probes(&live, &model);
    assert_eq!(live.len() as u64, 3 * 4 * GENS);
}
