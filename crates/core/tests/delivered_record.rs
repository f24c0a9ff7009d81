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
//! encoding agree at every step.

use hc3i_core::{CheckpointCodec, DeliveredKey, DeliveredRecord, NodeCheckpoint, SeqNum};
use netsim::NodeId;
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
