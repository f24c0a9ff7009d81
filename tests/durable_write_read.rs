//! Write→read equivalence of the segment log under random op scripts.
//!
//! The writer frames into a pending buffer and reaches the file only at
//! its flush points (see `storage::durable`); this suite pins what a
//! reader may then see. Over random scripts of commit / truncate / prune /
//! snapshot / compact / `sync` on 1–8 nodes, under both sync policies:
//!
//! * at **every** step, `recover(dir)` is a state the writer passed
//!   through since the last compaction — the frames on disk are a prefix
//!   of the frames appended, never a torn or reordered one;
//! * after every **flush point** (`sync`, compaction, an `EveryCommit`
//!   commit, drop), it is the writer's *current* state, entry for entry
//!   (meta and payload), and `frames` counts exactly the frames appended.
//!
//! Some commits carry a 40 KB application snapshot, so the 64 KiB flush
//! threshold is crossed inside scripts too.

use desim::SimTime;
use hc3i::core::{AppPayload, CheckpointCodec, DeliveredRecord, NodeCheckpoint};
use netsim::NodeId;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{
    ClcMeta, ClcStore, Ddv, DurableOptions, DurableStore, Recovered, SeqNum, SyncPolicy,
};

type Stores = BTreeMap<u64, ClcStore<NodeCheckpoint>>;

#[derive(Debug, Clone)]
enum Op {
    /// Commit `node`'s next CLC: `deliveries` new inter-cluster deliveries
    /// on its live record (or on a fresh one, forcing a full encoding).
    Commit {
        node: u64,
        deliveries: u8,
        fresh_record: bool,
        big_app_state: bool,
    },
    /// Roll `node` back to its `pick`-th stored CLC.
    Truncate {
        node: u64,
        pick: usize,
    },
    /// Prune `node` below its `pick`-th stored CLC.
    Prune {
        node: u64,
        pick: usize,
    },
    /// Replace `node`'s chain with a fresh one-entry chain.
    Snapshot {
        node: u64,
    },
    Compact,
    Sync,
}

/// `(nodes, EveryCommit?, ops)`; an op's node is taken modulo `nodes`.
fn script_strategy() -> impl Strategy<Value = (u64, bool, Vec<Op>)> {
    let ops = prop::collection::vec(
        prop_oneof![
            8 => (0u64..8, 0u8..4, 0u8..8, 0u8..8).prop_map(
                |(node, deliveries, fresh, big)| Op::Commit {
                    node,
                    deliveries,
                    fresh_record: fresh == 0,
                    big_app_state: big == 0,
                }
            ),
            2 => (0u64..8, 0usize..8).prop_map(|(node, pick)| Op::Truncate { node, pick }),
            2 => (0u64..8, 0usize..8).prop_map(|(node, pick)| Op::Prune { node, pick }),
            1 => (0u64..8).prop_map(|node| Op::Snapshot { node }),
            1 => Just(Op::Compact),
            2 => Just(Op::Sync),
        ],
        0..40,
    );
    (1u64..=8, any::<bool>(), ops)
}

fn same(a: &Stores, b: &Stores) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((na, ca), (nb, cb))| {
            na == nb
                && ca.len() == cb.len()
                && ca
                    .iter()
                    .zip(cb.iter())
                    .all(|(x, y)| x.meta == y.meta && x.payload == y.payload)
        })
}

/// What the writer side of one script knows.
struct Writer {
    log: DurableStore<CheckpointCodec>,
    /// Per node: the live delivery record and the last SN handed out
    /// (never reused, so chains stay monotone across truncations).
    live: Vec<(DeliveredRecord, u64)>,
    next_log_id: u64,
    /// `(frames in the log, stores)` after every append since the last
    /// compaction: the states a reader may legitimately see.
    passed: Vec<(u64, Stores)>,
}

impl Writer {
    fn next_meta(&mut self, node: u64) -> ClcMeta {
        let sn = &mut self.live[node as usize].1;
        *sn += 1;
        ClcMeta {
            sn: SeqNum(*sn),
            ddv: Arc::new(Ddv::from_entries(vec![SeqNum(*sn), SeqNum(*sn / 2)])),
            committed_at: SimTime(*sn * 1_000),
            forced: sn.is_multiple_of(3),
        }
    }

    fn apply(&mut self, op: &Op) {
        let nodes = self.live.len() as u64;
        let sn_at = |log: &DurableStore<CheckpointCodec>, node: u64, pick: usize| {
            let chain = log.store(node)?;
            chain
                .iter()
                .nth(pick % chain.len().max(1))
                .map(|e| e.meta.sn)
        };
        match *op {
            Op::Commit {
                node,
                deliveries,
                fresh_record,
                big_app_state,
            } => {
                let node = node % nodes;
                let meta = self.next_meta(node);
                let live = &mut self.live[node as usize].0;
                if fresh_record {
                    *live = live.iter().collect();
                }
                for _ in 0..deliveries {
                    self.next_log_id += 1;
                    live.insert((NodeId::new(9, node as u32), self.next_log_id), meta.sn);
                }
                let payload = NodeCheckpoint {
                    delivered: live.seal(),
                    channel_state: vec![(
                        NodeId::new(0, node as u32),
                        AppPayload {
                            bytes: 64 << deliveries,
                            tag: self.next_log_id,
                        },
                    )],
                    app_state: big_app_state.then(|| vec![meta.sn.0 as u8; 40_000]),
                };
                self.log.append_commit(node, &meta, &payload).unwrap();
            }
            Op::Truncate { node, pick } => {
                let node = node % nodes;
                let sn = sn_at(&self.log, node, pick).unwrap_or(SeqNum(0));
                self.log.append_truncate(node, sn).unwrap();
            }
            Op::Prune { node, pick } => {
                let node = node % nodes;
                let sn = sn_at(&self.log, node, pick).unwrap_or(SeqNum(0));
                self.log.append_prune(node, sn).unwrap();
            }
            Op::Snapshot { node } => {
                let node = node % nodes;
                let mut chain = ClcStore::new();
                chain.commit(self.next_meta(node), NodeCheckpoint::default());
                self.live[node as usize].0 = DeliveredRecord::new();
                self.log.snapshot_node(node, &chain).unwrap();
            }
            Op::Compact => {
                self.log.compact().unwrap();
                // One snapshot frame per chain replaces the history.
                self.passed.clear();
                self.passed
                    .push((self.log.stores().len() as u64, self.log.stores().clone()));
                return;
            }
            Op::Sync => {
                self.log.sync().unwrap();
                return;
            }
        }
        let frames = self.passed.last().expect("never empty").0 + 1;
        self.passed.push((frames, self.log.stores().clone()));
    }
}

fn check_current(
    seen: &Recovered<CheckpointCodec>,
    writer: &Writer,
    when: &str,
) -> Result<(), TestCaseError> {
    let (frames, stores) = writer.passed.last().expect("never empty");
    prop_assert_eq!(seen.frames, *frames, "{}: frames", when);
    prop_assert!(same(&seen.stores, stores), "{}: stores", when);
    prop_assert!(same(&seen.stores, writer.log.stores()), "{}: mirror", when);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn readers_see_a_prefix_and_flush_points_show_everything(
        (nodes, every_commit, ops) in script_strategy(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "hc3i-write-read-{}-{nodes}-{every_commit}-{}",
            std::process::id(),
            ops.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurableOptions {
            sync: if every_commit { SyncPolicy::EveryCommit } else { SyncPolicy::Manual },
            compact_bytes: None,
        };
        let mut writer = Writer {
            log: DurableStore::open(&dir, CheckpointCodec, opts).unwrap(),
            live: vec![(DeliveredRecord::new(), 0); nodes as usize],
            next_log_id: 0,
            passed: vec![(0, Stores::new())],
        };
        for (step, op) in ops.iter().enumerate() {
            writer.apply(op);
            let seen = storage::recover(&dir, &CheckpointCodec).unwrap();
            prop_assert!(seen.torn.is_none(), "step {}: a flush never tears a frame", step);
            let flush_point = matches!(op, Op::Sync | Op::Compact)
                || (every_commit && matches!(op, Op::Commit { .. }));
            if flush_point {
                check_current(&seen, &writer, &format!("step {step} ({op:?})"))?;
            } else {
                prop_assert!(
                    writer
                        .passed
                        .iter()
                        .any(|(frames, stores)| seen.frames == *frames && same(&seen.stores, stores)),
                    "step {} ({:?}): {} frames on disk are no state the writer passed through",
                    step, op, seen.frames
                );
            }
        }
        // Dropped without a `sync()`: the drop is itself a flush point, and
        // what it leaves is what a reopening writer resumes from.
        let Writer { log, passed, .. } = writer;
        let (frames, last) = passed.last().expect("never empty");
        drop(log);
        let seen = storage::recover(&dir, &CheckpointCodec).unwrap();
        prop_assert!(seen.torn.is_none());
        prop_assert_eq!(seen.frames, *frames, "after drop: frames");
        prop_assert!(same(&seen.stores, last), "after drop: stores");
        let reopened = DurableStore::open(&dir, CheckpointCodec, opts).unwrap();
        prop_assert!(same(reopened.stores(), last), "reopen");
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
