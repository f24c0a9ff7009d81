//! Integration tests: the HC3I protocol on the threaded messaging layer.
//!
//! Same state machine as the simulator, real concurrency: these tests
//! exercise delivery, forced CLCs, rollback with log replay, duplicate
//! suppression and GC over OS threads and channels.

use hc3i_core::{AppPayload, PiggybackMode, ProtocolConfig, SeqNum};
use hc3i_types::NodeId;
use runtime::{Federation, RtEvent, RuntimeConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_secs(5);

fn n(c: u16, r: u32) -> NodeId {
    NodeId::new(c, r)
}

fn pay(tag: u64) -> AppPayload {
    AppPayload { bytes: 512, tag }
}

#[test]
fn intra_cluster_delivery() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![2, 2]));
    fed.send_app(n(0, 0), n(0, 1), pay(7));
    let seen = fed
        .wait_for(
            TICK,
            |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == 7),
        )
        .expect("delivery");
    assert!(seen
        .iter()
        .all(|e| !matches!(e, RtEvent::LateCrossing { .. })));
    fed.shutdown();
}

#[test]
fn manual_checkpoint_commits_cluster_wide() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![3, 2]));
    fed.checkpoint_now(0);
    fed.wait_for(TICK, |e| {
        matches!(
            e,
            RtEvent::Committed {
                cluster: 0,
                sn,
                forced: false
            } if *sn == SeqNum(2)
        )
    })
    .expect("commit");
    let engines = fed.shutdown();
    for r in 0..3 {
        assert_eq!(engines[&n(0, r)].sn(), SeqNum(2));
        assert_eq!(engines[&n(0, r)].store().len(), 2);
    }
    assert_eq!(engines[&n(1, 0)].sn(), SeqNum(1), "cluster 1 untouched");
}

#[test]
fn inter_cluster_message_forces_clc_and_acks() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![2, 2]));
    fed.send_app(n(0, 0), n(1, 1), pay(9));
    // The forced CLC commits before the deferred delivery, but the two
    // events come from different nodes — accept either arrival order.
    let (mut committed, mut delivered) = (false, false);
    fed.wait_for(TICK, |e| {
        committed |= matches!(
            e,
            RtEvent::Committed {
                cluster: 1,
                forced: true,
                ..
            }
        );
        delivered |= matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == 9);
        committed && delivered
    })
    .expect("forced CLC committed and message delivered");
    // Let the ack (delivery → sender-log update) land before freezing.
    fed.quiesce(2, TICK);
    let engines = fed.shutdown();
    assert_eq!(engines[&n(1, 1)].sn(), SeqNum(2), "forced CLC committed");
    assert_eq!(engines[&n(1, 1)].ddv().get(0), SeqNum(1));
    let log = engines[&n(0, 0)].log();
    assert_eq!(log.len(), 1);
    assert_eq!(
        log.iter().next().unwrap().ack_sn,
        Some(SeqNum(2)),
        "ack flowed back to the sender log"
    );
}

#[test]
fn periodic_timer_checkpoints() {
    let fed = Federation::spawn(
        RuntimeConfig::manual(vec![2, 2]).with_clc_delay(0, Duration::from_millis(50)),
    );
    // Expect at least 3 timer-driven commits within a second.
    let mut commits = 0;
    let ok = fed.wait_for(TICK, |e| {
        if matches!(
            e,
            RtEvent::Committed {
                cluster: 0,
                forced: false,
                ..
            }
        ) {
            commits += 1;
        }
        commits >= 3
    });
    assert!(ok.is_some(), "saw {commits} commits");
    fed.shutdown();
}

#[test]
fn receiver_fault_replays_from_sender_log() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![2, 3]));
    fed.send_app(n(0, 0), n(1, 2), pay(5));
    fed.wait_for(
        TICK,
        |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == 5),
    )
    .expect("first delivery");
    // Fail a cluster-1 node; the cluster restores its forced CLC, whose
    // state predates the delivery; the sender must replay tag 5.
    fed.fail(n(1, 1));
    fed.detect(n(1, 0), 1);
    fed.wait_for(TICK, |e| {
        matches!(e, RtEvent::Delivered { payload, to, .. }
            if payload.tag == 5 && *to == n(1, 2))
    })
    .expect("replayed delivery");
    let engines = fed.shutdown();
    assert!(!engines[&n(1, 1)].is_failed(), "revived");
    assert_eq!(
        engines[&n(0, 0)].sn(),
        SeqNum(1),
        "sender never rolled back"
    );
}

#[test]
fn sender_fault_cascades_receiver_rollback() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![2, 2]));
    fed.send_app(n(0, 0), n(1, 0), pay(3));
    fed.wait_for(
        TICK,
        |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == 3),
    )
    .expect("delivery");
    fed.fail(n(0, 1));
    fed.detect(n(0, 0), 1);
    // Both clusters must report rollbacks: cluster 0 restores SN 1 (losing
    // the send); cluster 1 restores its forced CLC 2 — the checkpoint that
    // *recorded* the dependency committed before the ghost was delivered,
    // so its state is clean.
    fed.wait_for(TICK, |e| {
        matches!(e, RtEvent::RolledBack { node, restore_sn, .. }
            if node.cluster.0 == 1 && *restore_sn == SeqNum(2))
    })
    .expect("receiver cascade");
    let engines = fed.shutdown();
    assert_eq!(engines[&n(1, 0)].sn(), SeqNum(2));
    assert_eq!(engines[&n(1, 0)].ddv().get(0), SeqNum(1), "stamp survives");
    assert!(
        engines[&n(1, 0)]
            .store()
            .latest()
            .unwrap()
            .payload
            .delivered()
            .is_empty(),
        "the ghost delivery is gone from the restored state"
    );
    assert!(engines[&n(0, 0)].log().is_empty(), "lost send de-logged");
}

#[test]
fn a_rollback_reports_the_work_it_lost() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![2, 2]));
    fed.checkpoint_now(0);
    fed.wait_for(
        TICK,
        |e| matches!(e, RtEvent::Committed { cluster: 0, sn, .. } if *sn == SeqNum(2)),
    )
    .expect("commit");
    // Work the rollback will lose: at least this pause.
    let pause = Duration::from_millis(20);
    std::thread::sleep(pause);
    fed.fail(n(0, 1));
    fed.detect(n(0, 0), 1);
    let seen = fed
        .wait_for(
            TICK,
            |e| matches!(e, RtEvent::RolledBack { node, .. } if *node == n(0, 0)),
        )
        .expect("rollback");
    let Some(&RtEvent::RolledBack {
        restore_sn,
        committed_at,
        ..
    }) = seen.last()
    else {
        unreachable!("wait_for returns the match last")
    };
    assert_eq!(restore_sn, SeqNum(2));
    let report = fed.report();
    let stats = &report.clusters[0];
    let (rolled_back_at, _, _) = stats.rollbacks[0];
    assert_eq!(stats.work_lost, [rolled_back_at - committed_at]);
    assert!(stats.work_lost[0].nanos() >= pause.as_nanos() as u64);
}

#[test]
fn gc_prunes_across_threads() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![2, 2]));
    // Sequence the checkpoints: back-to-back requests would coalesce into
    // a single 2PC round at the coordinator.
    for k in 2..=5u64 {
        for cluster in 0..2usize {
            fed.checkpoint_now(cluster);
            fed.wait_for(TICK, |e| {
                matches!(e, RtEvent::Committed { cluster: c, sn, .. }
                    if *c == cluster && *sn == SeqNum(k))
            })
            .expect("sequenced commit");
        }
    }
    fed.gc_now();
    let mut reports = 0;
    fed.wait_for(TICK, |e| {
        if matches!(e, RtEvent::GcReport { .. }) {
            reports += 1;
        }
        reports == 2
    })
    .expect("both clusters report");
    let engines = fed.shutdown();
    assert_eq!(
        engines[&n(0, 1)].store().len(),
        1,
        "independent: keep latest"
    );
    assert_eq!(engines[&n(1, 1)].store().len(), 1);
}

#[test]
fn concurrent_traffic_is_fully_delivered() {
    let fed = Federation::spawn(
        RuntimeConfig::manual(vec![4, 4])
            .with_protocol(ProtocolConfig::new(vec![4, 4]).with_piggyback(PiggybackMode::FullDdv)),
    );
    let total = 200u64;
    for k in 0..total {
        let from = n((k % 2) as u16, (k % 4) as u32);
        let to = n(((k + 1) % 2) as u16, ((k + 1) % 4) as u32);
        fed.send_app(from, to, pay(1000 + k));
    }
    let mut delivered = 0;
    let ok = fed.wait_for(Duration::from_secs(20), |e| {
        if matches!(e, RtEvent::Delivered { payload, .. } if payload.tag >= 1000) {
            delivered += 1;
        }
        delivered == total
    });
    assert!(ok.is_some(), "delivered {delivered}/{total}");
    let seen = fed.drain_events();
    assert!(seen
        .iter()
        .all(|e| !matches!(e, RtEvent::LateCrossing { .. })));
    fed.shutdown();
}

#[test]
fn duplicate_suppression_under_replay_race() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![2, 2]));
    // Prime a dependency and ack.
    fed.send_app(n(0, 0), n(1, 0), pay(1));
    fed.wait_for(
        TICK,
        |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == 1),
    )
    .expect("delivery");
    // Fail/restore the receiver twice in a row; every alert triggers a
    // replay of the same log entry — the receiver must deliver it at most
    // once per restored state.
    for _ in 0..2 {
        fed.fail(n(1, 1));
        fed.detect(n(1, 0), 1);
        fed.wait_for(
            TICK,
            |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == 1),
        )
        .expect("replay after rollback");
    }
    let engines = fed.shutdown();
    // Delivered exactly once in the final state.
    assert_eq!(engines[&n(1, 0)].sn(), SeqNum(2));
}

/// Per-pair FIFO across the local/remote split. Cluster `c` lives whole
/// on shard `c % shards` (the documented placement), so with
/// `CLUSTERS` clusters every request of 1, 2, 3 and 8 shards is granted.
/// Each sender reaches a peer of its own cluster through its worker's run
/// queue and a node of the next cluster — on another shard unless there
/// is only one — through a channel. Whatever path a directed pair takes,
/// it takes for the whole run: each pair's tags arrive in send order,
/// and every tag exactly once.
#[test]
fn per_pair_fifo_holds_across_the_run_queue_and_the_channels() {
    const CLUSTERS: u16 = 8;
    const PER_SENDER: u64 = 500;
    for shards in [1usize, 2, 3, 8] {
        let fed = Federation::spawn(
            RuntimeConfig::manual(vec![2; CLUSTERS as usize]).with_shards(shards),
        );
        assert_eq!(fed.shards(), shards);
        // Rank 0 of every cluster sends to its own rank 1 and to the next
        // cluster's rank 1, interleaved.
        let mut pairs = Vec::new();
        for c in 0..CLUSTERS {
            pairs.push((n(c, 0), n(c, 1)));
            pairs.push((n(c, 0), n((c + 1) % CLUSTERS, 1)));
        }
        for k in 0..PER_SENDER {
            for (p, &(from, to)) in pairs.iter().enumerate() {
                fed.send_app(from, to, pay(p as u64 * PER_SENDER + k));
            }
        }
        let total = pairs.len() as u64 * PER_SENDER;
        let mut last: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        let mut delivered = 0;
        fed.wait_for(Duration::from_secs(30), |e| {
            if let RtEvent::Delivered { to, from, payload } = e {
                if let Some(prev) = last.insert((*from, *to), payload.tag) {
                    assert!(
                        prev < payload.tag,
                        "{shards} shards: {from} -> {to} delivered tag {} after {prev}",
                        payload.tag
                    );
                }
                delivered += 1;
            }
            delivered == total
        })
        .unwrap_or_else(|| panic!("{shards} shards: {delivered} delivered"));
        // Strictly increasing per pair and the full count: each tag once.
        assert_eq!(last.len(), pairs.len(), "every pair delivered");
        fed.quiesce(2, TICK);
        assert!(
            fed.drain_events()
                .iter()
                .all(|e| !matches!(e, RtEvent::Delivered { .. })),
            "{shards} shards: a duplicate delivery"
        );
        fed.shutdown();
    }
}

/// One ping round is a barrier for everything a shard does by itself: on
/// one shard, when `quiesce(1)` returns, every consequence of the sends
/// routed before it has been processed — an intra-cluster hop, and an
/// inter-cluster one with the CLC it forces on 128 nodes (request, ack,
/// commit and fragment fan-outs), its deferred delivery and its ack. The
/// chains went through the run queue ahead of the pings, not onto the
/// channel behind them.
#[test]
fn one_quiesce_round_flushes_every_same_shard_consequence() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![128, 2]).with_shards(1));
    fed.send_app(n(0, 0), n(0, 1), pay(7));
    fed.send_app(n(1, 0), n(0, 5), pay(9));
    assert_eq!(fed.quiesce(1, TICK), 130);
    let seen = fed.drain_events();
    for tag in [7, 9] {
        assert!(
            seen.iter()
                .any(|e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == tag)),
            "tag {tag} not flushed by the barrier: {seen:?}"
        );
    }
    let engines = fed.shutdown();
    let ack = engines[&n(1, 0)].log().iter().next().unwrap().ack_sn;
    assert_eq!(ack, Some(SeqNum(2)), "the ack is part of the chain");
}

/// `Duration::MAX` means "wait forever", not `Instant` overflow.
#[test]
fn an_unbounded_timeout_waits_instead_of_panicking() {
    let fed = Federation::spawn(RuntimeConfig::manual(vec![2, 2]).with_shards(1));
    fed.checkpoint_now(0);
    let ev = fed.next_event(Duration::MAX).expect("an event");
    assert!(
        matches!(ev, RtEvent::Committed { cluster: 0, .. }),
        "{ev:?}"
    );
    fed.checkpoint_now(1);
    fed.wait_for(Duration::MAX, |e| {
        matches!(e, RtEvent::Committed { cluster: 1, .. })
    })
    .expect("commit");
    assert_eq!(fed.quiesce(1, Duration::MAX), 4);
    fed.shutdown();
}

/// A barrier counts the live nodes: with one node fail-stopped and no
/// heartbeat to revive it, every shard still answers, and the count leaves
/// the failed node out — without waiting out the timeout, at one shard
/// and at two.
#[test]
fn a_quiesce_counts_the_live_nodes_around_a_failed_one() {
    for shards in [1, 2] {
        let fed = Federation::spawn(RuntimeConfig::manual(vec![2, 2]).with_shards(shards));
        fed.fail(n(1, 1));
        let start = Instant::now();
        assert_eq!(fed.quiesce(1, TICK), 3, "{shards} shards");
        assert!(
            start.elapsed() < TICK,
            "{shards} shards: the barrier timed out"
        );
        let engines = fed.shutdown();
        assert!(engines[&n(1, 1)].is_failed(), "{shards} shards");
    }
}
