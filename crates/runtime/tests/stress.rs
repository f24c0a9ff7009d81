//! Sharded-runtime stress tests: many nodes multiplexed onto a fixed
//! worker pool, with heartbeat detection folded into shard ticks.
//!
//! The default-run test (64 nodes on 4 shards) is the regression floor
//! every `cargo test` exercises; the full-scale variants are `--ignored`:
//!
//! ```text
//! cargo test -p runtime --test stress -- --ignored --nocapture
//! ```
//!
//! The 2048-node variant is the ROADMAP "thousands of nodes" acceptance
//! check: it must complete on the default pool (`available_parallelism`
//! workers — on a 1-CPU machine that is a *single* shard thread driving
//! all 2048 engines).

use hc3i_core::{AppPayload, SeqNum};
use hc3i_types::NodeId;
use runtime::{Federation, HeartbeatConfig, RtEvent, RuntimeConfig};
use std::time::{Duration, Instant};

fn n(c: u16, r: u32) -> NodeId {
    NodeId::new(c, r)
}

/// Send `count` messages ring-wise across clusters starting at `tag0`;
/// wait until every one is delivered.
fn traffic_wave(fed: &Federation, clusters: usize, per_cluster: u32, tag0: u64, count: u64) {
    let mut expected = std::collections::HashSet::new();
    for k in 0..count {
        let tag = tag0 + k;
        let c = (k as usize % clusters) as u16;
        let r = (k as u32 / 7) % per_cluster;
        let to_c = ((c as usize + 1) % clusters) as u16;
        let to_r = (r + 3) % per_cluster;
        expected.insert(tag);
        fed.send_app(n(c, r), n(to_c, to_r), AppPayload { bytes: 256, tag });
    }
    let seen = fed
        .wait_for(Duration::from_secs(120), |e| {
            if let RtEvent::Delivered { payload, .. } = e {
                expected.remove(&payload.tag);
            }
            expected.is_empty()
        })
        .unwrap_or_else(|| {
            panic!(
                "wave at tag0={tag0}: {} of {count} messages undelivered: {:?}",
                expected.len(),
                expected.iter().take(8).collect::<Vec<_>>()
            )
        });
    assert!(!seen.is_empty());
}

/// The stress scenario at a given scale: saturate with cross-cluster
/// traffic, fail-stop a node and let the shard-tick heartbeat find it,
/// then verify the federation still works and every cluster is coherent.
fn waves_and_autonomous_recovery(
    clusters: usize,
    per_cluster: u32,
    wave: u64,
    shards: Option<usize>,
) {
    let t0 = Instant::now();
    let mut cfg = RuntimeConfig::manual(vec![per_cluster; clusters])
        .with_heartbeat(HeartbeatConfig::default());
    if let Some(s) = shards {
        cfg = cfg.with_shards(s);
    }
    let fed = Federation::spawn(cfg);

    // Wave 1: saturate the shard channels with cross-cluster traffic
    // (forces CLCs in every cluster via the CIC rule).
    traffic_wave(&fed, clusters, per_cluster, 0, wave);

    // Fail-stop one node and let the *heartbeat probes* find it — no
    // controller-driven detection here.
    let victim = n((clusters as u16).saturating_sub(2), 10 % per_cluster);
    fed.fail(victim);
    fed.wait_for(
        Duration::from_secs(60),
        |e| matches!(e, RtEvent::RolledBack { node, .. } if *node == victim),
    )
    .expect("heartbeat detection must roll the cluster back and revive the victim");

    // Let the rollback cascade finish cluster-wide before resuming
    // traffic: the victim's RolledBack event races its co-members'
    // rollbacks, and a send logged by a node that then rolls back is
    // (correctly) discarded as lost work.
    fed.quiesce(4, Duration::from_secs(60));

    // Wave 2: the federation still works end-to-end after recovery.
    traffic_wave(&fed, clusters, per_cluster, wave, wave);

    // Flush in-flight acks, then check cluster coherence at shutdown.
    let answered = fed.quiesce(4, Duration::from_secs(60));
    assert_eq!(answered, clusters * per_cluster as usize);
    let pool = fed.shards();
    let engines = fed.shutdown();
    for c in 0..clusters as u16 {
        let sn0 = engines[&n(c, 0)].sn();
        assert!(sn0 >= SeqNum(2), "cluster {c} never checkpointed");
        for r in 1..per_cluster {
            assert_eq!(engines[&n(c, r)].sn(), sn0, "cluster {c} incoherent");
            assert_eq!(engines[&n(c, r)].late_crossings(), 0);
        }
    }
    eprintln!(
        "stress: {} nodes on {} shard(s), {} messages, 1 autonomous recovery in {:.1?}",
        clusters * per_cluster as usize,
        pool,
        2 * wave,
        t0.elapsed()
    );
}

/// Default-run regression (reduced scale): 64 nodes multiplexed on a
/// 4-worker pool. The promoted floor of the old `--ignored`-only stress
/// test — every `cargo test` now pins the sharded executor under load.
#[test]
fn sixty_four_nodes_on_four_shards_recover_from_faults() {
    waves_and_autonomous_recovery(4, 16, 256, Some(4));
}

#[test]
#[ignore = "stress scale: 256 nodes; run explicitly"]
fn hundreds_of_nodes_with_heartbeat_recover_from_faults() {
    waves_and_autonomous_recovery(4, 64, 512, None);
}

/// North-star scale: a 2048-node federation on the default fixed pool
/// (≤ `available_parallelism` worker threads — thread-per-node would need
/// 2048 plus detectors).
#[test]
#[ignore = "stress scale: 2048 nodes; run explicitly"]
fn two_thousand_nodes_on_a_fixed_pool() {
    waves_and_autonomous_recovery(8, 256, 1024, None);
}

/// GC-heavy north-star scale: 128 clusters × 16 nodes, stores grown over
/// several wave+checkpoint rounds, then repeated federation-wide garbage
/// collections. This drives the zero-clone GC data plane — `Arc`-shared
/// `(SN, DDV)` stamp lists collected from 128 coordinators, the k-failure
/// minimum-SN analysis over all of them, and cluster-wide pruning — at a
/// scale where the old deep-clone-per-stamp collection was measurable.
/// Verified through [`Federation::report`], exercising the runtime report
/// surface at scale too.
#[test]
#[ignore = "stress scale: 2048 nodes, GC-heavy; run explicitly"]
fn gc_heavy_two_thousand_nodes() {
    const CLUSTERS: usize = 128;
    const PER: u32 = 16;
    const WAVE: u64 = 2048;
    const ROUNDS: u64 = 3;
    const GC_ROUNDS: usize = 2;
    let t0 = Instant::now();
    let fed = Federation::spawn(RuntimeConfig::manual(vec![PER; CLUSTERS]));

    // Grow every cluster's CLC store: cross-cluster waves force CLCs via
    // the CIC rule, and an explicit checkpoint per cluster per round adds
    // unforced ones on top.
    for round in 0..ROUNDS {
        traffic_wave(&fed, CLUSTERS, PER, round * WAVE, WAVE);
        for c in 0..CLUSTERS {
            fed.checkpoint_now(c);
        }
        let mut committed = std::collections::HashSet::new();
        fed.wait_for(Duration::from_secs(120), |e| {
            if let RtEvent::Committed { cluster, .. } = e {
                committed.insert(*cluster);
            }
            committed.len() == CLUSTERS
        })
        .expect("every cluster commits its explicit CLC");
    }

    // Repeated federation-wide collections: every round must report from
    // all 128 clusters.
    for _ in 0..GC_ROUNDS {
        fed.quiesce(4, Duration::from_secs(60));
        fed.gc_now();
        let mut reported = std::collections::HashSet::new();
        fed.wait_for(Duration::from_secs(120), |e| {
            if let RtEvent::GcReport { cluster, .. } = e {
                reported.insert(*cluster);
            }
            reported.len() == CLUSTERS
        })
        .expect("every cluster reports a GC round");
    }

    let answered = fed.quiesce(4, Duration::from_secs(60));
    assert_eq!(answered, CLUSTERS * PER as usize);
    let pool = fed.shards();
    let report = fed.report();
    assert_eq!(report.app_delivered, ROUNDS * WAVE);
    for (c, stats) in report.clusters.iter().enumerate() {
        assert_eq!(
            stats.gc_before_after.len(),
            GC_ROUNDS,
            "cluster {c} missed a GC round"
        );
        assert!(
            stats.unforced_clcs >= ROUNDS,
            "cluster {c} missed explicit checkpoints"
        );
        let (_, after) = *stats.gc_before_after.last().unwrap();
        assert!(
            after <= stats.peak_stored_clcs,
            "cluster {c}: GC never pruned below the peak"
        );
        assert!(stats.stored_clcs >= 1, "cluster {c} lost its latest CLC");
    }
    eprintln!(
        "gc stress: {} nodes on {} shard(s), {} messages, {} GC rounds in {:.1?}",
        CLUSTERS * PER as usize,
        pool,
        ROUNDS * WAVE,
        GC_ROUNDS,
        t0.elapsed()
    );
}
