//! Cross-shard channel contention: every shard worker hammers every other
//! shard's mailbox channel while the controller injects an all-to-all
//! traffic storm from outside.
//!
//! This is the workload the lock-free MPSC channel exists for: with the
//! old `Mutex<VecDeque>`+`Condvar` stand-in, each cross-shard `send`
//! serialized on the destination shard's lock, so a worker pool larger
//! than one degraded into lock convoys under all-to-all traffic. The
//! assertions are the channel contract the runtime builds on — every
//! message delivered **exactly once**, the federation coherent afterwards
//! — checked under deliberately oversubscribed concurrency (8 shard
//! workers regardless of the host's core count).
//!
//! The full-size storm is `--ignored` (run by CI's runtime-scale job):
//!
//! ```text
//! cargo test --release -p runtime --test channel_contention -- --ignored --nocapture
//! ```

use hc3i_core::AppPayload;
use hc3i_types::NodeId;
use runtime::{Federation, RtEvent, RuntimeConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// All-to-all storm: `msgs` messages fan out so consecutive sends target
/// *different* destination clusters (and thus, with whole clusters dealt
/// round-robin to shards, different shards), then every delivery is
/// awaited and counted. Panics on any lost or duplicated message.
fn all_to_all_storm(clusters: usize, per_cluster: u32, shards: usize, msgs: u64) {
    let t0 = Instant::now();
    let fed =
        Federation::spawn(RuntimeConfig::manual(vec![per_cluster; clusters]).with_shards(shards));

    for k in 0..msgs {
        let c = (k as usize % clusters) as u16;
        let r = (k as u32 / 11) % per_cluster;
        // Stride over all other clusters, not just the ring neighbour, so
        // every (shard, shard) pair carries traffic.
        let stride = 1 + (k as usize / clusters) % (clusters - 1);
        let to_c = ((c as usize + stride) % clusters) as u16;
        let to_r = (r + 5) % per_cluster;
        fed.send_app(
            NodeId::new(c, r),
            NodeId::new(to_c, to_r),
            AppPayload { bytes: 64, tag: k },
        );
    }

    let mut delivered: HashMap<u64, u32> = HashMap::with_capacity(msgs as usize);
    fed.wait_for(Duration::from_secs(180), |e| {
        if let RtEvent::Delivered { payload, .. } = e {
            *delivered.entry(payload.tag).or_insert(0) += 1;
        }
        delivered.len() as u64 == msgs
    })
    .unwrap_or_else(|| {
        panic!(
            "storm lost messages: {} of {msgs} delivered after timeout",
            delivered.len()
        )
    });

    // Flush protocol stragglers, then scan everything still in the event
    // stream for duplicate deliveries before shutting down.
    fed.quiesce(2, Duration::from_secs(30));
    for e in fed.drain_events() {
        if let RtEvent::Delivered { payload, .. } = e {
            *delivered.entry(payload.tag).or_insert(0) += 1;
        }
    }
    let dups: Vec<u64> = delivered
        .iter()
        .filter(|&(_, &n)| n != 1)
        .map(|(&tag, _)| tag)
        .collect();
    assert!(
        dups.is_empty(),
        "{} messages delivered more than once (first few: {:?})",
        dups.len(),
        &dups[..dups.len().min(8)]
    );
    fed.shutdown();
    eprintln!(
        "contention storm: {msgs} messages across {} nodes on {shards} shards, exactly-once, in {:.1?}",
        clusters * per_cluster as usize,
        t0.elapsed()
    );
}

/// Default-run floor: a small all-to-all storm on an oversubscribed pool,
/// so every `cargo test` exercises concurrent cross-shard sends.
#[test]
fn small_storm_is_exactly_once() {
    all_to_all_storm(4, 4, 4, 4_000);
}

/// The full contention storm: 128 nodes on 8 workers (oversubscribed on
/// most CI hosts — maximum interleaving), 100k messages, every (shard,
/// shard) pair loaded.
#[test]
#[ignore = "contention scale: 100k cross-shard messages; run explicitly"]
fn cross_shard_contention_storm_is_exactly_once() {
    all_to_all_storm(8, 16, 8, 100_000);
}
