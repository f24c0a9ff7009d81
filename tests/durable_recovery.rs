//! Durable checkpoint storage: a run mirrored to an on-disk segment log
//! must (a) leave the in-memory run fingerprint untouched, and (b) leave
//! a log that [`storage::recover`] rebuilds to exactly the engines' final
//! CLC stores — on both substrates, across commits, rollback truncations
//! and GC prunes.

use desim::{SimDuration, SimTime};
use hc3i::core::{AppPayload, CheckpointCodec, NodeCheckpoint, StoredCheckpoint};
use netsim::NodeId;
use simdriver::SimConfig;
use std::path::PathBuf;
use storage::ClcStore;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hc3i-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg(duration_min: u64) -> SimConfig {
    let topo = netsim::Topology::new(
        vec![
            netsim::ClusterSpec {
                nodes: 3,
                intra: netsim::LinkSpec::myrinet_like(),
            };
            2
        ],
        netsim::LinkSpec::ethernet_like(),
    );
    SimConfig::new(topo, SimDuration::from_minutes(duration_min))
}

/// A scenario exercising every durable frame type: timer CLCs (commits),
/// a mid-run fault (rollback truncations) and a GC (prunes).
fn busy_cfg() -> SimConfig {
    use workload::Workload;
    let sends = workload::TargetCountWorkload {
        cluster_sizes: vec![3, 3],
        duration: SimDuration::from_minutes(30),
        counts: vec![vec![40, 8], vec![8, 40]],
        payload_bytes: 256,
    }
    .schedule(&desim::RngStreams::new(99));
    small_cfg(30)
        .with_clc_delay(0, SimDuration::from_minutes(5))
        .with_clc_delay(1, SimDuration::from_minutes(7))
        .with_sends(sends)
        .with_fault(
            SimTime::ZERO + SimDuration::from_minutes(17),
            NodeId::new(0, 2),
        )
        .with_scripted_gc(SimTime::ZERO + SimDuration::from_minutes(25))
}

fn assert_chains_equal(
    what: &str,
    disk: &ClcStore<NodeCheckpoint>,
    mem: &ClcStore<StoredCheckpoint>,
) {
    assert_eq!(disk.len(), mem.len(), "{what}: chain length");
    for (d, m) in disk.iter().zip(mem.iter()) {
        assert_eq!(d.meta, m.meta, "{what}: CLC metadata");
        assert_eq!(d.payload, m.payload, "{what}: checkpoint payload");
    }
}

#[test]
fn durable_mode_leaves_the_run_fingerprint_untouched() {
    let dir = temp_dir("fingerprint");
    let plain = simdriver::run(busy_cfg());
    let durable = simdriver::run(busy_cfg().with_durable_dir(&dir));
    // The durability sink is observation-only: the full report — event
    // counts, byte counters, rollback times — must be bit-identical.
    assert_eq!(format!("{plain:?}"), format!("{durable:?}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulator_durable_log_recovers_every_node_chain() {
    let dir = temp_dir("sim-recover");
    let report = simdriver::run(busy_cfg().with_durable_dir(&dir));
    assert!(
        report.total_rollbacks() >= 1,
        "scenario exercises a rollback"
    );
    assert!(
        !report.clusters[0].gc_before_after.is_empty(),
        "scenario exercises a GC"
    );

    let image = storage::recover(&dir, &CheckpointCodec).expect("clean log recovers");
    assert!(
        image.torn.is_none(),
        "uninterrupted run leaves no torn tail"
    );
    assert_eq!(image.stores.len(), 6, "every node has a chain");

    // CLC stores are cluster-coherent, and after the run each store holds
    // exactly what the report counted for its cluster.
    for cluster in 0..2u64 {
        let base = cluster * 3;
        let expect = report.clusters[cluster as usize].stored_clcs;
        let sns: Vec<_> = image.stores[&base].iter().map(|e| e.meta.sn).collect();
        for rank in 0..3u64 {
            let chain = &image.stores[&(base + rank)];
            assert_eq!(chain.len(), expect, "cluster {cluster} rank {rank}");
            let theirs: Vec<_> = chain.iter().map(|e| e.meta.sn).collect();
            assert_eq!(theirs, sns, "cluster {cluster} chains are coherent");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runtime_durable_log_matches_shutdown_engines() {
    use runtime::{Federation, RtEvent, RuntimeConfig};
    use std::time::Duration;

    const TICK: Duration = Duration::from_secs(10);
    let dir = temp_dir("runtime-recover");
    let fed = Federation::spawn(
        RuntimeConfig::manual(vec![3, 3])
            .with_shards(2)
            .with_durable_dir(&dir),
    );
    let n = |c: u16, r: u32| NodeId::new(c, r);
    for (i, (from, to)) in [
        (n(0, 0), n(1, 1)),
        (n(0, 1), n(0, 2)),
        (n(1, 0), n(0, 0)),
        (n(1, 2), n(1, 0)),
    ]
    .into_iter()
    .enumerate()
    {
        fed.send_app(
            from,
            to,
            AppPayload {
                bytes: 512,
                tag: i as u64,
            },
        );
        fed.wait_for(
            TICK,
            |e| matches!(e, RtEvent::Delivered { payload, .. } if payload.tag == i as u64),
        )
        .expect("delivery");
    }
    for c in 0..2 {
        fed.checkpoint_now(c);
        fed.wait_for(
            TICK,
            |e| matches!(e, RtEvent::Committed { cluster, .. } if *cluster == c),
        )
        .expect("commit");
    }
    fed.gc_now();
    let mut reports = 0;
    fed.wait_for(TICK, |e| {
        if matches!(e, RtEvent::GcReport { .. }) {
            reports += 1;
        }
        reports == 2
    })
    .expect("gc reports");
    assert_eq!(fed.quiesce(4, TICK), 6, "barrier before freezing state");
    let engines = fed.shutdown();

    let image = storage::recover(&dir, &CheckpointCodec).expect("clean log recovers");
    assert!(image.torn.is_none());
    for c in 0..2u16 {
        for r in 0..3u32 {
            let gidx = (c as u64) * 3 + r as u64;
            let disk = &image.stores[&gidx];
            let mem = engines[&n(c, r)].store();
            assert_chains_equal(&format!("node ({c},{r})"), disk, mem);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a (64-bit) of every segment in `dir`, in name order.
fn segment_hashes(dir: &std::path::Path) -> Vec<(String, u64)> {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .expect("read durable dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    segs.sort();
    segs.iter()
        .map(|path| {
            let hash = std::fs::read(path)
                .expect("read segment")
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            let name = path.file_name().expect("segment name").to_string_lossy();
            (name.into_owned(), hash)
        })
        .collect()
}

/// The on-disk format over `CheckpointCodec`, pinned: the log a seeded
/// durable simulator run leaves (genesis snapshots, delta and full
/// commits, rollback truncations, GC prunes) and its compaction (snapshot
/// frames of whole chains). Both hashes were recorded at the commit before
/// the data path was rebuilt (PR 17); a change that moves one has changed
/// the format.
#[test]
fn simulator_segment_bytes_are_pinned() {
    let dir = temp_dir("format-pin");
    simdriver::run(busy_cfg().with_durable_dir(&dir));
    let pinned = |name: &str, hash: u64| [(name.to_string(), hash)];
    assert_eq!(
        segment_hashes(&dir),
        pinned("seg-00000000.log", 0x2abe_927f_6ce3_05ee)
    );
    let mut log = storage::DurableStore::open(&dir, CheckpointCodec, Default::default())
        .expect("reopen the run's log");
    log.compact().expect("compact");
    drop(log);
    assert_eq!(
        segment_hashes(&dir),
        pinned("seg-00000001.log", 0xc4fc_8eef_7864_171d)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Payload lengths of every frame in the segment at `path`: an 8-byte
/// segment magic, then `[len u32][crc u32][payload]` frames.
fn frame_lengths(path: &std::path::Path) -> Vec<usize> {
    let bytes = std::fs::read(path).expect("read segment");
    let (mut lens, mut at) = (Vec::new(), 8);
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        lens.push(len);
        at += 8 + len;
    }
    lens
}

/// The checksum bytes themselves, pinned. The run above writes no frame
/// of 128 B or more, so it never reaches the carry-less kernel's 64-byte
/// fold loop, and writer and reader share `crc32`: a wrong fold constant
/// would replay whole. This run's cross traffic, with no collection to
/// prune the chains, gives commit bodies and compaction snapshots of
/// well over 128 B, whose checksums the two hashes pin.
#[test]
fn simulator_segment_bytes_with_long_frames_are_pinned() {
    use workload::Workload;
    let sends = workload::TargetCountWorkload {
        cluster_sizes: vec![3, 3],
        duration: SimDuration::from_minutes(30),
        counts: vec![vec![60, 150], vec![150, 60]],
        payload_bytes: 256,
    }
    .schedule(&desim::RngStreams::new(7));
    let cfg = small_cfg(30)
        .with_clc_delay(0, SimDuration::from_minutes(5))
        .with_clc_delay(1, SimDuration::from_minutes(7))
        .with_sends(sends)
        .with_fault(
            SimTime::ZERO + SimDuration::from_minutes(17),
            NodeId::new(1, 1),
        );
    let dir = temp_dir("format-pin-long");
    simdriver::run(cfg.with_durable_dir(&dir));
    let longest = |seg: &str| frame_lengths(&dir.join(seg)).into_iter().max().unwrap_or(0);
    assert!(
        longest("seg-00000000.log") >= 128,
        "a commit frame reaches the fold loop"
    );
    let pinned = |name: &str, hash: u64| [(name.to_string(), hash)];
    assert_eq!(
        segment_hashes(&dir),
        pinned("seg-00000000.log", 0xfee4_684e_483b_0778)
    );
    let mut log = storage::DurableStore::open(&dir, CheckpointCodec, Default::default())
        .expect("reopen the run's log");
    log.compact().expect("compact");
    drop(log);
    assert!(
        longest("seg-00000001.log") >= 128,
        "a snapshot frame reaches the fold loop"
    );
    assert_eq!(
        segment_hashes(&dir),
        pinned("seg-00000001.log", 0xe083_f302_b9b1_35a0)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash-equivalence: any durable prefix of the log (what survives a hard
/// kill after the last completed fsync) recovers to a prefix-consistent
/// image — never an error, never a chain the full run didn't have. Uses a
/// fault-free, GC-free run: with only commit frames the chains grow
/// monotonically, so "prefix of the log" means "prefix of every final
/// chain" exactly. (Runs with truncate/prune frames recover to an older
/// *historic* state instead; tests/crash_consistency.rs sweeps those.)
#[test]
fn truncated_log_recovers_to_a_prefix_of_the_full_image() {
    use workload::Workload;
    let sends = workload::TargetCountWorkload {
        cluster_sizes: vec![3, 3],
        duration: SimDuration::from_minutes(30),
        counts: vec![vec![40, 8], vec![8, 40]],
        payload_bytes: 256,
    }
    .schedule(&desim::RngStreams::new(99));
    let cfg = small_cfg(30)
        .with_clc_delay(0, SimDuration::from_minutes(5))
        .with_clc_delay(1, SimDuration::from_minutes(7))
        .with_sends(sends);
    let dir = temp_dir("truncate-prefix");
    simdriver::run(cfg.with_durable_dir(&dir));
    let full = storage::recover(&dir, &CheckpointCodec).expect("clean log recovers");

    let seg = dir.join("seg-00000000.log");
    let bytes = std::fs::read(&seg).expect("read segment");
    let cut_dir = temp_dir("truncate-prefix-cut");
    std::fs::create_dir_all(&cut_dir).expect("mkdir");
    // Sampled cuts (the exhaustive per-byte sweep lives in
    // tests/crash_consistency.rs): every 97th byte plus both ends.
    let cuts: Vec<usize> = (0..bytes.len()).step_by(97).chain([bytes.len()]).collect();
    for cut in cuts {
        std::fs::write(cut_dir.join("seg-00000000.log"), &bytes[..cut]).expect("write cut");
        let image = storage::recover(&cut_dir, &CheckpointCodec)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery must succeed, got {e}"));
        for (node, chain) in image.stores.iter() {
            let reference = &full.stores[node];
            assert!(
                chain.len() <= reference.len(),
                "cut at {cut}: node {node} chain longer than the full run's"
            );
            for (mine, theirs) in chain.iter().zip(reference.iter()) {
                assert_eq!(mine.meta, theirs.meta, "cut at {cut}: node {node}");
                assert_eq!(mine.payload, theirs.payload, "cut at {cut}: node {node}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}

/// The 2048-node image the bench recovers, verified end-to-end (slow —
/// run with `--ignored`; the `crash-consistency` CI job includes it).
#[test]
#[ignore = "2048-node image: slow; run explicitly or via the crash-consistency CI job"]
fn recovery_at_federation_scale() {
    let topo = netsim::Topology::new(
        vec![
            netsim::ClusterSpec {
                nodes: 16,
                intra: netsim::LinkSpec::myrinet_like(),
            };
            128
        ],
        netsim::LinkSpec::ethernet_like(),
    );
    let mut cfg = SimConfig::new(topo, SimDuration::from_minutes(30));
    for c in 0..128 {
        cfg = cfg.with_clc_delay(c, SimDuration::from_minutes(7));
    }
    let dir = temp_dir("federation-scale");
    let report = simdriver::run(cfg.with_durable_dir(&dir));
    let image = storage::recover(&dir, &CheckpointCodec).expect("clean log recovers");
    assert_eq!(image.stores.len(), 2048);
    for c in 0..128u64 {
        let expect = report.clusters[c as usize].stored_clcs;
        for r in 0..16u64 {
            assert_eq!(image.stores[&(c * 16 + r)].len(), expect);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
