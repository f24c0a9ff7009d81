//! Crash-consistency fuzz over committed segment images.
//!
//! The durability contract (see `storage::durable`) promises that a
//! damaged segment log **recovers or errors — never panics, never
//! silently yields a wrong chain**: framing damage in the final segment
//! is a torn write (discarded, recovery succeeds), anything else is
//! [`storage::DurableError::Corrupt`]. This suite pins that contract on
//! real images — `CheckpointCodec` payloads produced by durable
//! simulator runs exercising commits, rollback truncations and GC prunes
//! — with an exhaustive byte-truncation sweep and seeded bit-flip fuzz,
//! on single- and multi-segment logs.

use desim::{SimDuration, SimTime};
use hc3i::core::CheckpointCodec;
use netsim::NodeId;
use simdriver::SimConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use storage::{DurableOptions, DurableStore, Recovered};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hc3i-crashfuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable simulator run exercising every frame type: genesis
/// snapshots, timer commits, a rollback truncation and a GC prune.
fn build_sim_image(dir: &Path) {
    use workload::Workload;
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
    let sends = workload::TargetCountWorkload {
        cluster_sizes: vec![3, 3],
        duration: SimDuration::from_minutes(15),
        counts: vec![vec![20, 6], vec![6, 20]],
        payload_bytes: 256,
    }
    .schedule(&desim::RngStreams::new(424242));
    let cfg = SimConfig::new(topo, SimDuration::from_minutes(15))
        .with_clc_delay(0, SimDuration::from_minutes(3))
        .with_clc_delay(1, SimDuration::from_minutes(4))
        .with_sends(sends)
        .with_fault(
            SimTime::ZERO + SimDuration::from_minutes(8),
            NodeId::new(1, 1),
        )
        .with_scripted_gc(SimTime::ZERO + SimDuration::from_minutes(13))
        .with_durable_dir(dir);
    let report = simdriver::run(cfg);
    assert!(report.total_rollbacks() >= 1, "image holds truncate frames");
}

/// Recovery under `catch_unwind`: the contract is recover-or-error, so a
/// panic is a failure wherever the damage sits.
fn recover_must_not_panic(dir: &Path, what: &str) -> Result<Recovered<CheckpointCodec>, String> {
    catch_unwind(AssertUnwindSafe(|| storage::recover(dir, &CheckpointCodec)))
        .unwrap_or_else(|_| panic!("{what}: recovery panicked"))
        .map_err(|e| e.to_string())
}

/// Chains must be internally sane however the image was damaged: strictly
/// increasing SNs with monotone DDVs (what `ClcStore::commit` asserts —
/// recovery validates *before* committing, so damage surfaces as an
/// error, not a panic or an incoherent chain).
fn assert_chains_sane(image: &Recovered<CheckpointCodec>, what: &str) {
    for (node, chain) in image.stores.iter() {
        let mut prev: Option<&storage::ClcMeta> = None;
        for e in chain.iter() {
            if let Some(p) = prev {
                assert!(p.sn < e.meta.sn, "{what}: node {node} SNs not increasing");
                assert!(
                    p.ddv.dominated_by(&e.meta.ddv),
                    "{what}: node {node} DDVs not monotone"
                );
            }
            prev = Some(&e.meta);
        }
    }
}

#[test]
fn every_truncation_point_of_a_committed_image_recovers() {
    let dir = temp_dir("truncate");
    build_sim_image(&dir);
    let bytes = std::fs::read(dir.join("seg-00000000.log")).expect("read segment");
    let full = storage::recover(&dir, &CheckpointCodec).expect("clean image recovers");

    let cut_dir = temp_dir("truncate-cut");
    std::fs::create_dir_all(&cut_dir).expect("mkdir");
    let seg = cut_dir.join("seg-00000000.log");
    for cut in 0..=bytes.len() {
        std::fs::write(&seg, &bytes[..cut]).expect("write cut");
        // Truncation only ever removes tail frames of the final segment:
        // that is precisely a torn write, so recovery must *succeed* at
        // every single byte position.
        let image = recover_must_not_panic(&cut_dir, &format!("cut at {cut}"))
            .unwrap_or_else(|e| panic!("cut at {cut}: expected recovery, got {e}"));
        assert_chains_sane(&image, &format!("cut at {cut}"));
        assert!(
            image.frames <= full.frames,
            "cut at {cut}: more frames than the intact image"
        );
        if cut < bytes.len() {
            assert!(
                image.torn.is_some() || image.frames < full.frames,
                "cut at {cut}: shortened image replayed the full frame count with no torn tail"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}

/// Deterministic xorshift64* for the flip schedule.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn seeded_bit_flips_recover_or_error_never_panic() {
    let dir = temp_dir("bitflip");
    build_sim_image(&dir);
    let bytes = std::fs::read(dir.join("seg-00000000.log")).expect("read segment");

    let flip_dir = temp_dir("bitflip-cut");
    std::fs::create_dir_all(&flip_dir).expect("mkdir");
    let seg = flip_dir.join("seg-00000000.log");
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut recovered = 0u32;
    let mut errored = 0u32;
    for _ in 0..2000 {
        let pos = (rng.next() % bytes.len() as u64) as usize;
        let bit = (rng.next() % 8) as u8;
        let mut damaged = bytes.clone();
        damaged[pos] ^= 1 << bit;
        std::fs::write(&seg, &damaged).expect("write flip");
        let what = format!("flip bit {bit} of byte {pos}");
        match recover_must_not_panic(&flip_dir, &what) {
            Ok(image) => {
                assert_chains_sane(&image, &what);
                recovered += 1;
            }
            Err(_) => errored += 1,
        }
    }
    // Both outcomes must actually occur over 2000 flips: the torn-tail
    // path (framing damage in the final segment) and the corruption path
    // (e.g. a flipped byte that survives framing but fails validation).
    assert!(recovered > 0, "no flip took the torn-tail recovery path");
    assert!(
        recovered + errored == 2000,
        "accounting: {recovered} + {errored}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&flip_dir);
}

/// Fuzz a *multi-segment* log: damage in a non-final segment must
/// surface as an error, and truncating the final segment must still
/// recover. Steady-state logs are single-segment (compaction deletes
/// what it replaces), so a multi-segment directory is exactly the state
/// a crash *during* compaction leaves behind — a prefix of old segments
/// plus the complete, fsync-ed snapshot segment. Build that state by
/// stashing the old segment across a manual [`DurableStore::compact`].
#[test]
fn multi_segment_images_recover_or_error_at_every_damage_site() {
    let multi_dir = temp_dir("multiseg");
    build_sim_image(&multi_dir);
    let source = storage::recover(&multi_dir, &CheckpointCodec).expect("clean image recovers");
    let old_seg = multi_dir.join("seg-00000000.log");
    let old_bytes = std::fs::read(&old_seg).expect("read old segment");
    {
        let mut log = DurableStore::open(&multi_dir, CheckpointCodec, DurableOptions::default())
            .expect("reopen log");
        log.compact().expect("manual compaction");
    }
    // The crash-mid-compaction state: the snapshot segment exists and is
    // durable, the old segment was never deleted.
    std::fs::write(&old_seg, &old_bytes).expect("restore old segment");
    let segments = vec![old_seg, multi_dir.join("seg-00000001.log")];
    for seg in &segments {
        assert!(seg.is_file(), "{} exists", seg.display());
    }
    let full = storage::recover(&multi_dir, &CheckpointCodec).expect("multi-segment recovers");
    assert_eq!(full.segments, 2, "image spans two segments");
    for (node, chain) in source.stores.iter() {
        // The snapshot *replaces* whatever the old segment replayed, so
        // the recovered chains equal the pre-compaction state exactly.
        let rebuilt = &full.stores[node];
        assert_eq!(rebuilt.len(), chain.len(), "node {node} chain survives");
        for (a, b) in rebuilt.iter().zip(chain.iter()) {
            assert_eq!(a.meta, b.meta, "node {node} chain survives");
            assert_eq!(a.payload, b.payload, "node {node} chain survives");
        }
    }

    // Truncating the *final* segment is a torn tail: always recovers.
    let last = segments.last().expect("at least one segment").clone();
    let tail_bytes = std::fs::read(&last).expect("read final segment");
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    for _ in 0..64 {
        let cut = (rng.next() % (tail_bytes.len() as u64 + 1)) as usize;
        std::fs::write(&last, &tail_bytes[..cut]).expect("write cut");
        let what = format!("final-segment cut at {cut}");
        let image = recover_must_not_panic(&multi_dir, &what)
            .unwrap_or_else(|e| panic!("{what}: expected recovery, got {e}"));
        assert_chains_sane(&image, &what);
    }
    std::fs::write(&last, &tail_bytes).expect("restore final segment");

    // Bit flips across *every* segment: recover-or-error, never panic;
    // flips that corrupt a non-final segment must error (a tear there is
    // not a tail).
    let mut nonfinal_errors = 0u32;
    for (i, seg) in segments.iter().enumerate() {
        let bytes = std::fs::read(seg).expect("read segment");
        for _ in 0..200 {
            let pos = (rng.next() % bytes.len() as u64) as usize;
            let bit = (rng.next() % 8) as u8;
            let mut damaged = bytes.clone();
            damaged[pos] ^= 1 << bit;
            std::fs::write(seg, &damaged).expect("write flip");
            let what = format!("segment {i} flip bit {bit} of byte {pos}");
            match recover_must_not_panic(&multi_dir, &what) {
                Ok(image) => {
                    assert!(
                        i == segments.len() - 1,
                        "{what}: damage in a non-final segment must not recover"
                    );
                    assert_chains_sane(&image, &what);
                }
                Err(_) => {
                    if i < segments.len() - 1 {
                        nonfinal_errors += 1;
                    }
                }
            }
        }
        std::fs::write(seg, &bytes).expect("restore segment");
    }
    assert!(
        nonfinal_errors > 0,
        "no flip exercised the non-final corruption path"
    );
    let _ = std::fs::remove_dir_all(&multi_dir);
}
