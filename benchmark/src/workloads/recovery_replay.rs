//! `recovery_replay`: one `storage::recover` over the segment log a
//! durable federation of 128 clusters x 16 nodes leaves behind after a
//! run of CLCs per node — built as `hc3i_baselines::build_recovery_image`
//! builds it (growing delivery records, ring-dependent DDVs, one channel
//! message per checkpoint, `SyncPolicy::Manual`), payload tags and sizes
//! from the seed. The page cache is warm: the image was just written.
//!
//! The same layer as `durable_commit`, read instead of written: a frame
//! format or batching change that speeds commits and slows recovery, or
//! grows the bytes on disk, shows here.

use super::Region;
use crate::host::Who;
use crate::rep::{dir_bytes, RepCtx, RepOut, Scale};
use crate::trace;
use desim::SimTime;
use hc3i_core::{AppPayload, CheckpointCodec, Ddv, DeliveredRecord, NodeCheckpoint, SeqNum};
use netsim::{Mix64, NodeId};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use storage::{ClcMeta, DurableOptions, DurableStore, SyncPolicy};

/// `(clusters, nodes per cluster, CLCs per node)`.
fn shape(scale: Scale) -> (usize, u64, u64) {
    scale.pick((128, 16, 64), (16, 16, 16), (4, 4, 4))
}

/// The checkpoint node `(c, r)` commits as its `k`-th.
pub(crate) fn checkpoint(
    rng: &mut Mix64,
    clusters: usize,
    nodes: u64,
    (c, r, k): (u64, u64, u64),
    delivered: &mut DeliveredRecord,
) -> (ClcMeta, NodeCheckpoint) {
    // One new inter-cluster delivery per CLC, so the v2 delta codec sees
    // the growing-record shape real runs produce.
    delivered.insert(
        (
            NodeId::new(((c as usize + 1) % clusters) as u16, r as u32),
            k,
        ),
        SeqNum(k),
    );
    let mut ddv = Ddv::zeros(clusters);
    ddv.set(c as usize, SeqNum(k));
    ddv.set(
        (c as usize + clusters - 1) % clusters,
        SeqNum(k.saturating_sub(1)),
    );
    let meta = ClcMeta {
        sn: SeqNum(k),
        ddv: Arc::new(ddv),
        committed_at: SimTime(k),
        forced: false,
    };
    let payload = NodeCheckpoint {
        delivered: delivered.clone(),
        channel_state: vec![(
            NodeId::new(c as u16, ((r + 1) % nodes) as u32),
            AppPayload {
                bytes: 64 + rng.below(960),
                tag: rng.next_u64() >> 16,
            },
        )],
        app_state: None,
    };
    (meta, payload)
}

/// Write the image; returns the entries appended.
fn build_image(dir: &Path, seed: u64, scale: Scale) -> u64 {
    let (clusters, nodes, clcs) = shape(scale);
    let opts = DurableOptions {
        sync: SyncPolicy::Manual,
        compact_bytes: None,
    };
    let mut log = DurableStore::open(dir, CheckpointCodec, opts).expect("open image dir");
    let mut rng = Mix64::new(seed ^ 0x5245_434f);
    for c in 0..clusters as u64 {
        for r in 0..nodes {
            let mut delivered = DeliveredRecord::new();
            for k in 1..=clcs {
                let (meta, payload) =
                    checkpoint(&mut rng, clusters, nodes, (c, r, k), &mut delivered);
                log.append_commit(c * nodes + r, &meta, &payload)
                    .expect("append CLC");
            }
        }
    }
    log.sync().expect("sync image");
    clusters as u64 * nodes * clcs
}

/// One rep.
pub fn rep(ctx: &RepCtx, _phase: &str) -> RepOut {
    let mut out = RepOut::default();
    let image_dir = ctx.dir.join("image");
    if ctx.traced {
        trace::start();
    }
    let root = trace::span("harness", "recovery_replay");

    // setup_s: the image build.
    let t_setup = Instant::now();
    let appended = trace::in_span("storage", "build_image", || {
        build_image(&image_dir, ctx.seed, ctx.scale)
    });
    out.put("setup_s", t_setup.elapsed().as_secs_f64());
    let disk_bytes = dir_bytes(&image_dir);

    let region = Region::begin(Who::Myself, ctx.traced);
    let recovered = trace::in_span("storage", "recover", || {
        storage::recover(&image_dir, &CheckpointCodec)
    });
    region.end(&mut out, appended);
    let wall = out.get("wall_s").expect("region recorded wall_s");

    match recovered {
        Err(e) => out.fail(format!("recover: {e}")),
        Ok(image) => {
            let (clusters, nodes, _) = shape(ctx.scale);
            out.check(image.torn.is_none(), || {
                format!("torn tail in a synced image: {:?}", image.torn)
            });
            out.check(image.total_entries() == appended, || {
                format!("recovered {} of {appended} entries", image.total_entries())
            });
            out.check(image.stores.len() as u64 == clusters as u64 * nodes, || {
                format!("recovered {} node chains", image.stores.len())
            });
            out.failed += appended.saturating_sub(image.total_entries());
            out.put("storage.recover_ns_per_entry", wall * 1e9 / appended as f64);
            out.put("recovery.disk_mb", disk_bytes as f64 / (1 << 20) as f64);
            out.fingerprint = format!(
                "entries={} chains={} frames={} bytes={disk_bytes}",
                image.total_entries(),
                image.stores.len(),
                image.frames
            );
        }
    }

    if ctx.traced {
        // The same image through the writer's open path, then compacted.
        let opts = DurableOptions {
            sync: SyncPolicy::Manual,
            compact_bytes: None,
        };
        let t_open = Instant::now();
        let reopened = trace::in_span("storage", "DurableStore::open", || {
            DurableStore::open(&image_dir, CheckpointCodec, opts)
        });
        out.put(
            "storage.open_existing_ms",
            t_open.elapsed().as_secs_f64() * 1e3,
        );
        match reopened {
            Err(e) => out.fail(format!("reopen image: {e}")),
            Ok(mut store) => {
                let t_compact = Instant::now();
                let compacted = trace::in_span("storage", "compact", || store.compact());
                out.put(
                    "storage.compact_ms",
                    t_compact.elapsed().as_secs_f64() * 1e3,
                );
                if let Err(e) = compacted {
                    out.fail(format!("compact: {e}"));
                }
            }
        }
    }
    drop(root);
    if ctx.traced {
        crate::write_trace(ctx, "recovery_replay", &trace::finish());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_clean, tiny_ctx};
    use super::*;

    #[test]
    fn tiny_image_recovers_whole() {
        let ctx = tiny_ctx("recovery", true);
        let out = rep(&ctx, "run");
        assert_clean(
            &out,
            &[
                "wall_s",
                "setup_s",
                "recovery.disk_mb",
                "storage.recover_ns_per_entry",
                "storage.open_existing_ms",
                "storage.compact_ms",
            ],
        );
        assert_eq!(out.attempted, 4 * 4 * 4);
        assert!(out
            .fingerprint
            .starts_with("entries=64 chains=16 frames=64 "));
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }

    #[test]
    fn a_truncated_image_fails_the_check() {
        let ctx = tiny_ctx("recovery-torn", false);
        let dir = ctx.dir.join("image");
        let appended = build_image(&dir, 7, Scale::Tiny);
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .next()
            .unwrap()
            .path();
        let len = std::fs::metadata(&seg).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let image = storage::recover(&dir, &CheckpointCodec).unwrap();
        assert!(image.torn.is_some());
        assert_eq!(image.total_entries(), appended - 1);
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }
}
