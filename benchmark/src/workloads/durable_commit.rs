//! `durable_commit`: the `runtime_wave` federation with `with_durable_dir`
//! (default `SyncPolicy::EveryCommit`) on the real filesystem, under a
//! **closed loop of 4 clients** — one outstanding `checkpoint_now` per
//! cluster.
//!
//! Rounds are lock-step in two phases. First one message per cluster
//! along the pipeline c → c+1, each awaited to its `Delivered`: the
//! sender committed last round, so every message forces a CLC at its
//! receiver and the deltas are never empty. Then four concurrent
//! `checkpoint_now`s, each awaited to its cluster's unforced `Committed`.
//! Phasing matters: a timer round that merges with a pending forced
//! reason commits as *forced*, which from outside is indistinguishable
//! from someone else's round, so requests are only issued while no
//! inter-cluster message is in flight.
//!
//! `storage::durable` writes behind the runtime's single
//! `Arc<Mutex<DurableStore>>`: one cluster's fsync is every cluster's
//! wait. Group commit or lock changes show here; the prediction on every
//! other workload is no change.
//!
//! Not one of the end-to-end workloads: its wall is the disk's fsync
//! latency times frames x clusters, and the sandbox disk's latency
//! drifts (115 µs to 200 µs within the hour this was written in). It runs
//! at full size in every traced run and reports the `durable.*` and
//! `storage.*` rows, with `storage.fsync_us` measured beside them and
//! `durable.p50_fsyncs` — the median request latency in units of that
//! fsync — as the number the disk does not move.

use super::runtime_wave::{shutdown_checked, spawn_ready, CLUSTERS, PER_CLUSTER, STEP_TIMEOUT};
use super::{runtime_shards, Region};
use crate::host::Who;
use crate::rep::{dir_bytes, RepCtx, RepOut, Scale};
use crate::stats;
use crate::trace::{self, Acc};
use hc3i_core::{AppPayload, CheckpointCodec};
use netsim::{Mix64, NodeId};
use runtime::{Federation, RtEvent, RuntimeConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// 250 rounds x 4 requests = 1,000 latency samples: the fewest that leave
/// ten beyond the 99th percentile.
fn rounds(scale: Scale) -> u64 {
    scale.pick(250, 25, 5)
}

/// Every round's messages, in send order: for each cluster with a
/// successor, `(a node of it, a node of the next)`.
fn schedule(seed: u64, rounds: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = Mix64::new(seed ^ 0x4455_5241);
    let mut rank = move || rng.below(PER_CLUSTER as u64) as u32;
    (0..rounds)
        .flat_map(|_| 0..CLUSTERS as u16 - 1)
        .map(|c| (NodeId::new(c, rank()), NodeId::new(c + 1, rank())))
        .collect()
}

/// Feed events to `step` until it says the phase is over; `false` on
/// timeout.
fn pump(fed: &Federation, next_event: &mut Acc, mut step: impl FnMut(&RtEvent) -> bool) -> bool {
    loop {
        match next_event.time(|| fed.next_event(STEP_TIMEOUT)) {
            Some(ev) if step(&ev) => return true,
            Some(_) => {}
            None => return false,
        }
    }
}

/// One rep.
pub fn rep(ctx: &RepCtx, _phase: &str) -> RepOut {
    let mut out = RepOut::default();
    let rounds = rounds(ctx.scale);
    let durable_dir = ctx.dir.join("segments");
    if ctx.traced {
        trace::start();
    }
    let root = trace::span("harness", "durable_commit");

    // setup_s: input generation + construction (DurableStore::open and
    // the genesis frames included) until the pool answers.
    let t_setup = Instant::now();
    let messages = schedule(ctx.seed, rounds);
    let cfg = RuntimeConfig::manual(vec![PER_CLUSTER; CLUSTERS])
        .with_shards(runtime_shards())
        .with_durable_dir(&durable_dir);
    let fed = spawn_ready(cfg, &mut out);
    out.put("setup_s", t_setup.elapsed().as_secs_f64());

    let mut next_event = Acc::new("runtime", "next_event");
    let mut checkpoint_now = Acc::new("runtime", "checkpoint_now");
    let mut lat_us = Vec::with_capacity((rounds * CLUSTERS as u64) as usize);
    let (mut commits, mut forced, mut alarms) = (0u64, 0u64, 0u64);
    let mut timed_out = false;

    let region = Region::begin(Who::Myself, ctx.traced);
    let loop_span = trace::span("harness", "closed_loop");
    for round in messages.chunks(CLUSTERS - 1) {
        // Phase 1: the pipeline messages, each to its delivery.
        for (k, &(from, to)) in round.iter().enumerate() {
            fed.send_app(
                from,
                to,
                AppPayload {
                    bytes: 256,
                    tag: k as u64,
                },
            );
        }
        let mut delivered = 0;
        let mut tally = |ev: &RtEvent| match ev {
            RtEvent::Committed { forced: f, .. } => {
                commits += 1;
                forced += *f as u64;
            }
            RtEvent::Delivered { .. } | RtEvent::GcReport { .. } => {}
            RtEvent::RolledBack { .. }
            | RtEvent::Unrecoverable { .. }
            | RtEvent::LateCrossing { .. } => alarms += 1,
        };
        let ok = pump(&fed, &mut next_event, |ev| {
            tally(ev);
            delivered += matches!(ev, RtEvent::Delivered { .. }) as usize;
            delivered == round.len()
        });
        // Phase 2: four concurrent checkpoint requests.
        let mut pending = [None; CLUSTERS];
        for (c, slot) in pending.iter_mut().enumerate() {
            *slot = Some(Instant::now());
            checkpoint_now.time(|| fed.checkpoint_now(c));
        }
        let mut open = CLUSTERS;
        let ok = ok
            && pump(&fed, &mut next_event, |ev| {
                tally(ev);
                if let RtEvent::Committed {
                    cluster,
                    forced: false,
                    ..
                } = ev
                {
                    if let Some(asked) = pending[*cluster].take() {
                        lat_us.push(asked.elapsed().as_nanos() as f64 / 1e3);
                        open -= 1;
                    }
                }
                open == 0
            });
        if !ok {
            timed_out = true;
            break;
        }
    }
    drop(loop_span);
    region.end(&mut out, commits);
    for acc in [next_event, checkpoint_now] {
        acc.flush();
    }

    let expected = rounds * CLUSTERS as u64;
    out.check(!timed_out, || {
        format!("timed out after {} of {expected} requests", lat_us.len())
    });
    out.failed += expected - lat_us.len() as u64;
    out.check(alarms == 0, || {
        format!("{alarms} rollback/unrecoverable/late-crossing events")
    });
    let wall = out.get("wall_s").expect("region recorded wall_s");
    out.put("storage.commits_per_s", commits as f64 / wall);
    if !lat_us.is_empty() {
        out.put("durable.lat_p50_us", stats::percentile(&lat_us, 50.0));
        out.put("durable.lat_p99_us", stats::percentile(&lat_us, 99.0));
        out.check(
            ctx.scale != Scale::Full || stats::samples_beyond(lat_us.len(), 99.0) >= 10,
            || format!("{} latency samples cannot carry a p99", lat_us.len()),
        );
    }

    // Every acknowledged commit must be on disk: the recovered chains
    // equal the engines' own, node for node.
    let answered = fed.quiesce(2, STEP_TIMEOUT);
    out.check(answered == CLUSTERS * PER_CLUSTER as usize, || {
        format!("{answered} nodes answered the final quiesce")
    });
    let engines: BTreeMap<u64, Vec<_>> = shutdown_checked(fed, &mut out)
        .into_iter()
        .map(|(id, engine)| {
            let g = id.cluster.index() as u64 * PER_CLUSTER as u64 + id.rank as u64;
            (g, engine.store().iter().map(|e| e.meta.sn).collect())
        })
        .collect();
    match trace::in_span("storage", "recover", || {
        storage::recover(&durable_dir, &CheckpointCodec)
    }) {
        Err(e) => out.fail(format!("recover: {e}")),
        Ok(image) => {
            out.check(image.torn.is_none(), || {
                format!("torn tail after clean shutdown: {:?}", image.torn)
            });
            let on_disk: BTreeMap<u64, Vec<_>> = image
                .stores
                .iter()
                .map(|(g, chain)| (*g, chain.iter().map(|e| e.meta.sn).collect()))
                .collect();
            out.check(on_disk == engines, || {
                "recovered chains differ from the engines' stores".to_string()
            });
            let genesis = (CLUSTERS * PER_CLUSTER as usize) as u64;
            let frames = image.frames.saturating_sub(genesis);
            let bytes = dir_bytes(&durable_dir);
            out.put(
                "storage.frames_per_clc",
                frames as f64 / commits.max(1) as f64,
            );
            out.put(
                "storage.bytes_per_frame",
                bytes as f64 / image.frames as f64,
            );
            out.put("durable.disk_mb", bytes as f64 / (1 << 20) as f64);
            out.fingerprint = format!(
                "requests={}/{expected} commits={commits} forced={forced} entries={}",
                lat_us.len(),
                image.total_entries()
            );
        }
    }
    drop(root);
    if ctx.traced {
        crate::write_trace(ctx, "durable_commit", &trace::finish());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_clean, tiny_ctx};
    use super::*;

    #[test]
    fn schedule_is_seeded_and_pipeline_shaped() {
        let s = schedule(7, 10);
        assert_eq!(s, schedule(7, 10));
        assert_ne!(s, schedule(8, 10));
        assert_eq!(s.len(), 30);
        for (k, (from, to)) in s.iter().enumerate() {
            assert_eq!(from.cluster.0 as usize, k % 3);
            assert_eq!(to.cluster.0, from.cluster.0 + 1);
        }
    }

    #[test]
    fn tiny_rep_commits_and_recovers_everything() {
        let ctx = tiny_ctx("durable_commit", true);
        let out = rep(&ctx, "run");
        assert_clean(
            &out,
            &[
                "wall_s",
                "setup_s",
                "durable.lat_p50_us",
                "durable.lat_p99_us",
                "durable.disk_mb",
                "storage.frames_per_clc",
                "storage.bytes_per_frame",
                "storage.commits_per_s",
            ],
        );
        // 5 rounds x (4 unforced + 3 forced).
        assert_eq!(out.attempted, 35);
        assert!(out
            .fingerprint
            .starts_with("requests=20/20 commits=35 forced=15"));
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }
}
