//! Isolated-layer probes: a workload's own call stream (its send list,
//! its cluster widths, its CLC cadence) replayed against one layer's
//! public functions alone — no clock, no wire, no neighbours — so a
//! layer's cost per call is known apart from the run it is part of.
//!
//! Every probe reports the median of a few passes: these are
//! microbenchmarks of cached code, where the quiet value is the signal.

use crate::alloc;
use crate::host;
use crate::rep::{RepCtx, RepOut};
use crate::stats::median;
use crate::stream::Stream;
use crate::workloads::recovery_replay;
use desim::{Ctx, EventQueue, SimDuration, SimTime, Simulation, World};
use hc3i_core::testkit::InstantFederation;
use hc3i_core::{
    gc, AppPayload, CheckpointCodec, Ddv, DeliveredRecord, Msg, NodeEngine, ProtocolConfig,
    ReceiverChannel, SenderChannel, SeqNum, XportConfig,
};
use netsim::{ClusterId, HostileNet, HostileSpec, MessageClass, Mix64, Network, NodeId};
use std::sync::Arc;
use std::time::Instant;
use storage::{
    ClcMeta, ClcStore, DurableOptions, DurableStore, EntryCodec as _, LogId, MessageLog, SyncPolicy,
};

const PASSES: usize = 3;

/// Median seconds of `PASSES` runs of `f` (each builds its own state).
fn timed(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..PASSES).map(|_| f()).collect::<Vec<_>>())
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Run every probe over `stream`.
pub fn run_all(ctx: &RepCtx, stream: &Stream, out: &mut RepOut) {
    desim_exec(stream, out);
    desim_cancel(out);
    netsim_send(stream, out);
    netsim_hostile(ctx.seed, stream, out);
    netsim_new(stream, out);
    core_handle(stream, out);
    core_clc_commit(stream, out);
    core_engine_new(stream, out);
    core_gc_round(stream, out);
    core_persist(ctx.seed, out);
    core_xport(out);
    storage_log_ack(out);
    storage_append(ctx, out);
    channel(out);
    out.put(
        "host.calibration_iters_per_s",
        host::calibration_iters_per_s(5),
    );
    out.put("host.nproc", host::nproc() as f64);
}

/// A world that does nothing but what the executive charges for: every
/// send schedules one follow-up at the link latency.
struct NullWorld {
    latency: SimDuration,
}

enum NullEv {
    Send,
    Arrive,
}

impl World for NullWorld {
    type Event = NullEv;
    fn handle(&mut self, ctx: &mut Ctx<'_, NullEv>, event: NullEv) {
        if let NullEv::Send = event {
            ctx.schedule_in(self.latency, NullEv::Arrive);
        }
    }
}

fn desim_exec(stream: &Stream, out: &mut RepOut) {
    let latency = stream
        .topology
        .inter_link(ClusterId(0), ClusterId(1))
        .latency;
    let mut events = 0;
    let s = timed(|| {
        let mut sim = Simulation::new(NullWorld { latency });
        sim.feed_sorted(stream.sends.iter().map(|s| (s.at, NullEv::Send)).collect());
        let t0 = Instant::now();
        sim.run();
        events = sim.events_processed();
        secs(t0)
    });
    out.put("desim.exec_ns_per_event", s * 1e9 / events.max(1) as f64);
}

/// Arm-and-cancel at the distances the hosts use: a 30-minute CLC timer
/// reset, and transport retry timers between 50 ms and 5 s.
fn desim_cancel(out: &mut RepOut) {
    const PAIRS: u64 = 100_000;
    let s = timed(|| {
        let mut q: EventQueue<u32> = EventQueue::new();
        // A standing population, as a running federation has.
        for i in 0..1_000u64 {
            q.push(SimTime(i * 1_000_000), 0);
        }
        let mut rng = Mix64::new(1);
        let t0 = Instant::now();
        for i in 0..PAIRS {
            let now = i * 10_000;
            let ahead = if i % 4 == 0 {
                SimDuration::from_minutes(30)
            } else {
                SimDuration::from_millis(50 + rng.below(4_950))
            };
            let key = q.push(SimTime(now).saturating_add(ahead), 1);
            std::hint::black_box(q.cancel(key));
        }
        secs(t0)
    });
    out.put("desim.cancel_ns", s * 1e9 / PAIRS as f64);
}

fn netsim_send(stream: &Stream, out: &mut RepOut) {
    let s = timed(|| {
        let mut net = Network::new(stream.topology.clone());
        let t0 = Instant::now();
        for e in &stream.sends {
            std::hint::black_box(net.send(e.at, e.from, e.to, e.bytes, MessageClass::App));
        }
        secs(t0)
    });
    out.put(
        "netsim.send_ns_per_msg",
        s * 1e9 / stream.sends.len().max(1) as f64,
    );
}

/// The inter-cluster copies under the campaign's `lossy_wan` fault model
/// (50 % loss).
fn netsim_hostile(seed: u64, stream: &Stream, out: &mut RepOut) {
    let crossing: Vec<_> = stream.inter_cluster().collect();
    let s = timed(|| {
        let mut hostile = HostileNet::new(HostileSpec::seeded(seed).with_loss(0.5), vec![]);
        let t0 = Instant::now();
        for e in &crossing {
            let arrival = e.at.saturating_add(SimDuration::from_micros(300));
            std::hint::black_box(hostile.post(e.at, e.from, e.to, arrival));
        }
        secs(t0)
    });
    out.put(
        "netsim.hostile_post_ns_per_msg",
        s * 1e9 / crossing.len().max(1) as f64,
    );
}

fn netsim_new(stream: &Stream, out: &mut RepOut) {
    // Sub-microsecond on a small topology: time a batch, not one call.
    let batch = if stream.cluster_sizes.len() <= 16 {
        256
    } else {
        4
    };
    let s = timed(|| {
        let topologies = vec![stream.topology.clone(); batch];
        let t0 = Instant::now();
        for topology in topologies {
            std::hint::black_box(Network::new(topology));
        }
        secs(t0)
    });
    out.put("netsim.new_ms", s * 1e3 / batch as f64);
}

/// Clusters the engine probes keep of a wide stream: enough for the
/// forced-CLC and ack paths, without rebuilding a mega federation.
const ENGINE_PROBE_CLUSTERS: usize = 64;

/// The stream's sends and CLC cadence through the engines alone.
fn core_handle(stream: &Stream, out: &mut RepOut) {
    let keep = stream.cluster_sizes.len().min(ENGINE_PROBE_CLUSTERS);
    let sends: Vec<_> = stream
        .sends
        .iter()
        .filter(|s| s.from.cluster.index() < keep && s.to.cluster.index() < keep)
        .collect();
    let s = timed(|| {
        let mut fed =
            InstantFederation::new(ProtocolConfig::new(stream.cluster_sizes[..keep].to_vec()));
        let t0 = Instant::now();
        for (k, e) in sends.iter().enumerate() {
            fed.app_send(
                e.from,
                e.to,
                AppPayload {
                    bytes: e.bytes,
                    tag: k as u64,
                },
            );
            if (k + 1) % stream.sends_per_clc == 0 {
                fed.fire_clc_timer((k / stream.sends_per_clc) % keep);
            }
        }
        let s = secs(t0);
        assert_eq!(
            fed.deliveries.len(),
            sends.len(),
            "instant network lost sends"
        );
        s
    });
    out.put(
        "core.handle_ns_per_input",
        s * 1e9 / sends.len().max(1) as f64,
    );
}

/// Full two-phase CLC rounds on a cluster of the stream's width whose
/// nodes carry a populated delivery record.
fn core_clc_commit(stream: &Stream, out: &mut RepOut) {
    const DELIVERIES: u64 = 512;
    const ROUNDS: u64 = 256;
    let width = stream.cluster_sizes[0];
    let s = timed(|| {
        let mut fed = InstantFederation::new(ProtocolConfig::new(vec![width, 1]));
        for k in 0..DELIVERIES {
            fed.app_send(
                NodeId::new(1, 0),
                NodeId::new(0, (k % width as u64) as u32),
                AppPayload { bytes: 64, tag: k },
            );
        }
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            fed.fire_clc_timer(0);
        }
        let s = secs(t0);
        assert!(fed.clc_counts(0).0 as u64 >= ROUNDS);
        s
    });
    out.put("core.clc_commit_us", s * 1e6 / ROUNDS as f64);
}

/// Engine construction at the stream's DDV width; bytes from the
/// allocator.
fn core_engine_new(stream: &Stream, out: &mut RepOut) {
    const ENGINES: u32 = 64;
    let cfg = Arc::new(ProtocolConfig::new(stream.cluster_sizes.clone()));
    let nodes = stream.cluster_sizes[0];
    let mut bytes = 0;
    let s = timed(|| {
        let was_counting = alloc::snapshot();
        alloc::enable(true);
        let t0 = Instant::now();
        let engines: Vec<_> = (0..ENGINES)
            .map(|r| NodeEngine::new(cfg.clone(), NodeId::new(0, r % nodes)))
            .collect();
        let s = secs(t0);
        alloc::enable(false);
        bytes = alloc::snapshot().1 - was_counting.1;
        drop(engines);
        s
    });
    out.put("core.engine_new_us", s * 1e6 / ENGINES as f64);
    out.put("core.engine_bytes", bytes as f64 / ENGINES as f64);
}

/// One GC analysis at the stream's width (the `gc_round` micro of
/// `hc3i_baselines`, 16 stored CLCs per cluster; width capped at 128).
fn core_gc_round(stream: &Stream, out: &mut RepOut) {
    const CLCS: u64 = 16;
    const ROUNDS: u64 = 8;
    let clusters = stream.cluster_sizes.len().min(128);
    let stores: Vec<ClcStore<()>> = (0..clusters)
        .map(|c| {
            let mut store = ClcStore::new();
            for k in 1..=CLCS {
                let mut ddv = Ddv::zeros(clusters);
                ddv.set(c, SeqNum(k));
                ddv.set((c + clusters - 1) % clusters, SeqNum(k.saturating_sub(1)));
                store.commit(
                    ClcMeta {
                        sn: SeqNum(k),
                        ddv: Arc::new(ddv),
                        committed_at: SimTime(k),
                        forced: false,
                    },
                    (),
                );
            }
            store
        })
        .collect();
    let s = timed(|| {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            let lists: Vec<_> = stores.iter().map(|s| s.ddv_list()).collect();
            let mins = gc::safe_minimum_sns_k(&lists, 1);
            assert_eq!(std::hint::black_box(mins).len(), clusters);
        }
        secs(t0)
    });
    out.put("core.gc_round_us", s * 1e6 / ROUNDS as f64);
}

/// The segment log's entry codec on checkpoint chains shaped like the
/// ones a durable run commits (see `recovery_replay::checkpoint`).
fn core_persist(seed: u64, out: &mut RepOut) {
    const NODES: u64 = 64;
    const CLCS: u64 = 32;
    let mut rng = Mix64::new(seed);
    let chains: Vec<Vec<_>> = (0..NODES)
        .map(|r| {
            let mut delivered = DeliveredRecord::new();
            (1..=CLCS)
                .map(|k| {
                    recovery_replay::checkpoint(&mut rng, 4, NODES, (0, r, k), &mut delivered).1
                })
                .collect()
        })
        .collect();
    let mut bytes = 0usize;
    let s = timed(|| {
        bytes = 0;
        let t0 = Instant::now();
        for chain in &chains {
            let mut prev = None;
            for ckpt in chain {
                bytes += CheckpointCodec.encode_payload(ckpt, prev).len();
                prev = Some(ckpt);
            }
        }
        secs(t0)
    });
    let n = (NODES * CLCS) as f64;
    out.put("core.persist_encode_ns", s * 1e9 / n);
    out.put("core.persist_bytes_per_ckpt", bytes as f64 / n);
}

/// One frame through the reliable transport: sender admit, receiver
/// admit, sender ack.
fn core_xport(out: &mut RepOut) {
    const FRAMES: u64 = 200_000;
    let cfg = XportConfig::default();
    let s = timed(|| {
        let (mut tx, mut rx) = (SenderChannel::default(), ReceiverChannel::default());
        let t0 = Instant::now();
        for k in 0..FRAMES {
            let now = SimTime(k * 1_000);
            let msg = Msg::InterAck {
                log_id: LogId(k),
                receiver_sn: SeqNum(k),
            };
            let seq = tx.send(now, &cfg, msg).expect("window never fills");
            assert!(rx.accept(seq));
            std::hint::black_box(tx.ack(now, &cfg, seq));
        }
        secs(t0)
    });
    out.put("core.xport_ns_per_frame", s * 1e9 / FRAMES as f64);
}

/// `log` then `ack` of the newest id at a standing occupancy: the ack is
/// a linear scan, and acks arrive for recent messages.
fn storage_log_ack(out: &mut RepOut) {
    for occupancy in [256u64, 4096] {
        let mut base: MessageLog<AppPayload> = MessageLog::new();
        for k in 0..occupancy {
            base.log(1, 0, AppPayload { bytes: 256, tag: k }, 256, SeqNum(1));
        }
        // Grow by an eighth at most, so the occupancy stays the label's.
        let (burst, logs) = (occupancy / 8, 16_384 / occupancy);
        let s = timed(|| {
            let mut busy = 0.0;
            for _ in 0..logs {
                let mut log = base.clone();
                let t0 = Instant::now();
                for k in 0..burst {
                    let id = log.log(1, 0, AppPayload { bytes: 256, tag: k }, 256, SeqNum(1));
                    assert!(log.ack(id, SeqNum(2)));
                }
                busy += secs(t0);
            }
            busy
        });
        out.put(
            &format!("storage.log_ack_ns_at_{occupancy}"),
            s * 1e9 / (burst * logs) as f64,
        );
    }
}

/// `append_commit` without a flush, and what `EveryCommit` adds to it on
/// this host's disk. Sixteen commits per node chain: a sealed delivery
/// record per CLC is the engine's doing, and an unsealed one grows.
fn storage_append(ctx: &RepCtx, out: &mut RepOut) {
    const PER_NODE: u64 = 16;
    let per_commit_us = |sync: SyncPolicy, nodes: u64, tag: &str| {
        let mut pass = 0;
        let commits = nodes * PER_NODE;
        timed(|| {
            pass += 1;
            let dir = ctx.dir.join(format!("append-{tag}-{pass}"));
            let opts = DurableOptions {
                sync,
                compact_bytes: None,
            };
            let mut store =
                DurableStore::open(&dir, CheckpointCodec, opts).expect("open probe store");
            let mut rng = Mix64::new(ctx.seed);
            // Built outside the timed loop: the append is the probe.
            let mut chain = Vec::with_capacity(commits as usize);
            for r in 0..nodes {
                let mut delivered = DeliveredRecord::new();
                for k in 1..=PER_NODE {
                    let at = (0, r, k);
                    chain.push((
                        r,
                        recovery_replay::checkpoint(&mut rng, 4, nodes, at, &mut delivered),
                    ));
                }
            }
            let t0 = Instant::now();
            for (node, (meta, payload)) in &chain {
                store.append_commit(*node, meta, payload).expect("append");
            }
            secs(t0)
        }) * 1e6
            / commits as f64
    };
    let manual = per_commit_us(SyncPolicy::Manual, 128, "manual");
    let every = per_commit_us(SyncPolicy::EveryCommit, 16, "every");
    out.put("storage.append_us", manual);
    out.put("storage.fsync_us", every - manual);
}

/// The vendored channel alone: one producer into one consumer, and a
/// two-thread round trip through park/unpark.
fn channel(out: &mut RepOut) {
    use crossbeam::channel::unbounded;
    const STREAMED: u64 = 1_000_000;
    const ROUND_TRIPS: u64 = 20_000;
    let s = timed(|| {
        let (tx, rx) = unbounded::<u64>();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for k in 0..STREAMED {
                    tx.send(k).expect("consumer alive");
                }
            });
            let mut got = 0;
            while rx.recv().is_ok() {
                got += 1;
            }
            assert_eq!(got, STREAMED);
        });
        secs(t0)
    });
    out.put("channel.msgs_per_s", STREAMED as f64 / s);

    let s = timed(|| {
        let (ping_tx, ping_rx) = unbounded::<u64>();
        let (pong_tx, pong_rx) = unbounded::<u64>();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                while let Ok(k) = ping_rx.recv() {
                    pong_tx.send(k).expect("pinger alive");
                }
            });
            for k in 0..ROUND_TRIPS {
                ping_tx.send(k).expect("ponger alive");
                assert_eq!(pong_rx.recv(), Ok(k));
            }
            drop(ping_tx);
        });
        secs(t0)
    });
    out.put("channel.pingpong_us", s * 1e6 / ROUND_TRIPS as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rep::Scale;
    use crate::workloads::{sim_dense, testutil::tiny_ctx};

    #[test]
    fn every_probe_measures_something_on_a_tiny_stream() {
        let ctx = tiny_ctx("probes", false);
        let stream = sim_dense::stream_at(ctx.seed, Scale::Tiny);
        let mut out = RepOut::default();
        run_all(&ctx, &stream, &mut out);
        assert!(out.errors.is_empty());
        let names: Vec<&str> = out.metrics.iter().map(|(n, _)| n.as_str()).collect();
        for expect in [
            "desim.exec_ns_per_event",
            "desim.cancel_ns",
            "netsim.send_ns_per_msg",
            "netsim.hostile_post_ns_per_msg",
            "netsim.new_ms",
            "core.handle_ns_per_input",
            "core.clc_commit_us",
            "core.engine_new_us",
            "core.engine_bytes",
            "core.gc_round_us",
            "core.persist_encode_ns",
            "core.persist_bytes_per_ckpt",
            "core.xport_ns_per_frame",
            "storage.log_ack_ns_at_256",
            "storage.log_ack_ns_at_4096",
            "storage.append_us",
            "storage.fsync_us",
            "channel.msgs_per_s",
            "channel.pingpong_us",
            "host.calibration_iters_per_s",
            "host.nproc",
        ] {
            assert!(names.contains(&expect), "{expect} missing");
        }
        for (name, v) in &out.metrics {
            // fsync_us is a difference of two medians; on a RAM-backed
            // temp dir it can round below zero.
            assert!(
                v.is_finite() && (*v > 0.0 || name == "storage.fsync_us"),
                "{name} = {v}"
            );
        }
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }
}
