//! Bench-baseline capture (ROADMAP open item).
//!
//! Times the reference workloads that every perf PR must not regress and
//! writes them as machine-readable JSON plus a human-readable Markdown
//! summary:
//!
//! ```text
//! cargo run --release -p hc3i-bench --bin hc3i_baselines -- \
//!     [--quick] [--json PATH] [--md PATH] [--compare OLD.json] \
//!     [--fail-on-regression FRAC] [--fingerprint PATH] [--seed N]
//! ```
//!
//! * `--quick` trims every sweep for CI (seconds instead of minutes).
//! * `--json` / `--md` write `bench/BASELINES.json` / `bench/BASELINES.md`
//!   style artifacts.
//! * `--compare OLD.json` embeds the old wall times and per-entry speedups
//!   into the new artifacts (before/after for a perf PR).
//! * `--fail-on-regression FRAC` (requires `--compare`) exits non-zero if
//!   any *gated* entry (see [`gated`]) regresses by more than `FRAC`
//!   (e.g. `0.20` = 20%) against the compare file. Gated entries are
//!   judged on events/s (comparable between `--quick` and full runs,
//!   whose workload sizes differ), falling back to wall time when either
//!   side lacks a rate. When both artifacts carry the `calibration`
//!   entry — a fixed integer-mix + dependent-load chase that measures the
//!   *host*, not the repo — rates are first divided by the same run's
//!   calibration rate, cancelling the machine-speed gap between the
//!   recording host and the judging host, and the gate tightens to
//!   [`NORMALIZED_GATE`]: with the cross-machine gap gone, most of what
//!   survives normalization is per-event code regression. The
//!   seconds-long single-rep `scaling_mega` entry is recorded but not
//!   rate-gated (see [`gated`]); its gate is CI's wall-clock ceiling.
//! * `--fingerprint PATH` additionally dumps the full `RunReport` debug
//!   output of several seeded runs — byte-identical across code changes
//!   that preserve the determinism contract (same seed ⇒ bit-identical
//!   reports). CI `cmp`s a fresh dump against the committed
//!   `bench/FINGERPRINT.txt`.

use desim::{RngStreams, SimDuration, SimTime};
use hc3i_bench::experiments;
use hc3i_core::{PiggybackMode, ProtocolConfig};
use netsim::{ClusterSpec, HostileSpec, LinkSpec, NodeId, Topology};
use simdriver::{RunReport, SimConfig};
use std::fmt::Write as _;
use std::time::Instant;
use workload::{TargetCountWorkload, Workload};

/// One timed baseline entry.
struct Entry {
    name: &'static str,
    /// What the entry measures (goes into the Markdown table).
    what: &'static str,
    /// Best-of-N wall time, milliseconds.
    wall_ms: f64,
    /// Simulator events dispatched by one run (0 when not applicable).
    events: u64,
    /// Events per second of wall time (0 when not applicable).
    events_per_sec: f64,
}

fn time_run<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best, last.expect("at least one rep"))
}

fn entry(name: &'static str, what: &'static str, reps: usize, f: impl FnMut() -> u64) -> Entry {
    let (wall_ms, events) = time_run(reps, f);
    let events_per_sec = if events > 0 {
        events as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    Entry {
        name,
        what,
        wall_ms,
        events,
        events_per_sec,
    }
}

/// The reference event-loop workload: 2 clusters x 100 nodes, 10 simulated
/// hours, 103 reverse messages, 30-minute timers, GC every 2 h (~230k
/// events through `FederationWorld::handle`).
fn reference_config(seed: u64, piggyback: PiggybackMode) -> SimConfig {
    let w = TargetCountWorkload::paper_with_reverse_count(103);
    let sends = w.schedule(&RngStreams::new(seed));
    SimConfig::new(Topology::paper_reference(2), w.duration)
        .with_sends(sends)
        .with_seed(seed)
        .with_protocol(ProtocolConfig::new(vec![100, 100]).with_piggyback(piggyback))
        .with_clc_delay(0, SimDuration::from_minutes(30))
        .with_clc_delay(1, SimDuration::from_minutes(30))
        .with_gc_interval(SimDuration::from_hours(2))
}

/// A wide-federation ring: `n` clusters, small clusters, cross traffic to
/// the next cluster over, 30-minute timers.
fn ring_config(n: usize, nodes: u32, hours: u64, seed: u64) -> SimConfig {
    let mut counts = vec![vec![0u64; n]; n];
    for (i, row) in counts.iter_mut().enumerate() {
        row[i] = 120;
        row[(i + 1) % n] = 30;
    }
    let w = TargetCountWorkload {
        cluster_sizes: vec![nodes; n],
        duration: SimDuration::from_hours(hours),
        counts,
        payload_bytes: 1024,
    };
    let sends = w.schedule(&RngStreams::new(seed));
    let mut cfg = SimConfig::new(
        Topology::new(
            vec![
                ClusterSpec {
                    nodes,
                    intra: LinkSpec::myrinet_like(),
                };
                n
            ],
            LinkSpec::ethernet_like(),
        ),
        w.duration,
    )
    .with_sends(sends)
    .with_seed(seed)
    .with_protocol(ProtocolConfig::new(vec![nodes; n]));
    for c in 0..n {
        cfg = cfg.with_clc_delay(c, SimDuration::from_minutes(30));
    }
    cfg
}

/// Raw shard-channel throughput: `senders` producer threads blast
/// `per_sender` messages each through one unbounded channel while the
/// consumer drains until disconnect. This isolates the vendored channel
/// the sharded executor serializes on ("events" is the message count), so
/// channel regressions show up undiluted by protocol work.
fn channel_pump(senders: usize, per_sender: u64) -> u64 {
    let (tx, rx) = crossbeam::channel::unbounded::<u64>();
    let handles: Vec<_> = (0..senders as u64)
        .map(|s| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..per_sender {
                    tx.send((s << 32) | i).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let mut received = 0u64;
    while rx.recv().is_ok() {
        received += 1;
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(received, senders as u64 * per_sender);
    received
}

/// End-to-end threaded-runtime throughput: a 64-node federation on the
/// default shard pool, one ring-wise wave of `msgs` messages, every
/// delivery awaited. Includes pool spawn and shutdown, so the entry
/// tracks the whole federation lifecycle the runtime promises ("events"
/// is the message count; events/s is messages per second).
fn runtime_wave(msgs: u64) -> u64 {
    use runtime::{Federation, RtEvent, RuntimeConfig};
    const CLUSTERS: usize = 4;
    const PER_CLUSTER: u32 = 16;
    let fed = Federation::spawn(RuntimeConfig::manual(vec![PER_CLUSTER; CLUSTERS]));
    let mut expected = std::collections::HashSet::new();
    for k in 0..msgs {
        let c = (k as usize % CLUSTERS) as u16;
        let r = (k as u32 / 7) % PER_CLUSTER;
        let to_c = ((c as usize + 1) % CLUSTERS) as u16;
        let to_r = (r + 3) % PER_CLUSTER;
        expected.insert(k);
        fed.send_app(
            NodeId::new(c, r),
            NodeId::new(to_c, to_r),
            hc3i_core::AppPayload { bytes: 256, tag: k },
        );
    }
    fed.wait_for(std::time::Duration::from_secs(300), |e| {
        if let RtEvent::Delivered { payload, .. } = e {
            expected.remove(&payload.tag);
        }
        expected.is_empty()
    })
    .expect("runtime wave fully delivered");
    fed.shutdown();
    msgs
}

/// Build the segment log the `recovery_from_disk` entry replays: a
/// 2048-node federation image (128 clusters x 16 nodes, 12 CLCs per
/// node) with growing delivery records and ring-dependent DDVs, written
/// with manual sync so image construction stays outside the timed
/// region. Single segment (~25 MiB of v2 delta-encoded commit frames) —
/// what a durable run leaves behind at steady state.
fn build_recovery_image(dir: &std::path::Path) {
    use hc3i_core::{AppPayload, CheckpointCodec, Ddv, DeliveredRecord, NodeCheckpoint, SeqNum};
    use storage::{ClcMeta, DurableOptions, DurableStore, SyncPolicy};

    const CLUSTERS: usize = 128;
    const NODES: u64 = 16;
    const CLCS: u64 = 12;
    let _ = std::fs::remove_dir_all(dir);
    let opts = DurableOptions {
        sync: SyncPolicy::Manual,
        compact_bytes: None,
    };
    let mut log = DurableStore::open(dir, CheckpointCodec, opts).expect("open image dir");
    for c in 0..CLUSTERS as u64 {
        for r in 0..NODES {
            let node = c * NODES + r;
            let mut delivered = DeliveredRecord::new();
            for k in 1..=CLCS {
                // One new inter-cluster delivery per CLC, so the v2 delta
                // codec sees the growing-record shape real runs produce.
                delivered.insert(
                    (
                        NodeId::new(((c as usize + 1) % CLUSTERS) as u16, r as u32),
                        k,
                    ),
                    SeqNum(k),
                );
                let mut ddv = Ddv::zeros(CLUSTERS);
                ddv.set(c as usize, SeqNum(k));
                ddv.set(
                    (c as usize + CLUSTERS - 1) % CLUSTERS,
                    SeqNum(k.saturating_sub(1)),
                );
                let meta = ClcMeta {
                    sn: SeqNum(k),
                    ddv: std::sync::Arc::new(ddv),
                    committed_at: SimTime(k),
                    forced: false,
                };
                let payload = NodeCheckpoint {
                    delivered: delivered.clone(),
                    channel_state: vec![(
                        NodeId::new(c as u16, (r as u32 + 1) % NODES as u32),
                        AppPayload {
                            bytes: 256,
                            tag: node * CLCS + k,
                        },
                    )],
                    app_state: None,
                };
                log.append_commit(node, &meta, &payload)
                    .expect("append CLC");
            }
        }
    }
    log.sync().expect("sync image");
}

/// The timed half: replay the image — segment scan, per-frame CRC
/// checks, delta decode, chain validation and rebuild. "Events" is
/// recovered CLC entries.
fn recovery_from_disk(dir: &std::path::Path) -> u64 {
    let image = storage::recover(dir, &hc3i_core::CheckpointCodec).expect("recover image");
    assert!(image.torn.is_none(), "committed image has no torn tail");
    assert_eq!(image.stores.len(), 2048, "every node chain recovered");
    image.total_entries()
}

/// Same-run machine-speed calibration: a fixed workload whose cost
/// depends only on the host, never on repo code. Every artifact records
/// it alongside the real entries, so the regression gate can compare
/// *normalized* rates (entry events/s divided by same-run calibration
/// iterations/s) between two artifacts recorded on different machines or
/// under different background load. "Events" is iterations.
///
/// Each iteration mixes an integer-ALU step with a data-dependent read
/// from a 16 MiB table. The memory half matters: on a shared host the
/// dominant interference is cache/memory contention, which a pure
/// register spin is blind to (observed here: spin rate steady within 1%
/// while the simulator entries ran 15–40% slower), so a calibration
/// without it cannot normalize away exactly the noise it exists to
/// cancel. The chase is serialized through the running hash, putting the
/// load latency on the critical path like the simulator's own
/// pointer-heavy event dispatch.
fn calibration_spin(iters: u64) -> u64 {
    const TABLE_WORDS: usize = (16 << 20) / 8;
    let mut table = vec![0u64; TABLE_WORDS];
    let mut x = 0x9e3779b97f4a7c15u64;
    for (i, w) in table.iter_mut().enumerate() {
        x = x.wrapping_mul(0xd1342543de82ef95).rotate_left(23) ^ i as u64;
        *w = x;
    }
    for i in 0..iters {
        x = x.wrapping_mul(0xd1342543de82ef95).rotate_left(23) ^ i;
        x ^= table[(x >> 17) as usize & (TABLE_WORDS - 1)];
    }
    std::hint::black_box(x);
    iters
}

/// GC-round micro: per-cluster CLC stores with `clcs` stamped checkpoints
/// each; every round collects each store's `(SN, DDV)` list (`Arc`-shared
/// — the zero-clone path this entry gates), wraps the lists in
/// `Msg::GcDdvList` values the way coordinators answer `GcCollect`, and
/// runs the single-failure safe-minimum analysis over all of them.
/// "Events" is stamps visited per round × rounds.
fn gc_round_micro(clusters: usize, clcs: u64, rounds: u64) -> u64 {
    use hc3i_core::gc;
    use hc3i_core::{Ddv, Msg, SeqNum};
    use storage::{ClcMeta, ClcStore};

    let stores: Vec<ClcStore<()>> = (0..clusters)
        .map(|c| {
            let mut store = ClcStore::new();
            for k in 1..=clcs {
                let mut ddv = Ddv::zeros(clusters);
                ddv.set(c, SeqNum(k));
                // Ring dependency: heard from the left neighbour up to k-1.
                ddv.set((c + clusters - 1) % clusters, SeqNum(k.saturating_sub(1)));
                store.commit(
                    ClcMeta {
                        sn: SeqNum(k),
                        ddv: std::sync::Arc::new(ddv),
                        committed_at: SimTime(k),
                        forced: false,
                    },
                    (),
                );
            }
            store
        })
        .collect();
    let mut stamps = 0u64;
    for _ in 0..rounds {
        let lists: Vec<Vec<(SeqNum, std::sync::Arc<hc3i_core::Ddv>)>> = stores
            .iter()
            .enumerate()
            .map(|(c, s)| {
                // The coordinator's reply message, stamps shared in-process.
                let msg = Msg::GcDdvList {
                    cluster: c,
                    list: s.ddv_list(),
                };
                match msg {
                    Msg::GcDdvList { list, .. } => list,
                    _ => unreachable!(),
                }
            })
            .collect();
        stamps += lists.iter().map(|l| l.len() as u64).sum::<u64>();
        let mins = gc::safe_minimum_sns_k(&lists, 1);
        assert_eq!(std::hint::black_box(mins).len(), clusters);
    }
    stamps
}

/// CLC-commit micro: a cluster whose nodes carry a populated delivery
/// record runs `commits` full two-phase CLC rounds (freeze → fragment
/// fan-out → ack → commit). This is the path the copy-on-write
/// delivered-record and the batched fragment fan-out target: staging used
/// to deep-clone the per-node `delivered` map at every freeze. "Events"
/// is committed CLCs.
fn clc_commit_micro(deliveries: u64, commits: u64) -> u64 {
    use hc3i_core::testkit::InstantFederation;
    use hc3i_core::{AppPayload, ProtocolConfig};

    let mut fed = InstantFederation::new(ProtocolConfig::new(vec![4, 1]));
    // Populate the delivery records of cluster 0's nodes with inter-cluster
    // traffic from cluster 1.
    for k in 0..deliveries {
        fed.app_send(
            NodeId::new(1, 0),
            NodeId::new(0, (k % 4) as u32),
            AppPayload { bytes: 64, tag: k },
        );
    }
    for _ in 0..commits {
        fed.fire_clc_timer(0);
    }
    let (unforced, _) = fed.clc_counts(0);
    assert!(unforced as u64 >= commits);
    commits
}

/// Deep-queue micro: a *window-dense* 8 clusters x 2 nodes federation
/// with enough traffic (mostly intra-cluster, per the paper's
/// communication model) that tens of thousands of deliveries are in
/// flight at once — 68 k pending events at peak, 19.5 k on average,
/// against about 10³ everywhere else in the suite. The one entry in the
/// regime where a bucketed timing structure could beat the binary heap,
/// so a queue change that helps the shallow case and hurts the deep one
/// shows here (`bench/ABLATIONS.md` has the A/B that chose the heap).
fn deep_queue_micro(secs: u64, intra_per_cluster: u64, inter_per_pair: u64) -> u64 {
    const CLUSTERS: usize = 8;
    const NODES: u32 = 2;
    let topo = Topology::new(
        vec![
            ClusterSpec {
                nodes: NODES,
                intra: LinkSpec::myrinet_like(),
            };
            CLUSTERS
        ],
        LinkSpec::ethernet_like(),
    );
    let duration = SimDuration::from_secs(secs);
    let mut counts = vec![vec![0u64; CLUSTERS]; CLUSTERS];
    for (c, row) in counts.iter_mut().enumerate() {
        row[c] = intra_per_cluster;
        row[(c + 1) % CLUSTERS] = inter_per_pair;
    }
    let w = TargetCountWorkload {
        cluster_sizes: vec![NODES; CLUSTERS],
        duration,
        counts,
        payload_bytes: 256,
    };
    let sends = w.schedule(&RngStreams::new(7));
    let cfg = SimConfig::new(topo, duration)
        .with_sends(sends)
        .with_seed(7)
        .with_protocol(ProtocolConfig::new(vec![NODES; CLUSTERS]));
    simdriver::run(cfg).events_processed
}

fn run_suite(quick: bool, seed: u64) -> Vec<Entry> {
    let reps = if quick { 1 } else { 3 };
    // Every regression-gated entry (see `gated`) runs best-of-3 even in
    // --quick mode: a single sample on a noisy CI runner can easily sit
    // >20% off the reference-machine baseline and fail the gate spuriously.
    // Each gated run is ~10-15 ms, so the extra reps cost nothing.
    let gated_reps = reps.max(3);
    let mut entries = Vec::new();

    // First so it doubles as a warm-up. Best-of-9: everything normalized
    // against this entry inherits its noise, and what the gate needs from
    // it is the host's quiet-floor rate — stable across runs on one
    // machine, different across machines — not a sample of this run's
    // ambient load (per-entry best-of-N already absorbs load spikes).
    let calib_iters = 1_000_000u64;
    eprintln!("timing calibration ({calib_iters} mix+chase iterations)…");
    entries.push(entry(
        "calibration",
        "machine-speed spin + 16 MiB dependent-load chase (host-only cost; normalizes the gated rates)",
        gated_reps.max(9),
        || calibration_spin(calib_iters),
    ));

    eprintln!("timing event_loop_reference…");
    entries.push(entry(
        "event_loop_reference",
        "2x100 nodes, 10 h, 103 reverse msgs, GC 2 h (~75k events)",
        gated_reps,
        || simdriver::run(reference_config(seed, PiggybackMode::SnOnly)).events_processed,
    ));

    eprintln!("timing event_loop_full_ddv…");
    entries.push(entry(
        "event_loop_full_ddv",
        "same reference workload under FullDdv piggybacking",
        gated_reps,
        || simdriver::run(reference_config(seed, PiggybackMode::FullDdv)).events_processed,
    ));

    eprintln!("timing figure_regen_table1…");
    entries.push(entry(
        "figure_regen_table1",
        "Table 1 regeneration (one reference run)",
        reps,
        || experiments::table1(seed).events_processed,
    ));

    let fig6_axis: &[u64] = if quick { &[30] } else { &[10, 30, 60, 120] };
    eprintln!("timing figure_regen_figure6 ({} points)…", fig6_axis.len());
    entries.push(entry(
        "figure_regen_figure6",
        "Figure 6/7 regeneration (timer sweep)",
        1,
        || {
            experiments::figure6_7(fig6_axis, seed)
                .iter()
                .map(|r| r.events)
                .sum()
        },
    ));

    let scaling_axis: &[usize] = if quick {
        &[2, 4, 8]
    } else {
        &[2, 3, 4, 6, 8, 12]
    };
    eprintln!("timing scaling_ring ({} points)…", scaling_axis.len());
    entries.push(entry(
        "scaling_ring",
        "federation-scaling sweep (ring traffic, 20-node clusters)",
        1,
        || {
            experiments::federation_scaling(scaling_axis, seed)
                .iter()
                .map(|r| r.events)
                .sum()
        },
    ));

    // The channel-backed entries below also keep their full workload in
    // --quick mode: they are gated against full-mode baseline files on
    // events/s, so the workload per event must match.

    // The shard channel in isolation (the serialization point the
    // lock-free MPSC rewrite targets).
    let (pump_senders, pump_msgs) = (4, 100_000);
    eprintln!("timing channel_throughput ({pump_senders}x{pump_msgs} messages)…");
    entries.push(entry(
        "channel_throughput",
        "lock-free MPSC micro: 4 producer threads into one drained channel (msgs, msgs/s)",
        gated_reps,
        || channel_pump(pump_senders, pump_msgs),
    ));

    // The live substrate: the sharded executor end-to-end. Full-size wave
    // in quick mode too: a 2k-message wave is dominated by the fixed
    // spawn/shutdown cost, which made its rate incomparable with full-mode
    // baselines and the regression gate permanently red.
    let wave = 8_000;
    eprintln!("timing runtime_throughput ({wave} messages)…");
    entries.push(entry(
        "runtime_throughput",
        "sharded runtime: 64 nodes on the default pool, ring wave end-to-end (msgs, msgs/s)",
        gated_reps,
        || runtime_wave(wave),
    ));

    // The checkpoint/GC data plane in isolation (the copy-on-write
    // refactor's two hot paths). Full workload in --quick mode too: gated
    // on events/s against full-mode baselines.
    let (gc_clusters, gc_clcs, gc_rounds) = (16, 64, 32);
    eprintln!("timing gc_round ({gc_clusters} clusters x {gc_clcs} CLCs, {gc_rounds} rounds)…");
    entries.push(entry(
        "gc_round",
        "GC round micro: Arc-shared DDV-list collection + k=1 safe-minimum analysis (stamps, stamps/s)",
        gated_reps,
        || gc_round_micro(gc_clusters, gc_clcs, gc_rounds),
    ));

    let (ckpt_deliveries, ckpt_commits) = (512, 2048);
    eprintln!("timing clc_commit ({ckpt_deliveries} deliveries, {ckpt_commits} commits)…");
    entries.push(entry(
        "clc_commit",
        "CLC 2PC micro: 4-node cluster, populated delivery record, full freeze/commit rounds (commits, commits/s)",
        gated_reps,
        || clc_commit_micro(ckpt_deliveries, ckpt_commits),
    ));

    // The event loop with a deep pending set (see `deep_queue_micro`).
    let (deep_secs, deep_intra, deep_inter) = (1u64, 50_000u64, 6_000u64);
    eprintln!(
        "timing event_loop_deep_queue ({deep_secs} sim-seconds, {deep_intra} intra + {deep_inter} inter sends/cluster)…"
    );
    entries.push(entry(
        "event_loop_deep_queue",
        "window-dense 8x2 federation, 10^4-10^5 events pending (events, events/s)",
        gated_reps,
        || deep_queue_micro(deep_secs, deep_intra, deep_inter),
    ));

    // The crash-recovery data plane: rebuild 2048 node chains from a
    // committed segment log. The image is built once, outside the timed
    // region (manual sync, single segment); every rep replays the same
    // on-disk bytes, so the entry isolates `storage::recover` — the cost
    // a federation pays between a hard kill and serving again. Same image
    // in --quick mode: gated on entries/s against full-mode baselines.
    let recovery_dir =
        std::env::temp_dir().join(format!("hc3i-bench-recovery-{}", std::process::id()));
    eprintln!("building recovery image (2048 nodes x 12 CLCs)…");
    build_recovery_image(&recovery_dir);
    eprintln!("timing recovery_from_disk…");
    entries.push(entry(
        "recovery_from_disk",
        "durable-log recovery: 2048-node (128x16) segment log replayed to CLC chains (entries, entries/s)",
        gated_reps,
        || recovery_from_disk(&recovery_dir),
    ));
    let _ = std::fs::remove_dir_all(&recovery_dir);

    // North-star smoke: a 100-cluster federation runs to completion.
    let wide = if quick { (32usize, 1u64) } else { (100, 2) };
    eprintln!("timing scaling_wide ({} clusters)…", wide.0);
    entries.push(entry(
        if quick {
            "scaling_32_clusters"
        } else {
            "scaling_100_clusters"
        },
        "wide-federation ring (4-node clusters) to completion",
        gated_reps,
        || simdriver::run(ring_config(wide.0, 4, wide.1, seed)).events_processed,
    ));

    // Order-of-magnitude scale: 1024 clusters of 100 nodes = 102,400
    // engines through the executive to completion. Same size in
    // both modes (it is the artifact CI's runtime-scale job asserts on),
    // single rep: at seconds of wall per run the relative timer noise is
    // already far below the gate threshold.
    let (mega_clusters, mega_nodes) = (1024usize, 100u32);
    eprintln!(
        "timing scaling_mega ({mega_clusters}x{mega_nodes} = {} nodes)…",
        mega_clusters as u32 * mega_nodes
    );
    entries.push(entry(
        "scaling_mega",
        "mega-federation ring (1024 clusters x 100 nodes) to completion",
        1,
        || simdriver::run(ring_config(mega_clusters, mega_nodes, 1, seed)).events_processed,
    ));

    entries
}

// ---- artifact writers ------------------------------------------------------

fn json(entries: &[Entry], quick: bool, seed: u64, old: Option<&[OldEntry]>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": 1,\n");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    // A constant since the crates.io overlay was removed; kept so
    // recordings and `--compare` stay schema-compatible.
    s.push_str("  \"deps\": \"vendored\",\n");
    let _ = writeln!(s, "  \"seed\": {seed},");
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let before = old.and_then(|o| o.iter().find(|o| o.name == e.name).map(|o| o.wall_ms));
        s.push_str("    {");
        let _ = write!(
            s,
            "\"name\": \"{}\", \"wall_ms\": {:.2}, \"events\": {}, \"events_per_sec\": {:.0}",
            e.name, e.wall_ms, e.events, e.events_per_sec
        );
        if let Some(b) = before {
            let _ = write!(
                s,
                ", \"before_wall_ms\": {:.2}, \"speedup\": {:.2}",
                b,
                b / e.wall_ms
            );
        }
        s.push('}');
        s.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn markdown(entries: &[Entry], quick: bool, seed: u64, old: Option<&[OldEntry]>) -> String {
    let mut s = String::new();
    s.push_str("# Bench baselines\n\n");
    let _ = writeln!(
        s,
        "Recorded by `cargo run --release -p hc3i-bench --bin hc3i_baselines`\n\
         (mode: {}, deps: vendored, seed: {seed}, best-of-N wall times on the\n\
         reference machine that produced `BASELINES.json`). Rerun with\n\
         `--compare BASELINES.json` after a perf change to get before/after\n\
         columns.\n",
        if quick { "quick" } else { "full" }
    );
    if old.is_some() {
        s.push_str(
            "| entry | what | before (ms) | after (ms) | speedup | events | events/s |\n\
             |---|---|---:|---:|---:|---:|---:|\n",
        );
    } else {
        s.push_str(
            "| entry | what | wall (ms) | events | events/s |\n\
             |---|---|---:|---:|---:|\n",
        );
    }
    for e in entries {
        let before = old.and_then(|o| o.iter().find(|o| o.name == e.name).map(|o| o.wall_ms));
        match before {
            Some(b) => {
                let _ = writeln!(
                    s,
                    "| `{}` | {} | {:.1} | {:.1} | {:.2}x | {} | {:.0} |",
                    e.name,
                    e.what,
                    b,
                    e.wall_ms,
                    b / e.wall_ms,
                    e.events,
                    e.events_per_sec
                );
            }
            // In compare mode an entry absent from the old recording (a
            // newly added bench) still has to fill all seven columns.
            None if old.is_some() => {
                let _ = writeln!(
                    s,
                    "| `{}` | {} | — | {:.1} | new | {} | {:.0} |",
                    e.name, e.what, e.wall_ms, e.events, e.events_per_sec
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "| `{}` | {} | {:.1} | {} | {:.0} |",
                    e.name, e.what, e.wall_ms, e.events, e.events_per_sec
                );
            }
        }
    }
    s.push_str(
        "\n## Ungated entries\n\n\
         `scaling_mega` (the 102,400-node ring) is a single-rep wall-time\n\
         recording, not rate-gated (see `gated` in the source); CI's\n\
         `runtime-scale` job asserts its wall-clock ceiling and a ceiling\n\
         on the run's peak RSS (`rss_ceiling_kb` there: 1.5 x the measured\n\
         peak). `calibration` is the normalizer.\n",
    );
    s
}

/// One entry of a previous `BASELINES.json`, as far as the regression gate
/// and the before/after columns need it.
struct OldEntry {
    name: String,
    wall_ms: f64,
    events_per_sec: f64,
}

/// Extract a numeric field from one flat-JSON entry line.
fn parse_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let at = line.find(&tag)?;
    let s: String = line[at + tag.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    s.parse().ok()
}

/// Parse a previous `BASELINES.json` (the flat line-per-entry format
/// written by this binary; no external JSON dependency in the offline
/// workspace).
fn parse_old(json: &str) -> Vec<OldEntry> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = rest[..name_end].to_string();
        let Some(wall_ms) = parse_field(line, "wall_ms") else {
            continue;
        };
        out.push(OldEntry {
            name,
            wall_ms,
            events_per_sec: parse_field(line, "events_per_sec").unwrap_or(0.0),
        });
    }
    out
}

// ---- regression gate -------------------------------------------------------

/// Entries the CI regression gate protects: the sharded-runtime and channel
/// hot paths, the simulator event loop, the figure-regeneration sweep, the
/// checkpoint/GC data-plane micros (zero-clone GC stamp lists +
/// copy-on-write CLC staging), the durable-log recovery replay, and the
/// wide-federation scale sweep. Deliberately absent: `calibration` (it is
/// the normalizer, not a measurement of repo code) and `scaling_mega` (a
/// single rep lasting seconds samples so much ambient load that its rate
/// swings >2x between identical runs on a busy host); the latter is
/// instead gated by the wall-clock ceiling in CI's runtime-scale job,
/// which a complexity-class regression cannot hide from.
fn gated(name: &str) -> bool {
    name.starts_with("event_loop")
        || name == "runtime_throughput"
        || name == "channel_throughput"
        || name == "gc_round"
        || name == "clc_commit"
        || name == "recovery_from_disk"
        || name == "figure_regen_figure6"
        || name == "scaling_100_clusters"
}

/// Gate threshold for *normalized* comparisons (both artifacts carry a
/// `calibration` entry): dividing each rate by the same-run calibration
/// floor cancels the machine-speed gap between the recording host and
/// the judging host, so the gate no longer needs headroom for "CI runner
/// slower than reference VM" and can sit tighter than the raw-rate 20%.
/// Not zero-headroom, though: the normalized ratio still carries the
/// entries' own best-of-N timer jitter plus the calibration's residual
/// run-to-run wobble (a few percent each).
const NORMALIZED_GATE: f64 = 0.15;

/// Compare gated entries against the old baselines; return the offenders as
/// `(name, metric, regression)` where `regression` is the fractional
/// slowdown (0.25 = 25% worse). Rates are preferred over wall times so
/// `--quick` runs (smaller workloads, same per-event cost) gate cleanly
/// against full-mode baseline files; rates are normalized by the same-run
/// `calibration` rate whenever both sides recorded one (see
/// [`NORMALIZED_GATE`]).
fn regressions(entries: &[Entry], old: &[OldEntry], threshold: f64) -> Vec<(String, String, f64)> {
    let cal_new = entries
        .iter()
        .find(|e| e.name == "calibration")
        .map(|e| e.events_per_sec)
        .filter(|r| *r > 0.0);
    let cal_old = old
        .iter()
        .find(|o| o.name == "calibration")
        .map(|o| o.events_per_sec)
        .filter(|r| *r > 0.0);
    let mut out = Vec::new();
    for e in entries.iter().filter(|e| gated(e.name)) {
        let Some(o) = old.iter().find(|o| o.name == e.name) else {
            continue;
        };
        let (slowdown, metric, limit) = if e.events_per_sec > 0.0 && o.events_per_sec > 0.0 {
            if let (Some(cn), Some(co)) = (cal_new, cal_old) {
                let (new_norm, old_norm) = (e.events_per_sec / cn, o.events_per_sec / co);
                (
                    old_norm / new_norm - 1.0,
                    format!(
                        "{:.0} -> {:.0} events/s ({:.4} -> {:.4} normalized)",
                        o.events_per_sec, e.events_per_sec, old_norm, new_norm
                    ),
                    threshold.min(NORMALIZED_GATE),
                )
            } else {
                (
                    o.events_per_sec / e.events_per_sec - 1.0,
                    format!(
                        "{:.0} -> {:.0} events/s",
                        o.events_per_sec, e.events_per_sec
                    ),
                    threshold,
                )
            }
        } else {
            (
                e.wall_ms / o.wall_ms - 1.0,
                format!("{:.1} -> {:.1} ms", o.wall_ms, e.wall_ms),
                threshold,
            )
        };
        if slowdown > limit {
            out.push((e.name.to_string(), metric, slowdown));
        }
    }
    out
}

// ---- determinism fingerprint ----------------------------------------------

/// Debug-dump a set of seeded reference runs. Any code change that
/// preserves the determinism contract must reproduce this file
/// byte-for-byte: CI `cmp`s it against `bench/FINGERPRINT.txt`.
fn fingerprint() -> String {
    let mut s = String::new();
    for seed in [20040426u64, 7, 424242] {
        let r = simdriver::run(reference_config(seed, PiggybackMode::SnOnly));
        let _ = writeln!(s, "reference sn_only seed={seed}\n{r:#?}\n");
        let r = simdriver::run(reference_config(seed, PiggybackMode::FullDdv));
        let _ = writeln!(s, "reference full_ddv seed={seed}\n{r:#?}\n");
    }
    // Faulty run: rollback + alert + replay paths.
    let mut cfg = reference_config(20040426, PiggybackMode::SnOnly);
    for h in 1..8u64 {
        cfg = cfg.with_fault(
            SimTime::ZERO + SimDuration::from_minutes(h * 60 + 11),
            NodeId::new((h % 2) as u16, (h * 13 % 100) as u32),
        );
    }
    let r: RunReport = simdriver::run(cfg);
    let _ = writeln!(s, "reference faulty seed=20040426\n{r:#?}\n");
    // Wide ring: many clusters, forced-CLC heavy.
    let r = simdriver::run(ring_config(12, 4, 2, 20040426));
    let _ = writeln!(s, "ring 12x4 seed=20040426\n{r:#?}\n");
    // Hostile ring: duplication + reordering + a lossy wire behind the
    // reliable transport. The hostile ledger is fingerprinted alongside
    // the report, so the per-pair RNG streams and the canonical inbox
    // order are pinned too.
    let spec = HostileSpec::seeded(20040426)
        .with_duplication(0.10, SimDuration::from_millis(1))
        .with_reorder(0.10, SimDuration::from_micros(500))
        .with_loss(0.05);
    let cfg = ring_config(6, 4, 1, 20040426)
        .with_hostile(spec)
        .with_reliable_transport();
    let (r, h) = simdriver::run_hostile(cfg);
    let _ = writeln!(s, "ring hostile 6x4 seed=20040426\n{r:#?}\n{h:#?}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json_path = None;
    let mut md_path = None;
    let mut compare_path = None;
    let mut fingerprint_path = None;
    let mut fail_on_regression = None;
    let mut seed = experiments::DEFAULT_SEED;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json_path = it.next().cloned(),
            "--md" => md_path = it.next().cloned(),
            "--compare" => compare_path = it.next().cloned(),
            "--fingerprint" => fingerprint_path = it.next().cloned(),
            "--fail-on-regression" => {
                fail_on_regression = Some(
                    it.next()
                        .and_then(|s| s.parse::<f64>().ok())
                        .expect("--fail-on-regression needs a fraction, e.g. 0.20"),
                )
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an integer")
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = fingerprint_path {
        eprintln!("writing determinism fingerprint to {path}…");
        std::fs::write(&path, fingerprint()).expect("write fingerprint");
        // A fingerprint-only invocation skips the timing suite entirely.
        if json_path.is_none() && md_path.is_none() && compare_path.is_none() {
            return;
        }
    }

    let old_pairs = compare_path.map(|p| {
        let text = std::fs::read_to_string(&p).expect("read --compare file");
        parse_old(&text)
    });
    let old = old_pairs.as_deref();

    let entries = run_suite(quick, seed);
    let json_text = json(&entries, quick, seed, old);
    let md_text = markdown(&entries, quick, seed, old);
    print!("{md_text}");
    if let Some(p) = json_path {
        std::fs::write(&p, &json_text).expect("write json");
        eprintln!("wrote {p}");
    }
    if let Some(p) = md_path {
        std::fs::write(&p, &md_text).expect("write md");
        eprintln!("wrote {p}");
    }

    if let Some(threshold) = fail_on_regression {
        let old = old.expect("--fail-on-regression requires --compare OLD.json");
        let offenders = regressions(&entries, old, threshold);
        if offenders.is_empty() {
            eprintln!(
                "regression gate OK: no gated entry more than {:.0}% worse than the baseline \
                 ({:.0}% for calibration-normalized rates)",
                threshold * 100.0,
                (threshold.min(NORMALIZED_GATE)) * 100.0
            );
        } else {
            for (name, metric, slowdown) in &offenders {
                eprintln!(
                    "REGRESSION {name}: {metric} ({:.0}% worse, threshold {:.0}%)",
                    slowdown * 100.0,
                    threshold * 100.0
                );
            }
            std::process::exit(1);
        }
    }
}
