//! Property test: the conservative parallel executive is invisible.
//!
//! Each case builds a random scripted scenario — application sends,
//! manual checkpoints, faults, garbage collections, periodic CLC timers,
//! and optionally a hostile-network spec (duplication, reordering, loss
//! behind the reliable transport, scripted partitions) — and runs the
//! *identical* `SimConfig` at simulator shard counts {1, 2, 4, 8}.
//!
//! The `Debug` dump of a `RunReport` is the repo's fingerprint artifact
//! (`hc3i_baselines --fingerprint` diffs exactly these dumps), so the
//! oracle here is the strongest one available: every run must produce a
//! byte-identical report dump, and hostile runs must also agree on the
//! side statistics (counters and the per-tag delivery ledger). This
//! mirrors how `tests/runtime_equivalence.rs` proves the threaded runtime
//! against the simulator, and how PR 7 proved the calendar queue against
//! the retained heap. Every shard is the same `SimHost` over the same
//! shared interpreter, so the oracle checks the executive's routing and
//! merge (inbox keys, outbox exchange, ledger union), not a second copy
//! of the hosting logic.
//!
//! A deterministic suite below covers the parallel executive's edge
//! cases: shards with no local events, cross-shard arrivals tied at one
//! instant, lookahead shrunk by a fast link override, shard counts above
//! the cluster count, and durable runs degrading to the sequential path.

use desim::{RngStreams, SimDuration, SimTime};
use hc3i::prelude::*;
use netsim::{ClusterSpec, HostileSpec, LinkSpec, NodeId, Topology};
use proptest::prelude::*;

const CLUSTERS: usize = 8;
const PER_CLUSTER: u32 = 3;
const NODES: usize = CLUSTERS * PER_CLUSTER as usize;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn node(i: usize) -> NodeId {
    NodeId::new(
        (i / PER_CLUSTER as usize) as u16,
        (i % PER_CLUSTER as usize) as u32,
    )
}

fn topology() -> Topology {
    Topology::new(
        vec![
            ClusterSpec {
                nodes: PER_CLUSTER,
                intra: LinkSpec::myrinet_like(),
            };
            CLUSTERS
        ],
        LinkSpec::ethernet_like(),
    )
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Send { from: usize, to: usize },
    Checkpoint { cluster: usize },
    Fault { victim: usize },
    Gc,
}

#[derive(Debug, Clone)]
struct Scenario {
    steps: Vec<Step>,
    seed: u64,
    /// Periodic CLC timers on clusters 0 and 5 when set.
    timers: bool,
    /// Hostile model: (duplication %, reorder %, loss %); loss enables
    /// the reliable transport, as every real lossy config does.
    hostile: Option<(u8, u8, u8)>,
    /// Scripted partition: `(group size, oneway)` cutting the first
    /// clusters off mid-run.
    partition: Option<(usize, bool)>,
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            5 => (0u32..NODES as u32, 0u32..NODES as u32 - 1).prop_map(|(f, t)| {
                // Skip the sender's own slot so from != to.
                let to = if t >= f { t + 1 } else { t };
                Step::Send { from: f as usize, to: to as usize }
            }),
            2 => (0u32..CLUSTERS as u32).prop_map(|c| Step::Checkpoint { cluster: c as usize }),
            1 => (0u32..NODES as u32).prop_map(|v| Step::Fault { victim: v as usize }),
            1 => Just(Step::Gc),
        ],
        8..=20,
    )
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        steps_strategy(),
        any::<u64>(),
        any::<bool>(),
        prop_oneof![
            1 => Just(None),
            2 => (0u8..=25, 0u8..=25, 0u8..=10).prop_map(Some),
        ],
        prop_oneof![
            1 => Just(None),
            1 => (1usize..CLUSTERS, any::<bool>()).prop_map(Some),
        ],
    )
        .prop_map(|(steps, seed, timers, hostile, partition)| Scenario {
            steps,
            seed,
            timers,
            hostile,
            partition,
        })
}

fn build_config(s: &Scenario) -> SimConfig {
    let duration = SimDuration::from_secs(s.steps.len() as u64 + 5);
    let mut cfg = SimConfig::new(topology(), duration)
        .with_seed(s.seed)
        .with_delivery_ledger();
    let mut sends = Vec::new();
    for (k, step) in s.steps.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_secs(1 + k as u64);
        match *step {
            Step::Send { from, to } => sends.push(workload::SendEvent {
                at,
                from: node(from),
                to: node(to),
                bytes: 512,
            }),
            Step::Checkpoint { cluster } => cfg = cfg.with_scripted_clc(at, cluster),
            Step::Fault { victim } => cfg = cfg.with_fault(at, node(victim)),
            Step::Gc => cfg = cfg.with_scripted_gc(at),
        }
    }
    cfg = cfg.with_sends(sends);
    if s.timers {
        cfg = cfg
            .with_clc_delay(0, SimDuration::from_secs(2))
            .with_clc_delay(5, SimDuration::from_secs(3));
    }
    if let Some((dup, reorder, loss)) = s.hostile {
        let spec = HostileSpec::seeded(s.seed ^ 0xB057)
            .with_duplication(dup as f64 / 100.0, SimDuration::from_millis(1))
            .with_reorder(reorder as f64 / 100.0, SimDuration::from_micros(500))
            .with_loss(loss as f64 / 100.0);
        cfg = cfg.with_hostile(spec);
        if loss > 0 {
            cfg = cfg.with_reliable_transport();
        }
    }
    if let Some((group, oneway)) = s.partition {
        let at = SimTime::ZERO + SimDuration::from_secs(2);
        let until = SimTime::ZERO + SimDuration::from_secs(4);
        let cut: Vec<u16> = (0..group as u16).collect();
        cfg = if oneway {
            cfg.with_oneway_partition(at, until, cut)
        } else {
            cfg.with_partition(at, until, cut)
        };
    }
    cfg
}

/// Run at every shard count and assert byte-identical fingerprints.
fn assert_shard_invariant(cfg: &SimConfig, label: &str) {
    let (seq_report, seq_hostile) = simdriver::run_hostile(cfg.clone().with_sim_shards(1));
    let seq_fp = format!("{seq_report:?}");
    let seq_side = format!("{seq_hostile:?}");
    for shards in SHARD_COUNTS {
        if shards == 1 {
            continue;
        }
        let (report, hostile) = simdriver::run_hostile(cfg.clone().with_sim_shards(shards));
        assert_eq!(
            seq_fp,
            format!("{report:?}"),
            "report fingerprint diverged at {shards} shards: {label}"
        );
        assert_eq!(
            seq_side,
            format!("{hostile:?}"),
            "hostile side stats diverged at {shards} shards: {label}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_workloads_fingerprint_identically_across_shards(s in scenario_strategy()) {
        let cfg = build_config(&s);
        let (seq, _) = simdriver::run_hostile(cfg.clone().with_sim_shards(1));
        let seq_fp = format!("{seq:?}");
        for shards in SHARD_COUNTS {
            if shards == 1 {
                continue;
            }
            let (report, _) = simdriver::run_hostile(cfg.clone().with_sim_shards(shards));
            prop_assert_eq!(
                &seq_fp,
                &format!("{:?}", report),
                "diverged at {} shards on {:?}",
                shards,
                s
            );
        }
    }
}

// --- Deterministic edge cases of the parallel executive ------------------

/// Shards whose clusters see no traffic at all must idle through the whole
/// run (their only event is the horizon `End`) without perturbing anyone.
#[test]
fn empty_shards_idle_to_the_horizon() {
    let sends = vec![
        workload::SendEvent {
            at: SimTime::ZERO + SimDuration::from_secs(1),
            from: node(0),
            to: node(1),
            bytes: 256,
        },
        workload::SendEvent {
            at: SimTime::ZERO + SimDuration::from_secs(2),
            from: node(1),
            to: node(2),
            bytes: 256,
        },
    ];
    // All traffic inside cluster 0: shards 2..K own only silence.
    let cfg = SimConfig::new(topology(), SimDuration::from_secs(10)).with_sends(sends);
    assert_shard_invariant(&cfg, "empty shards");
    let report = simdriver::run(cfg.with_sim_shards(8));
    assert_eq!(report.app_delivered, 2);
    assert_eq!(report.ended_at, SimTime::ZERO + SimDuration::from_secs(10));
}

/// Two clusters on different shards send to a third so that both copies
/// arrive at the very same instant (identical link classes, identical
/// payloads, same send tick). The canonical inbox key must replay the tie
/// identically at every shard count.
#[test]
fn cross_shard_same_instant_ties_replay_identically() {
    let at = SimTime::ZERO + SimDuration::from_secs(1);
    let sends = vec![
        workload::SendEvent {
            at,
            from: node(0),                                   // cluster 0
            to: node((CLUSTERS - 1) * PER_CLUSTER as usize), // cluster 7, rank 0
            bytes: 512,
        },
        workload::SendEvent {
            at,
            from: node(PER_CLUSTER as usize), // cluster 1, rank 0
            to: node((CLUSTERS - 1) * PER_CLUSTER as usize),
            bytes: 512,
        },
    ];
    let cfg = SimConfig::new(topology(), SimDuration::from_secs(6))
        .with_sends(sends)
        .with_clc_delay(CLUSTERS - 1, SimDuration::from_secs(2));
    assert_shard_invariant(&cfg, "same-instant ties");
    let report = simdriver::run(cfg.with_sim_shards(4));
    assert_eq!(report.app_delivered, 2);
}

/// Overriding one cluster pair with a much faster link shrinks the
/// conservative lookahead federation-wide (150 µs → 20 µs here); the runs
/// stay identical, just with 7.5× tighter windows. (The null-message
/// fixpoint climbs one lookahead per publish round through quiet
/// stretches, so wall time scales with `duration / lookahead` — which is
/// also why this test shrinks the lookahead, not obliterates it.)
#[test]
fn shrunken_lookahead_stays_exact() {
    let mut topo = topology();
    topo.set_inter_link(
        netsim::ClusterId(2),
        netsim::ClusterId(3),
        LinkSpec {
            latency: SimDuration::from_micros(20),
            bandwidth_bps: 1_000_000_000,
        },
    );
    assert_eq!(topo.lookahead(), SimDuration::from_micros(20));
    let sends = TargetCountWorkload {
        cluster_sizes: vec![PER_CLUSTER; CLUSTERS],
        duration: SimDuration::from_secs(6),
        counts: {
            let mut m = vec![vec![0u64; CLUSTERS]; CLUSTERS];
            m[2][3] = 40;
            m[3][2] = 40;
            m[0][7] = 10;
            m[5][5] = 25;
            m
        },
        payload_bytes: 256,
    }
    .schedule(&RngStreams::new(41));
    let cfg = SimConfig::new(topo, SimDuration::from_secs(6))
        .with_sends(sends)
        .with_clc_delay(2, SimDuration::from_secs(2))
        .with_clc_delay(3, SimDuration::from_secs(3));
    assert_shard_invariant(&cfg, "shrunken lookahead");
}

/// MTBF fault placement walks one global RNG stream; each shard must keep
/// exactly its own victims, reproducing the sequential fault schedule.
#[test]
fn mtbf_faults_land_identically_across_shards() {
    let mut topo = topology();
    topo.mtbf = Some(SimDuration::from_secs(25));
    let sends = TargetCountWorkload {
        cluster_sizes: vec![PER_CLUSTER; CLUSTERS],
        duration: SimDuration::from_secs(80),
        counts: {
            let mut m = vec![vec![4u64; CLUSTERS]; CLUSTERS];
            for (c, row) in m.iter_mut().enumerate() {
                row[c] = 8;
            }
            m
        },
        payload_bytes: 256,
    }
    .schedule(&RngStreams::new(17));
    let cfg = SimConfig::new(topo, SimDuration::from_secs(80))
        .with_sends(sends)
        .with_seed(20040426)
        .with_clc_delay(0, SimDuration::from_secs(20))
        .with_clc_delay(4, SimDuration::from_secs(30));
    assert_shard_invariant(&cfg, "mtbf faults");
    let report = simdriver::run(cfg.with_sim_shards(4));
    assert!(report.total_rollbacks() >= 1, "MTBF faults must fire");
}

/// Asking for more shards than clusters clamps; asking on a durable run
/// degrades to the sequential path. Both must be silent no-ops for the
/// report.
#[test]
fn clamped_and_degraded_shard_counts_are_benign() {
    let sends = vec![workload::SendEvent {
        at: SimTime::ZERO + SimDuration::from_secs(1),
        from: node(0),
        to: node(PER_CLUSTER as usize),
        bytes: 512,
    }];
    let cfg = SimConfig::new(topology(), SimDuration::from_secs(5))
        .with_sends(sends)
        .with_scripted_clc(SimTime::ZERO + SimDuration::from_secs(2), 0);
    let seq = format!("{:?}", simdriver::run(cfg.clone().with_sim_shards(1)));
    // 64 shards over 8 clusters: clamped to 8.
    let clamped = format!("{:?}", simdriver::run(cfg.clone().with_sim_shards(64)));
    assert_eq!(seq, clamped);
    // Durable runs force the sequential executive (global commit-frame
    // order), whatever the requested shard count.
    let dir = std::env::temp_dir().join(format!("hc3i-par-durable-{}", std::process::id()));
    let durable = format!(
        "{:?}",
        simdriver::run(cfg.with_durable_dir(&dir).with_sim_shards(4))
    );
    assert_eq!(seq, durable);
    std::fs::remove_dir_all(&dir).ok();
}
