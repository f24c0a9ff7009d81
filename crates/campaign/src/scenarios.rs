//! The adversarial scenario library.
//!
//! Each [`Scenario`] maps a topology preset and a seed to a runnable
//! [`SimConfig`] plus the fault waves and GC expectations the invariant
//! checkers need. Scenarios are deliberately small (tens of nodes, half an
//! hour of simulated time) so the full scenario × topology × seed matrix
//! stays cheap enough for CI while still driving partitions, heals,
//! duplication storms, churn and flash crowds through the real protocol.

use crate::invariants::{FaultWave, GcExpectation};
use desim::{RngStreams, SimDuration, SimTime};
use hc3i_core::ReplicationPolicy;
use netsim::{ClusterSpec, HostileSpec, LatencyDist, LinkSpec, Mix64, NodeId, Topology};
use simdriver::SimConfig;
use workload::{BurstyWorkload, SendEvent, TargetCountWorkload, Workload};

/// Simulated application length of every scenario.
const DURATION_MIN: u64 = 30;
/// Workload sends stop two minutes before the horizon so every in-flight
/// message (including partition-held ones) can drain before the run ends.
const WORKLOAD_MIN: u64 = DURATION_MIN - 2;
/// Unforced-CLC period of every cluster.
const CLC_MIN: u64 = 2;
/// GC period.
const GC_MIN: u64 = 5;
/// Fault-wave window width: covers detection latency (100 ms) and
/// cross-cluster cascade propagation with wide margin.
const WAVE_MIN: u64 = 5;

fn minutes(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_minutes(m)
}

/// Topology presets the campaign sweeps: `(name, topology)`.
pub fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        (
            "lan_pair",
            Topology::new(
                vec![
                    ClusterSpec {
                        nodes: 6,
                        intra: LinkSpec::myrinet_like(),
                    };
                    2
                ],
                LinkSpec::ethernet_like(),
            ),
        ),
        (
            "wan_triangle",
            Topology::new(
                vec![
                    ClusterSpec {
                        nodes: 4,
                        intra: LinkSpec::myrinet_like(),
                    };
                    3
                ],
                LinkSpec::wan_like(),
            ),
        ),
        // The paper's own per-cluster scale (100 nodes, §5): hostile runs
        // where every CLC round fans a request/commit broadcast out to 100
        // engines, exercising the same-instant delivery batching that the
        // small presets cannot.
        (
            "paper_scale",
            Topology::new(
                vec![
                    ClusterSpec {
                        nodes: 100,
                        intra: LinkSpec::myrinet_like(),
                    };
                    2
                ],
                LinkSpec::ethernet_like(),
            ),
        ),
    ]
}

/// A scenario instantiated for one topology and seed: the runnable config
/// plus what the invariants should expect of it.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The simulation configuration (delivery ledger always on).
    pub cfg: SimConfig,
    /// Declared fault waves (empty = no rollback is legitimate).
    pub waves: Vec<FaultWave>,
    /// GC liveness expectation.
    pub gc: GcExpectation,
}

/// A named scenario of the library.
pub struct Scenario {
    /// Stable identifier (appears in the campaign summary and golden).
    pub name: &'static str,
    /// One-line description.
    pub describe: &'static str,
    build: fn(&Topology, u64) -> ScenarioRun,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .finish()
    }
}

impl Scenario {
    /// Instantiate for a topology and seed.
    pub fn build(&self, topo: &Topology, seed: u64) -> ScenarioRun {
        (self.build)(topo, seed)
    }
}

/// Cluster sizes of a topology.
fn sizes(topo: &Topology) -> Vec<u32> {
    topo.cluster_ids().map(|c| topo.nodes_in(c)).collect()
}

/// The scenarios' common chassis with a target-count workload (40 intra
/// per cluster, 12 per directed inter pair).
fn base_config(topo: &Topology, seed: u64) -> SimConfig {
    let sizes = sizes(topo);
    let n = sizes.len();
    let counts: Vec<Vec<u64>> = (0..n)
        .map(|i| (0..n).map(|j| if i == j { 40 } else { 12 }).collect())
        .collect();
    let sends = TargetCountWorkload {
        cluster_sizes: sizes,
        duration: SimDuration::from_minutes(WORKLOAD_MIN),
        counts,
        payload_bytes: 512,
    }
    .schedule(&RngStreams::new(seed));
    chassis(topo, seed, sends)
}

/// The scenarios' common chassis: `sends`, periodic CLCs, periodic GC
/// and the delivery ledger.
fn chassis(topo: &Topology, seed: u64, sends: Vec<SendEvent>) -> SimConfig {
    let mut cfg = SimConfig::new(topo.clone(), SimDuration::from_minutes(DURATION_MIN))
        .with_sends(sends)
        .with_gc_interval(SimDuration::from_minutes(GC_MIN))
        .with_seed(seed)
        .with_delivery_ledger();
    for c in 0..topo.num_clusters() {
        cfg = cfg.with_clc_delay(c, SimDuration::from_minutes(CLC_MIN));
    }
    cfg
}

fn wave(at_min: u64, direct: Vec<usize>) -> FaultWave {
    FaultWave {
        from: minutes(at_min),
        until: minutes(at_min + WAVE_MIN),
        direct,
    }
}

fn gc_expectation() -> GcExpectation {
    GcExpectation {
        min_collections: 3,
        max_after: 16,
    }
}

/// Partition + heal: cluster 0 is cut off mid-run, messages held across
/// the cut drain at the heal, and a later fault exercises recovery over
/// the healed network.
fn partition_heal(topo: &Topology, seed: u64) -> ScenarioRun {
    let cfg = base_config(topo, seed)
        .with_partition(minutes(10), minutes(12), vec![0])
        .with_fault(minutes(20), NodeId::new(0, 1));
    ScenarioRun {
        cfg,
        waves: vec![wave(20, vec![0])],
        gc: gc_expectation(),
    }
}

/// Duplication/reorder storm: a quarter of all inter-cluster messages are
/// duplicated, a quarter reordered, with an asymmetric latency skew on the
/// 0 → 1 direction, plus one fault in the last cluster.
fn dup_reorder_storm(topo: &Topology, seed: u64) -> ScenarioRun {
    let last = topo.num_clusters() - 1;
    let spec = HostileSpec::seeded(seed ^ 0xD00D)
        .with_duplication(0.25, SimDuration::from_millis(2))
        .with_reorder(0.25, SimDuration::from_millis(1))
        .with_skew(
            0,
            1,
            LatencyDist {
                base: SimDuration::from_micros(200),
                jitter: SimDuration::from_micros(300),
            },
        );
    let cfg = base_config(topo, seed)
        .with_hostile(spec)
        .with_fault(minutes(18), NodeId::new(last as u16, 1));
    ScenarioRun {
        cfg,
        waves: vec![wave(18, vec![last])],
        gc: gc_expectation(),
    }
}

/// Node churn under a partition: three seeded churn waves, each failing
/// two nodes of one cluster simultaneously (replication degree 2 keeps
/// every pair recoverable), with a partition cut between the waves and
/// light duplication throughout.
fn churn_partition(topo: &Topology, seed: u64) -> ScenarioRun {
    let sizes = sizes(topo);
    let n = sizes.len();
    let mut mix = Mix64::new(seed ^ 0xC4C4);
    let mut cfg = base_config(topo, seed)
        .with_protocol(
            hc3i_core::ProtocolConfig::new(sizes.clone())
                .with_replication(ReplicationPolicy::with_degree(2)),
        )
        .with_hostile(
            HostileSpec::seeded(seed ^ 0xC4C5).with_duplication(0.1, SimDuration::from_millis(1)),
        )
        .with_partition(minutes(12), minutes(13), vec![0]);
    let mut waves = Vec::new();
    for at_min in [8u64, 16, 24] {
        let cluster = mix.below(n as u64) as usize;
        let sz = sizes[cluster] as u64;
        let r1 = mix.below(sz) as u32;
        let r2 = ((r1 as u64 + 1 + mix.below(sz - 1)) % sz) as u32;
        cfg = cfg
            .with_fault(minutes(at_min), NodeId::new(cluster as u16, r1))
            .with_fault(minutes(at_min), NodeId::new(cluster as u16, r2));
        waves.push(wave(at_min, vec![cluster]));
    }
    ScenarioRun {
        cfg,
        waves,
        gc: gc_expectation(),
    }
}

/// Flash crowds on a heavy-tailed background over a duplicating,
/// reordering network — no faults, so any rollback at all is a violation.
fn flash_crowd_hostile(topo: &Topology, seed: u64) -> ScenarioRun {
    let sends = BurstyWorkload {
        cluster_sizes: sizes(topo),
        duration: SimDuration::from_minutes(WORKLOAD_MIN),
        cross_fraction: 0.15,
        crowds: 3,
        fanout: 3,
    }
    .schedule(&RngStreams::new(seed));
    let spec = HostileSpec::seeded(seed ^ 0xF1A5)
        .with_duplication(0.2, SimDuration::from_millis(1))
        .with_reorder(0.1, SimDuration::from_micros(500));
    let cfg = chassis(topo, seed, sends).with_hostile(spec);
    ScenarioRun {
        cfg,
        waves: vec![],
        gc: gc_expectation(),
    }
}

/// Lossy WAN: every inter-cluster link drops half its traffic, with the
/// reliable transport restoring exactly-once delivery underneath the
/// engines. One fault proves recovery — detection alerts, rollback fan-out,
/// sender-log replay — survives a wire this bad.
fn lossy_wan(topo: &Topology, seed: u64) -> ScenarioRun {
    let spec = HostileSpec::seeded(seed ^ 0x1055).with_loss(0.5);
    let cfg = base_config(topo, seed)
        .with_hostile(spec)
        .with_fault(minutes(14), NodeId::new(0, 1));
    ScenarioRun {
        cfg,
        waves: vec![wave(14, vec![0])],
        gc: gc_expectation(),
    }
}

/// Asymmetric cut: cluster 0's egress is severed for two minutes while its
/// ingress keeps flowing, so data reaches cluster 0 but the acks die on the
/// way back — only retransmission plus receiver-side dedup keeps the
/// outcome exactly-once. Light loss runs throughout, and a late fault
/// exercises recovery over the healed network.
fn asymmetric_cut(topo: &Topology, seed: u64) -> ScenarioRun {
    let spec = HostileSpec::seeded(seed ^ 0xA5CF).with_loss(0.1);
    let cfg = base_config(topo, seed)
        .with_hostile(spec)
        .with_oneway_partition(minutes(10), minutes(12), vec![0])
        .with_fault(minutes(20), NodeId::new(0, 1));
    ScenarioRun {
        cfg,
        waves: vec![wave(20, vec![0])],
        gc: gc_expectation(),
    }
}

/// Fault inside a closing partition: cluster 0 is cut off, one of its
/// nodes dies thirty seconds before the heal, so the rollback alert and
/// the ensuing cascade cross the healing cut — over a wire that then
/// drops a quarter of everything.
fn partition_during_cascade(topo: &Topology, seed: u64) -> ScenarioRun {
    let heal = minutes(18) + SimDuration::from_secs(30);
    let spec = HostileSpec::seeded(seed ^ 0xCA5C).with_loss(0.25);
    let cfg = base_config(topo, seed)
        .with_hostile(spec)
        .with_partition(minutes(16), heal, vec![0])
        .with_fault(minutes(18), NodeId::new(0, 1));
    ScenarioRun {
        cfg,
        waves: vec![wave(18, vec![0])],
        gc: gc_expectation(),
    }
}

/// The scenario library, in summary order.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "partition_heal",
            describe: "cluster 0 cut off and healed, then a fault over the healed network",
            build: partition_heal,
        },
        Scenario {
            name: "dup_reorder_storm",
            describe: "25% duplication + 25% reordering + asymmetric skew, one fault",
            build: dup_reorder_storm,
        },
        Scenario {
            name: "churn_partition",
            describe: "three 2-node churn waves (replication degree 2) around a partition",
            build: churn_partition,
        },
        Scenario {
            name: "flash_crowd_hostile",
            describe: "flash crowds on heavy-tailed traffic over a duplicating network",
            build: flash_crowd_hostile,
        },
        Scenario {
            name: "lossy_wan",
            describe: "50% inter-cluster packet loss under the reliable transport, one fault",
            build: lossy_wan,
        },
        Scenario {
            name: "asymmetric_cut",
            describe: "one-way egress cut of cluster 0 plus 10% loss, fault after the heal",
            build: asymmetric_cut,
        },
        Scenario {
            name: "partition_during_cascade",
            describe: "fault 30s before a partition heals, rollback cascade crosses the cut",
            build: partition_during_cascade,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_shape_meets_the_campaign_floor() {
        assert!(scenarios().len() >= 3, "campaign needs >= 3 scenarios");
        assert!(topologies().len() >= 2, "campaign needs >= 2 topologies");
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let (_, topo) = &topologies()[0];
        for s in scenarios() {
            let a = s.build(topo, 7);
            let b = s.build(topo, 7);
            assert_eq!(a.cfg.sends, b.cfg.sends, "{}", s.name);
            assert_eq!(a.cfg.faults, b.cfg.faults, "{}", s.name);
            assert_eq!(a.waves.len(), b.waves.len(), "{}", s.name);
        }
    }

    #[test]
    fn churn_waves_hit_one_cluster_with_distinct_ranks() {
        for (_, topo) in topologies() {
            for seed in [1u64, 2, 20040426] {
                let run = churn_partition(&topo, seed);
                assert_eq!(run.cfg.faults.len(), 6, "3 waves x 2 nodes");
                for pair in run.cfg.faults.chunks(2) {
                    assert_eq!(pair[0].at, pair[1].at);
                    assert_eq!(pair[0].node.cluster, pair[1].node.cluster);
                    assert_ne!(pair[0].node.rank, pair[1].node.rank);
                }
            }
        }
    }

    #[test]
    fn flash_crowds_send_between_ranks_of_unequal_clusters() {
        let cluster = |nodes| ClusterSpec {
            nodes,
            intra: LinkSpec::myrinet_like(),
        };
        let topo = Topology::new(vec![cluster(6), cluster(3)], LinkSpec::ethernet_like());
        let run = flash_crowd_hostile(&topo, 7);
        assert!(!run.cfg.sends.is_empty());
        for e in &run.cfg.sends {
            for node in [e.from, e.to] {
                assert_eq!(topo.check_node(node), Ok(()), "{e:?}");
            }
        }
    }

    #[test]
    fn workloads_end_before_the_horizon_margin() {
        let (_, topo) = &topologies()[1];
        for s in scenarios() {
            let run = s.build(topo, 3);
            let last = run.cfg.sends.iter().map(|e| e.at).max().unwrap();
            assert!(
                last < minutes(WORKLOAD_MIN),
                "{}: send at {last} past the workload window",
                s.name
            );
        }
    }
}
