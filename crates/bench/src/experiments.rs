//! The paper's evaluation experiments (§5), one function per table/figure.
//!
//! Every run is one [`federation`]: a cluster per entry of the workload's
//! sizes (100 nodes each for the paper's 2 or 3 clusters), Myrinet-like
//! SANs, Ethernet-like inter-cluster links. The paper's runs take the
//! 10-hour Table 1 traffic; the wide-federation sweeps take a [`ring`].
//! Each function runs the full-fidelity simulation and returns the rows
//! the paper plots.

use desim::{RngStreams, SimDuration};
use hc3i_core::{PiggybackMode, ProtocolConfig};
use netsim::{ClusterSpec, LinkSpec, Topology};
use simdriver::{run, RunReport, SimConfig};
use workload::{TargetCountWorkload, Workload};

/// Default seed of the `regen` binary (and of `paper/RESULTS.md`).
pub(crate) const DEFAULT_SEED: u64 = 20040426; // the workshop date

/// `w`'s schedule at `seed` over one Myrinet-like cluster per entry of
/// `w.cluster_sizes`, joined by Ethernet-like links (with every size 100,
/// `Topology::paper_reference`). Cluster `c` takes an unforced CLC every
/// `clc_delays_min[c]` minutes (`None` or no entry: never); GC runs every
/// `gc_hours` hours (`None`: never).
pub(crate) fn federation(
    w: &TargetCountWorkload,
    clc_delays_min: &[Option<u64>],
    gc_hours: Option<u64>,
    piggyback: PiggybackMode,
    seed: u64,
) -> SimConfig {
    let clusters = w.cluster_sizes.iter().map(|&nodes| ClusterSpec {
        nodes,
        intra: LinkSpec::myrinet_like(),
    });
    let topology = Topology::new(clusters.collect(), LinkSpec::ethernet_like());
    let protocol = ProtocolConfig::new(w.cluster_sizes.clone()).with_piggyback(piggyback);
    let mut cfg = SimConfig::new(topology, w.duration)
        .with_sends(w.schedule(&RngStreams::new(seed)))
        .with_seed(seed)
        .with_protocol(protocol);
    for (c, d) in clc_delays_min.iter().enumerate() {
        if let Some(minutes) = d {
            cfg = cfg.with_clc_delay(c, SimDuration::from_minutes(*minutes));
        }
    }
    if let Some(h) = gc_hours {
        cfg = cfg.with_gc_interval(SimDuration::from_hours(h));
    }
    cfg
}

/// A ring of `n` clusters of `nodes` nodes over `hours` hours: each
/// cluster sends `local` messages inside itself, `next` to the next
/// cluster over and `skip` to the one after that.
pub(crate) fn ring(
    n: usize,
    nodes: u32,
    hours: u64,
    [local, next, skip]: [u64; 3],
) -> TargetCountWorkload {
    let mut counts = vec![vec![0u64; n]; n];
    for (i, row) in counts.iter_mut().enumerate() {
        row[i] += local;
        row[(i + 1) % n] += next;
        row[(i + 2) % n] += skip;
    }
    TargetCountWorkload {
        cluster_sizes: vec![nodes; n],
        duration: SimDuration::from_hours(hours),
        counts,
        payload_bytes: 1024,
    }
}

/// The reference run: 2 clusters x 100 nodes, 10 simulated hours, 103
/// reverse messages, 30-minute timers, GC every 2 h. Table 2 is its
/// report; `regen fingerprint` pins it in both piggyback modes.
pub(crate) fn reference(piggyback: PiggybackMode, seed: u64) -> SimConfig {
    let w = TargetCountWorkload::paper_with_reverse_count(103);
    federation(&w, &[Some(30), Some(30)], Some(2), piggyback, seed)
}

/// A paper run over the Table 1 traffic, SN-only piggybacking.
fn table1_run(clc_delays_min: &[Option<u64>], seed: u64) -> RunReport {
    let w = TargetCountWorkload::paper_table1();
    let cfg = federation(&w, clc_delays_min, None, PiggybackMode::SnOnly, seed);
    run(cfg)
}

// ---------------------------------------------------------------- Table 1

/// Table 1: application message counts of the reference workload.
pub(crate) fn table1(seed: u64) -> RunReport {
    table1_run(&[Some(30), None], seed)
}

// ------------------------------------------------------------ Figures 6–7

/// One sweep point of Figures 6 and 7.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig67Row {
    /// Cluster-0 timer (minutes).
    pub(crate) delay_min: u64,
    /// Unforced CLCs committed in cluster 0.
    pub(crate) c0_unforced: u64,
    /// Forced CLCs committed in cluster 0.
    pub(crate) c0_forced: u64,
    /// Unforced CLCs committed in cluster 1 (timer is infinite: expect 0).
    pub(crate) c1_unforced: u64,
    /// Forced CLCs committed in cluster 1.
    pub(crate) c1_forced: u64,
}

/// Figures 6 & 7: CLC counts in both clusters as cluster 0's timer sweeps;
/// cluster 1's timer is infinite (paper §5.2).
pub(crate) fn figure6_7(delays_min: &[u64], seed: u64) -> Vec<Fig67Row> {
    delays_min
        .iter()
        .map(|&d| {
            let r = table1_run(&[Some(d), None], seed);
            Fig67Row {
                delay_min: d,
                c0_unforced: r.clusters[0].unforced_clcs,
                c0_forced: r.clusters[0].forced_clcs,
                c1_unforced: r.clusters[1].unforced_clcs,
                c1_forced: r.clusters[1].forced_clcs,
            }
        })
        .collect()
}

/// The paper's x axis for Figures 6–7 (minutes).
pub(crate) fn figure6_delays() -> Vec<u64> {
    vec![5, 10, 15, 20, 30, 40, 50, 60, 80, 100, 120]
}

// --------------------------------------------------------------- Figure 8

/// One sweep point of Figure 8.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig8Row {
    /// Cluster-1 timer (minutes).
    pub(crate) c1_delay_min: u64,
    /// Total CLCs committed in cluster 0 (timer fixed at 30 min).
    pub(crate) c0_total: u64,
    /// Total CLCs committed in cluster 1.
    pub(crate) c1_total: u64,
    /// Forced CLCs committed in cluster 1.
    pub(crate) c1_forced: u64,
}

/// Figure 8: cluster 0's timer fixed at 30 min; sweep cluster 1's timer.
/// The paper's point: thanks to the low 1→0 message count, cluster 0 does
/// not store more CLCs even when cluster 1 checkpoints much more often.
pub(crate) fn figure8(c1_delays_min: &[u64], seed: u64) -> Vec<Fig8Row> {
    c1_delays_min
        .iter()
        .map(|&d| {
            let r = table1_run(&[Some(30), Some(d)], seed);
            Fig8Row {
                c1_delay_min: d,
                c0_total: r.clusters[0].total_clcs(),
                c1_total: r.clusters[1].total_clcs(),
                c1_forced: r.clusters[1].forced_clcs,
            }
        })
        .collect()
}

/// The paper's x axis for Figure 8 (minutes).
pub(crate) fn figure8_delays() -> Vec<u64> {
    vec![15, 20, 25, 30, 35, 40, 45, 50, 55, 60]
}

// --------------------------------------------------------------- Figure 9

/// One sweep point of Figure 9.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fig9Row {
    /// Messages from cluster 1 to cluster 0.
    pub(crate) reverse_msgs: u64,
    /// Total CLCs in cluster 0.
    pub(crate) c0_total: u64,
    /// Forced CLCs in cluster 0.
    pub(crate) c0_forced: u64,
    /// Total CLCs in cluster 1.
    pub(crate) c1_total: u64,
    /// Forced CLCs in cluster 1.
    pub(crate) c1_forced: u64,
}

/// Figure 9: both timers at 30 min; sweep the number of messages from
/// cluster 1 to cluster 0. Forced CLCs grow quickly with reverse traffic.
pub(crate) fn figure9(reverse_counts: &[u64], seed: u64) -> Vec<Fig9Row> {
    reverse_counts
        .iter()
        .map(|&rev| {
            let w = TargetCountWorkload::paper_with_reverse_count(rev);
            let r = run(federation(
                &w,
                &[Some(30), Some(30)],
                None,
                PiggybackMode::SnOnly,
                seed,
            ));
            Fig9Row {
                reverse_msgs: rev,
                c0_total: r.clusters[0].total_clcs(),
                c0_forced: r.clusters[0].forced_clcs,
                c1_total: r.clusters[1].total_clcs(),
                c1_forced: r.clusters[1].forced_clcs,
            }
        })
        .collect()
}

/// The paper's x axis for Figure 9 (message counts).
pub(crate) fn figure9_counts() -> Vec<u64> {
    vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110]
}

// ------------------------------------------------------------- Tables 2–3

/// Table 2: per-GC stored-CLC counts before/after, two clusters, GC every
/// two hours, 103 reverse messages (paper §5.4's sample).
pub(crate) fn table2(seed: u64) -> RunReport {
    run(reference(PiggybackMode::SnOnly, seed))
}

/// Table 3: the three-cluster variant (cluster 2 clones cluster 1, ~200
/// messages leave/arrive per cluster).
pub(crate) fn table3(seed: u64) -> RunReport {
    let w = workload::presets::paper_three_clusters();
    let cfg = federation(&w, &[Some(30); 3], Some(2), PiggybackMode::SnOnly, seed);
    run(cfg)
}

// -------------------------------------------------------------- Ablations

/// One row of the SnOnly-vs-FullDdv ablation (paper §7's proposed
/// transitivity extension).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DdvAblationRow {
    /// Clusters in the ring.
    pub(crate) clusters: usize,
    /// Total forced CLCs under SN-only piggybacking.
    pub(crate) forced_sn_only: u64,
    /// Total forced CLCs under full-DDV piggybacking.
    pub(crate) forced_full_ddv: u64,
}

/// Compare forced-CLC counts between the two piggyback modes on a ring
/// workload (0→1→…→n−1→0) where transitive knowledge pays off.
pub(crate) fn ablation_ddv(cluster_counts: &[usize], seed: u64) -> Vec<DdvAblationRow> {
    cluster_counts
        .iter()
        .map(|&n| {
            // Every cluster also reports two steps ahead, creating the
            // transitive shortcut.
            let w = ring(n, 100, 10, [500, 60, 20]);
            let forced = |mode| {
                let r = run(federation(&w, &vec![Some(30); n], None, mode, seed));
                r.clusters.iter().map(|c| c.forced_clcs).sum::<u64>()
            };
            DdvAblationRow {
                clusters: n,
                forced_sn_only: forced(PiggybackMode::SnOnly),
                forced_full_ddv: forced(PiggybackMode::FullDdv),
            }
        })
        .collect()
}

/// One protocol's costs in the cross-protocol ablation.
#[derive(Debug, Clone)]
pub(crate) struct ProtocolRow {
    /// Protocol name.
    pub(crate) protocol: String,
    /// Checkpoints taken over the run.
    pub(crate) checkpoints: u64,
    /// Coordination messages.
    pub(crate) protocol_messages: u64,
    /// Mean clusters rolled back per fault.
    pub(crate) mean_rollback_scope: f64,
    /// Total lost node-seconds across faults.
    pub(crate) lost_node_seconds: f64,
    /// Peak message-log bytes held.
    pub(crate) peak_log_bytes: u64,
}

/// Compare HC3I against the three baseline protocol families on the
/// reference workload with one mid-run fault in each cluster.
pub(crate) fn ablation_protocols(seed: u64) -> Vec<ProtocolRow> {
    use crate::common::BaselineInput;
    use crate::{global, independent, pessimistic};
    use desim::SimTime;
    use netsim::NodeId;

    let w = TargetCountWorkload::paper_with_reverse_count(103);
    // Off-grid fault times (not multiples of the 30-minute checkpoint
    // period), so every protocol has genuinely lost work to recover.
    let fault_times = [
        (
            SimTime::ZERO + SimDuration::from_minutes(3 * 60 + 17),
            0usize,
        ),
        (
            SimTime::ZERO + SimDuration::from_minutes(7 * 60 + 23),
            1usize,
        ),
    ];

    // HC3I at full fidelity.
    let mut cfg = federation(&w, &[Some(30), Some(30)], None, PiggybackMode::SnOnly, seed);
    let input = BaselineInput {
        topology: cfg.topology.clone(),
        sends: cfg.sends.clone(),
        duration: w.duration,
        ckpt_periods: vec![SimDuration::from_minutes(30); 2],
        faults: fault_times.to_vec(),
    };
    for &(at, cluster) in &fault_times {
        cfg = cfg.with_fault(at, NodeId::new(cluster as u16, 7));
    }
    let hc3i = run(cfg);
    let hc3i_lost: f64 = hc3i
        .clusters
        .iter()
        .map(|c| {
            c.work_lost
                .iter()
                .map(|d| d.as_secs_f64() * 100.0)
                .sum::<f64>()
        })
        .sum();
    let mut rows = vec![ProtocolRow {
        protocol: "hc3i".into(),
        checkpoints: hc3i.clusters.iter().map(|c| c.total_clcs()).sum(),
        protocol_messages: hc3i.protocol_messages,
        mean_rollback_scope: hc3i.total_rollbacks() as f64 / fault_times.len() as f64,
        lost_node_seconds: hc3i_lost,
        peak_log_bytes: hc3i
            .clusters
            .iter()
            .map(|c| c.peak_logged_messages * w.payload_bytes)
            .sum(),
    }];

    for report in [
        global::evaluate(&input),
        independent::evaluate(&input),
        pessimistic::evaluate(&input),
    ] {
        rows.push(ProtocolRow {
            protocol: report.protocol.into(),
            checkpoints: report.checkpoints,
            protocol_messages: report.protocol_messages,
            mean_rollback_scope: report.mean_rollback_scope(),
            lost_node_seconds: report.total_lost_node_seconds(),
            peak_log_bytes: report.peak_log_bytes,
        });
    }
    rows
}

/// One row of the replication-degree ablation (paper §7: configurable
/// degree of stable-storage replication).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicationRow {
    /// Replication degree (replicas per fragment).
    pub(crate) degree: u32,
    /// Guaranteed simultaneous faults tolerated in a 100-node cluster.
    pub(crate) guaranteed_faults: u32,
    /// Stable-storage copies per CLC per cluster (fragments).
    pub(crate) copies_per_clc: u64,
    /// Fraction of random 3-fault patterns that remain recoverable.
    pub(crate) random_triple_fault_survival: f64,
}

/// Sweep the replication degree and measure cost vs fault tolerance.
pub(crate) fn ablation_replication(degrees: &[u32], seed: u64) -> Vec<ReplicationRow> {
    use rand::Rng;
    use storage::ReplicationPolicy;
    let n_nodes = 100u32;
    degrees
        .iter()
        .map(|&degree| {
            let policy = ReplicationPolicy::with_degree(degree);
            let mut rng = RngStreams::new(seed).stream("replication", degree as u64);
            let trials = 2_000;
            let survived = (0..trials)
                .filter(|_| {
                    let mut picks = std::collections::HashSet::new();
                    while picks.len() < 3 {
                        picks.insert(rng.gen_range(0..n_nodes));
                    }
                    let failed: Vec<u32> = picks.into_iter().collect();
                    policy.recoverable(&failed, n_nodes)
                })
                .count();
            ReplicationRow {
                degree,
                guaranteed_faults: policy.guaranteed_faults(n_nodes),
                copies_per_clc: (policy.copies() as u64) * n_nodes as u64,
                random_triple_fault_survival: survived as f64 / trials as f64,
            }
        })
        .collect()
}

// ------------------------------------------------- §5.2 overhead breakdown

/// One row of the network/storage overhead breakdown (paper §5.2).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OverheadRow {
    /// Cluster-0 CLC timer in minutes (`None` = no unforced CLCs anywhere).
    pub(crate) delay_min: Option<u64>,
    /// Total CLCs committed federation-wide.
    pub(crate) total_clcs: u64,
    /// Application payload bytes on the wire (incl. piggyback).
    pub(crate) app_bytes: u64,
    /// Protocol-control bytes (2PC rounds, fragments, alerts, GC).
    pub(crate) protocol_bytes: u64,
    /// Acknowledgement bytes.
    pub(crate) ack_bytes: u64,
    /// Protocol-control messages.
    pub(crate) protocol_messages: u64,
    /// Peak CLCs stored simultaneously (max over clusters).
    pub(crate) peak_stored: usize,
    /// Peak logged inter-cluster messages (sum over clusters).
    pub(crate) peak_logged: u64,
}

/// The paper's §5.2 analysis: "If no CLC is initiated, the only protocol
/// cost consists in logging optimistically in volatile memory inter-cluster
/// messages and transmitting an integer (SN) with them." Sweep the timer
/// from "never" downward and watch every cost component.
pub(crate) fn overhead_breakdown(delays_min: &[Option<u64>], seed: u64) -> Vec<OverheadRow> {
    delays_min
        .iter()
        .map(|&d| {
            let r = table1_run(&[d, None], seed);
            OverheadRow {
                delay_min: d,
                total_clcs: r.clusters.iter().map(|c| c.total_clcs()).sum(),
                app_bytes: r.app_bytes,
                protocol_bytes: r.protocol_bytes,
                ack_bytes: r.ack_bytes,
                protocol_messages: r.protocol_messages,
                peak_stored: r
                    .clusters
                    .iter()
                    .map(|c| c.peak_stored_clcs)
                    .max()
                    .unwrap_or(0),
                peak_logged: r.clusters.iter().map(|c| c.peak_logged_messages).sum(),
            }
        })
        .collect()
}

// ------------------------------------------------------ federation scaling

/// One row of the federation-scaling sensitivity sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalingRow {
    /// Clusters in the federation (ring workload, 20 nodes each).
    pub(crate) clusters: usize,
    /// Total CLCs committed.
    pub(crate) total_clcs: u64,
    /// Forced CLCs committed.
    pub(crate) forced_clcs: u64,
    /// Protocol messages.
    pub(crate) protocol_messages: u64,
    /// Simulator events processed (cost of the run itself).
    pub(crate) events: u64,
    /// Piggyback overhead per inter-cluster message in bytes under
    /// FullDdv (= 8 × clusters — the paper's point that the DDV scales
    /// with the number of *clusters*, not nodes).
    pub(crate) ddv_bytes: u64,
}

/// Scale the federation (ring traffic, fixed per-cluster rates) and watch
/// protocol costs grow with the number of clusters.
pub(crate) fn federation_scaling(cluster_counts: &[usize], seed: u64) -> Vec<ScalingRow> {
    cluster_counts
        .iter()
        .map(|&n| {
            let w = ring(n, 20, 10, [300, 40, 0]);
            let cfg = federation(&w, &vec![Some(30); n], None, PiggybackMode::SnOnly, seed);
            let ddv_bytes = cfg.protocol.ddv_bytes();
            let r = run(cfg);
            ScalingRow {
                clusters: n,
                total_clcs: r.clusters.iter().map(|c| c.total_clcs()).sum(),
                forced_clcs: r.clusters.iter().map(|c| c.forced_clcs).sum(),
                protocol_messages: r.protocol_messages,
                events: r.events_processed,
                ddv_bytes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    //! The paper's qualitative claims, each a check over the rows an
    //! experiment returns rather than over `render`'s text, so that a row
    //! which has to move still has an oracle. Each test runs its
    //! experiment as `regen all` does, and shows the check refusing one
    //! hand-made wrong row.

    use super::*;

    /// Figure 6: cluster 0's unforced CLCs never rise as its timer grows,
    /// and its forced CLCs stay the same.
    fn figure6_claim(rows: &[Fig67Row]) -> bool {
        rows.windows(2)
            .all(|p| p[1].c0_unforced <= p[0].c0_unforced)
            && rows.iter().all(|r| r.c0_forced == rows[0].c0_forced)
    }

    /// Figure 7: cluster 1, whose timer never fires, takes only forced
    /// CLCs.
    fn figure7_claim(rows: &[Fig67Row]) -> bool {
        rows.iter().all(|r| r.c1_unforced == 0)
    }

    /// Figure 8: every CLC of cluster 0 forces one in cluster 1, whatever
    /// cluster 1's own timer.
    fn figure8_claim(rows: &[Fig8Row]) -> bool {
        rows.iter().all(|r| r.c1_forced == r.c0_total)
    }

    /// Figure 9: neither cluster's forced CLCs fall as reverse traffic
    /// grows.
    fn figure9_claim(rows: &[Fig9Row]) -> bool {
        rows.windows(2)
            .all(|p| p[0].c0_forced <= p[1].c0_forced && p[0].c1_forced <= p[1].c1_forced)
    }

    /// Tables 2 and 3: a cluster collects, and each collection keeps at
    /// least one CLC and never more than it found.
    fn gc_claim(before_after: &[(usize, usize)]) -> bool {
        !before_after.is_empty()
            && before_after
                .iter()
                .all(|&(before, after)| 0 < after && after <= before)
    }

    /// §7's transitivity extension: full-DDV piggybacking forces no more
    /// CLCs than SN-only.
    fn ddv_claim(rows: &[DdvAblationRow]) -> bool {
        rows.iter().all(|r| r.forced_full_ddv <= r.forced_sn_only)
    }

    /// §6: a fault rolls back fewer clusters and loses less work under
    /// HC3I than under global coordinated checkpointing.
    fn protocols_claim(rows: &[ProtocolRow]) -> bool {
        let row = |name: &str| rows.iter().find(|r| r.protocol == name);
        let (Some(hc3i), Some(global)) = (row("hc3i"), row("global-coordinated")) else {
            return false;
        };
        hc3i.mean_rollback_scope < global.mean_rollback_scope
            && hc3i.lost_node_seconds < global.lost_node_seconds
    }

    /// §7's replication: degree `d` survives any `d` simultaneous faults.
    fn replication_claim(rows: &[ReplicationRow]) -> bool {
        rows.iter().all(|r| r.guaranteed_faults == r.degree)
    }

    #[test]
    fn figure6_unforced_clcs_fall_with_the_timer_and_forced_ones_stay() {
        let mut rows = figure6_7(&figure6_delays(), DEFAULT_SEED);
        assert!(figure6_claim(&rows), "{rows:?}");
        rows[4].c0_forced += 1;
        assert!(!figure6_claim(&rows));
        rows[4].c0_forced -= 1;
        rows[4].c0_unforced = rows[3].c0_unforced + 1;
        assert!(!figure6_claim(&rows));
    }

    #[test]
    fn figure7_cluster1_takes_only_forced_clcs() {
        let mut rows = figure6_7(&figure6_delays(), DEFAULT_SEED);
        assert!(figure7_claim(&rows), "{rows:?}");
        rows[0].c1_unforced = 1;
        assert!(!figure7_claim(&rows));
    }

    #[test]
    fn figure8_cluster0_forces_each_of_its_clcs_on_cluster1() {
        let mut rows = figure8(&figure8_delays(), DEFAULT_SEED);
        assert!(figure8_claim(&rows), "{rows:?}");
        rows[0].c1_forced += 1;
        assert!(!figure8_claim(&rows));
    }

    #[test]
    fn figure9_forced_clcs_do_not_fall_as_reverse_traffic_grows() {
        let mut rows = figure9(&figure9_counts(), DEFAULT_SEED);
        assert!(figure9_claim(&rows), "{rows:?}");
        rows[5].c1_forced = rows[4].c1_forced - 1;
        assert!(!figure9_claim(&rows));
    }

    #[test]
    fn tables2_and_3_collections_shrink_but_keep_a_clc() {
        for report in [table2(DEFAULT_SEED), table3(DEFAULT_SEED)] {
            for c in &report.clusters {
                assert!(gc_claim(&c.gc_before_after), "{:?}", c.gc_before_after);
            }
        }
        assert!(!gc_claim(&[(14, 1), (13, 0)]), "a collection kept nothing");
        assert!(!gc_claim(&[(14, 15)]), "a collection grew the store");
        assert!(!gc_claim(&[]), "no collection ran");
    }

    #[test]
    fn full_ddv_forces_no_more_clcs_than_sn_only() {
        let mut rows = ablation_ddv(&[3, 4, 5], DEFAULT_SEED);
        assert!(ddv_claim(&rows), "{rows:?}");
        rows[1].forced_full_ddv = rows[1].forced_sn_only + 1;
        assert!(!ddv_claim(&rows));
    }

    #[test]
    fn hc3i_rolls_back_less_than_global_coordination() {
        let mut rows = ablation_protocols(DEFAULT_SEED);
        assert!(protocols_claim(&rows), "{rows:?}");
        let global = rows[1].lost_node_seconds;
        assert_eq!(rows[0].protocol, "hc3i");
        rows[0].lost_node_seconds = global;
        assert!(!protocols_claim(&rows));
    }

    #[test]
    fn replication_degree_is_the_faults_it_guarantees() {
        let mut rows = ablation_replication(&[1, 2, 3, 4], DEFAULT_SEED);
        assert!(replication_claim(&rows), "{rows:?}");
        rows[2].guaranteed_faults -= 1;
        assert!(!replication_claim(&rows));
    }
}
