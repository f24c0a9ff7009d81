//! Baseline: federation-wide coordinated checkpointing.
//!
//! The approach the paper argues *against* for the federation level (§2.2:
//! "the large number of nodes and network performance between clusters do
//! not allow a global synchronization"): one two-phase commit spanning
//! every node of every cluster, so each checkpoint freezes the whole
//! application for at least a WAN round trip plus the fragment transfer.
//! Its one virtue: a failure anywhere rolls everything back exactly one
//! global checkpoint — no cascade analysis needed.

use crate::common::{BaselineInput, BaselineReport, RollbackSummary};
use desim::{SimDuration, SimTime};

/// Evaluate global coordinated checkpointing on the input.
pub fn evaluate(input: &BaselineInput) -> BaselineReport {
    let topo = &input.topology;
    let n = topo.num_clusters();
    let total_nodes = topo.total_nodes();

    // The global period: the tightest per-cluster period requested.
    let period = input
        .ckpt_periods
        .iter()
        .copied()
        .min()
        .unwrap_or(SimDuration::INFINITE);

    // Checkpoint instants.
    let mut times = vec![SimTime::ZERO];
    if !period.is_infinite() && period.nanos() > 0 {
        let mut t = SimTime::ZERO + period;
        let horizon = SimTime::ZERO + input.duration;
        while t < horizon {
            times.push(t);
            t += period;
        }
    }

    // Freeze time per checkpoint: the 2PC needs two federation-spanning
    // rounds (request+ack, commit) bounded by the slowest inter-cluster
    // RTT, plus the intra-cluster fragment replication transfer.
    let mut max_inter_latency = SimDuration::ZERO;
    let mut max_fragment_time = SimDuration::ZERO;
    for a in topo.cluster_ids() {
        let intra = topo.link_between(a, a);
        max_fragment_time = max_fragment_time.max(intra.transmit_time(input.fragment_bytes));
        for b in topo.cluster_ids() {
            if a != b {
                max_inter_latency = max_inter_latency.max(topo.inter_link(a, b).latency);
            }
        }
    }
    let freeze_per_ckpt = max_inter_latency
        .saturating_mul(4) // request out + ack back + commit out + settle
        .saturating_add(max_fragment_time);

    // Message cost per checkpoint: request/ack/commit with every node, plus
    // one fragment replica per node.
    let msgs_per_ckpt = 3 * (total_nodes - 1) + total_nodes;
    let storage_per_ckpt = total_nodes * input.fragment_bytes;

    // Rollbacks: every fault rolls the whole federation back to the last
    // global checkpoint.
    let rollbacks = input
        .faults
        .iter()
        .map(|&(at, _cluster)| {
            let last = times
                .iter()
                .copied()
                .take_while(|&t| t <= at)
                .last()
                .unwrap();
            let lost_wall = at.saturating_since(last).as_secs_f64();
            RollbackSummary {
                at,
                clusters_rolled_back: n,
                lost_node_seconds: lost_wall * total_nodes as f64,
            }
        })
        .collect();

    let ckpts = times.len() as u64;
    BaselineReport {
        protocol: "global-coordinated",
        checkpoints: ckpts,
        protocol_messages: ckpts * msgs_per_ckpt,
        storage_bytes: ckpts * storage_per_ckpt,
        frozen_time: freeze_per_ckpt.saturating_mul(ckpts),
        peak_log_bytes: 0, // no message logging
        rollbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Topology;

    fn input(faults: Vec<(SimTime, usize)>) -> BaselineInput {
        BaselineInput {
            topology: Topology::paper_reference(2),
            sends: vec![],
            duration: SimDuration::from_hours(10),
            ckpt_periods: vec![SimDuration::from_minutes(30), SimDuration::INFINITE],
            fragment_bytes: 4 << 20,
            faults,
        }
    }

    #[test]
    fn checkpoints_at_global_period() {
        let r = evaluate(&input(vec![]));
        assert_eq!(
            r.checkpoints, 20,
            "600 min / 30 min (initial incl., horizon excl.)"
        );
        // 200 nodes: 3*199 + 200 messages per checkpoint.
        assert_eq!(r.protocol_messages, 20 * (3 * 199 + 200));
        assert_eq!(r.peak_log_bytes, 0);
    }

    #[test]
    fn freeze_time_scales_with_wan_latency() {
        let r = evaluate(&input(vec![]));
        // Per checkpoint: >= 4 x 150 µs + 4 MiB / 80 Mb/s (~0.42 s).
        let per = SimDuration(r.frozen_time.nanos() / r.checkpoints);
        assert!(per >= SimDuration::from_micros(600));
        assert!(
            per >= SimDuration::from_millis(400),
            "fragment transfer dominates"
        );
    }

    #[test]
    fn every_fault_rolls_back_everything() {
        let at = SimTime::ZERO + SimDuration::from_minutes(45);
        let r = evaluate(&input(vec![(at, 1)]));
        assert_eq!(r.rollbacks.len(), 1);
        assert_eq!(r.rollbacks[0].clusters_rolled_back, 2);
        // Lost: 15 minutes x 200 nodes.
        let lost = r.rollbacks[0].lost_node_seconds;
        assert!((lost - 15.0 * 60.0 * 200.0).abs() < 1.0, "lost {lost}");
    }

    #[test]
    fn fault_right_after_checkpoint_loses_little() {
        let at = SimTime::ZERO + SimDuration::from_minutes(30);
        let r = evaluate(&input(vec![(at, 0)]));
        assert_eq!(r.rollbacks[0].lost_node_seconds, 0.0);
    }
}
