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
use desim::SimDuration;

/// Evaluate global coordinated checkpointing on the input.
pub(crate) fn evaluate(input: &BaselineInput) -> BaselineReport {
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

    let times = input.every(period);

    // Message cost per checkpoint: request/ack/commit with every node, plus
    // one fragment replica per node.
    let msgs_per_ckpt = 3 * (total_nodes - 1) + total_nodes;

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
        peak_log_bytes: 0, // no message logging
        rollbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use netsim::Topology;

    fn input(faults: Vec<(SimTime, usize)>) -> BaselineInput {
        BaselineInput {
            topology: Topology::paper_reference(2),
            sends: vec![],
            duration: SimDuration::from_hours(10),
            ckpt_periods: vec![SimDuration::from_minutes(30), SimDuration::INFINITE],
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
