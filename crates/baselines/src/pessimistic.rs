//! Baseline: pessimistic message logging (MPICH-V-like).
//!
//! "All the communications are logged and can be replayed. This avoids all
//! dependencies so that a faulty node will rollback, but not the others.
//! But this means that strong assumptions upon determinism have to be made"
//! (paper §6). We model that family: *every* application message — intra-
//! and inter-cluster — is written to stable storage before delivery; on a
//! fault only the failed node restores its last checkpoint and replays its
//! inbox. Requires the piecewise-deterministic (PWD) assumption the HC3I
//! paper explicitly refuses to make.

use crate::common::{BaselineInput, BaselineReport, RollbackSummary};

/// Evaluate pessimistic logging on the input.
pub fn evaluate(input: &BaselineInput) -> BaselineReport {
    // Log volume over time: every message's payload is logged at send time;
    // a cluster's log entries can be discarded once the *receiving* node
    // checkpoints past them — conservatively keep entries for one full
    // checkpoint period. Peak = max bytes in any window of the longest
    // finite period (or the entire run when no timer is armed).
    let window = input
        .ckpt_periods
        .iter()
        .copied()
        .filter(|p| !p.is_infinite())
        .max();

    let mut peak: u64 = 0;
    match window {
        None => {
            peak = input.sends.iter().map(|s| s.bytes).sum();
        }
        Some(w) => {
            // Two-pointer sweep over the time-sorted schedule.
            let mut lo = 0usize;
            let mut in_window: u64 = 0;
            for hi in 0..input.sends.len() {
                in_window += input.sends[hi].bytes;
                let cutoff = input.sends[hi].at;
                while input.sends[lo].at + w < cutoff {
                    in_window -= input.sends[lo].bytes;
                    lo += 1;
                }
                peak = peak.max(in_window);
            }
        }
    }

    let total_logged_bytes: u64 = input.sends.iter().map(|s| s.bytes).sum();
    let total_msgs = input.sends.len() as u64;

    // Checkpoints: per node, on the cluster's timer. Message logging adds
    // one stable-storage write (here: one protocol message) per app
    // message.
    let topo = &input.topology;
    let n = topo.num_clusters();
    let node_ckpts: u64 = (0..n)
        .map(|c| {
            input.checkpoint_times(c).len() as u64
                * topo.nodes_in(netsim::ClusterId(c as u16)) as u64
        })
        .sum();

    // Rollbacks: one node only; it loses its own time since its cluster's
    // last checkpoint (replay reconstructs the rest).
    let rollbacks = input
        .faults
        .iter()
        .map(|&(at, cluster)| {
            let last = input.last_checkpoint_before(cluster, at);
            RollbackSummary {
                at,
                clusters_rolled_back: 0, // no *cluster* rolls back
                lost_node_seconds: at.saturating_since(last).as_secs_f64(),
            }
        })
        .collect();

    BaselineReport {
        protocol: "pessimistic-log",
        checkpoints: node_ckpts,
        protocol_messages: total_msgs, // one logging write per message
        storage_bytes: node_ckpts * input.fragment_bytes + total_logged_bytes,
        frozen_time: desim::SimDuration::ZERO,
        peak_log_bytes: peak,
        rollbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{SimDuration, SimTime};
    use netsim::{NodeId, Topology};
    use workload::SendEvent;

    fn minutes(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_minutes(m)
    }

    fn input() -> BaselineInput {
        let sends = (0..100u64)
            .map(|k| SendEvent {
                at: minutes(k),
                from: NodeId::new((k % 2) as u16, 0),
                to: NodeId::new(((k + 1) % 2) as u16, 1),
                bytes: 1000,
            })
            .collect();
        BaselineInput {
            topology: Topology::paper_reference(2),
            sends,
            duration: SimDuration::from_minutes(100),
            ckpt_periods: vec![SimDuration::from_minutes(30); 2],
            fragment_bytes: 1 << 20,
            faults: vec![(minutes(50), 0)],
        }
    }

    #[test]
    fn every_message_is_logged() {
        let r = evaluate(&input());
        assert_eq!(r.protocol_messages, 100);
        assert!(r.storage_bytes >= 100 * 1000);
    }

    #[test]
    fn peak_log_tracks_window() {
        let r = evaluate(&input());
        // 30-minute window, one 1000-byte message per minute: ~31 KB peak.
        assert!(
            r.peak_log_bytes >= 30_000 && r.peak_log_bytes <= 32_000,
            "peak {}",
            r.peak_log_bytes
        );
    }

    #[test]
    fn no_timer_means_log_everything() {
        let mut i = input();
        i.ckpt_periods = vec![SimDuration::INFINITE; 2];
        let r = evaluate(&i);
        assert_eq!(r.peak_log_bytes, 100 * 1000);
    }

    #[test]
    fn only_failed_node_loses_work() {
        let r = evaluate(&input());
        assert_eq!(r.rollbacks.len(), 1);
        assert_eq!(r.rollbacks[0].clusters_rolled_back, 0);
        // 50 - 30 = 20 minutes of one node's work.
        assert!((r.rollbacks[0].lost_node_seconds - 20.0 * 60.0).abs() < 1.0);
    }
}
