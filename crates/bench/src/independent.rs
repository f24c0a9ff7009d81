//! Baseline: fully independent checkpointing.
//!
//! Each cluster checkpoints on its own timer with **no** coordination and
//! **no** communication-induced forcing. Checkpointing is cheap, but the
//! recovery line must be computed at rollback time from the full
//! dependency history, and cascading invalidation can unwind arbitrarily
//! far — the domino effect the paper cites as the reason an independent
//! mechanism "does not fit" (§2.2).

use crate::common::{BaselineInput, BaselineReport, RollbackSummary};
use desim::SimTime;
use netsim::ClusterId;

/// Evaluate independent checkpointing on the input.
pub(crate) fn evaluate(input: &BaselineInput) -> BaselineReport {
    let topo = &input.topology;
    let n = topo.num_clusters();

    let ckpt_times: Vec<Vec<SimTime>> = (0..n).map(|c| input.checkpoint_times(c)).collect();
    let total_ckpts: u64 = ckpt_times.iter().map(|t| t.len() as u64).sum();

    // Inter-cluster messages with approximate receive times (send + link
    // latency; serialization is negligible for the analysis).
    struct Dep {
        from: usize,
        to: usize,
        sent: SimTime,
        received: SimTime,
    }
    let deps: Vec<Dep> = input
        .sends
        .iter()
        .filter(|s| s.from.cluster != s.to.cluster)
        .map(|s| {
            let link = topo.inter_link(s.from.cluster, s.to.cluster);
            Dep {
                from: s.from.cluster.index(),
                to: s.to.cluster.index(),
                sent: s.at,
                received: s.at + link.latency + link.transmit_time(s.bytes),
            }
        })
        .collect();

    let rollbacks = input
        .faults
        .iter()
        .map(|&(at, faulty)| {
            // bound[c]: the cluster's state survives up to this instant.
            let mut bound = vec![at; n];
            bound[faulty] = input.last_checkpoint_before(faulty, at);
            // Fixpoint: a message sent after the sender's bound but
            // received before the receiver's bound is a ghost; the
            // receiver must fall back to a checkpoint preceding the
            // receive.
            loop {
                let mut changed = false;
                for d in &deps {
                    if d.sent > bound[d.from] && d.received <= bound[d.to] {
                        // Strictly before the receive instant.
                        let fallback = ckpt_times[d.to]
                            .iter()
                            .copied()
                            .take_while(|&ck| ck < d.received)
                            .last()
                            .unwrap_or(SimTime::ZERO);
                        if fallback < bound[d.to] {
                            bound[d.to] = fallback;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            let clusters_rolled_back = (0..n).filter(|&c| bound[c] < at).count();
            let lost: f64 = (0..n)
                .map(|c| {
                    at.saturating_since(bound[c]).as_secs_f64()
                        * topo.nodes_in(ClusterId(c as u16)) as f64
                })
                .sum();
            RollbackSummary {
                clusters_rolled_back,
                lost_node_seconds: lost,
            }
        })
        .collect();

    // Costs: an uncoordinated cluster checkpoint still sends one fragment
    // per node, but exchanges no request/ack/commit rounds.
    BaselineReport {
        protocol: "independent",
        checkpoints: total_ckpts,
        protocol_messages: (0..n)
            .map(|c| ckpt_times[c].len() as u64 * topo.nodes_in(ClusterId(c as u16)) as u64)
            .sum(),
        peak_log_bytes: 0,
        rollbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use netsim::{NodeId, Topology};
    use workload::SendEvent;

    fn minutes(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_minutes(m)
    }

    fn ping_pong_input() -> BaselineInput {
        // Dense bidirectional chatter (one message per direction per
        // minute) against *staggered* checkpoint periods (30 vs 37
        // minutes): the classic domino setup — no set of local checkpoints
        // forms a consistent cut except the initial state.
        let mut sends = vec![];
        for k in 0..520u64 {
            sends.push(SendEvent {
                at: SimTime::ZERO + SimDuration::from_secs(60 * k + 20),
                from: NodeId::new(0, 0),
                to: NodeId::new(1, 0),
                bytes: 1024,
            });
            sends.push(SendEvent {
                at: SimTime::ZERO + SimDuration::from_secs(60 * k + 40),
                from: NodeId::new(1, 0),
                to: NodeId::new(0, 0),
                bytes: 1024,
            });
        }
        sends.sort_by_key(|s| s.at);
        BaselineInput {
            topology: Topology::paper_reference(2),
            sends,
            duration: SimDuration::from_hours(9),
            ckpt_periods: vec![SimDuration::from_minutes(30), SimDuration::from_minutes(37)],
            faults: vec![],
        }
    }

    #[test]
    fn no_faults_no_rollbacks() {
        let r = evaluate(&ping_pong_input());
        assert!(r.rollbacks.is_empty());
        assert!(r.checkpoints >= 30, "both clusters checkpoint freely");
    }

    #[test]
    fn ping_pong_traffic_dominoes_to_start() {
        let mut input = ping_pong_input();
        input.faults = vec![(minutes(301), 0)];
        let r = evaluate(&input);
        assert_eq!(r.rollbacks[0].clusters_rolled_back, 2);
        // Cross deps every ~5 minutes against 30-minute checkpoints:
        // every fallback re-exposes an older ghost — full domino.
        let lost = r.rollbacks[0].lost_node_seconds;
        let full = 301.0 * 60.0 * 200.0;
        assert!(
            lost > full * 0.9,
            "expected near-total loss, got {lost} of {full}"
        );
    }

    #[test]
    fn one_way_sparse_traffic_contains_rollback() {
        // Only 0 -> 1 messages, sparse: a fault in cluster 1 hurts nobody
        // else, and loses at most one period.
        let sends = vec![SendEvent {
            at: minutes(10),
            from: NodeId::new(0, 0),
            to: NodeId::new(1, 0),
            bytes: 1024,
        }];
        let input = BaselineInput {
            sends,
            faults: vec![(minutes(100), 1)],
            ..ping_pong_input()
        };
        let r = evaluate(&input);
        assert_eq!(r.rollbacks[0].clusters_rolled_back, 1);
        let lost = r.rollbacks[0].lost_node_seconds;
        // Cluster 1 fell back to its 74-minute checkpoint: 26 min x 100.
        assert!((lost - 26.0 * 60.0 * 100.0).abs() < 1.0, "lost {lost}");
    }

    #[test]
    fn sender_fault_invalidates_receiver_after_receipt() {
        // Message 0 -> 1 at minute 40 (received ~instantly); cluster 1
        // checkpoints at 60; cluster 0 faults at 50 and restores its
        // 30-minute checkpoint, unsending the message. Cluster 1 at bound
        // 50 has received it (40 <= 50) -> falls to its checkpoint before
        // 40, i.e. 30.
        let sends = vec![SendEvent {
            at: minutes(40),
            from: NodeId::new(0, 0),
            to: NodeId::new(1, 0),
            bytes: 1024,
        }];
        let input = BaselineInput {
            sends,
            faults: vec![(minutes(50), 0)],
            ..ping_pong_input()
        };
        let r = evaluate(&input);
        assert_eq!(r.rollbacks[0].clusters_rolled_back, 2);
        // Cluster 0 fell to its 30-min checkpoint (20 min lost); cluster 1
        // fell to its 37-min checkpoint, losing 13 min. 100 nodes each.
        let lost = r.rollbacks[0].lost_node_seconds;
        assert!(
            (lost - (20.0 + 13.0) * 60.0 * 100.0).abs() < 1.0,
            "lost {lost}"
        );
    }
}
