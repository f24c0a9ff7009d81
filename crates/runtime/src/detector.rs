//! Heartbeat failure detection, folded into shard ticks.
//!
//! The paper scopes the failure detector out ("the description of the
//! failure detector is out of the scope of this paper"); a runnable
//! messaging layer still needs one. Earlier revisions ran one detector
//! *thread* per cluster that pinged every node each period — workable at
//! hundreds of nodes, but the ping round-trips became timing-sensitive the
//! moment thousands of mailboxes multiplexed onto a fixed worker pool: a
//! busy shard could delay pong processing past the round timeout and a
//! perfectly healthy node would be reported dead.
//!
//! The sharded executor therefore folds detection into the shard tick. The
//! worker that owns a node publishes every alive↔failed transition of its
//! engine as a *failure generation* counter in a shared `Health` table
//! (even = alive, odd = fail-stopped), and each cluster has one probe
//! (`ClusterProbe`) — owned by the shard that hosts the cluster's rank 0 —
//! that scans those counters once per [`HeartbeatConfig::period`] and
//! reports newly failed ranks to the lowest-ranked live node as a single
//! `DetectMulti` envelope (the engine's multi-failure
//! `Input::DetectFaults` path). Reports are keyed by generation, so a node
//! revived by a rollback becomes reportable again even if it fails anew
//! before the probe ever observes the alive window. Detection latency is
//! bounded by one period plus shard scheduling, and false positives are
//! impossible: the counter parity is the fail-stop ground truth, not a
//! missed-pong heuristic.

use crate::envelope::Envelope;
use crate::federation::{Health, Routes};
use netsim::NodeId;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Heartbeat parameters.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatConfig {
    /// Time between detection rounds.
    pub period: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: Duration::from_millis(50),
        }
    }
}

/// Per-cluster failure-detection state machine, ticked by the shard that
/// owns the cluster's rank-0 node.
pub(crate) struct ClusterProbe {
    cluster: u16,
    ranks: Vec<u32>,
    /// Global arena index of the cluster's rank 0 (health-table base).
    base: usize,
    period: Duration,
    next_round: Instant,
    /// Failure generation each reported rank was reported *at*. A rank
    /// whose current generation differs was revived in between (and, if
    /// failed again, is a fresh failure to report) — this is how a
    /// revive-then-refail inside one probe period is still re-detected.
    reported: HashMap<u32, u64>,
}

impl ClusterProbe {
    pub(crate) fn new(
        cluster: u16,
        ranks: Vec<u32>,
        base: usize,
        cfg: HeartbeatConfig,
        now: Instant,
    ) -> Self {
        ClusterProbe {
            cluster,
            ranks,
            base,
            period: cfg.period,
            next_round: now + cfg.period,
            reported: HashMap::new(),
        }
    }

    /// When the owning shard must next wake to run a round.
    pub(crate) fn next_deadline(&self) -> Instant {
        self.next_round
    }

    /// Run a detection round if one is due.
    pub(crate) fn tick(&mut self, now: Instant, routes: &Routes, health: &Health) {
        if now < self.next_round {
            return;
        }
        self.next_round = now + self.period;
        let mut newly_failed: Vec<(u32, u64)> = Vec::new();
        let mut detector_rank: Option<u32> = None;
        for &r in &self.ranks {
            let generation = health.generation(self.base + r as usize);
            if Health::is_failed_generation(generation) {
                // A failure is new unless this exact generation was
                // already reported (an older recorded generation means
                // revive-then-refail: report again).
                if self.reported.get(&r) != Some(&generation) {
                    newly_failed.push((r, generation));
                }
            } else {
                self.reported.remove(&r);
                // Lowest-ranked live node: the ranks iterate ascending.
                detector_rank.get_or_insert(r);
            }
        }
        if newly_failed.is_empty() {
            return;
        }
        // Report to the lowest-ranked live node, which initiates the
        // cluster rollback. No survivor at all means the whole cluster is
        // gone — excluded by the fail-stop model; retry next round.
        if let Some(det) = detector_rank {
            let _ = routes.send(
                NodeId::new(self.cluster, det),
                Envelope::DetectMulti {
                    failed_ranks: newly_failed.iter().map(|&(r, _)| r).collect(),
                },
            );
            self.reported.extend(newly_failed);
        }
    }
}
