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
//! engine as a failure generation in a shared `Health` table, and each
//! cluster has one probe (`ClusterProbe`) — owned by the shard that hosts
//! the cluster's coordinator — that hands the cluster's generations to
//! the hosts' one report rule ([`hc3i_core::host::FaultReports`]) once per
//! [`HeartbeatConfig::period`] and ships what it returns: every newly
//! failed rank, in one report, to the lowest-ranked live node. The rule is
//! keyed by generation, so a node revived by a rollback becomes reportable
//! again even if it fails anew before the probe ever observes the alive
//! window. Detection latency is bounded by one period plus shard
//! scheduling, and false positives are impossible: the generation is the
//! fail-stop ground truth, not a missed-pong heuristic.

use crate::envelope::Envelope;
use crate::federation::{Health, Routes};
use hc3i_core::host::{Detection, FaultReports};
use netsim::NodeId;
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
/// owns the cluster's coordinator.
pub(crate) struct ClusterProbe {
    cluster: usize,
    period: Duration,
    next_round: Instant,
    reports: FaultReports,
}

impl ClusterProbe {
    pub(crate) fn new(cluster: usize, cfg: HeartbeatConfig, now: Instant) -> Self {
        ClusterProbe {
            cluster,
            period: cfg.period,
            next_round: now + cfg.period,
            reports: FaultReports::default(),
        }
    }

    /// When the owning shard must next wake to run a round.
    pub(crate) fn next_deadline(&self) -> Instant {
        self.next_round
    }

    /// Run a detection round if one is due. No survivor at all means the
    /// whole cluster is gone — excluded by the fail-stop model; the rule
    /// marks nothing then, and the next round retries.
    pub(crate) fn tick(&mut self, now: Instant, routes: &Routes, health: &Health) {
        if now < self.next_round {
            return;
        }
        self.next_round = now + self.period;
        let generations = routes
            .layout()
            .cluster(self.cluster)
            .map(|g| health.generation(g));
        if let Detection::Report(rank, report) = self.reports.detect(generations, None) {
            let to = NodeId::new(self.cluster as u16, rank);
            let _ = routes.send(to, Envelope::Input(report));
        }
    }
}
