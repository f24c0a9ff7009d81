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
//! The sharded executor therefore folds detection into the shard tick. A
//! cluster lives whole on one shard, and so does its one probe
//! (`ClusterProbe`): once per [`HeartbeatConfig::period`] it reads the
//! failure generation ([`hc3i_core::NodeEngine::failure_generation`]) of
//! every engine of the cluster straight from the shard's cells, hands them
//! to the hosts' one report rule ([`hc3i_core::host::FaultReports`]) and
//! queues what it returns — every newly failed rank, in one report, to
//! the lowest-ranked live node — on the shard's run queue. The rule is
//! keyed by generation, so a node revived by a rollback becomes reportable
//! again even if it fails anew before the probe ever observes the alive
//! window. Detection latency is bounded by one period plus shard
//! scheduling, and false positives are impossible: the generation is the
//! engine's own fail-stop state, not a missed-pong heuristic.

use crate::envelope::Envelope;
use crate::shard::NodeCell;
use hc3i_core::host::{Detection, FaultReports};
use std::collections::VecDeque;
use std::ops::Range;
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
/// owns the cluster.
pub(crate) struct ClusterProbe {
    /// The cluster's slots on the owning shard: rank `r` at
    /// `slots.start + r`.
    slots: Range<usize>,
    period: Duration,
    next_round: Instant,
    reports: FaultReports,
}

impl ClusterProbe {
    pub(crate) fn new(slots: Range<usize>, cfg: HeartbeatConfig, now: Instant) -> Self {
        ClusterProbe {
            slots,
            period: cfg.period,
            next_round: now + cfg.period,
            reports: FaultReports::default(),
        }
    }

    /// When the owning shard must next wake to run a round.
    pub(crate) fn next_deadline(&self) -> Instant {
        self.next_round
    }

    /// Run a detection round over the shard's `cells` if one is due, and
    /// queue its report on the shard's `run_queue`. No survivor at all
    /// means the whole cluster is gone — excluded by the fail-stop model;
    /// the rule marks nothing then, and the next round retries.
    pub(crate) fn tick(
        &mut self,
        now: Instant,
        cells: &[NodeCell],
        run_queue: &mut VecDeque<(u32, Envelope)>,
    ) {
        if now < self.next_round {
            return;
        }
        self.next_round = now + self.period;
        let generations = cells[self.slots.clone()]
            .iter()
            .map(|c| c.engine.failure_generation());
        if let Detection::Report(rank, report) = self.reports.detect(generations, None) {
            let slot = self.slots.start + rank as usize;
            run_queue.push_back((slot as u32, Envelope::Input(report)));
        }
    }
}
