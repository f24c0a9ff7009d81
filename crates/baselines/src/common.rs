//! Shared input/output types for the baseline protocols.
//!
//! The baselines model checkpointing at *cluster* granularity over the same
//! workload schedule and topology the full HC3I simulation uses, producing
//! directly comparable cost metrics. (HC3I itself is simulated at full
//! per-node fidelity by `simdriver`; the baselines answer "what would a
//! different protocol family have cost on this workload".)

use desim::{SimDuration, SimTime};
use netsim::Topology;
use workload::SendEvent;

/// Input shared by every baseline.
#[derive(Debug, Clone)]
pub struct BaselineInput {
    /// Federation topology (node counts and link classes).
    pub topology: Topology,
    /// The application send schedule, time-sorted.
    pub sends: Vec<SendEvent>,
    /// Total application duration.
    pub duration: SimDuration,
    /// Checkpoint period per cluster (global-coordinated uses the minimum).
    pub ckpt_periods: Vec<SimDuration>,
    /// Per-node checkpoint fragment size.
    pub fragment_bytes: u64,
    /// Scripted fault times: `(time, cluster)`.
    pub faults: Vec<(SimTime, usize)>,
}

impl BaselineInput {
    /// Effective checkpoint instants for cluster `c`: `period, 2·period, …`
    /// up to the horizon (plus the initial checkpoint at t = 0).
    pub(crate) fn checkpoint_times(&self, c: usize) -> Vec<SimTime> {
        let mut times = vec![SimTime::ZERO];
        let period = self.ckpt_periods[c];
        if period.is_infinite() || period.nanos() == 0 {
            return times;
        }
        let mut t = SimTime::ZERO + period;
        let horizon = SimTime::ZERO + self.duration;
        while t < horizon {
            times.push(t);
            t += period;
        }
        times
    }

    /// Latest checkpoint of cluster `c` at or before `t`.
    pub(crate) fn last_checkpoint_before(&self, c: usize, t: SimTime) -> SimTime {
        self.checkpoint_times(c)
            .into_iter()
            .take_while(|&ck| ck <= t)
            .last()
            .unwrap_or(SimTime::ZERO)
    }
}

/// One rollback event's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackSummary {
    /// When the fault hit.
    pub at: SimTime,
    /// How many clusters had to roll back.
    pub clusters_rolled_back: usize,
    /// Total lost computation, in node-seconds (per-cluster lost wall time
    /// × node count, summed).
    pub lost_node_seconds: f64,
}

/// Cost metrics comparable across protocols.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineReport {
    /// Which protocol produced this report.
    pub protocol: &'static str,
    /// Checkpoints taken (cluster-level or global, per the protocol).
    pub checkpoints: u64,
    /// Control messages spent on checkpointing coordination.
    pub protocol_messages: u64,
    /// Bytes of stable-storage traffic (fragments, logs).
    pub storage_bytes: u64,
    /// Total wall time the application was frozen by coordination.
    pub frozen_time: SimDuration,
    /// Peak bytes of message logs held.
    pub peak_log_bytes: u64,
    /// One summary per injected fault.
    pub rollbacks: Vec<RollbackSummary>,
}

impl BaselineReport {
    /// Mean clusters rolled back per fault (NaN-free: 0 when no faults).
    pub fn mean_rollback_scope(&self) -> f64 {
        if self.rollbacks.is_empty() {
            return 0.0;
        }
        self.rollbacks
            .iter()
            .map(|r| r.clusters_rolled_back as f64)
            .sum::<f64>()
            / self.rollbacks.len() as f64
    }

    /// Total lost node-seconds across all faults.
    pub fn total_lost_node_seconds(&self) -> f64 {
        self.rollbacks.iter().map(|r| r.lost_node_seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    fn input() -> BaselineInput {
        BaselineInput {
            topology: Topology::paper_reference(2),
            sends: vec![],
            duration: SimDuration::from_minutes(100),
            ckpt_periods: vec![SimDuration::from_minutes(30), SimDuration::INFINITE],
            fragment_bytes: 1 << 20,
            faults: vec![],
        }
    }

    #[test]
    fn checkpoint_times_respect_period() {
        let i = input();
        let t = i.checkpoint_times(0);
        assert_eq!(t.len(), 4); // 0, 30, 60, 90
        assert_eq!(t[1], SimTime::ZERO + SimDuration::from_minutes(30));
        assert_eq!(i.checkpoint_times(1), vec![SimTime::ZERO], "infinite timer");
    }

    #[test]
    fn last_checkpoint_lookup() {
        let i = input();
        let at = |m: u64| SimTime::ZERO + SimDuration::from_minutes(m);
        assert_eq!(i.last_checkpoint_before(0, at(45)), at(30));
        assert_eq!(i.last_checkpoint_before(0, at(30)), at(30));
        assert_eq!(i.last_checkpoint_before(0, at(29)), at(0));
        assert_eq!(i.last_checkpoint_before(1, at(99)), at(0));
    }

    #[test]
    fn report_aggregates() {
        let r = BaselineReport {
            protocol: "x",
            rollbacks: vec![
                RollbackSummary {
                    at: SimTime::ZERO,
                    clusters_rolled_back: 2,
                    lost_node_seconds: 100.0,
                },
                RollbackSummary {
                    at: SimTime::ZERO,
                    clusters_rolled_back: 1,
                    lost_node_seconds: 50.0,
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.mean_rollback_scope(), 1.5);
        assert_eq!(r.total_lost_node_seconds(), 150.0);
        assert_eq!(BaselineReport::default().mean_rollback_scope(), 0.0);
    }
}
