//! Folding the runtime's event stream into the simulator's report shape.
//!
//! Any controller — the equivalence tests, the CLI's `--runtime` mode, a
//! benchmark — can drive the live substrate and obtain the same
//! [`simdriver::RunReport`] the discrete-event simulator emits, folded
//! from the same events by the same function
//! ([`RunReport::observe`](simdriver::RunReport::observe)).
//!
//! Every event that passes through [`Federation::next_event`],
//! [`Federation::wait_for`] or [`Federation::drain_events`] is folded into
//! an internal collector; [`Federation::report`] drains what is left,
//! shuts the pool down and finalizes the per-cluster storage/log occupancy
//! from the joined engines.
//!
//! ## Which fields are live-substrate faithful
//!
//! The deterministic protocol outcomes — commits by kind, rollback restore
//! SNs and discard counts, GC before/after, deliveries, soundness counters,
//! end-of-run storage and log occupancy — match the simulator bit-for-bit
//! on equivalent scenarios (property-tested at shard counts {1, 2, 8}).
//! Wall-clock-derived fields (`ended_at`, rollback timestamps) carry real
//! elapsed time. Work-lost durations stay zero — they need the restored
//! CLC's commit time, which the event stream does not carry — and so do
//! the wire-byte counters: the in-process transport ships `Msg` values,
//! not serialized bytes, so the runtime does not guess at a byte model the
//! simulator owns.
//!
//! [`Federation::next_event`]: crate::Federation::next_event
//! [`Federation::wait_for`]: crate::Federation::wait_for
//! [`Federation::drain_events`]: crate::Federation::drain_events
//! [`Federation::report`]: crate::Federation::report

use crate::envelope::RtEvent;
use desim::SimTime;
use hc3i_core::NodeEngine;
use netsim::NodeId;
use simdriver::RunReport;
use std::collections::HashMap;
use std::time::Instant;

/// Accumulates [`RtEvent`]s into a [`RunReport`] as they are observed,
/// through the same [`RunReport::observe`] fold the simulator uses.
pub(crate) struct ReportCollector(RunReport);

impl ReportCollector {
    pub(crate) fn new(n_clusters: usize) -> Self {
        ReportCollector(RunReport::new(n_clusters))
    }

    /// Record one controller-injected application send.
    pub(crate) fn note_send(&mut self) {
        self.0.app_sent += 1;
    }

    /// Fold one observed event. `epoch` is the federation's spawn instant;
    /// the wall-clock offset (the runtime's analogue of simulated time) is
    /// only computed for rollbacks, the one event that records a
    /// timestamp, keeping the per-event fold off the clock on the hot
    /// drain path.
    pub(crate) fn observe(&mut self, ev: &RtEvent, epoch: Instant) {
        self.0.events_processed += 1;
        if let RtEvent::Delivered { to, from, .. } = ev {
            // The live substrate has no wire tap for sends in flight: its
            // matrix counts end-to-end deliveries per cluster pair.
            self.0.app_matrix[from.cluster.index()][to.cluster.index()] += 1;
        }
        let at = if matches!(ev, RtEvent::RolledBack { .. }) {
            SimTime(epoch.elapsed().as_nanos() as u64)
        } else {
            SimTime::ZERO
        };
        // Real work-lost durations need the restored CLC's commit time,
        // which the event stream does not carry.
        self.0.observe(at, ev, None);
    }

    /// Produce the final report from the accumulated events plus the
    /// joined engines' end-of-run storage and log occupancy. Wire-byte
    /// counters stay zero: the in-process transport has no byte model
    /// (see the module docs).
    pub(crate) fn finalize(
        self,
        engines: &HashMap<NodeId, NodeEngine>,
        cluster_sizes: &[u32],
        ended_at: SimTime,
    ) -> RunReport {
        let mut report = self.0;
        for (c, stats) in report.clusters.iter_mut().enumerate() {
            let ranks = 0..cluster_sizes[c];
            stats.close(ranks.filter_map(|r| engines.get(&NodeId::new(c as u16, r))));
        }
        report.ended_at = ended_at;
        report
    }
}
