//! End-of-run metrics, folded from the [`ProtoEvent`] vocabulary, and the
//! delivery ledger, folded from what engines emit.
//!
//! [`RunReport::observe`] is the one fold from events to report fields:
//! the simulator calls it from its [`Host::emit`](crate::Host::emit), the
//! threaded runtime from its controller as it drains the event channel.
//! A report's `Debug` dump is the determinism fingerprint, so field names
//! and order are part of the contract.
//!
//! [`DeliveryLedger`] is the one fold behind the sender-logging checks,
//! fed by the shared interpreter under every host.

use crate::io::{Input, Output, ProtoEvent};
use crate::msg::{Msg, Piggyback};
use crate::node::NodeEngine;
use hc3i_types::{NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;
use storage::SeqNum;

/// Per-cluster checkpointing statistics.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Unforced (timer-driven) CLCs committed.
    pub unforced_clcs: u64,
    /// Forced (communication-induced) CLCs committed.
    pub forced_clcs: u64,
    /// CLCs currently stored at end of run (coordinator's store).
    pub stored_clcs: usize,
    /// Largest number of CLCs simultaneously stored.
    pub peak_stored_clcs: usize,
    /// Rollbacks this cluster performed: `(time, restored SN, discarded)`.
    pub rollbacks: Vec<(SimTime, SeqNum, usize)>,
    /// Work lost per rollback: the rollback instant minus the restored
    /// CLC's commit instant.
    pub work_lost: Vec<SimDuration>,
    /// GC before/after stored-CLC counts, one pair per collection.
    pub gc_before_after: Vec<(usize, usize)>,
    /// Messages currently logged at end of run (cluster-wide total).
    pub logged_messages: u64,
    /// Peak simultaneously logged messages (cluster-wide total of peaks).
    pub peak_logged_messages: u64,
}

impl ClusterStats {
    /// Fill the end-of-run storage and log occupancy from the cluster's
    /// engines, coordinator (rank 0) first.
    pub fn close<'a>(&mut self, engines: impl IntoIterator<Item = &'a NodeEngine>) {
        let (mut logged, mut peak_logged) = (0, 0);
        for (rank, e) in engines.into_iter().enumerate() {
            if rank == 0 {
                self.stored_clcs = e.store().len();
                self.peak_stored_clcs = e.store().peak();
            }
            logged += e.log().len() as u64;
            peak_logged += e.log().peak() as u64;
        }
        self.logged_messages = logged;
        self.peak_logged_messages = peak_logged;
    }

    /// Total committed CLCs (excluding the initial checkpoint).
    pub fn total_clcs(&self) -> u64 {
        self.unforced_clcs + self.forced_clcs
    }
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-cluster statistics.
    pub clusters: Vec<ClusterStats>,
    /// Application messages delivered end-to-end.
    pub app_delivered: u64,
    /// Application messages the workload issued.
    pub app_sent: u64,
    /// `(from, to)` application message counts per cluster pair.
    pub app_matrix: Vec<Vec<u64>>,
    /// Total protocol-control messages on the wire.
    pub protocol_messages: u64,
    /// Total protocol-control bytes on the wire.
    pub protocol_bytes: u64,
    /// Inter-cluster acknowledgement messages.
    pub ack_messages: u64,
    /// Inter-cluster acknowledgement bytes.
    pub ack_bytes: u64,
    /// Application payload bytes on the wire (piggyback overhead included).
    pub app_bytes: u64,
    /// Consistency-monitor events (must be 0 for a sound run).
    pub late_crossings: u64,
    /// Unrecoverable-fault reports (fragment lost).
    pub unrecoverable_faults: u64,
    /// Events the host dispatched.
    pub events_processed: u64,
    /// Time at which the run ended.
    pub ended_at: SimTime,
}

impl RunReport {
    /// An empty report for a federation of `n` clusters.
    pub fn new(n: usize) -> Self {
        RunReport {
            clusters: vec![ClusterStats::default(); n],
            app_matrix: vec![vec![0; n]; n],
            ..Default::default()
        }
    }

    /// Fold one protocol event observed at `at` — the single fold behind
    /// every host's report. It reads the event and nothing else.
    #[inline]
    pub fn observe(&mut self, at: SimTime, ev: &ProtoEvent) {
        match *ev {
            ProtoEvent::Delivered { .. } => self.app_delivered += 1,
            ProtoEvent::Committed {
                cluster, forced, ..
            } => {
                let c = &mut self.clusters[cluster];
                if forced {
                    c.forced_clcs += 1;
                } else {
                    c.unforced_clcs += 1;
                }
            }
            ProtoEvent::RolledBack {
                node,
                restore_sn,
                discarded_clcs,
                committed_at,
            } => {
                // One entry per cluster rollback: rank 0's.
                if node.rank == 0 {
                    let c = &mut self.clusters[node.cluster.index()];
                    c.rollbacks.push((at, restore_sn, discarded_clcs));
                    c.work_lost.push(at.saturating_since(committed_at));
                }
            }
            ProtoEvent::GcReport {
                cluster,
                before,
                after,
            } => self.clusters[cluster].gc_before_after.push((before, after)),
            ProtoEvent::Unrecoverable { .. } => self.unrecoverable_faults += 1,
            ProtoEvent::LateCrossing { .. } => self.late_crossings += 1,
        }
    }

    /// Total rollbacks across the federation.
    pub fn total_rollbacks(&self) -> usize {
        self.clusters.iter().map(|c| c.rollbacks.len()).sum()
    }

    /// Render the Table-1-style application message matrix.
    pub fn format_app_matrix(&self) -> String {
        let mut s = String::from("Sender's   Receiver's  Message\nCluster    Cluster     Count\n");
        let n = self.app_matrix.len();
        // The paper lists intra pairs first, then inter pairs.
        for i in 0..n {
            s.push_str(&format!(
                "Cluster {i}  Cluster {i}   {}\n",
                self.app_matrix[i][i]
            ));
        }
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s.push_str(&format!(
                        "Cluster {i}  Cluster {j}   {}\n",
                        self.app_matrix[i][j]
                    ));
                }
            }
        }
        s
    }
}

/// Per-tag delivery ledger, keyed by epoch and SN, never by time: the
/// paper's sender-based logging (§3.3–3.4) undoes a send made in epoch ε
/// at SN σ exactly when its cluster later enters a newer epoch by
/// restoring a CLC at or below σ, and every other send must be delivered.
/// The shared interpreter alone feeds it ([`Host::ledger`](crate::Host::ledger)),
/// so it judges every host by that rule. Observation only.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLedger {
    /// `tag → (cluster, epoch, SN)` of each inter-cluster send: where the
    /// application issued it, then the stamps of the message carrying it.
    sent: BTreeMap<u64, (usize, u64, SeqNum)>,
    /// `(cluster, epoch entered, restored SN)` of every cluster rollback.
    steps: Vec<(usize, u64, SeqNum)>,
    /// Deliveries per `(tag, receiver's epoch)`, replays included.
    delivered: BTreeMap<(u64, u64), u32>,
}

impl DeliveryLedger {
    /// Fold an input before `engine` handles it: a live engine's
    /// application sends to another cluster at the engine's epoch and SN,
    /// and a send a freeze holds stays keyed so until [`Self::note`]
    /// re-keys it (a rollback that discards it undoes it).
    pub fn issue(&mut self, engine: &NodeEngine, input: &Input) {
        let id = engine.id();
        if let Input::AppSend { to, payload } = input {
            if to.cluster != id.cluster && !engine.is_failed() {
                let sent = (id.cluster.index(), engine.epoch(), engine.sn());
                self.sent.insert(payload.tag, sent);
            }
        }
    }

    /// Fold an output the engine `node`, at `epoch`, just emitted: the
    /// first copy of an inter-cluster message (not a replay from the log),
    /// an inter-cluster delivery, or rank 0's report of a cluster rollback.
    ///
    /// Each record carries the epoch and SN the engine had when it
    /// produced the output: a message its own stamps, the rest the epoch
    /// read after `handle`, which only a rollback moves within one input,
    /// before its report and re-deliveries and after nothing delivered.
    pub fn note(&mut self, node: NodeId, epoch: u64, out: &Output) {
        let cluster = node.cluster.index();
        match out {
            Output::Send {
                msg:
                    Msg::AppInter {
                        payload,
                        piggyback,
                        resend: false,
                        sender_epoch,
                        ..
                    },
                ..
            } => {
                let sn = match piggyback {
                    Piggyback::Sn(sn) => *sn,
                    Piggyback::Ddv(ddv) => ddv.get(cluster),
                };
                self.sent.insert(payload.tag, (cluster, *sender_epoch, sn));
            }
            Output::DeliverApp { from, payload } if from.cluster != node.cluster => {
                *self.delivered.entry((payload.tag, epoch)).or_default() += 1;
            }
            Output::Event(ProtoEvent::RolledBack {
                node, restore_sn, ..
            }) if node.rank == 0 => self.steps.push((cluster, epoch, *restore_sn)),
            _ => {}
        }
    }

    /// Tags sent, undone by no later rollback of their own cluster, and
    /// never delivered: committed work lost.
    pub fn undelivered(&self) -> Vec<u64> {
        let undone = |&(c, e, sn): &(usize, u64, SeqNum)| {
            self.steps
                .iter()
                .any(|&(sc, epoch, restore_sn)| sc == c && epoch > e && restore_sn <= sn)
        };
        let delivered = |tag| {
            self.delivered
                .range((tag, 0)..=(tag, u64::MAX))
                .next()
                .is_some()
        };
        let lost = self
            .sent
            .iter()
            .filter(|&(&tag, s)| !undone(s) && !delivered(tag));
        lost.map(|(&tag, _)| tag).collect()
    }

    /// `(tag, epoch, count)` of every tag delivered more than once within
    /// one epoch (incarnation) of its receiver.
    pub fn duplicated_in_incarnation(&self) -> Vec<(u64, u64, u32)> {
        let dups = self.delivered.iter().filter(|&(_, &count)| count > 1);
        dups.map(|(&(tag, epoch), &count)| (tag, epoch, count))
            .collect()
    }

    /// Number of distinct tags delivered at least once.
    pub fn delivered_tags(&self) -> usize {
        let mut last = None;
        let tags = self.delivered.keys().map(|&(tag, _)| tag);
        tags.filter(|&tag| last.replace(tag) != Some(tag)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut r = RunReport::default();
        r.clusters.push(ClusterStats {
            unforced_clcs: 3,
            forced_clcs: 2,
            rollbacks: vec![(SimTime::ZERO, SeqNum(1), 2)],
            ..Default::default()
        });
        r.clusters.push(ClusterStats::default());
        assert_eq!(r.clusters[0].total_clcs(), 5);
        assert_eq!(r.total_rollbacks(), 1);
    }

    fn n(c: u16, r: u32) -> NodeId {
        NodeId::new(c, r)
    }

    fn pay(tag: u64) -> crate::AppPayload {
        crate::AppPayload { bytes: 64, tag }
    }

    /// Note `from`'s first send of `tag`, made at `epoch` and SN `sn`, to
    /// the other cluster of a two-cluster federation.
    fn send(l: &mut DeliveryLedger, from: NodeId, tag: u64, epoch: u64, sn: u64) {
        let msg = Msg::AppInter {
            payload: pay(tag),
            piggyback: Piggyback::Sn(SeqNum(sn)),
            log_id: storage::LogId(tag),
            resend: false,
            sender_epoch: epoch,
        };
        let to = n(1 - from.cluster.0, 0);
        l.note(from, epoch, &Output::Send { to, msg });
    }

    /// Note `to`'s delivery of `tag` at `epoch`, sent by the other cluster.
    fn deliver(l: &mut DeliveryLedger, to: NodeId, tag: u64, epoch: u64) {
        let from = n(1 - to.cluster.0, 0);
        let payload = pay(tag);
        l.note(to, epoch, &Output::DeliverApp { from, payload });
    }

    /// Note `cluster`'s rollback into `epoch`, restoring CLC `restore_sn`.
    fn roll_back(l: &mut DeliveryLedger, cluster: u16, epoch: u64, restore_sn: u64) {
        let ev = ProtoEvent::RolledBack {
            node: n(cluster, 0),
            restore_sn: SeqNum(restore_sn),
            discarded_clcs: 1,
            committed_at: SimTime::ZERO,
        };
        l.note(n(cluster, 0), epoch, &Output::Event(ev));
    }

    #[test]
    fn a_send_undone_by_its_senders_rollback_is_not_lost_committed_work() {
        let mut l = DeliveryLedger::default();
        send(&mut l, n(0, 1), 0, 0, 2); // before cluster 0's CLC 3
        send(&mut l, n(0, 1), 1, 0, 3); // after it
        send(&mut l, n(1, 1), 2, 0, 3); // another cluster's
        assert_eq!(l.undelivered(), vec![0, 1, 2]);

        // Cluster 0 restores CLC 3: only its own later send goes with it.
        roll_back(&mut l, 0, 1, 3);
        assert_eq!(l.undelivered(), vec![0, 2]);

        // Sends of the new incarnation are fresh obligations.
        send(&mut l, n(0, 1), 3, 1, 3);
        assert_eq!(l.undelivered(), vec![0, 2, 3]);
        deliver(&mut l, n(1, 0), 0, 0);
        deliver(&mut l, n(0, 0), 2, 1);
        deliver(&mut l, n(1, 0), 3, 0);
        assert!(l.undelivered().is_empty());
        // Replays of the log and intra-cluster deliveries are not noted.
        let replay = Msg::AppInter {
            payload: pay(4),
            piggyback: Piggyback::Sn(SeqNum(3)),
            log_id: storage::LogId(4),
            resend: true,
            sender_epoch: 1,
        };
        l.note(
            n(0, 1),
            1,
            &Output::Send {
                to: n(1, 0),
                msg: replay,
            },
        );
        let intra = Output::DeliverApp {
            from: n(0, 1),
            payload: pay(5),
        };
        l.note(n(0, 0), 1, &intra);
        assert!(l.undelivered().is_empty());
        assert_eq!(l.delivered_tags(), 3);
    }

    #[test]
    fn restoring_the_clc_a_send_was_stamped_with_undoes_it_and_the_next_does_not() {
        let mut l = DeliveryLedger::default();
        send(&mut l, n(0, 1), 7, 0, 4);
        roll_back(&mut l, 0, 1, 5);
        assert_eq!(l.undelivered(), vec![7], "CLC 5 holds the send");
        roll_back(&mut l, 0, 2, 4);
        assert!(l.undelivered().is_empty(), "CLC 4 predates the send");

        // A rollback of an epoch the send already ran in is not later.
        let mut l = DeliveryLedger::default();
        send(&mut l, n(0, 1), 8, 3, 4);
        roll_back(&mut l, 0, 3, 2);
        assert_eq!(l.undelivered(), vec![8]);
    }

    #[test]
    fn a_send_released_from_a_freeze_is_undone_by_restoring_the_clc_it_waited_for() {
        use crate::{Input, OutputBuf, ProtocolConfig};
        use std::sync::Arc;
        let mut engine = NodeEngine::new(ProtocolConfig::new(vec![2, 1]), n(0, 1));
        let (mut l, mut buf) = (DeliveryLedger::default(), OutputBuf::new());
        // What `host::input` does with a ledger.
        let mut step = |engine: &mut NodeEngine, input| {
            l.issue(engine, &input);
            engine.handle(SimTime::ZERO, input, &mut buf);
            for out in buf.drain() {
                l.note(engine.id(), engine.epoch(), &out);
            }
        };
        let from = n(0, 0);
        let request = Msg::ClcRequest { round: 1, epoch: 0 };
        step(&mut engine, Input::Receive { from, msg: request });
        assert!(engine.is_frozen());
        // Issued at SN 1 by the application, held by the freeze.
        let to = n(1, 0);
        step(
            &mut engine,
            Input::AppSend {
                to,
                payload: pay(9),
            },
        );
        let mut ddv = storage::Ddv::zeros(2);
        ddv.set(0, SeqNum(2));
        let commit = Msg::ClcCommit {
            round: 1,
            sn: SeqNum(2),
            ddv: Arc::new(ddv),
            forced: false,
            epoch: 0,
        };
        step(&mut engine, Input::Receive { from, msg: commit });
        // The commit released it under SN 2, and logged it there: the
        // restore of CLC 2 truncates that entry, so it undoes the send.
        assert_eq!(engine.log().len(), 1);
        assert_eq!(l.sent[&9].2, SeqNum(2), "re-keyed by the message");
        assert_eq!(l.undelivered(), vec![9]);
        roll_back(&mut l, 0, 1, 2);
        assert!(l.undelivered().is_empty());
    }

    #[test]
    fn a_send_a_freeze_holds_is_owed_until_a_rollback_discards_it() {
        use crate::{Input, OutputBuf, ProtocolConfig};
        let mut engine = NodeEngine::new(ProtocolConfig::new(vec![2, 1]), n(0, 1));
        let (mut l, mut buf) = (DeliveryLedger::default(), OutputBuf::new());
        let request = Msg::ClcRequest { round: 1, epoch: 0 };
        let to = n(1, 0);
        let send = Input::AppSend {
            to,
            payload: pay(4),
        };
        let from = n(0, 0);
        for input in [Input::Receive { from, msg: request }, send] {
            l.issue(&engine, &input);
            engine.handle(SimTime::ZERO, input, &mut buf);
        }
        let sends = buf
            .drain()
            .filter(|o| matches!(o, Output::Send { to: t, .. } if *t == to));
        assert_eq!(sends.count(), 0, "the freeze holds it");
        assert_eq!(l.undelivered(), vec![4], "a freeze that never ends owes it");
        // The order restoring CLC 1 discards the held send with the
        // execution that issued it.
        roll_back(&mut l, 0, 1, 1);
        assert!(l.undelivered().is_empty());
        // A failed engine's application issues nothing.
        let mut l = DeliveryLedger::default();
        engine.handle(SimTime::ZERO, Input::Fail, &mut buf);
        let send = Input::AppSend {
            to,
            payload: pay(5),
        };
        l.issue(&engine, &send);
        assert!(l.undelivered().is_empty());
    }

    #[test]
    fn one_delivery_in_each_of_two_epochs_is_no_duplicate_and_two_in_one_are() {
        let mut l = DeliveryLedger::default();
        send(&mut l, n(0, 1), 3, 0, 1);
        deliver(&mut l, n(1, 0), 3, 0);
        deliver(&mut l, n(1, 0), 3, 1);
        assert!(l.duplicated_in_incarnation().is_empty());
        deliver(&mut l, n(1, 1), 3, 1);
        assert_eq!(l.duplicated_in_incarnation(), vec![(3, 1, 2)]);
        assert_eq!(l.delivered_tags(), 1);
    }

    #[test]
    fn matrix_formatting_lists_intra_then_inter() {
        let r = RunReport {
            app_matrix: vec![vec![2920, 145], vec![11, 2497]],
            ..Default::default()
        };
        let s = r.format_app_matrix();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].contains("2920"));
        assert!(lines[3].contains("2497"));
        assert!(lines[4].contains("145"));
        assert!(lines[5].contains("11"));
    }
}
