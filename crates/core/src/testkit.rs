//! Synchronous in-memory federation for protocol testing.
//!
//! [`InstantFederation`] wires a set of [`NodeEngine`]s through an instant,
//! reliable, FIFO network. It is the smallest [`Host`]: its wire is a
//! queue of `(node, Input)` pairs dispatched in order until quiescence,
//! its clock a counter, and it has no timers, no transport and no disk.
//! Every input reaches its engine through the shared entry point
//! ([`crate::host::input`]) like under every other host, what the engines
//! report is folded by the same [`RunReport::observe`], and its engines,
//! coordinators and fault reports come from the same [`Layout`],
//! [`ProtocolConfig::coordinator`] and [`FaultReports`]. No timing model —
//! this isolates the protocol logic from the simulator, and is also handy
//! for downstream crates' tests and for the worked examples.

use crate::config::ProtocolConfig;
use crate::host::{self, Detection, FaultReports, Host, Layout, Xport};
use crate::io::{Input, OutputBuf, ProtoEvent, StoreOp};
use crate::msg::{AppPayload, Msg};
use crate::node::NodeEngine;
use crate::report::RunReport;
use hc3i_types::{NodeId, SimDuration, SimTime};
use std::collections::VecDeque;

/// A recorded application delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Original sender.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The payload delivered.
    pub payload: AppPayload,
}

/// A federation of node engines joined by an instant FIFO network.
pub struct InstantFederation {
    cfg: ProtocolConfig,
    layout: Layout,
    /// Every engine, at its [`Layout`] index.
    engines: Vec<NodeEngine>,
    /// Inputs waiting for their engine, oldest first.
    queue: VecDeque<(NodeId, Input)>,
    /// Reusable engine-output buffer (the sink `NodeEngine::handle` fills).
    buf: OutputBuf,
    now: SimTime,
    /// Every event the engines reported, folded as it passes
    /// ([`InstantFederation::report`]).
    stats: RunReport,
    /// Every application delivery, in order.
    pub deliveries: Vec<Delivery>,
}

impl InstantFederation {
    /// Build a federation from `cfg`, all engines freshly initialized.
    pub fn new(cfg: ProtocolConfig) -> Self {
        let layout = Layout::new(&cfg);
        let engines = layout.engines(&cfg);
        InstantFederation {
            stats: RunReport::new(cfg.num_clusters()),
            cfg,
            layout,
            engines,
            queue: VecDeque::new(),
            buf: OutputBuf::new(),
            now: SimTime::ZERO,
            deliveries: vec![],
        }
    }

    /// Immutable access to one engine.
    pub fn engine(&self, id: NodeId) -> &NodeEngine {
        &self.engines[self.layout.index(id)]
    }

    /// Feed `input` to `node`, then run the network to quiescence.
    pub fn input(&mut self, node: NodeId, input: Input) {
        self.inject(node, input);
        self.run_to_quiescence();
    }

    /// Feed `input` to `node` without draining the network. Used by tests
    /// that need to observe in-flight state mid-protocol.
    fn inject(&mut self, node: NodeId, input: Input) {
        self.now += SimDuration::from_nanos(1);
        if matches!(input, Input::AppSend { .. }) {
            self.stats.app_sent += 1;
        }
        // The arena is lent out beside the host for the call: no `Host`
        // method of this federation reaches into `engines`.
        let mut engines = std::mem::take(&mut self.engines);
        let mut buf = std::mem::take(&mut self.buf);
        let engine = &mut engines[self.layout.index(node)];
        host::input(self, engine, input, &mut buf);
        self.buf = buf;
        self.engines = engines;
    }

    /// Dispatch the oldest queued input; `false` when the queue is empty.
    fn step(&mut self) -> bool {
        let Some((node, input)) = self.queue.pop_front() else {
            return false;
        };
        self.inject(node, input);
        true
    }

    /// Convenience: application send from `from` to `to`.
    pub fn app_send(&mut self, from: NodeId, to: NodeId, payload: AppPayload) {
        self.input(from, Input::AppSend { to, payload });
    }

    /// Convenience: fire the CLC timer of cluster `c`'s coordinator.
    pub fn fire_clc_timer(&mut self, c: usize) {
        self.input(self.cfg.coordinator(c), Input::ClcTimer);
    }

    /// Convenience: fail a node and report every failed rank of its
    /// cluster to the lowest-ranked surviving node, by the hosts' one
    /// [`FaultReports`] rule.
    ///
    /// # Panics
    /// If no rank of the cluster survives.
    pub fn fail_node(&mut self, node: NodeId) {
        self.input(node, Input::Fail);
        let cluster = &self.engines[self.layout.cluster(node.cluster.index())];
        // Detection here is immediate and runs to quiescence, so the rule
        // keeps nothing between calls: a fresh set, generation 1 per down
        // rank.
        let generations = cluster.iter().map(|e| u64::from(e.is_failed()));
        match FaultReports::default().detect(generations, None) {
            Detection::Report(rank, report) => {
                self.input(NodeId::new(node.cluster.0, rank), report);
            }
            outcome => panic!("no survivor to report {node}'s failure to: {outcome:?}"),
        }
    }

    /// Convenience: run a garbage collection now.
    pub fn run_gc(&mut self) {
        self.input(self.cfg.coordinator(0), Input::GcTimer);
    }

    /// Total committed CLCs in cluster `c` recorded so far (excluding the
    /// initial CLC), split `(unforced, forced)`.
    pub fn clc_counts(&self, c: usize) -> (usize, usize) {
        let c = &self.stats.clusters[c];
        (c.unforced_clcs as usize, c.forced_clcs as usize)
    }

    /// The run so far as a [`RunReport`], folded like the simulator's and
    /// the runtime's, with every cluster closed from its engines. The wire
    /// counters and the message matrix stay zero, as nothing here models a
    /// wire; the clock is one nanosecond per dispatched input.
    pub fn report(&self) -> RunReport {
        let mut report = self.stats.clone();
        for (c, stats) in report.clusters.iter_mut().enumerate() {
            stats.close(&self.engines[self.layout.cluster(c)]);
        }
        report
    }

    /// Payload tags delivered to `node`, in order.
    pub fn delivered_tags(&self, node: NodeId) -> Vec<u64> {
        self.deliveries
            .iter()
            .filter(|d| d.to == node)
            .map(|d| d.payload.tag)
            .collect()
    }

    fn run_to_quiescence(&mut self) {
        let mut budget = 1_000_000u64;
        while self.step() {
            budget = budget
                .checked_sub(1)
                .expect("instant federation did not quiesce");
        }
    }
}

impl Host for InstantFederation {
    fn now(&self) -> SimTime {
        self.now
    }

    fn wire(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        self.queue.push_back((to, Input::Receive { from, msg }));
    }

    fn xport(&mut self) -> Option<&mut Xport> {
        None
    }

    fn arm_retry(&mut self, _from: NodeId, _to: NodeId, _seq: u64, _at: SimTime) {}

    fn reset_clc_timer(&mut self, _node: NodeId) {}

    fn durable(&mut self, _engine: &NodeEngine, _op: StoreOp) {}

    fn emit(&mut self, ev: ProtoEvent) {
        if let ProtoEvent::Delivered { to, from, payload } = ev {
            self.deliveries.push(Delivery { from, to, payload });
        }
        self.stats.observe(self.now, &ev);
    }
}

#[cfg(test)]
impl InstantFederation {
    /// Test helper: dispatch exactly `k` queued messages.
    fn step_n(&mut self, k: usize) {
        for _ in 0..k {
            if !self.step() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PiggybackMode;
    use storage::SeqNum;

    fn n(c: u16, r: u32) -> NodeId {
        NodeId::new(c, r)
    }

    fn pay(tag: u64) -> AppPayload {
        AppPayload { bytes: 1024, tag }
    }

    /// `(cluster, restored SN)` of every cluster rollback, cluster by
    /// cluster.
    fn rollbacks(fed: &InstantFederation) -> Vec<(usize, SeqNum)> {
        let report = fed.report();
        let per_cluster = report.clusters.iter().enumerate();
        per_cluster
            .flat_map(|(c, s)| s.rollbacks.iter().map(move |&(_, sn, _)| (c, sn)))
            .collect()
    }

    fn two_by_three() -> InstantFederation {
        InstantFederation::new(ProtocolConfig::new(vec![3, 3]))
    }

    // ---- coordinated checkpointing ----

    #[test]
    fn timer_clc_commits_cluster_wide() {
        let mut fed = two_by_three();
        fed.fire_clc_timer(0);
        for r in 0..3 {
            let e = fed.engine(n(0, r));
            assert_eq!(e.sn(), SeqNum(2), "node {r} committed");
            assert_eq!(e.ddv().get(0), SeqNum(2));
            assert_eq!(e.store().len(), 2, "initial + new CLC");
            assert!(!e.is_frozen());
        }
        // Cluster 1 untouched.
        assert_eq!(fed.engine(n(1, 0)).sn(), SeqNum(1));
        assert_eq!(fed.clc_counts(0), (1, 0));
    }

    #[test]
    fn repeated_timers_increment_sn() {
        let mut fed = two_by_three();
        for k in 2..=5u64 {
            fed.fire_clc_timer(0);
            assert_eq!(fed.engine(n(0, 1)).sn(), SeqNum(k));
        }
        assert_eq!(fed.clc_counts(0), (4, 0));
    }

    #[test]
    fn single_node_cluster_commits_locally() {
        let mut fed = InstantFederation::new(ProtocolConfig::new(vec![1, 2]));
        fed.fire_clc_timer(0);
        assert_eq!(fed.engine(n(0, 0)).sn(), SeqNum(2));
    }

    // ---- application messaging ----

    #[test]
    fn intra_cluster_delivery() {
        let mut fed = two_by_three();
        fed.app_send(n(0, 1), n(0, 2), pay(7));
        assert_eq!(fed.delivered_tags(n(0, 2)), vec![7]);
        assert_eq!(fed.report().late_crossings, 0);
        // Intra messages are never logged.
        assert!(fed.engine(n(0, 1)).log().is_empty());
    }

    #[test]
    fn first_inter_message_forces_clc() {
        let mut fed = two_by_three();
        // Sender SN is 1, receiver DDV[0] is 0: 1 > 0 forces a CLC
        // (paper §4: "this forces cluster 2 to take a CLC before
        // delivering m1").
        fed.app_send(n(0, 1), n(1, 2), pay(1));
        assert_eq!(fed.delivered_tags(n(1, 2)), vec![1]);
        assert_eq!(fed.clc_counts(1), (0, 1), "one forced CLC in cluster 1");
        let receiver = fed.engine(n(1, 2));
        assert_eq!(receiver.sn(), SeqNum(2));
        assert_eq!(receiver.ddv().get(0), SeqNum(1), "DDV tracks sender SN");
        // The sender's log got the post-commit ack (local SN + 1).
        let sender = fed.engine(n(0, 1));
        assert_eq!(sender.log().len(), 1);
        assert_eq!(sender.log().iter().next().unwrap().ack_sn, Some(SeqNum(2)));
    }

    #[test]
    fn second_message_same_sn_does_not_force() {
        let mut fed = two_by_three();
        fed.app_send(n(0, 1), n(1, 2), pay(1));
        fed.app_send(n(0, 0), n(1, 1), pay(2)); // still sender SN 1
        assert_eq!(fed.clc_counts(1), (0, 1), "no second forced CLC");
        assert_eq!(fed.delivered_tags(n(1, 1)), vec![2]);
    }

    #[test]
    fn new_sender_clc_forces_again() {
        let mut fed = two_by_three();
        fed.app_send(n(0, 1), n(1, 2), pay(1));
        fed.fire_clc_timer(0); // sender cluster SN -> 2 (its 3rd CLC? no: 2)
        fed.app_send(n(0, 1), n(1, 2), pay(2));
        assert_eq!(fed.clc_counts(1), (0, 2), "forced once per sender CLC");
        assert_eq!(fed.delivered_tags(n(1, 2)), vec![1, 2]);
    }

    #[test]
    fn concurrent_messages_coalesce_into_one_forced_clc() {
        // Both messages carry sender SN 1 and arrive before any commit:
        // the coordinator merges the raises into a single forced round.
        let mut fed = two_by_three();
        // Enqueue both sends before processing: inject without draining.
        fed.inject(
            n(0, 0),
            Input::AppSend {
                to: n(1, 1),
                payload: pay(1),
            },
        );
        fed.inject(
            n(0, 2),
            Input::AppSend {
                to: n(1, 2),
                payload: pay(2),
            },
        );
        fed.run_to_quiescence();
        assert_eq!(fed.clc_counts(1), (0, 1), "one coalesced forced CLC");
        assert_eq!(fed.deliveries.len(), 2);
    }

    #[test]
    fn full_ddv_mode_adds_transitivity() {
        let mut fed = InstantFederation::new(
            ProtocolConfig::new(vec![2, 2, 2]).with_piggyback(PiggybackMode::FullDdv),
        );
        // 0 -> 1: cluster 1 learns DDV[0]=1 (forced CLC #1 in cluster 1).
        fed.app_send(n(0, 0), n(1, 0), pay(1));
        // 1 -> 2: cluster 2 learns about cluster 1 AND cluster 0
        // transitively (forced CLC in cluster 2).
        fed.app_send(n(1, 0), n(2, 0), pay(2));
        assert_eq!(fed.engine(n(2, 0)).ddv().get(0), SeqNum(1));
        let forced_before = fed.clc_counts(2).1;
        // 0 -> 2 with SN 1: already covered transitively -> NO forced CLC.
        fed.app_send(n(0, 0), n(2, 0), pay(3));
        assert_eq!(
            fed.clc_counts(2).1,
            forced_before,
            "transitivity suppressed the force"
        );
        assert_eq!(fed.delivered_tags(n(2, 0)), vec![2, 3]);
    }

    #[test]
    fn sn_only_mode_lacks_transitivity() {
        let mut fed = InstantFederation::new(ProtocolConfig::new(vec![2, 2, 2]));
        fed.app_send(n(0, 0), n(1, 0), pay(1));
        fed.app_send(n(1, 0), n(2, 0), pay(2));
        assert_eq!(
            fed.engine(n(2, 0)).ddv().get(0),
            SeqNum(0),
            "SN-only carries no transitive info"
        );
        let forced_before = fed.clc_counts(2).1;
        fed.app_send(n(0, 0), n(2, 0), pay(3));
        assert_eq!(
            fed.clc_counts(2).1,
            forced_before + 1,
            "direct force needed"
        );
    }

    // ---- rollback ----

    #[test]
    fn fault_in_independent_cluster_rolls_back_only_itself() {
        let mut fed = two_by_three();
        fed.fire_clc_timer(0);
        fed.fire_clc_timer(1);
        fed.fail_node(n(0, 2));
        assert_eq!(rollbacks(&fed), vec![(0, SeqNum(2))]);
        assert!(!fed.engine(n(0, 2)).is_failed(), "revived by rollback");
        assert_eq!(fed.engine(n(1, 0)).sn(), SeqNum(2), "cluster 1 untouched");
    }

    #[test]
    fn a_rollback_loses_the_work_since_the_restored_commit() {
        let mut fed = two_by_three();
        fed.fire_clc_timer(0);
        let latest = fed.engine(n(0, 0)).store().latest().expect("committed");
        let committed_at = latest.meta.committed_at;
        for tag in 0..3 {
            fed.app_send(n(0, 1), n(0, 2), pay(tag));
        }
        fed.fail_node(n(0, 2));
        let report = fed.report();
        let stats = &report.clusters[0];
        let (rolled_back_at, restore_sn, _) = stats.rollbacks[0];
        assert_eq!(restore_sn, SeqNum(2));
        assert!(rolled_back_at > committed_at);
        assert_eq!(stats.work_lost, [rolled_back_at - committed_at]);
    }

    #[test]
    fn receiver_fault_triggers_log_replay_not_sender_rollback() {
        let mut fed = two_by_three();
        fed.app_send(n(0, 1), n(1, 2), pay(9)); // forces CLC2 in cluster 1
        assert_eq!(fed.delivered_tags(n(1, 2)), vec![9]);
        // Receiver cluster fails and restores CLC2 — whose state predates
        // the delivery of tag 9. The sender must replay it.
        fed.fail_node(n(1, 1));
        assert_eq!(rollbacks(&fed), vec![(1, SeqNum(2))]);
        // Sender cluster did not roll back…
        assert_eq!(fed.engine(n(0, 0)).sn(), SeqNum(1));
        // …and the message was re-delivered from the log exactly once more.
        assert_eq!(fed.delivered_tags(n(1, 2)), vec![9, 9]);
        assert_eq!(fed.report().late_crossings, 0);
    }

    #[test]
    fn sender_fault_cascades_to_dependent_receiver() {
        let mut fed = two_by_three();
        fed.app_send(n(0, 1), n(1, 2), pay(5)); // cluster 1 forced CLC2, DDV[0]=1
                                                // Sender cluster fails with only its initial CLC stored: restores
                                                // SN 1 and loses the send. Cluster 1's CLC2 has DDV[0] = 1 >= 1 ->
                                                // cluster 1 restores CLC2 itself: the forced CLC committed before
                                                // the message was delivered, so its state is clean of the ghost.
        fed.fail_node(n(0, 0));
        assert!(rollbacks(&fed).contains(&(0, SeqNum(1))));
        assert!(rollbacks(&fed).contains(&(1, SeqNum(2))));
        let receiver = fed.engine(n(1, 2));
        assert_eq!(receiver.sn(), SeqNum(2));
        assert_eq!(
            receiver.ddv().get(0),
            SeqNum(1),
            "the stamp survives; the delivery does not"
        );
        // The restored checkpoint's delivery record is empty: the ghost
        // message is no longer marked delivered.
        assert_eq!(
            receiver.store().latest().unwrap().payload.delivered.len(),
            0
        );
        // The sender's log entry for the lost send was truncated.
        assert!(fed.engine(n(0, 1)).log().is_empty());
    }

    #[test]
    fn sender_checkpoint_then_fault_spares_receiver() {
        let mut fed = two_by_three();
        fed.app_send(n(0, 1), n(1, 2), pay(5)); // forced CLC2 in cluster 1
        fed.fire_clc_timer(0); // sender commits CLC2 *after* the send
                               // Now the send predates the sender's restored CLC2? No: the send
                               // happened at sender SN 1, before CLC2. Restoring CLC2 keeps it.
        fed.fail_node(n(0, 0));
        assert_eq!(rollbacks(&fed), vec![(0, SeqNum(2))]);
        assert_eq!(
            fed.engine(n(1, 2)).sn(),
            SeqNum(2),
            "receiver keeps its forced CLC: alert SN 2 > DDV[0]=1"
        );
        // Log entry survives the sender rollback (logged at SN 1 < 2).
        assert_eq!(fed.engine(n(0, 1)).log().len(), 1);
    }

    #[test]
    fn duplicate_suppression_on_replayed_messages() {
        let mut fed = two_by_three();
        fed.app_send(n(0, 1), n(1, 2), pay(9));
        // Receiver commits another CLC *after* delivery; restoring it keeps
        // the delivery, so the replay (ack 2 >= alert 3? no — ack was 2,
        // alert 3 -> no resend at all).
        fed.fire_clc_timer(1);
        fed.fail_node(n(1, 1));
        assert_eq!(rollbacks(&fed), vec![(1, SeqNum(3))]);
        assert_eq!(
            fed.delivered_tags(n(1, 2)),
            vec![9],
            "no replay needed: delivery survived in CLC3"
        );
    }

    #[test]
    fn unrecoverable_single_node_cluster() {
        let mut fed = InstantFederation::new(ProtocolConfig::new(vec![1, 2]));
        // A lone node has no replica holder: its fragment is lost.
        fed.input(n(0, 0), Input::Fail);
        // Detection must come from within the cluster; the lone node IS the
        // cluster, so deliver detection directly (it is failed, so use the
        // engine of cluster 1? No — recoverability is checked by the
        // detector's engine in the same cluster). Use the failed node's own
        // engine after revival-less detection: simplest is a fresh check.
        fed.input(
            n(0, 0),
            Input::Receive {
                from: n(0, 0),
                msg: Msg::RollbackOrder {
                    restore_sn: SeqNum(1),
                    epoch: 1,
                },
            },
        );
        assert!(!fed.engine(n(0, 0)).is_failed(), "explicit order revives");
    }

    #[test]
    fn multi_fault_detection_reports_unrecoverable() {
        let mut fed = two_by_three();
        // Degree-1 replication: adjacent double fault loses a fragment.
        fed.input(n(0, 1), Input::Fail);
        fed.input(n(0, 2), Input::Fail);
        // Survivor checks recoverability of rank 1 while rank 2 (its
        // replica holder) is also down — the engine-level check only sees
        // single-fault recoverability, so emulate the detector asking about
        // the pair via replication policy:
        let policy = fed.cfg.replication;
        assert!(!policy.recoverable(&[1, 2], 3));
        // Single-rank detection still succeeds for a lone fault.
        fed.input(
            n(0, 0),
            Input::DetectFaults {
                failed_ranks: vec![1],
            },
        );
        assert!(!fed.engine(n(0, 1)).is_failed());
    }

    // ---- garbage collection ----

    #[test]
    fn gc_prunes_old_clcs_everywhere() {
        let mut fed = two_by_three();
        for _ in 0..5 {
            fed.fire_clc_timer(0);
            fed.fire_clc_timer(1);
        }
        assert_eq!(fed.engine(n(0, 1)).store().len(), 6);
        fed.run_gc();
        // Independent clusters: only the latest CLC can ever be needed.
        for c in 0..2u16 {
            for r in 0..3 {
                assert_eq!(fed.engine(n(c, r)).store().len(), 1, "C{c} n{r}");
            }
        }
        let clusters = fed.report().clusters;
        assert_eq!(clusters[0].gc_before_after, vec![(6, 1)], "before, after");
        assert_eq!(clusters[1].gc_before_after.len(), 1);
    }

    #[test]
    fn gc_keeps_dependency_needed_clcs() {
        let mut fed = two_by_three();
        fed.app_send(n(0, 0), n(1, 0), pay(1)); // c1 forced CLC2 (DDV[0]=1)
        fed.fire_clc_timer(1); // c1 CLC3
        fed.run_gc();
        // Failure of cluster 0 restores SN 1 and loses the send; cluster 1
        // falls back to its forced CLC 2 (which recorded the dependency
        // before delivering). The initial CLC is prunable, CLC2 is not.
        let c1_store = fed.engine(n(1, 0)).store();
        assert_eq!(c1_store.len(), 2, "initial CLC pruned; CLC2 kept");
        // After cluster 0 checkpoints (send now protected), GC can prune.
        fed.fire_clc_timer(0);
        fed.run_gc();
        assert!(fed.engine(n(1, 0)).store().len() <= 2);
    }

    #[test]
    fn gc_prunes_acked_logs() {
        let mut fed = two_by_three();
        fed.app_send(n(0, 0), n(1, 0), pay(1)); // acked with SN 2
        fed.fire_clc_timer(0); // protect the send under CLC2
        fed.fire_clc_timer(1); // receiver at CLC3
        assert_eq!(fed.engine(n(0, 0)).log().len(), 1);
        fed.run_gc();
        // min for cluster 1 is 3 (no one depends on it); ack 2 < 3 ->
        // prunable.
        assert_eq!(fed.engine(n(0, 0)).log().len(), 0);
    }

    // ---- freeze-window behaviour ----

    #[test]
    fn gc_fault_tolerance_two_keeps_deeper_clcs() {
        // Same history, two GC settings: the k=2 collector must keep
        // every CLC that any *pair* of simultaneous failures could need,
        // so it can never prune more than the k=1 collector.
        let run = |k: usize| {
            let mut fed = InstantFederation::new(ProtocolConfig {
                gc_fault_tolerance: k,
                ..ProtocolConfig::new(vec![2, 2, 2])
            });
            // Interleaved cross traffic and checkpoints.
            fed.app_send(n(0, 0), n(1, 0), pay(1));
            fed.fire_clc_timer(0);
            fed.app_send(n(1, 0), n(2, 0), pay(2));
            fed.fire_clc_timer(1);
            fed.app_send(n(2, 0), n(0, 0), pay(3));
            fed.fire_clc_timer(2);
            fed.app_send(n(0, 1), n(2, 1), pay(4));
            fed.run_gc();
            (0..3u16)
                .map(|c| fed.engine(n(c, 0)).store().len())
                .collect::<Vec<_>>()
        };
        let k1 = run(1);
        let k2 = run(2);
        for (a, b) in k1.iter().zip(&k2) {
            assert!(b >= a, "k=2 pruned more than k=1: {k1:?} vs {k2:?}");
        }
    }

    #[test]
    fn multi_rank_detection_checks_joint_recoverability() {
        let mut fed = InstantFederation::new(ProtocolConfig::new(vec![4, 2]));
        fed.fire_clc_timer(0);
        fed.input(n(0, 1), Input::Fail);
        fed.input(n(0, 2), Input::Fail);
        // Adjacent pair at replication degree 1: rank 1's only replica
        // holder is rank 2.
        fed.input(
            n(0, 0),
            Input::DetectFaults {
                failed_ranks: vec![1, 2],
            },
        );
        assert_eq!(
            fed.report().unrecoverable_faults,
            2,
            "both ranks reported lost"
        );
        assert!(fed.engine(n(0, 1)).is_failed(), "no rollback happened");

        // Same pair at degree 2: jointly recoverable, cluster rolls back.
        let mut fed = InstantFederation::new(
            ProtocolConfig::new(vec![4, 2])
                .with_replication(storage::ReplicationPolicy::with_degree(2)),
        );
        fed.fire_clc_timer(0);
        fed.input(n(0, 1), Input::Fail);
        fed.input(n(0, 2), Input::Fail);
        fed.input(
            n(0, 0),
            Input::DetectFaults {
                failed_ranks: vec![1, 2],
            },
        );
        assert_eq!(fed.report().unrecoverable_faults, 0);
        assert!(!fed.engine(n(0, 1)).is_failed(), "revived");
        assert!(!fed.engine(n(0, 2)).is_failed(), "revived");
        assert_eq!(rollbacks(&fed), vec![(0, SeqNum(2))]);
    }

    #[test]
    fn mutual_dependency_fault_terminates_without_domino() {
        // Both clusters' newest CLCs reference each other's newest SNs —
        // the alert-echo scenario. The cascade must terminate (the
        // quiescence budget enforces it), restore the forced CLCs rather
        // than unwinding to the start, and leave a consistent state.
        let mut fed = two_by_three();
        for round in 0..4u64 {
            fed.app_send(n(0, 0), n(1, 0), pay(round * 2 + 1));
            fed.app_send(n(1, 1), n(0, 1), pay(round * 2 + 2));
        }
        let sn_before_0 = fed.engine(n(0, 0)).sn();
        let sn_before_1 = fed.engine(n(1, 0)).sn();
        assert!(sn_before_0 >= SeqNum(4), "forced CLCs accumulated");

        fed.fail_node(n(0, 2));
        // No deep unwind: each cluster ends within one checkpoint of where
        // it was (the oldest-offending rule restores the *recording* CLC).
        let sn_after_0 = fed.engine(n(0, 0)).sn();
        let sn_after_1 = fed.engine(n(1, 0)).sn();
        assert!(
            sn_before_0.value() - sn_after_0.value() <= 1,
            "cluster 0 unwound {} -> {}",
            sn_before_0,
            sn_after_0
        );
        assert!(
            sn_before_1.value() - sn_after_1.value() <= 1,
            "cluster 1 unwound {} -> {}",
            sn_before_1,
            sn_after_1
        );
        assert_eq!(fed.report().late_crossings, 0);
        // Follow-up traffic still works after the cascade.
        fed.app_send(n(0, 0), n(1, 2), pay(99));
        assert!(fed.delivered_tags(n(1, 2)).contains(&99));
    }

    #[test]
    fn app_sends_issued_during_freeze_are_released_after_commit() {
        // Drive the 2PC manually so we can inject a send mid-freeze.
        let mut fed = two_by_three();
        fed.inject(n(0, 0), Input::ClcTimer);
        // The coordinator froze itself and broadcast requests; before
        // draining the queue, node 1 wants to send.
        assert!(fed.engine(n(0, 0)).is_frozen());
        // Node 1 is not frozen yet (request still queued) so this sends
        // immediately; freeze IT first instead: drain, then test on a
        // second round. Simplest deterministic check: coordinator's own
        // sends while frozen are queued.
        fed.inject(
            n(0, 1),
            Input::AppSend {
                to: n(0, 2),
                payload: pay(42),
            },
        );
        let queued = fed.queue.len();
        fed.inject(
            n(0, 0),
            Input::AppSend {
                to: n(0, 2),
                payload: pay(43),
            },
        );
        assert_eq!(fed.queue.len(), queued, "send frozen during 2PC");
        fed.run_to_quiescence();
        let tags = fed.delivered_tags(n(0, 2));
        assert!(tags.contains(&42) && tags.contains(&43), "tags {tags:?}");
        assert_eq!(fed.engine(n(0, 0)).sn(), SeqNum(2));
    }

    #[test]
    fn intra_messages_arriving_during_freeze_become_channel_state() {
        let mut fed = two_by_three();
        // Freeze the whole cluster: fire timer, but intercept before
        // delivering the commit by interleaving a message into the queue.
        fed.inject(n(0, 0), Input::ClcTimer);
        // Deliver the requests to nodes 1 and 2 manually.
        fed.step_n(2);
        assert!(fed.engine(n(0, 1)).is_frozen());
        // Node 1 already sent a message to node 2 logically "in flight":
        // inject an AppIntra delivery to the frozen node 2.
        let queued = fed.queue.len();
        fed.inject(
            n(0, 2),
            Input::Receive {
                from: n(0, 1),
                msg: Msg::AppIntra {
                    payload: pay(77),
                    sent_at_sn: SeqNum(1),
                },
            },
        );
        assert_eq!(fed.queue.len(), queued, "queued as channel state…");
        assert!(fed.deliveries.is_empty(), "…not delivered");
        fed.run_to_quiescence();
        // Delivered at commit…
        assert_eq!(fed.delivered_tags(n(0, 2)), vec![77]);
        // …and recorded in the committed checkpoint.
        let store = fed.engine(n(0, 2)).store();
        let latest = store.latest().unwrap();
        assert_eq!(latest.payload.channel_state.len(), 1);
        assert_eq!(latest.payload.channel_state[0].1.tag, 77);
        assert_eq!(fed.report().late_crossings, 0);
    }
}
