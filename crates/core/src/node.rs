//! The per-node HC3I protocol engine.
//!
//! One [`NodeEngine`] per node of the federation. The engine is a pure
//! state machine ([`NodeEngine::handle`] consumes an [`Input`], returns
//! [`Output`] actions) so the identical protocol code runs under the
//! discrete-event simulator and the threaded message-passing runtime.
//!
//! Protocol roles:
//!
//! * every node: freeze/stage/commit in the intra-cluster two-phase commit,
//!   fragment replication to neighbours, CIC checks on incoming
//!   inter-cluster messages, sender-side logging, alert-driven replay;
//! * the cluster **coordinator** (rank 0): serializes CLC rounds, owns the
//!   unforced-CLC timer, coordinates rollback and relays alerts;
//! * the **GC initiator** (cluster 0's coordinator): runs the centralized
//!   garbage collection of §3.5.

use crate::checkpoint::{DeliveredRecord, NodeCheckpoint};
use crate::config::{PiggybackMode, ProtocolConfig};
use crate::epoch::EpochFloors;
use crate::gc;
use crate::io::{Input, Output, OutputBuf};
use crate::msg::{AppPayload, ClcReason, Msg, Piggyback};
use desim::SimTime;
use netsim::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{ClcMeta, ClcStore, Ddv, LogId, MessageLog, SeqNum};

/// An inter-cluster message held until a forced CLC commits (paper §3.2:
/// "the application takes messages into account only when the forced CLC is
/// committed").
#[derive(Debug, Clone)]
struct PendingInter {
    from: NodeId,
    payload: AppPayload,
    piggyback: Piggyback,
    log_id: LogId,
}

/// State held between a `ClcRequest` and the matching `ClcCommit`.
#[derive(Debug)]
struct FrozenState {
    round: u64,
    staged: NodeCheckpoint,
    /// Replica holders that have not yet confirmed storing our fragment
    /// (a short vector — at most the replication degree — so membership
    /// is a scan, not a hash probe).
    awaiting_frag: Vec<u32>,
    /// Whether our ClcAck has been sent to the coordinator.
    acked: bool,
    /// Intra-cluster app messages captured during the freeze (channel
    /// state): recorded in the checkpoint *and* delivered at commit.
    channel_msgs: Vec<(NodeId, AppPayload)>,
    /// Inter-cluster app messages received during the freeze, re-processed
    /// at commit.
    deferred: Vec<(NodeId, Msg)>,
    /// Application sends issued during the freeze, sent at commit.
    out_queue: Vec<(NodeId, AppPayload)>,
}

/// A CLC round in progress at the coordinator.
#[derive(Debug)]
struct RoundState {
    round: u64,
    /// Per-rank ack flags plus a running count (duplicate-proof without
    /// hashing on the commit hot path).
    acked: Vec<bool>,
    ack_count: u32,
    reasons: Vec<ClcReason>,
}

/// Coordinator-only state.
#[derive(Debug, Default)]
struct CoordState {
    next_round: u64,
    current: Option<RoundState>,
    /// Reasons that arrived while a round was running.
    queued: Vec<ClcReason>,
}

/// GC-initiator-only state: DDV lists collected so far (stamps are
/// `Arc`-shared with the reporting stores — collecting holds references,
/// not copies).
#[derive(Debug)]
struct GcState {
    lists: BTreeMap<usize, Vec<(SeqNum, Arc<Ddv>)>>,
}

/// Control-plane state, touched only on CLC rounds, rollbacks, fault
/// detections and garbage collections — never on the per-message hot path
/// (application delivery, sender-side logging, duplicate checks). Boxed
/// behind [`NodeEngine::cold`] so the hot fields of 100k engines pack
/// densely in the host's arena; one pointer chase on the rare paths buys
/// roughly half the per-engine inline footprint off the cache-resident set.
#[derive(Debug)]
struct ColdState {
    /// This node's checkpoint-fragment replica holders — a pure function
    /// of rank, cluster size and replication degree, so computed once and
    /// shared by reference with every per-commit fragment fan-out batch.
    frag_holders: Arc<[u32]>,
    store: ClcStore<NodeCheckpoint>,
    coord: CoordState,
    gc: Option<GcState>,
    /// Highest alert epoch processed per origin cluster (alert dedup);
    /// sparse, like the engine's ghost floors.
    alert_seen: EpochFloors,
    /// Count of intra-cluster messages observed crossing a checkpoint
    /// boundary outside a freeze window (consistency monitor).
    late_crossings: u64,
    /// Latest serialized application state published by the host.
    app_state: Option<Vec<u8>>,
}

/// The per-node protocol engine.
///
/// Layout: fields read on (nearly) every input live inline; everything
/// the control plane alone touches sits behind the cold-state box, and
/// the freeze window state — a whole staged [`NodeCheckpoint`] — is boxed
/// because it exists only between a `ClcRequest` and its commit.
///
/// Footprint: no field, hot or cold, is sized by the federation's width.
/// The only `O(clusters)` data an engine references — the config and the
/// DDV stamps — is `Arc`-shared, and the per-origin epoch floors are
/// sparse, so a host's arena costs `nodes x constant`, not
/// `nodes x clusters` (`tests/engine_footprint.rs` holds it there).
#[derive(Debug)]
pub struct NodeEngine {
    /// Static federation configuration, `Arc`-shared by every engine of a
    /// federation: engines read it, nobody writes it after construction,
    /// and at 100k-node scale per-engine copies (each holding the whole
    /// `cluster_sizes` vector) would dominate the arena's memory. Hot:
    /// every inter-cluster send reads the piggyback mode.
    cfg: Arc<ProtocolConfig>,
    id: NodeId,
    /// Rollback epoch: bumped on every cluster rollback, stamps intra-
    /// cluster control messages so stale rounds are discarded.
    epoch: u64,
    sn: SeqNum,
    /// The node's current DDV. `Arc`-shared: outside a commit the DDV is
    /// immutable, so the commit's broadcast stamp *is* the live DDV, the
    /// FullDdv piggyback stamp, and the stored `ClcMeta` stamp — one
    /// allocation per cluster per CLC (the coordinator's), zero per node.
    ddv: Arc<Ddv>,
    log: MessageLog<AppPayload>,
    /// Delivery record for inter-cluster duplicate suppression:
    /// `(sender, log id) -> SN at delivery`. Checkpointed copy-on-write:
    /// staging a CLC seals the record's delta instead of cloning the map.
    delivered: DeliveredRecord,
    /// Inter-cluster messages awaiting a forced CLC.
    pending_inter: Vec<PendingInter>,
    frozen: Option<Box<FrozenState>>,
    failed: bool,
    /// Ghost floor per origin cluster: inter-cluster messages stamped with
    /// an epoch below this are in-flight sends of a dead incarnation.
    /// Sparse: only origins that ever rolled back hold an entry.
    min_epoch: EpochFloors,
    /// Application-material activity (delivery, send, commit) since the
    /// last restore; a re-restore of the latest CLC with no activity is a
    /// no-op and must not re-alert (terminates echo cascades).
    dirty: bool,
    /// Rarely-touched control-plane state (see [`ColdState`]).
    cold: Box<ColdState>,
}

impl NodeEngine {
    /// Create the engine for node `id`. Every node starts with the initial
    /// CLC already committed ("each cluster stores a first CLC which is the
    /// beginning of the application", paper §4), so `SN = 1`.
    pub fn new(cfg: impl Into<Arc<ProtocolConfig>>, id: NodeId) -> Self {
        let cfg = cfg.into();
        let initial_sn = SeqNum(1);
        let mut ddv = Ddv::zeros(cfg.num_clusters());
        ddv.set(id.cluster.index(), initial_sn);
        Self::with_initial_ddv(cfg, id, Arc::new(ddv))
    }

    /// [`NodeEngine::new`] with the initial DDV supplied by the caller:
    /// every node of a cluster starts from the *same* stamp (own entry at
    /// the initial SN, zero elsewhere), so an arena constructor allocates
    /// it once per cluster instead of once per node.
    pub fn with_initial_ddv(cfg: Arc<ProtocolConfig>, id: NodeId, ddv: Arc<Ddv>) -> Self {
        let n = cfg.num_clusters();
        assert!(id.cluster.index() < n, "node's cluster out of range");
        assert!(
            id.rank < cfg.nodes_in(id.cluster.index()),
            "node rank out of range"
        );
        let initial_sn = SeqNum(1);
        debug_assert_eq!(ddv.len(), n, "initial DDV dimension mismatch");
        debug_assert!(
            ddv.iter().enumerate().all(|(c, sn)| {
                sn == if c == id.cluster.index() {
                    initial_sn
                } else {
                    SeqNum::ZERO
                }
            }),
            "initial DDV must be the cluster's first-CLC stamp"
        );
        let frag_holders: Arc<[u32]> = cfg
            .replication
            .replica_holders(id.rank, cfg.nodes_in(id.cluster.index()))
            .into();
        let mut store = ClcStore::new();
        store.commit(
            ClcMeta {
                sn: initial_sn,
                ddv: ddv.clone(),
                committed_at: SimTime::ZERO,
                forced: false,
            },
            NodeCheckpoint::default(),
        );
        NodeEngine {
            cfg,
            id,
            epoch: 0,
            sn: initial_sn,
            ddv,
            log: MessageLog::new(),
            delivered: DeliveredRecord::new(),
            pending_inter: vec![],
            frozen: None,
            failed: false,
            min_epoch: EpochFloors::new(n),
            dirty: false,
            cold: Box::new(ColdState {
                frag_holders,
                store,
                coord: CoordState::default(),
                gc: None,
                alert_seen: EpochFloors::new(n),
                late_crossings: 0,
                app_state: None,
            }),
        }
    }

    // ---- accessors -------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }
    /// Current cluster sequence number.
    pub fn sn(&self) -> SeqNum {
        self.sn
    }
    /// Current DDV.
    pub fn ddv(&self) -> &Ddv {
        &self.ddv
    }
    /// The CLC store.
    pub fn store(&self) -> &ClcStore<NodeCheckpoint> {
        &self.cold.store
    }
    /// The sender-side message log.
    pub fn log(&self) -> &MessageLog<AppPayload> {
        &self.log
    }
    /// Whether the node is currently failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }
    /// Whether the node is its cluster's coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.id == self.my_coordinator()
    }
    /// Whether a CLC two-phase commit is in progress on this node.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }
    /// Messages held for a pending forced CLC.
    pub fn pending_inter_count(&self) -> usize {
        self.pending_inter.len()
    }
    /// Consistency monitor: checkpoint-crossing intra messages seen.
    pub fn late_crossings(&self) -> u64 {
        self.cold.late_crossings
    }
    /// Current rollback epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn my_cluster(&self) -> usize {
        self.id.cluster.index()
    }

    fn cluster_size(&self) -> u32 {
        self.cfg.nodes_in(self.my_cluster())
    }

    fn my_coordinator(&self) -> NodeId {
        self.cfg.coordinator(self.my_cluster())
    }

    fn current_piggyback(&mut self) -> Piggyback {
        match self.cfg.piggyback {
            PiggybackMode::SnOnly => Piggyback::Sn(self.sn),
            // The live DDV is already the shared immutable stamp.
            PiggybackMode::FullDdv => Piggyback::Ddv(self.ddv.clone()),
        }
    }

    /// Does an incoming piggyback require a forced CLC before delivery?
    fn needs_forced_clc(&self, piggyback: &Piggyback, sender_cluster: usize) -> bool {
        match piggyback {
            Piggyback::Sn(sn) => *sn > self.ddv.get(sender_cluster),
            Piggyback::Ddv(ddv) => !ddv.dominated_by(&self.ddv),
        }
    }

    // ---- main dispatch ---------------------------------------------------

    /// Feed one input; appends the actions the hosting engine must perform
    /// to `out` (a reusable, caller-owned buffer — hosts keep one alive
    /// across events so the hot path allocates nothing).
    pub fn handle(&mut self, now: SimTime, input: Input, out: &mut OutputBuf) {
        if self.failed {
            // A failed node reacts only to the rollback order that revives
            // it from stable storage.
            if let Input::Receive {
                msg: Msg::RollbackOrder { restore_sn, epoch },
                ..
            } = &input
            {
                self.apply_rollback(*restore_sn, *epoch, out);
            }
            return;
        }
        match input {
            Input::Receive { from, msg } => self.handle_msg(now, from, msg, out),
            Input::AppSend { to, payload } => self.app_send(to, payload, out),
            Input::ClcTimer => self.on_clc_timer(now, out),
            Input::GcTimer => self.on_gc_timer(out),
            Input::Fail => {
                self.failed = true;
            }
            Input::DetectFaults { failed_ranks } => self.on_detect_faults(&failed_ranks, out),
            Input::AppStateUpdate { state } => {
                self.cold.app_state = Some(state);
            }
        }
    }

    fn handle_msg(&mut self, now: SimTime, from: NodeId, msg: Msg, out: &mut OutputBuf) {
        match msg {
            // ---- 2PC ----
            Msg::ClcInit { reason, epoch } => {
                if epoch == self.epoch && self.is_coordinator() {
                    self.coord_init(now, reason, out);
                }
            }
            Msg::ClcRequest { round, epoch } => {
                if epoch == self.epoch {
                    self.freeze_and_stage(now, round, out);
                }
            }
            Msg::FragmentReplica {
                round,
                owner,
                epoch,
            } => {
                if epoch == self.epoch {
                    // Store of the replica content is implicit (metadata
                    // level); confirm to the owner.
                    self.send_or_local(
                        now,
                        NodeId::new(self.id.cluster.0, owner),
                        Msg::FragmentStored {
                            round,
                            holder: self.id.rank,
                            epoch,
                        },
                        out,
                    );
                }
            }
            Msg::FragmentStored {
                round,
                holder,
                epoch,
            } => {
                if epoch != self.epoch {
                    return;
                }
                let mut ack_now = false;
                if let Some(f) = self.frozen.as_mut() {
                    if f.round == round {
                        if let Some(pos) = f.awaiting_frag.iter().position(|&h| h == holder) {
                            f.awaiting_frag.swap_remove(pos);
                        }
                        if f.awaiting_frag.is_empty() && !f.acked {
                            f.acked = true;
                            ack_now = true;
                        }
                    }
                }
                if ack_now {
                    let rank = self.id.rank;
                    self.send_or_local(
                        now,
                        self.my_coordinator(),
                        Msg::ClcAck {
                            round,
                            rank,
                            epoch: self.epoch,
                        },
                        out,
                    );
                }
            }
            Msg::ClcAck { round, rank, epoch } => {
                if epoch == self.epoch && self.is_coordinator() {
                    self.coord_ack(now, round, rank, out);
                }
            }
            Msg::ClcCommit {
                round,
                sn,
                ddv,
                forced,
                epoch,
            } => {
                if epoch == self.epoch {
                    self.apply_commit(now, round, sn, ddv, forced, out);
                }
            }

            // ---- application ----
            Msg::AppIntra {
                payload,
                sent_at_sn,
            } => {
                if let Some(f) = self.frozen.as_mut() {
                    // Channel state: recorded in the checkpoint, delivered
                    // at commit.
                    f.channel_msgs.push((from, payload));
                } else {
                    if sent_at_sn != self.sn {
                        self.cold.late_crossings += 1;
                        out.push(Output::LateCrossing { from });
                    }
                    self.dirty = true;
                    out.push(Output::DeliverApp { from, payload });
                }
            }
            Msg::AppInter {
                payload,
                piggyback,
                log_id,
                resend,
                sender_epoch,
            } => {
                // Ghost rejection: a message stamped with an epoch below
                // the known floor was sent by an incarnation whose
                // execution has been rolled back — it must not exist.
                let origin = from.cluster.index();
                let floor = self.min_epoch.get(origin);
                if sender_epoch < floor {
                    return;
                }
                if sender_epoch > floor {
                    self.min_epoch.raise(origin, sender_epoch);
                }
                if let Some(f) = self.frozen.as_mut() {
                    f.deferred.push((
                        from,
                        Msg::AppInter {
                            payload,
                            piggyback,
                            log_id,
                            resend,
                            sender_epoch,
                        },
                    ));
                } else {
                    self.recv_inter(now, from, payload, piggyback, log_id, out);
                }
            }
            Msg::InterAck {
                log_id,
                receiver_sn,
            } => {
                // The entry may have been truncated by a sender-side
                // rollback; a stale ack is then simply dropped.
                let _ = self.log.ack(log_id, receiver_sn);
            }

            // ---- rollback ----
            Msg::RollbackOrder { restore_sn, epoch } => {
                self.apply_rollback(restore_sn, epoch, out);
            }
            Msg::RollbackAlert {
                origin,
                sn,
                origin_epoch,
            } => {
                if self.is_coordinator() {
                    self.on_alert(now, origin, sn, origin_epoch, out);
                }
            }
            Msg::AlertLocal {
                origin,
                sn,
                origin_epoch,
            } => {
                self.min_epoch.raise(origin, origin_epoch);
                self.resend_logged(origin, sn, out);
            }

            // ---- garbage collection ----
            Msg::GcCollect => {
                let list = self.cold.store.ddv_list();
                self.send_or_local(
                    now,
                    from,
                    Msg::GcDdvList {
                        cluster: self.my_cluster(),
                        list,
                    },
                    out,
                );
            }
            Msg::GcDdvList { cluster, list } => {
                self.on_gc_list(now, cluster, list, out);
            }
            Msg::GcPrune { min_sns } => {
                // A coordinator hearing this from outside its cluster
                // relays it to its own nodes.
                if self.is_coordinator() && from.cluster != self.id.cluster {
                    self.send_to_other_ranks(
                        &Msg::GcPrune {
                            min_sns: min_sns.clone(),
                        },
                        out,
                    );
                }
                self.apply_gc_prune(&min_sns, out);
            }
            // Transport frames terminate at the *host* reliability layer
            // (crate::xport): hosts unwrap Reliable and consume XportAck
            // before the engine is invoked. Reaching here means a host
            // wiring bug; drop rather than corrupt protocol state.
            Msg::Reliable { .. } | Msg::XportAck { .. } => {
                debug_assert!(false, "transport frame reached the engine");
            }
        }
    }

    // ---- helpers ---------------------------------------------------------

    /// Send `msg` to every other node of this cluster (allocation-free:
    /// the rank loop is inlined instead of materializing a rank list).
    fn send_to_other_ranks(&self, msg: &Msg, out: &mut OutputBuf) {
        let me = self.id.rank;
        for rank in 0..self.cluster_size() {
            if rank != me {
                out.push(Output::Send {
                    to: NodeId::new(self.id.cluster.0, rank),
                    msg: msg.clone(),
                });
            }
        }
    }

    /// Send `msg` to `to`, short-circuiting messages to self.
    fn send_or_local(&mut self, now: SimTime, to: NodeId, msg: Msg, out: &mut OutputBuf) {
        if to == self.id {
            self.handle_msg(now, to, msg, out);
        } else {
            out.push(Output::Send { to, msg });
        }
    }

    /// Broadcast `msg` to every other node of this cluster, then apply it
    /// locally.
    fn broadcast_cluster(&mut self, now: SimTime, msg: Msg, out: &mut OutputBuf) {
        self.send_to_other_ranks(&msg, out);
        self.handle_msg(now, self.id, msg, out);
    }

    // ---- application sends -----------------------------------------------

    fn app_send(&mut self, to: NodeId, payload: AppPayload, out: &mut OutputBuf) {
        assert!(to != self.id, "self-sends are not messages");
        if let Some(f) = self.frozen.as_mut() {
            // Application messages are frozen during the 2PC (paper §3.1).
            f.out_queue.push((to, payload));
            return;
        }
        self.do_send(to, payload, out);
    }

    fn do_send(&mut self, to: NodeId, payload: AppPayload, out: &mut OutputBuf) {
        if to.cluster == self.id.cluster {
            out.push(Output::Send {
                to,
                msg: Msg::AppIntra {
                    payload,
                    sent_at_sn: self.sn,
                },
            });
        } else {
            // Optimistic sender-side log (paper §3.3), then send with the
            // piggybacked dependency information (paper §3.2).
            let log_id = self
                .log
                .log(to.cluster.index(), to.rank, payload, payload.bytes, self.sn);
            self.dirty = true;
            out.push(Output::Send {
                to,
                msg: Msg::AppInter {
                    payload,
                    piggyback: self.current_piggyback(),
                    log_id,
                    resend: false,
                    sender_epoch: self.epoch,
                },
            });
        }
    }

    // ---- inter-cluster receive (the CIC rule) ------------------------------

    fn recv_inter(
        &mut self,
        now: SimTime,
        from: NodeId,
        payload: AppPayload,
        piggyback: Piggyback,
        log_id: LogId,
        out: &mut OutputBuf,
    ) {
        // Duplicate (an original raced a replay): re-acknowledge with the
        // SN recorded at first delivery.
        if let Some(ack_sn) = self.delivered.get(&(from, log_id.0)) {
            out.push(Output::Send {
                to: from,
                msg: Msg::InterAck {
                    log_id,
                    receiver_sn: ack_sn,
                },
            });
            return;
        }
        // Duplicate of a message already held for a forced CLC (a
        // duplicating WAN, or an original racing a replay): drop it — the
        // held copy is delivered and acknowledged exactly once when the
        // CLC commits.
        if self
            .pending_inter
            .iter()
            .any(|p| p.from == from && p.log_id == log_id)
        {
            return;
        }
        if self.needs_forced_clc(&piggyback, from.cluster.index()) {
            // Hold the message and ask the coordinator for a forced CLC
            // (paper §3.2: delivered only once the forced CLC commits).
            let reason = ClcReason::Forced(piggyback.clone(), from.cluster.index());
            self.pending_inter.push(PendingInter {
                from,
                payload,
                piggyback,
                log_id,
            });
            let epoch = self.epoch;
            self.send_or_local(
                now,
                self.my_coordinator(),
                Msg::ClcInit { reason, epoch },
                out,
            );
        } else {
            self.deliver_inter(from, payload, log_id, out);
        }
    }

    fn deliver_inter(
        &mut self,
        from: NodeId,
        payload: AppPayload,
        log_id: LogId,
        out: &mut OutputBuf,
    ) {
        self.dirty = true;
        self.delivered.insert((from, log_id.0), self.sn);
        out.push(Output::DeliverApp { from, payload });
        out.push(Output::Send {
            to: from,
            msg: Msg::InterAck {
                log_id,
                receiver_sn: self.sn,
            },
        });
    }

    /// After a commit (or rollback) re-examine held inter-cluster messages.
    fn recheck_pending(&mut self, out: &mut OutputBuf) {
        let mut still_pending = Vec::new();
        for p in std::mem::take(&mut self.pending_inter) {
            if let Some(ack_sn) = self.delivered.get(&(p.from, p.log_id.0)) {
                // Another copy was delivered while this one was held:
                // re-acknowledge, never re-deliver.
                out.push(Output::Send {
                    to: p.from,
                    msg: Msg::InterAck {
                        log_id: p.log_id,
                        receiver_sn: ack_sn,
                    },
                });
            } else if self.needs_forced_clc(&p.piggyback, p.from.cluster.index()) {
                still_pending.push(p);
            } else {
                self.deliver_inter(p.from, p.payload, p.log_id, out);
            }
        }
        self.pending_inter = still_pending;
    }

    // ---- 2PC: node side ----------------------------------------------------

    fn freeze_and_stage(&mut self, now: SimTime, round: u64, out: &mut OutputBuf) {
        if self.frozen.is_some() {
            // Duplicate request within a round (cannot happen with a
            // correct coordinator); ignore.
            return;
        }
        let staged = NodeCheckpoint {
            // O(delta) seal: deliveries since the last CLC move into the
            // shared immutable base; nothing older is copied.
            delivered: self.delivered.seal(),
            channel_state: vec![],
            app_state: self.cold.app_state.clone(),
        };
        // One batched fan-out action per freeze: the hosting engine
        // expands it into per-holder `FragmentReplica` sends (identical
        // ordering and byte accounting to the old per-holder outputs).
        if !self.cold.frag_holders.is_empty() {
            out.push(Output::SendFragments {
                holders: self.cold.frag_holders.clone(),
                round,
                epoch: self.epoch,
            });
        }
        let awaiting = self.cold.frag_holders.to_vec();
        let ack_immediately = awaiting.is_empty();
        self.frozen = Some(Box::new(FrozenState {
            round,
            staged,
            awaiting_frag: awaiting,
            acked: ack_immediately,
            channel_msgs: vec![],
            deferred: vec![],
            out_queue: vec![],
        }));
        if ack_immediately {
            let rank = self.id.rank;
            let epoch = self.epoch;
            let coord = self.my_coordinator();
            self.send_or_local(now, coord, Msg::ClcAck { round, rank, epoch }, out);
        }
    }

    fn apply_commit(
        &mut self,
        now: SimTime,
        round: u64,
        sn: SeqNum,
        ddv: Arc<Ddv>,
        forced: bool,
        out: &mut OutputBuf,
    ) {
        let Some(frozen) = self.frozen.take() else {
            return; // stale commit after a rollback
        };
        if frozen.round != round {
            self.frozen = Some(frozen);
            return;
        }
        let FrozenState {
            mut staged,
            channel_msgs,
            deferred,
            out_queue,
            ..
        } = *frozen;
        staged.channel_state = channel_msgs.clone();
        self.cold.store.commit(
            ClcMeta {
                sn,
                ddv: ddv.clone(),
                committed_at: now,
                forced,
            },
            staged,
        );
        self.sn = sn;
        // The commit's shared stamp *is* the live DDV, the stored stamp
        // and the new outgoing piggyback — no per-node vector clone.
        self.ddv = ddv;
        self.dirty = true;
        out.push(Output::StoreCommitted { sn });
        if self.is_coordinator() {
            out.push(Output::Committed { sn, forced });
            out.push(Output::ResetClcTimer);
        }
        // Deliver the channel state (messages that arrived while frozen).
        for (from, payload) in channel_msgs {
            out.push(Output::DeliverApp { from, payload });
        }
        // Held inter-cluster messages may now be deliverable.
        self.recheck_pending(out);
        // Re-process inter-cluster messages deferred by the freeze.
        for (from, msg) in deferred {
            self.handle_msg(now, from, msg, out);
        }
        // Release the application sends queued during the freeze.
        for (to, payload) in out_queue {
            if let Some(f) = self.frozen.as_mut() {
                // A nested forced round already started; keep them frozen.
                f.out_queue.push((to, payload));
            } else {
                self.do_send(to, payload, out);
            }
        }
        // Coordinator: start a follow-up round if relevant reasons queued.
        if self.is_coordinator() {
            self.coord_maybe_start(now, out);
        }
    }

    // ---- 2PC: coordinator side ---------------------------------------------

    fn coord_init(&mut self, now: SimTime, reason: ClcReason, out: &mut OutputBuf) {
        if !self.reason_relevant(&reason) {
            return;
        }
        match self.cold.coord.current {
            Some(ref mut round) => round.reasons.push(reason),
            None => {
                self.cold.coord.queued.push(reason);
                self.coord_maybe_start(now, out);
            }
        }
    }

    fn on_clc_timer(&mut self, now: SimTime, out: &mut OutputBuf) {
        if !self.is_coordinator() {
            return;
        }
        self.coord_init(now, ClcReason::Timer, out);
    }

    fn reason_relevant(&self, reason: &ClcReason) -> bool {
        match reason {
            ClcReason::Timer => true,
            ClcReason::Forced(piggy, cluster) => self.needs_forced_clc(piggy, *cluster),
        }
    }

    fn coord_maybe_start(&mut self, now: SimTime, out: &mut OutputBuf) {
        if self.cold.coord.current.is_some() {
            return;
        }
        let reasons: Vec<ClcReason> = std::mem::take(&mut self.cold.coord.queued)
            .into_iter()
            .filter(|r| self.reason_relevant(r))
            .collect();
        if reasons.is_empty() {
            return;
        }
        self.cold.coord.next_round += 1;
        let round = self.cold.coord.next_round;
        self.cold.coord.current = Some(RoundState {
            round,
            acked: vec![false; self.cluster_size() as usize],
            ack_count: 0,
            reasons,
        });
        let epoch = self.epoch;
        self.broadcast_cluster(now, Msg::ClcRequest { round, epoch }, out);
    }

    fn coord_ack(&mut self, now: SimTime, round: u64, rank: u32, out: &mut OutputBuf) {
        let size = self.cluster_size();
        let complete = match self.cold.coord.current.as_mut() {
            Some(r) if r.round == round => {
                let idx = rank as usize;
                if idx < r.acked.len() && !r.acked[idx] {
                    r.acked[idx] = true;
                    r.ack_count += 1;
                }
                r.ack_count == size
            }
            _ => false,
        };
        if !complete {
            return;
        }
        let round_state = self.cold.coord.current.take().expect("round exists");
        // Compute the committed stamp: apply every DDV raise, then bump SN.
        // The one DDV allocation of the whole CLC round happens here, at
        // the coordinator; everyone else shares the broadcast `Arc`.
        let mut ddv = (*self.ddv).clone();
        let mut forced = false;
        for reason in &round_state.reasons {
            match reason {
                ClcReason::Timer => {}
                ClcReason::Forced(Piggyback::Sn(sn), cluster) => {
                    ddv.raise(*cluster, *sn);
                    forced = true;
                }
                ClcReason::Forced(Piggyback::Ddv(d), _) => {
                    ddv.merge_max(d);
                    forced = true;
                }
            }
        }
        let sn = self.sn.next();
        ddv.set(self.my_cluster(), sn);
        let epoch = self.epoch;
        self.broadcast_cluster(
            now,
            Msg::ClcCommit {
                round: round_state.round,
                sn,
                ddv: Arc::new(ddv),
                forced,
                epoch,
            },
            out,
        );
    }

    // ---- rollback ----------------------------------------------------------

    fn on_detect_faults(&mut self, failed_ranks: &[u32], out: &mut OutputBuf) {
        if !self
            .cfg
            .replication
            .recoverable(failed_ranks, self.cluster_size())
        {
            for &failed_rank in failed_ranks {
                out.push(Output::Unrecoverable { failed_rank });
            }
            return;
        }
        let restore_sn = self
            .cold
            .store
            .latest()
            .expect("initial CLC always exists")
            .meta
            .sn;
        self.initiate_cluster_rollback(restore_sn, out);
    }

    /// Roll the whole cluster back to `restore_sn` and alert the federation.
    fn initiate_cluster_rollback(&mut self, restore_sn: SeqNum, out: &mut OutputBuf) {
        let new_epoch = self.epoch + 1;
        self.send_to_other_ranks(
            &Msg::RollbackOrder {
                restore_sn,
                epoch: new_epoch,
            },
            out,
        );
        self.apply_rollback(restore_sn, new_epoch, out);
        // Alert every other cluster (paper §3.4), sent by the node that
        // initiated recovery.
        let my_cluster = self.my_cluster();
        for c in 0..self.cfg.num_clusters() {
            if c != my_cluster {
                out.push(Output::Send {
                    to: self.cfg.coordinator(c),
                    msg: Msg::RollbackAlert {
                        origin: my_cluster,
                        sn: restore_sn,
                        origin_epoch: new_epoch,
                    },
                });
            }
        }
    }

    fn apply_rollback(&mut self, restore_sn: SeqNum, epoch: u64, out: &mut OutputBuf) {
        if epoch <= self.epoch {
            return; // stale or duplicate order
        }
        self.epoch = epoch;
        self.failed = false;
        let entry = self
            .cold
            .store
            .get(restore_sn)
            .expect("rollback target must be stored");
        self.sn = restore_sn;
        self.ddv = entry.meta.ddv.clone();
        self.delivered = entry.payload.delivered.clone();
        let restored_app = entry.payload.app_state.clone();
        self.cold.app_state = restored_app.clone();
        let channel_replay = entry.payload.channel_state.clone();
        let discarded = self.cold.store.truncate_after(restore_sn);
        self.log.truncate_after_rollback(restore_sn);
        self.frozen = None;
        self.pending_inter.clear();
        self.cold.coord.current = None;
        self.cold.coord.queued.clear();
        self.cold.gc = None;
        self.dirty = false;
        out.push(Output::RolledBack {
            restore_sn,
            discarded_clcs: discarded,
        });
        out.push(Output::RestoreApp {
            state: restored_app,
        });
        // Re-deliver the channel state captured in the restored checkpoint:
        // the application state predates those deliveries.
        for (from, payload) in channel_replay {
            out.push(Output::DeliverApp { from, payload });
        }
        if self.is_coordinator() {
            out.push(Output::ResetClcTimer);
        }
    }

    fn on_alert(
        &mut self,
        now: SimTime,
        origin: usize,
        alert_sn: SeqNum,
        origin_epoch: u64,
        out: &mut OutputBuf,
    ) {
        debug_assert_ne!(origin, self.my_cluster(), "alert from own cluster");
        // Each restore of `origin` produces exactly one alert with a fresh
        // epoch: process each at most once.
        if origin_epoch <= self.cold.alert_seen.get(origin) {
            return;
        }
        self.cold.alert_seen.raise(origin, origin_epoch);
        self.min_epoch.raise(origin, origin_epoch);

        let target = self
            .cold
            .store
            .rollback_target(origin, alert_sn)
            .map(|e| e.meta.sn);
        if let Some(target_sn) = target {
            let latest_sn = self.cold.store.latest().expect("nonempty").meta.sn;
            if target_sn < latest_sn || self.dirty {
                // Cascade: roll back and alert the others with our new SN.
                self.initiate_cluster_rollback(target_sn, out);
            }
            // Otherwise the live state already *is* the target checkpoint
            // (nothing material happened since the last restore): a
            // re-restore would change nothing, and re-alerting would only
            // echo — the no-progress cut that terminates cascades.
        }
        // Every node of the cluster scans its log against the alert
        // (paper §3.4). When we rolled back, the RollbackOrder precedes the
        // AlertLocal on every FIFO channel, so logs are truncated first.
        self.broadcast_cluster(
            now,
            Msg::AlertLocal {
                origin,
                sn: alert_sn,
                origin_epoch,
            },
            out,
        );
    }

    fn resend_logged(&mut self, origin: usize, alert_sn: SeqNum, out: &mut OutputBuf) {
        let to_resend: Vec<(LogId, usize, u32, AppPayload)> = self
            .log
            .to_resend(origin, alert_sn)
            .into_iter()
            .map(|e| (e.id, e.dest_cluster, e.dest_rank, e.payload))
            .collect();
        for (id, cluster, rank, payload) in to_resend {
            self.log.mark_resent(id);
            out.push(Output::Send {
                to: NodeId::new(cluster as u16, rank),
                msg: Msg::AppInter {
                    payload,
                    piggyback: self.current_piggyback(),
                    log_id: id,
                    resend: true,
                    sender_epoch: self.epoch,
                },
            });
        }
    }

    // ---- garbage collection --------------------------------------------------

    fn on_gc_timer(&mut self, out: &mut OutputBuf) {
        // Only the federation GC initiator (cluster 0's coordinator) runs
        // the centralized collection.
        if self.id != self.cfg.coordinator(0) || self.cold.gc.is_some() {
            return;
        }
        let mut lists = BTreeMap::new();
        lists.insert(self.my_cluster(), self.cold.store.ddv_list());
        self.cold.gc = Some(GcState { lists });
        let n = self.cfg.num_clusters();
        if n == 1 {
            self.gc_finish(SimTime::ZERO, out);
            return;
        }
        for c in 1..n {
            out.push(Output::Send {
                to: self.cfg.coordinator(c),
                msg: Msg::GcCollect,
            });
        }
    }

    fn on_gc_list(
        &mut self,
        now: SimTime,
        cluster: usize,
        list: Vec<(SeqNum, Arc<Ddv>)>,
        out: &mut OutputBuf,
    ) {
        let n = self.cfg.num_clusters();
        let complete = match self.cold.gc.as_mut() {
            Some(g) => {
                g.lists.insert(cluster, list);
                g.lists.len() == n
            }
            None => false,
        };
        if complete {
            self.gc_finish(now, out);
        }
    }

    fn gc_finish(&mut self, now: SimTime, out: &mut OutputBuf) {
        let mut g = self.cold.gc.take().expect("gc in progress");
        // Move the collected lists out — the stamps inside stay shared
        // with the stores they came from; nothing is deep-copied.
        let lists: Vec<Vec<(SeqNum, Arc<Ddv>)>> = (0..self.cfg.num_clusters())
            .map(|c| g.lists.remove(&c).expect("list collected"))
            .collect();
        let min_sns = gc::safe_minimum_sns_k(&lists, self.cfg.gc_fault_tolerance);
        for c in 1..self.cfg.num_clusters() {
            out.push(Output::Send {
                to: self.cfg.coordinator(c),
                msg: Msg::GcPrune {
                    min_sns: min_sns.clone(),
                },
            });
        }
        // Own cluster: relay + apply.
        self.send_to_other_ranks(
            &Msg::GcPrune {
                min_sns: min_sns.clone(),
            },
            out,
        );
        let _ = now;
        self.apply_gc_prune(&min_sns, out);
    }

    fn apply_gc_prune(&mut self, min_sns: &[SeqNum], out: &mut OutputBuf) {
        let before = self.cold.store.len();
        let min_sn = min_sns[self.my_cluster()];
        self.cold.store.prune_below(min_sn);
        let after = self.cold.store.len();
        if after < before {
            out.push(Output::StorePruned { min_sn });
        }
        for (c, &min_sn) in min_sns.iter().enumerate() {
            self.log.prune(c, min_sn);
        }
        if self.is_coordinator() {
            out.push(Output::GcReport { before, after });
        }
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    /// The simulator arena stores engines inline, so the inline size is
    /// what 100k-node sweeps keep cache-resident. The hot/cold split holds
    /// it to 200 bytes (232 before PR 18 deleted the delivered high-water
    /// map; ~450 with `ColdState` inline, which `bench/ABLATIONS.md`
    /// measured: +8 % peak RSS on `campaign_sweep`, 0/10 pairs). If this
    /// fires, the new field probably belongs in `ColdState` — or boxed,
    /// like the freeze window state.
    #[test]
    fn hot_engine_stays_within_four_cache_lines() {
        let hot = std::mem::size_of::<NodeEngine>();
        assert!(hot <= 200, "NodeEngine inline size grew to {hot} bytes");
        // The split only pays off while the cold side carries real weight.
        let cold = std::mem::size_of::<ColdState>();
        assert!(
            cold >= 128,
            "ColdState shrank to {cold} bytes — fold it back?"
        );
        // The freeze window (a whole staged checkpoint) must stay boxed:
        // it exists only between a ClcRequest and its commit.
        assert_eq!(std::mem::size_of::<Option<Box<FrozenState>>>(), 8);
    }
}
