//! The per-node HC3I protocol engine.
//!
//! One [`NodeEngine`] per node of the federation. The engine is a pure
//! state machine ([`NodeEngine::handle`] consumes an [`Input`], returns
//! [`Output`] actions and the finished [`ProtoEvent`] and [`StoreOp`]
//! records of what happened) so the identical protocol code runs under
//! the discrete-event simulator and the threaded message-passing runtime.
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

use crate::checkpoint::{DeliveredRecord, SealedRecord, StoredCheckpoint};
use crate::config::{PiggybackMode, ProtocolConfig};
use crate::epoch::EpochFloors;
use crate::gc;
use crate::io::{Input, Output, OutputBuf, ProtoEvent, StoreOp};
use crate::msg::{AppPayload, ClcReason, Msg, Piggyback};
use hc3i_types::{NodeId, SimTime};
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

/// What the freeze window holds back until its commit, in arrival order.
/// The commit replays the kinds in this order, each in arrival order.
#[derive(Debug)]
enum Held {
    /// An intra-cluster app message captured during the freeze (channel
    /// state): recorded in the checkpoint *and* delivered at commit.
    Channel(NodeId, AppPayload),
    /// An inter-cluster app message received during the freeze,
    /// re-processed at commit (after the held forced-CLC messages are
    /// rechecked).
    Inter(NodeId, Msg),
    /// An application send issued during the freeze, sent at commit.
    Send(NodeId, AppPayload),
}

/// State held between a `ClcRequest` and the matching `ClcCommit`: the
/// staged checkpoint's parts and what the freeze holds back. Inline in
/// [`ColdState`] so a round allocates nothing for it.
#[derive(Debug)]
struct FrozenState {
    round: u64,
    /// The delivery record sealed at the freeze.
    delivered: SealedRecord,
    /// The application snapshot at the freeze.
    app_state: Option<Vec<u8>>,
    /// Replica holders that have not yet confirmed storing our fragment:
    /// the `i`-th holder, `(rank + i + 1) % n`, at bit `i` (the degree is
    /// at most 64). The ack goes out on the confirmation that
    /// clears the last bit, so a confirmation from a non-holder, or a
    /// repeated one, never acks.
    awaiting_frag: u64,
    held: Vec<Held>,
}

/// Coordinator-only state. One CLC round runs at a time; its ack bitmap
/// and reason list keep their buffers from round to round, so once grown
/// a round allocates nothing here.
#[derive(Debug, Default)]
struct CoordState {
    next_round: u64,
    /// The round in progress.
    current: Option<u64>,
    /// The current round's acks, one bit per rank, plus a running count
    /// (duplicate-proof without hashing on the commit hot path).
    acked: Vec<u64>,
    ack_count: u32,
    /// Why the current round runs: a reason that arrives while it runs
    /// joins it, one that arrives between rounds starts the next.
    reasons: Vec<ClcReason>,
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
///
/// Size: every node takes part in every CLC round of its cluster, so the
/// freeze window sits inline here — boxing it cost two allocations per
/// node per round. What only one node in a cluster uses (the
/// coordinator's round state) or in a federation (the GC initiator's
/// lists) is boxed instead, which pays for the window: the cold state is
/// smaller than the 240 bytes it was with the window boxed — 184, with the
/// window's sealed record kept as its 8-byte base and the replica holders
/// computed, not boxed (`layout_tests` holds it).
#[derive(Debug)]
struct ColdState {
    /// Every CLC this node keeps, never empty: the newest one's stamp is
    /// the node's live DDV ([`NodeEngine::live_ddv`]).
    store: ClcStore<StoredCheckpoint>,
    /// The CLC window between a `ClcRequest` and its commit; `Some`
    /// exactly when [`NodeEngine::frozen`] is set.
    frozen: Option<FrozenState>,
    /// Coordinator-only: `Some` exactly on the coordinator. Boxed at
    /// construction, beside the engine's other long-lived allocations; a
    /// box first allocated mid-run lands among short-lived ones and raised
    /// `campaign_sweep`'s peak RSS (`bench/ABLATIONS.md`).
    coord: Option<Box<CoordState>>,
    /// GC-initiator-only, while a collection runs.
    gc: Option<Box<GcState>>,
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
/// the control plane alone touches sits behind the cold-state box,
/// including the freeze window, of which the hot side keeps one flag for
/// the per-message checks.
///
/// Footprint: no field, hot or cold, is sized by the federation's width.
/// The only `O(clusters)` data an engine references — the config and the
/// DDV stamps — is `Arc`-shared, and the per-origin epoch floors are
/// sparse, so a host's arena costs `nodes x constant`, not
/// `nodes x clusters` (`tests/engine_footprint.rs` holds it there). Nor
/// is anything derivable stored: construction allocates the cold box and
/// one store slot.
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
    log: MessageLog<AppPayload>,
    /// Delivery record for inter-cluster duplicate suppression:
    /// `(sender, log id) -> SN at delivery`. Checkpointed copy-on-write:
    /// staging a CLC seals the record's delta instead of cloning the map.
    delivered: DeliveredRecord,
    /// Inter-cluster messages awaiting a forced CLC.
    pending_inter: Vec<PendingInter>,
    /// A CLC two-phase commit is in progress: application messages are
    /// held in [`ColdState::frozen`] until it commits.
    frozen: bool,
    /// Failure generation: alive↔failed transitions so far, odd while the
    /// node is fail-stopped ([`NodeEngine::failure_generation`]).
    failures: u32,
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
        let mut store = ClcStore::new();
        store.commit(
            ClcMeta {
                sn: initial_sn,
                ddv,
                committed_at: SimTime::ZERO,
                forced: false,
            },
            StoredCheckpoint::default(),
        );
        let coord = (id == cfg.coordinator(id.cluster.index())).then(Box::default);
        NodeEngine {
            cfg,
            id,
            epoch: 0,
            sn: initial_sn,
            log: MessageLog::new(),
            delivered: DeliveredRecord::new(),
            pending_inter: vec![],
            frozen: false,
            failures: 0,
            min_epoch: EpochFloors::new(n),
            dirty: false,
            cold: Box::new(ColdState {
                store,
                frozen: None,
                coord,
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
        self.live_ddv()
    }
    /// The CLC store.
    pub fn store(&self) -> &ClcStore<StoredCheckpoint> {
        &self.cold.store
    }
    /// The sender-side message log.
    pub fn log(&self) -> &MessageLog<AppPayload> {
        &self.log
    }
    /// Whether the node is currently failed.
    pub fn is_failed(&self) -> bool {
        crate::host::is_down(self.failures)
    }
    /// The node's failure generation: how many times it has failed or been
    /// revived — even while alive, odd while fail-stopped. A node revived
    /// and failed again carries a new odd value, so a fault report keyed
    /// by it ([`crate::host::FaultReports`]) tells the two failures apart
    /// without any host keeping a copy.
    pub fn failure_generation(&self) -> u32 {
        self.failures
    }
    /// Whether the node is its cluster's coordinator.
    pub(crate) fn is_coordinator(&self) -> bool {
        self.id == self.my_coordinator()
    }
    /// Whether a CLC two-phase commit is in progress on this node.
    pub fn is_frozen(&self) -> bool {
        self.frozen
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

    /// This node's fragment replica holders, nearest first.
    fn replica_holders(&self) -> impl ExactSizeIterator<Item = u32> {
        self.cfg
            .replication
            .replica_holders(self.id.rank, self.cluster_size())
    }

    /// The live DDV: the newest stored CLC's stamp (a commit appends the
    /// stamp it installs, a rollback truncates to the CLC it restores, a
    /// collection keeps the newest). `Arc`-shared: the coordinator's
    /// broadcast stamp serves its whole cluster — zero allocations per node.
    fn live_ddv(&self) -> &Arc<Ddv> {
        &self.cold.store.latest().expect("never empty").meta.ddv
    }

    fn current_piggyback(&mut self) -> Piggyback {
        match self.cfg.piggyback {
            PiggybackMode::SnOnly => Piggyback::Sn(self.sn),
            // The live DDV is already the shared immutable stamp.
            PiggybackMode::FullDdv => Piggyback::Ddv(self.live_ddv().clone()),
        }
    }

    /// Does an incoming piggyback require a forced CLC before delivery?
    fn needs_forced_clc(&self, piggyback: &Piggyback, sender_cluster: usize) -> bool {
        match piggyback {
            Piggyback::Sn(sn) => *sn > self.live_ddv().get(sender_cluster),
            Piggyback::Ddv(ddv) => !ddv.dominated_by(self.live_ddv()),
        }
    }

    // ---- main dispatch ---------------------------------------------------

    /// Feed one input; appends the actions the hosting engine must perform
    /// to `out` (a reusable, caller-owned buffer — hosts keep one alive
    /// across events so the hot path allocates nothing).
    pub fn handle(&mut self, now: SimTime, input: Input, out: &mut OutputBuf) {
        if self.is_failed() {
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
            Input::Fail => self.failures += 1,
            Input::DetectFaults { failed_ranks } => self.on_detect_faults(&failed_ranks, out),
        }
    }

    /// The local application published its serialized state: the engine
    /// includes the most recent snapshot in every staged checkpoint and
    /// returns it through [`Output::RestoreApp`] after a rollback. (The
    /// paper's system model: the node "is able to save the processes
    /// states".) Set by the interpreter right after a delivery.
    pub(crate) fn set_app_state(&mut self, state: Vec<u8>) {
        self.cold.app_state = Some(state);
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
                // No bit for a rank that holds no replica of ours.
                let bit = self
                    .replica_holders()
                    .position(|h| h == holder)
                    .map_or(0, |i| 1u64 << i);
                let ack_now = match self.cold.frozen.as_mut() {
                    Some(f) if f.round == round && f.awaiting_frag & bit != 0 => {
                        f.awaiting_frag &= !bit;
                        f.awaiting_frag == 0
                    }
                    _ => false,
                };
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
                if self.frozen {
                    // Channel state: recorded in the checkpoint, delivered
                    // at commit.
                    self.hold(Held::Channel(from, payload));
                } else {
                    if sent_at_sn != self.sn {
                        self.cold.late_crossings += 1;
                        out.push(Output::Event(ProtoEvent::LateCrossing { node: self.id }));
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
                if self.frozen {
                    self.hold(Held::Inter(
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
                self.on_gc_list(cluster, list, out);
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

    /// Hold `held` back until the open freeze window commits.
    fn hold(&mut self, held: Held) {
        self.cold
            .frozen
            .as_mut()
            .expect("the frozen flag mirrors the window")
            .held
            .push(held);
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
        if self.frozen {
            // Application messages are frozen during the 2PC (paper §3.1).
            self.hold(Held::Send(to, payload));
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
        if self.frozen {
            // Duplicate request within a round (cannot happen with a
            // correct coordinator); ignore.
            return;
        }
        // One replica per holder, in holder order. All holders are in
        // this cluster, so the transport never sees them.
        let (owner, epoch) = (self.id.rank, self.epoch);
        let holders = self.replica_holders();
        // One bit per holder (at most 64); none left means ack now.
        let awaiting_frag = u64::MAX.checked_shr(64 - holders.len() as u32).unwrap_or(0);
        for h in holders {
            out.push(Output::Send {
                to: NodeId::new(self.id.cluster.0, h),
                msg: Msg::FragmentReplica {
                    round,
                    owner,
                    epoch,
                },
            });
        }
        self.cold.frozen = Some(FrozenState {
            round,
            // O(delta) seal: deliveries since the last CLC move into the
            // shared immutable base; nothing older is copied.
            delivered: self.delivered.seal_base(),
            app_state: self.cold.app_state.clone(),
            awaiting_frag,
            held: Vec::new(),
        });
        self.frozen = true;
        if awaiting_frag == 0 {
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
        stamp: Arc<Ddv>,
        forced: bool,
        out: &mut OutputBuf,
    ) {
        let frozen = match self.cold.frozen.take() {
            Some(f) if f.round == round => f,
            // A stale commit after a rollback, or one for another round.
            other => {
                self.cold.frozen = other;
                return;
            }
        };
        self.frozen = false;
        let FrozenState {
            delivered,
            app_state,
            held,
            ..
        } = frozen;
        let channel = |h: &Held| match *h {
            Held::Channel(from, payload) => Some((from, payload)),
            _ => None,
        };
        // Sized exactly: the store keeps it until a collection prunes it.
        let mut channel_state = Vec::with_capacity(held.iter().filter_map(channel).count());
        channel_state.extend(held.iter().filter_map(channel));
        // The commit's shared stamp moves into the store, and so becomes
        // the live DDV and the new outgoing piggyback — no per-node clone.
        self.cold.store.commit(
            ClcMeta {
                sn,
                ddv: stamp,
                committed_at: now,
                forced,
            },
            StoredCheckpoint::new(delivered, channel_state, app_state),
        );
        self.sn = sn;
        self.dirty = true;
        out.push(Output::Store(StoreOp::Committed(sn)));
        if self.is_coordinator() {
            out.push(Output::Event(ProtoEvent::Committed {
                cluster: self.my_cluster(),
                sn,
                forced,
            }));
            out.push(Output::ResetClcTimer);
        }
        // Deliver the channel state (messages that arrived while frozen).
        for (from, payload) in held.iter().filter_map(channel) {
            out.push(Output::DeliverApp { from, payload });
        }
        // Held inter-cluster messages may now be deliverable.
        self.recheck_pending(out);
        // Re-process inter-cluster messages deferred by the freeze.
        for h in &held {
            if let Held::Inter(from, msg) = h {
                self.handle_msg(now, *from, msg.clone(), out);
            }
        }
        // Release the application sends queued during the freeze.
        for h in held {
            if let Held::Send(to, payload) = h {
                if self.frozen {
                    // A nested forced round already started; keep them frozen.
                    self.hold(Held::Send(to, payload));
                } else {
                    self.do_send(to, payload, out);
                }
            }
        }
    }

    // ---- 2PC: coordinator side ---------------------------------------------

    fn coord_init(&mut self, now: SimTime, reason: ClcReason, out: &mut OutputBuf) {
        if !self.reason_relevant(&reason) {
            return;
        }
        let coord = self.coord();
        coord.reasons.push(reason);
        if coord.current.is_none() {
            self.coord_start(now, out);
        }
    }

    /// The coordinator's round state.
    fn coord(&mut self) -> &mut CoordState {
        self.cold
            .coord
            .as_deref_mut()
            .expect("only the coordinator runs rounds")
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

    fn coord_start(&mut self, now: SimTime, out: &mut OutputBuf) {
        let words = self.cluster_size().div_ceil(64) as usize;
        let coord = self.coord();
        coord.acked.clear();
        coord.acked.resize(words, 0);
        coord.ack_count = 0;
        coord.next_round += 1;
        let round = coord.next_round;
        coord.current = Some(round);
        let epoch = self.epoch;
        self.broadcast_cluster(now, Msg::ClcRequest { round, epoch }, out);
    }

    fn coord_ack(&mut self, now: SimTime, round: u64, rank: u32, out: &mut OutputBuf) {
        let size = self.cluster_size();
        let coord = self.coord();
        if coord.current != Some(round) {
            return;
        }
        let (word, bit) = ((rank / 64) as usize, 1 << (rank % 64));
        if rank < size && coord.acked[word] & bit == 0 {
            coord.acked[word] |= bit;
            coord.ack_count += 1;
        }
        if coord.ack_count != size {
            return;
        }
        coord.current = None;
        let mut reasons = std::mem::take(&mut coord.reasons);
        // Compute the committed stamp: apply every DDV raise, then bump SN.
        // The one DDV allocation of the whole CLC round happens here, at
        // the coordinator; everyone else shares the broadcast `Arc`.
        let mut ddv = Ddv::clone(self.live_ddv());
        let mut forced = false;
        for reason in &reasons {
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
        reasons.clear();
        self.coord().reasons = reasons;
        let sn = self.sn.next();
        ddv.set(self.my_cluster(), sn);
        let epoch = self.epoch;
        self.broadcast_cluster(
            now,
            Msg::ClcCommit {
                round,
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
            let cluster = self.my_cluster();
            for &rank in failed_ranks {
                out.push(Output::Event(ProtoEvent::Unrecoverable { cluster, rank }));
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
        if self.is_failed() {
            self.failures += 1;
        }
        let entry = self
            .cold
            .store
            .get(restore_sn)
            .expect("rollback target must be stored");
        self.sn = restore_sn;
        let committed_at = entry.meta.committed_at;
        self.delivered = entry.payload.delivered();
        let restored_app = entry.payload.app_state().map(<[u8]>::to_vec);
        self.cold.app_state = restored_app.clone();
        let channel_replay = entry.payload.channel_state().to_vec();
        // The restored CLC is now the newest: its stamp is the live DDV.
        let discarded = self.cold.store.truncate_after(restore_sn);
        self.log.truncate_after_rollback(restore_sn);
        self.frozen = false;
        self.cold.frozen = None;
        self.pending_inter.clear();
        if let Some(coord) = self.cold.coord.as_deref_mut() {
            coord.current = None;
            coord.reasons.clear();
        }
        self.cold.gc = None;
        self.dirty = false;
        out.push(Output::Store(StoreOp::RolledBack(restore_sn)));
        out.push(Output::Event(ProtoEvent::RolledBack {
            node: self.id,
            restore_sn,
            discarded_clcs: discarded,
            committed_at,
        }));
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
        self.cold.gc = Some(Box::new(GcState { lists }));
        let n = self.cfg.num_clusters();
        if n == 1 {
            self.gc_finish(out);
            return;
        }
        for c in 1..n {
            out.push(Output::Send {
                to: self.cfg.coordinator(c),
                msg: Msg::GcCollect,
            });
        }
    }

    fn on_gc_list(&mut self, cluster: usize, list: Vec<(SeqNum, Arc<Ddv>)>, out: &mut OutputBuf) {
        let n = self.cfg.num_clusters();
        let complete = match self.cold.gc.as_mut() {
            Some(g) => {
                g.lists.insert(cluster, list);
                g.lists.len() == n
            }
            None => false,
        };
        if complete {
            self.gc_finish(out);
        }
    }

    fn gc_finish(&mut self, out: &mut OutputBuf) {
        let mut g = self.cold.gc.take().expect("gc in progress");
        // Move the collected lists out — the stamps inside stay shared
        // with the stores they came from; nothing is deep-copied.
        let lists: Vec<Vec<(SeqNum, Arc<Ddv>)>> = (0..self.cfg.num_clusters())
            .map(|c| g.lists.remove(&c).expect("list collected"))
            .collect();
        let min_sns = gc::safe_minimum_sns(&lists);
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
        self.apply_gc_prune(&min_sns, out);
    }

    fn apply_gc_prune(&mut self, min_sns: &[SeqNum], out: &mut OutputBuf) {
        let before = self.cold.store.len();
        let min_sn = min_sns[self.my_cluster()];
        self.cold.store.prune_below(min_sn);
        let after = self.cold.store.len();
        if after < before {
            out.push(Output::Store(StoreOp::Pruned(min_sn)));
        }
        for (c, &min_sn) in min_sns.iter().enumerate() {
            self.log.prune(c, min_sn);
        }
        if self.is_coordinator() {
            out.push(Output::Event(ProtoEvent::GcReport {
                cluster: self.my_cluster(),
                before,
                after,
            }));
        }
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;
    use storage::ReplicationPolicy;

    /// The simulator arena stores engines inline, so the inline size is
    /// what 100k-node sweeps keep cache-resident. The hot/cold split holds
    /// it to 184 bytes (~450 with `ColdState` inline, which
    /// `bench/ABLATIONS.md` measured: +8 % peak RSS on `campaign_sweep`,
    /// 0/10 pairs), the live DDV being the newest stored CLC's stamp. If
    /// this fires, the new field probably belongs in `ColdState`.
    #[test]
    fn hot_engine_stays_within_four_cache_lines() {
        let hot = std::mem::size_of::<NodeEngine>();
        assert!(hot <= 184, "NodeEngine inline size grew to {hot} bytes");
        // The freeze window sits inline in the cold state, paid for by
        // boxing what only a coordinator or the GC initiator uses; its
        // sealed record is the 8-byte base alone and the replica holders
        // are computed, which keeps the cold state at 184 bytes. The
        // bound leaves 8 bytes for one more boxed, rarely present state.
        let cold = std::mem::size_of::<ColdState>();
        assert!(cold <= 192, "ColdState grew to {cold} bytes");
        // The split only pays off while the cold side carries real weight.
        assert!(
            cold >= 128,
            "ColdState shrank to {cold} bytes — fold it back?"
        );
    }

    /// Every node keeps several stored CLCs until a collection prunes
    /// them, so at 51,200 nodes (`sim_mega`) their `Vec`s are one of the
    /// largest items of the heap. A stored entry is its 32-byte `ClcMeta`,
    /// the sealed record's 8-byte base and one pointer to the rarely
    /// present channel state and app snapshot — a flat `NodeCheckpoint`
    /// made it 120, of which 72 are always empty under the simulator.
    #[test]
    fn a_stored_clc_is_at_most_48_bytes() {
        let entry = std::mem::size_of::<storage::ClcEntry<StoredCheckpoint>>();
        assert!(entry <= 48, "a stored CLC entry grew to {entry} bytes");
    }

    fn n(c: u16, r: u32) -> NodeId {
        NodeId::new(c, r)
    }

    fn pay(tag: u64) -> AppPayload {
        AppPayload { bytes: 8, tag }
    }

    fn intra(tag: u64) -> Msg {
        Msg::AppIntra {
            payload: pay(tag),
            sent_at_sn: SeqNum(1),
        }
    }

    /// An inter-cluster message piggybacking its sender cluster's `sn`,
    /// logged there as `log_id`.
    fn inter(tag: u64, sn: u64, log_id: u64) -> Msg {
        Msg::AppInter {
            payload: pay(tag),
            piggyback: Piggyback::Sn(SeqNum(sn)),
            log_id: LogId(log_id),
            resend: false,
            sender_epoch: 0,
        }
    }

    fn stored(round: u64, holder: u32) -> Msg {
        Msg::FragmentStored {
            round,
            holder,
            epoch: 0,
        }
    }

    fn commit(round: u64, sns: [u64; 2], forced: bool) -> Msg {
        let mut ddv = Ddv::zeros(2);
        ddv.set(0, SeqNum(sns[0]));
        ddv.set(1, SeqNum(sns[1]));
        Msg::ClcCommit {
            round,
            sn: SeqNum(sns[0]),
            ddv: Arc::new(ddv),
            forced,
            epoch: 0,
        }
    }

    /// What `engine` emits for `input`.
    fn feed(engine: &mut NodeEngine, input: Input) -> Vec<Output> {
        let mut out = OutputBuf::new();
        engine.handle(SimTime::ZERO, input, &mut out);
        out.drain().collect()
    }

    fn recv(engine: &mut NodeEngine, from: NodeId, msg: Msg) -> Vec<Output> {
        feed(engine, Input::Receive { from, msg })
    }

    fn send(engine: &mut NodeEngine, to: NodeId, tag: u64) -> Vec<Output> {
        feed(
            engine,
            Input::AppSend {
                to,
                payload: pay(tag),
            },
        )
    }

    /// The application-visible part of `outs`, in order: deliveries,
    /// intra-cluster sends and inter-cluster acks, by tag or log id.
    fn app_trace(outs: &[Output]) -> Vec<String> {
        outs.iter()
            .filter_map(|o| match o {
                Output::DeliverApp { payload, .. } => Some(format!("deliver {}", payload.tag)),
                Output::Send {
                    msg: Msg::AppIntra { payload, .. },
                    ..
                } => Some(format!("send {}", payload.tag)),
                Output::Send {
                    msg: Msg::InterAck { log_id, .. },
                    ..
                } => Some(format!("ack {}", log_id.0)),
                _ => None,
            })
            .collect()
    }

    fn acks(outs: &[Output]) -> bool {
        outs.iter().any(|o| {
            matches!(
                o,
                Output::Send {
                    msg: Msg::ClcAck { .. },
                    ..
                }
            )
        })
    }

    #[test]
    fn the_commit_replays_the_window_kind_by_kind_in_arrival_order() {
        let mut e = NodeEngine::new(ProtocolConfig::new(vec![3, 2]), n(0, 1));
        // Held for a forced CLC before the freeze: cluster 1 is at SN 1,
        // this node's DDV knows 0.
        recv(&mut e, n(1, 0), inter(10, 1, 100));
        assert_eq!(e.pending_inter_count(), 1);
        recv(&mut e, n(0, 0), Msg::ClcRequest { round: 1, epoch: 0 });
        assert!(e.is_frozen());
        // The three kinds interleaved: nothing leaves the window.
        let window = [
            send(&mut e, n(0, 2), 1),
            recv(&mut e, n(0, 2), intra(2)),
            recv(&mut e, n(1, 1), inter(3, 1, 300)),
            send(&mut e, n(0, 0), 4),
            recv(&mut e, n(0, 0), intra(5)),
        ];
        assert!(window.iter().all(Vec::is_empty), "{window:?}");
        assert!(acks(&recv(&mut e, n(0, 2), stored(1, 2))));
        let outs = recv(&mut e, n(0, 0), commit(1, [2, 1], true));
        assert!(!e.is_frozen());
        // Channel state, then the held forced-CLC message, then the
        // deferred inter-cluster one, then the queued sends.
        assert_eq!(
            app_trace(&outs),
            [
                "deliver 2",
                "deliver 5",
                "deliver 10",
                "ack 100",
                "deliver 3",
                "ack 300",
                "send 1",
                "send 4"
            ]
        );
        let latest = e.store().latest().expect("committed");
        assert_eq!(latest.meta.sn, SeqNum(2));
        assert_eq!(
            latest.payload.channel_state(),
            [(n(0, 2), pay(2)), (n(0, 0), pay(5))]
        );
    }

    #[test]
    fn a_nested_forced_round_refreezes_the_remaining_sends() {
        // The coordinator of a two-node cluster: its replay of a deferred
        // inter-cluster message starts the next round on the spot.
        let mut e = NodeEngine::new(ProtocolConfig::new(vec![2, 1]), n(0, 0));
        feed(&mut e, Input::ClcTimer);
        assert!(e.is_frozen());
        send(&mut e, n(0, 1), 1);
        recv(&mut e, n(1, 0), inter(2, 2, 200));
        send(&mut e, n(0, 1), 3);
        recv(&mut e, n(0, 1), stored(1, 1));
        let ack = |round| Msg::ClcAck {
            round,
            rank: 1,
            epoch: 0,
        };
        let outs = recv(&mut e, n(0, 1), ack(1));
        assert!(
            outs.contains(&Output::Send {
                to: n(0, 1),
                msg: Msg::ClcRequest { round: 2, epoch: 0 },
            }),
            "{outs:?}"
        );
        assert!(e.is_frozen(), "round 2 froze the replay");
        assert_eq!(e.pending_inter_count(), 1);
        assert_eq!(app_trace(&outs), Vec::<String>::new(), "sends re-frozen");
        recv(&mut e, n(0, 1), stored(2, 1));
        let outs = recv(&mut e, n(0, 1), ack(2));
        assert!(!e.is_frozen());
        assert_eq!(e.sn(), SeqNum(3));
        assert_eq!(
            app_trace(&outs),
            ["deliver 2", "ack 200", "send 1", "send 3"]
        );
    }

    /// The records in `outs` — store changes, events and timer re-arms —
    /// in the order a durable log and a report see them.
    fn records(outs: Vec<Output>) -> Vec<Output> {
        outs.into_iter()
            .filter(|o| {
                matches!(
                    o,
                    Output::Store(_) | Output::Event(_) | Output::ResetClcTimer
                )
            })
            .collect()
    }

    /// Commits round 1 of a 2 + 1 federation at `e` (either rank of
    /// cluster 0) and returns what the commit emitted.
    fn commit_round_one(e: &mut NodeEngine) -> Vec<Output> {
        if e.is_coordinator() {
            feed(e, Input::ClcTimer);
            recv(e, n(0, 1), stored(1, 1));
            let ack = Msg::ClcAck {
                round: 1,
                rank: 1,
                epoch: 0,
            };
            recv(e, n(0, 1), ack)
        } else {
            recv(e, n(0, 0), Msg::ClcRequest { round: 1, epoch: 0 });
            recv(e, n(0, 0), stored(1, 0));
            recv(e, n(0, 0), commit(1, [2, 0], false))
        }
    }

    #[test]
    fn a_commit_stores_before_the_coordinator_reports_and_rearms() {
        let cfg = Arc::new(ProtocolConfig::new(vec![2, 1]));
        let mut coord = NodeEngine::new(cfg.clone(), n(0, 0));
        assert_eq!(
            records(commit_round_one(&mut coord)),
            [
                Output::Store(StoreOp::Committed(SeqNum(2))),
                Output::Event(ProtoEvent::Committed {
                    cluster: 0,
                    sn: SeqNum(2),
                    forced: false,
                }),
                Output::ResetClcTimer,
            ]
        );
        // Every other node mirrors its own store and reports nothing.
        let mut member = NodeEngine::new(cfg, n(0, 1));
        assert_eq!(
            records(commit_round_one(&mut member)),
            [Output::Store(StoreOp::Committed(SeqNum(2)))]
        );
    }

    #[test]
    fn a_rollback_truncates_the_store_before_it_reports() {
        let cfg = Arc::new(ProtocolConfig::new(vec![2, 1]));
        for rank in [0, 1] {
            let mut e = NodeEngine::new(cfg.clone(), n(0, rank));
            commit_round_one(&mut e);
            let order = Msg::RollbackOrder {
                restore_sn: SeqNum(1),
                epoch: 1,
            };
            let mut expected = vec![
                Output::Store(StoreOp::RolledBack(SeqNum(1))),
                Output::Event(ProtoEvent::RolledBack {
                    node: n(0, rank),
                    restore_sn: SeqNum(1),
                    discarded_clcs: 1,
                    committed_at: SimTime::ZERO,
                }),
            ];
            if rank == 0 {
                expected.push(Output::ResetClcTimer);
            }
            assert_eq!(
                records(recv(&mut e, n(0, 0), order)),
                expected,
                "rank {rank}"
            );
        }
    }

    #[test]
    fn the_failure_generation_counts_transitions_only() {
        let mut e = NodeEngine::new(ProtocolConfig::new(vec![3]), n(0, 1));
        let order = |epoch| Msg::RollbackOrder {
            restore_sn: SeqNum(1),
            epoch,
        };
        feed(&mut e, Input::Fail);
        feed(&mut e, Input::Fail);
        assert_eq!(e.failure_generation(), 1, "a second fail is no transition");
        recv(&mut e, n(0, 0), order(0));
        assert_eq!(e.failure_generation(), 1, "a stale order revives nothing");
        assert!(e.is_failed());
        recv(&mut e, n(0, 0), order(1));
        assert_eq!(e.failure_generation(), 2, "revived");
        assert!(!e.is_failed());
        feed(&mut e, Input::Fail);
        assert_eq!(e.failure_generation(), 3, "failed again");
        recv(&mut e, n(0, 0), order(2));
        recv(&mut e, n(0, 0), order(3));
        assert_eq!(e.failure_generation(), 4, "a live rollback is no revival");
    }

    #[test]
    fn a_freeze_sends_one_replica_per_holder_in_holder_order() {
        // (cluster size, rank, degree, holders): the paper's degree 1,
        // degrees 2 and 3 wrapping around, and degree 5 capped at the
        // other two ranks of a 3-node cluster.
        let cases: [(u32, u32, u32, &[u32]); 4] = [
            (5, 3, 1, &[4]),
            (5, 3, 2, &[4, 0]),
            (5, 3, 3, &[4, 0, 1]),
            (3, 1, 5, &[2, 0]),
        ];
        for (size, rank, degree, holders) in cases {
            let policy = ReplicationPolicy::with_degree(degree);
            let cfg = ProtocolConfig::new(vec![size]).with_replication(policy);
            let mut e = NodeEngine::new(cfg, n(0, rank));
            let order = Msg::RollbackOrder {
                restore_sn: SeqNum(1),
                epoch: 2,
            };
            recv(&mut e, n(0, 0), order);
            let outs = recv(&mut e, n(0, 0), Msg::ClcRequest { round: 7, epoch: 2 });
            let replica = |&h: &u32| Output::Send {
                to: n(0, h),
                msg: Msg::FragmentReplica {
                    round: 7,
                    owner: rank,
                    epoch: 2,
                },
            };
            let replicas: Vec<_> = holders.iter().map(replica).collect();
            assert_eq!(outs, replicas, "degree {degree}");
            // A rank that holds none of our replicas never acks, ourselves
            // and a rank outside the cluster included; the last holder does.
            let mut confirm = |holder| {
                let msg = Msg::FragmentStored {
                    round: 7,
                    holder,
                    epoch: 2,
                };
                acks(&recv(&mut e, n(0, holder % size), msg))
            };
            for other in (0..=size).filter(|r| !holders.contains(r)) {
                assert!(!confirm(other), "degree {degree}: rank {other} acked");
            }
            for (i, &h) in holders.iter().enumerate() {
                let last = i + 1 == holders.len();
                assert_eq!(confirm(h), last, "degree {degree}: holder {h}");
            }
        }
    }

    #[test]
    fn only_the_last_holder_confirmation_acks() {
        let request = Msg::ClcRequest { round: 1, epoch: 0 };
        // Rank 3 of 4 at degree 2: holders wrap around to 0 and 1.
        let cfg = ProtocolConfig::new(vec![4]).with_replication(ReplicationPolicy::with_degree(2));
        let mut e = NodeEngine::new(cfg, n(0, 3));
        recv(&mut e, n(0, 0), request.clone());
        let mut confirm =
            |round, holder| acks(&recv(&mut e, n(0, holder % 4), stored(round, holder)));
        // A non-holder, ourselves, ranks outside the cluster, another
        // round, then a repeated holder: none of them acks.
        for (round, holder) in [
            (1, 2),
            (1, 3),
            (1, 4),
            (1, u32::MAX),
            (2, 0),
            (1, 0),
            (1, 0),
        ] {
            assert!(!confirm(round, holder), "round {round}, holder {holder}");
        }
        assert!(confirm(1, 1), "the last holder acks");
        assert!(!confirm(1, 1) && !confirm(1, 0), "once");

        // At the widest mask, rank 1 of 66: holders 2..=65 are bits 0..=63;
        // rank 0 is 65 ranks on, past the mask.
        let cfg =
            ProtocolConfig::new(vec![66]).with_replication(ReplicationPolicy::with_degree(64));
        let mut e = NodeEngine::new(cfg, n(0, 1));
        recv(&mut e, n(0, 0), request);
        for holder in (0..66).filter(|&h| h != 1) {
            let last = holder == 65;
            assert_eq!(acks(&recv(&mut e, n(0, holder), stored(1, holder))), last);
        }
    }
}
