//! The discrete-event world binding protocol engines to the network model.

use crate::config::SimConfig;
use crate::hostile::HostileRunStats;
use crate::report::{ClusterStats, RunReport};
use desim::{Ctx, EventKey, InboxKey, SimTime, TraceLevel, Tracer, World};
use hc3i_core::{Input, Msg, NodeEngine, Output, OutputBuf, ReceiverChannel, SenderChannel};
use netsim::{HostileNet, Network, NodeId, Topology};
use std::collections::HashMap;

/// Events of the federation world.
#[derive(Debug, Clone)]
pub enum Ev {
    /// The workload issues an application send.
    AppSend {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Payload size.
        bytes: u64,
        /// Workload tag.
        tag: u64,
    },
    /// A message arrives at `to`.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        msg: Msg,
    },
    /// A cluster's unforced-CLC timer fires.
    ClcTimer {
        /// The cluster.
        cluster: usize,
    },
    /// A scripted one-shot unforced CLC (the simulator counterpart of the
    /// runtime controller's `checkpoint_now`; never re-arms timers).
    ClcNow {
        /// The cluster.
        cluster: usize,
    },
    /// The federation GC timer fires.
    GcTimer,
    /// A scripted one-shot garbage collection (runtime `gc_now`).
    GcNow,
    /// A node fail-stops.
    Fault {
        /// The failing node.
        node: NodeId,
    },
    /// The failure detector reports.
    Detect {
        /// Cluster of the failed node.
        cluster: usize,
        /// Failed rank.
        failed_rank: u32,
    },
    /// A scripted partition cut activates (bookkeeping/trace only: holds
    /// are computed from the schedule at send time).
    PartitionStart {
        /// Index into [`SimConfig::partitions`].
        index: usize,
    },
    /// A scripted partition heals.
    PartitionHeal {
        /// Index into [`SimConfig::partitions`].
        index: usize,
    },
    /// A reliable-transport retransmission timer fires for one in-flight
    /// copy of the directed channel `from → to`. Stale firings (the copy
    /// was acked, or an earlier event already retransmitted and re-armed)
    /// are no-ops, so acks never need to cancel timers.
    XportRetry {
        /// Sending node of the channel.
        from: NodeId,
        /// Receiving node of the channel.
        to: NodeId,
        /// Transport sequence of the copy.
        seq: u64,
    },
    /// End of the simulated application.
    End,
}

/// Assignment of clusters to simulator shards: each shard owns one
/// *contiguous* cluster range (so a shard's engine sub-arena stays a
/// single dense slice), balanced greedily by node count.
#[derive(Debug, Clone)]
pub(crate) struct ShardMap {
    /// `owner[c]` = shard owning cluster `c`.
    owner: Vec<usize>,
    /// `ranges[s]` = half-open cluster range owned by shard `s`.
    ranges: Vec<(usize, usize)>,
}

impl ShardMap {
    /// The trivial map of the sequential executive: one shard owns all.
    pub(crate) fn single(num_clusters: usize) -> Self {
        ShardMap {
            owner: vec![0; num_clusters],
            ranges: vec![(0, num_clusters)],
        }
    }

    /// Partition `topology`'s clusters into `shards` contiguous ranges.
    /// Every shard gets at least one cluster; `shards` must be in
    /// `1..=num_clusters`.
    pub(crate) fn new(topology: &Topology, shards: usize) -> Self {
        let n = topology.num_clusters();
        assert!(
            (1..=n).contains(&shards),
            "shard count {shards} outside 1..={n}"
        );
        let sizes: Vec<u64> = topology
            .cluster_ids()
            .map(|c| topology.nodes_in(c) as u64)
            .collect();
        let mut remaining: u64 = sizes.iter().sum();
        let mut owner = vec![0usize; n];
        let mut ranges = Vec::with_capacity(shards);
        let mut lo = 0usize;
        for s in 0..shards {
            let shards_left = shards - s;
            // Even split of what's left; `max_hi` reserves one cluster for
            // each shard still to come.
            let target = remaining.div_ceil(shards_left as u64);
            let max_hi = n - (shards_left - 1);
            let mut hi = lo + 1;
            let mut taken = sizes[lo];
            while hi < max_hi && taken < target {
                taken += sizes[hi];
                hi += 1;
            }
            for o in &mut owner[lo..hi] {
                *o = s;
            }
            ranges.push((lo, hi));
            remaining -= taken;
            lo = hi;
        }
        assert_eq!(lo, n, "every cluster assigned");
        ShardMap { owner, ranges }
    }

    /// Number of shards.
    pub(crate) fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// Shard owning cluster `c`.
    #[inline]
    pub(crate) fn owner(&self, c: usize) -> usize {
        self.owner[c]
    }

    /// Half-open cluster range owned by shard `s`.
    pub(crate) fn range(&self, s: usize) -> (usize, usize) {
        self.ranges[s]
    }
}

/// Host-level reliable-transport state of the whole federation: one
/// sender and one receiver channel per *directed* node pair that has
/// carried inter-cluster traffic. Keyed access only (never iterated), so
/// the hash map cannot perturb determinism.
pub(crate) struct XportState {
    cfg: hc3i_core::XportConfig,
    senders: HashMap<(NodeId, NodeId), SenderChannel>,
    receivers: HashMap<(NodeId, NodeId), ReceiverChannel>,
}

impl XportState {
    fn new(cfg: hc3i_core::XportConfig) -> Self {
        XportState {
            cfg,
            senders: HashMap::new(),
            receivers: HashMap::new(),
        }
    }

    /// Total retransmitted copies across all channels.
    fn retransmissions(&self) -> u64 {
        self.senders.values().map(|s| s.retransmissions).sum()
    }
}

/// On-disk mirror of every engine's CLC store
/// ([`SimConfig::durable_dir`]): the engine's durability hooks
/// (`StoreCommitted`/`StorePruned`/`RolledBack`) are appended to a
/// [`storage::DurableStore`] keyed by global arena index. Observation
/// only — the event stream and report fingerprint of a durable run are
/// identical to an in-memory run.
pub(crate) struct DurableSink {
    log: storage::DurableStore<hc3i_core::CheckpointCodec>,
    /// Abort the process once this many commit frames are durable
    /// (simulated power loss; see `SimConfig::durable_crash_after`).
    crash_after: Option<u64>,
}

impl DurableSink {
    fn open(dir: &std::path::Path, crash_after: Option<u64>) -> Self {
        let log = storage::DurableStore::open(
            dir,
            hc3i_core::CheckpointCodec,
            storage::DurableOptions::default(),
        )
        .unwrap_or_else(|e| panic!("open durable store at {}: {e}", dir.display()));
        assert!(
            log.is_fresh(),
            "durable dir {} already holds a segment log; recover it or use a fresh directory",
            dir.display()
        );
        DurableSink { log, crash_after }
    }

    fn commit(&mut self, node: u64, entry: &storage::ClcEntry<hc3i_core::NodeCheckpoint>) {
        self.log
            .append_commit(node, &entry.meta, &entry.payload)
            .expect("durable commit append");
        if self
            .crash_after
            .is_some_and(|n| self.log.commit_frames() >= n)
        {
            // Simulated power loss: no flush, no destructors. Exactly the
            // fsync-ed prefix of the log is what recovery will see.
            std::process::abort();
        }
    }
}

/// The federation: engines + network + statistics.
///
/// Engines live in one flat arena indexed by precomputed per-cluster
/// offsets (`NodeId → offsets[cluster] + rank`), so the per-event dispatch
/// is a single bounds-checked index instead of a nested `Vec<Vec<_>>`
/// double indirection; engine outputs are drained through one reusable
/// [`OutputBuf`], so dispatching an event allocates nothing.
///
/// Under the parallel executive a world is one *shard* of the federation:
/// it holds engines (and all sender-side network/transport/hostile state)
/// only for its owned contiguous cluster range, routes inter-cluster
/// deliveries through the canonically-ordered inbox, and parks deliveries
/// bound for other shards in an outbox (`take_outbox`). The sequential
/// executive is simply the one-shard instance of the same machinery.
pub struct FederationWorld {
    pub(crate) cfg: SimConfig,
    /// Cluster → shard assignment (trivial for a sequential run).
    pub(crate) shards: ShardMap,
    /// This world's shard id.
    pub(crate) shard: usize,
    /// Engines of the *owned* clusters, cluster-major.
    pub(crate) engines: Vec<NodeEngine>,
    /// `offsets[c]` = arena index of cluster `c`'s rank 0 for owned
    /// clusters (`usize::MAX` elsewhere — touching an unowned cluster is a
    /// routing bug and fails fast); `offsets[hi]` of the owned range =
    /// owned node count.
    pub(crate) offsets: Vec<usize>,
    /// Per directed cluster pair (`src * n + dst`): wire copies shipped so
    /// far. The per-route sequence component of the canonical [`InboxKey`].
    wire_seq: Vec<u64>,
    /// Inter-cluster deliveries bound for other shards, produced during
    /// the current window: `(dest shard, arrival, key, event)`.
    outbox: Vec<(usize, SimTime, InboxKey, Ev)>,
    /// Struct-of-arrays mirror of each engine's failed flag, maintained at
    /// the single point engines mutate ([`Self::handle_engine`]). Liveness
    /// sweeps (recovery-coordinator election, multi-failure collection,
    /// send gating) scan this dense array cache-linearly instead of
    /// striding over whole [`NodeEngine`]s.
    pub(crate) failed: Vec<bool>,
    pub(crate) net: Network,
    pub(crate) clc_timer_keys: Vec<Option<EventKey>>,
    /// Per-cluster ranks already reported to the recovery coordinator and
    /// not yet seen alive again (mirrors the runtime probe's `reported`
    /// set): concurrent faults reach the engine as *one* multi-failure
    /// report instead of one rollback per detection event.
    reported: Vec<std::collections::HashSet<u32>>,
    pub(crate) stats: RunReport,
    pub(crate) tracer: Tracer,
    /// Reusable engine-output buffer threaded through `handle_engine`.
    out_buf: OutputBuf,
    /// Hostile post-processor; `None` on the pristine path, whose event
    /// stream must stay byte-identical to a world without this field.
    hostile: Option<HostileNet>,
    /// Side statistics of the hostile run (never part of the fingerprinted
    /// [`RunReport`]).
    pub(crate) hostile_stats: HostileRunStats,
    /// Reliable transport; `None` keeps the wire and event stream of a
    /// transport-free run byte-identical.
    pub(crate) xport: Option<XportState>,
    /// Durable segment-log mirror; `None` keeps the run fully in memory.
    pub(crate) durable: Option<DurableSink>,
}

impl FederationWorld {
    /// Build the world (engines initialized, nothing scheduled yet).
    pub fn new(cfg: SimConfig) -> Self {
        let n = cfg.topology.num_clusters();
        Self::new_shard(cfg, ShardMap::single(n), 0)
    }

    /// Build one shard of the federation: engines only for the clusters
    /// `shards.range(shard)` covers. A durable run must be single-shard
    /// (the segment log records a global commit-frame order).
    pub(crate) fn new_shard(cfg: SimConfig, shards: ShardMap, shard: usize) -> Self {
        let n = cfg.topology.num_clusters();
        assert!(
            cfg.durable_dir.is_none() || shards.num_shards() == 1,
            "durable runs are sequential-only"
        );
        let (lo, hi) = shards.range(shard);
        let mut offsets = vec![usize::MAX; n + 1];
        let mut engines = Vec::new();
        let mut total = 0usize;
        // One shared config for the whole arena, one shared initial DDV
        // per cluster: with these shared and the engines' epoch floors
        // sparse, nothing an engine owns grows with the federation's
        // width, so the arena costs `nodes x constant`.
        let proto = std::sync::Arc::new(cfg.protocol.clone());
        #[allow(clippy::needless_range_loop)] // `c` also keys topology and the DDV
        for c in lo..hi {
            offsets[c] = total;
            let nodes = cfg.topology.nodes_in(netsim::ClusterId(c as u16));
            let mut initial = storage::Ddv::zeros(n);
            initial.set(c, storage::SeqNum(1));
            let initial = std::sync::Arc::new(initial);
            for r in 0..nodes {
                engines.push(NodeEngine::with_initial_ddv(
                    proto.clone(),
                    NodeId::new(c as u16, r),
                    initial.clone(),
                ));
            }
            total += nodes as usize;
        }
        offsets[hi] = total;
        let net = Network::new(cfg.topology.clone()).with_contention(cfg.contention);
        let stats = RunReport {
            clusters: vec![ClusterStats::default(); n],
            app_matrix: vec![vec![0; n]; n],
            ..Default::default()
        };
        let tracer = Tracer::new(cfg.trace);
        let hostile = if cfg.hostile.is_some() || !cfg.partitions.is_empty() {
            Some(HostileNet::new(
                cfg.hostile.clone().unwrap_or_default(),
                cfg.partitions.clone(),
            ))
        } else {
            None
        };
        let hostile_stats = HostileRunStats {
            ledger: cfg.track_delivery.then(Default::default),
            ..Default::default()
        };
        let failed = vec![false; engines.len()];
        let xport = cfg.xport.map(XportState::new);
        let durable = cfg.durable_dir.as_ref().map(|dir| {
            let mut sink = DurableSink::open(dir, cfg.durable_crash_after);
            // Seed the log with every node's genesis chain (the initial
            // CLC is committed inside `NodeEngine::new`, never through
            // the `StoreCommitted` hook).
            for (idx, e) in engines.iter().enumerate() {
                sink.log
                    .snapshot_node(idx as u64, e.store())
                    .expect("seed durable genesis");
            }
            sink.log.sync().expect("sync durable genesis");
            sink
        });
        FederationWorld {
            cfg,
            shards,
            shard,
            engines,
            offsets,
            wire_seq: vec![0; n * n],
            outbox: Vec::new(),
            failed,
            net,
            clc_timer_keys: vec![None; n],
            reported: vec![std::collections::HashSet::new(); n],
            stats,
            tracer,
            out_buf: OutputBuf::new(),
            hostile,
            hostile_stats,
            xport,
            durable,
        }
    }

    /// True when this shard owns `cluster`.
    #[inline]
    pub(crate) fn owns(&self, cluster: usize) -> bool {
        self.shards.owner(cluster) == self.shard
    }

    /// This world's shard id.
    #[inline]
    pub(crate) fn shard(&self) -> usize {
        self.shard
    }

    /// Take the cross-shard deliveries produced since the last call.
    pub(crate) fn take_outbox(&mut self) -> Vec<(usize, SimTime, InboxKey, Ev)> {
        std::mem::take(&mut self.outbox)
    }

    /// The trace collected so far (level per [`SimConfig::trace`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Arena index of `id`.
    #[inline]
    fn engine_index(&self, id: NodeId) -> usize {
        self.offsets[id.cluster.index()] + id.rank as usize
    }

    /// Access an engine (tests, report finalization).
    pub fn engine(&self, id: NodeId) -> &NodeEngine {
        &self.engines[self.engine_index(id)]
    }

    fn handle_engine(&mut self, ctx: &mut Ctx<'_, Ev>, node: NodeId, input: Input) {
        let idx = self.engine_index(node);
        let mut buf = std::mem::take(&mut self.out_buf);
        self.engines[idx].handle(ctx.now(), input, &mut buf);
        self.failed[idx] = self.engines[idx].is_failed();
        self.absorb(ctx, node, &mut buf);
        self.out_buf = buf;
    }

    /// Dispatch one outgoing engine message. With the reliable transport
    /// enabled, inter-cluster traffic detours through the sender channel
    /// (sequence assignment, bounded window, retransmit timer) and enters
    /// the wire wrapped in [`Msg::Reliable`]; everything else goes
    /// straight to [`Self::ship_wire`].
    fn ship(&mut self, ctx: &mut Ctx<'_, Ev>, source: NodeId, to: NodeId, msg: Msg) {
        let reliable = self.xport.is_some() && source.cluster != to.cluster;
        if !reliable {
            self.ship_wire(ctx, source, to, msg);
            return;
        }
        let x = self.xport.as_mut().expect("checked above");
        let seq = x
            .senders
            .entry((source, to))
            .or_default()
            .send(ctx.now(), &x.cfg, msg.clone());
        // `None` = window full: the channel parked the copy; it enters
        // the wire from an ack's released batch.
        if let Some(seq) = seq {
            self.ship_reliable(ctx, source, to, seq, msg);
        }
    }

    /// Put one transport-wrapped copy on the wire and arm its
    /// retransmission timer at the channel's current deadline.
    fn ship_reliable(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        source: NodeId,
        to: NodeId,
        seq: u64,
        msg: Msg,
    ) {
        let deadline = self
            .xport
            .as_ref()
            .and_then(|x| x.senders.get(&(source, to)))
            .and_then(|ch| ch.deadline(seq));
        self.ship_wire(
            ctx,
            source,
            to,
            Msg::Reliable {
                seq,
                inner: Box::new(msg),
            },
        );
        if let Some(at) = deadline {
            ctx.schedule_at(
                at,
                Ev::XportRetry {
                    from: source,
                    to,
                    seq,
                },
            );
        }
    }

    /// Charge one outgoing message to the network model and schedule its
    /// delivery. The single path every wire copy goes through — plain
    /// sends, expanded fragment fan-out batches, transport wraps, acks
    /// and retransmissions alike — so accounting and tracing cannot
    /// diverge between them.
    fn ship_wire(&mut self, ctx: &mut Ctx<'_, Ev>, source: NodeId, to: NodeId, msg: Msg) {
        let bytes = msg.wire_bytes(&self.cfg.protocol);
        let class = msg.class();
        let mut arrival = self.net.send(ctx.now(), source, to, bytes, class);
        // Hostile post-processing happens after the base network committed
        // its timing and accounting: skew/hold/reorder shift only the
        // delivery event, a duplicate copy is a ghost the network never
        // charges for, and a lost message was charged but never arrives.
        let mut duplicate_at = None;
        if let Some(h) = self.hostile.as_mut() {
            let outcome = h.post(ctx.now(), source, to, arrival);
            if outcome.lost {
                self.hostile_stats.messages_lost += 1;
                if self.tracer.enabled(TraceLevel::Full) {
                    self.tracer.full(ctx.now(), "net", || {
                        format!("{source} -> {to}: {msg:?} ({bytes} B, LOST)")
                    });
                }
                return;
            }
            arrival = outcome.arrival;
            duplicate_at = outcome.duplicate;
        }
        if self.tracer.enabled(TraceLevel::Full) {
            self.tracer.full(ctx.now(), "net", || {
                format!("{source} -> {to}: {msg:?} ({bytes} B, arrives {arrival})")
            });
        }
        if source.cluster == to.cluster {
            // Intra-cluster traffic never leaves the shard: it stays on
            // the local calendar queue in scheduling order, as always.
            if let Some(at) = duplicate_at {
                ctx.schedule_at(
                    at,
                    Ev::Deliver {
                        from: source,
                        to,
                        msg: msg.clone(),
                    },
                );
            }
            ctx.schedule_at(
                arrival,
                Ev::Deliver {
                    from: source,
                    to,
                    msg,
                },
            );
            return;
        }
        // Inter-cluster copies go through the canonically-ordered inbox —
        // on every shard count, including one. The key is derived purely
        // from the sending side (send instant, directed cluster route,
        // per-route wire sequence; low bit marks a hostile duplicate), so
        // same-instant arrivals dispatch identically no matter which shard
        // ingested them, or whether there were shards at all.
        let n = self.cfg.topology.num_clusters();
        let slot = source.cluster.index() * n + to.cluster.index();
        let seq = self.wire_seq[slot];
        self.wire_seq[slot] = seq + 1;
        let route = ((source.cluster.0 as u64) << 32) | to.cluster.0 as u64;
        let sent = ctx.now();
        if let Some(at) = duplicate_at {
            let ev = Ev::Deliver {
                from: source,
                to,
                msg: msg.clone(),
            };
            self.route_inter(ctx, to, at, (sent, route, (seq << 1) | 1), ev);
        }
        let ev = Ev::Deliver {
            from: source,
            to,
            msg,
        };
        self.route_inter(ctx, to, arrival, (sent, route, seq << 1), ev);
    }

    /// Hand one inter-cluster wire copy to its destination: the local
    /// inbox when this shard owns the receiving cluster, the outbox (for
    /// the parallel driver to forward) otherwise.
    fn route_inter(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        to: NodeId,
        at: SimTime,
        key: InboxKey,
        ev: Ev,
    ) {
        let owner = self.shards.owner(to.cluster.index());
        if owner == self.shard {
            ctx.schedule_inbox(at, key, ev);
        } else {
            self.outbox.push((owner, at, key, ev));
        }
    }

    fn absorb(&mut self, ctx: &mut Ctx<'_, Ev>, source: NodeId, outs: &mut OutputBuf) {
        for out in outs.drain() {
            match out {
                Output::Send { to, msg } => self.ship(ctx, source, to, msg),
                Output::SendFragments {
                    holders,
                    round,
                    epoch,
                } => {
                    // Expand the batched fan-out exactly like per-holder
                    // sends: same per-message wire bytes, same network
                    // accounting, same delivery scheduling, holder order.
                    for &h in holders.iter() {
                        let to = NodeId::new(source.cluster.0, h);
                        let msg = Msg::FragmentReplica {
                            round,
                            owner: source.rank,
                            epoch,
                        };
                        self.ship(ctx, source, to, msg);
                    }
                }
                Output::DeliverApp { from, payload } => {
                    self.stats.app_delivered += 1;
                    if from.cluster != source.cluster {
                        // Ledger incarnation = rollbacks the receiving
                        // cluster completed before this delivery.
                        let incarnation =
                            self.stats.clusters[source.cluster.index()].rollbacks.len();
                        if let Some(ledger) = self.hostile_stats.ledger.as_mut() {
                            ledger.record_delivered(payload.tag, incarnation);
                        }
                    }
                    if self.tracer.enabled(TraceLevel::Full) {
                        self.tracer.full(ctx.now(), "app", || {
                            format!("{source} delivered tag {} from {from}", payload.tag)
                        });
                    }
                }
                Output::Committed { sn, forced } => {
                    let cluster = source.cluster.index();
                    if self.tracer.enabled(TraceLevel::Protocol) {
                        self.tracer.protocol(ctx.now(), "clc", || {
                            format!(
                                "cluster {cluster} committed CLC {sn}{}",
                                if forced { " (forced)" } else { "" }
                            )
                        });
                    }
                    let c = &mut self.stats.clusters[cluster];
                    if forced {
                        c.forced_clcs += 1;
                    } else {
                        c.unforced_clcs += 1;
                    }
                }
                Output::ResetClcTimer => {
                    let cluster = source.cluster.index();
                    if let Some(key) = self.clc_timer_keys[cluster].take() {
                        ctx.cancel(key);
                    }
                    let delay = self.cfg.clc_delays[cluster];
                    if !delay.is_infinite() {
                        let key = ctx.schedule_in(delay, Ev::ClcTimer { cluster });
                        self.clc_timer_keys[cluster] = Some(key);
                    }
                }
                Output::StoreCommitted { sn } => {
                    if let Some(d) = self.durable.as_mut() {
                        let idx = self.offsets[source.cluster.index()] + source.rank as usize;
                        let entry = self.engines[idx]
                            .store()
                            .get(sn)
                            .expect("committed CLC is stored");
                        d.commit(idx as u64, entry);
                    }
                }
                Output::StorePruned { min_sn } => {
                    if let Some(d) = self.durable.as_mut() {
                        let idx = self.offsets[source.cluster.index()] + source.rank as usize;
                        d.log
                            .append_prune(idx as u64, min_sn)
                            .expect("durable prune append");
                    }
                }
                Output::RolledBack {
                    restore_sn,
                    discarded_clcs,
                } => {
                    if let Some(d) = self.durable.as_mut() {
                        let idx = self.offsets[source.cluster.index()] + source.rank as usize;
                        d.log
                            .append_truncate(idx as u64, restore_sn)
                            .expect("durable truncate append");
                    }
                    if source.rank == 0 {
                        let cluster = source.cluster.index();
                        if self.tracer.enabled(TraceLevel::Protocol) {
                            self.tracer.protocol(ctx.now(), "rollback", || {
                                format!(
                                    "cluster {cluster} restored CLC {restore_sn} ({discarded_clcs} discarded)"
                                )
                            });
                        }
                        let committed_at = self.engines[self.offsets[cluster]]
                            .store()
                            .get(restore_sn)
                            .map(|e| e.meta.committed_at)
                            .unwrap_or(SimTime::ZERO);
                        let stats = &mut self.stats.clusters[cluster];
                        stats
                            .rollbacks
                            .push((ctx.now(), restore_sn, discarded_clcs));
                        stats
                            .work_lost
                            .push(ctx.now().saturating_since(committed_at));
                    }
                }
                Output::GcReport { before, after } => {
                    if self.tracer.enabled(TraceLevel::Protocol) {
                        self.tracer.protocol(ctx.now(), "gc", || {
                            format!(
                                "cluster {} pruned {before} -> {after} CLCs",
                                source.cluster.index()
                            )
                        });
                    }
                    self.stats.clusters[source.cluster.index()]
                        .gc_before_after
                        .push((before, after));
                }
                Output::Unrecoverable { .. } => {
                    self.stats.unrecoverable_faults += 1;
                }
                Output::LateCrossing { .. } => {
                    self.stats.late_crossings += 1;
                }
                Output::RestoreApp { .. } => {
                    // Application state is abstract under the simulator.
                }
            }
        }
    }

    /// Lowest surviving rank in a cluster (the detector's report target).
    fn recovery_coordinator(&self, cluster: usize) -> Option<u32> {
        self.failed[self.offsets[cluster]..self.offsets[cluster + 1]]
            .iter()
            .position(|&f| !f)
            .map(|r| r as u32)
    }

    /// Fill in the end-of-run fields of the report.
    pub(crate) fn finalize(&mut self, now: SimTime, events: u64) -> RunReport {
        // A finished run leaves a fully flushed log (per-commit fsync only
        // covers commit frames; trailing truncate/prune frames are flushed
        // here).
        if let Some(d) = self.durable.as_mut() {
            d.log.sync().expect("sync durable log");
        }
        let n = self.cfg.topology.num_clusters();
        let (lo, hi) = self.shards.range(self.shard);
        for c in lo..hi {
            let engines = &self.engines[self.offsets[c]..self.offsets[c + 1]];
            let coord = &engines[0];
            let stats = &mut self.stats.clusters[c];
            stats.stored_clcs = coord.store().len();
            stats.peak_stored_clcs = coord.store().peak();
            stats.logged_messages = engines.iter().map(|e| e.log().len() as u64).sum();
            stats.peak_logged_messages = engines.iter().map(|e| e.log().peak() as u64).sum();
        }
        for i in 0..n {
            for j in 0..n {
                self.stats.app_matrix[i][j] = self
                    .net
                    .app_messages(netsim::ClusterId(i as u16), netsim::ClusterId(j as u16));
            }
        }
        let [app, protocol, ack] = self.net.class_totals();
        self.stats.protocol_messages = protocol.messages;
        self.stats.protocol_bytes = protocol.bytes;
        self.stats.ack_messages = ack.messages;
        self.stats.ack_bytes = ack.bytes;
        self.stats.app_bytes = app.bytes;
        self.stats.events_processed = events;
        self.stats.ended_at = now;
        self.stats.clone()
    }

    /// Fold the hostile post-processor's counters into the side statistics
    /// and return them (empty/default for a pristine run).
    pub(crate) fn finalize_hostile(&mut self) -> HostileRunStats {
        if let Some(h) = self.hostile.as_ref() {
            self.hostile_stats.messages_held = h.held;
            self.hostile_stats.duplicates_injected = h.duplicates;
            self.hostile_stats.messages_reordered = h.reordered;
            // `messages_lost` is counted at the ship site (per wire copy,
            // retransmissions included), which matches `h.lost` exactly.
            debug_assert_eq!(self.hostile_stats.messages_lost, h.lost);
        }
        if let Some(x) = self.xport.as_ref() {
            self.hostile_stats.retransmissions = x.retransmissions();
        }
        self.hostile_stats.clone()
    }
}

impl World for FederationWorld {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
        match event {
            Ev::AppSend {
                from,
                to,
                bytes,
                tag,
            } => {
                self.stats.app_sent += 1;
                if self.hostile_stats.ledger.is_some() {
                    // Only inter-cluster sends from a live node enter the
                    // ledger: their eventual delivery is the protocol's
                    // sender-logging guarantee (§3.3). Intra-cluster
                    // traffic is covered by the coordinated checkpoint,
                    // and a failed node's application is down.
                    let live = !self.failed[self.engine_index(from)];
                    if let Some(ledger) = self.hostile_stats.ledger.as_mut() {
                        if live && from.cluster != to.cluster {
                            ledger.record_sent(tag);
                        }
                    }
                }
                self.handle_engine(
                    ctx,
                    from,
                    Input::AppSend {
                        to,
                        payload: hc3i_core::AppPayload { bytes, tag },
                    },
                );
            }
            Ev::Deliver { from, to, msg } => match msg {
                // Transport frames terminate at the host: engines never
                // see `Reliable` wrappers or `XportAck`s.
                Msg::Reliable { seq, inner } if self.xport.is_some() => {
                    let fresh = self
                        .xport
                        .as_mut()
                        .expect("checked above")
                        .receivers
                        .entry((from, to))
                        .or_default()
                        .accept(seq);
                    // The host acks every copy it sees — even for a failed
                    // engine, so the sender's window drains; a dead node's
                    // lost deliveries are the protocol's problem (sender
                    // logging + replay), not the transport's.
                    self.ship_wire(ctx, to, from, Msg::XportAck { seq });
                    if fresh {
                        self.handle_engine(ctx, to, Input::Receive { from, msg: *inner });
                    }
                }
                Msg::XportAck { seq } if self.xport.is_some() => {
                    // The ack travels receiver → sender, so the sender
                    // channel it cancels is keyed (to, from).
                    let released = {
                        let x = self.xport.as_mut().expect("checked above");
                        let cfg = x.cfg;
                        x.senders
                            .get_mut(&(to, from))
                            .map(|ch| ch.ack(ctx.now(), &cfg, seq))
                            .unwrap_or_default()
                    };
                    for (rseq, rmsg) in released {
                        self.ship_reliable(ctx, to, from, rseq, rmsg);
                    }
                }
                msg => self.handle_engine(ctx, to, Input::Receive { from, msg }),
            },
            Ev::ClcTimer { cluster } => {
                self.clc_timer_keys[cluster] = None;
                let coord = NodeId::new(cluster as u16, 0);
                self.handle_engine(ctx, coord, Input::ClcTimer);
                // If no commit resets it (e.g. the reason merged into a
                // running round), re-arm so periodic checkpointing survives.
                if self.clc_timer_keys[cluster].is_none() {
                    let delay = self.cfg.clc_delays[cluster];
                    if !delay.is_infinite() {
                        let key = ctx.schedule_in(delay, Ev::ClcTimer { cluster });
                        self.clc_timer_keys[cluster] = Some(key);
                    }
                }
            }
            Ev::ClcNow { cluster } => {
                // One-shot: fire the coordinator's CLC input without
                // touching the periodic timer bookkeeping.
                let coord = NodeId::new(cluster as u16, 0);
                self.handle_engine(ctx, coord, Input::ClcTimer);
            }
            Ev::GcTimer => {
                let initiator = NodeId::new(0, 0);
                self.handle_engine(ctx, initiator, Input::GcTimer);
                if let Some(interval) = self.cfg.gc_interval {
                    ctx.schedule_in(interval, Ev::GcTimer);
                }
            }
            Ev::GcNow => {
                self.handle_engine(ctx, NodeId::new(0, 0), Input::GcTimer);
            }
            Ev::Fault { node } => {
                if self.failed[self.engine_index(node)] {
                    return;
                }
                // The node was alive this instant: an earlier report on it
                // is spent, and this new failure is reportable again.
                self.reported[node.cluster.index()].remove(&node.rank);
                self.handle_engine(ctx, node, Input::Fail);
                ctx.schedule_in(
                    self.cfg.detection_delay,
                    Ev::Detect {
                        cluster: node.cluster.index(),
                        failed_rank: node.rank,
                    },
                );
            }
            Ev::Detect {
                cluster,
                failed_rank,
            } => {
                // Revived ranks become reportable again; then skip stale
                // detections (node already revived, or already part of an
                // earlier report whose rollback is still in flight).
                let base = self.offsets[cluster];
                {
                    let failed = &self.failed;
                    self.reported[cluster].retain(|&r| failed[base + r as usize]);
                }
                if !self.failed[base + failed_rank as usize]
                    || self.reported[cluster].contains(&failed_rank)
                {
                    return;
                }
                let Some(rank) = self.recovery_coordinator(cluster) else {
                    self.stats.unrecoverable_faults += 1;
                    return;
                };
                // One detection round observes *every* failed-and-unreported
                // rank — concurrent faults in a cluster reach the engine as
                // a single multi-failure report, exactly like the runtime's
                // heartbeat probes (`Input::DetectFaults`); the later
                // per-fault Detect events then skip as already reported.
                let failed_ranks: Vec<u32> = self.failed[base..self.offsets[cluster + 1]]
                    .iter()
                    .enumerate()
                    .filter(|&(r, &f)| f && !self.reported[cluster].contains(&(r as u32)))
                    .map(|(r, _)| r as u32)
                    .collect();
                self.reported[cluster].extend(failed_ranks.iter().copied());
                self.handle_engine(
                    ctx,
                    NodeId::new(cluster as u16, rank),
                    Input::DetectFaults { failed_ranks },
                );
            }
            Ev::PartitionStart { index } => {
                self.hostile_stats.partitions_activated += 1;
                if self.tracer.enabled(TraceLevel::Protocol) {
                    let group = self.cfg.partitions[index].group.clone();
                    self.tracer.protocol(ctx.now(), "partition", || {
                        format!("cut {index} active: clusters {group:?} severed")
                    });
                }
            }
            Ev::PartitionHeal { index } => {
                self.hostile_stats.partitions_healed += 1;
                if self.tracer.enabled(TraceLevel::Protocol) {
                    self.tracer
                        .protocol(ctx.now(), "partition", || format!("cut {index} healed"));
                }
            }
            Ev::XportRetry { from, to, seq } => {
                let retrans = self.xport.as_mut().and_then(|x| {
                    let cfg = x.cfg;
                    x.senders
                        .get_mut(&(from, to))
                        .and_then(|ch| ch.retransmit(ctx.now(), &cfg, seq))
                });
                if let Some((msg, next)) = retrans {
                    self.ship_wire(
                        ctx,
                        from,
                        to,
                        Msg::Reliable {
                            seq,
                            inner: Box::new(msg),
                        },
                    );
                    ctx.schedule_at(next, Ev::XportRetry { from, to, seq });
                }
            }
            Ev::End => ctx.stop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{ClusterSpec, LinkSpec};

    fn topo(sizes: &[u32]) -> Topology {
        Topology::new(
            sizes
                .iter()
                .map(|&nodes| ClusterSpec {
                    nodes,
                    intra: LinkSpec::myrinet_like(),
                })
                .collect(),
            LinkSpec::ethernet_like(),
        )
    }

    #[test]
    fn shard_map_covers_all_clusters_contiguously() {
        let t = topo(&[4, 4, 4, 4, 4, 4, 4, 4]);
        for shards in 1..=8 {
            let m = ShardMap::new(&t, shards);
            assert_eq!(m.num_shards(), shards);
            let mut expect = 0;
            for s in 0..shards {
                let (lo, hi) = m.range(s);
                assert_eq!(lo, expect, "ranges must be contiguous");
                assert!(hi > lo, "every shard owns at least one cluster");
                for c in lo..hi {
                    assert_eq!(m.owner(c), s);
                }
                expect = hi;
            }
            assert_eq!(expect, 8, "every cluster assigned");
        }
    }

    #[test]
    fn shard_map_balances_by_node_count() {
        // One giant cluster plus small ones: the giant gets a shard to
        // itself instead of dragging neighbours along.
        let t = topo(&[100, 2, 2, 2]);
        let m = ShardMap::new(&t, 2);
        assert_eq!(m.range(0), (0, 1));
        assert_eq!(m.range(1), (1, 4));

        // Uniform clusters split evenly.
        let t = topo(&[4; 8]);
        let m = ShardMap::new(&t, 4);
        for s in 0..4 {
            let (lo, hi) = m.range(s);
            assert_eq!(hi - lo, 2, "uniform clusters split evenly");
        }
    }

    #[test]
    fn shard_map_tail_shards_never_starve() {
        // Heavy clusters up front must not swallow the tail: each of the
        // 4 shards still owns at least one of the 4 clusters.
        let t = topo(&[50, 50, 1, 1]);
        let m = ShardMap::new(&t, 4);
        for s in 0..4 {
            let (lo, hi) = m.range(s);
            assert_eq!(hi - lo, 1);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn shard_map_rejects_more_shards_than_clusters() {
        let t = topo(&[4, 4]);
        ShardMap::new(&t, 3);
    }
}
