//! The discrete-event world binding protocol engines to the network model.
//!
//! Every engine input — a workload send, a message off the wire, a
//! scripted checkpoint — is one [`Ev::Input`] event, handed to the shared
//! entry point [`hc3i_core::host::input`]; this file supplies the
//! simulator's [`Host`]: the
//! wire is the network model plus the event queue (`SimHost::wire`),
//! the clock is simulated time, timers are queue events, and the event
//! sink is the [`RunReport`] fold, the delivery ledger and the typed
//! trace ([`TraceEvent`]), which this file only records — rendering is
//! [`crate::trace::render`]'s.

use crate::config::{SimConfig, TraceLevel};
use crate::hostile::HostileRunStats;
use crate::trace::TraceEvent;
use desim::{Ctx, EventKey, SimTime, World};
use hc3i_core::host::{self, Detection, FaultReports, Host, Layout, Xport};
use hc3i_core::{Input, Msg, NodeEngine, OutputBuf, ProtoEvent, RunReport, StoreOp};
use netsim::{FastHashMap, HostileNet, Network, NodeId};

/// Events of the federation world.
#[derive(Debug, Clone)]
pub enum Ev {
    /// An input reaches `node`'s engine: a workload send
    /// ([`Input::AppSend`]), a message off the wire ([`Input::Receive`]),
    /// or a scripted one-shot checkpoint or collection (the coordinator's
    /// [`Input::ClcTimer`] or [`Input::GcTimer`], which never re-arms the
    /// periodic timers — the simulator counterpart of the runtime
    /// controller's `checkpoint_now` and `gc_now`).
    Input {
        /// The receiving node.
        node: NodeId,
        /// What it receives.
        input: Input,
    },
    /// A cluster's unforced-CLC timer fires.
    ClcTimer {
        /// The cluster.
        cluster: usize,
    },
    /// The federation GC timer fires.
    GcTimer,
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

/// The federation: engines + network + statistics.
///
/// Engines live in one flat arena indexed by the shared [`Layout`], so the
/// per-event dispatch is a single bounds-checked index instead of a nested
/// `Vec<Vec<_>>` double indirection; engine outputs are drained through
/// one reusable [`OutputBuf`] by the shared interpreter, so dispatching an
/// event allocates nothing.
///
/// Intra-cluster deliveries ride the event queue in scheduling order;
/// every inter-cluster delivery goes through the executive's
/// canonically-ordered inbox ([`desim::InboxKey`]), so same-instant
/// arrivals from different clusters reach their receivers in an order
/// fixed by the messages themselves.
pub struct FederationWorld {
    pub(crate) cfg: SimConfig,
    /// Where each node's engine and failure generation sit.
    pub(crate) layout: Layout,
    /// Every engine of the federation, at its layout index.
    engines: Vec<NodeEngine>,
    /// Wire copies shipped so far per directed cluster route, keyed by the
    /// route component of the canonical [`desim::InboxKey`] whose sequence
    /// component it supplies. One entry per route that carried a message.
    wire_seq: FastHashMap<u64, u64>,
    /// Struct-of-arrays mirror of each engine's failure generation
    /// ([`host::is_down`]), bumped at the single point engines mutate
    /// (`handle_engine`). Detection rounds and send gating scan this dense
    /// array cache-linearly instead of striding over whole
    /// [`NodeEngine`]s.
    generations: Vec<u64>,
    pub(crate) net: Network,
    pub(crate) clc_timer_keys: Vec<Option<EventKey>>,
    /// Per-cluster fault reports: concurrent faults reach the engine as
    /// *one* multi-failure report instead of one rollback per detection
    /// event.
    reports: Vec<FaultReports>,
    pub(crate) stats: RunReport,
    /// The records [`SimConfig::trace`] keeps, in the order they happened;
    /// `None` at [`TraceLevel::Off`], so an untraced run builds none.
    pub(crate) trace: Option<Vec<(SimTime, TraceEvent)>>,
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
    pub(crate) xport: Option<Xport>,
    /// On-disk mirror of every engine's CLC store
    /// ([`SimConfig::durable_dir`]), keyed by global arena index; `None`
    /// keeps the run fully in memory. Observation only — the event stream
    /// and report fingerprint of a durable run are identical to an
    /// in-memory run.
    durable: Option<storage::DurableStore<hc3i_core::CheckpointCodec>>,
}

impl FederationWorld {
    /// Build the world (engines initialized, nothing scheduled yet).
    pub fn new(cfg: SimConfig) -> Self {
        let n = cfg.topology.num_clusters();
        let layout = Layout::new(&cfg.protocol);
        let engines = layout.engines(&cfg.protocol);
        let net = Network::new(cfg.topology.clone()).with_contention(cfg.contention);
        let stats = RunReport::new(n);
        let trace = (cfg.trace != TraceLevel::Off).then(Vec::new);
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
        let xport = cfg.xport.map(Xport::new);
        let durable = cfg.durable_dir.as_ref().map(|dir| {
            host::open_log(dir, &layout, &engines)
                .unwrap_or_else(|e| panic!("open durable store at {}: {e}", dir.display()))
        });
        FederationWorld {
            cfg,
            generations: vec![0; layout.nodes()],
            layout,
            engines,
            wire_seq: FastHashMap::default(),
            net,
            clc_timer_keys: vec![None; n],
            reports: (0..n).map(|_| FaultReports::default()).collect(),
            stats,
            trace,
            out_buf: OutputBuf::new(),
            hostile,
            hostile_stats,
            xport,
            durable,
        }
    }

    /// Whether `id` is fail-stopped right now.
    fn is_down(&self, id: NodeId) -> bool {
        host::is_down(self.generations[self.layout.index(id)])
    }

    /// Feed one input to `node`'s engine through [`host::input`]. The
    /// arena is lent out beside the host for the call — no [`SimHost`]
    /// method reaches into `engines` or `generations`.
    fn handle_engine(&mut self, ctx: &mut Ctx<'_, Ev>, node: NodeId, input: Input) {
        let idx = self.layout.index(node);
        let mut buf = std::mem::take(&mut self.out_buf);
        let mut engines = std::mem::take(&mut self.engines);
        let engine = &mut engines[idx];
        host::input(&mut SimHost { w: self, ctx }, engine, input, &mut buf);
        if engine.is_failed() != host::is_down(self.generations[idx]) {
            self.generations[idx] += 1;
        }
        self.engines = engines;
        self.out_buf = buf;
    }

    /// (Re-)arm `cluster`'s unforced-CLC timer unless its delay is infinite.
    fn arm_clc_timer(&mut self, ctx: &mut Ctx<'_, Ev>, cluster: usize) {
        let delay = self.cfg.clc_delays[cluster];
        if !delay.is_infinite() {
            let key = ctx.schedule_in(delay, Ev::ClcTimer { cluster });
            self.clc_timer_keys[cluster] = Some(key);
        }
    }

    /// Fill in the end-of-run fields of the report and hand it over (the
    /// world is dropped next; it keeps an empty one).
    pub(crate) fn finalize(&mut self, now: SimTime, events: u64) -> RunReport {
        // A finished run leaves a fully flushed log (per-commit fsync only
        // covers commit frames; trailing truncate/prune frames are flushed
        // here).
        if let Some(log) = self.durable.as_mut() {
            log.sync().expect("sync durable log");
        }
        let n = self.cfg.topology.num_clusters();
        for c in 0..n {
            self.stats.clusters[c].close(&self.engines[self.layout.cluster(c)]);
        }
        for (from, to, [app, ..]) in self.net.accounts() {
            self.stats.app_matrix[from.index()][to.index()] = app.messages;
        }
        let [app, protocol, ack] = self.net.class_totals();
        self.stats.protocol_messages = protocol.messages;
        self.stats.protocol_bytes = protocol.bytes;
        self.stats.ack_messages = ack.messages;
        self.stats.ack_bytes = ack.bytes;
        self.stats.app_bytes = app.bytes;
        self.stats.events_processed = events;
        self.stats.ended_at = now;
        std::mem::take(&mut self.stats)
    }

    /// Fold the hostile post-processor's counters into the side statistics
    /// and return them (empty/default for a pristine run).
    pub(crate) fn finalize_hostile(&mut self) -> HostileRunStats {
        if let Some(h) = self.hostile.as_ref() {
            self.hostile_stats.messages_held = h.held;
            self.hostile_stats.duplicates_injected = h.duplicates;
            self.hostile_stats.messages_reordered = h.reordered;
            self.hostile_stats.messages_lost = h.lost;
        }
        if let Some(x) = self.xport.as_ref() {
            self.hostile_stats.retransmissions = x.retransmissions();
        }
        self.hostile_stats.clone()
    }
}

/// Append `record()` at `at` to `trace` if `level` keeps it
/// ([`TraceEvent::level`]); untraced, the closure never runs. A free
/// function so that the closure may borrow the rest of the world.
#[inline]
pub(crate) fn record(
    trace: &mut Option<Vec<(SimTime, TraceEvent)>>,
    level: TraceLevel,
    at: SimTime,
    record: impl FnOnce() -> TraceEvent,
) {
    if let Some(trace) = trace.as_mut() {
        let record = record();
        if record.level().is_some_and(|l| l <= level) {
            trace.push((at, record));
        }
    }
}

/// The simulator as a [`Host`]: one world plus the executive's context
/// for the event being dispatched.
struct SimHost<'a, 'c> {
    w: &'a mut FederationWorld,
    ctx: &'a mut Ctx<'c, Ev>,
}

impl Host for SimHost<'_, '_> {
    #[inline]
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Charge one outgoing message to the network model and schedule its
    /// delivery.
    fn wire(&mut self, source: NodeId, to: NodeId, msg: Msg) {
        let (w, ctx) = (&mut *self.w, &mut *self.ctx);
        let bytes = msg.wire_bytes(&w.cfg.protocol);
        let class = msg.class();
        let mut arrival = w.net.send(ctx.now(), source, to, bytes, class);
        // Hostile post-processing happens after the base network committed
        // its timing and accounting: skew/hold/reorder shift only the
        // delivery event, a duplicate copy is a ghost the network never
        // charges for, and a lost message was charged but never arrives.
        let mut duplicate_at = None;
        let mut lost = false;
        if let Some(h) = w.hostile.as_mut() {
            let outcome = h.post(ctx.now(), source, to, arrival);
            lost = outcome.lost;
            arrival = outcome.arrival;
            duplicate_at = outcome.duplicate;
        }
        record(&mut w.trace, w.cfg.trace, ctx.now(), || TraceEvent::Wire {
            from: source,
            to,
            msg: msg.clone(),
            bytes,
            arrival: (!lost).then_some(arrival),
        });
        if lost {
            return;
        }
        let arrive = |msg| Ev::Input {
            node: to,
            input: Input::Receive { from: source, msg },
        };
        if source.cluster == to.cluster {
            // Intra-cluster traffic rides the event queue in scheduling
            // order.
            if let Some(at) = duplicate_at {
                ctx.schedule_at(at, arrive(msg.clone()));
            }
            ctx.schedule_at(arrival, arrive(msg));
            return;
        }
        // Inter-cluster copies go through the canonically-ordered inbox.
        // The key is derived purely from the sending side (send instant,
        // directed cluster route, per-route wire sequence; low bit marks a
        // hostile duplicate), so same-instant arrivals dispatch in an
        // order the messages fix — the order every committed fingerprint
        // pins.
        let route = ((source.cluster.0 as u64) << 32) | to.cluster.0 as u64;
        let next = w.wire_seq.entry(route).or_default();
        let seq = *next;
        *next += 1;
        let sent = ctx.now();
        if let Some(at) = duplicate_at {
            ctx.schedule_inbox(at, (sent, route, (seq << 1) | 1), arrive(msg.clone()));
        }
        ctx.schedule_inbox(arrival, (sent, route, seq << 1), arrive(msg));
    }

    #[inline]
    fn xport(&mut self) -> Option<&mut Xport> {
        self.w.xport.as_mut()
    }

    fn arm_retry(&mut self, from: NodeId, to: NodeId, seq: u64, at: SimTime) {
        self.ctx.schedule_at(at, Ev::XportRetry { from, to, seq });
    }

    fn reset_clc_timer(&mut self, node: NodeId) {
        let cluster = node.cluster.index();
        if let Some(key) = self.w.clc_timer_keys[cluster].take() {
            self.ctx.cancel(key);
        }
        self.w.arm_clc_timer(self.ctx, cluster);
    }

    #[inline]
    fn durable(&mut self, engine: &NodeEngine, op: StoreOp) {
        let Some(log) = self.w.durable.as_mut() else {
            return;
        };
        op.append(log, &self.w.layout, engine)
            .unwrap_or_else(|e| panic!("durable append of {op:?} for {}: {e}", engine.id()));
        let crash_after = self.w.cfg.durable_crash_after;
        if matches!(op, StoreOp::Committed(_))
            && crash_after.is_some_and(|n| log.commit_frames() >= n)
        {
            // Simulated power loss (`SimConfig::durable_crash_after`): no
            // flush, no destructors. Exactly the fsync-ed prefix of the
            // log is what recovery will see.
            std::process::abort();
        }
    }

    #[inline]
    fn emit(&mut self, ev: ProtoEvent) {
        let (w, now) = (&mut *self.w, self.ctx.now());
        match ev {
            ProtoEvent::Delivered { to, from, payload } if from.cluster != to.cluster => {
                if let Some(ledger) = w.hostile_stats.ledger.as_mut() {
                    // Ledger incarnation = rollbacks the receiving
                    // cluster completed before this delivery.
                    let incarnation = w.stats.clusters[to.cluster.index()].rollbacks.len();
                    ledger.record_delivered(payload.tag, incarnation);
                }
            }
            ProtoEvent::RolledBack {
                node, committed_at, ..
            } if node.rank == 0 => {
                if let Some(ledger) = w.hostile_stats.ledger.as_mut() {
                    ledger.record_rollback(node.cluster.index(), committed_at);
                }
            }
            _ => {}
        }
        w.stats.observe(now, &ev);
        record(&mut w.trace, w.cfg.trace, now, || TraceEvent::Proto(ev));
    }
}

impl World for FederationWorld {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
        match event {
            Ev::Input { node, input } => {
                if let Input::AppSend { to, payload } = &input {
                    self.stats.app_sent += 1;
                    // Only inter-cluster sends from a live node enter the
                    // ledger: their eventual delivery is the protocol's
                    // sender-logging guarantee (§3.3). Intra-cluster
                    // traffic is covered by the coordinated checkpoint,
                    // and a failed node's application is down.
                    if let Some(ledger) = self.hostile_stats.ledger.as_mut() {
                        let live = !host::is_down(self.generations[self.layout.index(node)]);
                        if live && node.cluster != to.cluster {
                            ledger.record_sent(payload.tag, node.cluster.index(), ctx.now());
                        }
                    }
                }
                self.handle_engine(ctx, node, input);
            }
            Ev::ClcTimer { cluster } => {
                self.clc_timer_keys[cluster] = None;
                let coord = self.cfg.protocol.coordinator(cluster);
                self.handle_engine(ctx, coord, Input::ClcTimer);
                // If no commit resets it (e.g. the reason merged into a
                // running round), re-arm so periodic checkpointing survives.
                if self.clc_timer_keys[cluster].is_none() {
                    self.arm_clc_timer(ctx, cluster);
                }
            }
            Ev::GcTimer => {
                let initiator = self.cfg.protocol.coordinator(0);
                self.handle_engine(ctx, initiator, Input::GcTimer);
                if let Some(interval) = self.cfg.gc_interval {
                    ctx.schedule_in(interval, Ev::GcTimer);
                }
            }
            Ev::Fault { node } => {
                if self.is_down(node) {
                    return;
                }
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
                // Acts only if its own rank is newly failed (not revived
                // since, not in an earlier report whose rollback is still
                // in flight); it then reports every newly failed rank, and
                // the later per-fault Detect events find theirs reported.
                let generations = self.generations[self.layout.cluster(cluster)]
                    .iter()
                    .copied();
                match self.reports[cluster].detect(generations, Some(failed_rank)) {
                    Detection::Report(rank, report) => {
                        self.handle_engine(ctx, NodeId::new(cluster as u16, rank), report);
                    }
                    Detection::NoSurvivor => self.stats.unrecoverable_faults += 1,
                    Detection::Nothing => {}
                }
            }
            Ev::PartitionStart { index } => {
                self.hostile_stats.partitions_activated += 1;
                record(&mut self.trace, self.cfg.trace, ctx.now(), || {
                    let group = self.cfg.partitions[index].group.clone();
                    TraceEvent::Cut { index, group }
                });
            }
            Ev::PartitionHeal { index } => {
                self.hostile_stats.partitions_healed += 1;
                record(&mut self.trace, self.cfg.trace, ctx.now(), || {
                    TraceEvent::Heal { index }
                });
            }
            Ev::XportRetry { from, to, seq } => {
                host::retry(&mut SimHost { w: self, ctx }, from, to, seq);
            }
            Ev::End => ctx.stop(),
        }
    }
}
