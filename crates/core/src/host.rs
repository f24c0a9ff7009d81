//! The one interpreter of engine [`Output`]s, and the seam a host fills in.
//!
//! A [`NodeEngine`] only *asks* for things — put this message on the wire,
//! re-arm the checkpoint timer, hand this payload to the application — and
//! *states* what happened: this CLC is now in my store, my cluster
//! committed, I rolled back. Something has to carry the requests out and
//! sink the statements, and that something used to be written
//! three times — in the simulator, in the threaded runtime and in the
//! test federation — each copy re-deciding which traffic the reliable
//! transport wraps, who acks a frame addressed to a dead node, and which
//! durable frame each store change appends. This
//! module is the single copy. Hosts implement [`Host`] and hand every
//! engine input to [`input`] — the one way into an engine; they differ only
//! in what a wire, a clock and a timer *are*. The same goes for what a host
//! feeds *in*: who coordinates, which live rank hears a fault, and where a
//! node sits in the host's arena are decided here once.
//!
//! | Shared: this module, identical under every host | Supplied by the host |
//! |---|---|
//! | how an input reaches an engine: transport termination for a `Receive`, `NodeEngine::handle` at [`Host::now`], then the interpreter ([`input`]) | which `(node, Input)` comes next — an event queue, a shard's channel and run queue, or a FIFO queue |
//! | who coordinates: rank 0 ([`ProtocolConfig::coordinator`]) — for the engine, every CLC and GC timer, every scripted checkpoint | when a timer fires — a queue event, or a deadline in the shard's record of the cluster, fired on the coordinator |
//! | which live rank hears a fault, about which ranks ([`FaultReports`], keyed by failure generation, [`is_down`]) | when a detection round runs — a `Detect` event after the detection delay, a heartbeat probe tick, or at once |
//! | where a node sits: the cluster-major index, the arena constructor, the durable log's node key ([`Layout`]) | what the arena holds — engines, or shard cells; each engine counts its own failures ([`NodeEngine::failure_generation`]), so no host keeps a copy |
//! | the `match` over [`Output`] (`perform`) | [`Host::now`] — simulated or wall-clock time |
//! | which sends take the reliable transport (inter-cluster only), the `Reliable` wrap, window parking (`send`) | [`Host::wire`] — network model + event queue, shard channel, or FIFO queue; [`Host::xport`] — where the [`Xport`] lives, or `None` |
//! | transport termination: ack every copy (dead engines included), dedup, release the window (`receive`) | [`Host::arm_retry`] — a queue event |
//! | retransmission with backoff; stale timers are no-ops ([`retry`]) | [`Host::reset_clc_timer`] — cancel + reschedule the cluster's timer event, or re-arm the cluster's deadline |
//! | which durable frame each [`StoreOp`] appends ([`StoreOp::append`]) | [`Host::durable`] — which log, what an I/O error does |
//! | the observable vocabulary ([`ProtoEvent`]): the engine pushes each record finished, `perform` only carries it — and emits `Delivered` once the application has the payload | [`Host::emit`] — trace + report fold, an event channel, or a report fold alone |
//! | handing the application's new snapshot to the engine, which checkpoints it | [`Host::deliver_app`] / [`Host::restore_app`] — the application, if there is one |
//!
//! (After the Calimero `sync_sim` table: everything that decides protocol
//! behaviour is the same code in simulation and production; only network,
//! time and storage callbacks are swapped.)

use crate::config::ProtocolConfig;
use crate::io::{Input, Output, OutputBuf, ProtoEvent, StoreOp};
use crate::msg::{AppPayload, Msg};
use crate::node::NodeEngine;
use crate::persist::CheckpointCodec;
use crate::xport::{ReceiverChannel, SenderChannel, XportConfig};
use hc3i_types::{NodeId, SimTime};
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use storage::{ClcStore, Ddv, DurableError, DurableOptions, DurableStore, SeqNum};

impl StoreOp {
    /// Append the frame mirroring this change to `log`, keyed by the
    /// engine's index in `layout`. A commit's body is the stored
    /// checkpoint's [`NodeCheckpoint`](crate::NodeCheckpoint) form, built
    /// here, the one place an engine's checkpoint becomes a durable body.
    pub fn append(
        self,
        log: &mut DurableStore<CheckpointCodec>,
        layout: &Layout,
        engine: &NodeEngine,
    ) -> Result<(), DurableError> {
        let node = layout.index(engine.id()) as u64;
        match self {
            StoreOp::Committed(sn) => {
                let entry = engine.store().get(sn).expect("committed CLC is stored");
                log.append_commit(node, &entry.meta, &entry.payload.to_durable())
            }
            StoreOp::Pruned(min_sn) => log.append_prune(node, min_sn),
            StoreOp::RolledBack(restore_sn) => log.append_truncate(node, restore_sn),
        }
    }
}

/// Open the durable log of a fresh federation under `dir` and seed it with
/// every engine's genesis chain, in the order given and keyed by `layout`
/// — the initial CLC is committed inside `NodeEngine::new`, so it never
/// flows through [`Host::durable`].
///
/// A `dir` that already holds a segment log is refused with an
/// [`ErrorKind::AlreadyExists`](std::io::ErrorKind::AlreadyExists) I/O
/// error, and left untouched.
pub fn open_log<'a>(
    dir: &Path,
    layout: &Layout,
    engines: impl IntoIterator<Item = &'a NodeEngine>,
) -> Result<DurableStore<CheckpointCodec>, DurableError> {
    // Asked before `open`, which would replay the log and trim its tail.
    if storage::holds_log(dir)? {
        return Err(DurableError::Io(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!(
                "{} already holds a segment log; recover it or use a fresh directory",
                dir.display()
            ),
        )));
    }
    let mut log = DurableStore::open(dir, CheckpointCodec, DurableOptions::default())?;
    for engine in engines {
        let mut chain = ClcStore::new();
        for entry in engine.store().iter() {
            chain.commit(entry.meta.clone(), entry.payload.to_durable());
        }
        log.snapshot_node(layout.index(engine.id()) as u64, &chain)?;
    }
    log.sync()?;
    Ok(log)
}

/// Where every node of a federation sits in a host's arena: cluster-major
/// order, cluster 0's ranks first. The one node index — the simulator's
/// engine arena, the runtime's shard placement and probe slots, the test
/// federation's engines and the durable log's node keys all use it.
#[derive(Debug, Clone)]
pub struct Layout {
    /// `offsets[c]` = index of cluster `c`'s rank 0; the last entry is
    /// the node count.
    offsets: Vec<usize>,
}

impl Layout {
    /// The layout of `cfg`'s federation.
    pub fn new(cfg: &ProtocolConfig) -> Self {
        let mut offsets = Vec::with_capacity(cfg.num_clusters() + 1);
        let mut total = 0;
        offsets.push(total);
        for &nodes in &cfg.cluster_sizes {
            total += nodes as usize;
            offsets.push(total);
        }
        Layout { offsets }
    }

    /// `id`'s index.
    #[inline]
    pub fn index(&self, id: NodeId) -> usize {
        self.offsets[id.cluster.index()] + id.rank as usize
    }

    /// The node at `index` (`index < self.nodes()`).
    pub fn node(&self, index: usize) -> NodeId {
        let c = self.offsets.partition_point(|&o| o <= index) - 1;
        NodeId::new(c as u16, (index - self.offsets[c]) as u32)
    }

    /// The indices of cluster `c`, rank 0 first.
    #[inline]
    pub fn cluster(&self, c: usize) -> Range<usize> {
        self.offsets[c]..self.offsets[c + 1]
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// Every node, in index order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes()).map(|g| self.node(g))
    }

    /// A fresh engine for every node, in index order, from the `cfg` this
    /// layout was built from. One `Arc` of the config for the whole arena
    /// and one genesis DDV per cluster: with these shared and the engines'
    /// epoch floors sparse, nothing an engine owns grows with the
    /// federation's width, so the arena costs `nodes x constant`.
    pub fn engines(&self, cfg: &ProtocolConfig) -> Vec<NodeEngine> {
        let shared = Arc::new(cfg.clone());
        let n = cfg.num_clusters();
        let mut engines = Vec::with_capacity(self.nodes());
        for c in 0..n {
            let mut genesis = Ddv::zeros(n);
            genesis.set(c, SeqNum(1));
            let genesis = Arc::new(genesis);
            for rank in 0..self.cluster(c).len() as u32 {
                let id = NodeId::new(c as u16, rank);
                engines.push(NodeEngine::with_initial_ddv(
                    shared.clone(),
                    id,
                    genesis.clone(),
                ));
            }
        }
        engines
    }
}

/// Whether a failure generation ([`NodeEngine::failure_generation`]) is a
/// fail-stopped one: even = alive, odd = down, and a node revived and
/// failed again carries a new odd value.
#[inline]
pub fn is_down(generation: u32) -> bool {
    generation & 1 == 1
}

/// The input a fault report reaches an engine as: every rank in
/// `failed_ranks` is down. What a detection round hands over
/// ([`FaultReports::detect`]), and what a controller that detects by
/// hand sends.
pub fn fault_report(failed_ranks: Vec<u32>) -> Input {
    Input::DetectFaults { failed_ranks }
}

/// What one detection round over a cluster found.
#[derive(Debug, PartialEq, Eq)]
pub enum Detection {
    /// Nothing to report: no rank is newly failed, or the round's trigger
    /// rank is not.
    Nothing,
    /// Ranks are newly failed but none is live to hear it. Nothing is
    /// marked, so a later round reports them.
    NoSurvivor,
    /// Hand the input — one [`fault_report`] of every newly failed rank,
    /// now marked reported — to this rank, the cluster's lowest live one,
    /// which coordinates the recovery.
    Report(u32, Input),
}

/// The fault reports of one cluster: the one rule every host routes a
/// failure detection by. Concurrent faults reach the engine as *one*
/// report, so they roll the cluster back once.
#[derive(Debug, Default)]
pub struct FaultReports {
    /// The failure generation each reported rank was reported at. A rank
    /// whose generation moved on was revived since — and, if down again,
    /// is a fresh failure, even when no round saw it alive.
    reported: HashMap<u32, u32>,
}

impl FaultReports {
    /// One detection round over a cluster whose ranks have failure
    /// `generations` (rank order; see [`is_down`]). A rank is *newly
    /// failed* while it is down at a generation not yet reported. With a
    /// `trigger`, the round reports only if that rank is newly failed —
    /// and then reports every newly failed rank with it.
    pub fn detect(
        &mut self,
        generations: impl IntoIterator<Item = u32>,
        trigger: Option<u32>,
    ) -> Detection {
        let mut live = None;
        let mut newly = Vec::new();
        for (rank, generation) in (0u32..).zip(generations) {
            if !is_down(generation) {
                self.reported.remove(&rank);
                live.get_or_insert(rank);
            } else if self.reported.get(&rank) != Some(&generation) {
                newly.push((rank, generation));
            }
        }
        let triggered = trigger.is_none_or(|t| newly.iter().any(|&(r, _)| r == t));
        if newly.is_empty() || !triggered {
            return Detection::Nothing;
        }
        let Some(rank) = live else {
            return Detection::NoSurvivor;
        };
        self.reported.extend(newly.iter().copied());
        Detection::Report(rank, fault_report(newly.iter().map(|&(r, _)| r).collect()))
    }
}

/// Reliable-transport state of one host: a sender and a receiver channel
/// per *directed* node pair that has carried inter-cluster traffic. Keyed
/// access only on every path that feeds a deterministic host, so the hash
/// maps cannot perturb event order.
pub struct Xport {
    cfg: XportConfig,
    /// `(sender, destination)` → in-flight window, overflow queue, backoff.
    senders: HashMap<(NodeId, NodeId), SenderChannel>,
    /// `(sender, destination)` → exactly-once admission state.
    receivers: HashMap<(NodeId, NodeId), ReceiverChannel>,
}

impl Xport {
    /// An idle transport with the given tuning.
    pub fn new(cfg: XportConfig) -> Self {
        Xport {
            cfg,
            senders: HashMap::new(),
            receivers: HashMap::new(),
        }
    }

    /// Total retransmitted copies across all channels.
    pub fn retransmissions(&self) -> u64 {
        self.senders.values().map(|s| s.retransmissions).sum()
    }
}

/// What hosting a federation of [`NodeEngine`]s takes: a wire, a clock, a
/// timer, and sinks for storage changes and events. Everything else is
/// [`input`], `send` and [`retry`].
pub trait Host {
    /// The host's current time.
    fn now(&self) -> SimTime;

    /// Carry one message from `from` to `to`. The single path every wire
    /// copy takes — plain sends, fragment replicas, transport wraps, acks
    /// and retransmissions alike.
    fn wire(&mut self, from: NodeId, to: NodeId, msg: Msg);

    /// The reliable transport, when this host runs one.
    fn xport(&mut self) -> Option<&mut Xport>;

    /// The copy `seq` of channel `from → to` just went on the wire: see
    /// that [`retry`] runs for it at `at`. A firing that finds the copy
    /// acked is a no-op, so acks never cancel anything.
    fn arm_retry(&mut self, from: NodeId, to: NodeId, seq: u64, at: SimTime);

    /// (Re-)arm the unforced-CLC timer `node` coordinates, replacing any
    /// pending one, at the host's configured delay.
    fn reset_clc_timer(&mut self, node: NodeId);

    /// `engine`'s local store changed: mirror it if this host keeps a
    /// durable log. The one place a durable I/O error surfaces.
    fn durable(&mut self, engine: &NodeEngine, op: StoreOp);

    /// Something observable happened.
    fn emit(&mut self, ev: ProtoEvent);

    /// Hand a delivery to `to`'s application; return its new serialized
    /// state for the engine to checkpoint. Hosts whose application is
    /// abstract keep the default.
    fn deliver_app(&mut self, to: NodeId, from: NodeId, payload: AppPayload) -> Option<Vec<u8>> {
        let _ = (to, from, payload);
        None
    }

    /// A rollback restored this state for `node`'s application.
    fn restore_app(&mut self, node: NodeId, state: Option<&[u8]>) {
        let _ = (node, state);
    }
}

/// Feed `input` to `engine` and carry out everything it emits into `outs`
/// (a reusable, empty buffer): the one way a host drives an engine. A
/// `Receive` first passes transport termination — a frame the transport
/// consumes (an ack, a duplicate copy) never reaches the engine — then the
/// engine handles the input at [`Host::now`], and `perform` carries out
/// its outputs.
#[inline]
pub fn input<H: Host>(host: &mut H, engine: &mut NodeEngine, input: Input, outs: &mut OutputBuf) {
    let input = match input {
        Input::Receive { from, msg } if host.xport().is_some() => {
            match receive(host, from, engine.id(), msg) {
                Some(msg) => Input::Receive { from, msg },
                None => return,
            }
        }
        input => input,
    };
    engine.handle(host.now(), input, outs);
    perform(host, engine, outs);
}

/// Carry out everything `engine` just emitted into `outs`.
///
/// Out of line on purpose: it runs right after `NodeEngine::handle`, and
/// inlined there the two merge into one oversized frame. Measured again
/// by PR 18 on the benchmark's `sim_mega`, on top of the heap queue:
/// without the attribute `wall_s` is higher in 10/10 rounds, 0.476 to
/// 0.551 s at the medians (+16 %; `bench/ABLATIONS.md`). What runs per
/// output — [`send`] and the host's own methods — does inline into it.
#[inline(never)]
fn perform<H: Host>(host: &mut H, engine: &mut NodeEngine, outs: &mut OutputBuf) {
    let id = engine.id();
    for out in outs.drain() {
        match out {
            Output::Send { to, msg } => send(host, id, to, msg),
            Output::DeliverApp { from, payload } => {
                if let Some(state) = host.deliver_app(id, from, payload) {
                    engine.set_app_state(state);
                }
                host.emit(ProtoEvent::Delivered {
                    to: id,
                    from,
                    payload,
                });
            }
            Output::ResetClcTimer => host.reset_clc_timer(id),
            Output::RestoreApp { state } => host.restore_app(id, state.as_deref()),
            Output::Store(op) => host.durable(engine, op),
            Output::Event(ev) => host.emit(ev),
        }
    }
}

/// Put one engine message on the wire. With a transport, inter-cluster
/// traffic detours through the sender channel — sequence assignment,
/// bounded window, retransmit timer — and travels wrapped in
/// [`Msg::Reliable`]; everything else goes straight to [`Host::wire`].
#[inline]
pub(crate) fn send<H: Host>(host: &mut H, from: NodeId, to: NodeId, msg: Msg) {
    if from.cluster == to.cluster || host.xport().is_none() {
        return host.wire(from, to, msg);
    }
    let now = host.now();
    let x = host.xport().expect("checked above");
    let seq = x
        .senders
        .entry((from, to))
        .or_default()
        .send(now, &x.cfg, msg.clone());
    // `None` = window full: the channel parked the copy; it leaves from
    // the ack that frees its slot.
    if let Some(seq) = seq {
        wire_reliable(host, from, to, seq, msg);
    }
}

/// Wire one admitted copy, then arm its retransmission at the channel's
/// current deadline — in that order: a deterministic host's event
/// sequence depends on it.
fn wire_reliable<H: Host>(host: &mut H, from: NodeId, to: NodeId, seq: u64, msg: Msg) {
    let deadline = host
        .xport()
        .and_then(|x| x.senders.get(&(from, to)))
        .and_then(|ch| ch.deadline(seq));
    let inner = Box::new(msg);
    host.wire(from, to, Msg::Reliable { seq, inner });
    if let Some(at) = deadline {
        host.arm_retry(from, to, seq, at);
    }
}

/// A message from `from` arrived at `to`: terminate transport frames and
/// return what the engine should see, if anything. Every `Reliable` copy
/// is acked — also on behalf of a failed engine, so the sender's window
/// drains; a dead node's missed deliveries are the protocol's problem
/// (sender logging + replay), not the transport's — and only its first
/// sighting is returned. An `XportAck` frees its slot and wires whatever
/// the window had parked. Without a transport every message passes
/// through ([`input`] skips the call).
#[inline]
fn receive<H: Host>(host: &mut H, from: NodeId, to: NodeId, msg: Msg) -> Option<Msg> {
    if host.xport().is_none() {
        return Some(msg);
    }
    match msg {
        Msg::Reliable { seq, inner } => {
            let x = host.xport().expect("checked above");
            let fresh = x.receivers.entry((from, to)).or_default().accept(seq);
            host.wire(to, from, Msg::XportAck { seq });
            fresh.then_some(*inner)
        }
        Msg::XportAck { seq } => {
            // The ack travels receiver → sender: it belongs to the
            // channel `to → from`.
            let now = host.now();
            let x = host.xport().expect("checked above");
            let released = match x.senders.get_mut(&(to, from)) {
                Some(ch) => ch.ack(now, &x.cfg, seq),
                None => Vec::new(),
            };
            for (seq, msg) in released {
                wire_reliable(host, to, from, seq, msg);
            }
            None
        }
        msg => Some(msg),
    }
}

/// A retransmission timer fired for copy `seq` of channel `from → to`:
/// if it is still in flight and due, wire it again and re-arm at the
/// backed-off deadline. Stale firings (acked, or already retransmitted by
/// an earlier firing) do nothing.
pub fn retry<H: Host>(host: &mut H, from: NodeId, to: NodeId, seq: u64) {
    let now = host.now();
    let Some(x) = host.xport() else { return };
    let Some(ch) = x.senders.get_mut(&(from, to)) else {
        return;
    };
    if let Some((msg, next)) = ch.retransmit(now, &x.cfg, seq) {
        let inner = Box::new(msg);
        host.wire(from, to, Msg::Reliable { seq, inner });
        host.arm_retry(from, to, seq, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc3i_types::SimDuration;

    /// Everything a host can be asked to do, in the order it was asked.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Call {
        Wire(NodeId, NodeId, Msg),
        Arm(NodeId, NodeId, u64, SimTime),
        ResetClc(NodeId),
        Durable(StoreOp),
        Emit(ProtoEvent),
    }

    struct Recorder {
        now: SimTime,
        xport: Option<Xport>,
        calls: Vec<Call>,
    }

    impl Recorder {
        fn new(xport: Option<XportConfig>) -> Self {
            Recorder {
                now: t(0),
                xport: xport.map(Xport::new),
                calls: Vec::new(),
            }
        }

        fn take(&mut self) -> Vec<Call> {
            std::mem::take(&mut self.calls)
        }
    }

    impl Host for Recorder {
        fn now(&self) -> SimTime {
            self.now
        }
        fn wire(&mut self, from: NodeId, to: NodeId, msg: Msg) {
            self.calls.push(Call::Wire(from, to, msg));
        }
        fn xport(&mut self) -> Option<&mut Xport> {
            self.xport.as_mut()
        }
        fn arm_retry(&mut self, from: NodeId, to: NodeId, seq: u64, at: SimTime) {
            self.calls.push(Call::Arm(from, to, seq, at));
        }
        fn reset_clc_timer(&mut self, node: NodeId) {
            self.calls.push(Call::ResetClc(node));
        }
        fn durable(&mut self, _engine: &NodeEngine, op: StoreOp) {
            self.calls.push(Call::Durable(op));
        }
        fn emit(&mut self, ev: ProtoEvent) {
            self.calls.push(Call::Emit(ev));
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn n(c: u16, r: u32) -> NodeId {
        NodeId::new(c, r)
    }

    /// A cheap distinguishable engine message.
    fn m(k: u64) -> Msg {
        Msg::FragmentReplica {
            round: k,
            owner: 0,
            epoch: 0,
        }
    }

    fn reliable(seq: u64, inner: Msg) -> Msg {
        Msg::Reliable {
            seq,
            inner: Box::new(inner),
        }
    }

    fn engine(id: NodeId) -> NodeEngine {
        NodeEngine::new(ProtocolConfig::new(vec![4, 2]), id)
    }

    /// `perform` over hand-built outputs of the engine at `id`.
    fn perform_outputs(host: &mut Recorder, id: NodeId, outs: Vec<Output>) -> Vec<Call> {
        let mut buf = OutputBuf::new();
        for out in outs {
            buf.push(out);
        }
        perform(host, &mut engine(id), &mut buf);
        assert_eq!(buf.drain().count(), 0, "perform drains the buffer");
        host.take()
    }

    const ME: NodeId = NodeId {
        cluster: hc3i_types::ClusterId(0),
        rank: 1,
    };
    const PEER: NodeId = NodeId {
        cluster: hc3i_types::ClusterId(1),
        rank: 0,
    };

    #[test]
    fn only_inter_cluster_sends_are_wrapped_and_the_retry_follows_the_wire() {
        let cfg = XportConfig::default();
        let mut host = Recorder::new(Some(cfg));
        host.now = t(7);
        let outs = vec![
            Output::Send {
                to: n(0, 2),
                msg: m(1),
            },
            Output::Send {
                to: PEER,
                msg: m(2),
            },
        ];
        assert_eq!(
            perform_outputs(&mut host, ME, outs),
            vec![
                Call::Wire(ME, n(0, 2), m(1)),
                Call::Wire(ME, PEER, reliable(0, m(2))),
                Call::Arm(ME, PEER, 0, t(7) + cfg.rto),
            ]
        );
    }

    #[test]
    fn a_duplicate_reliable_copy_is_acked_but_not_delivered() {
        let mut host = Recorder::new(Some(XportConfig::default()));
        let ack = vec![Call::Wire(ME, PEER, Msg::XportAck { seq: 5 })];
        assert_eq!(receive(&mut host, PEER, ME, reliable(5, m(1))), Some(m(1)));
        assert_eq!(host.take(), ack);
        assert_eq!(receive(&mut host, PEER, ME, reliable(5, m(1))), None);
        assert_eq!(host.take(), ack, "acked again so the sender stops");
        // Engine messages pass through untouched.
        assert_eq!(receive(&mut host, PEER, ME, m(3)), Some(m(3)));
        assert!(host.take().is_empty());
        // And without a transport nothing is terminated at all.
        let mut plain = Recorder::new(None);
        let frame = reliable(5, m(1));
        assert_eq!(receive(&mut plain, PEER, ME, frame.clone()), Some(frame));
        assert!(plain.take().is_empty());
    }

    #[test]
    fn input_hands_the_engine_no_transport_frame() {
        let mut host = Recorder::new(Some(XportConfig::default()));
        let (mut me, mut buf) = (engine(ME), OutputBuf::new());
        assert_eq!(receive(&mut host, PEER, ME, reliable(5, m(1))), Some(m(1)));
        host.take();
        // A duplicate copy and a stray ack are both consumed by the
        // transport; a frame reaching the engine trips its debug assertion.
        for msg in [reliable(5, m(1)), Msg::XportAck { seq: 9 }] {
            input(
                &mut host,
                &mut me,
                Input::Receive { from: PEER, msg },
                &mut buf,
            );
        }
        assert_eq!(
            host.take(),
            vec![Call::Wire(ME, PEER, Msg::XportAck { seq: 5 })]
        );
    }

    #[test]
    fn window_full_sends_park_and_leave_in_order_on_the_freeing_acks() {
        let cfg = XportConfig {
            window: 1,
            ..Default::default()
        };
        let mut host = Recorder::new(Some(cfg));
        for k in 0..3 {
            send(&mut host, ME, PEER, m(k));
        }
        assert_eq!(
            host.take(),
            vec![
                Call::Wire(ME, PEER, reliable(0, m(0))),
                Call::Arm(ME, PEER, 0, t(0) + cfg.rto),
            ],
            "m1 and m2 are parked behind the window"
        );
        for seq in 0..2u64 {
            host.now = t(10 * (seq + 1));
            // The ack travels PEER → ME and belongs to channel ME → PEER.
            assert_eq!(receive(&mut host, PEER, ME, Msg::XportAck { seq }), None);
            assert_eq!(
                host.take(),
                vec![
                    Call::Wire(ME, PEER, reliable(seq + 1, m(seq + 1))),
                    Call::Arm(ME, PEER, seq + 1, host.now + cfg.rto),
                ]
            );
        }
        // A duplicate ack frees nothing; an ack for a channel that never
        // sent is ignored.
        assert_eq!(receive(&mut host, PEER, ME, Msg::XportAck { seq: 0 }), None);
        assert_eq!(
            receive(&mut host, n(1, 1), ME, Msg::XportAck { seq: 0 }),
            None
        );
        assert!(host.take().is_empty());
    }

    #[test]
    fn retry_rewires_a_due_copy_and_stale_firings_do_nothing() {
        let cfg = XportConfig::default();
        let mut host = Recorder::new(Some(cfg));
        send(&mut host, ME, PEER, m(1));
        host.take();

        host.now = t(49);
        retry(&mut host, ME, PEER, 0);
        assert!(host.take().is_empty(), "not due yet");

        host.now = t(50);
        retry(&mut host, ME, PEER, 0);
        assert_eq!(
            host.take(),
            vec![
                Call::Wire(ME, PEER, reliable(0, m(1))),
                Call::Arm(ME, PEER, 0, t(150)),
            ],
            "backed off: 50 + 2 * 50"
        );
        assert_eq!(host.xport.as_ref().unwrap().retransmissions(), 1);

        // The timer armed for t(50) by the original send fires again
        // after the retransmission moved the deadline: stale.
        retry(&mut host, ME, PEER, 0);
        // Acked copies, unknown sequences and unknown channels: stale.
        receive(&mut host, PEER, ME, Msg::XportAck { seq: 0 });
        host.now = t(10_000);
        retry(&mut host, ME, PEER, 0);
        retry(&mut host, ME, PEER, 77);
        retry(&mut host, ME, n(1, 1), 0);
        assert!(host.take().is_empty());
        // Without a transport there is nothing to retry.
        retry(&mut Recorder::new(None), ME, PEER, 0);
    }

    #[test]
    fn layout_is_cluster_major_and_inverts() {
        let cfg = ProtocolConfig::new(vec![3, 1, 2]);
        let layout = Layout::new(&cfg);
        assert_eq!(layout.nodes(), 6);
        assert_eq!(layout.cluster(1), 3..4);
        assert_eq!(layout.index(n(2, 1)), 5);
        let ids: Vec<NodeId> = layout.ids().collect();
        assert_eq!(ids, [n(0, 0), n(0, 1), n(0, 2), n(1, 0), n(2, 0), n(2, 1)]);
        for (g, &id) in ids.iter().enumerate() {
            assert_eq!((layout.index(id), layout.node(g)), (g, id));
        }
        let engines = layout.engines(&cfg);
        assert!(engines.iter().map(NodeEngine::id).eq(ids));
    }

    #[test]
    fn open_log_refuses_a_used_directory_with_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("hc3i-open-log-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ProtocolConfig::new(vec![2]);
        let layout = Layout::new(&cfg);
        let engines = layout.engines(&cfg);
        drop(open_log(&dir, &layout, &engines).expect("a fresh directory opens"));
        let used: Vec<_> = std::fs::read_dir(&dir).expect("log written").collect();
        let err = open_log(&dir, &layout, &engines)
            .err()
            .expect("a used directory is refused");
        assert!(
            matches!(&err, DurableError::Io(e) if e.kind() == std::io::ErrorKind::AlreadyExists),
            "{err}"
        );
        let after: Vec<_> = std::fs::read_dir(&dir).expect("log kept").collect();
        assert_eq!(after.len(), used.len(), "the refusal wrote nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn report(rank: u32, failed_ranks: Vec<u32>) -> Detection {
        Detection::Report(rank, Input::DetectFaults { failed_ranks })
    }

    #[test]
    fn a_rank_revived_and_failed_again_between_rounds_is_reported_again() {
        let mut reports = FaultReports::default();
        assert_eq!(reports.detect([0, 1, 0], None), report(0, vec![1]));
        assert_eq!(reports.detect([0, 1, 0], None), Detection::Nothing);
        // Rank 1 revived (2) and failed again (3) with no round in between.
        assert_eq!(reports.detect([0, 3, 0], None), report(0, vec![1]));
    }

    #[test]
    fn a_cluster_with_no_live_rank_reports_nothing_and_marks_nothing() {
        let mut reports = FaultReports::default();
        assert_eq!(reports.detect([1, 1], None), Detection::NoSurvivor);
        assert_eq!(reports.detect([1, 1], Some(1)), Detection::NoSurvivor);
        // Rank 0 revived: rank 1 was never marked, so it is reported now.
        assert_eq!(reports.detect([2, 1], None), report(0, vec![1]));
    }

    #[test]
    fn a_trigger_that_is_not_newly_failed_reports_nothing() {
        let mut reports = FaultReports::default();
        assert_eq!(reports.detect([0, 1, 0], Some(1)), report(0, vec![1]));
        // Rank 2 is newly failed, but neither the reported rank 1 nor the
        // live rank 0 triggers a report.
        assert_eq!(reports.detect([0, 1, 1], Some(1)), Detection::Nothing);
        assert_eq!(reports.detect([0, 1, 1], Some(0)), Detection::Nothing);
        // The rank-2 trigger reports rank 2 only: rank 1 is reported.
        assert_eq!(reports.detect([0, 1, 1], Some(2)), report(0, vec![2]));
        // Rank 0 down too: the lowest live rank is gone, so is the report.
        assert_eq!(reports.detect([1, 1, 1], Some(0)), Detection::NoSurvivor);
    }
}
