//! The shard worker: one OS thread multiplexing many node engines.
//!
//! Each worker homes a fixed set of clusters — cluster `c` on shard
//! `c % S`, see the crate docs for the determinism contract — and keeps
//! one [`ClusterCell`] per cluster it homes (its slots, its CLC timer, its
//! heartbeat probe) beside one [`NodeCell`] per node (its engine and
//! application). It has two sources of work. Its MPSC channel carries
//! `(slot, Envelope)` pairs from other threads: the controller and the
//! other shards. Its in-thread *run queue* carries every message one of
//! its own nodes sends to another of them, and every report of its own
//! heartbeat probes: [`ShardHost::wire`] computes the destination's
//! address from the routing table and pushes onto the queue when the
//! owner is this shard, onto the owner's channel otherwise. Local traffic
//! — all of a cluster's 2PC, since a cluster sits on one shard, and its
//! probe's fault reports — therefore costs a `VecDeque` push and pop: no
//! atomics, no park/unpark, no tick, no clock read of its own.
//!
//! **The run queue is empty whenever the worker polls or blocks on its
//! channel** — the worker drains it after every envelope it takes from the
//! channel and after every tick, and [`ShardWorker::run`] asserts it.
//! Three properties rest on that invariant:
//!
//! * *FIFO per directed node pair* (the paper's network assumption). A
//!   pair uses one path for the whole run — same shard, the queue; else
//!   the destination's channel — and each path is FIFO. Order between
//!   different senders was never promised.
//! * *The ping barrier.* A `Ping` is addressed to the shard. When it is
//!   answered, everything routed to this shard before it, and every
//!   same-shard consequence of that, has been processed; only a hop to
//!   another shard outlives the round ([`crate::Federation::quiesce`]).
//! * *Shutdown strands nothing*: the shard's one `Shutdown` is taken from
//!   the channel with the queue empty, and the worker exits on it, so no
//!   local consequence of an earlier envelope is left unprocessed.
//!
//! Between channel envelopes, once the earliest deadline of its cluster
//! cells is due, the worker *ticks*: one pass over the cells fires each
//! due CLC timer (on the cluster's coordinator, rank 0), runs each due
//! heartbeat probe ([`ClusterProbe`], which reads the engines' failure
//! generations straight from the cells) and finds the next deadline.
//! When idle it sleeps via `recv_deadline` until that deadline. One
//! reusable [`OutputBuf`] serves all nodes of the shard, so steady-state
//! message processing allocates nothing per event.
//!
//! Every engine input — a message from another node included — arrives as
//! an [`Envelope::Input`] or on the run queue, and goes through the shared
//! entry point [`hc3i_core::host::input`]; the shard supplies
//! [`ShardHost`]: the wire is the run queue or the routing table's
//! channels, the clock is time since the federation's spawn, a timer is
//! its cluster cell's deadline, which the tick polls, and the event sink
//! is the controller's channel.

use crate::app::Application;
use crate::detector::{ClusterProbe, HeartbeatConfig};
use crate::envelope::{Envelope, RtEvent};
use crate::federation::{NodeFinalState, Routes, SharedDurable};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use hc3i_core::host::{self, Host, Xport};
use hc3i_core::{AppPayload, Input, Msg, NodeEngine, OutputBuf, StoreOp};
use hc3i_types::{NodeId, SimTime};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One node multiplexed onto a shard: its engine and its application.
pub(crate) struct NodeCell {
    pub(crate) engine: NodeEngine,
    pub(crate) app: Option<Box<dyn Application>>,
}

/// One cluster a shard homes: where its nodes sit, its CLC timer and its
/// heartbeat probe. The shard keeps one per cluster it homes, cluster `c`
/// at index `c / S`.
pub(crate) struct ClusterCell {
    /// The cluster's slots on the shard: rank `r` at `slots.start + r`.
    slots: Range<usize>,
    /// The cluster's CLC period, `None` for a manual-checkpoint cluster.
    clc_delay: Option<Duration>,
    /// When the timer next fires on the coordinator, rank 0.
    clc_deadline: Option<Instant>,
    probe: Option<ClusterProbe>,
}

impl ClusterCell {
    pub(crate) fn new(
        slots: Range<usize>,
        clc_delay: Option<Duration>,
        heartbeat: Option<HeartbeatConfig>,
        now: Instant,
    ) -> Self {
        ClusterCell {
            slots,
            clc_delay,
            clc_deadline: clc_delay.map(|d| now + d),
            probe: heartbeat.map(|hb| ClusterProbe::new(hb, now)),
        }
    }

    /// The earlier of the CLC deadline and the next probe round, if any.
    fn next_deadline(&self) -> Option<Instant> {
        let probe = self.probe.as_ref().map(ClusterProbe::next_deadline);
        self.clc_deadline.into_iter().chain(probe).min()
    }

    /// Re-arm the CLC timer one period from now (a no-op for a
    /// manual-checkpoint cluster).
    fn arm_clc(&mut self) {
        self.clc_deadline = self.clc_delay.map(|d| Instant::now() + d);
    }
}

/// The runtime's clock: wall time since the federation's spawn instant.
pub(crate) fn since(epoch: Instant) -> SimTime {
    SimTime(epoch.elapsed().as_nanos() as u64)
}

/// One node's shard as a [`Host`]: disjoint borrows of the worker's
/// shard-wide fields and of the node's own cell, the engine lent out
/// beside it ([`ShardWorker::split`]).
struct ShardHost<'a> {
    epoch: Instant,
    me: u32,
    local: &'a mut VecDeque<(u32, Input)>,
    routes: &'a Routes,
    events: &'a Sender<RtEvent>,
    clusters: &'a mut [ClusterCell],
    durable: Option<&'a SharedDurable>,
    app: &'a mut Option<Box<dyn Application>>,
}

impl Host for ShardHost<'_> {
    fn now(&self) -> SimTime {
        since(self.epoch)
    }

    /// Shard-local delivery: a destination on this worker's own thread is
    /// a push on its run queue, never a channel crossing. Only enqueues —
    /// [`ShardWorker::run`] is the one place that dequeues, so a cluster-wide
    /// fan-out is queue entries, not stack frames.
    fn wire(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        let (shard, slot) = self.routes.addr(to);
        let input = Input::Receive { from, msg };
        if shard == self.me {
            self.local.push_back((slot, input));
        } else {
            // A vanished route only happens at shutdown; drop then.
            let _ = self.routes.send(to, Envelope::Input(input));
        }
    }

    /// The crossbeam channels never lose a copy, so no transport runs.
    fn xport(&mut self) -> Option<&mut Xport> {
        None
    }

    fn arm_retry(&mut self, _from: NodeId, _to: NodeId, _seq: u64, _at: SimTime) {}

    /// The node's cluster's timer, as the simulator keys it by cluster.
    fn reset_clc_timer(&mut self, node: NodeId) {
        let home = self.routes.home(node.cluster.index());
        self.clusters[home].arm_clc();
    }

    /// Appends happen under the lock — a node lives on exactly one shard,
    /// so its frames land in emission order.
    fn durable(&mut self, engine: &NodeEngine, op: StoreOp) {
        if let Some(d) = self.durable {
            let mut log = d.lock().expect("durable log lock");
            op.append(&mut log, self.routes.layout(), engine)
                .unwrap_or_else(|e| panic!("durable append of {op:?} for {}: {e}", engine.id()));
        }
    }

    fn emit(&mut self, ev: RtEvent) {
        let _ = self.events.send(ev);
    }

    fn deliver_app(&mut self, _to: NodeId, from: NodeId, payload: AppPayload) -> Option<Vec<u8>> {
        let app = self.app.as_mut()?;
        app.on_deliver(from, payload);
        Some(app.snapshot())
    }

    fn restore_app(&mut self, _node: NodeId, state: Option<&[u8]>) {
        if let Some(app) = self.app.as_mut() {
            app.restore(state);
        }
    }
}

pub(crate) struct ShardWorker {
    nodes: Vec<NodeCell>,
    /// The clusters this shard homes, cluster `c` at `c / S`.
    clusters: Vec<ClusterCell>,
    /// This worker's index in the pool: what [`Routes::addr`] reports for
    /// the nodes it owns.
    me: u32,
    rx: Receiver<(u32, Envelope)>,
    /// The in-thread run queue: every message one of this shard's nodes
    /// sent to another of them, in emission order, and every fault report
    /// of its probes. Empty whenever the worker polls or blocks on `rx`
    /// (see [`ShardWorker::run`]).
    local: VecDeque<(u32, Input)>,
    routes: Arc<Routes>,
    events: Sender<RtEvent>,
    epoch: Instant,
    /// Reusable sink the engines emit into (same API the simulator
    /// drives; zero allocation per input).
    buf: OutputBuf,
    /// The federation's shared on-disk segment log; `None` keeps every
    /// CLC store in memory only.
    durable: Option<SharedDurable>,
}

impl ShardWorker {
    pub(crate) fn new(
        me: u32,
        nodes: Vec<NodeCell>,
        clusters: Vec<ClusterCell>,
        rx: Receiver<(u32, Envelope)>,
        routes: Arc<Routes>,
        events: Sender<RtEvent>,
        epoch: Instant,
    ) -> Self {
        ShardWorker {
            nodes,
            clusters,
            me,
            rx,
            local: VecDeque::new(),
            routes,
            events,
            epoch,
            buf: OutputBuf::new(),
            durable: None,
        }
    }

    /// Attach the federation's shared durable segment log (chained at
    /// construction; `None` is a no-op).
    pub(crate) fn with_durable(mut self, durable: Option<SharedDurable>) -> Self {
        self.durable = durable;
        self
    }

    /// Drain the shard until its `Shutdown`; return the final engine (and
    /// application) of each node it owns.
    pub(crate) fn run(mut self) -> Vec<(NodeId, NodeFinalState)> {
        // A lower bound on every homed cluster's next CLC timer and probe
        // round. Between ticks a deadline only moves later (`arm_clc` sets
        // `now + delay`), so an envelope before it costs no cluster scan.
        // Due at once: the first pass ticks and finds the real bound.
        let mut deadline = Some(Instant::now());
        loop {
            // The invariant of the module docs: never touch the channel
            // with local work pending.
            debug_assert!(self.local.is_empty(), "run queue drained before polling");
            let msg = match deadline {
                Some(at) => self.rx.recv_deadline(at),
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match msg {
                Ok((slot, Envelope::Input(input))) => {
                    self.input(slot as usize, input);
                    self.drain_local();
                }
                // Liveness is a node property: a fail-stopped engine is
                // not counted.
                Ok((_, Envelope::Ping { reply })) => {
                    let live = self.nodes.iter().filter(|c| !c.engine.is_failed());
                    let _ = reply.send(live.count());
                }
                Ok((_, Envelope::Shutdown)) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {}
            }
            // Timers and probes emit through the same `wire`.
            if deadline.is_some_and(|at| at <= Instant::now()) {
                deadline = self.tick();
                self.drain_local();
            }
        }
        // Commits are fsync-ed as they land ([`storage::SyncPolicy::EveryCommit`]);
        // flush any trailing truncate/prune frames on the way out.
        if let Some(d) = &self.durable {
            d.lock()
                .expect("durable log lock")
                .sync()
                .expect("sync durable log");
        }
        self.nodes
            .into_iter()
            .map(|c| (c.engine.id(), (c.engine, c.app)))
            .collect()
    }

    /// Run the in-thread queue to empty: everything a same-shard message
    /// causes on this shard is processed before the channel is looked at
    /// again, through the same [`ShardWorker::input`] a channel envelope
    /// takes.
    fn drain_local(&mut self) {
        while let Some((slot, input)) = self.local.pop_front() {
            self.input(slot as usize, input);
        }
    }

    /// Fire each homed cluster's due CLC timer and heartbeat probe, in one
    /// pass that also returns the earliest deadline left.
    fn tick(&mut self) -> Option<Instant> {
        let now = Instant::now();
        let mut next = None;
        for k in 0..self.clusters.len() {
            let cluster = &mut self.clusters[k];
            if cluster.clc_deadline.is_some_and(|d| d <= now) {
                cluster.clc_deadline = None;
                let coordinator = cluster.slots.start;
                self.input(coordinator, Input::ClcTimer);
                // If no commit re-armed it (the coordinator is down, or
                // the reason merged into a running round), re-arm so
                // periodic checkpointing survives — as the simulator does.
                let cluster = &mut self.clusters[k];
                if cluster.clc_deadline.is_none() {
                    cluster.arm_clc();
                }
            }
            let cluster = &mut self.clusters[k];
            if let Some(probe) = &mut cluster.probe {
                if let Some((rank, report)) = probe.tick(now, &self.nodes[cluster.slots.clone()]) {
                    let slot = cluster.slots.start + rank;
                    self.local.push_back((slot as u32, report));
                }
            }
            next = next.into_iter().chain(cluster.next_deadline()).min();
        }
        next
    }

    /// The [`Host`] view of the node at `slot`, with its engine and the
    /// shared output buffer lent out beside it.
    fn split(&mut self, slot: usize) -> (ShardHost<'_>, &mut NodeEngine, &mut OutputBuf) {
        let cell = &mut self.nodes[slot];
        let host = ShardHost {
            epoch: self.epoch,
            me: self.me,
            local: &mut self.local,
            routes: &self.routes,
            events: &self.events,
            clusters: &mut self.clusters,
            durable: self.durable.as_ref(),
            app: &mut cell.app,
        };
        (host, &mut cell.engine, &mut self.buf)
    }

    /// Feed one input to a node's engine through [`host::input`].
    fn input(&mut self, slot: usize, input: Input) {
        let (mut host, engine, buf) = self.split(slot);
        host::input(&mut host, engine, input, buf);
    }
}
