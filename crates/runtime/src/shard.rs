//! The shard worker: one OS thread multiplexing many node engines.
//!
//! Each worker owns a fixed set of [`NodeCell`]s — whole clusters, dealt
//! round-robin (see the crate docs for the determinism contract) — and
//! has two sources of work. Its MPSC channel carries `(slot, Envelope)`
//! pairs from other threads: the controller and the other shards. Its
//! in-thread *run queue* carries every message one of its own nodes sends
//! to another of them, and every report of its own heartbeat probes:
//! [`ShardHost::wire`] looks the destination up in the routing table and
//! pushes onto the queue when the owner is this shard, onto the owner's
//! channel otherwise. Local traffic — all of a cluster's 2PC, since a
//! cluster sits on one shard, and its probe's fault reports — therefore
//! costs a `VecDeque` push and pop: no atomics, no park/unpark, no tick,
//! no clock read of its own.
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
//! * *The ping barrier.* When a `Ping` is answered, everything routed to
//!   this shard before it, and every same-shard consequence of that, has
//!   been processed; only a hop to another shard outlives the round
//!   ([`crate::Federation::quiesce`]).
//! * *Shutdown strands nothing*: `live` is only re-read with the queue
//!   empty.
//!
//! Between channel envelopes the worker *ticks*: it fires any due CLC
//! timer of a coordinator it owns and runs the heartbeat probes of the
//! clusters it owns ([`ClusterProbe`], which read the engines' failure
//! generations straight from the cells). When idle it sleeps via
//! `recv_deadline` until the earliest pending deadline. One reusable [`OutputBuf`] serves all
//! nodes of the shard, so steady-state message processing allocates
//! nothing per event.
//!
//! Every engine input — a message from another node included — arrives as
//! an [`Envelope::Input`] and goes through the shared entry point
//! [`hc3i_core::host::input`]; the shard supplies [`ShardHost`]: the wire is the
//! run queue or the routing table's channels, the clock is time since the
//! federation's spawn, timers are cached earliest-deadline bounds the tick
//! polls, and the event sink is the controller's channel.

use crate::app::Application;
use crate::detector::ClusterProbe;
use crate::envelope::{Envelope, RtEvent};
use crate::federation::{NodeFinalState, Routes, SharedDurable};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use hc3i_core::host::{self, Host, Xport};
use hc3i_core::{AppPayload, Input, Msg, NodeEngine, OutputBuf, StoreOp};
use hc3i_types::{NodeId, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One node multiplexed onto a shard: the engine plus its runtime-side
/// timer and application state.
pub(crate) struct NodeCell {
    pub(crate) id: NodeId,
    pub(crate) engine: NodeEngine,
    pub(crate) app: Option<Box<dyn Application>>,
    /// The cluster's CLC period: set on a timed cluster's coordinator
    /// only, the one node whose timer starts a round.
    pub(crate) clc_delay: Option<Duration>,
    pub(crate) clc_deadline: Option<Instant>,
    /// Set by `Envelope::Shutdown`; a stopped node drops every later
    /// envelope, exactly as a joined node thread used to.
    pub(crate) stopped: bool,
}

/// Lower a cached earliest-deadline bound to cover a newly armed
/// deadline. Arming only ever lowers a bound (O(1) on the message path);
/// the exact minimum is recomputed when it comes due — so a waking worker
/// may scan and find nothing to fire, but a due timer is never missed.
fn lower(bound: &mut Option<Instant>, deadline: Instant) {
    *bound = Some(bound.map_or(deadline, |b| b.min(deadline)));
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
    local: &'a mut VecDeque<(u32, Envelope)>,
    routes: &'a Routes,
    events: &'a Sender<RtEvent>,
    next_clc: &'a mut Option<Instant>,
    durable: Option<&'a SharedDurable>,
    app: &'a mut Option<Box<dyn Application>>,
    clc_delay: Option<Duration>,
    clc_deadline: &'a mut Option<Instant>,
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
        let env = Envelope::Input(Input::Receive { from, msg });
        if shard == self.me {
            self.local.push_back((slot, env));
        } else {
            // A vanished route only happens at shutdown; drop then.
            let _ = self.routes.send(to, env);
        }
    }

    /// The crossbeam channels never lose a copy, so no transport runs.
    fn xport(&mut self) -> Option<&mut Xport> {
        None
    }

    fn arm_retry(&mut self, _from: NodeId, _to: NodeId, _seq: u64, _at: SimTime) {}

    fn reset_clc_timer(&mut self, _node: NodeId) {
        if let Some(d) = self.clc_delay {
            let deadline = Instant::now() + d;
            *self.clc_deadline = Some(deadline);
            lower(self.next_clc, deadline);
        }
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
    /// Slots that arm a CLC deadline: the timed coordinators this shard
    /// owns.
    timer_slots: Vec<usize>,
    /// This worker's index in the pool: what [`Routes::addr`] reports for
    /// the nodes it owns.
    me: u32,
    rx: Receiver<(u32, Envelope)>,
    /// The in-thread run queue: every message one of this shard's nodes
    /// sent to another of them, in emission order. Empty whenever the
    /// worker polls or blocks on `rx` (see [`ShardWorker::run`]).
    local: VecDeque<(u32, Envelope)>,
    routes: Arc<Routes>,
    events: Sender<RtEvent>,
    epoch: Instant,
    probes: Vec<ClusterProbe>,
    /// Reusable sink the engines emit into (same API the simulator
    /// drives; zero allocation per input).
    buf: OutputBuf,
    /// Lower bound on the earliest armed CLC deadline (see [`lower`]).
    next_clc: Option<Instant>,
    /// Nodes not yet stopped; the worker exits when this reaches zero.
    live: usize,
    /// The federation's shared on-disk segment log; `None` keeps every
    /// CLC store in memory only.
    durable: Option<SharedDurable>,
}

impl ShardWorker {
    pub(crate) fn new(
        nodes: Vec<NodeCell>,
        rx: Receiver<(u32, Envelope)>,
        routes: Arc<Routes>,
        events: Sender<RtEvent>,
        epoch: Instant,
        probes: Vec<ClusterProbe>,
    ) -> Self {
        let timer_slots: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.clc_delay.is_some())
            .map(|(s, _)| s)
            .collect();
        let next_clc = nodes.iter().filter_map(|c| c.clc_deadline).min();
        let live = nodes.len();
        // This worker is whichever shard the table says owns its nodes.
        let me = nodes.first().map_or(0, |c| routes.addr(c.id).0);
        ShardWorker {
            nodes,
            timer_slots,
            me,
            rx,
            local: VecDeque::new(),
            routes,
            events,
            epoch,
            probes,
            buf: OutputBuf::new(),
            next_clc,
            live,
            durable: None,
        }
    }

    /// Attach the federation's shared durable segment log (chained at
    /// construction; `None` is a no-op).
    pub(crate) fn with_durable(mut self, durable: Option<SharedDurable>) -> Self {
        self.durable = durable;
        self
    }

    /// Drain the shard until every owned node has been shut down; return
    /// the final engine (and application) of each.
    pub(crate) fn run(mut self) -> Vec<(NodeId, NodeFinalState)> {
        while self.live > 0 {
            // The invariant of the module docs: never touch the channel
            // with local work pending.
            debug_assert!(self.local.is_empty(), "run queue drained before polling");
            let msg = match self.next_deadline() {
                Some(deadline) => match self.rx.recv_deadline(deadline) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                None => match self.rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                },
            };
            if let Some((slot, env)) = msg {
                self.dispatch(slot as usize, env);
                self.drain_local();
            }
            // Timers and probes emit through the same `wire`.
            self.tick();
            self.drain_local();
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
            .map(|c| (c.id, (c.engine, c.app)))
            .collect()
    }

    /// Run the in-thread queue to empty: everything a same-shard message
    /// causes on this shard is processed before the channel is looked at
    /// again, through the same [`ShardWorker::dispatch`] a channel envelope
    /// takes.
    fn drain_local(&mut self) {
        while let Some((slot, env)) = self.local.pop_front() {
            self.dispatch(slot as usize, env);
        }
    }

    /// Earliest pending timer or probe deadline, if any. O(#probes): the
    /// CLC side is a cached bound, not a scan.
    fn next_deadline(&self) -> Option<Instant> {
        let mut next = self.next_clc;
        for p in &self.probes {
            lower(&mut next, p.next_deadline());
        }
        next
    }

    /// Fire due CLC timers and heartbeat probes. The timer-slot scan only
    /// runs when the cached bound is actually due, so per-message ticks
    /// are O(#probes).
    fn tick(&mut self) {
        let now = Instant::now();
        if self.next_clc.is_some_and(|t| t <= now) {
            self.fire_due_clcs(now);
        }
        for probe in &mut self.probes {
            probe.tick(now, &self.nodes, &mut self.local);
        }
    }

    fn fire_due_clcs(&mut self, now: Instant) {
        for i in 0..self.timer_slots.len() {
            let slot = self.timer_slots[i];
            let due = {
                let cell = &self.nodes[slot];
                !cell.stopped && cell.clc_deadline.is_some_and(|d| d <= now)
            };
            if due {
                self.nodes[slot].clc_deadline = None;
                self.input(slot, Input::ClcTimer);
                // If no commit re-armed it (the coordinator is down, or
                // the reason merged into a running round), re-arm so
                // periodic checkpointing survives — as the simulator does.
                if self.nodes[slot].clc_deadline.is_none() {
                    if let Some(d) = self.nodes[slot].clc_delay {
                        self.nodes[slot].clc_deadline = Some(Instant::now() + d);
                    }
                }
            }
        }
        // Fires and re-arms done: replace the bound with the exact minimum.
        self.next_clc = self
            .timer_slots
            .iter()
            .filter_map(|&s| {
                let cell = &self.nodes[s];
                if cell.stopped {
                    None
                } else {
                    cell.clc_deadline
                }
            })
            .min();
    }

    fn dispatch(&mut self, slot: usize, env: Envelope) {
        if self.nodes[slot].stopped {
            return;
        }
        match env {
            Envelope::Input(input) => self.input(slot, input),
            Envelope::Ping { reply } => {
                // Liveness is a node property: a fail-stopped engine stays
                // silent, everyone else answers.
                if !self.nodes[slot].engine.is_failed() {
                    let _ = reply.send(());
                }
            }
            Envelope::Shutdown => {
                self.nodes[slot].stopped = true;
                self.live -= 1;
            }
        }
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
            next_clc: &mut self.next_clc,
            durable: self.durable.as_ref(),
            app: &mut cell.app,
            clc_delay: cell.clc_delay,
            clc_deadline: &mut cell.clc_deadline,
        };
        (host, &mut cell.engine, &mut self.buf)
    }

    /// Feed one input to a node's engine through [`host::input`].
    fn input(&mut self, slot: usize, input: Input) {
        let (mut host, engine, buf) = self.split(slot);
        host::input(&mut host, engine, input, buf);
    }
}
