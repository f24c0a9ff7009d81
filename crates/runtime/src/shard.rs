//! The shard worker: one OS thread multiplexing many node engines.
//!
//! Each worker owns a fixed set of [`NodeCell`]s (assigned round-robin by
//! layout index — see the crate docs for the determinism contract) and
//! has two sources of work. Its MPSC channel carries `(slot, Envelope)`
//! pairs from other threads: the controller, the other shards, a probe's
//! report. Its in-thread *run queue* carries every
//! message one of its own nodes sends to another of them:
//! [`ShardHost::wire`] looks the destination up in the routing table and
//! pushes onto the queue when the owner is this shard, onto the owner's
//! channel otherwise. Local traffic — all of a cluster's 2PC when the
//! cluster sits on one shard — therefore costs a `VecDeque` push and pop:
//! no atomics, no park/unpark, no tick, no clock read of its own.
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
//! clusters it homes ([`ClusterProbe`]), sleeping via `recv_deadline`
//! until the earliest pending deadline when idle. One reusable [`OutputBuf`] serves all
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
use crate::federation::{Health, NodeFinalState, Routes, SharedDurable};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use hc3i_core::host::{self, Host, Xport};
use hc3i_core::{AppPayload, Input, Msg, NodeEngine, OutputBuf, StoreOp, XportConfig};
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
    /// Last fail-stop state published to the shared health table; the
    /// table is only written on transitions, never per input.
    pub(crate) published_failed: bool,
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
    xport: &'a mut Option<Xport>,
    next_retry: &'a mut Option<Instant>,
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

    #[inline]
    fn xport(&mut self) -> Option<&mut Xport> {
        self.xport.as_mut()
    }

    fn arm_retry(&mut self, _from: NodeId, _to: NodeId, _seq: u64, at: SimTime) {
        lower(self.next_retry, self.epoch + Duration::from_nanos(at.0));
    }

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
    health: Arc<Health>,
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
    /// Reliable-transport state of this shard — sender channels for its
    /// own nodes' outgoing inter-cluster traffic, receiver channels for
    /// what arrives here, so no state is shared across workers. `None`
    /// leaves the envelope traffic of a transport-free federation
    /// untouched.
    xport: Option<Xport>,
    /// Lower bound on the earliest retransmission deadline; `None` when
    /// nothing is in flight. Maintained like `next_clc`.
    next_retry: Option<Instant>,
    /// The federation's shared on-disk segment log; `None` keeps every
    /// CLC store in memory only.
    durable: Option<SharedDurable>,
}

impl ShardWorker {
    pub(crate) fn new(
        nodes: Vec<NodeCell>,
        rx: Receiver<(u32, Envelope)>,
        routes: Arc<Routes>,
        health: Arc<Health>,
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
            health,
            events,
            epoch,
            probes,
            buf: OutputBuf::new(),
            next_clc,
            live,
            xport: None,
            next_retry: None,
            durable: None,
        }
    }

    /// Enable the reliable transport for this shard's inter-cluster
    /// traffic (chained at construction; `None` is a no-op).
    pub(crate) fn with_xport(mut self, cfg: Option<XportConfig>) -> Self {
        self.xport = cfg.map(Xport::new);
        self
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
            // Timers and retransmissions emit through the same `wire`.
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

    /// Earliest pending timer, probe or retransmission deadline, if any.
    /// O(#probes): the CLC and transport sides are cached bounds, not
    /// scans.
    fn next_deadline(&self) -> Option<Instant> {
        let mut next = self.next_clc;
        if let Some(t) = self.next_retry {
            lower(&mut next, t);
        }
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
        if self.next_retry.is_some_and(|t| t <= now) {
            self.retransmit_due();
        }
        for i in 0..self.probes.len() {
            self.probes[i].tick(now, &self.routes, &self.health);
        }
    }

    /// Put every overdue in-flight copy back on the wire. The cached
    /// bound restarts from the earliest deadline still ahead; each
    /// retransmitted copy lowers it again as it re-arms.
    fn retransmit_due(&mut self) {
        let Some(x) = self.xport.as_ref() else { return };
        let (due, ahead) = x.due(since(self.epoch));
        self.next_retry = ahead.map(|t| self.epoch + Duration::from_nanos(t.0));
        for (from, to, seq) in due {
            let slot = self.routes.addr(from).1 as usize;
            let (mut host, ..) = self.split(slot);
            host::retry(&mut host, from, to, seq);
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
            xport: &mut self.xport,
            next_retry: &mut self.next_retry,
            next_clc: &mut self.next_clc,
            durable: self.durable.as_ref(),
            app: &mut cell.app,
            clc_delay: cell.clc_delay,
            clc_deadline: &mut cell.clc_deadline,
        };
        (host, &mut cell.engine, &mut self.buf)
    }

    /// Feed one input to a node's engine through [`host::input`], and
    /// publish any fail-stop transition to the shared health table.
    fn input(&mut self, slot: usize, input: Input) {
        let (mut host, engine, buf) = self.split(slot);
        host::input(&mut host, engine, input, buf);
        let cell = &mut self.nodes[slot];
        let failed = cell.engine.is_failed();
        if failed != cell.published_failed {
            cell.published_failed = failed;
            self.health.bump(self.routes.layout().index(cell.id));
        }
    }
}
