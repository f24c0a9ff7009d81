//! The sharded message-passing federation.
//!
//! A fixed pool of worker threads — default [`std::thread::available_parallelism`] —
//! multiplexes every node of the federation: each worker owns a shard of
//! [`NodeEngine`]s and drains one unbounded crossbeam channel of
//! `(slot, envelope)` pairs from other threads, plus an in-thread run
//! queue of what its own nodes send each other (the "hand-rolled
//! messaging layer": reliable, per-sender-FIFO — the same properties the
//! paper assumes of its network). The engines are the *identical* state
//! machines the discrete-event simulator uses; only the transport
//! differs. The controller injects application sends, checkpoints, faults
//! and GC, and observes a stream of [`RtEvent`]s.
//!
//! ## Shard-assignment determinism contract
//!
//! A node's shard is a pure function of the topology and the pool size:
//! a cluster is the paper's unit of coordinated checkpointing and of
//! recovery, so it lives whole on one shard — cluster `c` on shard
//! `c % shards`, its ranks at contiguous slots in rank order. Its
//! two-phase commit, fragment replicas, fault detection and rollback
//! therefore run on one thread, over the run queue; only inter-cluster
//! traffic crosses a channel.
//! Protocol state is independent of the pool size: the `engines_agree`
//! integration test and the `runtime_equivalence` property test pin that a
//! quiesced scenario reaches bit-identical engine states at 1, 2 and 8
//! shards, and identical to the instant/simulated substrates.
//!
//! ## Sizing the pool
//!
//! [`RuntimeConfig::with_shards`] overrides the default. More shards than
//! hardware threads only adds context switching; fewer trades latency for
//! locality. Either way the request is an upper bound: the pool has at
//! most one shard per cluster, so no shard is empty. Thousands of nodes
//! run fine on a single shard — the executor multiplexes, it never blocks
//! on a per-node resource.

use crate::app::Application;
use crate::detector::{ClusterProbe, HeartbeatConfig};
use crate::envelope::{Envelope, RtEvent};
use crate::shard::{since, NodeCell, ShardWorker};
use crossbeam::channel::{self, Receiver, Sender};
use hc3i_core::host::{self, Layout};
use hc3i_core::{AppPayload, CheckpointCodec, Input, NodeEngine, ProtocolConfig, RunReport};
use hc3i_types::{NodeId, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use storage::DurableStore;

/// The shared on-disk segment log of a durable federation: one
/// [`DurableStore`] guarded by a mutex, appended to by every shard worker.
/// Per-node frame order is preserved without any cross-shard coordination
/// beyond the lock — a node lives on exactly one shard, so its commits,
/// truncations and prunes are appended in the order its engine emitted
/// them.
pub(crate) type SharedDurable = Arc<Mutex<DurableStore<CheckpointCodec>>>;

/// Factory producing one application instance per node.
pub(crate) type AppFactory = Arc<dyn Fn(NodeId) -> Box<dyn Application> + Send + Sync>;

/// Configuration of a sharded federation.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Protocol parameters (shared with the simulator).
    pub protocol: ProtocolConfig,
    /// Wall-clock delay between unforced CLCs per cluster (`None` = only
    /// explicit [`Federation::checkpoint_now`] calls); a deadline on the
    /// coordinator's cell.
    pub clc_delays: Vec<Option<Duration>>,
    /// Optional per-node application (checkpointed state).
    pub app_factory: Option<AppFactory>,
    /// Optional heartbeat failure detection (one probe per cluster, run by
    /// the shard homing the cluster).
    pub heartbeat: Option<HeartbeatConfig>,
    /// Upper bound on the worker-pool size (`None` =
    /// `available_parallelism`); the pool never exceeds the cluster count.
    pub shards: Option<usize>,
    /// Mirror every node's CLC store to an on-disk segment log under this
    /// directory (`storage::DurableStore`): commits, rollback truncations
    /// and GC prunes are appended as checksummed frames, fsync-ed per
    /// commit, so a hard-killed federation recovers to its last durable
    /// CLC. The directory must not already hold a segment log. `None`
    /// (the default) keeps everything in memory; protocol behaviour is
    /// identical either way.
    pub durable_dir: Option<PathBuf>,
}

impl RuntimeConfig {
    /// Manual-checkpoint config over the given cluster sizes.
    pub fn manual(cluster_sizes: Vec<u32>) -> Self {
        let n = cluster_sizes.len();
        RuntimeConfig {
            protocol: ProtocolConfig::new(cluster_sizes),
            clc_delays: vec![None; n],
            app_factory: None,
            heartbeat: None,
            shards: None,
            durable_dir: None,
        }
    }

    /// Arm one cluster's periodic CLC timer.
    pub fn with_clc_delay(mut self, cluster: usize, delay: Duration) -> Self {
        self.clc_delays[cluster] = Some(delay);
        self
    }

    /// Replace the protocol config.
    ///
    /// # Panics
    /// If `protocol` has another cluster count than this config.
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
        assert_eq!(
            protocol.num_clusters(),
            self.clc_delays.len(),
            "protocol/config cluster count mismatch"
        );
        self.protocol = protocol;
        self
    }

    /// Install a per-node application.
    pub fn with_app(
        mut self,
        factory: impl Fn(NodeId) -> Box<dyn Application> + Send + Sync + 'static,
    ) -> Self {
        self.app_factory = Some(Arc::new(factory));
        self
    }

    /// Enable autonomous heartbeat failure detection.
    pub fn with_heartbeat(mut self, cfg: HeartbeatConfig) -> Self {
        self.heartbeat = Some(cfg);
        self
    }

    /// Cap the worker-pool size (default: `available_parallelism`; never
    /// more than one shard per cluster).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Mirror every node's CLC store to an on-disk segment log under
    /// `dir` (must not already hold one).
    pub fn with_durable_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }
}

/// The routing table: maps a [`NodeId`] to its shard channel and slot.
/// Shared (via `Arc`) by the controller and every shard worker.
pub(crate) struct Routes {
    layout: Layout,
    /// Layout index → `(shard, slot)`.
    addr: Vec<(u32, u32)>,
    shard_txs: Vec<Sender<(u32, Envelope)>>,
}

impl Routes {
    /// Where each node sits: its durable log key.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// `id`'s `(shard, slot)`: the worker that owns it and its index there.
    pub(crate) fn addr(&self, id: NodeId) -> (u32, u32) {
        self.addr[self.layout.index(id)]
    }

    /// Route an envelope to `to`'s shard. Fails only once the shard worker
    /// has exited (shutdown).
    pub(crate) fn send(&self, to: NodeId, env: Envelope) -> Result<(), ()> {
        let (shard, slot) = self.addr(to);
        self.shard_txs[shard as usize]
            .send((slot, env))
            .map_err(|_| ())
    }
}

/// Time left until `deadline`, `None` once it has passed. No deadline (a
/// timeout too long to add to an [`Instant`], i.e. "wait forever") is
/// `Duration::MAX` left, which the channel reads as a plain `recv`.
fn remaining(deadline: Option<Instant>) -> Option<Duration> {
    match deadline {
        Some(d) => Some(d.saturating_duration_since(Instant::now())).filter(|r| !r.is_zero()),
        None => Some(Duration::MAX),
    }
}

/// Final per-node state returned by [`Federation::shutdown_with_apps`].
pub(crate) type NodeFinalState = (NodeEngine, Option<Box<dyn Application>>);

/// A running sharded federation.
pub struct Federation {
    routes: Arc<Routes>,
    handles: Vec<JoinHandle<Vec<(NodeId, NodeFinalState)>>>,
    events_rx: Receiver<RtEvent>,
    cfg: RuntimeConfig,
    num_shards: usize,
    /// Spawn instant: the zero point of the run's wall-clock timeline.
    epoch: Instant,
    /// Every event the controller observes, folded as it passes
    /// ([`Federation::report`]). A `RefCell`, not a mutex: the event
    /// receiver is single-consumer (`!Sync`), so the `Federation` is
    /// already confined to one observing thread and the per-event fold
    /// must not pay an atomic lock on the hot drain path.
    report: RefCell<RunReport>,
}

impl Federation {
    /// Spawn the worker pool and connect all shard channels.
    pub fn spawn(cfg: RuntimeConfig) -> Self {
        let epoch = Instant::now();
        let n_clusters = cfg.protocol.num_clusters();
        let layout = Layout::new(&cfg.protocol);
        let total = layout.nodes();

        let num_shards = cfg
            .shards
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, n_clusters);

        let mut shard_txs = Vec::with_capacity(num_shards);
        let mut shard_rxs = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let (tx, rx) = channel::unbounded();
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }

        // Deterministic assignment: cluster `c` lives on shard
        // `c % num_shards`, its ranks appended in layout (= rank) order.
        let mut addr = Vec::with_capacity(total);
        let mut cells: Vec<Vec<NodeCell>> = (0..num_shards).map(|_| Vec::new()).collect();
        for engine in layout.engines(&cfg.protocol) {
            let id = engine.id();
            let c = id.cluster.index();
            let shard = c % num_shards;
            addr.push((shard as u32, cells[shard].len() as u32));
            // Only a coordinator's timer starts a CLC round.
            let clc_delay = cfg.clc_delays[c].filter(|_| id == cfg.protocol.coordinator(c));
            cells[shard].push(NodeCell {
                id,
                engine,
                app: cfg.app_factory.as_ref().map(|f| f(id)),
                clc_delay,
                clc_deadline: clc_delay.map(|d| Instant::now() + d),
                stopped: false,
            });
        }
        // Seed the log in layout order.
        let durable: Option<SharedDurable> = cfg.durable_dir.as_ref().map(|dir| {
            let engines = addr
                .iter()
                .map(|&(shard, slot)| &cells[shard as usize][slot as usize].engine);
            let log = host::open_log(dir, &layout, engines)
                .unwrap_or_else(|e| panic!("open durable store at {}: {e}", dir.display()));
            Arc::new(Mutex::new(log))
        });

        let routes = Arc::new(Routes {
            layout,
            addr,
            shard_txs,
        });

        // Each cluster's probe is homed on the shard owning the cluster,
        // over the cluster's slots there.
        let mut probes: Vec<Vec<ClusterProbe>> = (0..num_shards).map(|_| Vec::new()).collect();
        if let Some(hb) = cfg.heartbeat {
            for c in 0..n_clusters {
                let ranks = routes.layout.cluster(c);
                let first = routes.addr[ranks.start].1 as usize;
                let slots = first..first + ranks.len();
                probes[c % num_shards].push(ClusterProbe::new(slots, hb, Instant::now()));
            }
        }

        let (events_tx, events_rx) = channel::unbounded();
        let handles = shard_rxs
            .into_iter()
            .zip(cells)
            .zip(probes)
            .enumerate()
            .map(|(s, ((rx, nodes), shard_probes))| {
                let worker = ShardWorker::new(
                    nodes,
                    rx,
                    routes.clone(),
                    events_tx.clone(),
                    epoch,
                    shard_probes,
                )
                .with_durable(durable.clone());
                std::thread::Builder::new()
                    .name(format!("hc3i-shard-{s}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker")
            })
            .collect();

        Federation {
            routes,
            handles,
            events_rx,
            report: RefCell::new(RunReport::new(n_clusters)),
            cfg,
            num_shards,
            epoch,
        }
    }

    /// Fold one observed event into the report, through the simulator's
    /// [`RunReport::observe`] plus what only a live controller counts.
    fn record(&self, ev: &RtEvent) {
        let mut report = self.report.borrow_mut();
        report.events_processed += 1;
        if let RtEvent::Delivered { to, from, .. } = ev {
            // No wire tap for sends in flight: the matrix counts
            // end-to-end deliveries per cluster pair.
            report.app_matrix[from.cluster.index()][to.cluster.index()] += 1;
        }
        // Only a rollback records its time; the rest of the drain stays
        // off the clock.
        let at = if matches!(ev, RtEvent::RolledBack { .. }) {
            since(self.epoch)
        } else {
            SimTime::ZERO
        };
        report.observe(at, ev);
    }

    /// The worker-pool size actually in use.
    pub fn shards(&self) -> usize {
        self.num_shards
    }

    fn route(&self, to: NodeId, env: Envelope) {
        self.routes.send(to, env).expect("shard worker alive");
    }

    /// Application send.
    pub fn send_app(&self, from: NodeId, to: NodeId, payload: AppPayload) {
        self.report.borrow_mut().app_sent += 1;
        self.route(from, Envelope::Input(Input::AppSend { to, payload }));
    }

    /// Take an unforced CLC in `cluster` now.
    pub fn checkpoint_now(&self, cluster: usize) {
        let coordinator = self.cfg.protocol.coordinator(cluster);
        self.route(coordinator, Envelope::Input(Input::ClcTimer));
    }

    /// Run a garbage collection now.
    pub fn gc_now(&self) {
        let initiator = self.cfg.protocol.coordinator(0);
        self.route(initiator, Envelope::Input(Input::GcTimer));
    }

    /// Fail-stop a node.
    pub fn fail(&self, node: NodeId) {
        self.route(node, Envelope::Input(Input::Fail));
    }

    /// Report `failed_rank` of `detector`'s cluster down, to `detector`.
    pub fn detect(&self, detector: NodeId, failed_rank: u32) {
        let report = host::fault_report(vec![failed_rank]);
        self.route(detector, Envelope::Input(report));
    }

    /// Next event, waiting up to `timeout`.
    pub fn next_event(&self, timeout: Duration) -> Option<RtEvent> {
        let ev = self.events_rx.recv_timeout(timeout).ok()?;
        self.record(&ev);
        Some(ev)
    }

    /// Wait until `pred` matches an event, collecting everything seen.
    /// Returns all events observed (the matching one last), or `None` on
    /// timeout.
    ///
    /// Drains in batches: after each blocking receive, every event already
    /// queued is consumed without re-blocking, so a controller chasing a
    /// busy federation parks (and is unparked by producers — a futex
    /// syscall each) once per *burst* instead of once per event.
    pub fn wait_for(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&RtEvent) -> bool,
    ) -> Option<Vec<RtEvent>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut seen = Vec::new();
        loop {
            match self.events_rx.recv_timeout(remaining(deadline)?) {
                Ok(ev) => {
                    self.record(&ev);
                    let hit = pred(&ev);
                    seen.push(ev);
                    if hit {
                        return Some(seen);
                    }
                    // Batch-drain whatever arrived in the meantime.
                    for ev in self.events_rx.try_iter() {
                        self.record(&ev);
                        let hit = pred(&ev);
                        seen.push(ev);
                        if hit {
                            return Some(seen);
                        }
                    }
                }
                Err(_) => return None,
            }
        }
    }

    /// Drain any already-available events without blocking.
    pub fn drain_events(&self) -> Vec<RtEvent> {
        let events: Vec<RtEvent> = self.events_rx.try_iter().collect();
        for ev in &events {
            self.record(ev);
        }
        events
    }

    /// Flush in-flight traffic with a ping barrier.
    ///
    /// Shard channels are FIFO and a worker runs its own queue to empty
    /// before it looks at its channel again, so one round of pings
    /// guarantees every node has processed everything that was routed to
    /// it before the round started *and every consequence of that on the
    /// same shard*. Only a hop to another shard outlives a round, so
    /// `rounds` consecutive barriers flush protocol chains with up to
    /// `rounds` cross-shard hops. On one shard a single round flushes any
    /// chain of engine-to-engine messages; at every pool size a chain's
    /// length in messages (send → deliver → ack is 2, an alert cascade
    /// with log replay ~4) bounds the rounds it needs. Call this before
    /// [`Federation::shutdown`] when final engine states must reflect all
    /// consequences of previously injected inputs — otherwise a message
    /// still in flight races the `Shutdown` envelope.
    ///
    /// Returns the number of nodes that answered the final round
    /// (fail-stopped nodes stay silent, so a fully healthy federation
    /// answers with its total node count).
    pub fn quiesce(&self, rounds: usize, timeout: Duration) -> usize {
        let mut answered = 0;
        for _ in 0..rounds.max(1) {
            let (reply_tx, reply_rx) = channel::unbounded();
            let mut sent = 0usize;
            for id in self.routes.layout().ids() {
                let reply = reply_tx.clone();
                if self.routes.send(id, Envelope::Ping { reply }).is_ok() {
                    sent += 1;
                }
            }
            drop(reply_tx);
            let deadline = Instant::now().checked_add(timeout);
            answered = 0;
            while answered < sent {
                let Some(left) = remaining(deadline) else {
                    break;
                };
                if reply_rx.recv_timeout(left).is_err() {
                    break;
                }
                answered += 1;
            }
        }
        answered
    }

    /// Stop the federation and produce the run's [`RunReport`] — the same
    /// shape the discrete-event simulator emits, so controllers (the CLI's
    /// `--runtime` mode, the equivalence tests) can print or fingerprint
    /// live-substrate runs with the simulator's output format.
    ///
    /// Folds every event observed through [`Federation::next_event`] /
    /// [`Federation::wait_for`] / [`Federation::drain_events`], drains
    /// whatever is still queued (including events produced while the pool
    /// shuts down), and finalizes storage/log occupancy from the joined
    /// engines. Call [`Federation::quiesce`] first when in-flight protocol
    /// chains must settle into the report.
    ///
    /// ## Which fields are live-substrate faithful
    ///
    /// The deterministic protocol outcomes — commits by kind, rollback
    /// restore SNs and discard counts, GC before/after, deliveries,
    /// soundness counters, end-of-run storage and log occupancy — match
    /// the simulator bit-for-bit on equivalent scenarios (property-tested
    /// at shard counts {1, 2, 8}). `events_processed` counts the events
    /// the controller observed, and the message matrix counts end-to-end
    /// deliveries per cluster pair. Wall-clock-derived fields (`ended_at`,
    /// rollback timestamps, work lost) carry real elapsed time: a
    /// rollback is stamped when the controller observes it, and its work
    /// lost runs from the restored CLC's commit to that stamp. The
    /// wire-byte counters stay zero: the in-process transport ships `Msg`
    /// values, not serialized bytes, so the runtime does not guess at a
    /// byte model the simulator owns.
    pub fn report(mut self) -> RunReport {
        for ev in self.events_rx.try_iter() {
            self.record(&ev);
        }
        let engines: HashMap<NodeId, NodeEngine> = self
            .stop_and_join()
            .into_iter()
            .map(|(id, (engine, _))| (id, engine))
            .collect();
        // Workers have exited: the senders are gone, so this drain is
        // complete, not racy.
        for ev in self.events_rx.try_iter() {
            self.record(&ev);
        }
        let mut report = self.report.take();
        let layout = self.routes.layout();
        for (c, stats) in report.clusters.iter_mut().enumerate() {
            stats.close(
                layout
                    .cluster(c)
                    .filter_map(|g| engines.get(&layout.node(g))),
            );
        }
        report.ended_at = since(self.epoch);
        report
    }

    /// Stop every node and return the final engines, keyed by node.
    pub fn shutdown(self) -> HashMap<NodeId, NodeEngine> {
        self.shutdown_with_apps()
            .into_iter()
            .map(|(id, (engine, _))| (id, engine))
            .collect()
    }

    /// Stop every node and return engines plus application instances.
    pub fn shutdown_with_apps(mut self) -> HashMap<NodeId, NodeFinalState> {
        self.stop_and_join()
    }

    /// The one stop-the-pool path: request shutdown, join every worker,
    /// collect the final node states. Shared by [`Federation::shutdown`],
    /// [`Federation::shutdown_with_apps`] and [`Federation::report`], so
    /// a change to how the pool winds down cannot miss one of them.
    fn stop_and_join(&mut self) -> HashMap<NodeId, NodeFinalState> {
        self.request_shutdown();
        std::mem::take(&mut self.handles)
            .into_iter()
            .flat_map(|h| h.join().expect("shard worker panicked"))
            .collect()
    }

    /// The one shutdown protocol: ask every node to stop (idempotent —
    /// stopped nodes drop the envelope, exited shards fail the send).
    fn request_shutdown(&self) {
        for id in self.routes.layout().ids() {
            let _ = self.routes.send(id, Envelope::Shutdown);
        }
    }
}

impl Drop for Federation {
    /// Dropping without an explicit shutdown still stops the pool: shard
    /// workers hold the routing table (and thus each other's channels)
    /// alive, so they only exit on `Shutdown` envelopes. Unlike
    /// [`Federation::shutdown_with_apps`], a worker panic is swallowed
    /// here — drop glue must not double-panic.
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.request_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cluster-affine placement: cluster `c` on shard `c % S`, its ranks
    /// at contiguous slots in rank order, every shard's slots dense, and
    /// never more shards than clusters.
    #[test]
    fn a_cluster_lives_whole_on_one_shard() {
        let sizes = vec![3, 1, 4, 2, 5];
        for (requested, granted) in [(1, 1), (2, 2), (3, 3), (8, 5)] {
            let fed =
                Federation::spawn(RuntimeConfig::manual(sizes.clone()).with_shards(requested));
            assert_eq!(fed.shards(), granted, "{requested} requested");
            let mut slots: Vec<Vec<u32>> = vec![Vec::new(); granted];
            for (c, &size) in sizes.iter().enumerate() {
                let (_, first) = fed.routes.addr(NodeId::new(c as u16, 0));
                for rank in 0..size {
                    let (shard, slot) = fed.routes.addr(NodeId::new(c as u16, rank));
                    assert_eq!(shard as usize, c % granted, "cluster {c}'s shard");
                    assert_eq!(slot, first + rank, "cluster {c}'s slots");
                    slots[shard as usize].push(slot);
                }
            }
            for (shard, mut held) in slots.into_iter().enumerate() {
                held.sort_unstable();
                assert!(
                    held.iter().copied().eq(0..held.len() as u32),
                    "shard {shard}"
                );
            }
            fed.shutdown();
        }
        let fed = Federation::spawn(RuntimeConfig::manual(vec![4, 4]).with_shards(8));
        assert_eq!(fed.shards(), 2, "two clusters, two shards");
    }

    /// A protocol over more clusters than the config's timers cover is
    /// refused where it is set, not by an index out of bounds at spawn.
    #[test]
    #[should_panic(expected = "protocol/config cluster count mismatch")]
    fn with_protocol_rejects_another_cluster_count() {
        let _ = RuntimeConfig::manual(vec![2, 2]).with_protocol(ProtocolConfig::new(vec![2, 2, 2]));
    }
}
