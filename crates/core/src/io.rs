//! Engine inputs and outputs.
//!
//! The node engine is a pure state machine: it consumes one [`Input`] at a
//! time and emits [`Output`] actions into a caller-owned [`OutputBuf`].
//! Every host — discrete-event simulator, threaded runtime, test
//! federation — hands each input over through [`crate::host::input`],
//! which also carries the outputs out against that host.
//! This is what lets the identical protocol code run under every
//! substrate — and, because the buffer is reusable, lets a host drive
//! millions of inputs without a heap allocation per event.
//!
//! An `Output` is either an effect only a host can carry out (a send, a
//! delivery, a timer, an application restore) or a finished record the
//! engine states once and the host merely sinks: a [`StoreOp`] for its
//! durable log, a [`ProtoEvent`] for its reports and traces.

use crate::msg::{AppPayload, Msg};
use netsim::NodeId;
use std::sync::Arc;
use storage::SeqNum;

/// One stimulus for a node engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A message arrived from `from`.
    Receive {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: Msg,
    },
    /// The application wants to send `payload` to `to`.
    AppSend {
        /// Destination node.
        to: NodeId,
        /// Payload.
        payload: AppPayload,
    },
    /// The cluster's periodic (unforced) CLC timer fired. Only meaningful at
    /// the cluster coordinator.
    ClcTimer,
    /// The federation GC timer fired. Only meaningful at the GC initiator.
    GcTimer,
    /// This node fails (fail-stop). It stops reacting to everything except a
    /// `RollbackOrder`, which revives it from stable storage.
    Fail,
    /// The failure detector reports these ranks down, to the surviving
    /// node that coordinates recovery ([`crate::host::FaultReports`] picks
    /// it). Recoverability is checked for the whole set at once: several
    /// **simultaneous** in-cluster failures (paper §7 extension,
    /// meaningful with replication degree > 1) roll the cluster back once.
    DetectFaults {
        /// The failed ranks within this cluster.
        failed_ranks: Vec<u32>,
    },
    /// The local application publishes its serialized state. The engine
    /// includes the most recent snapshot in every staged checkpoint and
    /// returns it via [`Output::RestoreApp`] after a rollback. (The paper's
    /// system model: the node "is able to save the processes states".)
    AppStateUpdate {
        /// Serialized application state.
        state: Vec<u8>,
    },
}

/// One action a node engine requests, or one record it states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Put `msg` on the wire to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Msg,
    },
    /// Replicate this node's staged checkpoint fragment to its replica
    /// holders (all in the node's own cluster): one batched action per
    /// CLC freeze instead of one `Send` per holder. The interpreter
    /// expands the batch into one [`Msg::FragmentReplica`] per holder *in
    /// holder order*, charging each the same wire bytes as an individual
    /// send — so network accounting and delivery ordering are identical
    /// to the unbatched fan-out, while the engine-side output is a single
    /// entry sharing the (engine-lifetime) holder list by reference.
    SendFragments {
        /// Replica-holder ranks within the sender's cluster.
        holders: Arc<[u32]>,
        /// The CLC round the fragment belongs to.
        round: u64,
        /// The sender's rollback epoch.
        epoch: u64,
    },
    /// Hand `payload` to the local application.
    DeliverApp {
        /// Original sender.
        from: NodeId,
        /// Payload.
        payload: AppPayload,
    },
    /// (Re-)arm the cluster's unforced-CLC timer (coordinator only; the
    /// hosting engine applies the configured delay, cancelling any pending
    /// timer — the paper resets the timer at every commit).
    ResetClcTimer,
    /// A rollback restored this application state (emitted right before
    /// the channel-state re-deliveries; `None` when the application never
    /// published a snapshot before the restored checkpoint).
    RestoreApp {
        /// The serialized state captured in the restored checkpoint.
        state: Option<Vec<u8>>,
    },
    /// This node's local CLC store changed: a durable log mirrors it
    /// ([`crate::Host::durable`]).
    Store(StoreOp),
    /// Something observable happened at this node ([`crate::Host::emit`]).
    Event(ProtoEvent),
}

/// One change to a node's local CLC store that a durable log must mirror.
/// Every node of a cluster reports its own store's changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// The node committed this CLC (`engine.store().get(sn)` holds it).
    Committed(SeqNum),
    /// Garbage collection pruned the store below this bound (reported
    /// only when entries actually went).
    Pruned(SeqNum),
    /// A rollback restored this CLC, discarding everything newer.
    RolledBack(SeqNum),
}

/// What a host observes of a run: the typed vocabulary reports, event
/// streams and traces are all derived from. The engine pushes every
/// variant as an [`Output::Event`] except `Delivered`, which the
/// interpreter emits once the application has the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoEvent {
    /// `to` delivered an application payload originally sent by `from`.
    Delivered {
        /// Receiving node.
        to: NodeId,
        /// Original sender.
        from: NodeId,
        /// The payload.
        payload: AppPayload,
    },
    /// A CLC committed (reported once per CLC, by the coordinator).
    Committed {
        /// Cluster index.
        cluster: usize,
        /// Committed sequence number.
        sn: SeqNum,
        /// Communication-induced?
        forced: bool,
    },
    /// A node restored a checkpoint (every node of a rolling-back cluster
    /// reports; rank 0's report stands for the cluster).
    RolledBack {
        /// The node.
        node: NodeId,
        /// Restored sequence number.
        restore_sn: SeqNum,
        /// How many newer CLCs the restore discarded.
        discarded_clcs: usize,
    },
    /// Garbage collection ran on a cluster (reported by its coordinator).
    GcReport {
        /// Cluster index.
        cluster: usize,
        /// Stored CLCs before.
        before: usize,
        /// Stored CLCs after.
        after: usize,
    },
    /// A fault exceeded the replication degree.
    Unrecoverable {
        /// Cluster index.
        cluster: usize,
        /// The unrecoverable rank.
        rank: u32,
    },
    /// Consistency-monitor alarm: an intra-cluster message crossed a
    /// checkpoint boundary outside a freeze window (should never fire
    /// while the freeze-window assumption holds; counted, not fatal).
    LateCrossing {
        /// Observing node.
        node: NodeId,
    },
}

/// A reusable, caller-owned sink for the actions a [`NodeEngine`] emits.
///
/// Hosts keep one `OutputBuf` alive across events: `handle` appends into
/// it, the host [`drain`](OutputBuf::drain)s the actions, and the backing
/// storage is reused for the next event. On the simulator's hot path this
/// removes the per-event `Vec` allocation the engine used to return.
///
/// [`NodeEngine`]: crate::NodeEngine
#[derive(Debug, Default)]
pub struct OutputBuf {
    items: Vec<Output>,
}

impl OutputBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        OutputBuf { items: Vec::new() }
    }

    /// An empty buffer with room for `cap` outputs before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        OutputBuf {
            items: Vec::with_capacity(cap),
        }
    }

    /// Append one action.
    #[inline]
    pub fn push(&mut self, out: Output) {
        self.items.push(out);
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no action is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Move every buffered action out, keeping the backing storage for
    /// reuse.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Output> {
        self.items.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_buf_reuses_storage_across_drains() {
        let mut buf = OutputBuf::with_capacity(4);
        buf.push(Output::ResetClcTimer);
        buf.push(Output::ResetClcTimer);
        let cap = buf.items.capacity();
        assert_eq!(buf.drain().count(), 2);
        assert!(buf.is_empty());
        assert_eq!(buf.items.capacity(), cap, "drain keeps the allocation");
        buf.push(Output::ResetClcTimer);
        assert_eq!(buf.len(), 1);
    }
}
