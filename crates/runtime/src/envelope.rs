//! Wire envelopes and controller-visible events of the threaded runtime.

use crossbeam::channel::Sender;
use hc3i_core::{AppPayload, Input, Msg};
use netsim::NodeId;

/// What a node can receive in its (shard-multiplexed) mailbox.
#[derive(Debug, Clone)]
pub enum Envelope {
    /// A protocol message from another node.
    Net {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: Msg,
    },
    /// The local application wants to send.
    AppSend {
        /// Destination node.
        to: NodeId,
        /// Payload.
        payload: AppPayload,
    },
    /// Take an unforced CLC now (coordinator mailbox).
    ClcNow,
    /// Run a garbage collection now (GC initiator mailbox).
    GcNow,
    /// Fail-stop this node.
    Fail,
    /// A fault report for this node's cluster, handed to the engine as
    /// is: a heartbeat probe's [`hc3i_core::host::FaultReports`] round, or
    /// [`crate::Federation::detect`].
    Report(Input),
    /// Liveness probe (the controller's quiesce barrier). A healthy node
    /// replies `(rank, seq)` on the channel; a fail-stopped node stays
    /// silent.
    Ping {
        /// Probe sequence number.
        seq: u64,
        /// Where to send the pong.
        reply: Sender<(u32, u64)>,
    },
    /// Stop the node: its shard drops every later envelope addressed to it
    /// and returns its engine at join.
    Shutdown,
}

/// Observable events streamed to the controller: the protocol-event
/// vocabulary every host of the engine shares.
pub use hc3i_core::ProtoEvent as RtEvent;
