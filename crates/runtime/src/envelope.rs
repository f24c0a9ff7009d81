//! Wire envelopes and controller-visible events of the threaded runtime.

use crossbeam::channel::Sender;
use hc3i_core::{AppPayload, Msg};
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
    /// The failure detector reports `failed_rank` down.
    Detect {
        /// Failed rank within this node's cluster.
        failed_rank: u32,
    },
    /// The failure detector reports several simultaneous failures.
    DetectMulti {
        /// Failed ranks within this node's cluster.
        failed_ranks: Vec<u32>,
    },
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
