//! Wire envelopes and controller-visible events of the threaded runtime.

use crossbeam::channel::Sender;
use hc3i_core::Input;

/// What a node can receive in its (shard-multiplexed) mailbox.
#[derive(Debug, Clone)]
pub enum Envelope {
    /// An input for this node's engine, handed over as is: a protocol
    /// message from another node (`Input::Receive`), an application send,
    /// a checkpoint or collection request, a fail-stop from the
    /// controller, or a fault report — a heartbeat probe's
    /// [`hc3i_core::host::FaultReports`] round or
    /// [`crate::Federation::detect`].
    Input(Input),
    /// Liveness probe (the controller's quiesce barrier). A healthy node
    /// answers on `reply`; a fail-stopped node stays silent.
    Ping {
        /// Where to send the pong.
        reply: Sender<()>,
    },
    /// Stop the node: its shard drops every later envelope addressed to it
    /// and returns its engine at join.
    Shutdown,
}

/// Observable events streamed to the controller: the protocol-event
/// vocabulary every host of the engine shares.
pub use hc3i_core::ProtoEvent as RtEvent;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every channel slot holds one envelope, and every message between
    /// nodes is one: it fits one cache line.
    #[test]
    fn an_envelope_fits_one_cache_line() {
        let size = std::mem::size_of::<Envelope>();
        assert!(size <= 64, "Envelope grew to {size} bytes");
    }
}
