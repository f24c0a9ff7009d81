//! Wire envelopes and controller-visible events of the threaded runtime.

use crossbeam::channel::Sender;
use hc3i_core::Input;

/// What a shard's channel carries, each beside a slot: an input for the
/// node at that slot, or a control message for the whole shard (whose
/// slot is unused).
#[derive(Debug, Clone)]
pub(crate) enum Envelope {
    /// An input for this node's engine, handed over as is: a protocol
    /// message from a node on another shard (`Input::Receive`), an
    /// application send, a checkpoint or collection request, a fail-stop
    /// from the controller, or a fault report from
    /// [`crate::Federation::detect`].
    Input(Input),
    /// Liveness probe of the shard (the controller's quiesce barrier). The
    /// shard answers on `reply` with its number of engines that are not
    /// fail-stopped.
    Ping {
        /// Where to send the count.
        reply: Sender<usize>,
    },
    /// Stop the shard: its worker exits, drops every later envelope and
    /// returns its engines at join.
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
