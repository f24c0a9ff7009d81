//! Pluggable node applications with checkpointed state.
//!
//! The protocol engine treats application state as an opaque blob
//! (paper §2.1: "a process state consists of all the data it needs to be
//! restarted"). An [`Application`] runs inside its node's shard worker: it
//! observes deliveries, publishes serialized snapshots that the engine
//! captures into every staged checkpoint, and is restored from the
//! checkpointed snapshot after a rollback.

use hc3i_core::AppPayload;
use hc3i_types::NodeId;

/// A node-local application driven by the threaded runtime.
pub trait Application: Send {
    /// A message was delivered to this node.
    fn on_deliver(&mut self, from: NodeId, payload: AppPayload);

    /// Serialize the current state (captured into staged checkpoints).
    fn snapshot(&self) -> Vec<u8>;

    /// Restore from a checkpointed snapshot (`None` = the checkpoint
    /// predates any snapshot: reset to the initial state).
    fn restore(&mut self, state: Option<&[u8]>);
}

/// A simple checkpointable application used by the examples and tests: it
/// counts deliveries and keeps an order-sensitive digest of the payload
/// tags it has seen.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CounterApp {
    /// Number of deliveries applied to the current state.
    pub count: u64,
    /// Order-sensitive digest of delivered tags.
    pub digest: u64,
}

impl CounterApp {
    /// Fresh application state.
    pub fn new() -> Self {
        Self::default()
    }

    fn mix(digest: u64, tag: u64) -> u64 {
        digest
            .rotate_left(7)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag)
    }
}

impl Application for CounterApp {
    fn on_deliver(&mut self, _from: NodeId, payload: AppPayload) {
        self.count += 1;
        self.digest = Self::mix(self.digest, payload.tag);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&self.count.to_le_bytes());
        buf.extend_from_slice(&self.digest.to_le_bytes());
        buf
    }

    fn restore(&mut self, state: Option<&[u8]>) {
        match state {
            Some(bytes) if bytes.len() == 16 => {
                self.count = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
                self.digest = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
            }
            _ => *self = CounterApp::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pay(tag: u64) -> AppPayload {
        AppPayload { bytes: 1, tag }
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut a = CounterApp::new();
        a.on_deliver(NodeId::new(0, 0), pay(3));
        a.on_deliver(NodeId::new(0, 1), pay(9));
        let snap = a.snapshot();
        a.on_deliver(NodeId::new(1, 0), pay(27));
        assert_eq!(a.count, 3);
        let mut b = CounterApp::new();
        b.restore(Some(&snap));
        assert_eq!(b.count, 2);
        let mut reference = CounterApp::new();
        reference.on_deliver(NodeId::new(0, 0), pay(3));
        reference.on_deliver(NodeId::new(0, 1), pay(9));
        assert_eq!(b, reference);
    }

    #[test]
    fn restore_none_resets() {
        let mut a = CounterApp::new();
        a.on_deliver(NodeId::new(0, 0), pay(1));
        a.restore(None);
        assert_eq!(a, CounterApp::new());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = CounterApp::new();
        a.on_deliver(NodeId::new(0, 0), pay(1));
        a.on_deliver(NodeId::new(0, 0), pay(2));
        let mut b = CounterApp::new();
        b.on_deliver(NodeId::new(0, 0), pay(2));
        b.on_deliver(NodeId::new(0, 0), pay(1));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn corrupt_snapshot_resets() {
        let mut a = CounterApp::new();
        a.on_deliver(NodeId::new(0, 0), pay(1));
        a.restore(Some(&[1, 2, 3]));
        assert_eq!(a, CounterApp::new());
    }
}
