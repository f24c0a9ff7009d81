//! # hc3i-types — the vocabulary every HC3I crate shares
//!
//! The protocol engine (`hc3i-core`), its store (`storage`) and the
//! threaded runtime speak in the same few types as the simulators that
//! evaluate them: instants and spans of time, node and cluster ids, the
//! class a message is accounted under, and a fast deterministic hasher
//! for tables keyed by those ids. They live here, in a std-only leaf, so
//! that the engine and the runtime link neither the discrete-event
//! executive (`desim`) nor the network model (`netsim`). Both of those
//! re-export what they used to define.
//!
//! Time is a `u64` count of nanoseconds since the start of a run. The
//! simulator advances it event by event; the runtime reads it off a wall
//! clock. Nothing here knows which.

#![warn(missing_docs)]

mod hashing;
mod ids;
mod time;

pub use hashing::{FastHashMap, FastHasher};
pub use ids::{ClusterId, NodeId, MAX_CLUSTERS};
pub use time::{SimDuration, SimTime};

/// What a message is, for accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// Application payload.
    App,
    /// Checkpointing-protocol control traffic (2PC rounds, alerts, GC).
    Protocol,
    /// Acknowledgements of inter-cluster application messages.
    Ack,
}
