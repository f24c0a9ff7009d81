//! # netsim — federation network model
//!
//! Substrate crate modelling the paper's architecture (§2.1): clusters whose
//! nodes are joined by a low-latency/high-bandwidth SAN, and clusters joined
//! to each other by higher-latency LAN/WAN links described by a triangular
//! matrix. Provides message delivery timing (latency + bandwidth +
//! optional FIFO contention) and per-cluster-pair traffic accounting — the
//! application-message accounts are exactly the cells of the paper's
//! Table 1.

#![warn(missing_docs)]

pub mod hashing;
pub mod hostile;
pub mod ids;
pub mod network;
pub mod topology;

pub use hashing::{FastHashMap, FastHasher};
pub use hostile::{HostileNet, HostileOutcome, HostileSpec, LatencyDist, Mix64, PartitionSpec};
pub use ids::{ClusterId, NodeId, MAX_CLUSTERS};
pub use network::{ContentionModel, MessageClass, Network, TrafficCell};
pub use topology::{ClusterSpec, LinkSpec, Topology, TriMatrix};
