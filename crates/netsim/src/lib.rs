//! # netsim — federation network model
//!
//! Substrate crate modelling the paper's architecture (§2.1): clusters whose
//! nodes are joined by a low-latency/high-bandwidth SAN, and clusters joined
//! to each other by higher-latency LAN/WAN links described by one default
//! link plus the cluster pairs that differ from it. Provides message
//! delivery timing (latency + bandwidth + optional FIFO contention) and
//! per-cluster-pair traffic accounting — the application-message accounts
//! are exactly the cells of the paper's Table 1.

#![warn(missing_docs)]

mod hostile;
mod network;
mod topology;

pub use hc3i_types::{ClusterId, FastHashMap, FastHasher, MessageClass, NodeId, MAX_CLUSTERS};
pub use hostile::{HostileNet, HostileOutcome, HostileSpec, LatencyDist, Mix64, PartitionSpec};
pub use network::{ContentionModel, Network, TrafficCell};
pub use topology::{ClusterSpec, LinkSpec, Topology};
