//! # HC3I — Hierarchical Checkpointing for Cluster Federations
//!
//! A full reproduction of *"A Hierarchical Checkpointing Protocol for
//! Parallel Applications in Cluster Federations"* (Monnet, Morin,
//! Badrinath — 9th IEEE FTPDS workshop, 2004): coordinated checkpointing
//! inside clusters, communication-induced checkpointing between them,
//! sender-side optimistic message logging, alert-driven rollback and
//! centralized garbage collection.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`types`] (`hc3i-types`) — the std-only vocabulary every crate
//!   shares: simulated time, node and cluster ids, message classes and a
//!   deterministic hasher (the engine side depends on it, not on the
//!   simulators, which re-export it);
//! * [`core`] (`hc3i-core`) — the protocol engine (the paper's
//!   contribution), packaged as a per-node state machine;
//! * [`desim`] — deterministic discrete-event simulation engine (the
//!   C++SIM replacement);
//! * [`netsim`] — federation network model (SAN/WAN latency+bandwidth);
//! * [`storage`] — sequence numbers, DDVs, CLC stores, message logs,
//!   neighbour replication;
//! * [`workload`] — the paper's three config files and traffic generators;
//! * [`simdriver`] — end-to-end federation simulations and reports;
//! * [`runtime`] — a sharded multiplexed message-passing substrate
//!   (thousands of nodes on a fixed worker pool) driving the identical
//!   protocol engine.
//!
//! The paper's evaluation is a program, not a library: the `regen` binary
//! of package `hc3i-bench` runs every table and figure, and the cost
//! models of the protocol families HC3I is compared against (§6) live
//! inside it.
//!
//! ## Quickstart
//!
//! ```
//! use hc3i::prelude::*;
//!
//! // Two clusters of 8 nodes over paper-like links, 1 simulated hour.
//! let topo = netsim::Topology::new(
//!     vec![netsim::ClusterSpec { nodes: 8, intra: netsim::LinkSpec::myrinet_like() }; 2],
//!     netsim::LinkSpec::ethernet_like(),
//! );
//! let sends = workload::TargetCountWorkload {
//!     cluster_sizes: vec![8, 8],
//!     duration: SimDuration::from_hours(1),
//!     counts: vec![vec![200, 20], vec![5, 200]],
//!     payload_bytes: 1024,
//! }
//! .schedule(&RngStreams::new(7));
//!
//! let report = simdriver::run(
//!     SimConfig::new(topo, SimDuration::from_hours(1))
//!         .with_clc_delay(0, SimDuration::from_minutes(10))
//!         .with_sends(sends),
//! );
//! assert_eq!(report.app_delivered, report.app_sent);
//! assert!(report.clusters[1].forced_clcs > 0, "cross traffic forces CLCs");
//! ```

pub use desim;
pub use hc3i_core as core;
pub use hc3i_types as types;
pub use netsim;
pub use runtime;
pub use simdriver;
pub use storage;
pub use workload;

/// The types most programs need, in one import.
pub mod prelude {
    pub use crate::core::{Input, NodeEngine, Output, PiggybackMode, ProtocolConfig, SeqNum};
    pub use crate::{desim, netsim, simdriver, storage, workload};
    pub use desim::{RngStreams, SimDuration, SimTime};
    pub use netsim::{ClusterId, NodeId, Topology};
    pub use simdriver::{RunReport, SimConfig};
    pub use workload::{StochasticWorkload, TargetCountWorkload, Workload};
}
