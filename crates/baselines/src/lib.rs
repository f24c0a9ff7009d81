//! # baselines — comparison checkpointing protocols
//!
//! Cluster-granularity cost models of the protocol families the paper
//! positions HC3I against (§2.2, §6), evaluated over the same topology and
//! workload schedule as the full-fidelity HC3I simulation:
//!
//! * [`global`] — federation-wide coordinated checkpointing (what the WAN
//!   makes too expensive);
//! * [`independent`] — uncoordinated checkpointing with rollback-time
//!   dependency analysis (the domino effect);
//! * [`pessimistic`] — MPICH-V-style log-everything (single-node rollback,
//!   but needs the PWD assumption and logs every byte).

#![warn(missing_docs)]

mod common;
pub mod global;
pub mod independent;
pub mod pessimistic;

pub use common::{BaselineInput, BaselineReport, RollbackSummary};
