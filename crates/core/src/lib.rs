//! # hc3i-core — the HC3I checkpointing protocol
//!
//! Implementation of the paper's contribution: a **H**ierarchical protocol
//! **C**ombining **C**oordinated and **C**ommunication-**I**nduced
//! checkpointing for parallel applications in cluster federations
//! (Monnet, Morin, Badrinath — FTPDS/IPDPS 2004).
//!
//! * Inside a cluster: coordinated checkpointing via a two-phase commit
//!   with frozen application messages and neighbour-replicated stable
//!   storage (§3.1).
//! * Between clusters: communication-induced checkpointing driven by
//!   piggybacked sequence numbers and per-cluster Direct Dependency
//!   Vectors; receivers force a CLC before delivering a message that
//!   carries a newer dependency (§3.2).
//! * Sender-side optimistic message logging limits how many clusters roll
//!   back (§3.3); rollback alerts cascade until the recovery line is
//!   reached (§3.4); a centralized garbage collector prunes CLCs and logs
//!   no failure could ever need (§3.5).
//!
//! The protocol is packaged as a per-node state machine ([`NodeEngine`])
//! that consumes [`Input`]s and emits [`Output`]s into a caller-owned
//! reusable sink ([`OutputBuf`]); a host drives it through one entry
//! point, [`host::input`], which hands over each input and carries out
//! what the engine emits. The engine states what
//! happened itself — finished [`StoreOp`]s for a durable log and
//! [`ProtoEvent`]s for reports and traces — and asks the host for the
//! rest. That interpreter — reliable-transport wrap/unwrap, durable
//! frames, and the [`RunReport`] fold over the events — exists
//! once, here; the discrete-event simulator
//! (`simdriver`), the threaded messaging runtime (`runtime`) and the
//! instant test federation ([`testkit`]) are three [`Host`] impls that
//! supply only a wire, a clock and a timer — where a node sits
//! ([`host::Layout`]) and whom a fault report goes to
//! ([`host::FaultReports`]) are decided in [`host`] too — so simulation
//! results and
//! live-runtime behaviour come from identical protocol *and hosting* code
//! — and the engine allocates nothing per input on the hot path (DDV
//! stamps on outgoing messages and cluster-wide commit broadcasts are
//! `Arc`-shared, not deep-cloned).
//!
//! **Determinism contract:** the engine is deterministic — identical input
//! sequences produce identical outputs, which is what makes whole-
//! federation runs a pure function of their configuration and seed (same
//! seed ⇒ bit-identical reports).
//!
//! **Copy-on-write checkpoint contract:** the checkpoint/GC data plane
//! shares state structurally instead of duplicating it, without changing
//! anything observable. Staging a CLC seals the per-node delivery record
//! ([`DeliveredRecord`]) by sorting only the new deliveries into a run —
//! the sealed generations are `Arc`-shared between the live record and
//! every stored checkpoint, which keeps the sealed base alone
//! ([`StoredCheckpoint`], converted to the segment log's
//! [`NodeCheckpoint`] body only when [`host`] appends a commit); and
//! stored `(SN, DDV)` stamps are `Arc`-shared across the store, the
//! GC's collected lists ([`Msg::GcDdvList`]) and the recovery analyses,
//! while [`Msg::wire_bytes`], the byte model, still sizes them by value.
//! Content equality, persisted checkpoint bodies and report fingerprints —
//! including per-cluster byte counters — are independent of the sharing;
//! only allocations and wall time change.

#![warn(missing_docs)]

mod checkpoint;
mod config;
mod epoch;
pub mod gc;
pub mod host;
mod io;
pub mod msg;
mod node;
mod persist;
mod recovery;
mod report;
pub mod testkit;
mod xport;

pub use checkpoint::{DeliveredKey, DeliveredRecord, NodeCheckpoint, StoredCheckpoint};
pub use config::{PiggybackMode, ProtocolConfig};
pub use host::{Host, Xport};
pub use io::{Input, Output, OutputBuf, ProtoEvent, StoreOp};
pub use msg::{AppPayload, ClcReason, Msg, Piggyback};
pub use node::NodeEngine;
pub use persist::CheckpointCodec;
pub use recovery::{is_consistent_cut, recovery_line, RecoveryLine};
pub use report::{ClusterStats, DeliveryLedger, RunReport};
pub use xport::{ReceiverChannel, SenderChannel, XportConfig};

// Re-export the storage vocabulary used throughout the public API.
pub use storage::{Ddv, LogId, ReplicationPolicy, SeqNum};
