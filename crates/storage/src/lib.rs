//! # storage — checkpoint storage substrate
//!
//! The pieces of durable (within the failure model) state the HC3I protocol
//! manipulates:
//!
//! * [`SeqNum`] / [`Ddv`] — per-cluster sequence numbers and Direct
//!   Dependency Vectors (paper §3.1–3.2);
//! * [`ClcStore`] — the ordered store of committed cluster-level
//!   checkpoints, with the rollback-target and GC-pruning queries;
//! * [`MessageLog`] — the sender-side optimistic log of inter-cluster
//!   messages with receiver-SN acknowledgements (paper §3.3);
//! * [`ReplicationPolicy`] — in-cluster neighbour replication implementing
//!   the paper's stable-storage assumption, generalized to a configurable
//!   degree (paper §7 future work).
//!
//! ## Copy-on-write stamps
//!
//! [`ClcMeta`] holds its DDV as an `Arc<Ddv>`: every node of a cluster
//! stores the *same* immutable stamp the coordinator broadcast at commit,
//! and [`ClcStore::ddv_list`] — what the centralized garbage collector
//! collects from each cluster every round — clones pointers, not vectors.
//! The recovery-line and GC safe-minimum analyses in `hc3i-core` operate
//! on these shared stamps directly, so a federation-wide GC round borrows
//! the stored `(SN, DDV)` pairs structurally instead of deep-copying one
//! vector per stored checkpoint. Sharing is invisible to consumers:
//! stamps are immutable, compare by value, and serialize by value.

//!
//! ## Durable backend
//!
//! [`DurableStore`] puts these stores on disk: an append-only segment log
//! of length-prefixed, CRC-checksummed frames with snapshot compaction
//! and crash-consistent recovery (see [`durable`] for the durability
//! contract and torn-tail policy). The entry payload encoding is plugged
//! in from above via [`EntryCodec`], so `hc3i-core` can plug in its
//! byte-stable checkpoint entry bodies without inverting the crate
//! dependency order. Every integer in that log — frames and entry bodies
//! alike — is a [`varint`], read through one bounds-checking cursor.

#![warn(missing_docs)]

pub mod clc_store;
pub mod durable;
pub mod log_store;
pub mod replication;
pub mod stamp;
pub mod varint;

pub use clc_store::{ClcEntry, ClcMeta, ClcStore};
pub use durable::{
    holds_log, recover, DurableError, DurableOptions, DurableStore, EntryCodec, Recovered,
    SyncPolicy, TornTail,
};
pub use log_store::{LogEntry, LogId, MessageLog};
pub use replication::ReplicationPolicy;
pub use stamp::{Ddv, SeqNum};
