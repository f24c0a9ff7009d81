//! # simdriver — federation simulations of the HC3I protocol
//!
//! Binds the substrates together into runnable experiments: protocol
//! engines (`hc3i-core`) speak over the network model (`netsim`) inside the
//! discrete-event executive (`desim`), fed by `workload` schedules, with
//! scripted or MTBF-driven fail-stop faults, and produce a [`RunReport`]
//! with the statistics the paper's evaluation section reports.
//!
//! The simulator is one of three hosts of the engine: what an engine emits
//! is carried out by the shared interpreter (`hc3i_core::host`), and this
//! crate supplies only the [`hc3i_core::Host`] that makes a wire out of
//! the network model and the event queue, a clock out of simulated
//! time, and an event sink out of [`RunReport::observe`] (the fold lives
//! beside the event vocabulary in `hc3i-core`) and the [`trace`]; who
//! coordinates and whom a fault report goes to are decided there too.
//!
//! The event hot path is allocation-free: engines live in a flat arena
//! indexed by the shared `hc3i_core::host::Layout`, outputs drain through one
//! reusable `OutputBuf`, and the trace is typed records ([`TraceEvent`]),
//! kept per [`TraceLevel`] and absent altogether when it is off; the one
//! place they become text is [`trace::render`].
//!
//! **Determinism contract:** a run is a pure function of its
//! [`SimConfig`] (including the seed) — same config ⇒ bit-identical
//! [`RunReport`], across runs and machines. Refactors must preserve this;
//! `cargo run --release -p hc3i-bench --bin regen -- fingerprint` prints the
//! dump CI `cmp`s against `bench/FINGERPRINT.txt`.

#![warn(missing_docs)]

mod config;
mod hostile;
mod run;
pub mod trace;
mod world;

pub use config::{FaultEvent, Sends, SimConfig, TraceLevel};
pub use hc3i_core::{ClusterStats, RunReport};
pub use hostile::{DeliveryLedger, HostileRunStats};
pub use run::{run, run_hostile, run_traced};
pub use trace::TraceEvent;
pub use world::{Ev, FederationWorld};
