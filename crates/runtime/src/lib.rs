//! # runtime — sharded multiplexed message-passing substrate
//!
//! There is no mature MPI binding in the Rust ecosystem, so this crate
//! provides the messaging layer a real deployment of the protocol needs: a
//! fixed pool of shard worker threads (default `available_parallelism`),
//! each multiplexing its nodes' mailboxes over one unbounded MPSC channel
//! for what arrives from other threads and one in-thread run queue for
//! what its own nodes send each other (reliable, FIFO per sender — the
//! paper's network assumptions — and, like the paper's federation, nearly
//! free where traffic is local), wall-clock CLC timers and heartbeat
//! failure detection folded into shard ticks (one record per cluster a
//! shard homes holds its slots, its timer's deadline and its probe), and
//! controller-driven fault injection; the controller pings and stops whole
//! shards. Earlier revisions spawned one OS thread per node, which
//! capped the live substrate at a few hundred nodes; the sharded executor
//! runs thousands of nodes on a fixed-size pool (a 2048-node federation
//! completes on a single worker).
//!
//! It drives the *same* [`hc3i_core::NodeEngine`] the discrete-event
//! simulator uses, and carries out what it emits through the *same*
//! interpreter ([`hc3i_core::host`]): a shard worker is a
//! [`hc3i_core::Host`] whose wire is a queue or a channel, whose clock is
//! the wall clock and whose timers are polled deadlines. Who coordinates,
//! where a node sits ([`hc3i_core::host::Layout`]) and which live rank
//! hears a fault report ([`hc3i_core::host::FaultReports`]) come from
//! there too. So the protocol and
//! hosting logic validated by simulation is exercised unchanged,
//! allocation-free, on a real concurrent transport, and [`RtEvent`] is the
//! shared `ProtoEvent` vocabulary. [`Federation::report`] folds it into the
//! same [`RunReport`] the simulator prints, through the same
//! `RunReport::observe`; both live in `hc3i-core`, so this crate needs
//! nothing of the simulator.
//!
//! **Determinism contract:** shard assignment is cluster-affine — cluster
//! `c` lives whole on shard `c` modulo the pool size, its ranks at
//! contiguous slots in [`hc3i_core::host::Layout`] order, and the pool
//! never exceeds the cluster count — so a cluster's two-phase commit,
//! failure detection and rollback run on one thread, and a probe reads
//! its cluster's failure generations from the engines it shares a thread
//! with. Protocol state is independent of the
//! pool size — the `engines_agree` and `runtime_equivalence` tests pin
//! that quiesced scenarios reach identical engine states at 1, 2 and 8
//! shards and match the simulator. [`Federation::quiesce`] provides the
//! ping barrier for tests that must observe fully settled engine states.

#![warn(missing_docs)]

mod app;
mod detector;
mod envelope;
mod federation;
mod shard;

pub use app::{Application, CounterApp};
pub use detector::HeartbeatConfig;
pub use envelope::RtEvent;
pub use federation::{Federation, RuntimeConfig};
pub use hc3i_core::RunReport;
