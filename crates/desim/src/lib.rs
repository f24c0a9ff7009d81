//! # desim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate replacing the C++SIM library the paper used
//! for its evaluation (§5.1). It provides:
//!
//! * a simulated clock and cancellable future-event list ([`EventQueue`]) —
//!   a `(time, seq)`-ordered binary heap of same-instant runs over a
//!   generation-stamped slab, giving O(1) hash-free cancellation and
//!   allocation-free steady-state cycles (the bulk workload is pulled from
//!   a sorted side feed one event ahead, so the heap holds only what is in
//!   flight, and a streak of pushes at one instant is one heap entry),
//! * an event-scheduling executive that drains each simulated instant in
//!   one loop ([`Simulation`]) over a one-method model ([`World`]),
//! * named, independent, reproducible RNG streams ([`RngStreams`]).
//!
//! What a run records of itself is the model's business, not the
//! executive's: the federation simulator keeps a typed trace of protocol
//! events (`simdriver::trace`).
//!
//! Unlike C++SIM's process threads, the executive is strictly sequential and
//! deterministic: events at equal timestamps fire in scheduling order, so a
//! federation run is a pure function of its configuration and seed.
//!
//! ```
//! use desim::{Simulation, World, Ctx, SimTime, SimDuration};
//!
//! struct Clock { ticks: u32 }
//! impl World for Clock {
//!     type Event = ();
//!     fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
//!         self.ticks += 1;
//!         if self.ticks < 3 {
//!             ctx.schedule_in(SimDuration::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Clock { ticks: 0 });
//! sim.schedule_at(SimTime::ZERO, ());
//! sim.run();
//! assert_eq!(sim.world().ticks, 3);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(2));
//! ```

#![warn(missing_docs)]

mod engine;
mod queue;
mod rng;

pub use engine::{Ctx, InboxKey, RunOutcome, Simulation, World};
pub use hc3i_types::{SimDuration, SimTime};
pub use queue::{EventKey, EventQueue};
pub use rng::{exponential, pareto, splitmix64, RngStreams};
