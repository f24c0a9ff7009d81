//! # campaign — adversarial scenario library and campaign runner
//!
//! The paper's evaluation only ever ran the protocol under fail-stop
//! faults on a well-behaved FIFO network. This crate turns the
//! deterministic simulator into a standing adversarial correctness
//! harness:
//!
//! * [`invariants`] — machine-checkable protocol invariants over a
//!   [`RunReport`](simdriver::RunReport) and the hostile side statistics:
//!   exactly-one-rollback-per-cluster per fault wave, no committed work
//!   lost across partitions and heals, GC liveness, and delivered-record
//!   consistency. One source of truth, shared by the campaign runner and
//!   the repo's scenario tests.
//! * [`scenarios`](mod@scenarios) — a library of hostile scenarios (partition + heal,
//!   duplication/reorder storms, node churn under partitions, flash
//!   crowds) over small topology presets, each mapping `(topology, seed)`
//!   to a runnable [`SimConfig`](simdriver::SimConfig) plus its expected
//!   fault waves.
//! * the runner ([`run_campaign`]) — sweeps the scenario × topology ×
//!   seed matrix, checks every invariant on every cell, and renders a
//!   deterministic JSON summary that CI diffs against a committed golden
//!   (`campaign/GOLDEN.json`).
//!
//! Everything downstream of a [`SimConfig`](simdriver::SimConfig) is a
//! pure function of it, so campaign summaries are bit-stable across runs
//! and machines — drift in the golden means behaviour changed, not noise.

#![warn(missing_docs)]

pub mod invariants;
mod json;
mod runner;
pub mod scenarios;

pub use invariants::{FaultWave, GcExpectation};
pub use runner::{run_campaign, CampaignPlan, CampaignSummary, CellOutcome};
pub use scenarios::{scenarios, topologies, Scenario, ScenarioRun};
