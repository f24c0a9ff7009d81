//! # hc3i-bench — the paper's evaluation, regenerated
//!
//! One function per table and figure of the paper (module
//! [`experiments`]), plain-text renderers in the paper's row format
//! (module [`render`]) and the `regen` binary over both (`cargo run -p
//! hc3i-bench --release --bin regen -- <name|all>`; `all` also rewrites
//! `paper/RESULTS.md`). Two more `regen` sub-commands are the runs CI
//! pins: `fingerprint` (the determinism dump, `bench/FINGERPRINT.txt`) and
//! `mega` (the 102,400-node ring, under wall and RSS ceilings). Performance
//! is measured by `benchmark/` and gated by `ci/pair.sh`, not here.

#![warn(missing_docs)]

pub mod experiments;
pub mod render;
