//! # hc3i-bench — the paper's evaluation, regenerated
//!
//! One function per table and figure of the paper (module
//! [`experiments`]), plain-text renderers in the paper's row format
//! (module [`render`]), the `regen` binary over both (`cargo run -p
//! hc3i-bench --release --bin regen -- <name|all>`; `all` also rewrites
//! `paper/RESULTS.md`) and the `hc3i_baselines` perf recorder CI gates on.

#![warn(missing_docs)]

pub mod experiments;
pub mod render;
