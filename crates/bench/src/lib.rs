//! # hc3i-bench — the paper's evaluation, regenerated
//!
//! One function per table and figure of the paper (module
//! [`experiments`]), plain-text renderers in the paper's row format
//! (module [`render`]), regenerator binaries (`cargo run -p hc3i-bench
//! --release --bin figure6` etc.) and the `hc3i_baselines` perf recorder
//! CI gates on.

#![warn(missing_docs)]

pub mod experiments;
pub mod render;
