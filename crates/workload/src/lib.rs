//! # workload — application model and configuration files
//!
//! Reproduces the paper's simulator interface (§5.1): the user provides a
//! *topology file*, an *application file* and a *timers file*; the
//! application model alternates exponentially-distributed computation with
//! probabilistic message destinations. A second generator pins exact
//! per-cluster-pair message counts (what Table 1 reports and Figure 9
//! sweeps).

#![warn(missing_docs)]

mod duration;
pub mod files;
mod generate;
pub mod presets;

pub use files::{parse_application, parse_timers, parse_topology, ParseError, TimerSpec};
pub use generate::{BurstyWorkload, SendEvent, StochasticWorkload, TargetCountWorkload, Workload};
