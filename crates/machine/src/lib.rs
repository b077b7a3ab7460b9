//! # hot-machine
//!
//! The 1997 hardware context of the paper, as data and price arithmetic:
//!
//! * [`cost`] — Tables 1 & 2 (Loki's parts list, August-1997 spot prices)
//!   and the $/Mflop arithmetic of the price/performance prize entry.
//! * [`specs`] — machine specifications with the paper's own measured
//!   constants (ASCI Red, Janus, Loki, Hyglac, the SC'96 bridged pair).
//!
//! A [`MachineSpec`] is data. `hot_trace::ModelClock::of` turns one into
//! the clock that prices counted interactions and counted traffic from the
//! simulated runs as wall-clock on the period hardware; see DESIGN.md
//! ("One machine model") for why this substitution preserves the paper's
//! observable shape.

#![warn(missing_docs)]

pub mod cost;
pub mod specs;

pub use cost::{dollars_per_mflop, gflops_per_million_dollars, CostItem, CostTable};
pub use specs::{MachineSpec, ASCI_RED_4096, ASCI_RED_6800, HYGLAC, JANUS_16, LOKI, LOKI_HYGLAC_SC96};
