//! # hot-comm
//!
//! A simulated distributed-memory message-passing machine, standing in for
//! the paper's hardware substrates (ASCI Red's NX/MPI mesh, Loki/Hyglac's
//! MPI-over-fast-ethernet).
//!
//! * [`runtime`] — the `(source, tag)`-matched send/recv machine, per-rank
//!   traffic counters, panic-safe teardown, and the [`RunConfig`] builder,
//!   the one front door: every rank is a cooperative fiber on a small
//!   worker pool, so the paper's 1024–6800 rank machines run for real. The
//!   same executor serializes ranks under a seeded schedule for the
//!   checkers ([`RunConfigBuilder::event_seed`]).
//! * [`collectives`] — barrier / bcast / reduce / allreduce / gather /
//!   allgather / alltoall / prefix sums, all built from point-to-point
//!   messages so the traffic counters reflect real wire activity;
//!   each has one shape at every np (allgather is Bruck's log-round
//!   algorithm).
//! * [`abm`] — the paper's "asynchronous batched messages" active-message
//!   layer with quiescence detection, used by the latency-hiding tree walk.
//! * [`wire`] — explicit little-endian message encoding.
//! * [`netmodel`] — latency/bandwidth cost model turning traffic counts
//!   into predicted 1997 wall-clock.
//!
//! The SPMD entry point is [`RunConfig::builder`]:
//!
//! ```
//! use hot_comm::prelude::*;
//! let out = RunConfig::builder()
//!     .np(4)
//!     .run(|comm| comm.allreduce_sum_u64(u64::from(comm.rank())));
//! assert!(out.results.iter().all(|&t| t == 6));
//! ```

#![warn(missing_docs)]

pub mod abm;
mod chan;
pub mod collectives;
mod events;
pub mod fault;
mod fiber;
pub mod netmodel;
#[cfg(test)]
mod proptests;
pub mod reliable;
pub mod runtime;
pub mod wire;

pub use abm::{Abm, AbmStats};
pub use fault::{
    DetectionRecord, FaultConfig, FaultDecision, FaultMonitor, FaultPlan, InjectedFaults,
    KillRecord, KillSite,
};
pub use netmodel::NetworkModel;
pub use reliable::{ReliabilityStats, BACKOFF_CAP};
pub use runtime::{
    Comm, Envelope, RankKilled, RunConfig, RunConfigBuilder, RunOutput, Runtime, TrafficStats,
    Undrained, MAX_USER_TAG, POISON_TAG,
};
pub use wire::{
    crc32, frame_message, from_bytes, to_bytes, unframe_message, Frame, FrameError, Wire,
};

/// One-stop imports for SPMD programs on the simulated machine.
///
/// The nesting story, in one place: a run is configured by
/// [`RunConfig::builder`] (machine size, faults, workers, schedule seed —
/// everything about *how* the machine executes).
/// Everything about *what* the program computes lives in the options
/// struct of the subsystem you call (`hot_gravity::DistOptions`;
/// `hot_gravity::TreecodeOptions`; [`FaultConfig`] inside a
/// [`FaultPlan`]). All of those are plain data with `Default` (the two
/// options structs add `with_*` builder methods, [`FaultConfig`] named
/// constructors such as [`FaultConfig::clean`]); none of them nests a
/// `RunConfig`.
pub mod prelude {
    pub use crate::fault::{FaultConfig, FaultPlan};
    pub use crate::runtime::{Comm, RunConfig, RunOutput, TrafficStats};
    pub use crate::wire::Wire;
}
