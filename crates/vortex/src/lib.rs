//! # hot-vortex
//!
//! The vortex particle method of the paper's Hyglac run ("the fusion of
//! two vortex rings … sustaining about 950 Mflops"), implemented on the
//! same HOT library as gravity — the paper's proof that the treecode is a
//! generic long-range-interaction engine, not a gravity code.
//!
//! * [`kernel`] — regularized Biot–Savart velocity and vorticity
//!   stretching with the Winckelmans–Leonard high-order algebraic core.
//! * [`evaluator`] — the treecode
//!   [`ListConsumer`](hot_core::ilist::ListConsumer) for vector charges,
//!   plus the O(N²) reference.
//! * [`ring`] — vortex ring discretization and the inviscid invariants
//!   (total vorticity, linear/angular impulse, Saffman's thin-ring speed).
//! * [`remesh`] — M4' remeshing to maintain core overlap (the mechanism
//!   that grew the paper's run from 57k to 360k particles).
//! * [`sim`] — RK2 time stepping.

#![warn(missing_docs)]

pub mod evaluator;
pub mod kernel;
pub mod remesh;
pub mod ring;
pub mod sim;

pub use evaluator::{direct_velocity_stretching, tree_velocity_stretching, VortexEvaluator};
pub use remesh::remesh;
pub use ring::{linear_impulse, make_ring, thin_ring_speed, total_vorticity, RingSpec};
pub use sim::VortexSim;
