//! # hot-core — the Hashed Oct-Tree (HOT) library
//!
//! Reproduction of the parallel treecode library of Warren & Salmon
//! (SC'93 "A parallel hashed oct-tree N-body algorithm", and the SC'97
//! Gordon Bell paper this repository regenerates). The library is
//! physics-agnostic; gravity, vortex dynamics and SPH plug in through the
//! [`Moments`](moments::Moments) and [`ListConsumer`](ilist::ListConsumer)
//! traits.
//!
//! Pipeline (per timestep, matching the paper's description):
//!
//! 1. **Keys** — particles get Morton keys ([`hot_morton`]).
//! 2. **Domain decomposition** ([`decomp`]) — a work-weighted parallel
//!    sample sort splits the key line into one contiguous interval per
//!    processor.
//! 3. **Tree build** ([`tree`]) — each rank builds its local hashed
//!    oct-tree; [`dtree`] exchanges *branch* cells and grafts every rank's
//!    canopy into a globally consistent top tree. Every kind of cell
//!    carries one [`Summary`], formed by the same two functions.
//! 4. **Traversal** ([`walk`] serially, [`dwalk`] distributed) — per
//!    sink-group walks with a multipole acceptance criterion ([`mac`])
//!    write each group's interaction list ([`ilist`]); non-local cells are
//!    fetched on demand over the ABM active-message layer with the paper's
//!    "explicit context switching" to hide latency.
//!
//! The [`htable::KeyTable`] provides the key → cell indirection that gives
//! the method its name.

#![warn(missing_docs)]

pub mod decomp;
pub mod dtree;
pub mod dwalk;
pub mod htable;
pub mod ilist;
pub mod mac;
pub mod moments;
#[cfg(test)]
mod proptests;
pub mod summary;
pub mod tree;
pub mod walk;

pub use htable::KeyTable;
pub use ilist::{InteractionList, ListConsumer};
pub use mac::Mac;
pub use moments::{MassMoments, Moments, MonoMoments, VectorMoments};
pub use summary::Summary;
pub use tree::{Cell, Tree, NO_CHILD};
pub use walk::{walk_lists, WalkStats};
