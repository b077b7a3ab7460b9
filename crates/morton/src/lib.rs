//! # hot-morton
//!
//! Morton ("hashed oct-tree") key construction and key algebra.
//!
//! The paper: *"we assign a Key to each particle, which is based on Morton
//! ordering. This maps the points in 3-dimensional space to a 1-dimensional
//! list, which maintain\[s\] as much spatial locality as possible. … The
//! Morton ordered key labeling scheme implicitly defines the topology of the
//! tree, and makes it possible to easily compute the key of a parent,
//! daughter, or boundary cell for a given key."*
//!
//! A [`Key`] is a `u64`: a placeholder 1-bit followed by 3-bit octant digits
//! from the root down. The placeholder makes keys self-describing — the
//! level of a cell is recoverable from the key alone, and the root is the
//! key `1`. Particles are keyed at [`MAX_DEPTH`] (21 levels ⇒ 63 digit bits,
//! exactly filling the `u64`), cells at any coarser level.

#![warn(missing_docs)]

pub mod dilate;
pub mod key;

pub use key::{Key, MAX_DEPTH};
