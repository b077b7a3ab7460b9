//! # hot-cosmo
//!
//! The cosmology substrate of the reproduction: everything the paper's
//! CDM simulations needed besides the treecode itself.
//!
//! * [`fft`] — from-scratch radix-2 complex and 3-D FFTs (the paper's
//!   initial conditions came from 1024³/512³ FFTs of a CDM spectrum; the
//!   512³ one was computed *on Loki*).
//! * [`power`] — the BBKS CDM power spectrum with σ₈ normalization.
//! * [`ics`] — Gaussian random fields, Zel'dovich initial displacements,
//!   and the paper's multi-mass construction (high-resolution sphere plus
//!   an 8×-mass buffer shell for boundary conditions).
//! * [`sim`] — comoving Einstein–de Sitter integration with the treecode
//!   as force solver.
//! * [`fof`] — friends-of-friends halo identification ("galaxies").
//! * [`image`] — log projected-density imaging (Figures 1 and 2).
//! * [`checkpoint`] — schema-versioned, checksummed checkpoint/restart;
//!   a resumed run is bitwise identical to an uninterrupted one.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod fft;
pub mod fof;
pub mod ics;
pub mod image;
pub mod power;
mod proptests;
pub mod sim;
pub mod supervisor;

pub use checkpoint::CHECKPOINT_VERSION;
pub use fft::{Complex, Grid3};
pub use fof::{friends_of_friends, Halo};
pub use ics::{gaussian_field, sphere_with_buffer, zeldovich, DensityField, ZeldovichIcs};
pub use image::{project_log_density, GrayImage};
pub use power::CdmSpectrum;
pub use sim::{growth_factor, hubble, CosmoSim, RHO_BAR};
