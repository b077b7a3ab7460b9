//! # hot-sph
//!
//! Smoothed particle hydrodynamics on the HOT library — the third physics
//! module the paper cites ("Smoothed Particle Hydrodynamics is implemented
//! with 3000 lines" against the same treecode library).
//!
//! * [`kernel`] — the cubic-spline kernel in 1/2/3 dimensions.
//! * [`hydro`] — summation density, symmetric pressure forces with
//!   Monaghan viscosity, and the Sod shock-tube validation problem.

#![warn(missing_docs)]

pub mod hydro;
pub mod kernel;

pub use hydro::{neighbors_1d, sod_shock_tube, SphSystem, Viscosity};
pub use kernel::{dw_dr, w, Dim};
