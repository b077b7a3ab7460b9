//! # hot-base
//!
//! Math and accounting substrate for the HOT treecode reproduction.
//!
//! This crate deliberately has **no dependencies**: everything downstream
//! (keys, communication, tree, physics modules) builds on these few types.
//!
//! Contents:
//!
//! * [`Vec3`] / [`SymMat3`] — small fixed-size linear algebra used by the
//!   multipole machinery.
//! * [`Aabb`] — axis-aligned bounding boxes for tree cells and domains.
//! * [`fft`] — the complex type and the radix-2 line FFT that both the
//!   cosmological initial conditions and the NAS FT benchmark run.
//! * [`rsqrt`] — A. H. Karp's reciprocal square root built from adds and
//!   multiplies only (table lookup + polynomial seed + Newton–Raphson),
//!   exactly the trick the paper uses to reach 38 flops per gravitational
//!   interaction on the Pentium Pro without a hardware `sqrt` or `div`.
//! * [`flops`] — explicit floating-point-operation accounting with the
//!   paper's counting convention.
//! * [`stats`] — Welford online statistics and RMS-error helpers used by the
//!   force-accuracy experiments.

#![warn(missing_docs)]

pub mod aabb;
pub mod fft;
pub mod flops;
#[cfg(test)]
mod proptests;
pub mod rsqrt;
pub mod stats;
pub mod sym3;
pub mod vec3;

pub use aabb::Aabb;
pub use sym3::SymMat3;
pub use vec3::Vec3;

/// Floating point operations charged for one softened gravitational monopole
/// interaction, following the paper's convention ("requires 38 floating point
/// operations per interaction", Warren et al. 1997, §Recent simulations).
///
/// The count includes the Karp reciprocal-square-root expansion and is the
/// number used to convert interaction counts into flop rates everywhere in
/// this reproduction, so that our reported "Gflops" are directly comparable
/// to the paper's.
pub const FLOPS_PER_GRAV_INTERACTION: u64 = 38;

/// Flops charged for a monopole + quadrupole cell interaction.
///
/// The quadrupole term evaluates a symmetric 3x3 form and its trace
/// correction on top of the monopole path; counted from the kernel in
/// `hot-gravity::kernels::quadrupole_interaction`.
pub const FLOPS_PER_QUAD_INTERACTION: u64 = 70;

/// Flops charged for one regularized vortex-particle interaction
/// (velocity + stretching, high-order algebraic smoothing).
///
/// The paper measured its vortex kernel with the Pentium Pro hardware
/// performance counters instead of counting by hand; we count the kernel
/// arithmetic explicitly (see `hot-vortex::kernel`) and arrive at a similar
/// "substantially more complex than gravity" figure.
pub const FLOPS_PER_VORTEX_INTERACTION: u64 = 123;

/// Hardware threads this process may use (affinity mask and cgroup quota
/// honoured; one when the platform cannot say), read once per process.
///
/// [`std::thread::available_parallelism`] re-reads the affinity mask and
/// the cgroup quota files on every call; the compute fan-outs and the
/// event runtime's default worker count ask on every evaluation, so the
/// answer is cached. A fact about the machine, not an option.
pub fn available_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}
