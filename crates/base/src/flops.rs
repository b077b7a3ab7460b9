//! Floating-point-operation accounting.
//!
//! The paper's reported flop rates "follow from the interaction counts and
//! the elapsed wall-clock time. The flop counts are identical to the best
//! available sequential algorithm. We do not count flops associated with
//! decomposition or other parallel constructs." This module implements the
//! same discipline: physics kernels report *interaction counts*, which are
//! converted to flops with the fixed per-interaction costs from the crate
//! root, and nothing else is ever counted.
//!
//! Counters are plain atomics so every rank (thread) of the simulated
//! machine can bump them without synchronization hot spots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Categories of counted work, mirroring the paper's diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Particle–particle gravitational interactions.
    GravPP,
    /// Particle–cell (multipole) gravitational interactions, monopole only.
    GravPCMono,
    /// Particle–cell interactions evaluated with the quadrupole term.
    GravPCQuad,
    /// Vortex particle–particle interactions (velocity + stretching).
    VortexPP,
    /// Vortex particle–cell interactions.
    VortexPC,
    /// SPH pairwise kernel evaluations.
    SphPair,
    /// Generic flops reported directly (NPB kernels count their own).
    Raw,
}

/// A set of interaction/flop counters. One per rank, merged at the end of a
/// run; also usable as a process-global singleton for single-image codes.
#[derive(Debug, Default)]
pub struct FlopCounter {
    grav_pp: AtomicU64,
    grav_pc_mono: AtomicU64,
    grav_pc_quad: AtomicU64,
    vortex_pp: AtomicU64,
    vortex_pc: AtomicU64,
    sph_pair: AtomicU64,
    raw_flops: AtomicU64,
}

impl FlopCounter {
    /// New, zeroed counter set.
    pub const fn new() -> Self {
        FlopCounter {
            grav_pp: AtomicU64::new(0),
            grav_pc_mono: AtomicU64::new(0),
            grav_pc_quad: AtomicU64::new(0),
            vortex_pp: AtomicU64::new(0),
            vortex_pc: AtomicU64::new(0),
            sph_pair: AtomicU64::new(0),
            raw_flops: AtomicU64::new(0),
        }
    }

    /// Record `n` events of the given kind.
    #[inline]
    pub fn add(&self, kind: Kind, n: u64) {
        let c = match kind {
            Kind::GravPP => &self.grav_pp,
            Kind::GravPCMono => &self.grav_pc_mono,
            Kind::GravPCQuad => &self.grav_pc_quad,
            Kind::VortexPP => &self.vortex_pp,
            Kind::VortexPC => &self.vortex_pc,
            Kind::SphPair => &self.sph_pair,
            Kind::Raw => &self.raw_flops,
        };
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// Read one counter.
    pub fn get(&self, kind: Kind) -> u64 {
        match kind {
            Kind::GravPP => self.grav_pp.load(Ordering::Relaxed),
            Kind::GravPCMono => self.grav_pc_mono.load(Ordering::Relaxed),
            Kind::GravPCQuad => self.grav_pc_quad.load(Ordering::Relaxed),
            Kind::VortexPP => self.vortex_pp.load(Ordering::Relaxed),
            Kind::VortexPC => self.vortex_pc.load(Ordering::Relaxed),
            Kind::SphPair => self.sph_pair.load(Ordering::Relaxed),
            Kind::Raw => self.raw_flops.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for k in ALL_KINDS {
            match k {
                Kind::GravPP => self.grav_pp.store(0, Ordering::Relaxed),
                Kind::GravPCMono => self.grav_pc_mono.store(0, Ordering::Relaxed),
                Kind::GravPCQuad => self.grav_pc_quad.store(0, Ordering::Relaxed),
                Kind::VortexPP => self.vortex_pp.store(0, Ordering::Relaxed),
                Kind::VortexPC => self.vortex_pc.store(0, Ordering::Relaxed),
                Kind::SphPair => self.sph_pair.store(0, Ordering::Relaxed),
                Kind::Raw => self.raw_flops.store(0, Ordering::Relaxed),
            }
        }
    }

    /// Merge another counter set into this one.
    pub fn merge(&self, other: &FlopCounter) {
        for k in ALL_KINDS {
            self.add(k, other.get(k));
        }
    }

    /// Snapshot into a plain report.
    pub fn report(&self) -> FlopReport {
        FlopReport {
            grav_pp: self.get(Kind::GravPP),
            grav_pc_mono: self.get(Kind::GravPCMono),
            grav_pc_quad: self.get(Kind::GravPCQuad),
            vortex_pp: self.get(Kind::VortexPP),
            vortex_pc: self.get(Kind::VortexPC),
            sph_pair: self.get(Kind::SphPair),
            raw_flops: self.get(Kind::Raw),
        }
    }
}

const ALL_KINDS: [Kind; 7] = [
    Kind::GravPP,
    Kind::GravPCMono,
    Kind::GravPCQuad,
    Kind::VortexPP,
    Kind::VortexPC,
    Kind::SphPair,
    Kind::Raw,
];

/// Immutable snapshot of a [`FlopCounter`], with the paper's flop arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlopReport {
    /// Particle–particle gravity interactions.
    pub grav_pp: u64,
    /// Monopole particle–cell interactions.
    pub grav_pc_mono: u64,
    /// Quadrupole particle–cell interactions.
    pub grav_pc_quad: u64,
    /// Vortex particle–particle interactions.
    pub vortex_pp: u64,
    /// Vortex particle–cell interactions.
    pub vortex_pc: u64,
    /// SPH pair evaluations.
    pub sph_pair: u64,
    /// Directly counted flops.
    pub raw_flops: u64,
}

impl FlopReport {
    /// Total vortex interactions.
    pub fn vortex_interactions(&self) -> u64 {
        self.vortex_pp + self.vortex_pc
    }

    /// Total flops under the paper's convention.
    pub fn flops(&self) -> u64 {
        (self.grav_pp + self.grav_pc_mono) * crate::FLOPS_PER_GRAV_INTERACTION
            + self.grav_pc_quad * crate::FLOPS_PER_QUAD_INTERACTION
            + (self.vortex_pp + self.vortex_pc) * crate::FLOPS_PER_VORTEX_INTERACTION
            + self.sph_pair * 55
            + self.raw_flops
    }

    /// Flop rate over a wall-clock duration, in Mflop/s.
    pub fn mflops(&self, elapsed: Duration) -> f64 {
        self.flops() as f64 / elapsed.as_secs_f64() / 1e6
    }

    /// Flop rate over a wall-clock duration, in Gflop/s.
    pub fn gflops(&self, elapsed: Duration) -> f64 {
        self.mflops(elapsed) / 1e3
    }

    /// Element-wise sum of two reports.
    pub fn combined(&self, other: &FlopReport) -> FlopReport {
        FlopReport {
            grav_pp: self.grav_pp + other.grav_pp,
            grav_pc_mono: self.grav_pc_mono + other.grav_pc_mono,
            grav_pc_quad: self.grav_pc_quad + other.grav_pc_quad,
            vortex_pp: self.vortex_pp + other.vortex_pp,
            vortex_pc: self.vortex_pc + other.vortex_pc,
            sph_pair: self.sph_pair + other.sph_pair,
            raw_flops: self.raw_flops + other.raw_flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_reset() {
        let c = FlopCounter::new();
        c.add(Kind::GravPP, 10);
        c.add(Kind::GravPP, 5);
        c.add(Kind::GravPCQuad, 3);
        assert_eq!(c.get(Kind::GravPP), 15);
        assert_eq!(c.get(Kind::GravPCQuad), 3);
        assert_eq!(c.get(Kind::VortexPP), 0);
        c.reset();
        assert_eq!(c.get(Kind::GravPP), 0);
        assert_eq!(c.get(Kind::GravPCQuad), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = FlopCounter::new();
        let b = FlopCounter::new();
        a.add(Kind::Raw, 100);
        b.add(Kind::Raw, 23);
        b.add(Kind::SphPair, 7);
        a.merge(&b);
        assert_eq!(a.get(Kind::Raw), 123);
        assert_eq!(a.get(Kind::SphPair), 7);
        // merge does not drain the source
        assert_eq!(b.get(Kind::Raw), 23);
    }

    #[test]
    fn paper_flop_convention() {
        let c = FlopCounter::new();
        c.add(Kind::GravPP, 1_000_000);
        let r = c.report();
        assert_eq!(r.flops(), 38_000_000);
        // The paper's N^2 benchmark arithmetic: 1e6 particles x 1e6 x 38 x 4
        // steps in 239.3 s = 635 Gflops.
        let total = 1e6f64 * 1e6 * 38.0 * 4.0;
        let gflops = total / 239.3 / 1e9;
        assert!((gflops - 635.0).abs() < 1.0, "paper arithmetic check: {gflops}");
    }

    #[test]
    fn rates() {
        let r = FlopReport { grav_pp: 1_000_000, ..Default::default() };
        let d = Duration::from_secs(1);
        assert!((r.mflops(d) - 38.0).abs() < 1e-12);
        assert!((r.gflops(d) - 0.038).abs() < 1e-12);
    }

    #[test]
    fn concurrent_updates() {
        let c = std::sync::Arc::new(FlopCounter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.add(Kind::GravPP, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(Kind::GravPP), 80_000);
    }
}
