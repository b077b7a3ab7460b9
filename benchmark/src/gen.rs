//! Seeded input generators, owned by the benchmark.
//!
//! Every input is a pure function of `(seed, workload, body id, step)`:
//! the library only ever receives generated inputs, and nothing a run
//! computes (forces, ownership, timing) feeds back into them, so a parent
//! commit and a change always see identical inputs for the same seed.

use hot_base::Vec3;
use hot_cosmo::power::CdmSpectrum;
use hot_cosmo::sim::{growth_factor, zeldovich_velocity_factor};
use hot_cosmo::{gaussian_field, sphere_with_buffer, zeldovich, RHO_BAR};
use std::time::Instant;

/// splitmix64 finalizer: the one mixing function behind every generator.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed hash of a word sequence (order-sensitive).
pub fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(0x9E37_79B9_7F4A_7C15, |h, &w| {
        mix64(h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15)
    })
}

/// Stream tag of a workload name, so two workloads never share inputs.
pub fn stream_of(workload: &str) -> u64 {
    let bytes: Vec<u64> = workload.bytes().map(u64::from).collect();
    hash_words(&bytes)
}

/// Uniform `[0, 1)` from a hashed word (53 mantissa bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A sequential splitmix64 stream, for the consumers that want an RNG
/// (the library's IC functions take `&mut impl rand::Rng`).
pub struct BenchRng(u64);

impl BenchRng {
    pub fn new(seed: u64, stream: u64) -> Self {
        BenchRng(hash_words(&[seed, stream]))
    }

    pub fn below(&mut self, n: u64) -> u64 {
        use rand::RngCore as _;
        // Modulo bias is < 2^-40 for the sizes used here.
        self.next_u64() % n
    }
}

impl rand::RngCore for BenchRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }
}

/// Base position of body `id`: uniform in the unit cube.
fn cube_base(seed: u64, stream: u64, id: u64) -> Vec3 {
    let u = |k: u64| unit(hash_words(&[seed, stream, id, k]));
    Vec3::new(u(0), u(1), u(2))
}

/// Position of body `id` of an `n`-body uniform cube at `step`.
///
/// Step 0 is the base position; every later step displaces the *base*
/// position (not the previous step's) by a jitter keyed on
/// `(seed, id, step)` of at most 0.1 × the mean inter-particle spacing per
/// axis, clamped to the box — so the tree, the decomposition and the
/// interaction lists change every step while the distribution stays
/// uniform and the work per step stays comparable.
pub fn cube_position(seed: u64, stream: u64, n: usize, id: u64, step: u64) -> Vec3 {
    let base = cube_base(seed, stream, id);
    if step == 0 {
        return base;
    }
    let amp = 0.1 * (n as f64).cbrt().recip();
    let j = |k: u64| (2.0 * unit(hash_words(&[seed, stream, id, 3 + k, step])) - 1.0) * amp;
    let hi = 1.0 - f64::EPSILON;
    Vec3::new(
        (base.x + j(0)).clamp(0.0, hi),
        (base.y + j(1)).clamp(0.0, hi),
        (base.z + j(2)).clamp(0.0, hi),
    )
}

/// All `n` positions of a uniform cube at `step`, indexed by body id.
pub fn cube_positions(seed: u64, stream: u64, n: usize, step: u64) -> Vec<Vec3> {
    (0..n as u64)
        .map(|id| cube_position(seed, stream, n, id, step))
        .collect()
}

/// Cosmological initial conditions: the paper's multi-mass sphere.
pub struct CdmSphere {
    pub pos: Vec<Vec3>,
    pub vel: Vec<Vec3>,
    pub mass: Vec<f64>,
    pub center: Vec3,
    /// Grid cell size (the softening and jitter-free length scale).
    pub cell: f64,
    /// Wall seconds spent in `gaussian_field` and in `zeldovich`.
    pub field_s: f64,
    pub zeldovich_s: f64,
}

pub const CDM_GRID: usize = 64;
pub const CDM_BOX: f64 = 100.0;
pub const CDM_A0: f64 = 0.15;
pub const CDM_A1: f64 = 0.8;

/// A `CDM_GRID`³ CDM realization (BBKS spectrum, σ₈ = 1) displaced to
/// `CDM_A0`, cut to a high-resolution sphere of 0.3 box plus an 8×-mass
/// buffer shell out to 0.5 box.
pub fn cdm_sphere(seed: u64, stream: u64) -> CdmSphere {
    let mut rng = BenchRng::new(seed, stream);
    let spec = CdmSpectrum::default().normalized_to_sigma8(1.0);
    let t0 = Instant::now();
    let field = gaussian_field(&mut rng, CDM_GRID, CDM_BOX, &spec);
    let t1 = Instant::now();
    let ics = zeldovich(
        &field,
        growth_factor(CDM_A0),
        zeldovich_velocity_factor(CDM_A0),
    );
    let t2 = Instant::now();
    let cell = CDM_BOX / CDM_GRID as f64;
    let (pos, vel, mass) = sphere_with_buffer(
        &mut rng,
        &ics,
        RHO_BAR * cell * cell * cell,
        CDM_BOX * 0.3,
        CDM_BOX * 0.5,
    );
    CdmSphere {
        pos,
        vel,
        mass,
        center: Vec3::splat(CDM_BOX * 0.5),
        cell,
        field_s: (t1 - t0).as_secs_f64(),
        zeldovich_s: (t2 - t1).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(seed: u64, step: u64) -> Vec<Vec3> {
        let s = stream_of("serial_uniform");
        (0..512)
            .map(|id| cube_position(seed, s, 512, id, step))
            .collect()
    }

    #[test]
    fn same_seed_same_bodies_different_seed_differs() {
        assert_eq!(cube(1997, 0), cube(1997, 0));
        assert_eq!(cube(1997, 3), cube(1997, 3));
        assert_ne!(cube(1997, 0), cube(4242, 0));
        assert_ne!(cube(1997, 1), cube(1997, 2));
        let s = stream_of("cosmo_sphere");
        let (a, b, c) = (
            cdm_sphere(1997, s),
            cdm_sphere(1997, s),
            cdm_sphere(4242, s),
        );
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.vel, b.vel);
        assert_eq!(a.mass, b.mass);
        assert_ne!(a.pos, c.pos);
    }

    #[test]
    fn workloads_draw_from_distinct_streams() {
        let a = cube_position(1997, stream_of("dist_fine"), 4096, 7, 0);
        let b = cube_position(1997, stream_of("dist_coarse"), 4096, 7, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn jitter_stays_in_the_box_and_near_the_base() {
        let s = stream_of("dist_fine");
        let n = 4096;
        let amp = 0.1 / (n as f64).cbrt();
        for id in 0..n as u64 {
            let base = cube_position(7, s, n, id, 0);
            for step in 1..4 {
                let p = cube_position(7, s, n, id, step);
                assert!(
                    (0.0..1.0).contains(&p.x)
                        && (0.0..1.0).contains(&p.y)
                        && (0.0..1.0).contains(&p.z)
                );
                assert!((p - base).abs().max_component() <= amp + 1e-15);
            }
        }
    }
}
