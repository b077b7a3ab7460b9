//! # hot-bench
//!
//! Shared machinery for the experiment binaries that regenerate every
//! table, figure and headline number of the paper (see DESIGN.md's
//! experiment index and EXPERIMENTS.md for recorded results).
//!
//! Run an experiment with e.g. `cargo run --release -p hot-bench --bin
//! exp_costs`. Binaries accept a few positional overrides (documented in
//! each) but default to sizes that finish in seconds on a laptop.

#![warn(missing_docs)]

use hot_base::{Aabb, Vec3};
use hot_comm::{NetworkModel, RunOutput};
use hot_core::decomp::Body;
use hot_morton::Key;
use hot_npb::BenchResult;
use hot_trace::ModelClock;
use rand::{Rng, SeedableRng};

/// Deterministic uniform random bodies for rank `rank` (each rank builds
/// its own slice; ids are globally unique).
pub fn random_bodies(rank: u32, n: usize, seed: u64) -> Vec<Body<f64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (rank as u64) << 32);
    (0..n)
        .map(|i| {
            let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
            Body {
                key: Key::from_point(pos, &Aabb::unit()),
                pos,
                charge: 1.0 / n as f64,
                work: 1.0,
                id: rank as u64 * 1_000_000_000 + i as u64,
            }
        })
        .collect()
}

/// A clustered ("late universe") body distribution: half the particles in
/// Gaussian clumps, half uniform — the load-balance stressor.
pub fn clustered_bodies(rank: u32, n: usize, seed: u64, n_clumps: usize) -> Vec<Body<f64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (rank as u64) << 32);
    let clumps: Vec<Vec3> = (0..n_clumps)
        .map(|k| {
            let mut crng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(k as u64));
            Vec3::new(crng.gen(), crng.gen(), crng.gen())
        })
        .collect();
    (0..n)
        .map(|i| {
            let pos = if i % 2 == 0 {
                let c = clumps[rng.gen_range(0..n_clumps)];
                let mut p = c + Vec3::new(
                    rng.gen::<f64>() - 0.5,
                    rng.gen::<f64>() - 0.5,
                    rng.gen::<f64>() - 0.5,
                ) * 0.02;
                for a in 0..3 {
                    p[a] = p[a].clamp(0.0, 1.0 - 1e-12);
                }
                p
            } else {
                Vec3::new(rng.gen(), rng.gen(), rng.gen())
            };
            Body {
                key: Key::from_point(pos, &Aabb::unit()),
                pos,
                charge: 1.0 / n as f64,
                work: 1.0,
                id: rank as u64 * 1_000_000_000 + i as u64,
            }
        })
        .collect()
}

/// Model Mop/s of an NPB run on a machine with `network` and
/// `mflops_per_proc` per processor: the run's Class-A operation count
/// ([`BenchResult::class_ops`]) spread over its ranks, priced by the clock
/// together with the traffic the run measured.
pub fn npb_model_mops(
    out: &RunOutput<BenchResult>,
    network: NetworkModel,
    mflops_per_proc: f64,
) -> f64 {
    let r = &out.results[0];
    let clock = ModelClock { procs: r.np, ..ModelClock::new(network, mflops_per_proc) };
    let ops = r.class_ops();
    ops as f64 / clock.phase_seconds(ops, 0, &out.stats) / 1e6
}

/// Format a dollars value like the paper's tables.
pub fn dollars(v: f64) -> String {
    format!("${v:>10.0}")
}

/// Print a rule line.
pub fn rule() {
    println!("{}", "-".repeat(72));
}

/// Print a header with a rule.
pub fn header(title: &str) {
    rule();
    println!("{title}");
    rule();
}

/// Parse the first CLI argument as usize with a default.
pub fn arg_usize(idx: usize, default: usize) -> usize {
    std::env::args()
        .nth(idx)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_deterministic_and_unique() {
        let a = random_bodies(3, 100, 42);
        let b = random_bodies(3, 100, 42);
        assert_eq!(a.len(), 100);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.pos, y.pos);
        }
        let other = random_bodies(4, 100, 42);
        assert_ne!(a[0].pos, other[0].pos);
    }

    #[test]
    fn clustered_bodies_cluster() {
        let n_clumps = 4;
        let seed = 7;
        let bodies = clustered_bodies(0, 2000, seed, n_clumps);
        // Rebuild the clump centers the same way the generator does.
        let clumps: Vec<Vec3> = (0..n_clumps)
            .map(|k| {
                let mut crng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(k as u64));
                Vec3::new(crng.gen(), crng.gen(), crng.gen())
            })
            .collect();
        let nearest = |p: Vec3| {
            clumps
                .iter()
                .map(|&c| (p - c).norm2().sqrt())
                .fold(f64::INFINITY, f64::min)
        };
        // Even-indexed bodies sit within the 0.02 clump jitter of a center;
        // odd-indexed (uniform) bodies are typically ~0.2-0.4 away. Compare
        // the two halves' mean nearest-clump distance, which discriminates
        // regardless of where the random centers land.
        let clumped: Vec<_> = bodies.iter().step_by(2).collect();
        let uniform: Vec<_> = bodies.iter().skip(1).step_by(2).collect();
        assert!(clumped.len() > 900);
        let mean_dist =
            |set: &[&Body<f64>]| set.iter().map(|b| nearest(b.pos)).sum::<f64>() / set.len() as f64;
        let d_clumped = mean_dist(&clumped);
        let d_uniform = mean_dist(&uniform);
        assert!(
            d_clumped < 0.1 * d_uniform,
            "clumped mean nearest-clump distance {d_clumped} not far below uniform's {d_uniform}"
        );
    }
}
