//! Force-accuracy analysis: treecode vs. exact direct summation.
//!
//! The paper's headline accuracy claim: *"we can update 3 million particles
//! per second … with an RMS force accuracy of better than 10⁻³"*. This
//! module measures exactly that quantity for any MAC setting so the
//! accuracy experiment (H7) can sweep it.

use crate::direct::direct_serial;
use crate::treecode::{ForceCalc, TreecodeOptions};
use hot_base::flops::FlopCounter;
use hot_base::stats::OnlineStats;
use hot_base::{Aabb, Vec3};

/// Distribution of relative force errors.
#[derive(Clone, Copy, Debug)]
pub struct ForceErrorReport {
    /// RMS of `|a_tree − a_exact| / |a_exact|`.
    pub rms: f64,
    /// Largest relative error.
    pub max: f64,
    /// Mean relative error.
    pub mean: f64,
    /// Interactions the treecode evaluated.
    pub tree_interactions: u64,
    /// Interactions the direct sum evaluated (N(N−1)).
    pub direct_interactions: u64,
}

/// Compare treecode accelerations against the exact direct sum.
pub fn force_accuracy(
    domain: Aabb,
    pos: &[Vec3],
    mass: &[f64],
    opts: &TreecodeOptions,
) -> ForceErrorReport {
    let counter = FlopCounter::new();
    let exact = direct_serial(pos, mass, opts.eps2, &counter);
    let n = pos.len() as u64;
    let direct_interactions = n * n.saturating_sub(1);

    let counter2 = FlopCounter::new();
    let res = ForceCalc::new().compute(domain, pos, mass, opts, &counter2, false);

    let mut stats = OnlineStats::new();
    for (a, e) in res.acc.iter().zip(&exact) {
        let rel = (*a - *e).norm() / e.norm().max(1e-300);
        stats.push(rel);
    }
    ForceErrorReport {
        rms: stats.rms(),
        max: stats.max(),
        mean: stats.mean(),
        tree_interactions: res.stats.interactions(),
        direct_interactions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::uniform_box;
    use hot_core::Mac;
    use rand::SeedableRng;

    #[test]
    fn paper_accuracy_regime() {
        // With the production-style settings, RMS error beats 1e-3 —
        // the paper's quoted accuracy.
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let pos = uniform_box(&mut rng, 1500, &Aabb::unit());
        let mass = vec![1.0 / 1500.0; 1500];
        let opts = TreecodeOptions {
            mac: Mac::BarnesHut { theta: 0.4 },
            bucket: 16,
            eps2: 1e-8,
            quadrupole: true,
        };
        let rep = force_accuracy(Aabb::unit(), &pos, &mass, &opts);
        assert!(rep.rms < 1e-3, "rms {0}", rep.rms);
        assert!(rep.direct_interactions > 2 * rep.tree_interactions, "{rep:?}");
        assert!(rep.max >= rep.rms && rep.rms >= 0.0);
        assert!(rep.mean <= rep.rms * 1.0000001);
    }

    #[test]
    fn error_decreases_with_theta() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let pos = uniform_box(&mut rng, 800, &Aabb::unit());
        let mass = vec![1.0; 800];
        let rms_at = |theta: f64| {
            let opts = TreecodeOptions {
                mac: Mac::BarnesHut { theta },
                bucket: 8,
                eps2: 1e-8,
                quadrupole: false,
            };
            force_accuracy(Aabb::unit(), &pos, &mass, &opts).rms
        };
        let loose = rms_at(1.0);
        let tight = rms_at(0.4);
        assert!(tight < loose, "theta=0.4 rms {tight} vs theta=1.0 rms {loose}");
    }

    #[test]
    fn salmon_warren_bounds_error() {
        // The SW MAC's tolerance should (conservatively) control the
        // per-particle error.
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let pos = uniform_box(&mut rng, 600, &Aabb::unit());
        let mass = vec![1.0 / 600.0; 600];
        let opts = TreecodeOptions {
            mac: Mac::SalmonWarren { delta: 1e-6 },
            bucket: 8,
            eps2: 1e-8,
            quadrupole: true,
        };
        let rep = force_accuracy(Aabb::unit(), &pos, &mass, &opts);
        // Typical accelerations are O(1) in these units; the absolute bound
        // 1e-6 per interaction with ~hundreds of interactions keeps the
        // relative RMS tiny.
        assert!(rep.rms < 1e-3, "rms {}", rep.rms);
    }
}
