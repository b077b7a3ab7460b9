//! Treecode list consumer for the vortex particle method.
//!
//! Exactly the same [`ListConsumer`] seam the gravity module uses — the
//! paper's point is that "the vortex particle method is implemented with
//! 2500 lines interfaced to exactly the same library". The traversal
//! records each sink group's interaction list; this consumer streams the
//! list through the batched Biot–Savart kernels. Cells interact through
//! their total strength `Σαⱼ` placed at the `|α|`-weighted centroid (the
//! vector analogue of the monopole; the far field of the regularized
//! kernel is the singular Biot–Savart kernel, so the approximation error
//! is governed by the same `b2`-style bound the Salmon–Warren MAC tracks).

use crate::kernel::{vortex_pc_batch, vortex_pp_batch};
use hot_base::flops::{FlopCounter, Kind};
use hot_base::Vec3;
use hot_core::ilist::{InteractionList, ListConsumer, Segment};
use hot_core::moments::VectorMoments;
use std::ops::Range;

/// Accumulates induced velocity and vorticity stretching per sink.
pub struct VortexEvaluator<'a> {
    /// Velocity output (tree order).
    pub vel: &'a mut [Vec3],
    /// `dα/dt` output (tree order).
    pub dalpha: &'a mut [Vec3],
    /// Core size squared σ².
    pub sigma2: f64,
    /// Interaction counters.
    pub counter: &'a FlopCounter,
}

impl ListConsumer<VectorMoments> for VortexEvaluator<'_> {
    fn consume(
        &mut self,
        sink_pos: &[Vec3],
        sink_charge: &[Vec3],
        sinks: Range<usize>,
        list: &InteractionList<VectorMoments>,
    ) {
        let (pp_pairs, pc_pairs) = list.expected_stats(&sinks);
        self.counter.add(Kind::VortexPP, pp_pairs);
        self.counter.add(Kind::VortexPC, pc_pairs);
        for i in sinks {
            let xi = sink_pos[i];
            let ai = sink_charge[i];
            let mut u = self.vel[i];
            let mut s = self.dalpha[i];
            for seg in list.segments() {
                match seg {
                    Segment::Pp(src) => {
                        let (du, ds) =
                            vortex_pp_batch(xi, ai, i as u32, &src, self.sigma2);
                        u += du;
                        s += ds;
                    }
                    Segment::Pc(cells) => {
                        vortex_pc_batch(xi, ai, &cells, self.sigma2, &mut u, &mut s);
                    }
                }
            }
            self.vel[i] = u;
            self.dalpha[i] = s;
        }
    }
}

/// Direct O(N²) evaluation (the treecode's reference).
#[cfg(test)]
pub fn direct_velocity_stretching(
    pos: &[Vec3],
    alpha: &[Vec3],
    sigma2: f64,
    counter: &FlopCounter,
) -> (Vec<Vec3>, Vec<Vec3>) {
    use crate::kernel::velocity_and_stretching;
    let n = pos.len();
    counter.add(Kind::VortexPP, (n * n.saturating_sub(1)) as u64);
    let mut vel = vec![Vec3::ZERO; n];
    let mut dalpha = vec![Vec3::ZERO; n];
    for i in 0..n {
        let mut u = Vec3::ZERO;
        let mut s = Vec3::ZERO;
        for j in 0..n {
            if i != j {
                let (uj, sj) =
                    velocity_and_stretching(pos[i] - pos[j], alpha[i], alpha[j], sigma2);
                u += uj;
                s += sj;
            }
        }
        vel[i] = u;
        dalpha[i] = s;
    }
    (vel, dalpha)
}

/// Treecode evaluation of velocity and stretching for every particle, in
/// the original particle order.
pub fn tree_velocity_stretching(
    pos: &[Vec3],
    alpha: &[Vec3],
    sigma2: f64,
    theta: f64,
    bucket: usize,
    counter: &FlopCounter,
) -> (Vec<Vec3>, Vec<Vec3>, u64) {
    use hot_core::tree::Tree;
    use hot_core::walk::walk_lists;
    let domain = hot_base::Aabb::containing(pos.iter().copied())
        .bounding_cube()
        .scaled(1.01);
    let tree = Tree::<VectorMoments>::build(domain, pos, alpha, bucket);
    let n = pos.len();
    let mut vel_s = vec![Vec3::ZERO; n];
    let mut da_s = vec![Vec3::ZERO; n];
    let mut scratch = InteractionList::new();
    let stats = {
        let mut ev = VortexEvaluator {
            vel: &mut vel_s,
            dalpha: &mut da_s,
            sigma2,
            counter,
        };
        walk_lists(&tree, &hot_core::Mac::BarnesHut { theta }, &mut ev, &mut scratch)
    };
    let mut vel = vec![Vec3::ZERO; n];
    let mut dalpha = vec![Vec3::ZERO; n];
    for (si, &orig) in tree.order.iter().enumerate() {
        vel[orig as usize] = vel_s[si];
        dalpha[orig as usize] = da_s[si];
    }
    (vel, dalpha, stats.interactions())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_blob(n: usize, seed: u64) -> (Vec<Vec3>, Vec<Vec3>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pos = (0..n)
            .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        // Partially coherent strengths (as in a real vortical flow): a
        // fully random, cancelling field makes the monopole far field
        // meaninglessly small and the relative-error metric unstable.
        let alpha = (0..n)
            .map(|_| {
                (Vec3::new(0.0, 0.0, 1.0)
                    + Vec3::new(
                        rng.gen::<f64>() - 0.5,
                        rng.gen::<f64>() - 0.5,
                        rng.gen::<f64>() - 0.5,
                    ))
                    * 0.1
            })
            .collect();
        (pos, alpha)
    }

    #[test]
    fn tree_matches_direct() {
        let (pos, alpha) = random_blob(600, 1);
        let sigma2 = 0.0004;
        let counter = FlopCounter::new();
        let (uv, sv) = direct_velocity_stretching(&pos, &alpha, sigma2, &counter);
        let (ut, st, inter) =
            tree_velocity_stretching(&pos, &alpha, sigma2, 0.4, 8, &counter);
        let mut rms_u = 0.0;
        let mut rms_s = 0.0;
        let u_scale = uv.iter().map(|u| u.norm()).sum::<f64>() / 600.0;
        let s_scale = sv.iter().map(|s| s.norm()).sum::<f64>() / 600.0;
        for i in 0..600 {
            rms_u += (ut[i] - uv[i]).norm2();
            rms_s += (st[i] - sv[i]).norm2();
        }
        let rms_u = (rms_u / 600.0).sqrt() / u_scale;
        let rms_s = (rms_s / 600.0).sqrt() / s_scale.max(1e-12);
        assert!(rms_u < 0.02, "velocity rms error {rms_u}");
        assert!(rms_s < 0.1, "stretching rms error {rms_s}");
        assert!(inter < 600 * 599, "treecode did fewer interactions");
    }

    #[test]
    fn flops_counted() {
        let (pos, alpha) = random_blob(50, 2);
        let counter = FlopCounter::new();
        direct_velocity_stretching(&pos, &alpha, 0.01, &counter);
        let rep = counter.report();
        assert_eq!(rep.vortex_pp, 50 * 49);
        assert!(rep.flops() > rep.vortex_pp * 100, "vortex flops per interaction > 100");
    }
}
