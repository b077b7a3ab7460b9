//! Time integration of the vortex particle system.

use crate::evaluator::tree_velocity_stretching;
use crate::remesh::remesh;
use hot_base::flops::FlopCounter;
use hot_base::Vec3;

/// A vortex particle simulation.
pub struct VortexSim {
    /// Particle positions.
    pub pos: Vec<Vec3>,
    /// Particle strengths α.
    pub alpha: Vec<Vec3>,
    /// Core size squared σ².
    pub sigma2: f64,
    /// Barnes–Hut opening angle for the treecode evaluations.
    pub theta: f64,
    /// Leaf bucket size.
    pub bucket: usize,
    /// Simulated time.
    pub time: f64,
    /// Steps taken.
    pub steps: u64,
    /// Remeshes performed.
    pub remeshes: u64,
}

impl VortexSim {
    /// Construct.
    pub fn new(pos: Vec<Vec3>, alpha: Vec<Vec3>, sigma: f64) -> Self {
        assert_eq!(pos.len(), alpha.len());
        VortexSim {
            pos,
            alpha,
            sigma2: sigma * sigma,
            theta: 0.5,
            bucket: 16,
            time: 0.0,
            steps: 0,
            remeshes: 0,
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// One RK2 (midpoint) step of positions and strengths. Returns the
    /// interaction count.
    pub fn step_rk2(&mut self, dt: f64, counter: &FlopCounter) -> u64 {
        let n = self.len();
        let (u1, s1, i1) = tree_velocity_stretching(
            &self.pos,
            &self.alpha,
            self.sigma2,
            self.theta,
            self.bucket,
            counter,
        );
        let mid_pos: Vec<Vec3> =
            (0..n).map(|i| self.pos[i] + u1[i] * (0.5 * dt)).collect();
        let mid_alpha: Vec<Vec3> =
            (0..n).map(|i| self.alpha[i] + s1[i] * (0.5 * dt)).collect();
        let (u2, s2, i2) = tree_velocity_stretching(
            &mid_pos,
            &mid_alpha,
            self.sigma2,
            self.theta,
            self.bucket,
            counter,
        );
        for i in 0..n {
            self.pos[i] += u2[i] * dt;
            self.alpha[i] += s2[i] * dt;
        }
        self.time += dt;
        self.steps += 1;
        i1 + i2
    }

    /// Remesh onto a lattice with spacing `h` (use `h ≲ σ` to maintain the
    /// core-overlap condition). Drops nodes below `prune` of the mean
    /// strength.
    pub fn remesh_now(&mut self, h: f64, prune: f64) {
        let (p, a) = remesh(&self.pos, &self.alpha, h, prune);
        self.pos = p;
        self.alpha = a;
        self.remeshes += 1;
    }

    /// Kinetic-energy-like diagnostic `Σ|α|` (grows slowly under
    /// stretching; bounded in stable runs).
    #[cfg(test)]
    pub fn total_strength(&self) -> f64 {
        self.alpha.iter().map(|a| a.norm()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{linear_impulse, make_ring, thin_ring_speed, total_vorticity, RingSpec};

    /// A single vortex ring must translate along its axis at roughly the
    /// thin-ring speed while conserving its invariants — the fundamental
    /// validation of the method (and of the treecode underneath it).
    #[test]
    fn ring_translates_at_saffman_speed() {
        let spec = RingSpec {
            center: Vec3::ZERO,
            normal: Vec3::new(0.0, 0.0, 1.0),
            radius: 1.0,
            core: 0.2,
            circulation: 1.0,
            n_phi: 48,
            n_core: 2,
        };
        let (pos, alpha) = make_ring(&spec);
        let sigma = 0.2;
        let mut sim = VortexSim::new(pos, alpha, sigma);
        sim.theta = 0.4;
        let counter = FlopCounter::new();
        let omega0 = total_vorticity(&sim.alpha);
        let imp0 = linear_impulse(&sim.pos, &sim.alpha);

        let dt = 0.05;
        let steps = 40;
        let z0: f64 =
            sim.pos.iter().map(|p| p.z).sum::<f64>() / sim.len() as f64;
        for _ in 0..steps {
            sim.step_rk2(dt, &counter);
        }
        let z1: f64 =
            sim.pos.iter().map(|p| p.z).sum::<f64>() / sim.len() as f64;
        let u_measured = (z1 - z0) / (dt * steps as f64);
        let u_expect = thin_ring_speed(1.0, 1.0, 0.2);
        // Discretized thick-core rings move somewhat slower than the
        // asymptotic thin-ring formula; demand the right scale & sign.
        assert!(
            u_measured > 0.4 * u_expect && u_measured < 1.5 * u_expect,
            "ring speed {u_measured} vs Saffman {u_expect}"
        );
        // Invariants. The classical stretching scheme conserves Σα only
        // approximately (the transpose scheme is exact); demand the drift
        // stays far below the total strength scale.
        let omega1 = total_vorticity(&sim.alpha);
        let imp1 = linear_impulse(&sim.pos, &sim.alpha);
        assert!(
            (omega1 - omega0).norm() < 1e-3 * sim.total_strength(),
            "total vorticity drifted: {omega0:?} -> {omega1:?}"
        );
        assert!(
            (imp1 - imp0).norm() < 0.02 * imp0.norm(),
            "impulse drifted: {imp0:?} -> {imp1:?}"
        );
    }

    #[test]
    fn remesh_grows_particle_count() {
        // Paper: 57k grew to 360k through remeshing. On a small ring the
        // lattice respray also multiplies the count.
        let spec = RingSpec {
            center: Vec3::ZERO,
            normal: Vec3::new(0.0, 0.0, 1.0),
            radius: 1.0,
            core: 0.15,
            circulation: 1.0,
            n_phi: 32,
            n_core: 1,
        };
        let (pos, alpha) = make_ring(&spec);
        let before_omega = total_vorticity(&alpha);
        let mut sim = VortexSim::new(pos, alpha, 0.15);
        let n0 = sim.len();
        sim.remesh_now(0.08, 0.01);
        assert!(sim.len() > n0, "remesh must add particles: {} -> {}", n0, sim.len());
        assert_eq!(sim.remeshes, 1);
        let after_omega = total_vorticity(&sim.alpha);
        assert!((after_omega - before_omega).norm() < 1e-9);
    }
}
