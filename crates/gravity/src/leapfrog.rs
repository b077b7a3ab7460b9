//! Leapfrog (kick–drift–kick) time integration and energy diagnostics.
//!
//! The production simulations in the paper integrate hundreds of timesteps
//! (437 on ASCI Red, 1000+ on Loki); the second-order KDK leapfrog is the
//! integrator of choice for collisionless dynamics because it is symplectic
//! — energy errors stay bounded instead of drifting.

use hot_base::Vec3;

/// A self-gravitating particle system in code units (G = 1).
#[derive(Clone, Debug)]
pub struct NBodySystem {
    /// Positions.
    pub pos: Vec<Vec3>,
    /// Velocities.
    pub vel: Vec<Vec3>,
    /// Masses.
    pub mass: Vec<f64>,
    /// Plummer softening squared.
    pub eps2: f64,
}

impl NBodySystem {
    /// Construct, checking array consistency.
    pub fn new(pos: Vec<Vec3>, vel: Vec<Vec3>, mass: Vec<f64>, eps2: f64) -> Self {
        assert_eq!(pos.len(), vel.len());
        assert_eq!(pos.len(), mass.len());
        NBodySystem { pos, vel, mass, eps2 }
    }

    /// Number of bodies.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when the system has no bodies.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// One KDK leapfrog step with a caller-supplied force solver (treecode,
    /// direct sum, …). `forces(pos) -> acc` is called once, at the drifted
    /// positions.
    ///
    /// The caller must prime the first half-kick with accelerations at the
    /// initial positions: pass them in as `acc`, the updated accelerations
    /// are returned for the next step.
    pub fn kdk_step(
        &mut self,
        acc: &mut Vec<Vec3>,
        dt: f64,
        mut forces: impl FnMut(&[Vec3]) -> Vec<Vec3>,
    ) {
        let n = self.len();
        assert_eq!(acc.len(), n);
        let half = 0.5 * dt;
        for (i, &a) in acc.iter().enumerate() {
            self.vel[i] += a * half;
            self.pos[i] += self.vel[i] * dt;
        }
        *acc = forces(&self.pos);
        assert_eq!(acc.len(), n);
        for (v, &a) in self.vel.iter_mut().zip(acc.iter()) {
            *v += a * half;
        }
    }

    /// Kinetic energy `Σ ½ m v²`.
    pub fn kinetic_energy(&self) -> f64 {
        self.vel
            .iter()
            .zip(&self.mass)
            .map(|(&v, &m)| 0.5 * m * v.norm2())
            .sum()
    }

    /// Potential energy from per-particle potentials: `½ Σ m φ`.
    pub fn potential_energy(&self, pot: &[f64]) -> f64 {
        0.5 * pot.iter().zip(&self.mass).map(|(&p, &m)| p * m).sum::<f64>()
    }

    /// Total momentum.
    #[cfg(test)]
    pub fn momentum(&self) -> Vec3 {
        self.vel.iter().zip(&self.mass).map(|(&v, &m)| v * m).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::{direct_serial, direct_serial_pot};
    use hot_base::flops::FlopCounter;

    /// Two equal masses on a circular orbit.
    fn binary() -> NBodySystem {
        // Separation 1, masses 0.5 each: circular speed of each body about
        // the COM: v² = G m_other · r_sep⁻² · r_orbit = 0.5 / 1² · ... use
        // v = sqrt(G M_tot / (4 a)) for equal masses at separation a = 1.
        let v = (1.0f64 / 4.0).sqrt();
        NBodySystem::new(
            vec![Vec3::new(-0.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0)],
            vec![Vec3::new(0.0, -v, 0.0), Vec3::new(0.0, v, 0.0)],
            vec![0.5, 0.5],
            0.0,
        )
    }

    #[test]
    fn circular_binary_conserves_energy() {
        let counter = FlopCounter::new();
        let mut sys = binary();
        let forces = |p: &[Vec3]| direct_serial(p, &[0.5, 0.5], 0.0, &counter);
        let mut acc = forces(&sys.pos);
        let (_, pot0) = direct_serial_pot(&sys.pos, &sys.mass, 0.0, &counter);
        let e0 = sys.kinetic_energy() + sys.potential_energy(&pot0);
        // Orbit period: T = 2π a^{3/2} / sqrt(G M) = 2π for a=1, M=1.
        let dt = 0.01;
        let steps = (2.0 * std::f64::consts::PI / dt) as usize;
        for _ in 0..steps {
            sys.kdk_step(&mut acc, dt, forces);
        }
        let (_, pot1) = direct_serial_pot(&sys.pos, &sys.mass, 0.0, &counter);
        let e1 = sys.kinetic_energy() + sys.potential_energy(&pot1);
        assert!(
            ((e1 - e0) / e0).abs() < 1e-4,
            "energy drift after one orbit: {e0} -> {e1}"
        );
        // After one full period the bodies return near their start.
        assert!((sys.pos[0] - Vec3::new(-0.5, 0.0, 0.0)).norm() < 0.02, "{:?}", sys.pos[0]);
    }

    #[test]
    fn momentum_exactly_conserved() {
        let counter = FlopCounter::new();
        let mut sys = binary();
        sys.vel[0] += Vec3::new(0.1, 0.0, 0.05); // give it net drift
        let p0 = sys.momentum();
        let forces = |p: &[Vec3]| direct_serial(p, &[0.5, 0.5], 0.0, &counter);
        let mut acc = forces(&sys.pos);
        for _ in 0..100 {
            sys.kdk_step(&mut acc, 0.01, forces);
        }
        assert!((sys.momentum() - p0).norm() < 1e-13);
    }

    #[test]
    fn leapfrog_is_second_order() {
        // Halving dt should reduce the one-orbit position error ~4x. Use
        // dt = T/n with integer n so the endpoint lands exactly on one
        // period and the measured error is purely the integrator's.
        let counter = FlopCounter::new();
        let period = 2.0 * std::f64::consts::PI;
        let err_for = |steps: usize| {
            let dt = period / steps as f64;
            let mut sys = binary();
            let forces = |p: &[Vec3]| direct_serial(p, &[0.5, 0.5], 0.0, &counter);
            let mut acc = forces(&sys.pos);
            for _ in 0..steps {
                sys.kdk_step(&mut acc, dt, forces);
            }
            (sys.pos[0] - Vec3::new(-0.5, 0.0, 0.0)).norm()
        };
        let e1 = err_for(400);
        let e2 = err_for(800);
        let order = (e1 / e2).log2();
        assert!(order > 1.7, "convergence order {order} (errors {e1}, {e2})");
    }

    #[test]
    fn diagnostics() {
        let sys = NBodySystem::new(
            vec![Vec3::new(1.0, 0.0, 0.0), Vec3::new(-1.0, 0.0, 0.0)],
            vec![Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.0, -1.0, 0.0)],
            vec![2.0, 2.0],
            0.0,
        );
        assert_eq!(sys.len(), 2);
        assert_eq!(sys.momentum(), Vec3::ZERO);
        assert!((sys.kinetic_energy() - 2.0).abs() < 1e-14);
    }
}
