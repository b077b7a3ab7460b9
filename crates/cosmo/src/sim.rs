//! Comoving cosmological N-body integration (Einstein–de Sitter).
//!
//! The paper's production runs evolve a spherical high-resolution region
//! (plus an 8× mass buffer shell) in comoving coordinates from CDM initial
//! conditions. This module implements that setup for Ω = 1:
//!
//! * comoving positions `x`, canonical momenta `w = a² dx/dt`
//!   (`ẇ = g_pec/a`, which absorbs the `−2Hẋ` Hubble drag analytically),
//! * `EdS` background: `a(t) = (3 H₀ t / 2)^{2/3}`, `H(a) = H₀ a^{−3/2}`,
//! * peculiar force `g_pec = g_tree + (4πG/3) ρ̄_c (x − x_c)`: by Birkhoff's
//!   theorem the uniform background inside the sphere cancels against the
//!   cosmological deceleration, so the treecode's vacuum-boundary force
//!   plus this linear correction reproduces homogeneous expansion exactly.
//!
//! Units: G = 1, H₀ = 1 ⇒ comoving background density ρ̄ = 3/(8π).

use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3};
use hot_gravity::treecode::{ForceCalc, TreecodeOptions};
use hot_gravity::ForceResult;
use hot_trace::{Ledger, Phase};

/// Comoving background density for Ω = 1, G = 1, H₀ = 1.
pub const RHO_BAR: f64 = 3.0 / (8.0 * std::f64::consts::PI);

/// Hubble rate at scale factor `a` (`EdS`, H₀ = 1).
pub fn hubble(a: f64) -> f64 {
    a.powf(-1.5)
}

/// Cosmic time at scale factor `a` (`EdS`, H₀ = 1): `t = (2/3) a^{3/2}`.
pub fn cosmic_time(a: f64) -> f64 {
    2.0 / 3.0 * a.powf(1.5)
}

/// Linear growth factor, normalized to `D(a=1) = 1` (`EdS`: `D = a`).
pub fn growth_factor(a: f64) -> f64 {
    a
}

/// Zel'dovich velocity prefactor: `u = H(a) · D(a) ψ` for displacements
/// already scaled by `D(a)`, i.e. multiply displacements by `H(a)`.
pub fn zeldovich_velocity_factor(a: f64) -> f64 {
    hubble(a)
}

/// A comoving cosmological simulation state.
#[derive(Clone, Debug)]
pub struct CosmoSim {
    /// Comoving positions.
    pub pos: Vec<Vec3>,
    /// Canonical momenta `w = a² dx/dt`.
    pub mom: Vec<Vec3>,
    /// Particle masses.
    pub mass: Vec<f64>,
    /// Current scale factor.
    pub a: f64,
    /// Center of the high-resolution sphere (for the background
    /// correction).
    pub center: Vec3,
    /// Treecode settings.
    pub opts: TreecodeOptions,
    /// Steps taken.
    pub steps: u64,
    /// Force pipeline; its interaction-list buffers persist across the
    /// substeps and steps of the run.
    pub calc: ForceCalc,
    /// The force the last step's closing half-kick applied, kept for the
    /// next step's opening half-kick.
    pub(crate) end_force: Option<EndForce>,
}

/// A force evaluation kept with the inputs it was computed from. The
/// state's fields are public and may be written between steps, so the
/// force is reused only when every input is unchanged, never trusted.
#[derive(Clone, Debug)]
pub(crate) struct EndForce {
    acc: Vec<Vec3>,
    interactions: u64,
    pos: Vec<Vec3>,
    mass: Vec<f64>,
    center: Vec3,
    opts: TreecodeOptions,
}

impl EndForce {
    /// Whether this force is, bitwise, what `sim` would compute now.
    fn computed_from(&self, sim: &CosmoSim) -> bool {
        let bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        self.opts == sim.opts
            && bits(&self.center) == bits(&sim.center)
            && self.pos.len() == sim.pos.len()
            && self.pos.iter().zip(&sim.pos).all(|(p, q)| bits(p) == bits(q))
            && self.mass.len() == sim.mass.len()
            && self.mass.iter().zip(&sim.mass).all(|(m, n)| m.to_bits() == n.to_bits())
    }
}

impl CosmoSim {
    /// Build from positions, *peculiar coordinate velocities* `u = dx/dt`,
    /// and masses at scale factor `a0`.
    pub fn new(
        pos: Vec<Vec3>,
        vel: Vec<Vec3>,
        mass: Vec<f64>,
        a0: f64,
        center: Vec3,
        opts: TreecodeOptions,
    ) -> Self {
        assert_eq!(pos.len(), vel.len());
        assert_eq!(pos.len(), mass.len());
        let mom = vel.into_iter().map(|u| u * (a0 * a0)).collect();
        CosmoSim {
            pos,
            mom,
            mass,
            a: a0,
            center,
            opts,
            steps: 0,
            calc: ForceCalc::new(),
            end_force: None,
        }
    }

    /// Peculiar accelerations at the current positions: treecode force
    /// plus the uniform-background correction.
    pub fn accelerations(&mut self, counter: &FlopCounter) -> ForceResult {
        self.accelerations_traced(counter, &mut Ledger::scratch())
    }

    /// [`CosmoSim::accelerations`] with phase tracing (tree build, walk and
    /// force spans recorded into `trace`).
    pub fn accelerations_traced(
        &mut self,
        counter: &FlopCounter,
        trace: &mut Ledger,
    ) -> ForceResult {
        let domain = domain_for(&self.pos);
        let mut res = self.calc.compute_traced(
            domain,
            &self.pos,
            &self.mass,
            &self.opts,
            counter,
            false,
            trace,
        );
        let k = 4.0 * std::f64::consts::PI / 3.0 * RHO_BAR;
        for (acc, &p) in res.acc.iter_mut().zip(&self.pos) {
            *acc += (p - self.center) * k;
        }
        res
    }

    /// One KDK step from `a` to `a + da`. Returns the interaction count of
    /// the two forces the step applied, whether computed or kept.
    ///
    /// The force of the closing half-kick is kept, and the next step's
    /// opening half-kick reuses it when positions, masses, center and
    /// options are unchanged, so after the first step each step evaluates
    /// one force. The trajectory is bitwise the one that evaluates twice.
    pub fn step(&mut self, da: f64, counter: &FlopCounter) -> u64 {
        self.step_traced(da, counter, &mut Ledger::scratch())
    }

    /// [`CosmoSim::step`] with phase tracing: the whole KDK step is wrapped
    /// in a `Step` span, with the `TreeBuild` / `Walk` / `Force` sub-spans
    /// of each force it evaluates nested inside it — one after the first
    /// step, two when the kept force cannot be reused (the kick/drift
    /// arithmetic itself is the step span's exclusive time).
    pub fn step_traced(&mut self, da: f64, counter: &FlopCounter, trace: &mut Ledger) -> u64 {
        trace.begin(Phase::Step);
        let mut interactions = 0;
        let mut last = 0;
        let f1 = self.kdk(da, |sim| {
            let (acc, n) = match sim.end_force.take().filter(|f| f.computed_from(sim)) {
                Some(kept) => (kept.acc, kept.interactions),
                None => {
                    let f = sim.accelerations_traced(counter, trace);
                    (f.acc, f.stats.interactions())
                }
            };
            interactions += n;
            last = n;
            acc
        });
        self.end_force = Some(EndForce {
            acc: f1,
            interactions: last,
            pos: self.pos.clone(),
            mass: self.mass.clone(),
            center: self.center,
            opts: self.opts,
        });
        trace.end();
        interactions
    }

    /// One KDK step from `a` to `a + da` with peculiar accelerations from
    /// `force`, which is asked for two: at the current state, and after
    /// the drift with `a` already advanced to `a + da`. Returns the second,
    /// the force at the state the step ends in.
    pub(crate) fn kdk(
        &mut self,
        da: f64,
        mut force: impl FnMut(&mut CosmoSim) -> Vec<Vec3>,
    ) -> Vec<Vec3> {
        let a0 = self.a;
        let a1 = a0 + da;
        let t0 = cosmic_time(a0);
        let t1 = cosmic_time(a1);
        let dt = t1 - t0;
        let a_mid = ((t0 + 0.5 * dt) * 1.5).powf(2.0 / 3.0);

        // Kick (half, at a0).
        let f0 = force(self);
        for (w, acc) in self.mom.iter_mut().zip(&f0) {
            *w += *acc * (0.5 * dt / a0);
        }
        // Free the opening force before the closing one is computed, so the
        // step never holds two.
        drop(f0);
        // Drift (full, with a at midpoint).
        let inv_a2 = 1.0 / (a_mid * a_mid);
        for (x, w) in self.pos.iter_mut().zip(&self.mom) {
            *x += *w * (dt * inv_a2);
        }
        // Kick (half, at a1).
        self.a = a1;
        let f1 = force(self);
        for (w, acc) in self.mom.iter_mut().zip(&f1) {
            *w += *acc * (0.5 * dt / a1);
        }
        self.steps += 1;
        f1
    }

    /// Checkpoint the full resume state to `path` (see
    /// [`checkpoint`](crate::checkpoint) for the format). The paper's
    /// production runs leaned on exactly this ("no crashes, no restarts"
    /// was worth reporting because restarts were routine elsewhere).
    pub fn save_checkpoint(&self, path: &std::path::Path) -> std::io::Result<u64> {
        crate::checkpoint::save(self, path)
    }

    /// Restore from a checkpoint written by [`CosmoSim::save_checkpoint`].
    /// Everything — raw momenta, step count, center, treecode options — is
    /// in the file, so the resumed run is bitwise identical to one that
    /// never stopped. A damaged file is rejected with a typed
    /// [`CheckpointError`](crate::checkpoint::CheckpointError) naming the
    /// reason, never loaded as a wrong-but-plausible state.
    pub fn load_checkpoint(
        path: &std::path::Path,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        crate::checkpoint::load(path)
    }
}

/// Cubic domain comfortably containing all positions.
///
/// Panics, naming the body, when a position is not finite: a NaN state
/// must stop the run here, in release builds too, rather than reach the
/// tree build (whose own check is a `debug_assert!`) as NaN keys.
pub fn domain_for(pos: &[Vec3]) -> Aabb {
    let mut bounds = Aabb::EMPTY;
    for (i, &p) in pos.iter().enumerate() {
        // `f64::min`/`max` skip NaN, so the box alone cannot tell.
        assert!(p.is_finite(), "domain_for: body {i} is at {p:?}, not a finite position");
        bounds.expand(p);
    }
    bounds.bounding_cube().scaled(1.01 + 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A cold uniform comoving sphere must stay (nearly) at rest in
    /// comoving coordinates: the background correction exactly cancels the
    /// mean self-gravity (Birkhoff). Discreteness noise causes only small
    /// drifts over a modest integration.
    #[test]
    fn uniform_sphere_stays_comoving() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 3000;
        let radius = 10.0;
        let center = Vec3::splat(50.0);
        let mut pos = Vec::with_capacity(n);
        while pos.len() < n {
            let p = Vec3::new(
                rng.gen::<f64>() * 2.0 - 1.0,
                rng.gen::<f64>() * 2.0 - 1.0,
                rng.gen::<f64>() * 2.0 - 1.0,
            );
            if p.norm2() <= 1.0 {
                pos.push(center + p * radius);
            }
        }
        let vol = 4.0 / 3.0 * std::f64::consts::PI * radius.powi(3);
        let m = RHO_BAR * vol / n as f64;
        let start = pos.clone();
        let opts = TreecodeOptions {
            eps2: 0.04, // soften below the interparticle spacing
            ..Default::default()
        };
        let mut sim = CosmoSim::new(pos, vec![Vec3::ZERO; n], vec![m; n], 0.3, center, opts);
        let counter = FlopCounter::new();
        for _ in 0..10 {
            sim.step(0.01, &counter);
        }
        // Inner particles (r < radius/2) move much less than the
        // interparticle spacing.
        let spacing = radius * (4.19 / n as f64).cbrt();
        let mut moved = 0.0;
        let mut count = 0;
        for (p0, p1) in start.iter().zip(&sim.pos) {
            if (*p0 - center).norm() < radius * 0.5 {
                moved += (*p1 - *p0).norm();
                count += 1;
            }
        }
        let mean_move = moved / count as f64;
        assert!(
            mean_move < 0.3 * spacing,
            "comoving drift {mean_move} vs spacing {spacing}"
        );
    }

    /// Zel'dovich displacements in the linear regime grow like D ∝ a:
    /// integrating from a=0.2 to a=0.4 should double the displacement of
    /// inner particles.
    #[test]
    fn linear_growth_matches_eds() {
        use crate::ics::{gaussian_field, zeldovich};
        use crate::power::CdmSpectrum;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 16;
        let box_size = 64.0;
        let spec = CdmSpectrum::default().normalized_to_sigma8(0.6);
        let field = gaussian_field(&mut rng, n, box_size, &spec);
        let a0 = 0.2;
        let ics = zeldovich(&field, growth_factor(a0), zeldovich_velocity_factor(a0));

        // Carve a sphere (with the rest as is — vacuum outside; we measure
        // only well inside).
        let center = Vec3::splat(box_size / 2.0);
        let cell = box_size / n as f64;
        let m = RHO_BAR * cell * cell * cell;
        let lattice: Vec<Vec3> = {
            let mut v = Vec::new();
            for iz in 0..n {
                for iy in 0..n {
                    for ix in 0..n {
                        v.push(Vec3::new(
                            (ix as f64 + 0.5) * cell,
                            (iy as f64 + 0.5) * cell,
                            (iz as f64 + 0.5) * cell,
                        ));
                    }
                }
            }
            v
        };
        let keep: Vec<usize> = (0..ics.pos.len())
            .filter(|&i| (lattice[i] - center).norm() <= box_size * 0.45)
            .collect();
        let pos: Vec<Vec3> = keep.iter().map(|&i| ics.pos[i]).collect();
        let vel: Vec<Vec3> = keep.iter().map(|&i| ics.vel[i]).collect();
        let lat: Vec<Vec3> = keep.iter().map(|&i| lattice[i]).collect();
        let nn = pos.len();

        // Initial displacements off the lattice, before integration.
        let d0: Vec<Vec3> = pos.iter().zip(&lat).map(|(&p, &l)| p - l).collect();

        let opts = TreecodeOptions { eps2: (0.2 * cell) * (0.2 * cell), ..Default::default() };
        let mut sim = CosmoSim::new(pos, vel, vec![m; nn], a0, center, opts);
        let counter = FlopCounter::new();
        let steps = 40;
        let da = (0.4 - a0) / steps as f64;
        for _ in 0..steps {
            sim.step(da, &counter);
        }
        // The linear growing mode doubles between a = 0.2 and a = 0.4.
        // Measure well inside the sphere to dodge edge effects.
        let mut ratio_sum = 0.0;
        let mut count = 0;
        for i in 0..nn {
            if (lat[i] - center).norm() < box_size * 0.25 && d0[i].norm() > 1e-3 {
                let d1 = (sim.pos[i] - lat[i]).norm();
                ratio_sum += d1 / d0[i].norm();
                count += 1;
            }
        }
        let mean_ratio = ratio_sum / count as f64;
        assert!(
            (mean_ratio - 2.0).abs() < 0.5,
            "growth ratio {mean_ratio}, want ≈ 2 (D ∝ a), n={count}"
        );
    }

    /// A cold random cube of 300 bodies around (5, 5, 5) at a = 0.3.
    fn small_sim(seed: u64) -> CosmoSim {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 300;
        let center = Vec3::splat(5.0);
        let pos: Vec<Vec3> = (0..n)
            .map(|_| center + Vec3::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5) * 4.0)
            .collect();
        let vel = vec![Vec3::ZERO; n];
        let mass = vec![RHO_BAR * 0.1; n];
        let opts = TreecodeOptions { eps2: 0.01, ..Default::default() };
        CosmoSim::new(pos, vel, mass, 0.3, center, opts)
    }

    fn assert_same_state(a: &CosmoSim, b: &CosmoSim) {
        let bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        assert_eq!(a.a.to_bits(), b.a.to_bits());
        assert_eq!(a.steps, b.steps);
        for (x, y) in a.pos.iter().zip(&b.pos) {
            assert_eq!(bits(x), bits(y), "positions diverged: {x:?} vs {y:?}");
        }
        for (x, y) in a.mom.iter().zip(&b.mom) {
            assert_eq!(bits(x), bits(y), "momenta diverged: {x:?} vs {y:?}");
        }
    }

    /// After the first step, a step builds one tree, not two: the closing
    /// force is kept and opens the next step. The trajectory and the
    /// reported interactions are bitwise those of a run that evaluates
    /// both forces of every step.
    #[test]
    fn step_evaluates_one_force_after_the_first() {
        let counter = FlopCounter::new();
        let mut kept = small_sim(7);
        let mut fresh = kept.clone();
        let mut trace = Ledger::scratch();
        let k = 5;
        for _ in 0..k {
            let ixn = kept.step_traced(0.01, &counter, &mut trace);
            fresh.end_force = None;
            assert_eq!(ixn, fresh.step(0.01, &counter));
            assert_same_state(&kept, &fresh);
        }
        let builds = trace.spans().iter().filter(|s| s.phase == Phase::TreeBuild).count();
        assert_eq!(builds, k + 1);
    }

    /// A kept force is reused only when every input it was computed from
    /// is bitwise unchanged: after any one of them is written between
    /// steps, the next step equals the step of a clone that recomputes.
    #[test]
    fn kept_force_is_dropped_when_an_input_changes() {
        let edits: [fn(&mut CosmoSim); 4] = [
            |s| s.pos[17].y += 1e-3,
            |s| s.mass[42] *= 2.0,
            |s| s.center.z -= 0.25,
            |s| s.opts.eps2 *= 4.0,
        ];
        let counter = FlopCounter::new();
        for edit in edits {
            let mut sim = small_sim(11);
            sim.step(0.01, &counter);
            assert!(sim.end_force.is_some());
            edit(&mut sim);
            let mut fresh = sim.clone();
            fresh.end_force = None;
            assert_eq!(sim.step(0.01, &counter), fresh.step(0.01, &counter));
            assert_same_state(&sim, &fresh);
        }
    }

    /// Checkpoint → restore → continue must equal an uninterrupted run.
    /// The restored state keeps no force, so its first step recomputes the
    /// one the uninterrupted run kept: this also proves that recompute is
    /// bitwise the kept force.
    #[test]
    fn checkpoint_restart_is_transparent() {
        let counter = FlopCounter::new();

        // Uninterrupted: 4 steps.
        let mut a_run = small_sim(5);
        for _ in 0..4 {
            a_run.step(0.01, &counter);
        }

        // Interrupted: 2 steps, checkpoint, restore, 2 more.
        let mut b_run = small_sim(5);
        for _ in 0..2 {
            b_run.step(0.01, &counter);
        }
        let dir = std::env::temp_dir().join("hot97_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("ckpt");
        b_run.save_checkpoint(&base).unwrap();
        let mut b2 = CosmoSim::load_checkpoint(&base).unwrap();
        for _ in 0..2 {
            b2.step(0.01, &counter);
        }
        // Bitwise, not approximately: the checkpoint stores raw momenta
        // and the full configuration, so the resumed trajectory is the
        // uninterrupted one down to the last ulp.
        assert_same_state(&a_run, &b2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_functions() {
        assert!((hubble(1.0) - 1.0).abs() < 1e-14);
        assert!((hubble(0.25) - 8.0).abs() < 1e-12);
        assert!((cosmic_time(1.0) - 2.0 / 3.0).abs() < 1e-14);
        // a(t(a)) consistency.
        for &a in &[0.1, 0.5, 1.0, 2.0] {
            let t = cosmic_time(a);
            let back = (1.5 * t).powf(2.0 / 3.0);
            assert!((back - a).abs() < 1e-12);
        }
    }
}
