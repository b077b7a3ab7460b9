//! Cross-module physics integration tests: the cosmology pipeline drives
//! the gravity treecode; the vortex module conserves its invariants
//! through tree-driven dynamics; flop accounting is consistent across
//! modules.

use hot97::base::flops::FlopCounter;
use hot97::base::Vec3;
use hot97::cosmo::fof::friends_of_friends;
use hot97::cosmo::ics::{gaussian_field, sphere_with_buffer, zeldovich};
use hot97::cosmo::power::CdmSpectrum;
use hot97::cosmo::sim::{growth_factor, zeldovich_velocity_factor, CosmoSim, RHO_BAR};
use hot97::gravity::treecode::TreecodeOptions;
use rand::SeedableRng;

/// End-to-end cosmology: spectrum → field → Zel'dovich → sphere+buffer →
/// comoving treecode evolution → clustering grows and `FoF` finds structure.
#[test]
fn cosmology_pipeline_forms_structure() {
    let grid = 16;
    let box_size = 80.0;
    let a0 = 0.15;
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let spec = CdmSpectrum::default().normalized_to_sigma8(1.1);
    let field = gaussian_field(&mut rng, grid, box_size, &spec);
    let ics = zeldovich(&field, growth_factor(a0), zeldovich_velocity_factor(a0));
    let cell = box_size / grid as f64;
    let m = RHO_BAR * cell * cell * cell;
    let (pos, vel, mass) =
        sphere_with_buffer(&mut rng, &ics, m, box_size * 0.3, box_size * 0.48);
    let n = pos.len();
    assert!(n > 300, "enough particles to mean something: {n}");
    // Buffer particles exist and carry 8x mass.
    assert!(mass.iter().any(|&mm| (mm - 8.0 * m).abs() < 1e-12));

    let opts = TreecodeOptions { eps2: (0.05 * cell) * (0.05 * cell), ..Default::default() };
    let mut sim = CosmoSim::new(pos, vel, mass, a0, Vec3::splat(box_size * 0.5), opts);
    let counter = FlopCounter::new();

    // Density contrast proxy: rms displacement from initial comoving
    // positions must grow as collapse proceeds.
    let start = sim.pos.clone();
    for _ in 0..20 {
        sim.step(0.03, &counter);
    }
    let moved: f64 =
        sim.pos.iter().zip(&start).map(|(a, b)| (*a - *b).norm()).sum::<f64>() / n as f64;
    assert!(moved > 0.01 * cell, "particles must move: {moved}");
    assert!(counter.report().flops() > 0);

    // Clustering: FoF with a tight linking length finds at least one group
    // in the evolved state.
    // Linking at half the lattice spacing selects ~8x overdensities.
    let halos = friends_of_friends(&sim.pos, &sim.mass, 0.5 * cell, 5);
    assert!(
        !halos.is_empty(),
        "gravitational collapse should have produced at least one FoF group"
    );
    // Halos are sorted by mass and consistent.
    for h in &halos {
        assert!(h.mass > 0.0);
        assert!(h.members.len() >= 5);
    }
}

/// The momentum of an isolated self-gravitating system is conserved by the
/// tree-driven integrator even though tree forces are not exactly
/// pairwise-antisymmetric — drift must stay tiny.
#[test]
fn tree_dynamics_momentum_drift_is_small() {
    use hot97::gravity::models::{bounding_domain, plummer};
    use hot97::gravity::treecode::ForceCalc;
    use hot97::gravity::NBodySystem;

    let n = 800;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (pos, vel) = plummer(&mut rng, n);
    let mass = vec![1.0 / n as f64; n];
    let mut sys = NBodySystem::new(pos, vel, mass, 1e-3);
    let counter = FlopCounter::new();
    let opts = TreecodeOptions::default();
    let mass_c = sys.mass.clone();
    let counter_ref = &counter;
    let mut calc = ForceCalc::new();
    let mut forces = move |p: &[Vec3]| {
        calc.compute(bounding_domain(p), p, &mass_c, &opts, counter_ref, false).acc
    };
    let momentum =
        |s: &NBodySystem| -> Vec3 { s.vel.iter().zip(&s.mass).map(|(&v, &m)| v * m).sum() };
    let p0 = momentum(&sys);
    let mut acc = forces(&sys.pos);
    for _ in 0..20 {
        sys.kdk_step(&mut acc, 0.02, &mut forces);
    }
    let drift = (momentum(&sys) - p0).norm();
    // Typical |v| ~ 0.5; total |p| scale ~ mass * v = 0.5.
    assert!(drift < 5e-3, "momentum drift {drift}");
}

/// Flop accounting stays consistent when several modules share a counter.
#[test]
fn shared_flop_counter_across_modules() {
    use hot97::vortex::tree_velocity_stretching;

    let counter = FlopCounter::new();
    let pos = vec![
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
    ];
    let alpha = vec![Vec3::new(0.0, 0.0, 0.1); 3];
    // One leaf holds all three particles: every pair is P-P.
    tree_velocity_stretching(&pos, &alpha, 0.01, 0.5, 8, &counter);
    let mass = vec![1.0; 3];
    hot97::gravity::direct::direct_serial(&pos, &mass, 1e-6, &counter);
    let rep = counter.report();
    assert_eq!(rep.vortex_pp, 6);
    assert_eq!(rep.grav_pp, 6);
    assert_eq!(
        rep.flops(),
        6 * hot97::base::FLOPS_PER_VORTEX_INTERACTION + 6 * hot97::base::FLOPS_PER_GRAV_INTERACTION
    );
}
