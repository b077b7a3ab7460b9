//! Experiment F1 (Figure 1): the ASCI Red 322-million-particle image,
//! at laptop scale — a larger CDM realization than F2, evolved further,
//! rendered the same way ("the color of each pixel represents the
//! logarithm of the projected particle density").
//!
//! Writes `figure1_asci.pgm`. Arguments: `[grid=32] [steps=16]`; the grid
//! is rounded up to a power of two.

use hot_base::flops::FlopCounter;
use hot_base::Vec3;
use hot_bench::{arg_usize, header};
use hot_cosmo::fof::{friends_of_friends, mass_function};
use hot_cosmo::ics::{gaussian_field, sphere_with_buffer, zeldovich};
use hot_cosmo::image::project_log_density;
use hot_cosmo::power::CdmSpectrum;
use hot_cosmo::sim::{growth_factor, zeldovich_velocity_factor, CosmoSim, RHO_BAR};
use hot_gravity::treecode::TreecodeOptions;
use rand::SeedableRng;

fn main() {
    let grid = arg_usize(1, 32).next_power_of_two();
    let steps = arg_usize(2, 16);
    header("Experiment F1 (Figure 1): 'ASCI Red' CDM sphere, log-density image");

    // The paper: 200 Mpc sphere, 160 Mpc high-res core, 20 Mpc buffer.
    let box_size = 200.0;
    let a0 = 0.12;
    let a1 = 0.7;
    let mut rng = rand::rngs::StdRng::seed_from_u64(26);
    let spec = CdmSpectrum::default().normalized_to_sigma8(1.0);
    let field = gaussian_field(&mut rng, grid, box_size, &spec);
    let ics = zeldovich(&field, growth_factor(a0), zeldovich_velocity_factor(a0));
    let cell = box_size / grid as f64;
    let base_mass = RHO_BAR * cell * cell * cell;
    let (pos, vel, mass) =
        sphere_with_buffer(&mut rng, &ics, base_mass, box_size * 0.4, box_size * 0.5);
    let n = pos.len();
    println!(
        "{n} particles (paper: 322,159,436 in a 200 Mpc sphere; scaled {grid}^3 realization)"
    );

    let opts = TreecodeOptions { eps2: (0.05 * cell) * (0.05 * cell), ..Default::default() };
    let mut sim = CosmoSim::new(pos, vel, mass, a0, Vec3::splat(box_size * 0.5), opts);
    let counter = FlopCounter::new();
    let da = (a1 - a0) / steps as f64;
    for s in 0..steps {
        let inter = sim.step(da, &counter);
        if (s + 1) % 4 == 0 {
            println!("  step {:>3}: a = {:.3} ({} interactions)", s + 1, sim.a, inter);
        }
    }
    println!("total flops (paper convention): {:.3e} (paper: 9.7e15)", counter.report().flops() as f64);

    let img =
        project_log_density(&sim.pos, &sim.mass, 512, 512, 0.0..box_size, 0.0..box_size);
    let path = std::path::Path::new("figure1_asci.pgm");
    img.save_pgm(path).expect("write image");
    println!("wrote {} (coverage {:.0}%)", path.display(), img.coverage() * 100.0);

    // "The particles have formed clumps which represent dark matter halos".
    let halos = friends_of_friends(&sim.pos, &sim.mass, 0.2 * cell, 10);
    println!("halo catalogue: {} halos with >= 10 particles", halos.len());
    if !halos.is_empty() {
        let mf = mass_function(
            &halos,
            6,
            halos.last().map(|h| h.mass).unwrap_or(1.0) * 0.5,
            halos[0].mass * 2.0,
        );
        println!("mass function (log bins): ");
        for (m, c) in mf {
            if c > 0 {
                println!("  M ~ {m:.2}: {c} halos");
            }
        }
    }
}
