//! Experiment F2 (Figure 2): the Loki galaxy-formation image — evolve a
//! scaled CDM sphere and render the log projected density, plus a
//! friends-of-friends "galaxy" catalogue.
//!
//! Writes `figure2_loki.pgm` (and prints halo statistics). Arguments:
//! `[grid=32] [steps=12]`; the grid is rounded up to a power of two.

use hot_base::flops::FlopCounter;
use hot_base::Vec3;
use hot_bench::{arg_usize, header};
use hot_cosmo::fof::friends_of_friends;
use hot_cosmo::ics::{gaussian_field, sphere_with_buffer, zeldovich};
use hot_cosmo::image::project_log_density;
use hot_cosmo::power::CdmSpectrum;
use hot_cosmo::sim::{growth_factor, zeldovich_velocity_factor, CosmoSim, RHO_BAR};
use hot_gravity::treecode::TreecodeOptions;
use rand::SeedableRng;

fn main() {
    let grid = arg_usize(1, 32).next_power_of_two();
    let steps = arg_usize(2, 12);
    header("Experiment F2 (Figure 2): CDM sphere on 'Loki', log-density image");

    let box_size = 100.0;
    let a0 = 0.15;
    let a1 = 0.8;
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let spec = CdmSpectrum::default().normalized_to_sigma8(1.2);
    let field = gaussian_field(&mut rng, grid, box_size, &spec);
    let ics = zeldovich(&field, growth_factor(a0), zeldovich_velocity_factor(a0));
    let cell = box_size / grid as f64;
    let base_mass = RHO_BAR * cell * cell * cell;
    let (pos, vel, mass) =
        sphere_with_buffer(&mut rng, &ics, base_mass, box_size * 0.3, box_size * 0.5);
    let n = pos.len();
    println!("{} particles (high-res sphere of radius {} + 8x-mass buffer)", n, box_size * 0.3);

    let opts = TreecodeOptions { eps2: (0.05 * cell) * (0.05 * cell), ..Default::default() };
    let mut sim =
        CosmoSim::new(pos, vel, mass, a0, Vec3::splat(box_size * 0.5), opts);
    let counter = FlopCounter::new();
    let da = (a1 - a0) / steps as f64;
    let mut total_inter = 0u64;
    for s in 0..steps {
        total_inter += sim.step(da, &counter);
        if (s + 1) % 4 == 0 {
            println!("  step {:>3}: a = {:.3}, {} interactions so far", s + 1, sim.a, total_inter);
        }
    }
    println!("flops (paper convention): {}", counter.report().flops());

    // Figure 2: the image.
    let img = project_log_density(
        &sim.pos,
        &sim.mass,
        256,
        256,
        box_size * 0.1..box_size * 0.9,
        box_size * 0.1..box_size * 0.9,
    );
    let path = std::path::Path::new("figure2_loki.pgm");
    img.save_pgm(path).expect("write image");
    println!("wrote {} ({}x{}, coverage {:.0}%)", path.display(), img.width, img.height, img.coverage() * 100.0);

    // Galaxy identification.
    let link = 0.2 * cell;
    let halos = friends_of_friends(&sim.pos, &sim.mass, link, 8);
    println!("friends-of-friends (b = 0.2): {} halos with >= 8 particles", halos.len());
    for (i, h) in halos.iter().take(5).enumerate() {
        println!(
            "  halo {}: {} particles, mass {:.3}, center ({:.1}, {:.1}, {:.1})",
            i,
            h.members.len(),
            h.mass,
            h.center.x,
            h.center.y,
            h.center.z
        );
    }
}
