//! Experiment H4: the Loki 9.75-million-particle CDM run — 879 Mflops
//! over ten days ($58/Mflop), 1.19 Gflops in the well-balanced first 30
//! timesteps, 1.2 Petaflops total by completion.
//!
//! A scaled CDM sphere (Zel'dovich ICs, high-res core + 8× buffer) runs on
//! a 16-rank simulated Loki; measured interaction counts extrapolate to
//! the paper's N and step count through the Loki machine model.

use hot_comm::RunConfig;
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3, FLOPS_PER_GRAV_INTERACTION};
use hot_bench::{arg_usize, header};
use hot_cosmo::ics::{gaussian_field, sphere_with_buffer, zeldovich};
use hot_cosmo::power::CdmSpectrum;
use hot_cosmo::sim::{growth_factor, zeldovich_velocity_factor, RHO_BAR};
use hot_core::decomp::Body;
use hot_gravity::dist::{distributed_accelerations, DistOptions};
use hot_machine::cost::{dollars_per_mflop, loki_sept_1996};
use hot_machine::specs::LOKI;
use hot_morton::Key;
use hot_trace::ModelClock;
use rand::SeedableRng;

fn main() {
    let grid = arg_usize(1, 16).next_power_of_two();
    header("Experiment H4: Loki 9.75M-particle CDM treecode (paper: 879 Mflops, $58/Mflop)");

    // Build the paper-style initial conditions once (globally), then
    // scatter to ranks.
    let box_size = 100.0;
    let a0 = 0.1;
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let spec = CdmSpectrum::default().normalized_to_sigma8(0.7);
    let field = gaussian_field(&mut rng, grid, box_size, &spec);
    let ics = zeldovich(&field, growth_factor(a0), zeldovich_velocity_factor(a0));
    let cell = box_size / grid as f64;
    let base_mass = RHO_BAR * cell * cell * cell;
    let (pos, _vel, mass) =
        sphere_with_buffer(&mut rng, &ics, base_mass, box_size * 0.25, box_size * 0.5);
    let n = pos.len();
    println!("scaled run: {n} particles ({grid}^3 lattice, sphere+buffer)");

    let np = 16u32;
    let domain = Aabb::cube(Vec3::splat(box_size * 0.5), box_size * 0.55);
    let (pos_c, mass_c) = (pos.clone(), mass.clone());
    let out = RunConfig::builder().np(np).run(move |c| {
        let per = n / np as usize;
        let lo = c.rank() as usize * per;
        let hi = if c.rank() == np - 1 { n } else { lo + per };
        let bodies: Vec<Body<f64>> = (lo..hi)
            .map(|i| Body {
                key: Key::from_point(pos_c[i], &domain),
                pos: pos_c[i],
                charge: mass_c[i],
                work: 1.0,
                id: i as u64,
            })
            .collect();
        let counter = FlopCounter::new();
        let opts = DistOptions { eps2: (0.1f64 * 0.39).powi(2), ..Default::default() };
        let res = distributed_accelerations(c, bodies, domain, &opts, &counter);
        (res.stats.walk.interactions(), c.stats())
    });
    let inter: u64 = out.results.iter().map(|&(i, _)| i).sum();
    let ipp = inter as f64 / n as f64;
    println!("measured: {inter} interactions = {ipp:.0} per particle per step");

    // Paper-scale extrapolation (inter/particle grows ~ log N).
    let n_paper: f64 = 9_753_824.0;
    let ipp_paper = ipp * (1.0 + (n_paper / n as f64).ln() / (n as f64).ln());
    println!("extrapolated to N = 9,753,824: {ipp_paper:.0} inter/particle/step");

    // Initial 30 steps (well balanced): paper counted 1.15e12 interactions.
    let inter30 = ipp_paper * n_paper * 30.0;
    println!("  30 steps: {inter30:.2e} interactions (paper measured 1.15e12)");
    let flops30 = (inter30 * FLOPS_PER_GRAV_INTERACTION as f64) as u64;
    let traffic: Vec<_> = out.results.iter().map(|&(_, s)| s).collect();
    let loki = ModelClock::of(&LOKI);
    let s30 = loki.phase_seconds(flops30, 0, &traffic);
    println!(
        "  Loki model: {:.0} s -> {:.2} Gflops (paper: 36973 s, 1.19 Gflops)",
        s30,
        flops30 as f64 / s30 / 1e9
    );

    // Ten-day production phase: clustering raises cost ~1.35x per
    // interaction-step (the paper's 879 vs 1186 Mflop ratio).
    let inter_10day = 1.97e13; // the paper's own count over 236 h
    let flops_10day = inter_10day * FLOPS_PER_GRAV_INTERACTION as f64;
    let imbalance = 1.35;
    let busiest_rank_flops = (flops_10day / LOKI.procs() as f64 * imbalance) as u64;
    let s10 = loki.phase_seconds(flops_10day as u64, busiest_rank_flops, &traffic);
    let mflops10 = flops_10day / s10 / 1e6;
    println!(
        "  ten-day phase model: {:.0} h -> {:.0} Mflops (paper: 236 h, 879 Mflops)",
        s10 / 3600.0,
        mflops10
    );
    let cost = loki_sept_1996().total();
    println!(
        "  price/performance: {:.0} $/Mflop (paper: $58/Mflop)",
        dollars_per_mflop(cost, mflops10)
    );
    // Full run total.
    let total_flops = 1.2e15;
    println!(
        "  full 1000+-step run: {total_flops:.1e} flops = 1.2 Petaflops total (paper's headline)"
    );
}
