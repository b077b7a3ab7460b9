//! Experiment H6: Loki + Hyglac bridged on the SC'96 show floor — a
//! 10-million-particle treecode benchmark at 2.19 Gflops, $47/Mflop
//! (21 Gflops per million dollars).
//!
//! A 32-rank distributed treecode benchmark runs for real; the combined
//! machine model prices it.

use hot_comm::RunConfig;
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, FLOPS_PER_GRAV_INTERACTION};
use hot_bench::{arg_usize, header, random_bodies};
use hot_gravity::dist::{distributed_accelerations, DistOptions};
use hot_machine::cost::{dollars_per_mflop, gflops_per_million_dollars, sc96_combined_total};
use hot_machine::specs::LOKI_HYGLAC_SC96;
use hot_trace::ModelClock;

fn main() {
    let np = 32u32;
    let n_local = arg_usize(1, 2_000);
    header("Experiment H6: SC'96 bridged Loki+Hyglac (paper: 2.19 Gflops, $47/Mflop)");

    let out = RunConfig::builder().np(np).run(move |c| {
        let bodies = random_bodies(c.rank(), n_local, 1996);
        let counter = FlopCounter::new();
        let opts = DistOptions { eps2: 1e-8, ..Default::default() };
        let res = distributed_accelerations(c, bodies, Aabb::unit(), &opts, &counter);
        (res.stats.walk.interactions(), c.stats())
    });
    let n = np as usize * n_local;
    let inter: u64 = out.results.iter().map(|&(i, _)| i).sum();
    let ipp = inter as f64 / n as f64;
    println!("measured on 32 simulated ranks: N = {n}, {ipp:.0} interactions/particle");

    // Scale to the 10M-particle benchmark.
    let n_paper: f64 = 10_000_000.0;
    let ipp_paper = ipp * (1.0 + (n_paper / n as f64).ln() / (n as f64).ln());
    let flops = (ipp_paper * n_paper * FLOPS_PER_GRAV_INTERACTION as f64) as u64;
    let traffic: Vec<_> = out.results.iter().map(|&(_, s)| s).collect();
    let traffic = LOKI_HYGLAC_SC96.scale_traffic(&traffic, np);
    let s = ModelClock::of(&LOKI_HYGLAC_SC96).phase_seconds(flops, 0, &traffic);
    let mflops = flops as f64 / s / 1e6;
    println!("\ncombined-machine model at N = 10M (one force evaluation):");
    println!("  predicted rate: {:.2} Gflops (paper: 2.19)", mflops / 1e3);
    let cost = sc96_combined_total();
    println!(
        "  price/performance: {:.0} $/Mflop on the ${:.0} system (paper: $47/Mflop)",
        dollars_per_mflop(cost, mflops),
        cost
    );
    println!(
        "  equivalently {:.1} Gflops per million dollars (paper: 21)",
        gflops_per_million_dollars(cost, mflops)
    );
    println!("\n(the paper notes this was \"about a factor of three better than last");
    println!(" year's Gordon Bell price/performance winner\")");
}
