//! The paper's argument in one binary: run the identical treecode
//! benchmark on the simulated message-passing machine, then price the same
//! workload on every 1997 platform the paper discusses — ASCI Red, Loki,
//! Hyglac, the SC'96 bridged pair — using their measured constants.
//!
//! Run: `cargo run --release --example cluster_shootout [np] [n_per_rank]`

use hot_comm::RunConfig;
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3, FLOPS_PER_GRAV_INTERACTION};
use hot_core::decomp::Body;
use hot_gravity::dist::{distributed_accelerations, DistOptions};
use hot_machine::cost::dollars_per_mflop;
use hot_machine::specs::{ASCI_RED_6800, HYGLAC, LOKI, LOKI_HYGLAC_SC96};
use hot_morton::Key;
use hot_trace::ModelClock;
use rand::{Rng, SeedableRng};

fn arg(idx: usize, default: usize) -> usize {
    std::env::args().nth(idx).and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let np = arg(1, 8) as u32;
    let per = arg(2, 4_000);
    println!("distributed treecode benchmark: {np} ranks x {per} bodies");

    let out = RunConfig::builder().np(np).run(move |c| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(c.rank() as u64);
        let bodies: Vec<Body<f64>> = (0..per)
            .map(|i| {
                let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                Body {
                    key: Key::from_point(pos, &Aabb::unit()),
                    pos,
                    charge: 1.0 / (per as f64 * c.size() as f64),
                    work: 1.0,
                    id: c.rank() as u64 * 1_000_000 + i as u64,
                }
            })
            .collect();
        let counter = FlopCounter::new();
        let opts = DistOptions { eps2: 1e-8, ..Default::default() };
        let res = distributed_accelerations(c, bodies, Aabb::unit(), &opts, &counter);
        (res.stats.walk.interactions(), res.stats.parks, c.stats())
    });
    let inter: u64 = out.results.iter().map(|r| r.0).sum();
    let parks: u64 = out.results.iter().map(|r| r.1).sum();
    let n = np as u64 * per as u64;
    println!(
        "  {} interactions ({} per particle), {} latency-hiding context switches",
        inter,
        inter / n,
        parks
    );
    let flops = inter * FLOPS_PER_GRAV_INTERACTION;
    let traffic: Vec<_> = out.results.iter().map(|r| r.2).collect();

    println!("\nsame force evaluation priced on the 1997 machines:");
    println!(
        "{:>28} {:>7} {:>12} {:>12} {:>12}",
        "machine", "procs", "time (s)", "Mflops", "$/Mflop"
    );
    for m in [&ASCI_RED_6800, &LOKI, &HYGLAC, &LOKI_HYGLAC_SC96] {
        let s = ModelClock::of(m).phase_seconds(flops, 0, &m.scale_traffic(&traffic, np));
        let mflops = flops as f64 / s / 1e6;
        let price = m
            .price
            .map(|c| format!("{:>12.0}", dollars_per_mflop(c, mflops)))
            .unwrap_or_else(|| format!("{:>12}", "-"));
        println!("{:>28} {:>7} {s:>12.4} {mflops:>12.1} {price}", m.name, m.procs());
    }
    println!("\n(the commodity machines lose on raw speed and win on $/Mflop —");
    println!(" the 1997 Gordon Bell double verdict)");
}
