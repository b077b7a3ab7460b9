//! Experiment H7: force accuracy — the paper updates 3 million particles
//! per second "with an RMS force accuracy of better than 10⁻³". Sweep both
//! acceptance criteria and record error vs. cost.

use hot_base::Aabb;
use hot_bench::{arg_usize, header};
use hot_core::Mac;
use hot_gravity::error::force_accuracy;
use hot_gravity::models::uniform_box;
use hot_gravity::treecode::TreecodeOptions;
use rand::SeedableRng;

fn main() {
    let n = arg_usize(1, 3_000);
    header("Experiment H7: RMS force accuracy vs MAC (paper: better than 1e-3)");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let pos = uniform_box(&mut rng, n, &Aabb::unit());
    let mass = vec![1.0 / n as f64; n];

    println!(
        "{:>22} {:>12} {:>12} {:>14} {:>10}",
        "MAC", "rms err", "max err", "interactions", "vs N^2"
    );
    let n2 = (n as u64) * (n as u64 - 1);
    let mut meets = Vec::new();
    for mac in [
        Mac::BarnesHut { theta: 1.0 },
        Mac::BarnesHut { theta: 0.7 },
        Mac::BarnesHut { theta: 0.5 },
        Mac::BarnesHut { theta: 0.3 },
        Mac::SalmonWarren { delta: 1e-4 },
        Mac::SalmonWarren { delta: 1e-6 },
    ] {
        let opts = TreecodeOptions { mac, bucket: 16, eps2: 1e-10, quadrupole: true };
        let rep = force_accuracy(Aabb::unit(), &pos, &mass, &opts);
        println!(
            "{:>22} {:>12.2e} {:>12.2e} {:>14} {:>9.1}x",
            mac.name(),
            rep.rms,
            rep.max,
            rep.tree_interactions,
            n2 as f64 / rep.tree_interactions as f64
        );
        if rep.rms < 1e-3 {
            meets.push(mac.name());
        }
    }
    println!("\nmonopole-only comparison at theta = 0.7:");
    for quad in [false, true] {
        let opts = TreecodeOptions {
            mac: Mac::BarnesHut { theta: 0.7 },
            bucket: 16,
            eps2: 1e-10,
            quadrupole: quad,
        };
        let rep = force_accuracy(Aabb::unit(), &pos, &mass, &opts);
        println!(
            "  quadrupole = {:>5}: rms {:.2e}, {} interactions",
            quad, rep.rms, rep.tree_interactions
        );
    }
    println!("\nbetter than the paper's 1e-3 RMS: {}", meets.join(", "));
}
