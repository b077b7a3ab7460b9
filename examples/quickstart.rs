//! Quickstart: gravity with the HOT treecode in ~40 lines.
//!
//! Builds a Plummer sphere, computes treecode forces, checks them against
//! the exact O(N²) sum, then integrates a few orbits worth of dynamics and
//! watches energy conservation.
//!
//! Run: `cargo run --release --example quickstart`

use hot_base::flops::FlopCounter;
use hot_core::Mac;
use hot_gravity::direct::direct_serial_pot;
use hot_gravity::models::{bounding_domain, plummer};
use hot_gravity::treecode::{ForceCalc, TreecodeOptions};
use hot_gravity::NBodySystem;
use hot_trace::{Ledger, ModelClock, RunReport};
use rand::SeedableRng;

fn main() {
    let n = 2_000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let (pos, vel) = plummer(&mut rng, n);
    let mass = vec![1.0 / n as f64; n];
    println!("Plummer sphere, N = {n} (total mass 1, virial equilibrium)");

    // Treecode forces vs the exact sum.
    let counter = FlopCounter::new();
    let opts = TreecodeOptions {
        mac: Mac::BarnesHut { theta: 0.5 },
        bucket: 16,
        eps2: 1e-4,
        quadrupole: true,
    };
    let domain = bounding_domain(&pos);
    let mut trace = Ledger::new(ModelClock::paper_loki());
    let res =
        ForceCalc::new().compute_traced(domain, &pos, &mass, &opts, &counter, false, &mut trace);
    let (exact, pot) = direct_serial_pot(&pos, &mass, 1e-4, &counter);
    let mut rms = 0.0;
    for (a, e) in res.acc.iter().zip(&exact) {
        let rel = (*a - *e).norm() / e.norm().max(1e-12);
        rms += rel * rel;
    }
    println!(
        "treecode: {} interactions (N² would need {}), RMS force error {:.1e}",
        res.stats.interactions(),
        n * (n - 1),
        (rms / n as f64).sqrt()
    );

    // Where that force evaluation spent its (model-clock) time, phase by
    // phase — the same ledger the distributed runs reduce across ranks.
    println!("{}", RunReport::from_single(&trace).render_table());

    // A short integration with the treecode in the loop.
    let mut sys = NBodySystem::new(pos, vel, mass, 1e-4);
    let e0 = sys.kinetic_energy() + sys.potential_energy(&pot);
    let counter = FlopCounter::new();
    let mass_c = sys.mass.clone();
    let counter_ref = &counter;
    // One ForceCalc for the whole integration: its interaction-list buffers
    // are reused across steps instead of being reallocated each call.
    let mut calc = ForceCalc::new();
    let mut forces = move |p: &[hot_base::Vec3]| {
        let domain = bounding_domain(p);
        calc.compute(domain, p, &mass_c, &opts, counter_ref, false).acc
    };
    let mut acc = forces(&sys.pos);
    let dt = 0.02;
    for step in 1..=100 {
        sys.kdk_step(&mut acc, dt, &mut forces);
        if step % 25 == 0 {
            let (_, pot) = direct_serial_pot(&sys.pos, &sys.mass, 1e-4, &counter);
            let e = sys.kinetic_energy() + sys.potential_energy(&pot);
            println!(
                "step {step:>4}: t = {:>5.2}, energy drift {:+.2e}",
                step as f64 * dt,
                (e - e0) / e0.abs()
            );
        }
    }
    let rep = counter.report();
    println!("total flops (paper convention, 38/interaction): {:.2e}", rep.flops() as f64);
}
