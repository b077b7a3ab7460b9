//! Experiment H5: the Hyglac vortex-ring-fusion run — two rings, 57k
//! growing to 360k particles over 340 steps through remeshing, sustaining
//! ~950 Mflops (65+ Mflops per processor, counted with the Pentium Pro
//! hardware performance monitors; here counted explicitly in the kernel).
//!
//! Arguments: `[n_phi=48] [steps=20]`.

use hot_base::flops::FlopCounter;
use hot_base::Vec3;
use hot_bench::{arg_usize, header};
use hot_machine::cost::dollars_per_mflop;
use hot_machine::specs::HYGLAC;
use hot_trace::ModelClock;
use hot_vortex::ring::{linear_impulse, make_ring, total_vorticity, RingSpec};
use hot_vortex::sim::VortexSim;

fn main() {
    let n_phi = arg_usize(1, 48);
    let steps = arg_usize(2, 20);
    header("Experiment H5: vortex ring fusion on 'Hyglac' (paper: ~950 Mflops over 20 h)");

    // Two offset rings angled toward each other — the classic fusion setup.
    let spec_a = RingSpec {
        center: Vec3::new(-0.7, 0.0, 0.0),
        normal: Vec3::new(0.15, 0.0, 1.0),
        radius: 1.0,
        core: 0.15,
        circulation: 1.0,
        n_phi,
        n_core: 2,
    };
    let spec_b = RingSpec {
        center: Vec3::new(0.7, 0.0, 0.0),
        normal: Vec3::new(-0.15, 0.0, 1.0),
        ..spec_a
    };
    let (mut pos, mut alpha) = make_ring(&spec_a);
    let (pb, ab) = make_ring(&spec_b);
    pos.extend(pb);
    alpha.extend(ab);
    let n0 = pos.len();
    println!("initial particles: {n0} (paper: 57,000)");

    let mut sim = VortexSim::new(pos, alpha, 0.15);
    sim.theta = 0.5;
    let counter = FlopCounter::new();
    let omega0 = total_vorticity(&sim.alpha);
    let imp0 = linear_impulse(&sim.pos, &sim.alpha);
    let dt = 0.04;
    let mut total_inter = 0u64;
    for s in 0..steps {
        total_inter += sim.step_rk2(dt, &counter);
        // Remesh every 8 steps to maintain core overlap, as the paper
        // describes ("occasionally remeshed").
        if (s + 1) % 8 == 0 {
            let before = sim.len();
            sim.remesh_now(0.11, 0.02);
            println!(
                "  step {:>3}: remesh {} -> {} particles",
                s + 1,
                before,
                sim.len()
            );
        }
    }
    println!(
        "after {steps} steps: {} particles ({} remeshes; paper grew 57k -> 360k over 340 steps)",
        sim.len(),
        sim.remeshes
    );
    let omega1 = total_vorticity(&sim.alpha);
    let imp1 = linear_impulse(&sim.pos, &sim.alpha);
    println!(
        "invariant drift: |dOmega| = {:.2e}, |dI|/|I| = {:.2e}",
        (omega1 - omega0).norm(),
        (imp1 - imp0).norm() / imp0.norm()
    );

    let rep = counter.report();
    println!(
        "interactions: {total_inter} -> {} flops (123 per interaction, counted in-kernel)",
        rep.flops()
    );

    // Hyglac model: the paper's 20-hour run did 340 steps at 360k-scale.
    // Scale our measured per-step interaction density to that size.
    let ipp = total_inter as f64 / (steps as f64 * sim.len() as f64);
    // Interactions/particle grows ~ log N between our scale and the paper's.
    let log_scale = (360_000.0f64).ln() / (sim.len() as f64).ln();
    let paper_inter = ipp * log_scale * 360_000.0 * 340.0;
    let flops = (paper_inter * hot_base::FLOPS_PER_VORTEX_INTERACTION as f64) as u64;
    let s = ModelClock::of(&HYGLAC).phase_seconds(flops, 0, &[]);
    let mflops = flops as f64 / s / 1e6;
    println!("\nHyglac model at paper scale (360k particles, 340 steps):");
    println!("  predicted {:.1} h at {mflops:.0} Mflops (paper: ~20 h at ~950 Mflops)", s / 3600.0);
    println!(
        "  price/performance: {:.0} $/Mflop on the $50,498 machine",
        dollars_per_mflop(50_498.0, mflops)
    );
}
