//! Experiment H2: the 322-million-body treecode runs on ASCI Red —
//! 430 Gflops on 6800 processors (first 5 steps, unclustered) and
//! 170 Gflops sustained over 9.4 h on 4096 processors (clustered).
//!
//! The full distributed pipeline (weighted decomposition → local trees →
//! branch exchange → ABM latency-hiding walk) runs at a ladder of particle
//! counts; interactions-per-particle is fit against log N and extrapolated
//! to the paper's N. The clustered stage reruns with a clumped
//! distribution to measure the load-imbalance and traversal overheads that
//! explain the 430 → 170 drop.
//!
//! Args: `exp_treecode_asci [np] [n_per_rank]` (defaults 8 and a built-in
//! ladder). Ranks are fibers, so np = 1024+ machines run for real instead
//! of extrapolating from np = 8.

use hot_comm::RunConfig;
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, FLOPS_PER_GRAV_INTERACTION};
use hot_bench::{arg_usize, clustered_bodies, header, random_bodies};
use hot_gravity::dist::{
    distributed_accelerations, distributed_step_traced, DecompState, DistOptions,
};
use hot_machine::specs::{
    ASCI_RED_4096, ASCI_RED_6800, ASCI_RED_TREE_EARLY_MFLOPS_PER_PROC,
    ASCI_RED_TREE_SUSTAINED_MFLOPS_PER_PROC,
};
use hot_trace::ModelClock;
use std::time::Instant;

struct Sample {
    n: usize,
    inter_per_particle: f64,
    max_over_mean_work: f64,
    /// Measured wall-clock / pure-kernel-time ratio: the paper's "much of
    /// the useful work … has nothing to do with floating point operations"
    /// traversal overhead, measured on our own hardware and reported as an
    /// observation alongside the count-driven model.
    overhead: f64,
}

/// Nanoseconds per particle-particle kernel call on this machine.
fn calibrate_kernel_ns() -> f64 {
    let d = hot_base::Vec3::new(0.3, 0.2, 0.1);
    let t0 = Instant::now();
    let mut acc = hot_base::Vec3::ZERO;
    let reps = 2_000_000;
    for i in 0..reps {
        acc += hot_gravity::kernels::pp_acc(d, 1.0 + (i % 7) as f64, 1e-8);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / reps as f64
}

/// Per-rank fiber stack: pages map lazily, and 2 MiB carries the full
/// pipeline.
const STACK: usize = 2 << 20;

fn run_at(np: u32, n_local: usize, clustered: bool, kernel_ns: f64) -> Sample {
    let t0 = Instant::now();
    let out = RunConfig::builder().np(np).stack_size(STACK).run(move |c| {
        let bodies = if clustered {
            clustered_bodies(c.rank(), n_local, 99, 8)
        } else {
            random_bodies(c.rank(), n_local, 7)
        };
        let counter = FlopCounter::new();
        let opts = DistOptions {
            mac: hot_core::Mac::BarnesHut { theta: 0.55 },
            eps2: 1e-8,
            ..Default::default()
        };
        let res = distributed_accelerations(c, bodies, Aabb::unit(), &opts, &counter);
        res.stats.walk.interactions()
    });
    let wall = t0.elapsed().as_secs_f64();
    let total_inter: u64 = out.results.iter().sum();
    let max_inter = out.results.iter().copied().max().unwrap_or(0);
    let mean_inter = total_inter as f64 / np as f64;
    let n = np as usize * n_local;
    // Wall-clock over the pure kernel time of the busiest rank = the
    // traversal/decomposition/communication overhead multiplier.
    let kernel_s = max_inter as f64 * kernel_ns * 1e-9;
    Sample {
        n,
        inter_per_particle: total_inter as f64 / n as f64,
        max_over_mean_work: max_inter as f64 / mean_inter.max(1.0),
        overhead: (wall / kernel_s.max(1e-12)).max(1.0),
    }
}

/// Clustered-stage imbalance under the feedback-driven decomposition: the
/// same clumped ICs stepped three times through `distributed_step_traced`
/// so the cost loop converges, reporting the last step's max/mean
/// walk-interaction skew next to the static one-shot's.
fn clustered_adaptive_imbalance(np: u32, n_local: usize) -> f64 {
    let out = RunConfig::builder().np(np).stack_size(STACK).run(move |c| {
        let mut bodies = clustered_bodies(c.rank(), n_local, 99, 8);
        let counter = FlopCounter::new();
        let opts = DistOptions {
            mac: hot_core::Mac::BarnesHut { theta: 0.55 },
            eps2: 1e-8,
            ..Default::default()
        };
        let mut state = DecompState::default();
        let mut trace = hot_trace::Ledger::scratch();
        let mut last = 0u64;
        for _ in 0..3 {
            let res = distributed_step_traced(
                c,
                bodies,
                Aabb::unit(),
                &opts,
                &counter,
                &mut state,
                &mut trace,
            );
            last = res.stats.walk.interactions();
            bodies = res.bodies;
        }
        last
    });
    let total: u64 = out.results.iter().sum();
    let max = out.results.iter().copied().max().unwrap_or(0);
    max as f64 / (total as f64 / f64::from(np)).max(1.0)
}

fn main() {
    let np = arg_usize(1, 8) as u32;
    let n_per_rank = arg_usize(2, 0); // 0 = the default ladder below
    header("Experiment H2: treecode on ASCI Red (paper: 430 Gflops early, 170 sustained)");
    println!("np = {np}");
    let kernel_ns = calibrate_kernel_ns();
    println!("kernel calibration: {kernel_ns:.1} ns per 38-flop interaction on this machine");

    // Interactions/particle vs N (uniform = early universe).
    println!("interactions per particle vs N (uniform distribution, theta=0.7):");
    // At the paper's machine sizes (np >= 1024) total N explodes, so the
    // ladder is per-rank-scaled (or overridden by argv[2]) to keep a
    // measured step affordable while still exercising the full pipeline.
    let ladder: Vec<usize> = if n_per_rank > 0 {
        vec![n_per_rank]
    } else if np >= 256 {
        vec![16, 32, 64]
    } else {
        vec![2_000, 4_000, 8_000, 16_000]
    };
    let mut samples = Vec::new();
    for &per in &ladder {
        let s = run_at(np, per, false, kernel_ns);
        println!(
            "  N = {:>7}:  {:>7.1} inter/particle   imbalance {:.2}   overhead x{:.2}",
            s.n, s.inter_per_particle, s.max_over_mean_work, s.overhead
        );
        samples.push(s);
    }
    // Fit inter/particle = a + b ln N (single-point ladders pin b = 0).
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for s in &samples {
        let x = (s.n as f64).ln();
        sx += x;
        sy += s.inter_per_particle;
        sxx += x * x;
        sxy += x * s.inter_per_particle;
    }
    let m = samples.len() as f64;
    let det = m * sxx - sx * sx;
    let b = if det.abs() > 1e-9 { (m * sxy - sx * sy) / det } else { 0.0 };
    let a = (sy - b * sx) / m;
    println!("  fit: inter/particle = {a:.1} + {b:.1} ln N");

    // Extrapolate to the paper's run.
    let n322: f64 = 322_159_436.0;
    let ipp = a + b * n322.ln();
    println!("\nextrapolated to N = 322,159,436: {ipp:.0} inter/particle");
    let inter_5_steps = ipp * n322 * 5.0;
    println!(
        "  5 timesteps: {inter_5_steps:.2e} interactions (paper measured 7.18e12)"
    );
    let flops = (inter_5_steps * FLOPS_PER_GRAV_INTERACTION as f64) as u64;
    // Predict with the paper's own measured tree-phase per-processor rate
    // (our contribution is the counted work; our stack's software overhead,
    // printed above, reflects this implementation, not the 1997 code).
    let early = ModelClock {
        mflops_per_proc: ASCI_RED_TREE_EARLY_MFLOPS_PER_PROC,
        ..ModelClock::of(&ASCI_RED_6800)
    };
    let t5 = early.phase_seconds(flops, 0, &[]);
    println!(
        "  ASCI Red 6800-proc model: {:.0} s for 5 steps -> {:.0} Gflops",
        t5,
        flops as f64 / t5 / 1e9
    );
    println!("  (paper: 632 s, 431 Gflops; the time ratio tracks the interaction-count ratio)");

    // Clustered stage: imbalance + deeper traversals.
    println!("\nclustered (late-universe) stage:");
    let s = run_at(np, ladder[ladder.len() - 1], true, kernel_ns);
    println!(
        "  N = {:>7}:  {:>7.1} inter/particle   imbalance {:.2}   overhead x{:.2}",
        s.n, s.inter_per_particle, s.max_over_mean_work, s.overhead
    );
    let imb_ad = clustered_adaptive_imbalance(np, ladder[ladder.len() - 1]);
    println!(
        "  adaptive decomposition (3 steps, converged): imbalance {:.2} (static {:.2})",
        imb_ad, s.max_over_mean_work
    );
    let ipp_cl = s.inter_per_particle / samples[samples.len() - 1].inter_per_particle * ipp;
    let inter_287 = ipp_cl * n322 * 287.0; // steps 150..437
    let flops_cl = (inter_287 * FLOPS_PER_GRAV_INTERACTION as f64) as u64;
    // The sustained rate already folds in the paper's measured clustering
    // penalty; our measured imbalance shows the same mechanism at small np.
    let sustained = ModelClock {
        mflops_per_proc: ASCI_RED_TREE_SUSTAINED_MFLOPS_PER_PROC,
        ..ModelClock::of(&ASCI_RED_4096)
    };
    let t287 = sustained.phase_seconds(flops_cl, 0, &[]);
    println!(
        "  ASCI Red 4096-proc model: {:.1} h for 287 steps -> {:.0} Gflops (paper: 9.4 h, 170 Gflops)",
        t287 / 3600.0,
        flops_cl as f64 / t287 / 1e9
    );
    println!(
        "  particles updated/second: {:.2e} (paper: 3e6/s; N^2 would do 52/s)",
        n322 * 287.0 / t287
    );
}
