//! Experiment H1: the 1-million-body O(N²) benchmark — "635 Gflops" on
//! 6800 Pentium Pro processors, 239.3 seconds for four timesteps.
//!
//! The ring algorithm runs for real (scaled N) on the simulated machine;
//! flop counts use the paper's 38-flop convention; the ASCI Red model then
//! predicts the full-size run.

use hot_comm::RunConfig;
use hot_base::flops::FlopCounter;
use hot_base::Vec3;
use hot_bench::{arg_usize, header};
use hot_gravity::direct::direct_ring;
use hot_machine::specs::ASCI_RED_6800;
use hot_trace::ModelClock;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let np = arg_usize(1, 8) as u32;
    let n_local = arg_usize(2, 1500);
    header("Experiment H1: O(N^2) ring benchmark (paper: 635 Gflops, 239.3 s)");

    let t0 = Instant::now();
    let out = RunConfig::builder().np(np).run(move |c| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(c.rank() as u64);
        let pos: Vec<Vec3> =
            (0..n_local).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect();
        let mass = vec![1.0 / (n_local as f64 * c.size() as f64); n_local];
        let counter = FlopCounter::new();
        let acc = direct_ring(c, &pos, &mass, 1e-8, &counter);
        (acc.len(), counter.report().flops())
    });
    let elapsed = t0.elapsed();
    let n_total = np as usize * n_local;
    let flops: u64 = out.results.iter().map(|&(_, f)| f).sum();
    println!("measured: N = {n_total} on {np} ranks");
    println!("  interactions-derived flops: {flops} ({} per body pair)", 38);
    println!(
        "  local wall-clock {:.3} s  ->  {:.2} Gflops on this machine",
        elapsed.as_secs_f64(),
        flops as f64 / elapsed.as_secs_f64() / 1e9
    );
    let traffic = out.total_traffic();
    println!(
        "  ring traffic: {} msgs, {:.1} MB total (scales O(N), not O(N^2))",
        traffic.sends,
        traffic.bytes_sent as f64 / 1e6
    );

    // Model the paper's exact run: 1e6 bodies, 4 steps, 6800 processors.
    let n: u64 = 1_000_000;
    let paper_flops = n * n * 38 * 4;
    let red = ModelClock::of(&ASCI_RED_6800);
    let s = red.phase_seconds(paper_flops, 0, &[]);
    println!("\nASCI Red model at N = 1e6, 4 steps, 6800 processors:");
    println!("  predicted time   {s:>8.1} s   (paper: 239.3 s)");
    println!("  predicted rate   {:>8.1} Gflops (paper: 635)", paper_flops as f64 / s / 1e9);
    // The paper's "52 particles/s" figure is N / (time for one full force
    // evaluation at science scale N = 322M):
    let n322: u64 = 322_159_436;
    let t_one_step = red.phase_seconds(n322 * n322 * 38, 0, &[]);
    println!(
        "  at N = 322M an N^2 step takes {:.2e} s -> {:.0} particles updated/s (paper: 52)",
        t_one_step,
        n322 as f64 / t_one_step
    );
}
