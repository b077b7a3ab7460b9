//! Experiment H3: the algorithmic advantage — "This treecode solution is
//! approximately 10⁵ times more efficient than the O(N²) algorithm for
//! this problem", and the closing claim that the treecode on ASCI Red is
//! worth "special purpose hardware running an N² algorithm at … 25
//! Exaflops".

use hot_base::flops::FlopCounter;
use hot_base::FLOPS_PER_GRAV_INTERACTION;
use hot_bench::{arg_usize, header};
use hot_gravity::models::uniform_box;
use hot_gravity::treecode::{ForceCalc, TreecodeOptions};
use hot_machine::specs::ASCI_RED_6800;
use hot_trace::ModelClock;
use rand::SeedableRng;

fn main() {
    header("Experiment H3: treecode vs N^2 operation counts");
    let base_n = arg_usize(1, 4_000);

    // Measure interactions/particle at a ladder of N, fit the log.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut fit_pts = Vec::new();
    let mut calc = ForceCalc::new();
    println!("{:>9} {:>14} {:>14} {:>10}", "N", "tree inter", "N^2 inter", "ratio");
    for mult in [1usize, 2, 4] {
        let n = base_n * mult;
        let pos = uniform_box(&mut rng, n, &hot_base::Aabb::unit());
        let mass = vec![1.0 / n as f64; n];
        let counter = FlopCounter::new();
        let opts = TreecodeOptions { eps2: 1e-8, ..Default::default() };
        let res = calc.compute(hot_base::Aabb::unit(), &pos, &mass, &opts, &counter, false);
        let tree_i = res.stats.interactions();
        let n2_i = (n as u64) * (n as u64 - 1);
        println!(
            "{:>9} {:>14} {:>14} {:>10.1}",
            n,
            tree_i,
            n2_i,
            n2_i as f64 / tree_i as f64
        );
        fit_pts.push((n as f64, tree_i as f64 / n as f64));
    }
    // Linear fit in ln N.
    let m = fit_pts.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(n, ipp) in &fit_pts {
        let x = n.ln();
        sx += x;
        sy += ipp;
        sxx += x * x;
        sxy += x * ipp;
    }
    let b = (m * sxy - sx * sy) / (m * sxx - sx * sx);
    let a = (sy - b * sx) / m;

    let n322: f64 = 322_159_436.0;
    let ipp = a + b * n322.ln();
    let tree_total = ipp * n322;
    let n2_total = n322 * n322;
    println!("\nAt the paper's N = 322,159,436:");
    println!("  treecode: {tree_total:.2e} interactions per step ({ipp:.0}/particle)");
    println!("  N^2:      {n2_total:.2e} interactions per step");
    println!(
        "  advantage factor: {:.1e}   (paper: ~1e5)",
        n2_total / tree_total
    );

    // The 25-Exaflop equivalence: the treecode's useful update rate, recast
    // as the N² flop rate that special-purpose hardware would need.
    let tree_flops = (tree_total * FLOPS_PER_GRAV_INTERACTION as f64) as u64;
    let tree_step_s = ModelClock::of(&ASCI_RED_6800).phase_seconds(tree_flops, 0, &[]);
    let equiv_flops = n2_total * FLOPS_PER_GRAV_INTERACTION as f64 / tree_step_s;
    println!(
        "\n  one treecode step on 6800 PPros: {tree_step_s:.0} s -> {:.1e} particles/s (paper: 3e6/s)",
        n322 / tree_step_s
    );
    println!(
        "  equivalent N^2 machine: {:.1e} flops/s = {:.1} Exaflops (paper: 25 Exaflops)",
        equiv_flops,
        equiv_flops / 1e18
    );
}
