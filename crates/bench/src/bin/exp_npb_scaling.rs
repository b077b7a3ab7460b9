//! Experiments T4 & F3: Table 4 / Figure 3 — NPB Class A scaling on Loki
//! as a function of processor count.
//!
//! Runs every kernel at NC ∈ {1, 2, 4, 8, 16} (the paper also lists 9 for
//! BT/SP; our slab decompositions require NC | n) and prints both the
//! measured Mop/s on this machine and the Loki-model prediction, which is
//! the series Figure 3 plots.

use hot_comm::RunConfig;
use hot_bench::{header, npb_model_mops};
use hot_comm::RunOutput;
use hot_machine::specs::LOKI;
use hot_npb::common::BenchResult;

fn main() {
    let n = hot_bench::arg_usize(1, 32).next_power_of_two();
    header("Experiment T4/F3 (Table 4, Figure 3): NPB scaling with processor count");
    let counts = [1u32, 2, 4, 8, 16];

    println!("Loki-model Mop/s (per benchmark row, NC = 1,2,4,8,16):\n");
    println!("{:>4} {:>9} {:>9} {:>9} {:>9} {:>9}", "NC", 1, 2, 4, 8, 16);

    let mut table: Vec<(&str, Vec<f64>)> = Vec::new();
    for &name in &["BT", "SP", "LU", "FT", "MG", "IS", "EP"] {
        let mut series = Vec::new();
        for &np in &counts {
            let out: RunOutput<BenchResult> = match name {
                "BT" => RunConfig::builder().np(np).run(|c| hot_npb::apps::run_bt(c, n, 2)),
                "SP" => RunConfig::builder().np(np).run(|c| hot_npb::apps::run_sp(c, n, 2)),
                "LU" => RunConfig::builder().np(np).run(|c| hot_npb::apps::run_lu(c, n, 4)),
                "FT" => RunConfig::builder().np(np).run(|c| hot_npb::ft::run(c, n, 2)),
                "MG" => RunConfig::builder().np(np).run(|c| hot_npb::mg::run_distributed(c, n, 2)),
                "IS" => RunConfig::builder().np(np).run(|c| hot_npb::is::run(c, 18, 16)),
                "EP" => RunConfig::builder().np(np).run(|c| hot_npb::ep::run(c, 18).0),
                _ => unreachable!(),
            };
            assert!(out.results.iter().all(|r| r.verified), "{name} at np={np}");
            let per_proc_mops = if name == "EP" { 0.6 } else { 25.0 };
            series.push(npb_model_mops(&out, LOKI.network, per_proc_mops));
        }
        table.push((name, series));
    }
    for (name, series) in &table {
        print!("{name:>4}");
        for v in series {
            print!(" {v:>9.1}");
        }
        println!();
    }

    println!("\nParallel efficiency at NC=16 (Figure 3's visual):");
    for (name, series) in &table {
        let eff = series[4] / (16.0 * series[0]);
        println!("  {name}: {:.0}%", eff * 100.0);
    }

    println!("\nPaper's Table 4 (Class A, Mflops on Loki):");
    println!("  NC    BT    SP    LU    FT    MG    IS");
    println!("   1     -    19    31     -     -   2.5");
    println!("   4    94    71   118    73    78   5.7");
    println!("   8     -     -   222   134   161   9.3");
    println!("  16   358   242   453   250   281  15.0");
    println!("\nShape check: near-linear scaling for the compute-bound app benchmarks,");
    println!("sublinear for IS — the fast-ethernet bandwidth wall.");
}
