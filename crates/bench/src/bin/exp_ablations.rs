//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. hash-table cell addressing vs `std::collections::HashMap`,
//! 2. Barnes–Hut vs Salmon–Warren MAC at matched accuracy,
//! 3. monopole vs quadrupole expansions at matched accuracy,
//! 4. work-weighted vs uniform-count domain decomposition under
//!    clustering,
//! 5. ABM batch size vs physical message count.

use hot_comm::RunConfig;
use hot_base::flops::FlopCounter;
use hot_base::Aabb;
use hot_bench::{clustered_bodies, header};
use hot_comm::Abm;
use hot_core::decomp::decompose;
use hot_core::htable::KeyTable;
use hot_core::Mac;
use hot_gravity::error::force_accuracy;
use hot_gravity::models::uniform_box;
use hot_gravity::treecode::TreecodeOptions;
use hot_morton::Key;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    ablation_hashtable();
    ablation_mac();
    ablation_multipole();
    ablation_decomp();
    ablation_abm();
}

fn ablation_hashtable() {
    header("Ablation 1: KeyTable vs std HashMap (hot-path key lookups)");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let keys: Vec<Key> = (0..200_000)
        .map(|_| Key((1u64 << 63) | rng.gen::<u64>() >> 1))
        .collect();
    let mut kt = KeyTable::with_capacity(keys.len());
    let mut hm = std::collections::HashMap::new();
    for (i, &k) in keys.iter().enumerate() {
        kt.insert(k, i as u32);
        hm.insert(k, i as u32);
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..5 {
        for &k in &keys {
            acc += kt.get(k).expect("present") as u64;
        }
    }
    let t_kt = t0.elapsed();
    let t0 = Instant::now();
    let mut acc2 = 0u64;
    for _ in 0..5 {
        for &k in &keys {
            acc2 += *hm.get(&k).expect("present") as u64;
        }
    }
    let t_hm = t0.elapsed();
    assert_eq!(acc, acc2);
    println!("  1M lookups: KeyTable {t_kt:?} vs std HashMap {t_hm:?} ({:.2}x)",
        t_hm.as_secs_f64() / t_kt.as_secs_f64());
}

fn ablation_mac() {
    header("Ablation 2: Barnes-Hut vs Salmon-Warren at matched RMS error");
    let n = 2_000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let pos = uniform_box(&mut rng, n, &Aabb::unit());
    let mass = vec![1.0 / n as f64; n];
    for mac in [Mac::BarnesHut { theta: 0.55 }, Mac::SalmonWarren { delta: 3e-6 }] {
        let opts = TreecodeOptions { mac, bucket: 16, eps2: 1e-10, quadrupole: true };
        let rep = force_accuracy(Aabb::unit(), &pos, &mass, &opts);
        println!(
            "  {:>18}: rms {:.2e}  interactions {}",
            mac.name(),
            rep.rms,
            rep.tree_interactions
        );
    }
    println!("  (the error-bound MAC concentrates work where B2 demands it)");
}

fn ablation_multipole() {
    header("Ablation 3: monopole-only vs monopole+quadrupole at matched error");
    let n = 2_000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let pos = uniform_box(&mut rng, n, &Aabb::unit());
    let mass = vec![1.0 / n as f64; n];
    // Tune each to ~2e-4 rms.
    for (label, quad, theta) in [("monopole", false, 0.35), ("mono+quad", true, 0.65)] {
        let opts = TreecodeOptions {
            mac: Mac::BarnesHut { theta },
            bucket: 16,
            eps2: 1e-10,
            quadrupole: quad,
        };
        let rep = force_accuracy(Aabb::unit(), &pos, &mass, &opts);
        let flops = rep.tree_interactions
            * if quad { hot_base::FLOPS_PER_QUAD_INTERACTION } else { hot_base::FLOPS_PER_GRAV_INTERACTION };
        println!(
            "  {label:>10} (theta={theta}): rms {:.2e}  interactions {}  ~flops {}",
            rep.rms, rep.tree_interactions, flops
        );
    }
    println!("  (quadrupoles buy a much looser angle for the same error)");
}

fn ablation_decomp() {
    header("Ablation 4: work-weighted vs uniform decomposition under clustering");
    let np = 8u32;
    for weighted in [false, true] {
        let out = RunConfig::builder().np(np).run(move |c| {
            let mut bodies = clustered_bodies(c.rank(), 3_000, 11, 6);
            if weighted {
                // First pass to learn weights.
                let counter = FlopCounter::new();
                let opts = hot_gravity::dist::DistOptions { eps2: 1e-8, ..Default::default() };
                let res = hot_gravity::dist::distributed_accelerations(
                    c,
                    bodies,
                    Aabb::unit(),
                    &opts,
                    &counter,
                );
                bodies = res.bodies;
            }
            let (mine, _) = decompose(c, bodies, 64);
            // Evaluate the realized work of this decomposition.
            let counter = FlopCounter::new();
            let pos: Vec<_> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<_> = mine.iter().map(|b| b.charge).collect();
            let tree = hot_core::tree::Tree::<hot_core::MassMoments>::build(
                Aabb::unit(),
                &pos,
                &q,
                16,
            );
            let mut acc = vec![hot_base::Vec3::ZERO; pos.len()];
            let mut work = vec![0.0f32; pos.len()];
            let mut ev = hot_gravity::GravityEvaluator {
                acc: &mut acc,
                pot: None,
                eps2: 1e-8,
                quadrupole: false,
                counter: &counter,
                work: &mut work,
                base: 0,
            };
            let stats = hot_core::walk::walk_lists(&tree, &Mac::BarnesHut { theta: 0.7 }, &mut ev);
            stats.interactions()
        });
        let max = *out.results.iter().max().unwrap() as f64;
        let mean = out.results.iter().sum::<u64>() as f64 / np as f64;
        println!(
            "  {}: local-walk imbalance max/mean = {:.2}",
            if weighted { "work-weighted " } else { "uniform-count " },
            max / mean
        );
    }
    println!("  (weights measured from the previous step flatten the clustered hot spots)");
}

fn ablation_abm() {
    header("Ablation 5: ABM batch size vs physical messages");
    for batch in [64usize, 1024, 16 * 1024] {
        let out = RunConfig::builder().np(4).run(move |c| {
            let mut abm = Abm::new(c, batch);
            let np = abm.size();
            for i in 0..3_000u64 {
                abm.post((i % np as u64) as u32, 1, &i);
            }
            abm.complete(|_, _, _, _| {});
            abm.stats()
        });
        let batches: u64 = out.results.iter().map(|s| s.batches_sent).sum();
        let posted: u64 = out.results.iter().map(|s| s.posted).sum();
        println!(
            "  batch {batch:>6} B: {posted} logical messages in {batches} physical batches ({:.0} per batch)",
            posted as f64 / batches as f64
        );
    }
    println!("  (208 us fast-ethernet latency is why the paper batches)");
}
