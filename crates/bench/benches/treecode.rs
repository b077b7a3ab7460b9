//! Whole-pipeline benchmarks: tree construction and the force walk, at a
//! ladder of particle counts — the costs behind every headline experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}
use hot_base::flops::FlopCounter;
use hot_base::Aabb;
use hot_core::moments::MassMoments;
use hot_core::tree::Tree;
use hot_core::Mac;
use hot_gravity::models::uniform_box;
use hot_gravity::treecode::{ForceCalc, TreecodeOptions};
use rand::SeedableRng;

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_build");
    g.sample_size(20);
    for &n in &[1_000usize, 10_000] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let pos = uniform_box(&mut rng, n, &Aabb::unit());
        let mass = vec![1.0; n];
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| Tree::<MassMoments>::build(Aabb::unit(), &pos, &mass, 16).n_cells());
        });
    }
    g.finish();
}

fn bench_force(c: &mut Criterion) {
    let mut g = c.benchmark_group("treecode_forces");
    g.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let pos = uniform_box(&mut rng, n, &Aabb::unit());
        let mass = vec![1.0 / n as f64; n];
        for theta in [0.5, 0.8] {
            let opts = TreecodeOptions {
                mac: Mac::BarnesHut { theta },
                bucket: 16,
                eps2: 1e-8,
                quadrupole: true,
            };
            g.bench_with_input(
                BenchmarkId::new(format!("theta{theta}"), n),
                &n,
                |b, _| {
                    let counter = FlopCounter::new();
                    let mut calc = ForceCalc::new();
                    b.iter(|| {
                        calc.compute(Aabb::unit(), &pos, &mass, &opts, &counter, false)
                            .stats
                            .interactions()
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group! { name = benches; config = quick(); targets = bench_build, bench_force }
criterion_main!(benches);
