//! Microbenchmarks of the interaction kernels (experiment H8): Karp's
//! add/multiply-only reciprocal square root against the hardware
//! `1/sqrt`, and the full gravity/vortex kernels built on it.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}
use hot_base::rsqrt::{rsqrt, rsqrt_f32};
use hot_base::{SymMat3, Vec3};
use hot_core::ilist::{PcView, PpView, Segment};
use hot_core::moments::MassMoments;
use hot_gravity::kernels::{apply_segment, pc_quad_acc, pp_acc, span_kernel};
use hot_vortex::kernel::velocity_and_stretching;

fn bench_rsqrt(c: &mut Criterion) {
    let inputs: Vec<f64> = (1..1000).map(|i| 0.001 + i as f64 * 0.37).collect();
    let mut g = c.benchmark_group("rsqrt");
    g.bench_function("karp_f64", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in &inputs {
                acc += rsqrt(black_box(x));
            }
            acc
        });
    });
    g.bench_function("hardware_f64", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in &inputs {
                acc += 1.0 / black_box(x).sqrt();
            }
            acc
        });
    });
    g.bench_function("karp_f32", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &x in &inputs {
                acc += rsqrt_f32(black_box(x as f32));
            }
            acc
        });
    });
    g.finish();
}

fn bench_interactions(c: &mut Criterion) {
    let mut g = c.benchmark_group("interaction");
    let d = Vec3::new(0.3, -0.2, 0.9);
    g.bench_function("gravity_monopole_38flop", |b| {
        b.iter(|| pp_acc(black_box(d), black_box(1.5), black_box(1e-6)));
    });
    let quad = SymMat3::new(0.1, 0.2, 0.3, 0.01, 0.02, 0.03);
    g.bench_function("gravity_quadrupole", |b| {
        b.iter(|| pc_quad_acc(black_box(d), black_box(1.5), black_box(&quad), black_box(1e-6)));
    });
    let ai = Vec3::new(0.1, 0.0, 0.2);
    let aj = Vec3::new(0.0, 0.3, -0.1);
    g.bench_function("vortex_velocity_stretching", |b| {
        b.iter(|| velocity_and_stretching(black_box(d), black_box(ai), black_box(aj), black_box(0.01)));
    });
    g.finish();
}

/// The production apply path, `apply_segment`: a 32-sink group against a
/// 1 024-cell quadrupole segment and a 16-source ghost P-P segment, through
/// the lane body the host selects; and 12- and 5-sink groups against the
/// same cells — under AVX-512 one 8-wide block plus a 4-wide tail, and one
/// padded 8-wide block. Reported per interaction, next to the scalar
/// `interaction` rows above.
fn bench_span(c: &mut Criterion) {
    println!("span kernels: {}", span_kernel());
    let coord = |i: usize, s: f64| 0.5 + (i as f64 * s).sin() * 0.4;
    let sinks: Vec<Vec3> =
        (0..32).map(|i| Vec3::new(coord(i, 0.7), coord(i, 1.3), coord(i, 2.1)) * 0.1).collect();
    let far = |n: usize| -> [Vec<f64>; 3] {
        [0.37, 0.91, 1.57].map(|s| (0..n).map(|j| 2.0 + coord(j, s)).collect())
    };
    let mut acc = vec![Vec3::ZERO; sinks.len()];
    let mut g = c.benchmark_group("span");

    let [x, y, z] = far(1024);
    let quad = SymMat3::new(0.1, 0.2, 0.3, 0.01, 0.02, 0.03);
    let m = vec![MassMoments { mass: 1.5, quad, b2: quad.trace() }; 1024];
    let cells = Segment::Pc(PcView::<MassMoments> { x: &x, y: &y, z: &z, m: &m });
    for n in [32, 12, 5] {
        g.throughput(Throughput::Elements(n as u64 * 1024));
        g.bench_function(format!("quadrupole_{n}_sinks_x_1024_cells"), |b| {
            let acc = &mut acc[..n];
            b.iter(|| apply_segment(black_box(&cells), &sinks, 0..n, 1e-6, true, acc, &mut []));
        });
    }

    let [x, y, z] = far(16);
    let (q, idx) = (vec![1.5; 16], vec![u32::MAX; 16]);
    let src = Segment::Pp(PpView::<MassMoments> { x: &x, y: &y, z: &z, q: &q, idx: &idx });
    g.throughput(Throughput::Elements(32 * 16));
    g.bench_function("monopole_32_sinks_x_16_sources", |b| {
        b.iter(|| apply_segment(black_box(&src), &sinks, 0..32, 1e-6, false, &mut acc, &mut []));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_rsqrt, bench_interactions, bench_span
}
criterion_main!(benches);
