//! The O(N²) direct summation baseline.
//!
//! The paper is pointed about this algorithm — *"we are not fans of the
//! trivial O(N²) solution"* — but benchmarks it anyway (635 Gflops on 6800
//! processors for 10⁶ particles) to compare raw machine speed against the
//! GRAPE special-purpose hardware, and to quantify how much a smart
//! algorithm buys: ~10⁵× for the 322-million-particle problem. We implement
//! both forms used there:
//!
//! * a serial double loop,
//! * the distributed **ring** algorithm: blocks of bodies circulate around
//!   the ranks, each rank accumulating partial forces on its own block
//!   (communication O(N), computation O(N²/P) — the property that makes
//!   the N² benchmark embarrassingly scalable).

use crate::kernels::{pp_acc, pp_acc_pot};
use hot_base::flops::{FlopCounter, Kind};
use hot_base::Vec3;
use hot_comm::Comm;

/// Serial direct sum: accelerations on every particle.
pub fn direct_serial(pos: &[Vec3], mass: &[f64], eps2: f64, counter: &FlopCounter) -> Vec<Vec3> {
    let n = pos.len();
    counter.add(Kind::GravPP, (n * n.saturating_sub(1)) as u64);
    let mut acc = vec![Vec3::ZERO; n];
    for i in 0..n {
        let xi = pos[i];
        let mut a = Vec3::ZERO;
        for j in 0..n {
            if i != j {
                a += pp_acc(xi - pos[j], mass[j], eps2);
            }
        }
        acc[i] = a;
    }
    acc
}

/// Serial direct sum returning accelerations and potentials.
pub fn direct_serial_pot(
    pos: &[Vec3],
    mass: &[f64],
    eps2: f64,
    counter: &FlopCounter,
) -> (Vec<Vec3>, Vec<f64>) {
    let n = pos.len();
    counter.add(Kind::GravPP, (n * n.saturating_sub(1)) as u64);
    let mut acc = vec![Vec3::ZERO; n];
    let mut pot = vec![0.0; n];
    for i in 0..n {
        let xi = pos[i];
        let mut a = Vec3::ZERO;
        let mut p = 0.0;
        for j in 0..n {
            if i != j {
                let (aj, pj) = pp_acc_pot(xi - pos[j], mass[j], eps2);
                a += aj;
                p += pj;
            }
        }
        acc[i] = a;
        pot[i] = p;
    }
    (acc, pot)
}

/// Distributed ring direct sum. Each rank passes its source block around
/// the ring `np − 1` times; after the last hop every rank has accumulated
/// the force of every body on its own block. Returns the accelerations for
/// this rank's bodies.
pub fn direct_ring(
    comm: &mut Comm,
    pos: &[Vec3],
    mass: &[f64],
    eps2: f64,
    counter: &FlopCounter,
) -> Vec<Vec3> {
    const TAG: u32 = 0x0011;
    let np = comm.size();
    let right = (comm.rank() + 1) % np;
    let left = (comm.rank() + np - 1) % np;

    let mut acc = vec![Vec3::ZERO; pos.len()];
    // Accumulate a source block into our sinks.
    let accumulate = |acc: &mut [Vec3], spos: &[Vec3], smass: &[f64], skip_self: bool| {
        let pairs = if skip_self {
            (pos.len() * spos.len()).saturating_sub(pos.len())
        } else {
            pos.len() * spos.len()
        } as u64;
        counter.add(Kind::GravPP, pairs);
        acc.iter_mut().enumerate().for_each(|(i, a)| {
            let xi = pos[i];
            for (j, (&xj, &mj)) in spos.iter().zip(smass).enumerate() {
                if skip_self && i == j {
                    continue;
                }
                *a += pp_acc(xi - xj, mj, eps2);
            }
        });
    };

    // Self block.
    accumulate(&mut acc, pos, mass, true);
    // Circulate.
    let mut block: Vec<(Vec3, f64)> = pos.iter().copied().zip(mass.iter().copied()).collect();
    for _ in 0..np - 1 {
        comm.send(right, TAG, &block);
        block = comm.recv(left, TAG);
        let spos: Vec<Vec3> = block.iter().map(|&(p, _)| p).collect();
        let smass: Vec<f64> = block.iter().map(|&(_, m)| m).collect();
        accumulate(&mut acc, &spos, &smass, false);
    }
    acc
}

#[cfg(test)]
mod tests {
    use hot_comm::RunConfig;
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pos = (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect();
        let mass = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
        (pos, mass)
    }

    #[test]
    fn serial_momentum_conservation() {
        // Σ m a = 0 for pairwise central forces.
        let (pos, mass) = random_system(200, 1);
        let counter = FlopCounter::new();
        let acc = direct_serial(&pos, &mass, 1e-4, &counter);
        let net: Vec3 = acc.iter().zip(&mass).map(|(&a, &m)| a * m).sum();
        assert!(net.norm() < 1e-10, "net force {net:?}");
        assert_eq!(counter.get(Kind::GravPP), 200 * 199);
    }

    #[test]
    fn ring_matches_serial() {
        for np in [1u32, 2, 3, 5] {
            let n_total = 240usize;
            let (pos, mass) = random_system(n_total, 3);
            let counter = FlopCounter::new();
            let reference = direct_serial(&pos, &mass, 1e-6, &counter);
            let (pos_c, mass_c) = (pos.clone(), mass.clone());
            let out = RunConfig::builder().np(np).run(move |c| {
                let per = n_total / np as usize;
                let lo = c.rank() as usize * per;
                let hi = if c.rank() == np - 1 { n_total } else { lo + per };
                let counter = FlopCounter::new();
                let acc =
                    direct_ring(c, &pos_c[lo..hi], &mass_c[lo..hi], 1e-6, &counter);
                (lo, acc, counter.get(Kind::GravPP))
            });
            let mut total_pairs = 0;
            for (lo, acc, pairs) in &out.results {
                for (k, a) in acc.iter().enumerate() {
                    let r = reference[lo + k];
                    assert!(
                        (*a - r).norm() < 1e-10 * r.norm().max(1.0),
                        "np={np} body {}: {a:?} vs {r:?}",
                        lo + k
                    );
                }
                total_pairs += pairs;
            }
            assert_eq!(total_pairs, (n_total * (n_total - 1)) as u64, "np={np}");
        }
    }

    #[test]
    fn pot_energy_is_pairwise_sum() {
        let (pos, mass) = random_system(50, 9);
        let counter = FlopCounter::new();
        let (_, pot) = direct_serial_pot(&pos, &mass, 0.0, &counter);
        // Total potential energy = 1/2 Σ m_i φ_i must equal the pair sum.
        let e1: f64 = 0.5 * pot.iter().zip(&mass).map(|(&p, &m)| p * m).sum::<f64>();
        let mut e2 = 0.0;
        for i in 0..50 {
            for j in i + 1..50 {
                e2 -= mass[i] * mass[j] / (pos[i] - pos[j]).norm();
            }
        }
        assert!((e1 - e2).abs() < 1e-9 * e2.abs());
    }
}
