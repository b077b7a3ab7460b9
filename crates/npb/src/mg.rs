//! MG — simplified multigrid V-cycle benchmark.
//!
//! Solves the 3-D Poisson equation `∇²u = v` on a periodic n³ grid.
//! The serial path is a textbook V-cycle (weighted-Jacobi smoothing,
//! full-weighting restriction, trilinear prolongation). The distributed
//! path mirrors the NPB communication pattern at reduced fidelity
//! (documented in DESIGN.md): z-slab decomposition with one-plane halo
//! exchanges around each smoothing sweep, and an agglomerated coarse-grid
//! solve (gather → serial V-cycles → scatter) below the slab limit.

use crate::common::BenchResult;
use hot_comm::Comm;
use std::time::Instant;

/// A periodic cubic grid of side `n`.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Side length (power of two).
    pub n: usize,
    /// Row-major `[z][y][x]` values.
    pub data: Vec<f64>,
}

impl Grid {
    /// Zero grid.
    pub fn zeros(n: usize) -> Self {
        Grid { n, data: vec![0.0; n * n * n] }
    }

    #[inline(always)]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.n + y) * self.n + x
    }

    /// Value with periodic wrapping.
    #[inline(always)]
    pub fn at(&self, x: isize, y: isize, z: isize) -> f64 {
        let n = self.n as isize;
        let xx = x.rem_euclid(n) as usize;
        let yy = y.rem_euclid(n) as usize;
        let zz = z.rem_euclid(n) as usize;
        self.data[self.idx(xx, yy, zz)]
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// `r = v − A u` with `A` the 7-point Laplacian (unit spacing).
pub fn residual(u: &Grid, v: &Grid) -> Grid {
    let n = u.n;
    let mut r = Grid::zeros(n);
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let lap = u.at(x as isize - 1, y as isize, z as isize)
                    + u.at(x as isize + 1, y as isize, z as isize)
                    + u.at(x as isize, y as isize - 1, z as isize)
                    + u.at(x as isize, y as isize + 1, z as isize)
                    + u.at(x as isize, y as isize, z as isize - 1)
                    + u.at(x as isize, y as isize, z as isize + 1)
                    - 6.0 * u.at(x as isize, y as isize, z as isize);
                let idx = r.idx(x, y, z);
                r.data[idx] = v.data[(z * n + y) * n + x] - lap;
            }
        }
    }
    r
}

/// One weighted-Jacobi sweep (ω = 2/3).
pub fn jacobi(u: &mut Grid, v: &Grid, sweeps: usize) {
    let n = u.n;
    let omega = 2.0 / 3.0;
    for _ in 0..sweeps {
        let mut next = u.data.clone();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let nb = u.at(x as isize - 1, y as isize, z as isize)
                        + u.at(x as isize + 1, y as isize, z as isize)
                        + u.at(x as isize, y as isize - 1, z as isize)
                        + u.at(x as isize, y as isize + 1, z as isize)
                        + u.at(x as isize, y as isize, z as isize - 1)
                        + u.at(x as isize, y as isize, z as isize + 1);
                    let jac = (nb - v.data[(z * n + y) * n + x]) / 6.0;
                    let idx = (z * n + y) * n + x;
                    next[idx] = (1.0 - omega) * u.data[idx] + omega * jac;
                }
            }
        }
        u.data = next;
    }
}

/// Full-weighting restriction to the n/2 grid.
pub fn restrict(fine: &Grid) -> Grid {
    let nc = fine.n / 2;
    let mut coarse = Grid::zeros(nc);
    for z in 0..nc {
        for y in 0..nc {
            for x in 0..nc {
                // Average the 2×2×2 fine cells (simple full weighting).
                let mut s = 0.0;
                for dz in 0..2 {
                    for dy in 0..2 {
                        for dx in 0..2 {
                            s += fine.at(
                                (2 * x + dx) as isize,
                                (2 * y + dy) as isize,
                                (2 * z + dz) as isize,
                            );
                        }
                    }
                }
                coarse.data[(z * nc + y) * nc + x] = s / 8.0 * 4.0;
                // The ×4 rescales the operator between levels (h → 2h).
            }
        }
    }
    coarse
}

/// Piecewise-constant prolongation (injection to the 2×2×2 children),
/// added into `fine`.
pub fn prolong_add(coarse: &Grid, fine: &mut Grid) {
    let nc = coarse.n;
    let n = fine.n;
    debug_assert_eq!(nc * 2, n);
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                fine.data[(z * n + y) * n + x] +=
                    coarse.data[((z / 2) * nc + y / 2) * nc + x / 2];
            }
        }
    }
}

/// One V-cycle; returns the flop count (paper-style raw accounting).
pub fn v_cycle(u: &mut Grid, v: &Grid, pre: usize, post: usize) -> u64 {
    let n = u.n;
    let pts = (n * n * n) as u64;
    let mut flops = 0u64;
    if n <= 4 {
        jacobi(u, v, 20);
        return 20 * pts * 9;
    }
    jacobi(u, v, pre);
    flops += pre as u64 * pts * 9;
    let r = residual(u, v);
    flops += pts * 8;
    let rc = restrict(&r);
    flops += pts;
    let mut ec = Grid::zeros(n / 2);
    flops += v_cycle(&mut ec, &rc, pre, post);
    prolong_add(&ec, u);
    flops += pts;
    jacobi(u, v, post);
    flops += post as u64 * pts * 9;
    flops
}

/// NPB-style right-hand side: +1 and −1 point charges scattered with the
/// NPB generator (zero mean, so the periodic problem is solvable).
pub fn charges_rhs(n: usize, pairs: usize) -> Grid {
    use crate::common::{NpbRng, NPB_SEED};
    let mut v = Grid::zeros(n);
    let mut rng = NpbRng::new(NPB_SEED);
    for s in 0..2 * pairs {
        let x = (rng.next_f64() * n as f64) as usize % n;
        let y = (rng.next_f64() * n as f64) as usize % n;
        let z = (rng.next_f64() * n as f64) as usize % n;
        v.data[(z * n + y) * n + x] += if s % 2 == 0 { 1.0 } else { -1.0 };
    }
    v
}

/// Distributed MG: z-slab Jacobi smoothing with halo exchange, coarse
/// solve agglomerated on rank 0 (reduced-fidelity reproduction of the NPB
/// kernel's communication pattern).
pub fn run_distributed(comm: &mut Comm, n: usize, cycles: usize) -> BenchResult {
    const TAG_HALO: u32 = 0x30;
    const TAG_GATHER: u32 = 0x31;
    const TAG_SCATTER: u32 = 0x32;
    let np = comm.size() as usize;
    assert!(n.is_multiple_of(np), "slab decomposition needs np | n");
    let nz = n / np;
    let z0 = comm.rank() as usize * nz;
    let plane = n * n;

    // Local slab of the rhs.
    let v_full = charges_rhs(n, 8);
    let my_v: Vec<f64> = v_full.data[z0 * plane..(z0 + nz) * plane].to_vec();
    let mut my_u = vec![0.0f64; nz * plane];

    let t0 = Instant::now();
    let mut flops = 0u64;

    // One smoothing sweep with halo exchange.
    let smooth = |comm: &mut Comm, u: &mut Vec<f64>, v: &[f64]| {
        let rank = comm.rank();
        let np = comm.size();
        let up = (rank + 1) % np;
        let down = (rank + np - 1) % np;
        // Exchange boundary planes (periodic ring).
        let top: Vec<f64> = u[(nz - 1) * plane..nz * plane].to_vec();
        let bottom: Vec<f64> = u[0..plane].to_vec();
        comm.send(up, TAG_HALO, &top);
        comm.send(down, TAG_HALO + 1, &bottom);
        let halo_below: Vec<f64> = comm.recv(down, TAG_HALO);
        let halo_above: Vec<f64> = comm.recv(up, TAG_HALO + 1);
        let omega = 2.0 / 3.0;
        let mut next = u.clone();
        let wrap = |i: usize, d: isize| -> usize { (i as isize + d).rem_euclid(n as isize) as usize };
        for lz in 0..nz {
            for y in 0..n {
                for x in 0..n {
                    let here = (lz * n + y) * n + x;
                    let below = if lz == 0 {
                        halo_below[y * n + x]
                    } else {
                        u[((lz - 1) * n + y) * n + x]
                    };
                    let above = if lz == nz - 1 {
                        halo_above[y * n + x]
                    } else {
                        u[((lz + 1) * n + y) * n + x]
                    };
                    let nb = u[(lz * n + y) * n + wrap(x, -1)]
                        + u[(lz * n + y) * n + wrap(x, 1)]
                        + u[(lz * n + wrap(y, -1)) * n + x]
                        + u[(lz * n + wrap(y, 1)) * n + x]
                        + below
                        + above;
                    next[here] = (1.0 - omega) * u[here] + omega * (nb - v[here]) / 6.0;
                }
            }
        }
        *u = next;
    };

    for _ in 0..cycles {
        // Pre-smooth.
        for _ in 0..2 {
            smooth(comm, &mut my_u, &my_v);
            flops += (nz * plane) as u64 * 9;
        }
        // Gather the full grid on rank 0, run a serial V-cycle on the
        // residual as the coarse solve, scatter the correction.
        let gathered = comm.gather(0, my_u.clone());
        let correction_full: Vec<f64> = if let Some(slabs) = gathered {
            let mut u_full = Grid::zeros(n);
            for (r, slab) in slabs.into_iter().enumerate() {
                u_full.data[r * nz * plane..(r + 1) * nz * plane].copy_from_slice(&slab);
            }
            let r = residual(&u_full, &v_full);
            let mut e = Grid::zeros(n);
            flops += v_cycle(&mut e, &r, 2, 2);
            e.data
        } else {
            Vec::new()
        };
        let my_corr: Vec<f64> = if comm.rank() == 0 {
            for dst in 1..comm.size() {
                let lo = dst as usize * nz * plane;
                let slab: Vec<f64> = correction_full[lo..lo + nz * plane].to_vec();
                comm.send(dst, TAG_SCATTER, &slab);
            }
            correction_full[0..nz * plane].to_vec()
        } else {
            comm.recv(0, TAG_SCATTER)
        };
        let _ = TAG_GATHER;
        for (u, c) in my_u.iter_mut().zip(&my_corr) {
            *u += c;
        }
        // Post-smooth.
        for _ in 0..2 {
            smooth(comm, &mut my_u, &my_v);
            flops += (nz * plane) as u64 * 9;
        }
    }
    let seconds = t0.elapsed().as_secs_f64().max(1e-9);

    // Verification: assemble and check the global residual dropped.
    let gathered = comm.gather(0, my_u);
    let verified = if let Some(slabs) = gathered {
        let mut u_full = Grid::zeros(n);
        for (r, slab) in slabs.into_iter().enumerate() {
            u_full.data[r * nz * plane..(r + 1) * nz * plane].copy_from_slice(&slab);
        }
        let r_final = residual(&u_full, &v_full).norm();
        let r_init = v_full.norm();
        r_final < 0.5 * r_init
    } else {
        true
    };
    let verified = comm.bcast(0, verified);
    let flops = comm.allreduce_sum_u64(flops);
    BenchResult {
        name: "MG",
        class: "custom",
        np: comm.size(),
        ops: flops,
        seconds,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use hot_comm::RunConfig;
    use super::*;

    #[test]
    fn vcycle_reduces_residual_fast() {
        let n = 16;
        let v = charges_rhs(n, 4);
        let mut u = Grid::zeros(n);
        let r0 = residual(&u, &v).norm();
        v_cycle(&mut u, &v, 2, 2);
        let r1 = residual(&u, &v).norm();
        v_cycle(&mut u, &v, 2, 2);
        let r2 = residual(&u, &v).norm();
        assert!(r1 < 0.6 * r0, "first cycle: {r0} -> {r1}");
        assert!(r2 < 0.6 * r1, "second cycle: {r1} -> {r2}");
    }

    #[test]
    fn rhs_has_zero_mean() {
        let v = charges_rhs(16, 8);
        let sum: f64 = v.data.iter().sum();
        assert!(sum.abs() < 1e-12);
    }

    #[test]
    fn distributed_matches_and_verifies() {
        for np in [1u32, 2, 4] {
            let out = RunConfig::builder().np(np).run(|c| run_distributed(c, 16, 3));
            for r in &out.results {
                assert!(r.verified, "np={np}: {r:?}");
            }
            // Flop totals identical across rank counts (same algorithm).
            let ops0 = out.results[0].ops;
            assert!(out.results.iter().all(|r| r.ops == ops0));
        }
    }
}
