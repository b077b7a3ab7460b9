//! FT — the 3-D FFT PDE benchmark.
//!
//! Solves `∂u/∂t = α∇²u` spectrally: forward 3-D FFT of a random initial
//! field, multiplication by the evolution factor `exp(−4απ²|k̄|²t)` per
//! timestep, inverse transform, and a checksum. The distributed transform
//! uses the slab decomposition + transpose (all-to-all) structure of the
//! reference code — the communication that makes FT a bisection-bandwidth
//! benchmark.

use crate::common::{BenchResult, NpbRng, NPB_SEED};
use hot_base::fft::{fft_inplace, Complex};
use hot_comm::Comm;
use std::time::Instant;

/// One line's transform, normalized by 1/n on the inverse as NPB's FT is.
fn fft_line(data: &mut [Complex], inverse: bool) {
    fft_inplace(data, inverse);
    if inverse {
        let s = 1.0 / data.len() as f64;
        data.iter_mut().for_each(|v| *v = v.scale(s));
    }
}

/// Distributed FT benchmark on an n³ grid over z-slabs: x and y lines are
/// local; the z transform happens after a global transpose (alltoall).
/// Runs `steps` evolution steps and verifies by round-tripping back to the
/// initial field.
pub fn run(comm: &mut Comm, n: usize, steps: usize) -> BenchResult {
    let np = comm.size() as usize;
    assert!(n.is_multiple_of(np), "slab decomposition needs np | n");
    assert!(n.is_power_of_two());
    let nz = n / np;
    let z0 = comm.rank() as usize * nz;

    // Initial field: NPB-style random complex values, each rank generating
    // its own slab deterministically.
    let mut rng = NpbRng::skip(NPB_SEED, (2 * z0 * n * n) as u64);
    let mut slab: Vec<Complex> = (0..nz * n * n)
        .map(|_| Complex::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect();
    let initial = slab.clone();

    let t0 = Instant::now();
    let mut flops = 0u64;
    let line_flops = (5 * n * (n as f64).log2() as usize) as u64;

    // Helper: transform all x and y lines of the slab.
    let xy_transform = |slab: &mut Vec<Complex>, inverse: bool| {
        for z in 0..nz {
            for y in 0..n {
                let base = (z * n + y) * n;
                fft_line(&mut slab[base..base + n], inverse);
            }
            // y lines: gather stride-n.
            for x in 0..n {
                let mut line: Vec<Complex> = (0..n).map(|y| slab[(z * n + y) * n + x]).collect();
                fft_line(&mut line, inverse);
                for (y, v) in line.into_iter().enumerate() {
                    slab[(z * n + y) * n + x] = v;
                }
            }
        }
    };

    // Transpose: redistribute so each rank owns a y-slab with contiguous z
    // lines. Data for destination rank d: y in [d*ny, (d+1)*ny).
    let transpose = |comm: &mut Comm, slab: &Vec<Complex>| -> Vec<Complex> {
        let ny = n / np;
        let mut sends: Vec<Vec<f64>> = (0..np).map(|_| Vec::new()).collect();
        for (d, send) in sends.iter_mut().enumerate() {
            for z in 0..nz {
                for y in d * ny..(d + 1) * ny {
                    for x in 0..n {
                        let v = slab[(z * n + y) * n + x];
                        send.push(v.re);
                        send.push(v.im);
                    }
                }
            }
        }
        let recvd = comm.alltoall(sends);
        // Assemble [y-local][x][z-global] lines: out[(ly*n + x)*n + z].
        let mut out = vec![Complex::ZERO; ny * n * n];
        for (src, block) in recvd.into_iter().enumerate() {
            // Block layout from src: [z-local of src][y-local][x] pairs.
            let mut it = block.into_iter();
            for lz in 0..nz {
                let z = src * nz + lz;
                for ly in 0..ny {
                    for x in 0..n {
                        let re = it.next().expect("even block");
                        let im = it.next().expect("odd block");
                        out[(ly * n + x) * n + z] = Complex::new(re, im);
                    }
                }
            }
        }
        out
    };

    // Forward transform.
    xy_transform(&mut slab, false);
    flops += (nz * n * 2) as u64 * line_flops;
    let mut zlines = transpose(comm, &slab);
    let ny = n / np;
    for l in 0..ny * n {
        fft_line(&mut zlines[l * n..(l + 1) * n], false);
    }
    flops += (ny * n) as u64 * line_flops;

    // Spectral evolution. Wavenumber of index i on an n-grid.
    let kof = |i: usize| -> f64 {
        let m = if i <= n / 2 { i as isize } else { i as isize - n as isize };
        m as f64
    };
    let y0 = comm.rank() as usize * ny;
    let alpha = 1e-6;
    for _s in 0..steps {
        for ly in 0..ny {
            let ky = kof(y0 + ly);
            for x in 0..n {
                let kx = kof(x);
                for z in 0..n {
                    let kz = kof(z);
                    let k2 = kx * kx + ky * ky + kz * kz;
                    let f = (-4.0 * alpha * std::f64::consts::PI * std::f64::consts::PI * k2)
                        .exp();
                    let idx = (ly * n + x) * n + z;
                    zlines[idx].re *= f;
                    zlines[idx].im *= f;
                }
            }
        }
        flops += (ny * n * n) as u64 * 4;
    }

    // Inverse: undo z lines, transpose back, undo x/y.
    for l in 0..ny * n {
        fft_line(&mut zlines[l * n..(l + 1) * n], true);
    }
    flops += (ny * n) as u64 * line_flops;
    // Transpose back: inverse mapping of the forward transpose.
    let slab_back = {
        let mut sends: Vec<Vec<f64>> = (0..np).map(|_| Vec::new()).collect();
        for (d, send) in sends.iter_mut().enumerate() {
            // Destination d owns z in [d*nz, (d+1)*nz).
            for ly in 0..ny {
                for x in 0..n {
                    for lz in 0..nz {
                        let z = d * nz + lz;
                        let v = zlines[(ly * n + x) * n + z];
                        send.push(v.re);
                        send.push(v.im);
                    }
                }
            }
        }
        let recvd = comm.alltoall(sends);
        let mut out = vec![Complex::ZERO; nz * n * n];
        for (src, block) in recvd.into_iter().enumerate() {
            let mut it = block.into_iter();
            for ly in 0..ny {
                let y = src * ny + ly;
                for x in 0..n {
                    for lz in 0..nz {
                        let re = it.next().expect("even");
                        let im = it.next().expect("odd");
                        out[(lz * n + y) * n + x] = Complex::new(re, im);
                    }
                }
            }
        }
        out
    };
    let mut slab = slab_back;
    xy_transform(&mut slab, true);
    flops += (nz * n * 2) as u64 * line_flops;

    let seconds = t0.elapsed().as_secs_f64().max(1e-9);

    // Verification: the spectral diffusion only *damps* modes, so (a) the
    // field stays close to the initial data for these small step counts,
    // and (b) the energy must decay, but only slightly.
    let mut max_err = 0.0f64;
    let mut e_init = 0.0;
    let mut e_final = 0.0;
    for (a, b) in slab.iter().zip(&initial) {
        let d = ((a.re - b.re).powi(2) + (a.im - b.im).powi(2)).sqrt();
        max_err = max_err.max(d);
        e_final += a.re * a.re + a.im * a.im;
        e_init += b.re * b.re + b.im * b.im;
    }
    let global_err = comm.allreduce_max_f64(max_err);
    let e_init = comm.allreduce_sum_f64(e_init);
    let e_final = comm.allreduce_sum_f64(e_final);
    let verified = global_err < 0.05
        && e_final <= e_init * 1.000001
        && e_final > 0.9 * e_init;
    let flops = comm.allreduce_sum_u64(flops);
    BenchResult {
        name: "FT",
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
    fn line_fft_roundtrip() {
        let mut rng = NpbRng::new(7);
        let orig: Vec<Complex> =
            (0..64).map(|_| Complex::new(rng.next_f64(), rng.next_f64())).collect();
        let mut x = orig.clone();
        fft_line(&mut x, false);
        fft_line(&mut x, true);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12);
        }
        // A one-point line is its own transform either way.
        let mut one = [Complex::new(2.0, -3.0)];
        fft_line(&mut one, false);
        fft_line(&mut one, true);
        assert_eq!(one, [Complex::new(2.0, -3.0)]);
    }

    #[test]
    fn distributed_ft_verifies_all_np() {
        for np in [1u32, 2, 4] {
            let out = RunConfig::builder().np(np).run(|c| run(c, 16, 2));
            for r in &out.results {
                assert!(r.verified, "np={np}: {r:?}");
                assert!(r.ops > 0);
            }
        }
    }

    #[test]
    fn ft_traffic_scales_with_grid() {
        let out = RunConfig::builder().np(2).run(|c| {
            let r = run(c, 16, 1);
            (r.verified, c.stats().bytes_sent)
        });
        for &(v, bytes) in &out.results {
            assert!(v);
            // Two transposes of half of a 16^3 complex grid each way.
            assert!(bytes > 16 * 16 * 16 / 2 * 16, "bytes {bytes}");
        }
    }
}
