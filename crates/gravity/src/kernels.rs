//! Gravitational interaction kernels.
//!
//! The particle–particle kernel is the paper's 38-flop interaction: a
//! Plummer-softened inverse-square attraction whose reciprocal square root
//! is computed with Karp's add/multiply-only algorithm ([`hot_base::rsqrt`]).
//! The particle–cell kernels evaluate the multipole expansion of Eqn. (1)
//! of the paper: monopole ("known to Newton"), optionally with the
//! quadrupole correction (the dipole vanishes because expansions are formed
//! about cell centers of mass).
//!
//! One arithmetic, one entry. The five scalar kernels ([`pp_acc`],
//! [`pc_quad_acc`], …) define the operations and their order.
//! [`apply_segment`] — the production apply path — runs one list segment
//! against a whole sink group, [`LANES`] sinks at a time with one sink per
//! SIMD lane; the lane body is compiled a second time for AVX2 and chosen
//! by the CPU at run time. The scalar kernels applied per sink in list
//! order are the oracle the entry is pinned against bit for bit
//! (`proptests.rs`): vectorising across sinks leaves every sink's own
//! sequence of IEEE operations untouched.
//!
//! Units: G = 1 throughout.

use hot_base::rsqrt::{per_lane, rsqrt, rsqrt_lanes};
use hot_base::{SymMat3, Vec3};
use hot_core::ilist::{PcView, PpView, Segment};
use hot_core::moments::MassMoments;
use std::ops::Range;

/// Acceleration at a sink displaced by `d = x_sink − x_src` from a point
/// mass `m`, with Plummer softening `eps2 = ε²`.
#[inline(always)]
pub fn pp_acc(d: Vec3, m: f64, eps2: f64) -> Vec3 {
    let r2 = d.norm2() + eps2;
    let rinv = rsqrt(r2);
    let rinv3 = rinv * rinv * rinv;
    d * (-m * rinv3)
}

/// Acceleration and potential of a softened point mass.
#[inline(always)]
pub fn pp_acc_pot(d: Vec3, m: f64, eps2: f64) -> (Vec3, f64) {
    let r2 = d.norm2() + eps2;
    let rinv = rsqrt(r2);
    let rinv3 = rinv * rinv * rinv;
    (d * (-m * rinv3), -m * rinv)
}

/// Monopole particle–cell interaction: identical to [`pp_acc`] with the
/// cell's total mass at its center of mass.
#[inline(always)]
pub fn pc_mono_acc(d: Vec3, m: f64, eps2: f64) -> Vec3 {
    pp_acc(d, m, eps2)
}

/// Monopole + quadrupole particle–cell interaction.
///
/// `quad` is the *raw* second-moment tensor `Σ mᵢ rᵢ rᵢᵀ` about the cell
/// center (as accumulated by
/// [`hot_core::MassMoments`](hot_core::moments::MassMoments)); the traceless
/// combination is formed here. `d` points from the cell center to the sink.
///
/// Derivation (with `Q` raw, `T = tr Q`):
/// `φ(d) = −m/|d| − (3 dᵀQd − |d|²T) / (2|d|⁵)`, `a = −∇φ`:
/// `a = −m d/|d|³ + (3Qd − Td)/|d|⁵ − (5/2)(3 dᵀQd − |d|²T) d/|d|⁷`.
#[inline(always)]
pub fn pc_quad_acc(d: Vec3, m: f64, quad: &SymMat3, eps2: f64) -> Vec3 {
    let r2 = d.norm2() + eps2;
    let rinv = rsqrt(r2);
    let rinv2 = rinv * rinv;
    let rinv3 = rinv2 * rinv;
    let rinv5 = rinv3 * rinv2;
    let rinv7 = rinv5 * rinv2;
    let tr = quad.trace();
    let qd = quad.mul_vec(d);
    let dqd = d.dot(qd);
    d * (-m * rinv3)
        + (qd * 3.0 - d * tr) * rinv5
        - d * (2.5 * (3.0 * dqd - r2 * tr) * rinv7)
}

/// Potential of the monopole + quadrupole expansion.
#[inline(always)]
pub fn pc_quad_pot(d: Vec3, m: f64, quad: &SymMat3, eps2: f64) -> f64 {
    let r2 = d.norm2() + eps2;
    let rinv = rsqrt(r2);
    let rinv2 = rinv * rinv;
    let rinv5 = rinv * rinv2 * rinv2;
    let tr = quad.trace();
    let dqd = d.dot(quad.mul_vec(d));
    -m * rinv - 0.5 * (3.0 * dqd - r2 * tr) * rinv5
}

/// Whether a P-P segment can contain a self-pair of *any* sink in `sinks`.
///
/// Local sources carry consecutive tree-order indices, ghosts carry
/// `u32::MAX`, so a range test on the endpoints decides for the whole
/// segment — every segment that cannot alias (all but the sink group's own
/// leaves) goes through the lane body.
#[inline(always)]
pub(crate) fn span_may_alias(src: &PpView<'_, MassMoments>, sinks: &Range<usize>) -> bool {
    match (src.idx.first(), src.idx.last()) {
        (Some(&f), Some(&l)) => {
            f != u32::MAX && (f as usize) < sinks.end && sinks.start <= l as usize
        }
        _ => false,
    }
}

/// Sinks per block of the lane body: one sink per SIMD lane, every
/// source broadcast to all of them. Four `f64` lanes fill one AVX2
/// register; eight were measured slower (spills under AVX2, and under
/// AVX-512 the padding of short groups eats the gain — EXPERIMENTS.md K2).
pub const LANES: usize = 4;

/// One value per sink of a block.
type Lanes = [f64; LANES];

/// One list entry as the lane body takes it: position, mass and raw
/// second-moment tensor (zero, and never read, for a particle).
type Entry<'a> = (f64, f64, f64, f64, &'a SymMat3);

/// A P-P segment's sources as lane-body entries.
fn pp_entries<'a>(
    src: &PpView<'a, MassMoments>,
) -> impl Iterator<Item = Entry<'a>> + Clone {
    let xyz = src.x.iter().zip(src.y).zip(src.z);
    xyz.zip(src.q).map(|(((&x, &y), &z), &q)| (x, y, z, q, &SymMat3::ZERO))
}

/// A P-C segment's cells as lane-body entries.
fn pc_entries<'a>(
    cells: &PcView<'a, MassMoments>,
) -> impl Iterator<Item = Entry<'a>> + Clone {
    let xyz = cells.x.iter().zip(cells.y).zip(cells.z);
    xyz.zip(cells.m).map(|(((&x, &y), &z), m)| (x, y, z, m.mass, &m.quad))
}

/// A block of points as one [`Lanes`] per coordinate.
#[inline(always)]
fn per_axis(point: impl Fn(usize) -> Vec3) -> [Lanes; 3] {
    [per_lane(|l| point(l).x), per_lane(|l| point(l).y), per_lane(|l| point(l).z)]
}

/// One list segment against one sink group: the argument of the lane
/// body.
struct Span<'s, I> {
    sink_pos: &'s [Vec3],
    sinks: Range<usize>,
    entries: I,
    eps2: f64,
    /// Sink `sinks.start + k` accumulates into `acc[k]`.
    acc: &'s mut [Vec3],
    /// Indexed like `acc`; empty when no potential is wanted.
    pot: &'s mut [f64],
}

impl<'a, I: Iterator<Item = Entry<'a>> + Clone> Span<'_, I> {
    /// The lane body behind [`apply_segment`]: [`LANES`] sinks at a time,
    /// lane = sink.
    ///
    /// Every lane runs, entry by entry in list order, exactly the IEEE
    /// operations of [`pp_acc`] / [`pc_quad_acc`] / [`pc_quad_pot`] on its
    /// own sink (`a * b + c` is never contracted, nothing is reassociated
    /// across entries), so the result is bitwise the scalar kernels applied
    /// per sink. `SUBSUM` is the P-P contract — the segment's sum starts
    /// at zero and is added to `acc` once; without it each entry is added
    /// to `acc` directly (the P-C contract). `QUAD` adds the quadrupole
    /// terms, `POT` fills `pot`. A last block shorter than `LANES` is
    /// padded with copies of its last sink — a real sink, so `rsqrt`'s
    /// domain holds in the padding exactly when it holds for the group —
    /// and only the valid lanes are written back. Self-pairs are the
    /// caller's business: a segment that may alias the sinks never gets
    /// here.
    ///
    /// Each step is one pass over the lanes ([`per_lane`]), which the
    /// compiler turns into vector arithmetic where vector registers are
    /// enabled ([`Span::lanes_avx2`]); at baseline features it is the
    /// four interleaved scalar chains it replaced, at the same speed.
    #[inline(always)]
    fn lanes<const QUAD: bool, const POT: bool, const SUBSUM: bool>(self) {
        let Span { sink_pos, sinks, entries, eps2, acc, pot } = self;
        debug_assert_eq!(acc.len(), sinks.len());
        debug_assert_eq!(pot.len(), if POT { sinks.len() } else { 0 });
        for k in (0..sinks.len()).step_by(LANES) {
            let valid = LANES.min(sinks.len() - k);
            let at = |l: usize| k + l.min(valid - 1);
            let [xs, ys, zs] = per_axis(|l| sink_pos[sinks.start + at(l)]);
            let [mut ax, mut ay, mut az, mut p] = [[0.0; LANES]; 4];
            if !SUBSUM {
                [ax, ay, az] = per_axis(|l| acc[at(l)]);
                if POT {
                    p = per_lane(|l| pot[at(l)]);
                }
            }
            for (sx, sy, sz, m, quad) in entries.clone() {
                let dx: Lanes = per_lane(|l| xs[l] - sx);
                let dy: Lanes = per_lane(|l| ys[l] - sy);
                let dz: Lanes = per_lane(|l| zs[l] - sz);
                let r2: Lanes = per_lane(|l| dx[l] * dx[l] + dy[l] * dy[l] + dz[l] * dz[l] + eps2);
                let rinv = rsqrt_lanes(r2);
                let rinv2: Lanes = per_lane(|l| rinv[l] * rinv[l]);
                let rinv3: Lanes = per_lane(|l| rinv2[l] * rinv[l]);
                let mono: Lanes = per_lane(|l| -m * rinv3[l]);
                if QUAD {
                    let [xx, yy, zz, xy, xz, yz] = quad.m;
                    let tr = quad.trace();
                    let rinv5: Lanes = per_lane(|l| rinv3[l] * rinv2[l]);
                    let rinv7: Lanes = per_lane(|l| rinv5[l] * rinv2[l]);
                    let qx: Lanes = per_lane(|l| xx * dx[l] + xy * dy[l] + xz * dz[l]);
                    let qy: Lanes = per_lane(|l| xy * dx[l] + yy * dy[l] + yz * dz[l]);
                    let qz: Lanes = per_lane(|l| xz * dx[l] + yz * dy[l] + zz * dz[l]);
                    // 3 dᵀQd − r² tr Q, shared by the force and the potential.
                    let s: Lanes = per_lane(|l| {
                        3.0 * (dx[l] * qx[l] + dy[l] * qy[l] + dz[l] * qz[l]) - r2[l] * tr
                    });
                    let radial: Lanes = per_lane(|l| 2.5 * s[l] * rinv7[l]);
                    for (a, d, q) in [(&mut ax, dx, qx), (&mut ay, dy, qy), (&mut az, dz, qz)] {
                        for l in 0..LANES {
                            a[l] += d[l] * mono[l] + (q[l] * 3.0 - d[l] * tr) * rinv5[l]
                                - d[l] * radial[l];
                        }
                    }
                    if POT {
                        for l in 0..LANES {
                            p[l] += -m * rinv[l] - 0.5 * s[l] * rinv5[l];
                        }
                    }
                } else {
                    for (a, d) in [(&mut ax, dx), (&mut ay, dy), (&mut az, dz)] {
                        for l in 0..LANES {
                            a[l] += d[l] * mono[l];
                        }
                    }
                    if POT {
                        for l in 0..LANES {
                            p[l] += -m * rinv[l];
                        }
                    }
                }
            }
            for l in 0..valid {
                let (i, sum) = (k + l, Vec3::new(ax[l], ay[l], az[l]));
                if SUBSUM {
                    acc[i] += sum;
                } else {
                    acc[i] = sum;
                }
                if POT {
                    pot[i] = if SUBSUM { pot[i] + p[l] } else { p[l] };
                }
            }
        }
    }

    /// [`Span::lanes`] compiled a second time with AVX2 enabled, so the
    /// four sink lanes of a block are one 256-bit register. Only `avx2` —
    /// not `fma` — is enabled, so no fused multiply-add can appear and the
    /// result stays bitwise the baseline instantiation's.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lanes_avx2<const QUAD: bool, const POT: bool, const SUBSUM: bool>(self) {
        self.lanes::<QUAD, POT, SUBSUM>();
    }

    /// Run the lane body in the widest instantiation this CPU supports.
    ///
    /// Out of line, like [`pp_per_sink`]: inlined, all six monomorphs
    /// would share [`apply_segment`]'s stack frame, which deepens the stack
    /// of every rank fiber that applies lists (measured on a 2-thread
    /// x86-64 host: `dist_fine`'s 128 ranks peak ≈ 0.45 MiB, 1 %, higher).
    #[allow(unsafe_code)]
    #[inline(never)]
    fn apply<const QUAD: bool, const POT: bool, const SUBSUM: bool>(self) {
        #[cfg(target_arch = "x86_64")]
        if span_uses_avx2() {
            // SAFETY: `lanes_avx2` requires only the `avx2` target feature,
            // which `span_uses_avx2` has just detected on the running CPU.
            return unsafe { self.lanes_avx2::<QUAD, POT, SUBSUM>() };
        }
        self.lanes::<QUAD, POT, SUBSUM>();
    }

    /// [`Span::apply`], or with `BASELINE` the baseline [`Span::lanes`].
    #[inline(always)]
    fn run<const QUAD: bool, const POT: bool, const SUBSUM: bool, const BASELINE: bool>(self) {
        if BASELINE {
            self.lanes::<QUAD, POT, SUBSUM>();
        } else {
            self.apply::<QUAD, POT, SUBSUM>();
        }
    }
}

/// Whether the lane body runs its AVX2 instantiation on this CPU.
/// `std` detects once per process and caches in an atomic — not a
/// thread-local, so a fiber resumed on another worker reads it safely.
pub fn span_uses_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// Apply one list segment to a whole sink group — the one entry of the
/// apply stage.
///
/// `acc[k]` (and `pot[k]`, when `pot` is not empty) belongs to sink
/// `sinks.start + k`. A P-P segment's sum starts at zero per sink and is
/// added once; each P-C cell, monopole or (with `quadrupole`) with its
/// quadrupole terms, is added directly — per sink, in list order, bitwise
/// the scalar kernels applied one source at a time. Every segment goes
/// through the lane body (`Span::lanes`) except a P-P segment that may
/// hold a self-pair (the group's own leaves: a few dozen of a list's
/// ≈ 1 400 entries): that one is evaluated per sink, since a masked lane
/// would still compute `rsqrt(0 + ε²)`, outside `rsqrt`'s domain when
/// `ε = 0`.
pub fn apply_segment(
    seg: &Segment<'_, MassMoments>,
    sink_pos: &[Vec3],
    sinks: Range<usize>,
    eps2: f64,
    quadrupole: bool,
    acc: &mut [Vec3],
    pot: &mut [f64],
) {
    match seg {
        Segment::Pp(src) if span_may_alias(src, &sinks) => {
            pp_per_sink(sink_pos, sinks, src, eps2, acc, pot);
        }
        _ => lane_body::<false>(seg, sink_pos, sinks, eps2, quadrupole, acc, pot),
    }
}

/// The one choice of lane-body monomorph per segment: P-P sums into a
/// sub-sum, P-C adds each cell directly, quadrupole terms and potential
/// as asked (an empty `pot` means none). Runs [`Span::apply`] — the
/// widest instantiation this CPU supports — or, with `BASELINE`, the
/// baseline [`Span::lanes`] directly (the property suite's second pin).
/// The caller has ruled out a P-P segment that may alias the sinks.
#[inline(always)]
pub(crate) fn lane_body<const BASELINE: bool>(
    seg: &Segment<'_, MassMoments>,
    sink_pos: &[Vec3],
    sinks: Range<usize>,
    eps2: f64,
    quadrupole: bool,
    acc: &mut [Vec3],
    pot: &mut [f64],
) {
    let with_pot = !pot.is_empty();
    match seg {
        Segment::Pp(src) => {
            let span = Span { sink_pos, sinks, entries: pp_entries(src), eps2, acc, pot };
            if with_pot {
                span.run::<false, true, true, BASELINE>();
            } else {
                span.run::<false, false, true, BASELINE>();
            }
        }
        Segment::Pc(cells) => {
            let span = Span { sink_pos, sinks, entries: pc_entries(cells), eps2, acc, pot };
            match (quadrupole, with_pot) {
                (false, false) => span.run::<false, false, false, BASELINE>(),
                (false, true) => span.run::<false, true, false, BASELINE>(),
                (true, false) => span.run::<true, false, false, BASELINE>(),
                (true, true) => span.run::<true, true, false, BASELINE>(),
            }
        }
    }
}

/// A P-P segment that may alias the sinks, one sink at a time with its
/// self-pair skipped: [`pp_acc`] (or [`pp_acc_pot`] when `pot` is not
/// empty) summed source by source in list order and added once. Out of
/// line for the reason [`Span::apply`] is.
#[inline(never)]
fn pp_per_sink(
    sink_pos: &[Vec3],
    sinks: Range<usize>,
    src: &PpView<'_, MassMoments>,
    eps2: f64,
    acc: &mut [Vec3],
    pot: &mut [f64],
) {
    let with_pot = !pot.is_empty();
    for (k, i) in sinks.enumerate() {
        let xi = sink_pos[i];
        let (mut a, mut p) = (Vec3::ZERO, 0.0);
        for j in (0..src.x.len()).filter(|&j| src.idx[j] != i as u32) {
            let d = Vec3::new(xi.x - src.x[j], xi.y - src.y[j], xi.z - src.z[j]);
            if with_pot {
                let (aj, pj) = pp_acc_pot(d, src.q[j], eps2);
                a += aj;
                p += pj;
            } else {
                a += pp_acc(d, src.q[j], eps2);
            }
        }
        acc[k] += a;
        if with_pot {
            pot[k] += p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pp_matches_newton() {
        // Unit masses 1 apart: |a| = 1, attractive.
        let d = Vec3::new(1.0, 0.0, 0.0);
        let a = pp_acc(d, 1.0, 0.0);
        assert!((a.x + 1.0).abs() < 1e-14);
        assert!(a.y.abs() < 1e-15 && a.z.abs() < 1e-15);
        // Inverse square: at distance 2, |a| = 1/4.
        let a2 = pp_acc(Vec3::new(2.0, 0.0, 0.0), 1.0, 0.0);
        assert!((a2.norm() - 0.25).abs() < 1e-14);
    }

    #[test]
    fn softening_regularizes_origin() {
        // At zero separation the softened force vanishes by symmetry and
        // the potential is finite: -m/eps.
        let (a, p) = pp_acc_pot(Vec3::ZERO, 2.0, 0.25);
        assert_eq!(a, Vec3::ZERO);
        assert!((p + 2.0 / 0.5).abs() < 1e-12);
    }

    #[test]
    fn pp_acc_is_gradient_of_potential() {
        // Numerical gradient check of the softened potential.
        let d0 = Vec3::new(0.7, -0.3, 0.5);
        let m = 1.7;
        let eps2 = 0.01;
        let h = 1e-6;
        let a = pp_acc(d0, m, eps2);
        for axis in 0..3 {
            let mut dp = d0;
            let mut dm = d0;
            dp[axis] += h;
            dm[axis] -= h;
            let (_, pp) = pp_acc_pot(dp, m, eps2);
            let (_, pm) = pp_acc_pot(dm, m, eps2);
            let grad = (pp - pm) / (2.0 * h);
            assert!((a[axis] + grad).abs() < 1e-7, "axis {axis}: {} vs {}", a[axis], -grad);
        }
    }

    #[test]
    fn quadrupole_improves_far_field() {
        // Two separated point masses; compare direct force with the
        // monopole and mono+quad expansions about their center of mass.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut worse = 0;
        for _ in 0..50 {
            let p1 = Vec3::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5) * 0.2;
            let p2 = -p1 * 0.7;
            let (m1, m2) = (1.0, 1.4);
            let com = (p1 * m1 + p2 * m2) / (m1 + m2);
            let quad = SymMat3::outer(p1 - com) * m1 + SymMat3::outer(p2 - com) * m2;
            // A sink well outside the pair.
            let sink = Vec3::new(2.0 + rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
            let exact = pp_acc(sink - p1, m1, 0.0) + pp_acc(sink - p2, m2, 0.0);
            let d = sink - com;
            let mono = pc_mono_acc(d, m1 + m2, 0.0);
            let withq = pc_quad_acc(d, m1 + m2, &quad, 0.0);
            let err_mono = (mono - exact).norm();
            let err_quad = (withq - exact).norm();
            if err_quad >= err_mono {
                worse += 1;
            }
        }
        assert!(worse <= 2, "quadrupole made {worse}/50 cases worse");
    }

    #[test]
    fn quad_acc_is_gradient_of_quad_pot() {
        let quad = SymMat3::new(0.3, 0.1, 0.2, 0.05, -0.02, 0.07);
        let d0 = Vec3::new(1.5, -0.8, 1.1);
        let m = 2.0;
        let h = 1e-6;
        let a = pc_quad_acc(d0, m, &quad, 0.0);
        for axis in 0..3 {
            let mut dp = d0;
            let mut dm = d0;
            dp[axis] += h;
            dm[axis] -= h;
            let grad =
                (pc_quad_pot(dp, m, &quad, 0.0) - pc_quad_pot(dm, m, &quad, 0.0)) / (2.0 * h);
            assert!((a[axis] + grad).abs() < 1e-6, "axis {axis}");
        }
    }

    #[test]
    fn traceless_invariance() {
        // Adding c·I to the quadrupole must not change the force (the
        // trace terms cancel by construction).
        let quad = SymMat3::new(0.3, 0.1, 0.2, 0.05, -0.02, 0.07);
        let mut shifted = quad;
        shifted.m[0] += 5.0;
        shifted.m[1] += 5.0;
        shifted.m[2] += 5.0;
        let d = Vec3::new(1.0, 2.0, -0.5);
        let a1 = pc_quad_acc(d, 1.0, &quad, 0.0);
        let a2 = pc_quad_acc(d, 1.0, &shifted, 0.0);
        assert!((a1 - a2).norm() < 1e-12, "{a1:?} vs {a2:?}");
    }
}
