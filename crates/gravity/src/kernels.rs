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
//! against a whole sink group with one sink per SIMD lane. The lane body is
//! generic over its block width and compiled three times: [`LANES`] = 4
//! sinks per block at baseline features and for AVX2, and [`WIDE_LANES`]
//! = 8 for AVX-512, which hands a group's last 1–4 sinks to the AVX2 body.
//! The CPU picks the widest once per process ([`span_kernel`]). The scalar
//! kernels applied per sink in list order are the oracle every
//! instantiation is pinned against bit for bit (`proptests.rs`):
//! vectorising across sinks, at any width, leaves every sink's own
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

/// Sinks per block of the 4-wide lane body: one sink per SIMD lane,
/// every source broadcast to all of them. Four `f64` lanes fill one AVX2
/// register; the baseline and AVX2 instantiations run every block at this
/// width, and the AVX-512 one runs a group's last 1–4 sinks at it.
pub const LANES: usize = 4;

/// Sinks per block of the AVX-512 instantiation: eight `f64` lanes fill
/// one 512-bit register. Only a group's last block needs padding, so the
/// extra width pays even at a mean group of 7.66 sinks (EXPERIMENTS.md K5).
pub const WIDE_LANES: usize = 8;

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

/// A block of `W` points as one lane array per coordinate.
#[inline(always)]
fn per_axis<const W: usize>(point: impl Fn(usize) -> Vec3) -> [[f64; W]; 3] {
    [per_lane(|l| point(l).x), per_lane(|l| point(l).y), per_lane(|l| point(l).z)]
}

/// An instantiation of the lane body: the block width and the target
/// features it is compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKernel {
    /// [`LANES`] sinks per block at the crate's baseline target features.
    Baseline,
    /// [`LANES`] sinks per block, one 256-bit register per lane array.
    Avx2,
    /// [`WIDE_LANES`] sinks per block, one 512-bit register per lane
    /// array; a group's last 1–4 sinks run as one AVX2 block.
    Avx512,
}

impl SpanKernel {
    /// Every instantiation, widest first.
    pub(crate) const ALL: [SpanKernel; 3] =
        [SpanKernel::Avx512, SpanKernel::Avx2, SpanKernel::Baseline];

    /// Whether the running CPU has the features this instantiation is
    /// compiled for. `std` detects once per process and caches in an
    /// atomic — not a thread-local, so a fiber resumed on another worker
    /// gets the same answer.
    pub(crate) fn runs_here(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512) = (false, false);
        match self {
            SpanKernel::Baseline => true,
            SpanKernel::Avx2 => avx2,
            SpanKernel::Avx512 => avx2 && avx512,
        }
    }
}

impl std::fmt::Display for SpanKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpanKernel::Baseline => "baseline",
            SpanKernel::Avx2 => "AVX2",
            SpanKernel::Avx512 => "AVX-512, 8 lanes + 4-lane tail",
        })
    }
}

/// The instantiation [`apply_segment`] runs on this CPU: the widest one
/// whose target features the CPU has, detected once per process.
pub fn span_kernel() -> SpanKernel {
    SpanKernel::ALL.into_iter().find(|k| k.runs_here()).unwrap_or(SpanKernel::Baseline)
}

/// How many of a group's `n` sinks the AVX-512 instantiation hands to the
/// 4-wide tail: a last 8-wide block of 1–4 sinks would be half padding or
/// more, so it runs as one [`LANES`] block instead, while 5–7 stay one
/// padded [`WIDE_LANES`] block.
fn wide_tail(n: usize) -> usize {
    let r = n % WIDE_LANES;
    if r <= LANES {
        r
    } else {
        0
    }
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
    /// The lane body behind [`apply_segment`]: the group's sinks at
    /// offsets `part` of `acc`, `W` at a time, lane = sink.
    ///
    /// Every lane runs, entry by entry in list order, exactly the IEEE
    /// operations of [`pp_acc`] / [`pc_quad_acc`] / [`pc_quad_pot`] on its
    /// own sink (`a * b + c` is never contracted, nothing is reassociated
    /// across entries), so the result is bitwise the scalar kernels applied
    /// per sink, whatever `W`. `SUBSUM` is the P-P contract — the
    /// segment's sum starts at zero and is added to `acc` once; without it
    /// each entry is added to `acc` directly (the P-C contract). `QUAD`
    /// adds the quadrupole terms, `POT` fills `pot`. A last block shorter
    /// than `W` is padded with copies of its last sink — a real sink, so
    /// `rsqrt`'s domain holds in the padding exactly when it holds for the
    /// group — and only the valid lanes are written back. Self-pairs are
    /// the caller's business: a segment that may alias the sinks never
    /// gets here.
    ///
    /// Each step is one pass over the lanes ([`per_lane`]), which the
    /// compiler turns into vector arithmetic where vector registers are
    /// enabled ([`Span::lanes_avx2`], [`Span::lanes_avx512`]); at baseline
    /// features it is `W` interleaved scalar chains.
    #[inline(always)]
    fn lanes<const W: usize, const QUAD: bool, const POT: bool, const SUBSUM: bool>(
        &mut self,
        part: Range<usize>,
    ) {
        let Span { sink_pos, ref sinks, ref entries, eps2, ref mut acc, ref mut pot } = *self;
        debug_assert_eq!(acc.len(), sinks.len());
        debug_assert_eq!(pot.len(), if POT { sinks.len() } else { 0 });
        for k in part.clone().step_by(W) {
            let valid = W.min(part.end - k);
            let at = |l: usize| k + l.min(valid - 1);
            let [xs, ys, zs]: [[f64; W]; 3] = per_axis(|l| sink_pos[sinks.start + at(l)]);
            let [mut ax, mut ay, mut az, mut p] = [[0.0; W]; 4];
            if !SUBSUM {
                [ax, ay, az] = per_axis(|l| acc[at(l)]);
                if POT {
                    p = per_lane(|l| pot[at(l)]);
                }
            }
            for (sx, sy, sz, m, quad) in entries.clone() {
                let dx: [f64; W] = per_lane(|l| xs[l] - sx);
                let dy: [f64; W] = per_lane(|l| ys[l] - sy);
                let dz: [f64; W] = per_lane(|l| zs[l] - sz);
                let r2: [f64; W] =
                    per_lane(|l| dx[l] * dx[l] + dy[l] * dy[l] + dz[l] * dz[l] + eps2);
                let rinv = rsqrt_lanes(r2);
                let rinv2: [f64; W] = per_lane(|l| rinv[l] * rinv[l]);
                let rinv3: [f64; W] = per_lane(|l| rinv2[l] * rinv[l]);
                let mono: [f64; W] = per_lane(|l| -m * rinv3[l]);
                if QUAD {
                    let [xx, yy, zz, xy, xz, yz] = quad.m;
                    let tr = quad.trace();
                    let rinv5: [f64; W] = per_lane(|l| rinv3[l] * rinv2[l]);
                    let rinv7: [f64; W] = per_lane(|l| rinv5[l] * rinv2[l]);
                    let qx: [f64; W] = per_lane(|l| xx * dx[l] + xy * dy[l] + xz * dz[l]);
                    let qy: [f64; W] = per_lane(|l| xy * dx[l] + yy * dy[l] + yz * dz[l]);
                    let qz: [f64; W] = per_lane(|l| xz * dx[l] + yz * dy[l] + zz * dz[l]);
                    // 3 dᵀQd − r² tr Q, shared by the force and the potential.
                    let s: [f64; W] = per_lane(|l| {
                        3.0 * (dx[l] * qx[l] + dy[l] * qy[l] + dz[l] * qz[l]) - r2[l] * tr
                    });
                    let radial: [f64; W] = per_lane(|l| 2.5 * s[l] * rinv7[l]);
                    for (a, d, q) in [(&mut ax, dx, qx), (&mut ay, dy, qy), (&mut az, dz, qz)] {
                        for l in 0..W {
                            a[l] += d[l] * mono[l] + (q[l] * 3.0 - d[l] * tr) * rinv5[l]
                                - d[l] * radial[l];
                        }
                    }
                    if POT {
                        for l in 0..W {
                            p[l] += -m * rinv[l] - 0.5 * s[l] * rinv5[l];
                        }
                    }
                } else {
                    for (a, d) in [(&mut ax, dx), (&mut ay, dy), (&mut az, dz)] {
                        for l in 0..W {
                            a[l] += d[l] * mono[l];
                        }
                    }
                    if POT {
                        for l in 0..W {
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

    /// [`Span::lanes`] at [`LANES`] and the crate's baseline features.
    /// Out of line, so that [`Span::apply`]'s own frame stays a
    /// dispatcher's: inlined there, the body's frame would sit under the
    /// AVX instantiations' frames on every call (see [`Span::apply`]).
    #[inline(never)]
    fn lanes_baseline<const QUAD: bool, const POT: bool, const SUBSUM: bool>(
        &mut self,
        part: Range<usize>,
    ) {
        self.lanes::<LANES, QUAD, POT, SUBSUM>(part);
    }

    /// [`Span::lanes`] at [`LANES`] compiled with AVX2 enabled, so the
    /// four sink lanes of a block are one 256-bit register. Only `avx2` —
    /// not `fma` — is enabled; Rust never contracts `a * b + c` anyway, so
    /// the result stays bitwise the baseline instantiation's.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lanes_avx2<const QUAD: bool, const POT: bool, const SUBSUM: bool>(
        &mut self,
        part: Range<usize>,
    ) {
        self.lanes::<LANES, QUAD, POT, SUBSUM>(part);
    }

    /// [`Span::lanes`] at [`WIDE_LANES`] compiled with AVX-512F enabled,
    /// so the eight sink lanes of a block are one 512-bit register. As for
    /// [`Span::lanes_avx2`], `fma` is not asked for (`avx512f` implies it
    /// to the compiler, which still never contracts), so the result stays
    /// bitwise the baseline instantiation's.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn lanes_avx512<const QUAD: bool, const POT: bool, const SUBSUM: bool>(
        &mut self,
        part: Range<usize>,
    ) {
        self.lanes::<WIDE_LANES, QUAD, POT, SUBSUM>(part);
    }

    /// Run the lane body in the instantiation `kernel` — the one dispatch
    /// point, and the only `unsafe` of the apply stage. With
    /// [`SpanKernel::Avx512`] a group runs in [`WIDE_LANES`] blocks, and a
    /// last 1–4 sinks ([`wide_tail`]) as one AVX2 block over the tail of
    /// `acc`/`pot`. The instantiations get the span by reference and the
    /// part of the group they run as a range, so this frame holds no
    /// second span.
    ///
    /// Out of line, and nothing but a dispatcher: inlined, all six
    /// monomorphs would share [`apply_segment`]'s stack frame (measured on
    /// a 2-thread x86-64 host: `dist_fine`'s 128 ranks peak ≈ 0.45 MiB,
    /// 1 %, higher), and every byte of this frame sits under a lane body's
    /// on each call, so it deepens the stack of every rank fiber that
    /// applies lists just the same (EXPERIMENTS.md K5 lists the frames).
    ///
    /// # Panics
    ///
    /// When `kernel` does not [run here](SpanKernel::runs_here).
    #[allow(unsafe_code)]
    #[inline(never)]
    fn apply<const QUAD: bool, const POT: bool, const SUBSUM: bool>(mut self, kernel: SpanKernel) {
        assert!(kernel.runs_here(), "the {kernel} lane body asked for on a CPU without it");
        let all = 0..self.sinks.len();
        match kernel {
            #[cfg(target_arch = "x86_64")]
            SpanKernel::Avx512 => {
                let head = all.end - wide_tail(all.end);
                // The tail is one 4-wide block at most, and a partial wide
                // block is more than four sinks.
                debug_assert!(all.end - head <= LANES);
                debug_assert!(!(1..=LANES).contains(&(head % WIDE_LANES)));
                // SAFETY: `runs_here` has just detected `avx512f` and `avx2`
                // on the running CPU, all that the two bodies require.
                unsafe {
                    if head > 0 {
                        self.lanes_avx512::<QUAD, POT, SUBSUM>(0..head);
                    }
                    if head < all.end {
                        self.lanes_avx2::<QUAD, POT, SUBSUM>(head..all.end);
                    }
                }
            }
            // SAFETY: `runs_here` has just detected `avx2` on the running CPU.
            #[cfg(target_arch = "x86_64")]
            SpanKernel::Avx2 => unsafe { self.lanes_avx2::<QUAD, POT, SUBSUM>(all) },
            _ => self.lanes_baseline::<QUAD, POT, SUBSUM>(all),
        }
    }
}

/// Apply one list segment to a whole sink group — the one entry of the
/// apply stage.
///
/// `acc[k]` (and `pot[k]`, when `pot` is not empty) belongs to sink
/// `sinks.start + k`. A P-P segment's sum starts at zero per sink and is
/// added once; each P-C cell, monopole or (with `quadrupole`) with its
/// quadrupole terms, is added directly — per sink, in list order, bitwise
/// the scalar kernels applied one source at a time. Every segment goes
/// through the lane body (`Span::lanes`, in the instantiation
/// [`span_kernel`] names) except a P-P segment that may hold a self-pair
/// (the group's own leaves: a few dozen of a list's ≈ 1 400 entries):
/// that one is evaluated per sink, since a masked lane would still compute
/// `rsqrt(0 + ε²)`, outside `rsqrt`'s domain when `ε = 0`.
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
        _ => lane_body(seg, sink_pos, sinks, eps2, quadrupole, acc, pot, span_kernel()),
    }
}

/// The one choice of lane-body monomorph per segment: P-P sums into a
/// sub-sum, P-C adds each cell directly, quadrupole terms and potential
/// as asked (an empty `pot` means none), run in the instantiation
/// `kernel` — [`span_kernel`] from [`apply_segment`], each one that runs
/// here from the property suite. The caller has ruled out a P-P segment
/// that may alias the sinks.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn lane_body(
    seg: &Segment<'_, MassMoments>,
    sink_pos: &[Vec3],
    sinks: Range<usize>,
    eps2: f64,
    quadrupole: bool,
    acc: &mut [Vec3],
    pot: &mut [f64],
    kernel: SpanKernel,
) {
    let with_pot = !pot.is_empty();
    match seg {
        Segment::Pp(src) => {
            let span = Span { sink_pos, sinks, entries: pp_entries(src), eps2, acc, pot };
            if with_pot {
                span.apply::<false, true, true>(kernel);
            } else {
                span.apply::<false, false, true>(kernel);
            }
        }
        Segment::Pc(cells) => {
            let span = Span { sink_pos, sinks, entries: pc_entries(cells), eps2, acc, pot };
            match (quadrupole, with_pot) {
                (false, false) => span.apply::<false, false, false>(kernel),
                (false, true) => span.apply::<false, true, false>(kernel),
                (true, false) => span.apply::<true, false, false>(kernel),
                (true, true) => span.apply::<true, true, false>(kernel),
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
