//! Property-based tests of the list-apply stage (proptest): the one
//! kernel entry must be *bitwise* the scalar kernels applied per sink in
//! list order, for arbitrary lists — including empty and length-1
//! segments — and its flop accounting must follow the paper's fixed
//! per-interaction costs.

#![cfg(test)]

use crate::evaluator::GravityEvaluator;
use crate::kernels::{
    apply_segment, lane_body, pc_mono_acc, pc_quad_acc, pc_quad_pot, pp_acc, pp_acc_pot,
    span_kernel, span_may_alias, SpanKernel, WIDE_LANES,
};
use hot_base::flops::{FlopCounter, Kind};
use hot_base::{SymMat3, Vec3, FLOPS_PER_GRAV_INTERACTION, FLOPS_PER_QUAD_INTERACTION};
use hot_core::ilist::{InteractionList, ListConsumer, PcView, PpView, Segment};
use hot_core::moments::{MassMoments, Moments};
use proptest::prelude::*;
use std::ops::Range;

fn unit_points(n: Range<usize>) -> impl Strategy<Value = Vec<Vec3>> {
    proptest::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        n,
    )
}

/// `SoA` copy of a source set; its view takes the per-source tree-order
/// indices, so one set of sources can be a ghost, a clear or an aliasing
/// segment.
struct Soa {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    q: Vec<f64>,
}

impl Soa {
    fn new(pts: &[Vec3], q: &[f64]) -> Self {
        Soa {
            x: pts.iter().map(|p| p.x).collect(),
            y: pts.iter().map(|p| p.y).collect(),
            z: pts.iter().map(|p| p.z).collect(),
            q: q.to_vec(),
        }
    }

    fn view<'a>(&'a self, idx: &'a [u32]) -> PpView<'a, MassMoments> {
        PpView { x: &self.x, y: &self.y, z: &self.z, q: &self.q, idx }
    }
}

/// The oracle: the five scalar kernels, sink by sink and source by source
/// in list order. A P-P segment sums into a fresh sub-sum (self-pair
/// skipped) added once; a P-C cell adds directly. An empty `pot` means no
/// potential, as for [`apply_segment`].
fn per_sink_scalar(
    seg: &Segment<'_, MassMoments>,
    sink_pos: &[Vec3],
    sinks: Range<usize>,
    eps2: f64,
    quadrupole: bool,
    acc: &mut [Vec3],
    pot: &mut [f64],
) {
    let with_pot = !pot.is_empty();
    for (k, i) in sinks.enumerate() {
        let xi = sink_pos[i];
        match seg {
            Segment::Pp(src) => {
                let (mut a, mut p) = (Vec3::ZERO, 0.0);
                for j in 0..src.x.len() {
                    if src.idx[j] == i as u32 {
                        continue;
                    }
                    let d = xi - Vec3::new(src.x[j], src.y[j], src.z[j]);
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
            Segment::Pc(cells) => {
                for (c, m) in cells.m.iter().enumerate() {
                    let d = xi - Vec3::new(cells.x[c], cells.y[c], cells.z[c]);
                    if quadrupole {
                        acc[k] += pc_quad_acc(d, m.mass, &m.quad, eps2);
                        if with_pot {
                            pot[k] += pc_quad_pot(d, m.mass, &m.quad, eps2);
                        }
                    } else {
                        acc[k] += pc_mono_acc(d, m.mass, eps2);
                        if with_pot {
                            pot[k] += pp_acc_pot(d, m.mass, eps2).1;
                        }
                    }
                }
            }
        }
    }
}

/// Which instantiation the entry-point calls below exercise on this host
/// (`ci.sh` prints the line). The choice must be a process-wide fact, never
/// a per-thread one: a fiber can resume on another worker mid-list.
#[test]
fn span_instantiation_is_process_wide() {
    let here = span_kernel();
    println!("span kernels: {here}");
    let there = std::thread::spawn(span_kernel).join().expect("detection does not panic");
    assert_eq!(here, there);
    assert!(here.runs_here() && SpanKernel::Baseline.runs_here());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`apply_segment`] — the production apply path — is bitwise the
    /// per-sink scalar oracle, and so is every instantiation of the lane
    /// body the CPU runs (baseline always, AVX2 and AVX-512 where present),
    /// called directly wherever the lane body runs at all: the entry runs
    /// the one the host selects. Every case runs group sizes
    /// 1 ..= 2·WIDE_LANES + 1, so every padding count of both widths and
    /// every split of a group into 8-wide blocks and a 4-wide tail; the P-P
    /// segment is a ghost one, a local one clear of the sinks, and a local
    /// one starting at every index from 0 to one past the group's end — so
    /// below the group and short of it, ending next to it or overlapping
    /// it, inside it, right after it (any length, including none); P-C
    /// runs mono and quad; all with and without potential, onto non-zero
    /// accumulators. Whether a P-P segment may alias is checked against a
    /// brute-force search for a sink index among its sources. `acc`/`pot`
    /// are exactly `sinks.len()` long, so writing a padding lane back
    /// panics.
    #[test]
    fn apply_segment_matches_scalar_bitwise(
        all in unit_points(2 * WIDE_LANES + 6..32),
        start in 0usize..6,
        src_pts in unit_points(0..30),
        quads in proptest::collection::vec(-1.0f64..1.0, 30..31),
        eps2 in 1e-10f64..1e-2,
    ) {
        let n = src_pts.len() as u32;
        let q: Vec<f64> = (0..n).map(|j| 0.3 + f64::from(j) * 0.4).collect();
        let soa = Soa::new(&src_pts, &q);
        let ghost = vec![u32::MAX; src_pts.len()];
        // Every sink index is below `all.len()` < 32.
        let clear: Vec<u32> = (0..n).map(|j| 1000 + j).collect();

        // P-C: a short run of cells whose quadrupole terms outweigh their
        // monopole, so a reordered operation in either shows in the sum.
        let centers: Vec<Vec3> = (0..5).map(|k| Vec3::new(5.0 + k as f64, 5.0, 5.0)).collect();
        let moments: Vec<MassMoments> = quads
            .chunks_exact(6)
            .map(|m| {
                let quad = SymMat3::new(m[0], m[1], m[2], m[3], m[4], m[5]) * 30.0;
                MassMoments { mass: 0.5, quad, b2: quad.trace() }
            })
            .collect();
        let (cx, cy, cz): (Vec<f64>, Vec<f64>, Vec<f64>) = (
            centers.iter().map(|c| c.x).collect(),
            centers.iter().map(|c| c.y).collect(),
            centers.iter().map(|c| c.z).collect(),
        );
        let cells = || Segment::Pc(PcView::<MassMoments> { x: &cx, y: &cy, z: &cz, m: &moments });

        for span_len in 1..=2 * WIDE_LANES + 1 {
            let sinks = start..start + span_len;
            // A local segment starting at every index up to one past the
            // group's end.
            let local: Vec<Vec<u32>> =
                (0..=sinks.end as u32 + 1).map(|f| (0..n).map(|j| f + j).collect()).collect();
            let mut cases = vec![
                ("pp ghost".to_string(), Segment::Pp(soa.view(&ghost)), false),
                ("pp clear".to_string(), Segment::Pp(soa.view(&clear)), false),
                ("pc mono".to_string(), cells(), false),
                ("pc quad".to_string(), cells(), true),
            ];
            for (f, idx) in local.iter().enumerate() {
                cases.push((format!("pp local from {f}"), Segment::Pp(soa.view(idx)), false));
            }
            for (name, seg, quadrupole) in &cases {
                let aliasing = match seg {
                    Segment::Pp(src) => {
                        let brute = src.idx.iter().any(|&j| sinks.contains(&(j as usize)));
                        prop_assert_eq!(span_may_alias(src, &sinks), brute, "{}", name);
                        brute
                    }
                    Segment::Pc(_) => false,
                };
                for with_pot in [false, true] {
                    // Bit patterns of (acc, pot) after `f` ran on the same
                    // non-zero starting buffers; `pot` is empty without
                    // potential.
                    let run = |f: &dyn Fn(&mut [Vec3], &mut [f64])| {
                        let mut acc: Vec<Vec3> = (0..span_len)
                            .map(|k| Vec3::new(0.5, -0.25, 0.125) * (k as f64 - 3.0))
                            .collect();
                        let pot_len = if with_pot { span_len } else { 0 };
                        let mut pot: Vec<f64> = (0..pot_len).map(|k| 0.75 - k as f64).collect();
                        f(&mut acc, &mut pot);
                        let bits = |a: &Vec3| [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()];
                        let acc: Vec<[u64; 3]> = acc.iter().map(bits).collect();
                        (acc, pot.iter().map(|p| p.to_bits()).collect::<Vec<u64>>())
                    };
                    let (s, q) = (&sinks, *quadrupole);
                    let want = run(&|a, p| per_sink_scalar(seg, &all, s.clone(), eps2, q, a, p));
                    let got = run(&|a, p| apply_segment(seg, &all, s.clone(), eps2, q, a, p));
                    let tag = format!("{name}, pot {with_pot}, {span_len} sinks");
                    prop_assert_eq!(&got, &want, "apply_segment: {}", tag);
                    // An aliasing P-P segment takes the per-sink path inside
                    // the entry; the lane body must never see it.
                    if aliasing {
                        continue;
                    }
                    for kernel in SpanKernel::ALL.into_iter().filter(|k| k.runs_here()) {
                        let got =
                            run(&|a, p| lane_body(seg, &all, s.clone(), eps2, q, a, p, kernel));
                        prop_assert_eq!(&got, &want, "{} lane body: {}", kernel, tag);
                    }
                }
            }
        }
    }

    /// Flop accounting of one consumed list: GravPP pairs follow the walk
    /// convention (`gn·len`, minus `gn` for the exact self-span), P-C pairs
    /// are `gn` per cell, and the flop total is the paper's fixed cost per
    /// interaction — 38 for P-P, 70 (quad) or 38 (mono) for P-C.
    #[test]
    fn consume_flop_accounting_is_pinned(
        gn in 1usize..9,
        n_leaf in 0usize..20,
        n_cells in 0usize..8,
        quadrupole in any::<bool>(),
    ) {
        let n = gn + n_leaf;
        let pos: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(0.1 + i as f64 * 0.07, 0.3, 0.9 - i as f64 * 0.02))
            .collect();
        let q = vec![1.0f64; n];

        let mut list = InteractionList::<MassMoments>::new();
        // Exact self-span …
        list.push_pp(&pos[0..gn], &q[0..gn], Some(0));
        // … a disjoint local leaf …
        if n_leaf > 0 {
            list.push_pp(&pos[gn..], &q[gn..], Some(gn));
        }
        // … and a run of accepted cells.
        let far = Vec3::new(40.0, 40.0, 40.0);
        let m = MassMoments::from_particle(far + Vec3::new(0.1, 0.0, 0.0), &3.0, far);
        for _ in 0..n_cells {
            list.push_pc(far, &m);
        }

        let counter = FlopCounter::new();
        let mut acc = vec![Vec3::ZERO; gn];
        let mut work = vec![0.0f32; gn];
        let mut ev = GravityEvaluator {
            acc: &mut acc,
            pot: None,
            eps2: 1e-8,
            quadrupole,
            counter: &counter,
            work: &mut work,
            base: 0,
        };
        ev.consume(&pos, &q, 0..gn, &list);

        let pp_pairs = (gn * (gn - 1) + gn * n_leaf) as u64;
        let pc_pairs = (gn * n_cells) as u64;
        prop_assert_eq!((pp_pairs, pc_pairs), list.expected_stats(&(0..gn)));
        prop_assert_eq!(counter.get(Kind::GravPP), pp_pairs);
        let pc_kind = if quadrupole { Kind::GravPCQuad } else { Kind::GravPCMono };
        prop_assert_eq!(counter.get(pc_kind), pc_pairs);
        let pc_cost = if quadrupole {
            FLOPS_PER_QUAD_INTERACTION
        } else {
            FLOPS_PER_GRAV_INTERACTION
        };
        prop_assert_eq!(
            counter.report().flops(),
            pp_pairs * FLOPS_PER_GRAV_INTERACTION + pc_pairs * pc_cost
        );
        // Per-sink work tallies the listed entries, not the pair fan-out.
        let want_work = (list.pp_entries() + list.pc_entries()) as f32;
        for w in &work {
            prop_assert_eq!(*w, want_work);
        }
    }
}
