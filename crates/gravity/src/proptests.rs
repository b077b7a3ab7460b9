//! Property-based tests of the batched list kernels (proptest): the apply
//! stage must be *bitwise* the scalar kernels summed in list order, for
//! arbitrary lists — including empty and length-1 segments — and its flop
//! accounting must follow the paper's fixed per-interaction costs.

#![cfg(test)]

use crate::evaluator::GravityEvaluator;
use crate::kernels::{
    pc_entries, pc_mono_acc_batch, pc_mono_acc_pot_batch, pc_mono_acc_pot_span, pc_mono_acc_span,
    pc_quad_acc, pc_quad_acc_batch, pc_quad_acc_pot_batch, pc_quad_acc_pot_span,
    pc_quad_acc_span, pp_acc, pp_acc_batch, pp_acc_pot, pp_acc_pot_batch, pp_acc_pot_span,
    pp_acc_span, pp_entries, span_may_alias, span_uses_avx2, Span, LANES,
};
use hot_base::flops::{FlopCounter, Kind};
use hot_base::{SymMat3, Vec3, FLOPS_PER_GRAV_INTERACTION, FLOPS_PER_QUAD_INTERACTION};
use hot_core::ilist::{InteractionList, ListConsumer, PcView, PpView};
use hot_core::moments::{MassMoments, Moments};
use proptest::prelude::*;

fn unit_points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec3>> {
    proptest::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        n,
    )
}

/// `SoA` copy of a source set, with `idx` starting at `s0` (the local-span
/// shape) — the batch kernels view straight into these arrays.
struct Soa {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    q: Vec<f64>,
    idx: Vec<u32>,
}

impl Soa {
    fn new(pts: &[Vec3], q: &[f64], s0: u32) -> Self {
        Soa {
            x: pts.iter().map(|p| p.x).collect(),
            y: pts.iter().map(|p| p.y).collect(),
            z: pts.iter().map(|p| p.z).collect(),
            q: q.to_vec(),
            idx: (0..pts.len() as u32).map(|j| s0 + j).collect(),
        }
    }

    fn view(&self) -> PpView<'_, MassMoments> {
        PpView { x: &self.x, y: &self.y, z: &self.z, q: &self.q, idx: &self.idx }
    }
}

/// Which instantiation the entry-point calls below exercise on this host
/// (`ci.sh` prints the line). The choice must be a process-wide fact, never
/// a per-thread one: a fiber can resume on another worker mid-list.
#[test]
fn span_instantiation_is_process_wide() {
    let here = span_uses_avx2();
    println!("span kernels: {} instantiation", if here { "AVX2" } else { "baseline" });
    let there = std::thread::spawn(span_uses_avx2).join().expect("detection does not panic");
    assert_eq!(here, there);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `pp_acc_batch` is bitwise the scalar `pp_acc` summed in list order
    /// with the self-pair skipped — for any segment length (0, 1, many)
    /// and any sink index inside or outside the segment's index span.
    #[test]
    fn pp_batch_matches_scalar_bitwise(
        pts in unit_points(0..40),
        sink in 0u32..50,
        xi in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        eps2 in 1e-10f64..1e-2,
    ) {
        let xi = Vec3::new(xi.0, xi.1, xi.2);
        let q: Vec<f64> = (0..pts.len()).map(|j| 0.25 + j as f64 * 0.5).collect();
        // idx spans 7..7+len, so `sink` sometimes aliases, sometimes not.
        let soa = Soa::new(&pts, &q, 7);
        let batch = pp_acc_batch(xi, sink, &soa.view(), eps2);
        let mut want = Vec3::ZERO;
        for (j, p) in pts.iter().enumerate() {
            if soa.idx[j] == sink {
                continue;
            }
            want += pp_acc(xi - *p, q[j], eps2);
        }
        prop_assert_eq!(batch.x.to_bits(), want.x.to_bits());
        prop_assert_eq!(batch.y.to_bits(), want.y.to_bits());
        prop_assert_eq!(batch.z.to_bits(), want.z.to_bits());

        // The potential-carrying variant agrees with its scalar too.
        let (ba, bp) = pp_acc_pot_batch(xi, sink, &soa.view(), eps2);
        let (mut wa, mut wp) = (Vec3::ZERO, 0.0f64);
        for (j, p) in pts.iter().enumerate() {
            if soa.idx[j] == sink {
                continue;
            }
            let (a, ph) = pp_acc_pot(xi - *p, q[j], eps2);
            wa += a;
            wp += ph;
        }
        prop_assert_eq!(ba.x.to_bits(), wa.x.to_bits());
        prop_assert_eq!(bp.to_bits(), wp.to_bits());
    }

    /// `pc_quad_acc_batch` is bitwise the scalar `pc_quad_acc` added cell
    /// by cell in list order, for any number of cells (including none).
    #[test]
    fn pc_batch_matches_scalar_bitwise(
        centers in unit_points(0..12),
        xi in (2.0f64..3.0, 2.0f64..3.0, 2.0f64..3.0),
        eps2 in 1e-10f64..1e-2,
    ) {
        let xi = Vec3::new(xi.0, xi.1, xi.2);
        // Cells with nontrivial quadrupoles: two particles about the center.
        let moments: Vec<MassMoments> = centers
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let off = Vec3::new(0.01 + k as f64 * 0.003, 0.02, 0.005);
                let mut m = MassMoments::from_particle(c + off, &(1.0 + k as f64), c);
                m.accumulate_shifted(&MassMoments::from_particle(c - off, &2.0, c), c, c);
                m
            })
            .collect();
        let (cx, cy, cz): (Vec<f64>, Vec<f64>, Vec<f64>) = (
            centers.iter().map(|c| c.x).collect(),
            centers.iter().map(|c| c.y).collect(),
            centers.iter().map(|c| c.z).collect(),
        );
        let cells = PcView::<MassMoments> { x: &cx, y: &cy, z: &cz, m: &moments };
        let mut batch = Vec3::ZERO;
        pc_quad_acc_batch(xi, &cells, eps2, &mut batch);
        let mut want = Vec3::ZERO;
        for (k, &c) in centers.iter().enumerate() {
            want += pc_quad_acc(xi - c, moments[k].mass, &moments[k].quad, eps2);
        }
        prop_assert_eq!(batch.x.to_bits(), want.x.to_bits());
        prop_assert_eq!(batch.y.to_bits(), want.y.to_bits());
        prop_assert_eq!(batch.z.to_bits(), want.z.to_bits());
    }

    /// The span kernels — the production apply path — are bitwise the
    /// per-sink batch kernels, in both instantiations of the lane body:
    /// every kernel runs through its public entry point (the instantiation
    /// the host selects — AVX2 where the CPU has it) and, wherever the lane
    /// body runs at all, through the baseline instantiation called
    /// directly. Every case runs group sizes 1 ..= 2·LANES + 1, so every
    /// padding count; the P-P segment is a ghost one, a local one clear of
    /// the sinks, or one aliasing them; P-C runs mono and quad; all with
    /// and without potential, onto non-zero accumulators. `acc`/`pot` are
    /// exactly `sinks.len()` long, so writing a padding lane back panics.
    #[test]
    fn span_matches_batch_bitwise(
        all in unit_points(2 * LANES + 6..24),
        start in 0usize..6,
        src_pts in unit_points(0..30),
        s0 in 0u32..40,
        ghost in any::<bool>(),
        quads in proptest::collection::vec(-1.0f64..1.0, 30..31),
        eps2 in 1e-10f64..1e-2,
    ) {
        let q: Vec<f64> = (0..src_pts.len()).map(|j| 0.3 + j as f64 * 0.4).collect();
        let mut soa = Soa::new(&src_pts, &q, s0);
        if ghost {
            soa.idx.fill(u32::MAX);
        }
        let src = soa.view();

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
        let cells = PcView::<MassMoments> { x: &cx, y: &cy, z: &cz, m: &moments };

        for span_len in 1..=2 * LANES + 1 {
            let sinks = start..start + span_len;
            // Bit patterns of (acc, pot) after `f` ran on the same non-zero
            // starting buffers.
            let run = |f: &dyn Fn(&mut [Vec3], &mut [f64])| {
                let mut acc: Vec<Vec3> = (0..span_len)
                    .map(|k| Vec3::new(0.5, -0.25, 0.125) * (k as f64 - 3.0))
                    .collect();
                let mut pot: Vec<f64> = (0..span_len).map(|k| 0.75 - k as f64).collect();
                f(&mut acc, &mut pot);
                let acc: Vec<[u64; 3]> =
                    acc.iter().map(|a| [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()]).collect();
                (acc, pot.iter().map(|p| p.to_bits()).collect::<Vec<u64>>())
            };
            // The baseline instantiation, called directly.
            macro_rules! baseline {
                ($entries:expr, $acc:expr, $pot:expr, $quad:literal, $p:literal, $sub:literal) => {{
                    let (sink_pos, entries) = (&all[..], $entries);
                    Span { sink_pos, sinks: sinks.clone(), entries, eps2, acc: $acc, pot: $pot }
                        .lanes::<$quad, $p, $sub>()
                }};
            }
            // Per kernel: the per-sink oracle, the public entry point, the
            // baseline lane body.
            type Oracle<'c> = &'c dyn Fn(Vec3, u32, &mut Vec3, &mut f64);
            type Kernel<'c> = &'c dyn Fn(&mut [Vec3], &mut [f64]);
            let kernels: [(&str, Oracle, Kernel, Kernel); 6] = [
                (
                    "pp_acc",
                    &|xi, i, a, _| *a += pp_acc_batch(xi, i, &src, eps2),
                    &|a, _| pp_acc_span(&all, sinks.clone(), &src, eps2, a),
                    &|a, _| baseline!(pp_entries(&src), a, &mut [], false, false, true),
                ),
                (
                    "pp_acc_pot",
                    &|xi, i, a, p| {
                        let (aj, pj) = pp_acc_pot_batch(xi, i, &src, eps2);
                        *a += aj;
                        *p += pj;
                    },
                    &|a, p| pp_acc_pot_span(&all, sinks.clone(), &src, eps2, a, p),
                    &|a, p| baseline!(pp_entries(&src), a, p, false, true, true),
                ),
                (
                    "pc_mono_acc",
                    &|xi, _, a, _| pc_mono_acc_batch(xi, &cells, eps2, a),
                    &|a, _| pc_mono_acc_span(&all, sinks.clone(), &cells, eps2, a),
                    &|a, _| baseline!(pc_entries(&cells), a, &mut [], false, false, false),
                ),
                (
                    "pc_mono_acc_pot",
                    &|xi, _, a, p| pc_mono_acc_pot_batch(xi, &cells, eps2, a, p),
                    &|a, p| pc_mono_acc_pot_span(&all, sinks.clone(), &cells, eps2, a, p),
                    &|a, p| baseline!(pc_entries(&cells), a, p, false, true, false),
                ),
                (
                    "pc_quad_acc",
                    &|xi, _, a, _| pc_quad_acc_batch(xi, &cells, eps2, a),
                    &|a, _| pc_quad_acc_span(&all, sinks.clone(), &cells, eps2, a),
                    &|a, _| baseline!(pc_entries(&cells), a, &mut [], true, false, false),
                ),
                (
                    "pc_quad_acc_pot",
                    &|xi, _, a, p| pc_quad_acc_pot_batch(xi, &cells, eps2, a, p),
                    &|a, p| pc_quad_acc_pot_span(&all, sinks.clone(), &cells, eps2, a, p),
                    &|a, p| baseline!(pc_entries(&cells), a, p, true, true, false),
                ),
            ];
            // An aliasing P-P segment takes the per-sink path inside the
            // entry point; the lane body must never see it.
            let aliasing = span_may_alias(&src, &sinks);
            prop_assert!(!(ghost && aliasing));
            for (name, oracle, entry, lane_body) in kernels {
                let want = run(&|acc, pot| {
                    for (k, i) in sinks.clone().enumerate() {
                        oracle(all[i], i as u32, &mut acc[k], &mut pot[k]);
                    }
                });
                prop_assert_eq!(&run(entry), &want, "{}_span, {} sinks", name, span_len);
                if !(aliasing && name.starts_with("pp")) {
                    prop_assert_eq!(&run(lane_body), &want, "{} lane body, {} sinks", name, span_len);
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
