//! The gravity module's list consumer: applies finished interaction lists
//! as accelerations (and optionally potentials) with full flop accounting.
//!
//! This is the *apply* stage of the paper's list-build / list-apply split:
//! the traversal ([`hot_core::walk::walk_lists`] or the distributed walk)
//! records each sink group's accepted sources into an
//! [`InteractionList`], and [`GravityEvaluator::consume`] hands the
//! list to [`apply_segment`] one segment at a time — per sink, in list
//! order, bitwise-identical to the scalar kernels applied one source at a
//! time.

use crate::kernels::apply_segment;
use hot_base::flops::{FlopCounter, Kind};
use hot_base::Vec3;
use hot_core::ilist::{InteractionList, ListConsumer};
use hot_core::moments::{MassMoments, Moments};
use hot_core::tree::Tree;
use std::ops::Range;

/// Accumulates accelerations into `acc` for the sink groups it is handed.
/// One instance per rank; `base` maps absolute sink indices into
/// span-local buffers when `acc` covers only part of the problem.
pub struct GravityEvaluator<'a> {
    /// Acceleration output; sink `i` lands in `acc[i - base]`.
    pub acc: &'a mut [Vec3],
    /// Optional potential output (same indexing as `acc`).
    pub pot: Option<&'a mut [f64]>,
    /// Plummer softening squared.
    pub eps2: f64,
    /// Evaluate the quadrupole term of cell expansions.
    pub quadrupole: bool,
    /// Interaction counters.
    pub counter: &'a FlopCounter,
    /// Per-sink interaction tally (for work weights); same indexing as
    /// `acc`. Empty slice disables the tally.
    pub work: &'a mut [f32],
    /// First absolute sink index covered by `acc` (0 for whole-problem
    /// buffers).
    pub base: usize,
}

impl ListConsumer<MassMoments> for GravityEvaluator<'_> {
    fn consume(
        &mut self,
        sink_pos: &[Vec3],
        _sink_charge: &[f64],
        sinks: Range<usize>,
        list: &InteractionList<MassMoments>,
    ) {
        // Flop accounting first, in the walk's pair convention (self-pairs
        // excluded) — `expected_stats` is the same closed form the walk
        // pins its own counts against.
        let (pp_pairs, pc_pairs) = list.expected_stats(&sinks);
        self.counter.add(Kind::GravPP, pp_pairs);
        if self.quadrupole {
            self.counter.add(Kind::GravPCQuad, pc_pairs);
        } else {
            self.counter.add(Kind::GravPCMono, pc_pairs);
        }
        let work_per_sink = (list.pp_entries() + list.pc_entries()) as f32;
        // Segments are applied segment-outer, sinks blocked inside
        // `apply_segment` — per sink, each P-P segment still adds its own
        // fresh sub-sum once and each P-C cell adds directly, in list
        // order: bitwise the old sink-outer evaluation, but one segment
        // dispatch per group instead of per sink, each source loaded
        // once per block of sinks, and the block's sinks evaluated
        // together, one per SIMD lane. (A sink-block-outer
        // variant that holds accumulators in registers across segments
        // was measured slower: it re-streams the whole list once per
        // block instead of once per group.)
        let o = sinks.start - self.base;
        let acc = &mut self.acc[o..o + sinks.len()];
        let pot = self.pot.as_deref_mut().map_or(&mut [][..], |p| &mut p[o..o + sinks.len()]);
        for seg in list.segments() {
            apply_segment(&seg, sink_pos, sinks.clone(), self.eps2, self.quadrupole, acc, pot);
        }
        if !self.work.is_empty() {
            for w in &mut self.work[o..o + sinks.len()] {
                *w += work_per_sink;
            }
        }
    }

    /// Parts over disjoint slices of `acc`, `pot` and `work` (an empty
    /// `work` stays empty), each with its range's start as its `base`.
    fn split(
        &mut self,
        parts: &[Range<usize>],
    ) -> Option<Vec<Box<dyn ListConsumer<MassMoments> + Send + '_>>> {
        let tally = !self.work.is_empty();
        let (mut acc, mut pot, mut work) =
            (&mut self.acc[..], self.pot.as_deref_mut(), &mut self.work[..]);
        let mut at = self.base;
        let mut out: Vec<Box<dyn ListConsumer<MassMoments> + Send + '_>> =
            Vec::with_capacity(parts.len());
        for r in parts {
            assert!(r.start >= at, "split parts must ascend and be disjoint");
            let (skip, len) = (r.start - at, r.len());
            out.push(Box::new(GravityEvaluator {
                acc: carve(&mut acc, skip, len),
                pot: pot.as_mut().map(|p| carve(p, skip, len)),
                eps2: self.eps2,
                quadrupole: self.quadrupole,
                counter: self.counter,
                work: if tally { carve(&mut work, skip, len) } else { &mut [] },
                base: r.start,
            }));
            at = r.end;
        }
        Some(out)
    }
}

/// Cut `len` elements off `rest` after skipping `skip`, leaving the tail.
fn carve<'s, T>(rest: &mut &'s mut [T], skip: usize, len: usize) -> &'s mut [T] {
    let (head, tail) = std::mem::take(rest)[skip..].split_at_mut(len);
    *rest = tail;
    head
}

/// `sorted`, in tree order, back in the original order `order` gives —
/// the last step of `ForceCalc` and of the distributed step alike.
pub(crate) fn unsort<T: Copy + Default>(order: &[u32], sorted: &[T]) -> Vec<T> {
    let mut out = vec![T::default(); sorted.len()];
    for (&orig, &x) in order.iter().zip(sorted) {
        out[orig as usize] = x;
    }
    out
}

/// Panics, naming the body by `name(index in pos)`, when a position is not
/// finite; `ForceCalc` and the distributed step call it before their tree
/// build, whose own check can name only the index.
#[inline(never)]
pub(crate) fn refuse_non_finite(pos: &[Vec3], name: impl Fn(u32) -> u64) {
    if let Some(i) = pos.iter().position(|p| !p.is_finite()) {
        panic!("body {} is at {:?}, not a finite position", name(i as u32), pos[i]);
    }
}

/// Panics, naming both bodies, when `eps2` is 0 and two bodies of `tree`
/// sit at one position: their pair force is 0/0, and every force it
/// touches NaN. `ForceCalc` and the distributed step call it after their
/// tree build, `name` turning an original index of `tree.order` into the
/// caller's name for the body. Coincident bodies share a key, so only runs
/// of equal keys in the tree's key order are compared (and a decomposition
/// never splits one); a run is sorted by position, `-0.0` read as `0.0`.
#[inline(never)]
pub(crate) fn refuse_coincident<M: Moments>(tree: &Tree<M>, eps2: f64, name: impl Fn(u32) -> u64) {
    if eps2 != 0.0 {
        return;
    }
    let at = |i: usize| [tree.pos[i].x + 0.0, tree.pos[i].y + 0.0, tree.pos[i].z + 0.0].map(f64::to_bits);
    let mut first = 0;
    for run in tree.keys.chunk_by(|a, b| a == b) {
        first += run.len();
        if run.len() == 1 {
            continue;
        }
        let mut span: Vec<usize> = (first - run.len()..first).collect();
        span.sort_unstable_by_key(|&i| at(i));
        if let Some(w) = span.windows(2).find(|w| at(w[0]) == at(w[1])) {
            let (a, b) = (name(tree.order[w[0]]), name(tree.order[w[1]]));
            panic!("bodies {a} and {b} are both at {:?}: with eps2 = 0 their force is not finite", tree.pos[w[0]]);
        }
    }
}

/// Record the force-phase counters for one walk's worth of interactions:
/// a [`hot_trace::Phase::Force`] span holding the particle–particle and
/// particle–cell interaction counts plus the flops they cost.
///
/// This is the single place interaction counts enter the ledger — the walk
/// span records only traversal-side counters (`CellsOpened`, list entries,
/// requests, logical ABM traffic; see `WalkStats::record_traversal`), so
/// totals are never double-counted. `flops` should be the *delta* of
/// [`FlopCounter::report`]`().flops()` across the evaluation being
/// attributed.
pub fn record_force_phase(
    trace: &mut hot_trace::Ledger,
    walk: &hot_core::walk::WalkStats,
    flops: u64,
) {
    trace.begin(hot_trace::Phase::Force);
    trace.add(hot_trace::Counter::PpInteractions, walk.pp);
    trace.add(hot_trace::Counter::PcInteractions, walk.pc);
    trace.add(hot_trace::Counter::Flops, flops);
    trace.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_base::Aabb;
    use hot_core::tree::Tree;
    use hot_core::walk::walk_lists;
    use hot_core::Mac;

    #[test]
    fn two_body_symmetric_forces() {
        let pos = vec![Vec3::new(0.25, 0.5, 0.5), Vec3::new(0.75, 0.5, 0.5)];
        let mass = vec![1.0, 1.0];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &mass, 4);
        let counter = FlopCounter::new();
        let mut acc = vec![Vec3::ZERO; 2];
        let mut ev = GravityEvaluator {
            acc: &mut acc,
            pot: None,
            eps2: 0.0,
            quadrupole: false,
            counter: &counter,
            work: &mut [],
            base: 0,
        };
        walk_lists(&tree, &Mac::BarnesHut { theta: 0.5 }, &mut ev);
        // F = 1/0.5^2 = 4, pointing toward each other.
        let i0 = tree.order.iter().position(|&o| o == 0).unwrap();
        let i1 = tree.order.iter().position(|&o| o == 1).unwrap();
        assert!((acc[i0].x - 4.0).abs() < 1e-12, "{acc:?}");
        assert!((acc[i1].x + 4.0).abs() < 1e-12);
        assert_eq!(counter.get(Kind::GravPP), 2);
    }

    #[test]
    fn potential_and_work_tracking() {
        let pos = vec![Vec3::new(0.2, 0.2, 0.2), Vec3::new(0.8, 0.8, 0.8), Vec3::new(0.2, 0.8, 0.5)];
        let mass = vec![1.0, 2.0, 3.0];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &mass, 4);
        let counter = FlopCounter::new();
        let mut acc = vec![Vec3::ZERO; 3];
        let mut pot = vec![0.0; 3];
        let mut work = vec![0.0f32; 3];
        let mut ev = GravityEvaluator {
            acc: &mut acc,
            pot: Some(&mut pot),
            eps2: 1e-6,
            quadrupole: true,
            counter: &counter,
            work: &mut work,
            base: 0,
        };
        walk_lists(&tree, &Mac::BarnesHut { theta: 0.6 }, &mut ev);
        assert!(pot.iter().all(|&p| p < 0.0), "potentials attractive: {pot:?}");
        assert!(work.iter().all(|&w| w > 0.0), "work tracked: {work:?}");
    }

    /// A span-local evaluator (`base != 0`) must agree bitwise with a
    /// whole-problem one.
    #[test]
    fn base_offset_buffers_match() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let n = 64;
        let pos: Vec<Vec3> = (0..n)
            .map(|_| {
                use rand::Rng;
                Vec3::new(rng.gen(), rng.gen(), rng.gen())
            })
            .collect();
        let mass = vec![1.0 / n as f64; n];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &mass, 4);
        let counter = FlopCounter::new();

        let mut full = vec![Vec3::ZERO; n];
        let mut ev = GravityEvaluator {
            acc: &mut full,
            pot: None,
            eps2: 1e-6,
            quadrupole: true,
            counter: &counter,
            work: &mut [],
            base: 0,
        };
        let mac = Mac::BarnesHut { theta: 0.7 };
        walk_lists(&tree, &mac, &mut ev);
        let mut scratch = InteractionList::new();

        for gi in tree.groups(hot_core::walk::default_group_size(tree.bucket)) {
            let sinks = tree.cells[gi as usize].span();
            let mut local = vec![Vec3::ZERO; sinks.len()];
            let mut lev = GravityEvaluator {
                acc: &mut local,
                pot: None,
                eps2: 1e-6,
                quadrupole: true,
                counter: &counter,
                work: &mut [],
                base: sinks.start,
            };
            hot_core::walk::walk_group_list(&tree, &mac, gi, &mut scratch);
            lev.consume(&tree.pos, &tree.charge, sinks.clone(), &scratch);
            for (k, i) in sinks.enumerate() {
                assert_eq!(local[k], full[i], "sink {i}");
            }
        }
    }

    /// The parts of a split — with gaps between them, over buffers whose
    /// `base` is not 0, with and without potentials and the work tally —
    /// each give exactly what the whole evaluator gives its sinks, and
    /// leave the gaps alone.
    #[test]
    fn split_parts_equal_the_whole_evaluator() {
        use hot_core::walk::walk_apply;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        let n = 600;
        let pos: Vec<Vec3> = (0..n)
            .map(|_| {
                use rand::Rng;
                Vec3::new(rng.gen(), rng.gen(), rng.gen())
            })
            .collect();
        let mass = vec![1.0 / n as f64; n];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &mass, 4);
        let mac = Mac::BarnesHut { theta: 0.6 };
        let mut groups = tree.groups(8);
        groups.sort_unstable_by_key(|&gi| tree.cells[gi as usize].first);
        let span = |gi: u32| tree.cells[gi as usize].span();
        // Every other group from the third on, in parts of three groups.
        let kept: Vec<u32> = groups[2..].iter().copied().step_by(2).collect();
        let runs: Vec<&[u32]> = kept.chunks(3).collect();
        let ranges: Vec<Range<usize>> =
            runs.iter().map(|r| span(r[0]).start..span(r[r.len() - 1]).end).collect();
        let base = ranges[0].start;
        assert!(base > 0);
        let kept_sinks: Vec<usize> = kept.iter().flat_map(|&g| span(g)).collect();
        for (want_pot, tally) in [(false, false), (false, true), (true, false), (true, true)] {
            let counter = FlopCounter::new();
            let (mut acc, mut pot, mut work) = (vec![Vec3::ZERO; n], vec![0.0; n], vec![0.0f32; n]);
            let mut whole = GravityEvaluator {
                acc: &mut acc,
                pot: want_pot.then_some(&mut pot[..]),
                eps2: 1e-6,
                quadrupole: true,
                counter: &counter,
                work: if tally { &mut work[..] } else { &mut [] },
                base: 0,
            };
            walk_apply(&tree, &mac, &mut kept.clone(), &mut whole, 1, &mut Vec::new());

            let len = n - base;
            let (mut acc_p, mut pot_p, mut work_p) =
                (vec![Vec3::ZERO; len], vec![0.0; len], vec![0.0f32; len]);
            let mut cut = GravityEvaluator {
                acc: &mut acc_p,
                pot: want_pot.then_some(&mut pot_p[..]),
                eps2: 1e-6,
                quadrupole: true,
                counter: &counter,
                work: if tally { &mut work_p[..] } else { &mut [] },
                base,
            };
            let mut parts = cut.split(&ranges).expect("the gravity evaluator splits");
            assert_eq!(parts.len(), runs.len());
            for (run, part) in runs.iter().zip(&mut parts) {
                walk_apply(&tree, &mac, &mut run.to_vec(), &mut **part, 1, &mut Vec::new());
            }
            drop(parts);
            let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
            for i in base..n {
                let kept = kept_sinks.contains(&i);
                let tag = format!("sink {i} (kept {kept}), pot {want_pot}, tally {tally}");
                assert_eq!(bits(acc_p[i - base]), bits(acc[i]), "{tag}");
                assert_eq!(pot_p[i - base].to_bits(), pot[i].to_bits(), "{tag}");
                assert_eq!(work_p[i - base].to_bits(), work[i].to_bits(), "{tag}");
                assert_eq!(acc[i] == Vec3::ZERO, !kept, "{tag}");
            }
        }
    }
}
