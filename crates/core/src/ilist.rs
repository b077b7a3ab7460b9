//! Interaction lists: the paper's list-build / list-apply split.
//!
//! The SC'97 treecode owes its per-processor flop rate to *not* doing the
//! force arithmetic inside the traversal: the walk only records which
//! sources each sink group interacts with — an **interaction list** — and
//! a separate apply stage streams the list through a batched kernel
//! (Karp's rsqrt, 38 flops per interaction). This module is that split for
//! the library: the walks ([`crate::walk`], [`crate::dwalk`]) write each
//! sink group's [`InteractionList`] (`SoA` arrays of P-P sources and P-C
//! accepted cells) directly, and physics modules implement
//! [`ListConsumer`] to apply their kernels to finished lists.
//!
//! # Accumulation-order contract
//!
//! Consumers must apply a list in one fixed per-sink order: segments in
//! list (= traversal) order; each P-P segment summed source by source into
//! a fresh local accumulator which is then added to the sink's total once;
//! each P-C entry added to the sink's total directly. Any evaluation that
//! keeps that per-sink sequence gives the same bits, which is what keeps
//! the direct-sum differential oracle, the trace goldens, and the
//! schedule/fault bitwise checks meaningful.

use crate::moments::Moments;
use hot_base::Vec3;
use std::ops::Range;

/// One segment of an interaction list, indexing into the `SoA` arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListOp {
    /// P-P sources `start..end` (indices into the `pp_*` arrays).
    ///
    /// `src_start` is the tree-order index of the first source when the
    /// sources are local tree particles (so self-pairs can be skipped);
    /// ghost sources carry `None` and can never alias a sink.
    Pp {
        /// First index into the `pp_*` arrays.
        start: u32,
        /// One past the last index.
        end: u32,
        /// Tree-order index of the first source, if local.
        src_start: Option<u32>,
    },
    /// P-C accepted cells `start..end` (indices into the `pc_*` arrays).
    Pc {
        /// First index into the `pc_*` arrays.
        start: u32,
        /// One past the last index.
        end: u32,
    },
}

/// A P-P segment's sources, as structure-of-arrays slices.
pub struct PpView<'a, M: Moments> {
    /// Source x coordinates.
    pub x: &'a [f64],
    /// Source y coordinates.
    pub y: &'a [f64],
    /// Source z coordinates.
    pub z: &'a [f64],
    /// Source charges (mass, circulation, …).
    pub q: &'a [M::Charge],
    /// Tree-order index per source, or `u32::MAX` for ghosts. A source
    /// `j` is the sink `i`'s self-pair exactly when `idx[j] == i`.
    pub idx: &'a [u32],
}

/// A P-C segment's accepted cells, as structure-of-arrays slices.
pub struct PcView<'a, M: Moments> {
    /// Cell-center x coordinates.
    pub x: &'a [f64],
    /// Cell-center y coordinates.
    pub y: &'a [f64],
    /// Cell-center z coordinates.
    pub z: &'a [f64],
    /// Multipole moments per cell.
    pub m: &'a [M],
}

/// One list segment handed to a consumer, in traversal order.
pub enum Segment<'a, M: Moments> {
    /// Direct particle–particle sources.
    Pp(PpView<'a, M>),
    /// Accepted multipole cells.
    Pc(PcView<'a, M>),
}

/// The interaction list for one sink group: every source the group's walk
/// accepted, in traversal order, stored as structure-of-arrays so the
/// apply stage can stream it through batched kernels.
///
/// Buffers are meant to be reused: [`clear`](InteractionList::clear)
/// retains capacity, so steady-state evaluation allocates nothing.
#[derive(Clone, Default)]
pub struct InteractionList<M: Moments> {
    pp_x: Vec<f64>,
    pp_y: Vec<f64>,
    pp_z: Vec<f64>,
    pp_q: Vec<M::Charge>,
    pp_idx: Vec<u32>,
    pc_x: Vec<f64>,
    pc_y: Vec<f64>,
    pc_z: Vec<f64>,
    pc_m: Vec<M>,
    ops: Vec<ListOp>,
}

impl<M: Moments> InteractionList<M> {
    /// Empty list.
    pub fn new() -> Self {
        InteractionList {
            pp_x: Vec::new(),
            pp_y: Vec::new(),
            pp_z: Vec::new(),
            pp_q: Vec::new(),
            pp_idx: Vec::new(),
            pc_x: Vec::new(),
            pc_y: Vec::new(),
            pc_z: Vec::new(),
            pc_m: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Drop all entries, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.pp_x.clear();
        self.pp_y.clear();
        self.pp_z.clear();
        self.pp_q.clear();
        self.pp_idx.clear();
        self.pc_x.clear();
        self.pc_y.clear();
        self.pc_z.clear();
        self.pc_m.clear();
        self.ops.clear();
    }

    /// Append a P-P segment. `src_start` is the tree-order index of
    /// `src_pos[0]` when the sources are the tree's own particles, so that
    /// consumers skip the self pair `src_start + j == i` (a source span may
    /// equal, contain, or be contained in the sink span — all arise in the
    /// distributed walk); remote (ghost) sources pass `None`, as they can
    /// never alias a local sink.
    pub fn push_pp(&mut self, src_pos: &[Vec3], src_charge: &[M::Charge], src_start: Option<usize>) {
        debug_assert_eq!(src_pos.len(), src_charge.len());
        let start = self.pp_x.len() as u32;
        for p in src_pos {
            self.pp_x.push(p.x);
            self.pp_y.push(p.y);
            self.pp_z.push(p.z);
        }
        self.pp_q.extend_from_slice(src_charge);
        match src_start {
            Some(s0) => self.pp_idx.extend((0..src_pos.len()).map(|j| (s0 + j) as u32)),
            None => self.pp_idx.extend(std::iter::repeat_n(u32::MAX, src_pos.len())),
        }
        let end = self.pp_x.len() as u32;
        self.ops.push(ListOp::Pp { start, end, src_start: src_start.map(|s| s as u32) });
    }

    /// Append a P-P segment by *gathering*: `idx` are arbitrary indices
    /// into the caller's full `pos`/`charge` arrays (the SPH neighbour-list
    /// shape, where sources are not a contiguous span). The entries keep
    /// their true indices in [`PpView::idx`], so consumers can still detect
    /// self-pairs and gather extra per-source fields; the segment carries
    /// `src_start: None`, so [`expected_stats`](Self::expected_stats)
    /// counts it conservatively at `gn·len` (no self-span subtraction).
    pub fn push_pp_gather(&mut self, idx: &[u32], pos: &[Vec3], charge: &[M::Charge]) {
        let start = self.pp_x.len() as u32;
        for &j in idx {
            let p = pos[j as usize];
            self.pp_x.push(p.x);
            self.pp_y.push(p.y);
            self.pp_z.push(p.z);
            self.pp_q.push(charge[j as usize]);
        }
        self.pp_idx.extend_from_slice(idx);
        let end = self.pp_x.len() as u32;
        self.ops.push(ListOp::Pp { start, end, src_start: None });
    }

    /// Append one accepted cell. Consecutive cells coalesce into a single
    /// P-C segment — bitwise-safe, because P-C contributions are added to
    /// the sink directly, one cell at a time, in either shape.
    /// Inlined: out of line, the walk's call per accepted cell cost the
    /// list build 4–8 % per interaction (EXPERIMENTS.md Z1).
    #[inline]
    pub fn push_pc(&mut self, center: Vec3, m: &M) {
        let at = self.pc_x.len() as u32;
        self.pc_x.push(center.x);
        self.pc_y.push(center.y);
        self.pc_z.push(center.z);
        self.pc_m.push(*m);
        match self.ops.last_mut() {
            Some(ListOp::Pc { end, .. }) if *end == at => *end = at + 1,
            _ => self.ops.push(ListOp::Pc { start: at, end: at + 1 }),
        }
    }

    /// Total P-P source entries (before the per-sink fan-out).
    pub fn pp_entries(&self) -> u64 {
        self.pp_x.len() as u64
    }

    /// Total P-C cell entries.
    pub fn pc_entries(&self) -> u64 {
        self.pc_x.len() as u64
    }

    /// True when the walk accepted nothing (a single-particle system).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The segments in traversal order.
    pub fn segments(&self) -> impl Iterator<Item = Segment<'_, M>> {
        self.ops.iter().map(move |op| match *op {
            ListOp::Pp { start, end, .. } => {
                let r = start as usize..end as usize;
                Segment::Pp(PpView {
                    x: &self.pp_x[r.clone()],
                    y: &self.pp_y[r.clone()],
                    z: &self.pp_z[r.clone()],
                    q: &self.pp_q[r.clone()],
                    idx: &self.pp_idx[r],
                })
            }
            ListOp::Pc { start, end } => {
                let r = start as usize..end as usize;
                Segment::Pc(PcView {
                    x: &self.pc_x[r.clone()],
                    y: &self.pc_y[r.clone()],
                    z: &self.pc_z[r.clone()],
                    m: &self.pc_m[r],
                })
            }
        })
    }

    /// The interaction counts this list *must* produce when applied to the
    /// sink group `sinks`, in the walk's own units: P-P pairs exclude
    /// self-pairs (a local segment that is exactly the sink span
    /// contributes `gn·(len−1)`, every other segment `gn·len`), and each
    /// accepted cell counts once per sink. The apply stage pins its
    /// consumed totals against these — the `WalkStats` double-counting
    /// guard.
    pub fn expected_stats(&self, sinks: &Range<usize>) -> (u64, u64) {
        let gn = sinks.len() as u64;
        let mut pp = 0u64;
        let mut pc = 0u64;
        for op in &self.ops {
            match *op {
                ListOp::Pp { start, end, src_start } => {
                    let len = u64::from(end - start);
                    let self_span =
                        src_start == Some(sinks.start as u32) && len == gn;
                    pp += gn * len - if self_span { gn } else { 0 };
                }
                ListOp::Pc { start, end } => pc += gn * u64::from(end - start),
            }
        }
        (pp, pc)
    }
}

/// The apply stage: physics modules implement this to consume finished
/// interaction lists with their batched kernels. One call covers one sink
/// group; `sink_pos`/`sink_charge` are indexed by *absolute* sink index
/// (the walk's tree order, or the caller's own order for tree-less users
/// like the SPH neighbour loops).
///
/// Implementations must honour the module-level accumulation-order
/// contract and must count their own flops — the walk no longer sees the
/// arithmetic.
pub trait ListConsumer<M: Moments> {
    /// Apply every segment of `list` to the sinks `sinks`.
    fn consume(
        &mut self,
        sink_pos: &[Vec3],
        sink_charge: &[M::Charge],
        sinks: Range<usize>,
        list: &InteractionList<M>,
    );

    /// Cut this consumer into one `Send` part per range of `parts`
    /// (ascending and disjoint; gaps between them are allowed), part `k`
    /// owning the outputs of the sinks in `parts[k]` — so that parts may
    /// consume the groups inside their ranges on different threads and do
    /// exactly what `self` would. The default, `None`, means the consumer
    /// cannot be split, and callers run it inline. This is how the compute
    /// fan-out ([`crate::walk::walk_apply`]) divides outputs between threads.
    fn split(
        &mut self,
        parts: &[Range<usize>],
    ) -> Option<Vec<Box<dyn ListConsumer<M> + Send + '_>>> {
        let _ = parts;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::MassMoments;

    fn v(x: f64) -> Vec3 {
        Vec3::new(x, x * 2.0, x * 3.0)
    }

    #[test]
    fn push_and_view_round_trip() {
        let mut l = InteractionList::<MassMoments>::new();
        l.push_pp(&[v(1.0), v(2.0)], &[1.0, 2.0], Some(5));
        let m = MassMoments::from_particle(v(9.0), &3.0, v(9.0));
        l.push_pc(v(4.0), &m);
        l.push_pc(v(5.0), &m);
        l.push_pp(&[v(7.0)], &[7.0], None);

        assert_eq!(l.pp_entries(), 3);
        assert_eq!(l.pc_entries(), 2);
        let segs: Vec<_> = l.segments().collect();
        assert_eq!(segs.len(), 3, "adjacent pc pushes must coalesce");
        match &segs[0] {
            Segment::Pp(p) => {
                assert_eq!(p.x, &[1.0, 2.0]);
                assert_eq!(p.idx, &[5, 6]);
                assert_eq!(p.q, &[1.0, 2.0]);
            }
            Segment::Pc(_) => panic!("want pp first"),
        }
        match &segs[1] {
            Segment::Pc(c) => {
                assert_eq!(c.x, &[4.0, 5.0]);
                assert_eq!(c.m.len(), 2);
            }
            Segment::Pp(_) => panic!("want coalesced pc second"),
        }
        match &segs[2] {
            Segment::Pp(p) => assert_eq!(p.idx, &[u32::MAX]),
            Segment::Pc(_) => panic!("want ghost pp last"),
        }
    }

    #[test]
    fn expected_stats_follow_the_pair_convention() {
        let mut l = InteractionList::<MassMoments>::new();
        let sinks = 10usize..14; // gn = 4
        // Exact self-span: gn*(gn-1) = 12.
        l.push_pp(&[v(0.0); 4], &[1.0; 4], Some(10));
        // Disjoint local leaf of 3: gn*3 = 12.
        l.push_pp(&[v(0.0); 3], &[1.0; 3], Some(2));
        // Ghosts: gn*2 = 8.
        l.push_pp(&[v(0.0); 2], &[1.0; 2], None);
        // Two cells: gn*2 = 8.
        let m = MassMoments::from_particle(v(1.0), &1.0, v(1.0));
        l.push_pc(v(1.0), &m);
        l.push_pc(v(2.0), &m);
        assert_eq!(l.expected_stats(&sinks), (32, 8));

        // A same-start span of a *different* length is not the self-span.
        let mut l2 = InteractionList::<MassMoments>::new();
        l2.push_pp(&[v(0.0); 6], &[1.0; 6], Some(10));
        assert_eq!(l2.expected_stats(&sinks), (24, 0));
    }

    #[test]
    fn clear_retains_capacity() {
        let mut l = InteractionList::<MassMoments>::new();
        l.push_pp(&[v(1.0); 100], &[1.0; 100], None);
        let cap = l.pp_x.capacity();
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.pp_entries(), 0);
        assert_eq!(l.pp_x.capacity(), cap);
    }
}
