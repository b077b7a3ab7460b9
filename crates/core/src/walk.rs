//! Tree traversal: turn a tree + acceptance criterion into interactions.
//!
//! The walk proceeds per *sink group* (a shallow cell holding a bucket of
//! nearby particles): one pass down the tree decides, for the whole group,
//! which cells interact as multipoles and which leaves must be evaluated
//! particle-by-particle. Physics modules receive those decisions through
//! the [`Evaluator`] trait and do the arithmetic — the tree neither knows
//! nor cares whether it is computing gravity, vorticity or SPH neighbour
//! lists, which is precisely the paper's library/application split.

use crate::ilist::{InteractionList, ListBuilder, ListConsumer};
use crate::mac::Mac;
use crate::moments::Moments;
use crate::tree::Tree;
use std::ops::Range;

/// Consumer of traversal decisions.
pub trait Evaluator<M: Moments> {
    /// The sink particles `sinks` (a range in the tree's sorted arrays)
    /// interact with a multipole expansion `m` centred at `center`.
    fn particle_cell(
        &mut self,
        tree: &Tree<M>,
        sinks: Range<usize>,
        center: hot_base::Vec3,
        m: &M,
    );

    /// The sink particles interact directly with the listed sources.
    ///
    /// When the sources are the tree's own particles, `src_start` is the
    /// tree-order index of `src_pos[0]`, and the evaluator must skip the
    /// self pair `src_start + j == i` (source spans may equal, contain, or
    /// be contained in the sink span — all arise in the distributed walk).
    /// Remote (ghost) sources pass `None`: they can never alias a local
    /// sink.
    fn particle_particle(
        &mut self,
        tree: &Tree<M>,
        sinks: Range<usize>,
        src_pos: &[hot_base::Vec3],
        src_charge: &[M::Charge],
        src_start: Option<usize>,
    );
}

/// Interaction counts produced by a walk, in the units the paper reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Particle–particle interactions (sink × source pairs, self-pairs
    /// excluded).
    pub pp: u64,
    /// Particle–cell interactions (sink × accepted-cell pairs).
    pub pc: u64,
    /// Cells opened (MAC rejections that recursed).
    pub opened: u64,
    /// P-P source *entries* recorded into interaction lists (list-build
    /// side; zero for callback-style walks). One entry fans out to one
    /// interaction per sink in its group.
    pub listed_pp: u64,
    /// P-C accepted-cell entries recorded into interaction lists.
    pub listed_pc: u64,
}

impl WalkStats {
    /// Combine counts.
    pub fn merge(&mut self, o: &WalkStats) {
        self.pp += o.pp;
        self.pc += o.pc;
        self.opened += o.opened;
        self.listed_pp += o.listed_pp;
        self.listed_pc += o.listed_pc;
    }

    /// Total interactions.
    pub fn interactions(&self) -> u64 {
        self.pp + self.pc
    }

    /// Record the traversal-side counters (cells opened, list entries)
    /// into the current trace span. The interaction counts (`pp`/`pc`)
    /// belong to the *force* phase and are recorded there (see
    /// `hot_gravity::evaluator::record_force_phase`) — recording them in
    /// both places would double-count the run totals. Listed entries are
    /// a list-*build* cost, distinct from the per-sink interaction
    /// fan-out, so they live in the walk span.
    pub fn record_traversal(&self, trace: &mut hot_trace::Ledger) {
        trace.add(hot_trace::Counter::CellsOpened, self.opened);
        trace.add(hot_trace::Counter::PpListed, self.listed_pp);
        trace.add(hot_trace::Counter::PcListed, self.listed_pc);
    }
}

/// Walk the tree for one sink group (`gi` indexes `tree.cells`).
pub fn walk_group<M: Moments, E: Evaluator<M>>(
    tree: &Tree<M>,
    mac: &Mac,
    gi: u32,
    eval: &mut E,
) -> WalkStats {
    let g = &tree.cells[gi as usize];
    let gc = g.center;
    let gr = g.bmax;
    let sinks = g.span();
    let gn = g.n as u64;
    let mut stats = WalkStats::default();

    let mut stack: Vec<usize> = vec![0];
    while let Some(ci) = stack.pop() {
        if ci == gi as usize {
            // The group against itself: direct sum without self-pairs.
            eval.particle_particle(
                tree,
                sinks.clone(),
                &tree.pos[sinks.clone()],
                &tree.charge[sinks.clone()],
                Some(sinks.start),
            );
            stats.pp += gn * (gn - 1);
            continue;
        }
        let c = &tree.cells[ci];
        if c.n == 0 {
            continue;
        }
        if mac.accepts(c, gc, gr) {
            eval.particle_cell(tree, sinks.clone(), c.center, &c.moments);
            stats.pc += gn;
        } else if c.is_leaf() {
            eval.particle_particle(
                tree,
                sinks.clone(),
                &tree.pos[c.span()],
                &tree.charge[c.span()],
                Some(c.first as usize),
            );
            stats.pp += gn * c.n as u64;
        } else {
            stats.opened += 1;
            stack.extend(tree.children(c));
        }
    }
    stats
}

/// Walk every sink group sequentially. Returns total counts.
pub fn walk<M: Moments, E: Evaluator<M>>(tree: &Tree<M>, mac: &Mac, eval: &mut E) -> WalkStats {
    let mut stats = WalkStats::default();
    for gi in tree.groups(default_group_size(tree.bucket)) {
        stats.merge(&walk_group(tree, mac, gi, eval));
    }
    stats
}

/// Walk one sink group into an interaction list (list-build stage).
///
/// `list` is cleared first and holds exactly this group's accepted
/// sources afterwards. The returned stats carry the list-entry counts,
/// and the walk's pair accounting is pinned against the list lengths —
/// the two are computed independently (incremental counters during the
/// walk vs. a closed form over the finished list), so a double- or
/// under-counted `WalkStats` panics here rather than silently skewing
/// the paper's interaction totals.
pub fn walk_group_list<M: Moments>(
    tree: &Tree<M>,
    mac: &Mac,
    gi: u32,
    list: &mut InteractionList<M>,
) -> WalkStats {
    list.clear();
    let mut stats = walk_group(tree, mac, gi, &mut ListBuilder::new(list));
    let sinks = tree.cells[gi as usize].span();
    let (pp, pc) = list.expected_stats(&sinks);
    assert_eq!(
        (stats.pp, stats.pc),
        (pp, pc),
        "walk stats for group {gi} disagree with its interaction list"
    );
    stats.listed_pp = list.pp_entries();
    stats.listed_pc = list.pc_entries();
    stats
}

/// The two-stage evaluation: build each sink group's interaction list,
/// then hand it to `consumer` (the apply stage). `scratch` is the reused
/// list buffer — steady state allocates nothing.
pub fn walk_lists<M: Moments, C: ListConsumer<M>>(
    tree: &Tree<M>,
    mac: &Mac,
    consumer: &mut C,
    scratch: &mut InteractionList<M>,
) -> WalkStats {
    let groups = tree.groups(default_group_size(tree.bucket));
    walk_lists_of(tree, mac, &groups, consumer, scratch)
}

/// [`walk_lists`] over the sink groups `groups` only. This is the one
/// group loop: groups are independent units of work (a group's list and
/// its sinks' outputs depend on no other group), so a caller may hand
/// disjoint runs of groups to consumers that own disjoint outputs — in
/// any order, on any thread — and add the returned stats.
pub fn walk_lists_of<M: Moments, C: ListConsumer<M>>(
    tree: &Tree<M>,
    mac: &Mac,
    groups: &[u32],
    consumer: &mut C,
    scratch: &mut InteractionList<M>,
) -> WalkStats {
    let mut stats = WalkStats::default();
    for &gi in groups {
        stats.merge(&walk_group_list(tree, mac, gi, scratch));
        let sinks = tree.cells[gi as usize].span();
        consumer.consume(&tree.pos, &tree.charge, sinks, scratch);
    }
    stats
}

/// Group size heuristic: a few leaf buckets per walk amortizes traversal
/// overhead without bloating the near-field work.
pub fn default_group_size(bucket: usize) -> usize {
    (bucket * 2).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::MassMoments;
    use hot_base::{Aabb, Vec3};
    use rand::{Rng, SeedableRng};

    /// Accumulates, per sink index, the total source mass it has "seen".
    struct MassCoverage {
        seen: Vec<f64>,
        pp_events: u64,
        pc_events: u64,
    }

    impl Evaluator<MassMoments> for MassCoverage {
        fn particle_cell(
            &mut self,
            _tree: &Tree<MassMoments>,
            sinks: Range<usize>,
            _center: Vec3,
            m: &MassMoments,
        ) {
            self.pc_events += 1;
            for i in sinks {
                self.seen[i] += m.mass;
            }
        }
        fn particle_particle(
            &mut self,
            _tree: &Tree<MassMoments>,
            sinks: Range<usize>,
            _src_pos: &[Vec3],
            src_charge: &[f64],
            _src_start: Option<usize>,
        ) {
            self.pp_events += 1;
            let total: f64 = src_charge.iter().sum();
            for i in sinks {
                self.seen[i] += total;
            }
        }
    }

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect()
    }

    /// The fundamental conservation property of any treecode traversal:
    /// every sink accounts for the entire mass of the system exactly once
    /// (its own mass arrives through the self-interaction span).
    #[test]
    fn every_sink_sees_total_mass_exactly_once() {
        for &(n, theta) in
            &[(200usize, 0.6f64), (1000, 0.8), (1000, 0.3), (47, 0.5), (1, 1.0), (9, 0.7)]
        {
            let pos = random_points(n, n as u64);
            let masses: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &masses, 8);
            let mtot: f64 = masses.iter().sum();
            let mut cov =
                MassCoverage { seen: vec![0.0; n], pp_events: 0, pc_events: 0 };
            let stats = walk(&tree, &Mac::BarnesHut { theta }, &mut cov);
            for (i, &s) in cov.seen.iter().enumerate() {
                assert!(
                    (s - mtot).abs() < 1e-9 * mtot.max(1.0),
                    "n={n} theta={theta} sink {i}: saw {s}, want {mtot}"
                );
            }
            if n > 1 {
                assert!(stats.interactions() > 0);
            }
        }
    }

    #[test]
    fn salmon_warren_also_conserves() {
        let n = 600;
        let pos = random_points(n, 99);
        let masses = vec![1.0; n];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &masses, 8);
        let mut cov = MassCoverage { seen: vec![0.0; n], pp_events: 0, pc_events: 0 };
        walk(&tree, &Mac::SalmonWarren { delta: 1e-3 }, &mut cov);
        for &s in &cov.seen {
            assert!((s - n as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn small_theta_means_more_interactions() {
        let n = 1500;
        let pos = random_points(n, 4);
        let masses = vec![1.0; n];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &masses, 8);
        let count = |theta: f64| {
            let mut cov = MassCoverage { seen: vec![0.0; n], pp_events: 0, pc_events: 0 };
            walk(&tree, &Mac::BarnesHut { theta }, &mut cov).interactions()
        };
        let loose = count(1.0);
        let tight = count(0.3);
        assert!(
            tight > loose * 2,
            "tight MAC must cost much more: {tight} vs {loose}"
        );
        // And both far below the N² count.
        assert!(tight < (n as u64) * (n as u64));
    }

    #[test]
    fn interactions_scale_like_n_log_n() {
        // interactions per particle should grow slowly (log N), not linearly.
        let per_particle = |n: usize| {
            let pos = random_points(n, 2);
            let masses = vec![1.0; n];
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &masses, 8);
            let mut cov = MassCoverage { seen: vec![0.0; n], pp_events: 0, pc_events: 0 };
            let s = walk(&tree, &Mac::BarnesHut { theta: 0.7 }, &mut cov);
            s.interactions() as f64 / n as f64
        };
        let small = per_particle(500);
        let large = per_particle(4000);
        // 8x more particles: per-particle cost grows, but far less than 8x.
        assert!(large > small, "cost/particle should grow with N");
        assert!(large < small * 3.0, "treecode scaling violated: {small} -> {large}");
    }

    #[test]
    fn walk_stats_match_evaluator_events() {
        let n = 400;
        let pos = random_points(n, 6);
        let masses = vec![1.0; n];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &masses, 8);
        let mut cov = MassCoverage { seen: vec![0.0; n], pp_events: 0, pc_events: 0 };
        let stats = walk(&tree, &Mac::BarnesHut { theta: 0.6 }, &mut cov);
        assert!(cov.pc_events > 0 && cov.pp_events > 0);
        assert!(stats.pc > 0 && stats.pp > 0 && stats.opened > 0);
    }

    #[test]
    fn single_particle_walk_is_trivial() {
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &[Vec3::splat(0.5)], &[1.0], 8);
        let mut cov = MassCoverage { seen: vec![0.0; 1], pp_events: 0, pc_events: 0 };
        let stats = walk(&tree, &Mac::BarnesHut { theta: 0.5 }, &mut cov);
        assert_eq!(stats.pp, 0);
        assert_eq!(stats.pc, 0);
        assert_eq!(cov.seen[0], 1.0); // itself, via the self-span
    }
}
