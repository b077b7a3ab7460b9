//! Tree traversal: turn a tree + acceptance criterion into interaction
//! lists.
//!
//! The walk proceeds per *sink group* (a shallow cell holding a bucket of
//! nearby particles): one pass down the tree decides, for the whole group,
//! which cells interact as multipoles and which leaves must be evaluated
//! particle-by-particle, and writes those decisions straight into the
//! group's [`InteractionList`]. There is one walk ([`walk`]), started where
//! the tree's walks start: the serial walk runs it over a local tree, and
//! the distributed walk runs it over the rank's one tree of local, canopy
//! and fetched cells, both to find the remote nodes a group is missing
//! (resolve, which writes no list) and to write the list once nothing is.
//! There is one group loop ([`walk_apply`]): per group, write the list and
//! hand it to a [`ListConsumer`], the apply stage, fanned out over threads.
//! `ForceCalc` runs it over a whole tree, the distributed walk over each
//! round's ready batch, and [`walk_lists`] over a whole tree on one thread.
//! Physics modules apply finished lists through [`ListConsumer`] — the tree
//! neither knows nor cares whether it is computing gravity, vorticity or
//! SPH neighbour lists, which is precisely the paper's library/application
//! split.

use crate::ilist::{InteractionList, ListConsumer};
use crate::mac::Mac;
use crate::moments::Moments;
use crate::tree::{Below, Cell, Tree, NO_BODIES};
use hot_base::Vec3;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

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
    /// side). One entry fans out to one interaction per sink in its group.
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

    /// Finish one sink group's list build: pin the walk's pair accounting
    /// against `list`, the group `gi`'s finished list over the sinks
    /// `sinks`, and add the list-entry counts. The two are computed
    /// independently (incremental counters during the walk vs. a closed
    /// form over the list), so a double- or under-counted `WalkStats`
    /// panics here rather than silently skewing the paper's interaction
    /// totals.
    pub(crate) fn pinned_to<M: Moments>(
        mut self,
        list: &InteractionList<M>,
        sinks: &Range<usize>,
        gi: u32,
    ) -> WalkStats {
        assert_eq!(
            (self.pp, self.pc),
            list.expected_stats(sinks),
            "walk stats for group {gi} disagree with its interaction list"
        );
        self.listed_pp = list.pp_entries();
        self.listed_pc = list.pc_entries();
        self
    }
}

/// What one walk does with what it finds. A list writer ([`InteractionList`],
/// through [`walk_group_list`]) records every accepted cell and every
/// opened body span; the distributed walk's resolve writes nothing and only
/// collects the remote nodes it must open.
pub(crate) trait Visit<M: Moments> {
    /// Whether the walk lists sources, and so descends into subtrees whose
    /// bodies are all resident. A walk that only looks for what is missing
    /// stops at them: nothing below them can miss.
    const LISTS: bool;
    /// A cell the MAC accepted.
    fn cell(&mut self, c: &Cell<M>);
    /// An opened body span; `start` is its first body's index when the
    /// bodies are local (they may be the sinks).
    fn bodies(&mut self, pos: &[Vec3], charge: &[M::Charge], start: Option<usize>);
    /// An unopened remote node `ci` the walk must open.
    fn miss(&mut self, ci: u32, c: &Cell<M>);
}

impl<M: Moments> Visit<M> for InteractionList<M> {
    const LISTS: bool = true;
    #[inline]
    fn cell(&mut self, c: &Cell<M>) {
        self.push_pc(c.center, &c.moments);
    }
    #[inline]
    fn bodies(&mut self, pos: &[Vec3], charge: &[M::Charge], start: Option<usize>) {
        self.push_pp(pos, charge, start);
    }
    fn miss(&mut self, _: u32, c: &Cell<M>) {
        unreachable!("a list walk reached {:?}, a remote node nothing opened", c.key)
    }
}

/// The one walk: pop the cells of `stack` and test them for the sink group
/// `gi` until the stack is empty, in depth-first stack order, handing what
/// it takes to `v` and returning the walk's counts. A list walk starts it
/// where the tree's walks start ([`walk_group_list`]), the distributed
/// walk's resolve there or at the children of what it last opened.
///
/// The group itself — the group cell, its copy in the canopy, or a virtual
/// branch holding all of a leaf group's bodies — interacts directly,
/// without self-pairs.
///
/// Kept out of line: inlined into its one list-writing caller,
/// [`walk_group_list`], it built lists ≈ 20–35 % slower per interaction
/// (`walk.list_ns_per_ixn`).
#[inline(never)]
pub(crate) fn walk<M: Moments, V: Visit<M>>(
    tree: &Tree<M>,
    mac: &Mac,
    gi: u32,
    stack: &mut Vec<u32>,
    v: &mut V,
) -> WalkStats {
    let g = &tree.cells[gi as usize];
    let (gc, gr, sinks, gn, gkey) = (g.center, g.bmax, g.span(), g.n, g.key);
    let locals = tree.n_particles();
    let mut stats = WalkStats::default();
    while let Some(ci) = stack.pop() {
        let c = &tree.cells[ci as usize];
        if c.n == 0 {
            continue;
        }
        // The MAC never accepts the group against itself (its distance is
        // `-bmax`), so the group is found among the cells it rejects.
        if mac.accepts(c, gc, gr) {
            v.cell(c);
            stats.pc += gn;
            continue;
        }
        if !V::LISTS && c.first != NO_BODIES {
            continue;
        }
        if c.first as usize == sinks.start && (c.key == gkey || (c.is_leaf() && c.n == gn)) {
            v.bodies(&tree.pos[sinks.clone()], &tree.charge[sinks.clone()], Some(sinks.start));
            stats.pp += gn * (gn - 1);
            continue;
        }
        match c.below {
            Below::Kids { first, n } => {
                stats.opened += 1;
                stack.extend(first..first + u32::from(n));
            }
            Below::Bodies => {
                let span = c.span();
                let start = (span.start < locals).then_some(span.start);
                v.bodies(&tree.pos[span.clone()], &tree.charge[span], start);
                stats.pp += gn * c.n;
            }
            Below::Remote { .. } => v.miss(ci, c),
            Below::Pruned => panic!("a sink group opened {:?}, which the cut pruned", c.key),
        }
    }
    stats
}

/// Walk one sink group (`gi` indexes `tree.cells`) into an interaction
/// list (list-build stage), from where the tree's walks start: the local
/// root, or the global root of a rank's tree once its canopy is grafted —
/// the distributed walk's emit. `list` is cleared first and holds exactly
/// this group's accepted sources afterwards, in traversal order. The
/// returned stats carry the list-entry counts and are pinned against the
/// list.
pub fn walk_group_list<M: Moments>(
    tree: &Tree<M>,
    mac: &Mac,
    gi: u32,
    list: &mut InteractionList<M>,
) -> WalkStats {
    list.clear();
    let sinks = tree.cells[gi as usize].span();
    walk(tree, mac, gi, &mut vec![tree.walk_root()], list).pinned_to(list, &sinks, gi)
}

/// The two-stage evaluation over every sink group of `tree`, on the
/// calling thread: [`walk_apply`] with one worker.
pub fn walk_lists<M: Moments>(tree: &Tree<M>, mac: &Mac, consumer: &mut dyn ListConsumer<M>) -> WalkStats {
    let mut groups = tree.groups(default_group_size(tree.bucket));
    walk_apply(tree, mac, &mut groups, consumer, 1, &mut Vec::new())
}

/// The one group loop, run by `ForceCalc` over a whole tree, by the
/// distributed walk over each round's ready batch, and by [`walk_lists`]:
/// per sink group of `groups`, sorted into tree order first, build its list
/// ([`walk_group_list`]) and hand it to `consumer` (the apply stage).
/// Returns the summed counts.
///
/// Groups are independent units of work (a group's list and its sinks'
/// outputs depend on no other group), so they are cut into contiguous
/// chunks; `consumer` is [split](ListConsumer::split) into one part per
/// chunk, owning the sinks from the chunk's first group to its last; and
/// the chunks run on the calling thread and `workers - 1` scoped threads
/// that pull them from a shared queue, each owning one list of `lists`
/// (grown to the workers used, never shrunk). With one worker, one chunk,
/// or a consumer that cannot split, the groups run inline with `consumer`
/// itself. Workers share the tree read-only and own their part and their
/// list; counts merge as integer sums, so any thread count and schedule
/// gives bitwise the one-worker outcome. The
/// threads perform no channel operation and are joined before this
/// returns; a worker's panic is re-raised in the caller, after every
/// thread has stopped.
pub fn walk_apply<M: Moments>(
    tree: &Tree<M>,
    mac: &Mac,
    groups: &mut [u32],
    consumer: &mut dyn ListConsumer<M>,
    workers: usize,
    lists: &mut Vec<InteractionList<M>>,
) -> WalkStats {
    groups.sort_unstable_by_key(|&gi| tree.cells[gi as usize].first);
    if lists.is_empty() {
        lists.push(InteractionList::new());
    }
    match run_parts(workers, tree, mac, groups, consumer, lists) {
        Some(stats) => stats,
        None => walk_run(tree, mac, groups, consumer, &mut lists[0]),
    }
}

/// [`walk_apply`] over one chunk of groups, `run`, on one thread. Inlined
/// into both callers, so no frame sits between the loop and the consumer
/// on a rank fiber.
#[inline(always)]
fn walk_run<M: Moments>(
    tree: &Tree<M>,
    mac: &Mac,
    run: &[u32],
    part: &mut dyn ListConsumer<M>,
    list: &mut InteractionList<M>,
) -> WalkStats {
    let mut stats = WalkStats::default();
    for &gi in run {
        stats.merge(&walk_group_list(tree, mac, gi, list));
        part.consume(&tree.pos, &tree.charge, tree.cells[gi as usize].span(), list);
    }
    stats
}

/// Sinks a thread must have to itself before another one pays for its
/// spawn and join — one constant for every caller of [`walk_apply`]. Measured
/// (release, 2 hardware threads, group size 32, walk + apply only; the
/// median of 7 alternating series of two workers against one — single
/// series ran 0.6–2.6×, the host being shared): "whole" is an N-body
/// `ForceCalc` problem, "batch" a contiguous run of groups holding N sinks
/// of a 65 536-body tree, as the distributed walk hands it one round's
/// ready batch.
///
/// | N sinks | whole θ = 0.7 | whole θ = 0.4 | batch θ = 0.7 | batch θ = 0.4 |
/// |---------|---------------|---------------|---------------|---------------|
/// | 128     | 0.83×         | 1.39×         | 1.18×         | 1.42×         |
/// | 256     | 0.91×         | 1.82×         | 1.35×         | 1.79×         |
/// | 512     | 1.48×         | 1.41×         | 1.60×         | 1.78×         |
/// | 1024    | 2.07×         | 1.79×         | 1.62×         | 1.83×         |
/// | 2048    | 1.80×         | 1.62×         | 1.61×         | 1.82×         |
///
/// A sink costs more the smaller θ and the bigger its tree, so the floor
/// is set by the cheapest case, a small θ = 0.7 problem, which loses at
/// 256 sinks and gains from 512: fan-out starts at 512. The previous
/// floor, 1024 per thread (set on whole θ = 0.7 problems), fans out few of
/// `dist_coarse`'s ready batches (mostly 1000–1650 sinks at θ = 0.4):
/// `dwalk.phase_s` 1.08–1.13 s there against 0.76–0.77 s at 256, back to
/// back (EXPERIMENTS.md D1). A measured constant, not an option.
pub(crate) const MIN_SINKS_PER_THREAD: usize = 256;

/// Chunks cut per worker: enough that a clustered problem, whose deep
/// groups cost several times the shallow ones, still balances when the
/// workers pull chunks as they finish.
const CHUNKS_PER_WORKER: usize = 16;

/// Workers for `n` sinks with `available` hardware threads: one per 256
/// sinks (a measured floor, see `MIN_SINKS_PER_THREAD`), at most
/// `available`, at least one.
pub fn workers_for(n: usize, available: usize) -> usize {
    available.min(n / MIN_SINKS_PER_THREAD).max(1)
}

/// [`walk_apply`]'s threads: `groups` cut into chunks, `consumer` split
/// into one part per chunk, and `workers` threads draining the queue of
/// `(run, part)` chunks, each with a list of `lists`; their counts
/// are summed. `None` when the groups run inline: one worker, one chunk,
/// or a consumer that cannot split.
///
/// Kept out of line: inlined, its thread scope and chunk bookkeeping
/// enlarged the group loop's frame, which sits on every rank fiber's stack
/// on the one-thread path too (`dist_fine` peak RSS 37.5 → 38.0 MiB).
#[inline(never)]
fn run_parts<M: Moments>(
    workers: usize,
    tree: &Tree<M>,
    mac: &Mac,
    groups: &[u32],
    consumer: &mut dyn ListConsumer<M>,
    lists: &mut Vec<InteractionList<M>>,
) -> Option<WalkStats> {
    let per_chunk = groups.len().div_ceil(workers.max(1) * CHUNKS_PER_WORKER).max(1);
    if workers < 2 || groups.len() <= per_chunk {
        return None;
    }
    let (cells, mut end) = (&tree.cells, 0);
    let ranges: Vec<Range<usize>> = groups
        .chunks(per_chunk)
        .map(|run| {
            let (first, last) = (cells[run[0] as usize].span(), cells[run[run.len() - 1] as usize].span());
            assert!(first.start >= end, "sink groups must be disjoint");
            end = last.end;
            first.start..last.end
        })
        .collect();
    let parts = consumer.split(&ranges)?;
    let workers = workers.min(ranges.len());
    if lists.len() < workers {
        lists.resize_with(workers, InteractionList::new);
    }
    let queue = Mutex::new(groups.chunks(per_chunk).zip(parts));
    let drain = |list: &mut InteractionList<M>| {
        let mut stats = WalkStats::default();
        loop {
            // The guard is dropped at the end of this statement, so the
            // lock is never held while a chunk runs; `next` cannot panic,
            // so a poisoned lock still guards a valid queue.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((run, mut part)) = next else { return stats };
            stats.merge(&walk_run(tree, mac, run, &mut *part, list));
        }
    };
    let [own, helpers @ ..] = &mut lists[..workers] else {
        unreachable!("two or more workers here")
    };
    Some(std::thread::scope(|s| {
        let handles: Vec<_> = helpers.iter_mut().map(|list| s.spawn(|| drain(list))).collect();
        let mut stats = drain(own);
        for h in handles {
            match h.join() {
                Ok(d) => stats.merge(&d),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        stats
    }))
}

/// Group size heuristic: a few leaf buckets per walk amortizes traversal
/// overhead without bloating the near-field work.
pub fn default_group_size(bucket: usize) -> usize {
    (bucket * 2).max(8)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ilist::Segment;
    use crate::moments::MassMoments;
    use hot_base::{Aabb, Vec3};
    use rand::{Rng, SeedableRng};

    /// Source mass in a list: every P-P charge and every accepted cell's
    /// mass, in list order.
    fn list_mass(list: &InteractionList<MassMoments>) -> f64 {
        let mut total = 0.0;
        for seg in list.segments() {
            match seg {
                Segment::Pp(v) => total += v.q.iter().sum::<f64>(),
                Segment::Pc(c) => total += c.m.iter().map(|m| m.mass).sum::<f64>(),
            }
        }
        total
    }

    /// A splittable mass-coverage consumer: every sink of a group "sees"
    /// its list's source mass, landing in `seen[i - base]`.
    pub(crate) struct Coverage<'a> {
        pub(crate) seen: &'a mut [f64],
        pub(crate) base: usize,
    }

    impl ListConsumer<MassMoments> for Coverage<'_> {
        fn consume(
            &mut self,
            _pos: &[Vec3],
            _charge: &[f64],
            sinks: Range<usize>,
            list: &InteractionList<MassMoments>,
        ) {
            let total = list_mass(list);
            for i in sinks {
                self.seen[i - self.base] += total;
            }
        }

        fn split(
            &mut self,
            parts: &[Range<usize>],
        ) -> Option<Vec<Box<dyn ListConsumer<MassMoments> + Send + '_>>> {
            let (mut rest, mut at) = (&mut self.seen[..], self.base);
            let mut out: Vec<Box<dyn ListConsumer<MassMoments> + Send + '_>> = Vec::new();
            for r in parts {
                let (seen, tail) = std::mem::take(&mut rest)[r.start - at..].split_at_mut(r.len());
                (rest, at) = (tail, r.end);
                out.push(Box::new(Coverage { seen, base: r.start }));
            }
            Some(out)
        }
    }

    /// The list pipeline over every sink group with a [`Coverage`]
    /// consumer: per sink (tree order), the source mass its list holds.
    fn coverage(tree: &Tree<MassMoments>, mac: &Mac) -> (Vec<f64>, WalkStats) {
        let mut seen = vec![0.0; tree.n_particles()];
        let mut cov = Coverage { seen: &mut seen, base: 0 };
        let stats = walk_lists(tree, mac, &mut cov);
        (seen, stats)
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
            let (seen, stats) = coverage(&tree, &Mac::BarnesHut { theta });
            for (i, &s) in seen.iter().enumerate() {
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
        let (seen, _) = coverage(&tree, &Mac::SalmonWarren { delta: 1e-3 });
        for &s in &seen {
            assert!((s - n as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn small_theta_means_more_interactions() {
        let n = 1500;
        let pos = random_points(n, 4);
        let masses = vec![1.0; n];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &masses, 8);
        let count = |theta: f64| coverage(&tree, &Mac::BarnesHut { theta }).1.interactions();
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
            let s = coverage(&tree, &Mac::BarnesHut { theta: 0.7 }).1;
            s.interactions() as f64 / n as f64
        };
        let small = per_particle(500);
        let large = per_particle(4000);
        // 8x more particles: per-particle cost grows, but far less than 8x.
        assert!(large > small, "cost/particle should grow with N");
        assert!(large < small * 3.0, "treecode scaling violated: {small} -> {large}");
    }

    #[test]
    fn walk_stats_count_every_kind_of_entry() {
        let n = 400;
        let pos = random_points(n, 6);
        let masses = vec![1.0; n];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &masses, 8);
        let (_, stats) = coverage(&tree, &Mac::BarnesHut { theta: 0.6 });
        assert!(stats.listed_pc > 0 && stats.listed_pp > 0);
        assert!(stats.pc > 0 && stats.pp > 0 && stats.opened > 0);
    }

    #[test]
    fn single_particle_walk_is_trivial() {
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &[Vec3::splat(0.5)], &[1.0], 8);
        let (seen, stats) = coverage(&tree, &Mac::BarnesHut { theta: 0.5 });
        assert_eq!(stats.pp, 0);
        assert_eq!(stats.pc, 0);
        assert_eq!(seen[0], 1.0); // itself, via the self-span
    }

    /// A tight clump plus a sparse background: a deep tree whose groups —
    /// and so whose chunks — cost very different amounts.
    fn clumped_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut pos = random_points(n, seed);
        for p in &mut pos[..n * 3 / 4] {
            *p = Vec3::splat(0.5) + (*p - Vec3::splat(0.5)) * 1e-4;
        }
        pos
    }

    /// Tree and its sink groups in tree order.
    fn grouped(pos: &[Vec3]) -> (Tree<MassMoments>, Vec<u32>) {
        let masses: Vec<f64> = (0..pos.len()).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
        let tree = Tree::<MassMoments>::build(Aabb::unit(), pos, &masses, 8);
        let mut groups = tree.groups(16);
        groups.sort_unstable_by_key(|&gi| tree.cells[gi as usize].first);
        (tree, groups)
    }

    /// The group loop over `groups` on `workers` threads: coverage bits,
    /// the summed stats, the groups in the order it walked them, and the
    /// lists it ended up holding.
    fn fan_out_run(
        tree: &Tree<MassMoments>,
        groups: &[u32],
        workers: usize,
    ) -> (Vec<u64>, WalkStats, Vec<u32>, usize) {
        let mac = Mac::BarnesHut { theta: 0.5 };
        let mut seen = vec![0.0; tree.n_particles()];
        let (mut lists, mut walked) = (Vec::new(), groups.to_vec());
        let mut cov = Coverage { seen: &mut seen, base: 0 };
        let stats = walk_apply(tree, &mac, &mut walked, &mut cov, workers, &mut lists);
        (seen.iter().map(|s| s.to_bits()).collect(), stats, walked, lists.len())
    }

    /// Any worker count gives the one-worker coverage and stats bitwise —
    /// on all groups, and on every other group, where the parts have gaps
    /// that no part may touch — and groups handed over in any order are
    /// walked in tree order.
    #[test]
    fn fan_out_is_bitwise_for_any_worker_count() {
        for pos in [random_points(3000, 51), clumped_points(3000, 52)] {
            let (tree, groups) = grouped(&pos);
            let alternate: Vec<u32> = groups.iter().copied().step_by(2).collect();
            for gs in [&groups, &alternate] {
                let one = fan_out_run(&tree, gs, 1);
                assert_eq!(one.3, 1);
                assert_eq!(&one.2, gs, "groups walked in tree order");
                let reversed: Vec<u32> = gs.iter().rev().copied().collect();
                for workers in [2, 3, 8] {
                    let many = fan_out_run(&tree, &reversed, workers);
                    assert_eq!((&many.0, many.1, &many.2), (&one.0, one.1, &one.2), "{workers} workers");
                    assert_eq!(many.3, workers, "one list per worker");
                }
            }
            let skipped: Vec<usize> =
                groups.iter().skip(1).step_by(2).flat_map(|&g| tree.cells[g as usize].span()).collect();
            let gaps = fan_out_run(&tree, &alternate, 3).0;
            assert!(skipped.iter().all(|&i| gaps[i] == 0), "a part wrote outside its groups");
        }
    }

    /// A consumer that cannot split runs inline: one job over every group,
    /// on the calling thread, however many workers were offered.
    #[test]
    fn fan_out_runs_an_unsplittable_consumer_inline() {
        struct Inline(Vec<std::thread::ThreadId>);
        impl ListConsumer<MassMoments> for Inline {
            fn consume(&mut self, _: &[Vec3], _: &[f64], _: Range<usize>, _: &InteractionList<MassMoments>) {
                self.0.push(std::thread::current().id());
            }
        }
        let (tree, mut groups) = grouped(&random_points(2000, 53));
        let mac = Mac::BarnesHut { theta: 0.7 };
        let mut inline = Inline(Vec::new());
        let mut lists = Vec::new();
        walk_apply(&tree, &mac, &mut groups, &mut inline, 8, &mut lists);
        assert_eq!(lists.len(), 1);
        let caller = std::thread::current().id();
        assert!(inline.0.len() == groups.len() && inline.0.iter().all(|&t| t == caller));
    }

    #[test]
    fn fan_out_worker_count_has_a_floor() {
        assert_eq!(workers_for(0, 8), 1);
        assert_eq!(workers_for(2 * MIN_SINKS_PER_THREAD - 1, 8), 1, "below the floor: inline");
        assert_eq!(workers_for(2 * MIN_SINKS_PER_THREAD, 8), 2);
        assert_eq!(workers_for(131_072, 2), 2);
        assert_eq!(workers_for(131_072, 1), 1, "one hardware thread: inline");
    }

    /// A consumer that fails on the caller's thread or on a helper's.
    #[derive(Clone, Copy)]
    struct Failing<'a> {
        caller: std::thread::ThreadId,
        on_caller: bool,
        /// Holds each thread in its first chunk until the other has one
        /// too, so neither can drain every chunk before the failing one
        /// takes any.
        both_busy: &'a std::sync::Barrier,
        /// Whether the helper (`[0]`) and the caller (`[1]`) have waited.
        waited: &'a [std::sync::atomic::AtomicBool; 2],
    }

    impl ListConsumer<MassMoments> for Failing<'_> {
        fn consume(&mut self, _: &[Vec3], _: &[f64], _: Range<usize>, _: &InteractionList<MassMoments>) {
            use std::sync::atomic::Ordering::SeqCst;
            let on_caller = std::thread::current().id() == self.caller;
            if !self.waited[usize::from(on_caller)].swap(true, SeqCst) {
                self.both_busy.wait();
            }
            if on_caller == self.on_caller {
                panic!("consumer failed");
            }
        }

        fn split(
            &mut self,
            parts: &[Range<usize>],
        ) -> Option<Vec<Box<dyn ListConsumer<MassMoments> + Send + '_>>> {
            Some(parts.iter().map(|_| Box::new(*self) as Box<dyn ListConsumer<_> + Send>).collect())
        }
    }

    /// A worker's panic reaches the caller as that panic — not a hang, not
    /// "a scoped thread panicked", not a poisoned-lock message.
    #[test]
    fn fan_out_reraises_a_workers_panic() {
        let (tree, mut groups) = grouped(&random_points(2000, 40));
        let mac = Mac::BarnesHut { theta: 0.7 };
        for on_caller in [false, true] {
            let both_busy = std::sync::Barrier::new(2);
            let waited = Default::default();
            let caller = std::thread::current().id();
            let mut failing = Failing { caller, on_caller, both_busy: &both_busy, waited: &waited };
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                walk_apply(&tree, &mac, &mut groups, &mut failing, 2, &mut Vec::new())
            }));
            let payload = caught.expect_err("the panic must surface");
            let text = payload.downcast_ref::<&str>();
            assert_eq!(text, Some(&"consumer failed"), "on_caller {on_caller}");
        }
    }
}
