//! Adaptive hashed oct-tree construction over a particle set.
//!
//! Particles are keyed at maximum depth, sorted into Morton order, and the
//! tree is carved out of the sorted array top-down: a cell is a contiguous
//! span of the sorted particle list, and its children are the non-empty
//! 3-bit-digit subranges. Cell records live in a flat `Vec` (children
//! contiguous, parents before children) and are addressable by key through
//! the [`KeyTable`] — the structure the paper names the code after.
//!
//! The moments pass then runs bottom-up: leaf cells form expansions about
//! their charge-weighted centroid (P2M), internal cells merge shifted child
//! expansions (M2M) and bound `bmax`, the largest distance from the
//! expansion center to contained matter, used by the acceptance criteria.

use crate::htable::KeyTable;
use crate::moments::Moments;
use hot_base::{Aabb, Vec3};
use hot_morton::{Key, MAX_DEPTH};

/// Sentinel for "no children".
pub const NO_CHILD: u32 = u32::MAX;

/// One tree cell: a contiguous span of Morton-sorted particles plus its
/// multipole expansion.
#[derive(Clone, Debug)]
pub struct Cell<M> {
    /// Hashed oct-tree key of this cell.
    pub key: Key,
    /// First particle of the span (index into the tree's sorted arrays).
    pub first: u32,
    /// Number of particles in the span.
    pub n: u32,
    /// Index of the first child cell, or [`NO_CHILD`] for leaves.
    pub first_child: u32,
    /// Number of children (1–8 for internal cells).
    pub nchild: u8,
    /// Expansion center (charge-weighted centroid of contents).
    pub center: Vec3,
    /// Upper bound on the distance from `center` to any contained particle.
    pub bmax: f64,
    /// Total absolute charge weight (for centroid computation).
    pub wsum: f64,
    /// Multipole expansion about `center`.
    pub moments: M,
}

impl<M> Cell<M> {
    /// Is this a leaf (no children)?
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.first_child == NO_CHILD
    }

    /// The particle span as a `usize` range.
    #[inline]
    pub fn span(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.n) as usize
    }
}

/// An adaptive oct-tree over one particle set (one rank's local particles,
/// or the whole problem when run single-image).
#[derive(Debug)]
pub struct Tree<M: Moments> {
    /// Root cube containing every particle.
    pub domain: Aabb,
    /// Leaf bucket size used for this build.
    pub bucket: usize,
    /// Morton keys, sorted ascending.
    pub keys: Vec<Key>,
    /// `order[i]` = original index of the i-th sorted particle.
    pub order: Vec<u32>,
    /// Positions in sorted order.
    pub pos: Vec<Vec3>,
    /// Charges in sorted order.
    pub charge: Vec<M::Charge>,
    /// Cell records; index 0 is the root.
    pub cells: Vec<Cell<M>>,
    /// Key → cell-index table.
    pub table: KeyTable,
}

impl<M: Moments> Tree<M> {
    /// Build a tree over `pos`/`charge` (parallel arrays) inside `domain`
    /// (must be a cube containing all positions). `bucket` is the maximum
    /// leaf occupancy.
    pub fn build(domain: Aabb, pos: &[Vec3], charge: &[M::Charge], bucket: usize) -> Self {
        assert_eq!(pos.len(), charge.len(), "positions and charges must pair up");
        assert!(bucket >= 1);
        let n = pos.len();

        // Key + sort phase. (The paper implements the distributed version of
        // this as a weighted parallel sort; see `decomp`.)
        let mut keyed: Vec<(Key, u32)> = pos
            .iter()
            .enumerate()
            .map(|(i, &p)| (Key::from_point(p, &domain), i as u32))
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);

        let keys: Vec<Key> = keyed.iter().map(|&(k, _)| k).collect();
        let order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();
        let spos: Vec<Vec3> = order.iter().map(|&i| pos[i as usize]).collect();
        let scharge: Vec<M::Charge> = order.iter().map(|&i| charge[i as usize]).collect();

        let mut tree = Tree {
            domain,
            bucket,
            keys,
            order,
            pos: spos,
            charge: scharge,
            cells: Vec::new(),
            table: KeyTable::with_capacity((2 * n / bucket.max(1)).max(64)),
        };
        tree.build_cells(0, n as u32);
        tree.compute_moments();
        tree
    }

    /// Carve cells out of the sorted particle array. `first..first+n` is the
    /// root span (all particles for a fresh build).
    fn build_cells(&mut self, first: u32, n: u32) {
        self.cells.push(Cell {
            key: Key::ROOT,
            first,
            n,
            first_child: NO_CHILD,
            nchild: 0,
            center: Vec3::ZERO,
            bmax: 0.0,
            wsum: 0.0,
            moments: M::default(),
        });
        self.table.insert(Key::ROOT, 0);
        self.carve(vec![0u32]);
    }

    /// Split every cell on `stack` (and, transitively, the children this
    /// creates) by the next 3-bit digit. A cell's children are pushed as one
    /// contiguous block after it, so parents precede children — the order
    /// the bottom-up moments pass relies on.
    fn carve(&mut self, mut stack: Vec<u32>) {
        while let Some(ci) = stack.pop() {
            let (key, cfirst, cn) = {
                let c = &self.cells[ci as usize];
                (c.key, c.first, c.n)
            };
            if cn as usize <= self.bucket || key.level() >= MAX_DEPTH {
                continue;
            }
            // Partition the span by the next 3-bit digit. Keys are sorted,
            // so each child's particles are a contiguous subrange found by
            // binary search on the child's key interval.
            let span = &self.keys[cfirst as usize..(cfirst + cn) as usize];
            let first_child = self.cells.len() as u32;
            let mut nchild = 0u8;
            let mut child_indices = Vec::with_capacity(8);
            let mut lo = 0usize;
            for d in 0..8u8 {
                let child_key = key.child(d);
                let last = child_key.range_last();
                // End of this child's subrange: first key > range_last.
                let hi = lo + span[lo..].partition_point(|&k| k <= last);
                if hi > lo {
                    let idx = self.cells.len() as u32;
                    self.cells.push(Cell {
                        key: child_key,
                        first: cfirst + lo as u32,
                        n: (hi - lo) as u32,
                        first_child: NO_CHILD,
                        nchild: 0,
                        center: Vec3::ZERO,
                        bmax: 0.0,
                        wsum: 0.0,
                        moments: M::default(),
                    });
                    self.table.insert(child_key, idx);
                    child_indices.push(idx);
                    nchild += 1;
                }
                lo = hi;
            }
            debug_assert_eq!(lo, span.len(), "digit partition must cover the span");
            let c = &mut self.cells[ci as usize];
            c.first_child = first_child;
            c.nchild = nchild;
            // Descend into children that still exceed the bucket.
            stack.extend(child_indices);
        }
    }

    /// Bottom-up moments pass. Children always follow their parent in the
    /// `cells` vec, so a reverse sweep visits children first.
    fn compute_moments(&mut self) {
        for ci in (0..self.cells.len()).rev() {
            self.compute_cell_moments(ci);
        }
    }

    /// P2M (leaf) or M2M (internal) for one cell. Internal cells read their
    /// children, which must already hold finished moments.
    fn compute_cell_moments(&mut self, ci: usize) {
        {
            let cell = &self.cells[ci];
            let geom = cell.key.cell_aabb(&self.domain);
            if cell.is_leaf() {
                let span = cell.span();
                // Centroid.
                let mut wsum = 0.0;
                let mut centroid = Vec3::ZERO;
                for i in span.clone() {
                    let w = M::weight(&self.charge[i]);
                    wsum += w;
                    centroid += self.pos[i] * w;
                }
                let center = if wsum > 0.0 { centroid / wsum } else { geom.center() };
                // Expansion + bmax.
                let mut m = M::default();
                let mut bmax2 = 0.0f64;
                for i in span {
                    let one = M::from_particle(self.pos[i], &self.charge[i], center);
                    m.accumulate_shifted(&one, center, center);
                    bmax2 = bmax2.max((self.pos[i] - center).norm2());
                }
                let c = &mut self.cells[ci];
                c.center = center;
                c.wsum = wsum;
                c.moments = m;
                c.bmax = bmax2.sqrt();
            } else {
                let (first_child, nchild) = (self.cells[ci].first_child, self.cells[ci].nchild);
                let range = first_child as usize..(first_child as usize + nchild as usize);
                // Parent centroid from child centroids.
                let mut wsum = 0.0;
                let mut centroid = Vec3::ZERO;
                for k in range.clone() {
                    let ch = &self.cells[k];
                    wsum += ch.wsum;
                    centroid += ch.center * ch.wsum;
                }
                let center = if wsum > 0.0 { centroid / wsum } else { geom.center() };
                let mut m = M::default();
                let mut bmax = 0.0f64;
                for k in range {
                    let (cm, cc, cb) = {
                        let ch = &self.cells[k];
                        (ch.moments, ch.center, ch.bmax)
                    };
                    m.accumulate_shifted(&cm, cc, center);
                    bmax = bmax.max((cc - center).norm() + cb);
                }
                // The geometric corner distance is an alternative bound;
                // keep the tighter one.
                let corner = {
                    let dmin = (center - geom.min).abs();
                    let dmax = (geom.max - center).abs();
                    dmin.max(dmax).norm()
                };
                let c = &mut self.cells[ci];
                c.center = center;
                c.wsum = wsum;
                c.moments = m;
                c.bmax = bmax.min(corner);
            }
        }
    }

    /// Number of particles.
    pub fn n_particles(&self) -> usize {
        self.pos.len()
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Record this tree's construction into a trace ledger (cells built
    /// plus the key-table probes spent building). Call right after
    /// [`Tree::build`], inside a `TreeBuild` span; both quantities are
    /// pure functions of the input bodies, so they are safe for the
    /// bitwise-deterministic report.
    pub fn record_build(&self, trace: &mut hot_trace::Ledger) {
        trace.add(hot_trace::Counter::CellsBuilt, self.n_cells() as u64);
        trace.add(hot_trace::Counter::HashProbes, self.table.probes());
    }

    /// The root cell.
    pub fn root(&self) -> &Cell<M> {
        &self.cells[0]
    }

    /// Look a cell up by key.
    pub fn cell_by_key(&self, key: Key) -> Option<&Cell<M>> {
        self.table.get(key).map(|i| &self.cells[i as usize])
    }

    /// Child cell indices of `cell`.
    pub fn children(&self, cell: &Cell<M>) -> std::ops::Range<usize> {
        if cell.is_leaf() {
            0..0
        } else {
            cell.first_child as usize..cell.first_child as usize + cell.nchild as usize
        }
    }

    /// Indices of the "sink group" cells: the shallowest cells holding at
    /// most `max_group` particles. They partition the particle set and are
    /// the units the traversal walks for (the paper traverses per group of
    /// sinks to amortize list construction).
    pub fn groups(&self, max_group: usize) -> Vec<u32> {
        let mut out = Vec::new();
        if self.n_particles() == 0 {
            return out;
        }
        let mut stack = vec![0u32];
        while let Some(ci) = stack.pop() {
            let c = &self.cells[ci as usize];
            if c.n as usize <= max_group || c.is_leaf() {
                if c.n > 0 {
                    out.push(ci);
                }
            } else {
                stack.extend(self.children(c).map(|k| k as u32));
            }
        }
        out
    }

    /// Exhaustive structural validation (test support): spans tile parents,
    /// keys match spans, table agrees, weights conserve.
    pub fn validate(&self) {
        assert!(!self.cells.is_empty());
        let root = &self.cells[0];
        assert_eq!(root.key, Key::ROOT);
        assert_eq!(root.n as usize, self.n_particles());
        for (ci, c) in self.cells.iter().enumerate() {
            assert_eq!(
                self.table.get(c.key),
                Some(ci as u32),
                "table lookup must find cell {ci}"
            );
            // Every particle in the span belongs to the cell's key range.
            for i in c.span() {
                assert!(
                    c.key.is_ancestor_of(self.keys[i]),
                    "particle {i} outside cell {:?}",
                    c.key
                );
            }
            if !c.is_leaf() {
                let kids = self.children(c);
                let mut covered = 0;
                let mut expect_first = c.first;
                for k in kids {
                    let ch = &self.cells[k];
                    assert_eq!(ch.key.parent(), c.key);
                    assert_eq!(ch.first, expect_first, "children must tile the span");
                    expect_first += ch.n;
                    covered += ch.n;
                    assert!(ch.n > 0, "empty child stored");
                }
                assert_eq!(covered, c.n, "children must cover the parent");
            } else {
                assert!(
                    c.n as usize <= self.bucket || c.key.level() == MAX_DEPTH,
                    "oversized leaf at level {}",
                    c.key.level()
                );
            }
            // bmax really bounds the contents.
            for i in c.span() {
                let d = (self.pos[i] - c.center).norm();
                assert!(
                    d <= c.bmax * (1.0 + 1e-12) + 1e-300,
                    "bmax violated: {d} > {}",
                    c.bmax
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::MassMoments;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect()
    }

    fn unit_masses(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn builds_and_validates_uniform() {
        let pos = random_points(2000, 1);
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &unit_masses(2000), 16);
        tree.validate();
        assert_eq!(tree.n_particles(), 2000);
        assert!(tree.n_cells() > 100);
        assert!((tree.root().moments.mass - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn single_particle_tree() {
        let pos = vec![Vec3::splat(0.25)];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &[2.0], 8);
        tree.validate();
        assert_eq!(tree.n_cells(), 1);
        assert_eq!(tree.root().moments.mass, 2.0);
        assert_eq!(tree.root().center, Vec3::splat(0.25));
        assert_eq!(tree.root().bmax, 0.0);
    }

    #[test]
    fn empty_tree() {
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &[], &[], 8);
        assert_eq!(tree.n_cells(), 1);
        assert_eq!(tree.root().n, 0);
        assert!(tree.groups(10).is_empty());
    }

    #[test]
    fn coincident_particles_stop_at_max_depth() {
        // 20 particles at the same point can never split below bucket size;
        // the build must terminate at MAX_DEPTH with an oversized leaf.
        let pos = vec![Vec3::splat(0.3); 20];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &unit_masses(20), 4);
        tree.validate();
        let deepest = tree.cells.iter().map(|c| c.key.level()).max().unwrap();
        assert_eq!(deepest, MAX_DEPTH);
    }

    #[test]
    fn root_com_matches_direct() {
        let pos = random_points(500, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let masses: Vec<f64> = (0..500).map(|_| rng.gen_range(0.5..2.0)).collect();
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &masses, 12);
        let mtot: f64 = masses.iter().sum();
        let com = pos
            .iter()
            .zip(&masses)
            .map(|(&p, &m)| p * m)
            .fold(Vec3::ZERO, |a, b| a + b)
            / mtot;
        assert!((tree.root().moments.mass - mtot).abs() < 1e-9);
        assert!((tree.root().center - com).norm() < 1e-12);
        // Quadrupole about the com matches a direct computation.
        let mut q = hot_base::SymMat3::ZERO;
        for (&p, &m) in pos.iter().zip(&masses) {
            q += hot_base::SymMat3::outer(p - com) * m;
        }
        for i in 0..6 {
            assert!(
                (tree.root().moments.quad.m[i] - q.m[i]).abs() < 1e-9,
                "component {i}"
            );
        }
    }

    #[test]
    fn groups_partition_particles() {
        let pos = random_points(3000, 3);
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &unit_masses(3000), 8);
        let groups = tree.groups(32);
        let mut seen = vec![false; 3000];
        for &g in &groups {
            let c = &tree.cells[g as usize];
            assert!(c.n <= 32 || c.is_leaf());
            for i in c.span() {
                assert!(!seen[i], "particle {i} in two groups");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "groups must cover all particles");
    }

    #[test]
    fn clustered_distribution_builds_deep() {
        // A tight Gaussian clump forces deep refinement locally while the
        // rest of the box stays shallow — the adaptivity the paper's
        // clustered cosmology problems rely on.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut pos = Vec::new();
        for _ in 0..1500 {
            pos.push(Vec3::new(
                0.5 + rng.gen::<f64>() * 1e-4,
                0.5 + rng.gen::<f64>() * 1e-4,
                0.5 + rng.gen::<f64>() * 1e-4,
            ));
        }
        for _ in 0..500 {
            pos.push(Vec3::new(rng.gen(), rng.gen(), rng.gen()));
        }
        let n = pos.len();
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &unit_masses(n), 8);
        tree.validate();
        let deepest = tree.cells.iter().map(|c| c.key.level()).max().unwrap();
        assert!(deepest >= 10, "clump must force deep cells, got {deepest}");
    }

    #[test]
    fn order_is_permutation() {
        let pos = random_points(777, 9);
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &unit_masses(777), 16);
        let mut seen = vec![false; 777];
        for &o in &tree.order {
            assert!(!seen[o as usize]);
            seen[o as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Sorted keys really are sorted.
        assert!(tree.keys.windows(2).all(|w| w[0] <= w[1]));
        // pos[i] corresponds to original pos[order[i]].
        for i in 0..777 {
            assert_eq!(tree.pos[i], pos[tree.order[i] as usize]);
        }
    }

    #[test]
    fn negative_domain_coordinates() {
        let domain = Aabb::cube(Vec3::new(-5.0, 3.0, 100.0), 10.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let pos: Vec<Vec3> = (0..300)
            .map(|_| {
                domain.min
                    + Vec3::new(
                        rng.gen::<f64>() * 20.0,
                        rng.gen::<f64>() * 20.0,
                        rng.gen::<f64>() * 20.0,
                    )
            })
            .collect();
        let tree = Tree::<MassMoments>::build(domain, &pos, &unit_masses(300), 8);
        tree.validate();
    }
}
