//! Adaptive hashed oct-tree construction over a particle set.
//!
//! Particles are keyed at maximum depth, sorted into Morton order, and the
//! tree is carved out of the sorted array top-down: a cell is a contiguous
//! span of the sorted particle list, and its children are the non-empty
//! 3-bit-digit subranges. Cell records live in a flat `Vec` (children
//! contiguous, parents before children) and are addressable by key through
//! the [`KeyTable`] — the structure the paper names the code after.
//!
//! The summary pass then runs bottom-up through the two constructors of
//! [`Summary`]: leaf cells form expansions about their charge-weighted
//! centroid (P2M), internal cells merge shifted child expansions (M2M) and
//! bound `bmax`, the largest distance from the expansion center to
//! contained matter, used by the acceptance criteria. The distributed top
//! tree forms its branches and shared nodes with the same two functions.

use crate::htable::KeyTable;
use crate::moments::Moments;
use crate::summary::Summary;
use hot_base::{Aabb, Vec3};
use hot_morton::{Key, MAX_DEPTH};
use std::ops::Range;

/// Sentinel for "no children".
pub const NO_CHILD: u32 = u32::MAX;

/// One tree cell: its [`Summary`] plus where its particles and children
/// sit in the tree's arrays. Dereferences to the summary, so `cell.key`,
/// `cell.n`, `cell.center`, `cell.bmax` and `cell.moments` read it.
#[derive(Clone, Debug)]
pub struct Cell<M> {
    /// Key, particle count and multipole expansion.
    pub summary: Summary<M>,
    /// First particle of the span (index into the tree's sorted arrays).
    pub first: u32,
    /// Index of the first child cell, or [`NO_CHILD`] for leaves.
    pub first_child: u32,
    /// Number of children (1–8 for internal cells).
    pub nchild: u8,
}

impl<M> std::ops::Deref for Cell<M> {
    type Target = Summary<M>;
    #[inline]
    fn deref(&self) -> &Summary<M> {
        &self.summary
    }
}

impl<M> Cell<M> {
    /// Is this a leaf (no children)?
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.first_child == NO_CHILD
    }

    /// The particle span as a `usize` range.
    #[inline]
    pub fn span(&self) -> Range<usize> {
        self.first as usize..self.first as usize + self.summary.n as usize
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
        tree.push_cell(Key::ROOT, 0, n as u32);
        tree.carve();
        tree.summarise();
        tree
    }

    /// Append a cell for the key `key` over the particles `first..first +
    /// n`, as a leaf whose summary [`Tree::summarise`] fills in later.
    fn push_cell(&mut self, key: Key, first: u32, n: u32) -> u32 {
        let idx = self.cells.len() as u32;
        let summary = Summary {
            key,
            n: u64::from(n),
            center: Vec3::ZERO,
            bmax: 0.0,
            wsum: 0.0,
            moments: M::default(),
        };
        self.cells.push(Cell { summary, first, first_child: NO_CHILD, nchild: 0 });
        self.table.insert(key, idx);
        idx
    }

    /// Split the root (and, transitively, the children this creates) by the
    /// next 3-bit digit. A cell's children are pushed as one contiguous
    /// block after it, so parents precede children — the order the
    /// bottom-up summary pass relies on.
    fn carve(&mut self) {
        let mut stack = vec![0u32];
        while let Some(ci) = stack.pop() {
            let c = &self.cells[ci as usize];
            let key = c.key;
            if c.n as usize <= self.bucket || key.level() >= MAX_DEPTH {
                continue;
            }
            let first_child = self.cells.len() as u32;
            let kids: Vec<_> = octants(&self.keys, key, c.span()).collect();
            for (child, span) in &kids {
                stack.push(self.push_cell(*child, span.start as u32, span.len() as u32));
            }
            let c = &mut self.cells[ci as usize];
            c.first_child = first_child;
            c.nchild = kids.len() as u8;
        }
    }

    /// Bottom-up summary pass. Children always follow their parent in the
    /// `cells` vec, so a reverse sweep visits children first: a leaf is
    /// summarised from its particles (P2M), an internal cell from its
    /// finished children (M2M).
    fn summarise(&mut self) {
        for ci in (0..self.cells.len()).rev() {
            let summary = self.summary_of(&self.cells[ci]);
            self.cells[ci].summary = summary;
        }
    }

    /// What `cell`'s summary must be: its particles' for a leaf, its
    /// children's for an internal cell.
    fn summary_of(&self, cell: &Cell<M>) -> Summary<M> {
        if cell.is_leaf() {
            let span = cell.span();
            Summary::of_particles(cell.key, &self.pos[span.clone()], &self.charge[span], &self.domain)
        } else {
            let kids = self.cells[self.children(cell)].iter().map(|k| &k.summary);
            Summary::of_children(cell.key, kids, &self.domain)
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
    pub fn children(&self, cell: &Cell<M>) -> Range<usize> {
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

    /// Check the tree against its definition: the root is [`Key::ROOT`]
    /// over every particle; the table finds each cell; each cell's
    /// particles lie in its key range; an internal cell's children are
    /// non-empty octants of it that tile its span in order, and a leaf
    /// holds at most a bucket unless at maximum depth; every summary is,
    /// bit for bit, what its particles (leaf) or children (internal cell)
    /// give; and each `bmax` bounds the cell's particles. Cells are checked
    /// children first, so a damaged summary is named at its own cell, not
    /// at an ancestor whose merge it spoils.
    pub fn validate(&self) -> Result<(), TreeError> {
        let root = &self.cells[0];
        if root.key != Key::ROOT || root.n != self.n_particles() as u64 {
            return Err(TreeError::BadRoot);
        }
        for (ci, c) in self.cells.iter().enumerate().rev() {
            let key = c.key;
            if self.table.get(key) != Some(ci as u32) {
                return Err(TreeError::NotInTable { key });
            }
            if let Some(particle) = c.span().find(|&i| !key.is_ancestor_of(self.keys[i])) {
                return Err(TreeError::ParticleOutside { key, particle });
            }
            if c.is_leaf() {
                if c.n as usize > self.bucket && key.level() < MAX_DEPTH {
                    return Err(TreeError::OversizedLeaf { key });
                }
            } else {
                let kids = self.cells[self.children(c)].iter().map(|k| (k.key, k.span()));
                if !kids.eq(octants(&self.keys, key, c.span())) {
                    return Err(TreeError::ChildrenDoNotTile { key });
                }
            }
            if !c.summary.same_bits(&self.summary_of(c)) {
                return Err(TreeError::NotItsSummary { key });
            }
            let outside = |&i: &usize| (self.pos[i] - c.center).norm() > c.bmax * (1.0 + 1e-12) + 1e-300;
            if let Some(particle) = c.span().find(outside) {
                return Err(TreeError::BmaxViolated { key, particle });
            }
        }
        Ok(())
    }
}

/// The non-empty child octants of the cell `key` whose particles' sorted
/// keys are `keys[span]`: each child's key and particle span, in Morton
/// order. Keys are sorted, so each child's particles are the contiguous
/// run found by a binary search for its key range's end. The local tree
/// carves its cells with this, and the branch extraction splits a cell
/// that straddles an interval boundary with it.
pub(crate) fn octants(
    keys: &[Key],
    key: Key,
    span: Range<usize>,
) -> impl Iterator<Item = (Key, Range<usize>)> + '_ {
    let mut lo = span.start;
    (0..8u8).filter_map(move |d| {
        let child = key.child(d);
        let last = child.range_last();
        let hi = lo + keys[lo..span.end].partition_point(|&k| k <= last);
        let kid = lo..hi;
        lo = hi;
        (!kid.is_empty()).then_some((child, kid))
    })
}

/// Why [`Tree::validate`] rejected a tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// Cell 0 is not the root key over every particle.
    BadRoot,
    /// The key table does not lead to the cell carrying this key.
    NotInTable {
        /// The cell's key.
        key: Key,
    },
    /// A particle of the cell's span lies outside its key range.
    ParticleOutside {
        /// The cell.
        key: Key,
        /// The particle's tree-order index.
        particle: usize,
    },
    /// A leaf holds more than a bucket above maximum depth.
    OversizedLeaf {
        /// The leaf.
        key: Key,
    },
    /// A child is not a non-empty octant of the cell, or the children do
    /// not tile its span in order.
    ChildrenDoNotTile {
        /// The internal cell.
        key: Key,
    },
    /// The summary is not what the cell's particles or children give.
    NotItsSummary {
        /// The cell.
        key: Key,
    },
    /// A particle lies farther than `bmax` from the cell's center.
    BmaxViolated {
        /// The cell.
        key: Key,
        /// The particle's tree-order index.
        particle: usize,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::BadRoot => write!(f, "cell 0 is not the root over every particle"),
            TreeError::NotInTable { key } => write!(f, "the key table does not find {key:?}"),
            TreeError::ParticleOutside { key, particle } => {
                write!(f, "particle {particle} lies outside {key:?}")
            }
            TreeError::OversizedLeaf { key } => write!(f, "leaf {key:?} holds more than a bucket"),
            TreeError::ChildrenDoNotTile { key } => {
                write!(f, "the children of {key:?} do not tile its particles")
            }
            TreeError::NotItsSummary { key } => {
                write!(f, "{key:?}: the summary is not its particles' or children's")
            }
            TreeError::BmaxViolated { key, particle } => {
                write!(f, "particle {particle} lies beyond bmax of {key:?}")
            }
        }
    }
}

impl std::error::Error for TreeError {}

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
        assert_eq!(tree.validate(), Ok(()));
        assert_eq!(tree.n_particles(), 2000);
        assert!(tree.n_cells() > 100);
        assert!((tree.root().moments.mass - 2000.0).abs() < 1e-9);
    }

    /// Each kind of damage is named, with the cell it was found in.
    #[test]
    fn validate_names_what_is_wrong() {
        let pos = random_points(500, 12);
        let build = || Tree::<MassMoments>::build(Aabb::unit(), &pos, &unit_masses(500), 8);
        let tree = build();
        let leaf = tree.cells.iter().position(|c| c.is_leaf() && c.n > 1).expect("a leaf");
        let inner = tree.cells.iter().rposition(|c| !c.is_leaf()).expect("an internal cell");
        let (lk, ik) = (tree.cells[leaf].key, tree.cells[inner].key);

        let mut t = build();
        t.cells[leaf].summary.moments.quad.m[3] += 1e-9;
        assert_eq!(t.validate(), Err(TreeError::NotItsSummary { key: lk }));
        let mut t = build();
        t.cells[inner].summary.wsum *= 2.0;
        assert_eq!(t.validate(), Err(TreeError::NotItsSummary { key: ik }));
        let mut t = build();
        t.cells[inner].nchild -= 1;
        assert_eq!(t.validate(), Err(TreeError::ChildrenDoNotTile { key: ik }));
        let mut t = build();
        t.cells[0].summary.n -= 1;
        assert_eq!(t.validate(), Err(TreeError::BadRoot));
        let mut t = build();
        let far = t.cells[leaf].first as usize;
        let elsewhere = if lk.ancestor_at(1) == Key::ROOT.child(0) { 0.9 } else { 0.1 };
        t.keys[far] = Key::from_point(Vec3::splat(elsewhere), &Aabb::unit());
        assert_eq!(t.validate(), Err(TreeError::ParticleOutside { key: lk, particle: far }));
        let mut t = build();
        t.bucket = 1;
        assert!(matches!(t.validate(), Err(TreeError::OversizedLeaf { .. })));
    }

    #[test]
    fn single_particle_tree() {
        let pos = vec![Vec3::splat(0.25)];
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &[2.0], 8);
        assert_eq!(tree.validate(), Ok(()));
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
        assert_eq!(tree.validate(), Ok(()));
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
        assert_eq!(tree.validate(), Ok(()));
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
        assert_eq!(tree.validate(), Ok(()));
    }
}
