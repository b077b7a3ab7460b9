//! Adaptive hashed oct-tree construction over a particle set, and the
//! one node array a rank walks.
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
//! contained matter, used by the acceptance criteria.
//!
//! A rank keeps one such tree per step. The distributed step
//! ([`crate::dtree`]) grafts the canopy of the global tree onto the end of
//! the same array and table, and the walk appends what it fetches from
//! other ranks after that, their bodies after the local ones. So every node
//! is a [`Cell`], and [`Below`] says what lies under it: resident children,
//! a span of resident bodies, a remote cell or leaf not fetched yet, or
//! nothing, pruned by the walk's cut.

use crate::htable::KeyTable;
use crate::moments::Moments;
use crate::summary::Summary;
use hot_base::{Aabb, Vec3};
use hot_morton::{Key, MAX_DEPTH};
use std::ops::Range;

/// [`Cell::first`] of a node whose bodies are not all resident: a shared
/// node of the canopy, or a cell fetched from (or still held by) another
/// rank.
pub(crate) const NO_BODIES: u32 = u32::MAX;

/// What lies below a [`Cell`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Below {
    /// `n` resident children, one block from index `first` in Morton order.
    Kids {
        /// Index of the first child.
        first: u32,
        /// Number of children, at most eight.
        n: u8,
    },
    /// No children: the cell's bodies are its span ([`Cell::span`]).
    Bodies,
    /// A cell of rank `owner` not opened yet: its children, or the bodies
    /// of a leaf (`leaf`), are still to fetch.
    Remote {
        /// The rank that holds what lies below.
        owner: u32,
        /// Whether the owner's cell is a leaf.
        leaf: bool,
    },
    /// A shared node every sink group of this rank accepts, its subtree
    /// dropped by the walk's cut. The summary stays the merge of what was
    /// below it; a walk that opens it panics.
    Pruned,
}

/// One tree node: its [`Summary`], where its bodies sit in the tree's
/// arrays, and what lies below it. Dereferences to the summary, so
/// `cell.key`, `cell.n`, `cell.center`, `cell.bmax` and `cell.moments`
/// read it.
#[derive(Clone, Debug)]
pub struct Cell<M> {
    /// Key, particle count and multipole expansion.
    pub summary: Summary<M>,
    /// First body of the span (index into the tree's body arrays), or
    /// `u32::MAX` when the node's bodies are not all resident.
    pub first: u32,
    /// Resident children, a body span, an unopened remote cell, or pruned.
    pub below: Below,
}

impl<M> std::ops::Deref for Cell<M> {
    type Target = Summary<M>;
    #[inline]
    fn deref(&self) -> &Summary<M> {
        &self.summary
    }
}

impl<M> Cell<M> {
    /// Is this a leaf (its bodies resident, no children)?
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.below == Below::Bodies
    }

    /// The particle span as a `usize` range: meaningful for a cell whose
    /// bodies are resident.
    #[inline]
    pub fn span(&self) -> Range<usize> {
        self.first as usize..self.first as usize + self.summary.n as usize
    }
}

impl<M: Moments> Cell<M> {
    /// A cell for `key` whose summary is still to be formed, with `n`
    /// bodies from `first` and nothing below them yet.
    pub(crate) fn unsummarised(key: Key, first: u32, n: u64) -> Self {
        let summary =
            Summary { key, n, center: Vec3::ZERO, bmax: 0.0, wsum: 0.0, moments: M::default() };
        Cell { summary, first, below: Below::Bodies }
    }
}

/// An adaptive oct-tree over one particle set (one rank's local particles,
/// or the whole problem when run single-image). In a distributed step the
/// same arrays also hold the canopy and the fetched cells (module docs).
#[derive(Debug)]
pub struct Tree<M: Moments> {
    /// Root cube containing every particle.
    pub domain: Aabb,
    /// Leaf bucket size used for this build.
    pub bucket: usize,
    /// Morton keys of the local bodies, sorted ascending.
    pub keys: Vec<Key>,
    /// `order[i]` = original index of the i-th sorted particle.
    pub order: Vec<u32>,
    /// Positions in sorted order, then those of any fetched bodies.
    pub pos: Vec<Vec3>,
    /// Charges, parallel to `pos`.
    pub charge: Vec<M::Charge>,
    /// Cell records; index 0 is the root of the local bodies.
    pub cells: Vec<Cell<M>>,
    /// Key → cell-index table.
    pub table: KeyTable,
}

impl<M: Moments> Tree<M> {
    /// Build a tree over `pos`/`charge` (parallel arrays) inside `domain`
    /// (must be a cube containing all positions). `bucket` is the maximum
    /// leaf occupancy. Panics, naming the body, on a position that is not
    /// finite: its key would be a clamped corner of the domain, and every
    /// force it touches NaN.
    pub fn build(domain: Aabb, pos: &[Vec3], charge: &[M::Charge], bucket: usize) -> Self {
        assert_eq!(pos.len(), charge.len(), "positions and charges must pair up");
        assert!(bucket >= 1);
        let n = pos.len();

        // Key + sort phase. (The paper implements the distributed version of
        // this as a weighted parallel sort; see `decomp`.)
        let mut keyed: Vec<(Key, u32)> = pos
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                assert!(p.is_finite(), "Tree::build: body {i} is at {p:?}, not a finite position");
                (Key::from_point(p, &domain), i as u32)
            })
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
        tree.push(Cell::unsummarised(Key::ROOT, 0, n as u64));
        tree.carve();
        tree.summarise();
        debug_assert_eq!(tree.validate(), Ok(()));
        tree
    }

    /// Append `cell` and enter its key in the table; returns its index.
    pub(crate) fn push(&mut self, cell: Cell<M>) -> u32 {
        let (idx, key) = (self.cells.len() as u32, cell.key);
        self.cells.push(cell);
        self.table.insert(key, idx);
        idx
    }

    /// Rebuild the key table for the cells held, at load at most ½: a
    /// cell's key leads to it unless a later cell carries the key too
    /// (the canopy taking over a local cell's key).
    pub(crate) fn reindex(&mut self) {
        self.table = KeyTable::with_capacity(self.cells.len());
        for (i, c) in self.cells.iter().enumerate() {
            self.table.insert(c.key, i as u32);
        }
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
            let first = self.cells.len() as u32;
            let kids: Vec<_> = octants(&self.keys, key, c.span()).collect();
            for (child, span) in &kids {
                let cell = Cell::unsummarised(*child, span.start as u32, span.len() as u64);
                stack.push(self.push(cell));
            }
            self.cells[ci as usize].below = Below::Kids { first, n: kids.len() as u8 };
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

    /// What `cell`'s summary must be: its bodies' for a body span, its
    /// children's for resident children. (Not called on a remote or pruned
    /// node.)
    fn summary_of(&self, cell: &Cell<M>) -> Summary<M> {
        if let Below::Kids { .. } = cell.below {
            let kids = self.cells[self.children(cell)].iter().map(|k| &k.summary);
            Summary::of_children(cell.key, kids, &self.domain)
        } else {
            let span = cell.span();
            Summary::of_particles(cell.key, &self.pos[span.clone()], &self.charge[span], &self.domain)
        }
    }

    /// Number of local particles (fetched bodies are not counted).
    pub fn n_particles(&self) -> usize {
        self.keys.len()
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

    /// Where every walk starts: the node the table leads [`Key::ROOT`] to —
    /// the local root, cell 0, until `DistTree::build` grafts a canopy,
    /// whose global root then takes the key over.
    #[inline]
    pub(crate) fn walk_root(&self) -> u32 {
        self.table.find(Key::ROOT).0.unwrap_or(0)
    }

    /// Look a cell up by key.
    pub fn cell_by_key(&self, key: Key) -> Option<&Cell<M>> {
        self.table.get(key).map(|i| &self.cells[i as usize])
    }

    /// Child cell indices of `cell` (empty unless its children are
    /// resident).
    pub fn children(&self, cell: &Cell<M>) -> Range<usize> {
        match cell.below {
            Below::Kids { first, n } => first as usize..first as usize + usize::from(n),
            _ => 0..0,
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

    /// Check the tree against its definition — the local tree, and the
    /// canopy and fetched cells a distributed step appends (module docs):
    ///
    /// * cell 0 is [`Key::ROOT`] over every local body; a second root, if
    ///   there is one, starts the canopy, and every cell from it on is a
    ///   canopy or fetched node;
    /// * the table leads a canopy or fetched node's key to that node, so
    ///   no two of them share a key, and a local cell's key to the cell or
    ///   to the canopy node that took the key over;
    /// * resident children are distinct child octants of their parent, in
    ///   ascending order; below a local body span they are exactly its
    ///   non-empty octants, tiling the span in order;
    /// * a local body span's particles lie in its key range, and a local
    ///   leaf holds at most a bucket unless at maximum depth;
    /// * every summary is, bit for bit, what its bodies or its children
    ///   give (a remote node's is its owner's, and a pruned node's merged
    ///   what is gone), and its `bmax` bounds its resident bodies;
    /// * which nodes may be pruned needs the intervals: `DistTree::validate_cut`.
    ///
    /// Cells are checked from the last to the first, so children before
    /// parents: a damaged summary is named at its own cell, not at an
    /// ancestor whose merge it spoils.
    pub fn validate(&self) -> Result<(), TreeError> {
        let root = &self.cells[0];
        let locals = self.n_particles();
        if root.key != Key::ROOT || root.n != locals as u64 || root.first != 0 {
            return Err(TreeError::BadRoot);
        }
        let canopy = self.cells[1..].iter().position(|c| c.key == Key::ROOT);
        let canopy = canopy.map_or(self.cells.len(), |i| i + 1);
        for (ci, c) in self.cells.iter().enumerate().rev() {
            let key = c.key;
            let found = self.table.find(key).0.map(|t| t as usize);
            let taken_over = |t: usize| ci < canopy && t >= canopy && self.cells[t].key == key;
            if found != Some(ci) && !found.is_some_and(taken_over) {
                return Err(TreeError::NotInTable { key });
            }
            let bodies = (c.first != NO_BODIES).then(|| c.span());
            let local = bodies.clone().filter(|span| span.end <= locals);
            let outside = |&i: &usize| !key.is_ancestor_of(self.keys[i]);
            if let Some(particle) = local.clone().and_then(|mut span| span.find(outside)) {
                return Err(TreeError::ParticleOutside { key, particle });
            }
            match c.below {
                Below::Kids { .. } => {
                    let bad = TreeError::ChildrenDoNotTile { key };
                    let kids = self.cells.get(self.children(c)).ok_or(bad)?;
                    let octant = |k: &Cell<M>| k.key.level() == key.level() + 1 && k.key.parent() == key;
                    let tiled = match local {
                        Some(span) => kids.iter().map(|k| (k.key, k.span())).eq(octants(&self.keys, key, span)),
                        None => kids.iter().all(octant) && kids.windows(2).all(|w| w[0].key < w[1].key),
                    };
                    if !tiled {
                        return Err(bad);
                    }
                }
                Below::Bodies => {
                    if ci < canopy && c.n as usize > self.bucket && key.level() < MAX_DEPTH {
                        return Err(TreeError::OversizedLeaf { key });
                    }
                }
                Below::Remote { .. } | Below::Pruned => continue,
            }
            if !c.summary.same_bits(&self.summary_of(c)) {
                return Err(TreeError::NotItsSummary { key });
            }
            let beyond = |&i: &usize| (self.pos[i] - c.center).norm() > c.bmax * (1.0 + 1e-12) + 1e-300;
            if let Some(particle) = bodies.and_then(|mut span| span.find(beyond)) {
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
    /// A child is not an octant of the cell, the children are not
    /// ascending, or below a local body span they do not tile it in order.
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
    /// A node that is not shared is pruned: only a shared node's subtree
    /// may be dropped.
    PrunedNotShared {
        /// The pruned node.
        key: Key,
    },
    /// A remote node's key range is not inside its owner's interval.
    NotItsOwners {
        /// The remote node.
        key: Key,
        /// The rank it names as its owner.
        owner: u32,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::BadRoot => write!(f, "cell 0 is not the root over every particle"),
            TreeError::NotInTable { key } => write!(f, "the key table does not lead to {key:?}"),
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
            TreeError::PrunedNotShared { key } => write!(f, "{key:?} is pruned but not shared"),
            TreeError::NotItsOwners { key, owner } => {
                write!(f, "remote {key:?} lies outside the interval of its owner, rank {owner}")
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
        let Below::Kids { first, n } = t.cells[inner].below else { unreachable!() };
        t.cells[inner].below = Below::Kids { first, n: n - 1 };
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

    /// Every node a rank holds, local, canopy or fetched, is one `Cell`:
    /// what lies below it fits the bytes its summary pads to.
    #[test]
    fn one_node_is_136_bytes() {
        assert_eq!(std::mem::size_of::<Cell<MassMoments>>(), 136);
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
