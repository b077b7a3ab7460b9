//! The distributed tree: every rank's canopy grafted into its one tree.
//!
//! After the domain decomposition each rank owns a contiguous Morton-key
//! interval and has built a local [`Tree`] over its bodies. To traverse
//! *globally*, every rank needs (at least) a coarse picture of everyone
//! else's matter. The paper's construction, reproduced here:
//!
//! * **Branch cells** — the coarsest local cells whose key ranges lie
//!   entirely inside the owner's interval. They are complete (no other rank
//!   holds matter in them) and collectively tile the occupied key space.
//! * Branches are all-gathered; each rank builds the **top tree** of their
//!   common ancestors, with exact merged moments (so the top-tree root
//!   carries the total system mass). The top tree and the branches are the
//!   rank's *canopy*. The distributed walk then drops the subtrees its own
//!   sink groups cannot open (`DistTree::prune`).
//! * The canopy is grafted onto the end of the local tree's cell array and
//!   into its key table, as in the paper's HOT library: one hashed oct-tree
//!   per processor, whose table turns any key into a cell and catches
//!   accesses to non-local data. Every local cell keeps its index. Another
//!   rank's branch is an unopened remote cell ([`Below::Remote`]); a rank's
//!   own branch is a copy of its local cell, or a body span for a
//!   *virtual* branch (part of a leaf that straddles an interval
//!   boundary); a shared node holds its children, one block after it in
//!   Morton order. The rank's partial local cells above its branches stay
//!   in the array as sink-group candidates, but the table leads their keys
//!   to the shared nodes and no walk reaches them.
//! * A branch is its cell's summary as the local tree formed it (or, for a
//!   virtual branch, its particles' summary), and a shared node merges its
//!   children's with the local tree's own M2M, [`Summary::of_children`].
//!   Where no leaf straddles a cut, the top tree is therefore bit for bit
//!   the canopy of one tree over every rank's bodies. What travels —
//!   branches in the exchange, children in the walk's fetch — is a
//!   [`DNode`]: the summary, the owner and a leaf flag.
//! * The top tree is an octree: **one node per key**. Every rank lists its
//!   branches depth-first and the intervals ascend with rank, so the
//!   gathered branches arrive in ascending key-range order. One pass from
//!   the root groups a slice of them by the child octant of the current
//!   key, so each shared key is built once, its children in Morton order.
//!   (The level-by-level loop this replaced merged only nodes that sat next
//!   to each other in level-major key order: a shallow branch and its
//!   deeper cousins under one ancestor grew separate parent chains, so a
//!   shared key could be built twice — one node in seven at np = 128 × 32
//!   uniform bodies, the root itself at np = 2 — and the table kept only
//!   the last copy, a partial cell the walk treated as whole.)
//!   [`Tree::validate`] checks the whole tree, canopy included, and
//!   `DistTree::validate_cut` checks with the intervals that only shared
//!   nodes are pruned and that every remote node lies in its owner's
//!   interval. The tree starts its walks at the grafted global root.
//! * Cells *below* another rank's branch are fetched lazily during the
//!   walk, through the global key name space: "open key K" is meaningful
//!   on every rank — that is what the hash-table indirection buys. They
//!   are appended after the canopy, their bodies after the local ones.

use crate::decomp::KeyIntervals;
use crate::moments::Moments;
use crate::summary::Summary;
use crate::tree::{octants, Below, Cell, Tree, TreeError, NO_BODIES};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hot_base::Vec3;
use hot_comm::{Comm, Wire};
use hot_morton::Key;
use std::ops::Range;

/// A node as it travels — in the branch exchange and as a child in the
/// walk's fetch: a cell's [`Summary`], whose it is, and whether it is a
/// leaf. Its receiver holds it as an unopened remote cell.
#[derive(Clone, Debug)]
pub struct DNode<M> {
    /// Key, particle count and multipole expansion.
    pub summary: Summary<M>,
    /// Owning rank.
    pub owner: u32,
    /// Whether the owner's cell is a leaf: what opening it fetches is
    /// bodies, not children.
    pub leaf: bool,
}

impl<M> DNode<M> {
    /// The cell `summary` of rank `owner`, a leaf or not.
    pub fn remote(summary: Summary<M>, owner: u32, leaf: bool) -> Self {
        DNode { summary, owner, leaf }
    }

    /// The cell its receiver holds for it: unopened.
    fn held(self) -> Cell<M> {
        let below = Below::Remote { owner: self.owner, leaf: self.leaf };
        Cell { summary: self.summary, first: NO_BODIES, below }
    }
}

impl<M: Wire> Wire for DNode<M> {
    fn encode(&self, buf: &mut BytesMut) {
        self.summary.encode(buf);
        buf.put_u32_le(self.owner);
        buf.put_u8(self.leaf as u8);
    }
    fn decode(buf: &mut Bytes) -> Self {
        let summary = Summary::decode(buf);
        let owner = buf.get_u32_le();
        DNode::remote(summary, owner, buf.get_u8() != 0)
    }
    fn wire_size(&self) -> usize {
        self.summary.wire_size() + 4 + 1
    }
}

/// What lies below a remote node, as its owner serves it to a rank
/// opening it ([`DistTree::serve`], [`DistTree::open`]). On the wire a
/// leaf flag comes first, as in a [`DNode`]: 1 for bodies, 0 for children.
#[derive(Debug)]
pub(crate) enum Reply<M: Moments> {
    /// An internal cell's children, as they travel.
    Kids(Vec<DNode<M>>),
    /// A leaf's (or a virtual branch's) bodies, as `(position, charge)`.
    Bodies(Vec<(Vec3, M::Charge)>),
}

impl<M: Moments> Wire for Reply<M> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Reply::Kids(kids) => {
                buf.put_u8(0);
                kids.encode(buf);
            }
            Reply::Bodies(bodies) => {
                buf.put_u8(1);
                bodies.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Self {
        match buf.get_u8() {
            0 => Reply::Kids(Vec::decode(buf)),
            _ => Reply::Bodies(Vec::decode(buf)),
        }
    }
    fn wire_size(&self) -> usize {
        1 + match self {
            Reply::Kids(kids) => kids.wire_size(),
            Reply::Bodies(bodies) => bodies.wire_size(),
        }
    }
}

/// One rank's view of the global tree: its local tree with the canopy
/// grafted on (module docs).
pub struct DistTree<M: Moments> {
    /// This rank.
    pub rank: u32,
    /// The rank's one tree: local cells, then the canopy, then what the
    /// walk fetched.
    pub local: Tree<M>,
    /// Global key ownership.
    pub intervals: KeyIntervals,
    /// The canopy's index range in `local.cells`: the top-tree nodes and
    /// the branches. Its first cell is the global root.
    pub nodes: Range<usize>,
}

impl<M: Moments> DistTree<M> {
    /// [`DistTree::build`], recording into the current trace span: the
    /// top-tree/branch nodes built and the branch-allgather traffic (a
    /// collective, hence schedule-independent and safe to trace from raw
    /// `TrafficStats`). Does not open a span of its own — callers wrap the
    /// whole tree phase (local build + exchange) in one `TreeBuild` span.
    pub fn build_traced(
        comm: &mut Comm,
        local: Tree<M>,
        intervals: KeyIntervals,
        trace: &mut hot_trace::Ledger,
    ) -> Self {
        let wire_before = comm.stats();
        let dt = Self::build(comm, local, intervals);
        trace.add(hot_trace::Counter::CellsBuilt, dt.nodes.len() as u64);
        trace.add_traffic(&comm.stats().since(&wire_before));
        dt
    }

    /// Exchange branch cells and graft the shared top tree over them onto
    /// the local tree. Collective: every rank calls with its local tree and
    /// the (identical) intervals from [`crate::decomp::decompose`]. After
    /// the exchange the build is pure local computation over the gathered
    /// branches, so every rank builds the same canopy.
    pub fn build(comm: &mut Comm, mut local: Tree<M>, intervals: KeyIntervals) -> Self {
        let rank = comm.rank();
        let mut own = branch_cells(&local, &intervals, rank);
        let wire: Vec<DNode<M>> =
            own.iter().map(|c| DNode::remote(c.summary, rank, c.is_leaf())).collect();
        // Each rank lists its branches depth-first inside its own key
        // interval and the intervals ascend with rank, so the gathered
        // concatenation is the whole branch set depth-first — no sort. A
        // rank's own branches stay the cells it made them from.
        let mut branches = Vec::new();
        for (r, nodes) in comm.allgather(wire).into_iter().enumerate() {
            if r == rank as usize {
                branches.append(&mut own);
            } else {
                branches.extend(nodes.into_iter().map(DNode::held));
            }
        }
        debug_assert!(
            branches.windows(2).all(|w| w[0].key.range_last() < w[1].key.range_begin()),
            "branches must be disjoint and in depth-first order"
        );
        let nodes = graft(&mut local, &branches);
        let dt = DistTree { rank, local, intervals, nodes };
        debug_assert_eq!(dt.local.validate(), Ok(()));
        debug_assert_eq!(dt.validate_cut(), Ok(()));
        dt
    }

    /// Drop the subtree below every shared node that no sink group of this
    /// rank can open, walking down from the root: a shared node for which
    /// `opens` is false becomes [`Below::Pruned`]. The kept canopy is
    /// compacted in place, the array's spare room freed and the key table
    /// rebuilt for the cells held. Returns the canopy nodes kept and
    /// dropped.
    ///
    /// Its caller, the distributed walk, passes "the MAC rejects the
    /// sphere holding every sink group"; why that keeps every node a group
    /// can open is in DESIGN.md, "The reach of a rank's walk". Such a
    /// sphere holds every body of the rank, so no node over one of its own
    /// branches is dropped, and every key it serves stays in the table.
    pub(crate) fn prune(&mut self, opens: impl Fn(&Summary<M>) -> bool) -> (u64, u64) {
        let Range { start, end } = self.nodes;
        let cells = &mut self.local.cells;
        debug_assert_eq!(end, cells.len(), "the cut comes before any fetch");
        let mut kept = vec![false; end - start];
        let mut stack = vec![start];
        while let Some(ci) = stack.pop() {
            kept[ci - start] = true;
            let c = &mut cells[ci];
            // A shared node: resident children and no bodies of its own.
            // Without any (the root of an empty universe) it has nothing
            // to drop.
            let (Below::Kids { first, n }, NO_BODIES) = (c.below, c.first) else { continue };
            if n == 0 || opens(&c.summary) {
                stack.extend(first as usize..first as usize + usize::from(n));
            } else {
                c.below = Below::Pruned;
            }
        }
        let n_kept = kept.iter().filter(|&&k| k).count();
        if n_kept < kept.len() {
            // Siblings are kept or dropped together, so a kept block stays
            // one block, moved down by the dropped cells before it.
            let remap: Vec<u32> = kept
                .iter()
                .scan(start as u32, |at, &k| {
                    *at += u32::from(k);
                    Some(*at - u32::from(k))
                })
                .collect();
            for c in &mut cells[start..] {
                if let (Below::Kids { first, .. }, NO_BODIES) = (&mut c.below, c.first) {
                    *first = remap[*first as usize - start];
                }
            }
            let mut i = 0;
            cells.retain(|_| {
                i += 1;
                i <= start || kept[i - 1 - start]
            });
            cells.shrink_to_fit();
            self.nodes = start..start + n_kept;
            self.local.reindex();
        }
        debug_assert_eq!(self.local.validate(), Ok(()));
        debug_assert_eq!(self.validate_cut(), Ok(()));
        (n_kept as u64, (kept.len() - n_kept) as u64)
    }

    /// Check what [`Tree::validate`] cannot tell without the intervals:
    /// that only shared nodes are pruned, and that a remote node's key
    /// range lies inside its owner's interval. A node with bodies of its
    /// own is not shared, nor is one whose key range lies inside one rank's
    /// interval, as a branch's and every cell's below it does (a shared
    /// node's never does, or that rank would have made it a branch).
    fn validate_cut(&self) -> Result<(), TreeError> {
        let owner = |k: Key| self.intervals.owner(k);
        let one = |c: &Cell<M>| Some(owner(c.key.range_begin())).filter(|&r| r == owner(c.key.range_last()));
        let wrong = self.local.cells.iter().find_map(|c| match c.below {
            Below::Pruned if c.first != NO_BODIES || one(c).is_some() => Some(TreeError::PrunedNotShared { key: c.key }),
            Below::Remote { owner, .. } if one(c) != Some(owner) => Some(TreeError::NotItsOwners { key: c.key, owner }),
            _ => None,
        });
        wrong.map_or(Ok(()), Err)
    }

    /// What lies below one of *my* keys, served to a rank opening it: the
    /// children of an internal cell, as they travel, or the bodies of a
    /// leaf or virtual branch. This matches the leaf flag the key's node
    /// travelled with. Panics on a protocol error: no node here has the
    /// key, or it is not mine.
    pub(crate) fn serve(&self, key: Key) -> Reply<M> {
        // Protocol invariant: requests only name keys this rank sent out.
        // hot-lint: allow(unwrap-audit)
        let ci = self.local.table.get(key).expect("a request for a key with no node here");
        let cell = &self.local.cells[ci as usize];
        let span = cell.span();
        assert!(
            cell.first != NO_BODIES && span.end <= self.local.n_particles(),
            "a request for {key:?}, which is not this rank's"
        );
        match cell.below {
            Below::Kids { .. } => {
                let kids = &self.local.cells[self.local.children(cell)];
                let travel = |k: &Cell<M>| DNode::remote(k.summary, self.rank, k.is_leaf());
                Reply::Kids(kids.iter().map(travel).collect())
            }
            _ => {
                let (pos, charge) = (&self.local.pos[span.clone()], &self.local.charge[span]);
                Reply::Bodies(pos.iter().copied().zip(charge.iter().copied()).collect())
            }
        }
    }

    /// Open the unopened remote node `key` with what its owner served:
    /// children are appended to the tree as unopened remote cells, one
    /// block, and bodies after the tree's bodies, as the node's span.
    /// Panics on a protocol error: no node has the key, the node is not an
    /// unopened remote one, the reply disagrees with its leaf flag or its
    /// count, or it carries more than eight children or a child of another
    /// owner.
    pub(crate) fn open(&mut self, key: Key, reply: Reply<M>) {
        let tree = &mut self.local;
        // Protocol invariant: replies only arrive for requested nodes.
        // hot-lint: allow(unwrap-audit)
        let ci = tree.table.get(key).expect("a reply for a key with no node here") as usize;
        let (owner, leaf) = match tree.cells[ci].below {
            Below::Remote { owner, leaf } => (owner, leaf),
            held => panic!("a reply for {key:?}, which is not an unopened remote node: {held:?}"),
        };
        match reply {
            Reply::Kids(kids) if !leaf => {
                let n = kids.len();
                assert!(n <= 8, "{n} children for {key:?}, an octree cell has at most 8");
                let first = tree.cells.len() as u32;
                for kid in kids {
                    let k = kid.owner;
                    assert_eq!(k, owner, "a child of {key:?} from rank {k}, not from its owner");
                    tree.push(kid.held());
                }
                tree.cells[ci].below = Below::Kids { first, n: n as u8 };
            }
            Reply::Bodies(bodies) if leaf => {
                let n = tree.cells[ci].n;
                assert_eq!(bodies.len() as u64, n, "the reply for {key:?} disagrees with its count");
                // No rank holds 2^32 bodies (96 GiB of positions alone).
                // hot-lint: allow(unwrap-audit)
                let first = u32::try_from(tree.pos.len()).expect("under 2^32 bodies");
                // Grow by the fetched bodies held, as if they had arrays of
                // their own: doubling the local bodies along with them
                // raised `dist_coarse`'s peak RSS.
                if tree.pos.len() + bodies.len() > tree.pos.capacity() {
                    let grow = bodies.len().max(tree.pos.len() - tree.n_particles());
                    tree.pos.reserve_exact(grow);
                    tree.charge.reserve_exact(grow);
                }
                for (p, q) in bodies {
                    tree.pos.push(p);
                    tree.charge.push(q);
                }
                (tree.cells[ci].first, tree.cells[ci].below) = (first, Below::Bodies);
            }
            _ => panic!("the reply for {key:?} disagrees with its leaf flag ({leaf})"),
        }
    }

    /// Total particles visible from the global root.
    #[cfg(test)]
    pub fn global_n(&self) -> u64 {
        self.local.cells[self.nodes.start].n
    }
}

/// Graft the canopy over `branches` (ascending key ranges) onto the end of
/// `tree`: the branches and, for every key with branches strictly below
/// it, a shared node over the child octants that hold them, its children
/// one block after it in Morton order (with no branches at all, an empty
/// root). The cells are laid out from the global root down, as
/// [`Tree::build`] carves. The table is then rebuilt once for every cell
/// held, each canopy key taking over the key of a local cell above or at
/// a branch: growing the local tree's table one canopy key at a time
/// rehashed it several times a step at `dist_fine`'s grain. Returns the
/// canopy's index range.
fn graft<M: Moments>(tree: &mut Tree<M>, branches: &[Cell<M>]) -> Range<usize> {
    let start = tree.cells.len();
    let mut shared = Vec::new();
    tree.cells.push(Cell::unsummarised(Key::ROOT, NO_BODIES, 0));
    let mut stack = vec![(start as u32, 0..branches.len())];
    while let Some((ci, range)) = stack.pop() {
        let key = tree.cells[ci as usize].key;
        if range.len() == 1 && branches[range.start].key == key {
            tree.cells[ci as usize] = branches[range.start].clone();
            continue;
        }
        let level = key.level() + 1;
        let first = tree.cells.len() as u32;
        let mut i = range.start;
        while i < range.end {
            let child = branches[i].key.ancestor_at(level);
            let j = i + branches[i..range.end].partition_point(|b| b.key.ancestor_at(level) == child);
            stack.push((tree.cells.len() as u32, i..j));
            tree.cells.push(Cell::unsummarised(child, NO_BODIES, 0));
            i = j;
        }
        let n = (tree.cells.len() as u32 - first) as u8;
        tree.cells[ci as usize].below = Below::Kids { first, n };
        shared.push(ci as usize);
    }
    // Children follow their parent, so the reverse merges children first.
    for &ci in shared.iter().rev() {
        let kids = tree.cells[tree.children(&tree.cells[ci])].iter().map(|k| &k.summary);
        let summary = Summary::of_children(tree.cells[ci].key, kids, &tree.domain);
        tree.cells[ci].summary = summary;
    }
    tree.reindex();
    start..tree.cells.len()
}

/// Extract this rank's branch cells: the coarsest cells (by key range)
/// fully inside the rank's interval, in ascending key-range (depth-first)
/// order.
///
/// Works on key *ranges* over the sorted particle array rather than on the
/// built cells, because a local leaf may straddle an interval boundary: the
/// leaf then splits into "virtual" branch cells that exist in key space but
/// not in the local cell store, summarised from their particles and held as
/// body spans. A resident cell's branch is a copy of it. The resulting
/// branch set is an antichain that tiles the occupied key space — the
/// invariant the top tree needs.
fn branch_cells<M: Moments>(local: &Tree<M>, intervals: &KeyIntervals, rank: u32) -> Vec<Cell<M>> {
    let mut out = Vec::new();
    if local.n_particles() == 0 {
        return out;
    }
    let (lo, hi) = intervals.interval(rank);
    let last_rank = rank as usize == intervals.np() - 1;
    // (key, span) work stack over the sorted key array.
    let mut stack = vec![(Key::ROOT, 0..local.n_particles())];
    while let Some((key, span)) = stack.pop() {
        let begin = key.range_begin().0;
        let last = key.range_last().0;
        let inside = begin >= lo && (last < hi || (last_rank && last <= hi));
        if inside {
            out.push(match local.cell_by_key(key) {
                Some(c) => {
                    debug_assert_eq!(c.span(), span);
                    c.clone()
                }
                None => {
                    let (pos, charge) = (&local.pos[span.clone()], &local.charge[span.clone()]);
                    let summary = Summary::of_particles(key, pos, charge, &local.domain);
                    Cell { summary, first: span.start as u32, below: Below::Bodies }
                }
            });
            continue;
        }
        debug_assert!(
            key.level() < hot_morton::MAX_DEPTH,
            "a max-depth cell is a single key and is owned whole"
        );
        // Push the non-empty children 7..0 so they pop in key order.
        let kids: Vec<_> = octants(&local.keys, key, span).collect();
        stack.extend(kids.into_iter().rev());
    }
    out
}

#[cfg(test)]
mod tests {
    use hot_comm::RunConfig;
    use super::*;
    use crate::decomp::{decompose, decompose_unaligned, Body};
    use crate::moments::MassMoments;
    use hot_base::Aabb;
    use rand::{Rng, SeedableRng};

    fn build_dist(np: u32, n_per_rank: usize, seed: u64) -> Vec<DistInfo> {
        let out = RunConfig::builder().np(np).run(move |c| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + c.rank() as u64);
            let bodies: Vec<Body<f64>> = (0..n_per_rank)
                .map(|i| {
                    let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                    Body {
                        key: Key::from_point(pos, &Aabb::unit()),
                        pos,
                        charge: 1.0 + (i % 3) as f64 * 0.5,
                        work: 1.0,
                        id: c.rank() as u64 * 1_000_000 + i as u64,
                    }
                })
                .collect();
            let (mine, iv) = decompose(c, bodies, 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
            assert_eq!(tree.validate(), Ok(()));
            let dt = DistTree::build(c, tree, iv);
            assert_eq!(dt.local.validate(), Ok(()));
            DistInfo {
                global_n: dt.global_n(),
                root_mass: dt.local.cells[dt.nodes.start].moments.mass,
                local_mass: dt.local.root().moments.mass,
                n_nodes: dt.nodes.len(),
                branches_disjoint: check_branch_antichain(&dt),
            }
        });
        out.results
    }

    struct DistInfo {
        global_n: u64,
        root_mass: f64,
        local_mass: f64,
        n_nodes: usize,
        branches_disjoint: bool,
    }

    /// A canopy node that is not a branch: resident children, no bodies.
    fn shared<M>(c: &Cell<M>) -> bool {
        matches!(c.below, Below::Kids { .. }) && c.first == NO_BODIES
    }

    fn check_branch_antichain<M: Moments>(dt: &DistTree<M>) -> bool {
        let canopy = &dt.local.cells[dt.nodes.clone()];
        let branch_keys: Vec<Key> = canopy.iter().filter(|c| !shared(c)).map(|c| c.key).collect();
        for (i, &a) in branch_keys.iter().enumerate() {
            for &b in &branch_keys[i + 1..] {
                if a.is_ancestor_of(b) || b.is_ancestor_of(a) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn global_mass_and_count_on_every_rank() {
        for np in [1u32, 2, 4, 6] {
            let n_per = 400;
            let infos = build_dist(np, n_per, 17);
            let total_local_mass: f64 = infos.iter().map(|i| i.local_mass).sum();
            for info in &infos {
                assert_eq!(info.global_n, (np as usize * n_per) as u64, "np={np}");
                assert!(
                    (info.root_mass - total_local_mass).abs() < 1e-9 * total_local_mass,
                    "np={np}: root mass {} vs {}",
                    info.root_mass,
                    total_local_mass
                );
                assert!(info.branches_disjoint, "np={np}: branches overlap");
                assert!(info.n_nodes >= np as usize, "np={np}");
            }
        }
    }

    /// Bodies for one rank of the validator sweep: `uniform` in the unit
    /// cube; `clustered`, nine in ten inside a cube of side 0.02 (deep,
    /// lopsided branches next to shallow ones); `sparse`, np / 2 bodies all
    /// on rank 0, so after the decomposition some ranks hold none.
    fn sweep_bodies(input: &str, rank: u32, np: u32) -> Vec<Body<f64>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(97 + u64::from(rank));
        let n = match input {
            "sparse" if rank == 0 => np as usize / 2,
            "sparse" => 0,
            _ => 48,
        };
        (0..n)
            .map(|i| {
                let mut pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                if input == "clustered" && i % 10 != 0 {
                    pos = Vec3::splat(0.3) + pos * 0.02;
                }
                Body {
                    key: Key::from_point(pos, &Aabb::unit()),
                    pos,
                    charge: 1.0 + (i % 3) as f64 * 0.5,
                    work: 1.0,
                    id: u64::from(rank) * 1_000_000 + i as u64,
                }
            })
            .collect()
    }

    #[test]
    fn top_tree_validates_through_both_builds() {
        for np in [1u32, 2, 3, 4, 16, 128] {
            for input in ["uniform", "clustered", "sparse"] {
                let out = RunConfig::builder().np(np).run(move |c| {
                    let bodies = sweep_bodies(input, c.rank(), np);
                    let (mine, iv) = decompose(c, bodies, 16);
                    let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
                    let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
                    let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
                    let dt = DistTree::build(c, tree, iv);
                    ((dt.local.validate(), dt.global_n(), dt.nodes.len()), mine.is_empty())
                });
                let n_total: u64 = match input {
                    "sparse" => u64::from(np / 2),
                    _ => u64::from(np) * 48,
                };
                let ((_, _, nodes), _) = out.results[0];
                let empty = out.results.iter().filter(|r| r.1).count();
                for (rank, ((ok, global_n, len), _)) in out.results.iter().enumerate() {
                    let tag = format!("np={np} {input} rank={rank}");
                    assert_eq!(*ok, Ok(()), "{tag}");
                    assert_eq!(*global_n, n_total, "{tag}");
                    assert_eq!(*len, nodes, "{tag}: every rank builds the same top tree");
                }
                if input == "sparse" && np > 1 {
                    assert!(empty > 0, "np={np}: the sparse input must leave a rank empty");
                }
            }
        }
    }

    /// With every cut on an octant boundary no leaf straddles two ranks,
    /// so the top tree is the canopy of one tree over all the bodies: each
    /// branch is its owner's cell, and each shared node merges the same
    /// children in the same order. Every node — branches formed on their
    /// owners, shared nodes on every rank — must equal the serial cell of
    /// its key bit for bit.
    #[test]
    fn aligned_top_tree_is_the_serial_trees_canopy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let all: Vec<(Vec3, f64)> = (0..1000)
            .map(|i| (Vec3::new(rng.gen(), rng.gen(), rng.gen()), 1.0 + (i % 3) as f64 * 0.5))
            .collect();
        let (pos, q): (Vec<Vec3>, Vec<f64>) = all.iter().copied().unzip();
        let serial = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
        let at = |digits: &[u8]| digits.iter().fold(Key::ROOT, |k, &d| k.child(d)).range_begin().0;
        for cuts in [vec![at(&[4])], vec![at(&[2]), at(&[5, 3])], vec![at(&[1, 7]), at(&[3]), at(&[6, 0, 4])]] {
            let np = cuts.len() as u32 + 1;
            let iv = KeyIntervals { bounds: [vec![0], cuts.clone(), vec![u64::MAX]].concat() };
            let (all, serial) = (all.clone(), &serial);
            let out = RunConfig::builder().np(np).run(move |c| {
                let owned = |&&(p, _): &&(Vec3, f64)| iv.owns(c.rank(), Key::from_point(p, &Aabb::unit()));
                let (pos, q): (Vec<Vec3>, Vec<f64>) = all.iter().filter(owned).copied().unzip();
                let local = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
                let dt = DistTree::build(c, local, iv.clone());
                let same = |n: &&Cell<MassMoments>| {
                    serial.cell_by_key(n.key).is_some_and(|s| s.summary.same_bits(&n.summary))
                };
                let canopy = &dt.local.cells[dt.nodes.clone()];
                let differ: Vec<Key> = canopy.iter().filter(|n| !same(n)).map(|n| n.key).collect();
                (differ, canopy.iter().filter(|n| shared(n)).count())
            });
            for (rank, (differ, shared)) in out.results.iter().enumerate() {
                assert!(differ.is_empty(), "np={np} rank={rank}: {differ:?} differ from the serial tree");
                assert!(*shared >= cuts.len(), "np={np}: {shared} shared nodes");
            }
        }
    }

    /// A kept shared node must have all its children or be pruned, and
    /// only a shared node may be pruned ([`DistTree::validate_cut`]), not
    /// the rank's own branch, another rank's, or a local cell: each breach
    /// is named with its own error.
    #[test]
    fn validate_learns_the_pruned_canopy() {
        let out = RunConfig::builder().np(4).run(|c| {
            let (mine, iv) = decompose(c, sweep_bodies("uniform", c.rank(), 4), 16);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let local = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
            let mut dt = DistTree::build(c, local, iv);
            let root = dt.nodes.start;
            let own = dt.nodes.clone().find(|&i| dt.local.cells[i].first != NO_BODIES).expect("a branch");
            let remote = |c: &Cell<MassMoments>| matches!(c.below, Below::Remote { .. });
            let other = dt.nodes.clone().find(|&i| remote(&dt.local.cells[i])).expect("a remote branch");
            let Below::Kids { first, n } = dt.local.cells[root].below else { panic!("a bare root") };
            let check = |dt: &mut DistTree<MassMoments>, i: usize, mark: Below| {
                let was = std::mem::replace(&mut dt.local.cells[i].below, mark);
                let got = dt.local.validate().and_then(|()| dt.validate_cut());
                dt.local.cells[i].below = was;
                got
            };
            let short = Below::Kids { first: first + 1, n: n - 1 };
            let pruned = |i: usize| Err(TreeError::PrunedNotShared { key: dt.local.cells[i].key });
            let (misplaced, foreign, local) = (pruned(own), pruned(other), pruned(0));
            let partial = TreeError::NotItsSummary { key: Key::ROOT };
            [
                (check(&mut dt, root, Below::Pruned), Ok(())),
                (check(&mut dt, own, Below::Pruned), misplaced),
                (check(&mut dt, other, Below::Pruned), foreign),
                (check(&mut dt, 0, Below::Pruned), local),
                (check(&mut dt, root, short), Err(partial)),
                (dt.local.validate().and_then(|()| dt.validate_cut()), Ok(())),
            ]
        });
        for (rank, checks) in out.results.iter().enumerate() {
            for (i, (got, want)) in checks.iter().enumerate() {
                assert_eq!(got, want, "rank {rank}, check {i}");
            }
        }
    }

    /// A remote node resolves to its owner: one that names a rank whose
    /// interval does not hold its key range — an owner planted wrong on a
    /// remote branch, and on a fetched child below it — is named by
    /// [`DistTree::validate_cut`] with its key and the owner it names.
    #[test]
    fn a_remote_node_outside_its_owners_interval_is_named() {
        let out = RunConfig::builder().np(4).run(|c| {
            let (mine, iv) = decompose(c, sweep_bodies("uniform", c.rank(), 4), 16);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let local = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
            let mut dt = DistTree::build(c, local, iv);
            let remote = |c: &Cell<MassMoments>| matches!(c.below, Below::Remote { leaf: false, .. });
            let other = dt.nodes.clone().find(|&i| remote(&dt.local.cells[i])).expect("a remote branch");
            let Below::Remote { owner, leaf } = dt.local.cells[other].below else { unreachable!() };
            let wrong = (owner + 1) % 4;
            let key = dt.local.cells[other].key;
            dt.local.cells[other].below = Below::Remote { owner: wrong, leaf };
            let planted = dt.validate_cut();
            dt.local.cells[other].below = Below::Remote { owner, leaf };
            // Its first child, as a correct owner serves it, then planted.
            let kid = Summary { key: key.child(0), ..dt.local.cells[other].summary };
            dt.open(key, Reply::Kids(vec![DNode::remote(kid, owner, true)]));
            let first = dt.local.cells.len() - 1;
            dt.local.cells[first].below = Below::Remote { owner: wrong, leaf: true };
            let fetched = dt.validate_cut();
            dt.local.cells[first].below = Below::Remote { owner, leaf: true };
            let want = |key| Err(TreeError::NotItsOwners { key, owner: wrong });
            [(planted, want(key)), (fetched, want(key.child(0))), (dt.validate_cut(), Ok(()))]
        });
        for (rank, checks) in out.results.iter().enumerate() {
            for (i, (got, want)) in checks.iter().enumerate() {
                assert_eq!(got, want, "rank {rank}, check {i}");
            }
        }
    }

    /// A child served by a rank other than its parent's owner is a forged
    /// reply: opening with it panics.
    #[test]
    #[should_panic(expected = "not from its owner")]
    fn a_child_from_another_owner_panics() {
        RunConfig::builder().np(1).run(|c| {
            let (mut dt, key) = with_remote_node(c, false);
            let kid = Summary::<MassMoments>::of_particles(key.child(0), &[], &[], &Aabb::unit());
            dt.open(key, Reply::Kids(vec![DNode::remote(kid, 1, true)]));
        });
    }

    /// The graft keeps every local cell as it was, at its index; the table
    /// leads each key to exactly one node, a local cell above or at a
    /// branch giving its key up to the canopy; and a canopy copy of one of
    /// the rank's own branches is its local cell bit for bit.
    #[test]
    fn the_graft_keeps_the_local_tree_and_one_node_per_key() {
        let out = RunConfig::builder().np(3).run(|c| {
            let (mine, iv) = decompose_unaligned(c, sweep_bodies("clustered", c.rank(), 3), 16);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let local = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
            let before = local.cells.clone();
            let dt = DistTree::build(c, local, iv);
            let cells = &dt.local.cells;
            let same = |a: &Cell<MassMoments>, b: &Cell<MassMoments>| {
                a.summary.same_bits(&b.summary) && (a.first, a.below) == (b.first, b.below)
            };
            assert!(before.iter().zip(cells).all(|(a, b)| same(a, b)), "a local cell moved");
            assert_eq!(dt.nodes.start, before.len());
            let mut keys = std::collections::BTreeSet::new();
            for i in dt.nodes.clone() {
                assert!(keys.insert(cells[i].key.0), "two canopy nodes carry {:?}", cells[i].key);
                assert_eq!(dt.local.table.get(cells[i].key), Some(i as u32));
            }
            let mut copies = 0;
            for (ci, c) in before.iter().enumerate() {
                let found = dt.local.table.get(c.key).expect("every key is held") as usize;
                assert!(found == ci || dt.nodes.contains(&found), "{:?}", c.key);
                if found != ci && cells[found].first != NO_BODIES {
                    assert!(same(c, &cells[found]), "the copy of {:?} differs", c.key);
                    copies += 1;
                }
            }
            copies
        });
        assert!(out.results.iter().all(|&n| n > 0), "no own branch is a local cell: {:?}", out.results);
    }

    #[test]
    fn node_wire_roundtrip() {
        let summary = Summary::<MassMoments> {
            key: Key::ROOT.child(3).child(5),
            n: 17,
            center: Vec3::new(0.1, 0.2, 0.3),
            bmax: 0.05,
            wsum: 17.0,
            moments: MassMoments {
                mass: 17.0,
                quad: hot_base::SymMat3::new(1.0, 1.0, 1.0, 0.0, 0.0, 0.0),
                b2: 3.0,
            },
        };
        for leaf in [false, true] {
            let node = DNode::remote(summary, 2, leaf);
            // The size `exp_event_scale`'s traffic bound counts per branch.
            assert_eq!(node.wire_size(), 125);
            let back: DNode<MassMoments> = hot_comm::from_bytes(hot_comm::to_bytes(&node));
            assert_eq!((back.summary, back.owner, back.leaf), (summary, 2, leaf));
        }
    }

    #[test]
    fn empty_universe() {
        let out = RunConfig::builder().np(2).run(|c| {
            let (mine, iv) = decompose::<f64>(c, Vec::new(), 16);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
            let dt = DistTree::build(c, tree, iv);
            (dt.global_n(), dt.nodes.len())
        });
        for &(n, nodes) in &out.results {
            assert_eq!(n, 0);
            assert_eq!(nodes, 1);
        }
    }

    /// Serving one of my keys gives its children when it is an internal
    /// cell and its bodies when it is a leaf, matching the leaf flag its
    /// node travels with.
    #[test]
    fn serve_gives_children_or_bodies_by_the_leaf_flag() {
        let out = RunConfig::builder().np(2).run(|c| {
            let (mine, iv) = decompose(c, sweep_bodies("uniform", c.rank(), 2), 16);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
            let dt = DistTree::build(c, tree, iv);
            let mine = |c: &&Cell<MassMoments>| dt.local.cell_by_key(c.key).is_some_and(|t| t.first != NO_BODIES);
            let cells = &dt.local.cells[..dt.nodes.start];
            let inner = cells.iter().filter(mine).find(|c| !c.is_leaf()).expect("an internal cell");
            let Reply::Kids(kids) = dt.serve(inner.key) else { panic!("an internal cell serves kids") };
            assert_eq!(kids.iter().map(|k| k.summary.n).sum::<u64>(), inner.n);
            assert!(kids.iter().all(|k| k.owner == dt.rank));
            let leaf = cells.iter().filter(mine).find(|c| c.is_leaf()).expect("a leaf");
            let Reply::Bodies(got) = dt.serve(leaf.key) else { panic!("a leaf serves bodies") };
            let want: Vec<(Vec3, f64)> =
                leaf.span().map(|i| (dt.local.pos[i], dt.local.charge[i])).collect();
            assert_eq!(got, want);
            1u8
        });
        assert_eq!(out.results.len(), 2);
    }

    /// Every key a rank serves is a node in its table, so a request for a
    /// key with no node is a protocol error.
    #[test]
    #[should_panic(expected = "a request for a key with no node here")]
    fn serving_a_key_with_no_node_panics() {
        RunConfig::builder().np(1).run(|c| {
            let pos: Vec<Vec3> = (0..20).map(|i| Vec3::splat((i as f64 + 0.5) / 20.0)).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &[1.0; 20], 4);
            let (_, iv) = decompose::<f64>(c, Vec::new(), 8);
            let dt = DistTree::build(c, tree, iv);
            let leaf = dt.local.cells.iter().find(|c| c.is_leaf()).expect("a leaf").key;
            dt.serve(leaf.child(0));
        });
    }

    /// One rank holding a fabricated remote cell of `n` bodies at
    /// `Key::ROOT.child(7).child(7).child(7)`, unopened, and that key.
    fn with_remote_node(c: &mut Comm, leaf: bool) -> (DistTree<MassMoments>, Key) {
        let pos: Vec<Vec3> =
            (0..50).map(|i| Vec3::new((i as f64 + 0.5) / 50.0, 0.5, 0.5)).collect();
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &[1.0; 50], 4);
        let (_, iv) = decompose::<f64>(c, Vec::new(), 8);
        let mut dt = DistTree::build(c, tree, iv);
        let key = Key::ROOT.child(7).child(7).child(7);
        let summary = Summary {
            key,
            n: 5,
            center: Vec3::splat(0.9),
            bmax: 0.01,
            wsum: 5.0,
            moments: MassMoments { mass: 5.0, ..Default::default() },
        };
        dt.local.push(DNode::remote(summary, 0, leaf).held());
        (dt, key)
    }

    #[test]
    fn open_links_children_and_ranges_bodies() {
        let out = RunConfig::builder().np(1).run(|c| {
            let (mut dt, key) = with_remote_node(c, false);
            let ni = dt.local.table.get(key).expect("pushed") as usize;
            let summary = Summary { key: key.child(1), n: 2, ..dt.local.cells[ni].summary };
            dt.open(key, Reply::Kids(vec![DNode::remote(summary, 0, true)]));
            let first = dt.local.cells.len() as u32 - 1;
            assert_eq!(dt.local.cells[ni].below, Below::Kids { first, n: 1 });
            let kid = first as usize;
            assert_eq!(dt.local.cells[kid].key, key.child(1));
            assert_eq!(dt.local.table.get(key.child(1)), Some(first));
            // The child is a leaf: its bodies go after the local ones.
            let bodies = vec![(Vec3::splat(0.91), 2.0), (Vec3::splat(0.92), 3.0)];
            dt.open(key.child(1), Reply::Bodies(bodies));
            assert_eq!(dt.local.cells[kid].below, Below::Bodies);
            assert_eq!(dt.local.cells[kid].span(), 50..52);
            assert_eq!(dt.local.charge[50..], [2.0, 3.0]);
            assert_eq!(dt.local.n_particles(), 50);
            // An opened remote cell lies inside its owner's interval: never
            // shared, so never pruned.
            assert_eq!(dt.validate_cut(), Ok(()));
            dt.local.cells[ni].below = Below::Pruned;
            assert_eq!(dt.validate_cut(), Err(TreeError::PrunedNotShared { key }));
            true
        });
        assert!(out.results[0]);
    }

    /// A reply whose kind disagrees with the leaf flag the node travelled
    /// with is a protocol error, whichever way round.
    #[test]
    fn a_reply_against_the_leaf_flag_panics() {
        for leaf in [false, true] {
            let got = std::panic::catch_unwind(|| {
                RunConfig::builder().np(1).run(move |c| {
                    let (mut dt, key) = with_remote_node(c, leaf);
                    let reply =
                        if leaf { Reply::Kids(Vec::new()) } else { Reply::Bodies(Vec::new()) };
                    dt.open(key, reply);
                });
            });
            let err = got.expect_err("a mismatched reply must panic");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("disagrees with its leaf flag"), "leaf {leaf}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "not an unopened remote node")]
    fn opening_twice_panics() {
        RunConfig::builder().np(1).run(|c| {
            let (mut dt, key) = with_remote_node(c, true);
            dt.open(key, Reply::Bodies(vec![(Vec3::splat(0.9), 1.0); 5]));
            dt.open(key, Reply::Bodies(vec![(Vec3::splat(0.9), 1.0); 5]));
        });
    }

    #[test]
    #[should_panic(expected = "an octree cell has at most 8")]
    fn open_rejects_more_than_eight_children() {
        RunConfig::builder().np(1).run(|c| {
            let (mut dt, key) = with_remote_node(c, false);
            let one = Summary::<MassMoments>::of_particles(key.child(0), &[], &[], &Aabb::unit());
            dt.open(key, Reply::Kids(vec![DNode::remote(one, 0, true); 9]));
        });
    }
}
