//! The distributed tree: local trees grafted into a global view.
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
//!   carries the total system mass). The distributed walk then drops the
//!   subtrees its own sink groups cannot open (`DistTree::prune`).
//! * Every node is a [`Summary`] with an owner and a child link. A branch
//!   is its cell's summary as the local tree formed it (or, for part of a
//!   leaf, its particles' summary), and a shared node merges its children's
//!   with the local tree's own M2M, [`Summary::of_children`]. Where no leaf
//!   straddles a cut, the top tree is therefore bit for bit the canopy of
//!   one tree over every rank's bodies. What travels — branches in the
//!   exchange, children in the walk's fetch — is the node itself.
//! * The top tree is an octree: **one node per key**. Every rank lists its
//!   branches depth-first and the intervals ascend with rank, so the
//!   gathered branches arrive in ascending key-range order. One depth-first
//!   pass groups a slice of them by the child octant of the current key
//!   and recurses, so each shared key is built once, its children in
//!   Morton order. (The level-by-level loop this replaced merged only
//!   nodes that sat next to each other in level-major key order: a shallow
//!   branch and its deeper cousins under one ancestor grew separate parent
//!   chains, so a shared key could be built twice — one node in seven at
//!   np = 128 × 32 uniform bodies, the root itself at np = 2 — and the
//!   table kept only the last copy, a partial cell the walk treated as
//!   whole.) [`DistTree::validate`] checks these invariants.
//! * Cells *below* another rank's branch are fetched lazily during the
//!   walk, through the global key name space: "request the children of key
//!   K" is meaningful on every rank — that is what the hash-table
//!   indirection buys.

use crate::decomp::KeyIntervals;
use crate::moments::Moments;
use crate::summary::Summary;
use crate::tree::{octants, Tree};
use crate::KeyTable;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hot_base::Vec3;
use hot_comm::{Comm, Wire};
use hot_morton::Key;

/// How a distributed node's children are reached.
#[derive(Clone, Debug, PartialEq)]
pub enum DChildren {
    /// Fully-resolved children, indices into `DistTree::nodes`.
    Nodes(Kids),
    /// This is one of *my* branches: descend via the local tree.
    LocalSubtree,
    /// Remote internal cell whose children have not been fetched yet.
    RemoteUnfetched,
    /// Remote leaf cell: no children; its bodies can be fetched.
    RemoteLeaf,
    /// A shared node every sink group of this rank accepts, its subtree
    /// dropped by `DistTree::prune`. The summary stays the merge of
    /// what was below it; a walk that opens it panics.
    Pruned,
}

/// The child indices of one octree node, in place: at most eight, so a
/// node's children cost no heap allocation. Dereferences to `&[u32]`.
#[derive(Clone, Copy, Default)]
pub struct Kids {
    len: Len,
    idx: [u32; 8],
}

/// A child count, 0 to 8. Its unused byte values leave `DChildren` room
/// for its other variants, so the enum needs no tag of its own.
#[derive(Clone, Copy, Default)]
#[repr(u8)]
enum Len {
    #[default]
    L0,
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
    L7,
    L8,
}

impl Kids {
    /// Append a child index. Panics past eight: no octree cell has more.
    fn push(&mut self, i: u32) {
        use Len::*;
        let n = self.len as usize;
        assert!(n < 8, "an octree cell has at most 8 children");
        self.idx[n] = i;
        self.len = [L1, L2, L3, L4, L5, L6, L7, L8][n];
    }
}

impl FromIterator<u32> for Kids {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Kids {
        let mut kids = Kids::default();
        iter.into_iter().for_each(|i| kids.push(i));
        kids
    }
}

impl std::ops::Deref for Kids {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.idx[..self.len as usize]
    }
}

impl PartialEq for Kids {
    fn eq(&self, other: &Kids) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Kids {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One node of the global tree view: a cell's [`Summary`], whose it is,
/// and how to reach what lies below it. Dereferences to the summary.
///
/// A node is also what travels: the branch exchange and the walk's child
/// fetch ship nodes as their receiver first holds them — a remote cell,
/// [`DChildren::RemoteLeaf`] or [`DChildren::RemoteUnfetched`] — encoded
/// as the summary, the owner and a leaf flag.
#[derive(Clone, Debug)]
pub struct DNode<M> {
    /// Key, particle count and multipole expansion.
    pub summary: Summary<M>,
    /// Owning rank (`u32::MAX` for shared top-tree nodes).
    pub owner: u32,
    /// Child linkage.
    pub children: DChildren,
}

impl<M> std::ops::Deref for DNode<M> {
    type Target = Summary<M>;
    #[inline]
    fn deref(&self) -> &Summary<M> {
        &self.summary
    }
}

impl<M> DNode<M> {
    /// The cell `summary` of rank `owner` as another rank first holds it:
    /// a leaf's bodies, or an internal cell's children, still to fetch.
    pub fn remote(summary: Summary<M>, owner: u32, leaf: bool) -> Self {
        let children = if leaf { DChildren::RemoteLeaf } else { DChildren::RemoteUnfetched };
        DNode { summary, owner, children }
    }
}

impl<M: Wire> Wire for DNode<M> {
    fn encode(&self, buf: &mut BytesMut) {
        debug_assert!(
            matches!(self.children, DChildren::RemoteLeaf | DChildren::RemoteUnfetched),
            "only a node as its receiver first holds it travels"
        );
        self.summary.encode(buf);
        buf.put_u32_le(self.owner);
        buf.put_u8(matches!(self.children, DChildren::RemoteLeaf) as u8);
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

/// Owner tag for shared top-tree nodes.
pub const SHARED: u32 = u32::MAX;

/// The global tree view of one rank.
#[derive(Debug)]
pub struct DistTree<M: Moments> {
    /// This rank.
    pub rank: u32,
    /// The rank's local tree.
    pub local: Tree<M>,
    /// Global key ownership.
    pub intervals: KeyIntervals,
    /// Global nodes: top tree + branches + lazily fetched remote cells.
    pub nodes: Vec<DNode<M>>,
    /// Key → node index.
    pub table: KeyTable,
    /// Index of the global root in `nodes`.
    pub root: u32,
    /// Fetched remote bodies, keyed by node index.
    pub body_cache: std::collections::HashMap<u32, (Vec<Vec3>, Vec<M::Charge>)>,
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

    /// Exchange branch cells and build the shared top tree.
    /// Collective: every rank calls with its local tree and the (identical)
    /// intervals from [`crate::decomp::decompose`]. After the exchange the
    /// build is pure local computation over the gathered branches, so every
    /// rank builds the same nodes.
    pub fn build(comm: &mut Comm, local: Tree<M>, intervals: KeyIntervals) -> Self {
        let rank = comm.rank();
        // Each rank lists its branches depth-first inside its own key
        // interval and the intervals ascend with rank, so the gathered
        // concatenation is the whole branch set depth-first — no sort.
        let gathered = comm.allgather(branch_nodes(&local, &intervals, rank));
        let n_branches = gathered.iter().map(Vec::len).sum();
        let mut dt = DistTree {
            rank,
            local,
            intervals,
            nodes: Vec::new(),
            table: KeyTable::with_capacity(0),
            root: 0,
            body_cache: std::collections::HashMap::new(),
        };
        // Branch i is node i; this rank's own descend through its local
        // tree.
        for mut node in gathered.into_iter().flatten() {
            if node.owner == rank {
                node.children = DChildren::LocalSubtree;
            }
            dt.nodes.push(node);
        }
        debug_assert!(
            dt.nodes.windows(2).all(|w| w[0].key.range_last() < w[1].key.range_begin()),
            "branches must be disjoint and in depth-first order"
        );
        dt.root = dt.top_node(Key::ROOT, 0..n_branches);
        dt.index_nodes();
        dt
    }

    /// Drop the subtree below every shared node that no sink group of this
    /// rank can open, walking down from the root: a shared node for which
    /// `opens` is false becomes [`DChildren::Pruned`]. The kept nodes are
    /// compacted in place and the key table rebuilt for them. Returns the
    /// nodes kept and dropped.
    ///
    /// Runs before the walk fetches anything (panics otherwise): fetched
    /// bodies are cached by node index. Its caller, the distributed walk,
    /// passes "the MAC rejects the sphere holding every sink group"; why
    /// that keeps every node a group can open is in DESIGN.md, "The reach
    /// of a rank's walk".
    pub(crate) fn prune(&mut self, opens: impl Fn(&Summary<M>) -> bool) -> (u64, u64) {
        assert!(self.body_cache.is_empty(), "prune runs before the walk fetches");
        let before = self.nodes.len();
        // Kept nodes first get 0, then their new index.
        let mut remap = vec![u32::MAX; before];
        let mut stack = vec![self.root];
        while let Some(ni) = stack.pop() {
            remap[ni as usize] = 0;
            let node = &mut self.nodes[ni as usize];
            if node.owner != SHARED {
                continue;
            }
            if !opens(&node.summary) {
                node.children = DChildren::Pruned;
            } else if let DChildren::Nodes(kids) = &node.children {
                stack.extend_from_slice(kids);
            }
        }
        let mut kept = 0;
        for slot in remap.iter_mut().filter(|s| **s == 0) {
            *slot = kept;
            kept += 1;
        }
        if kept as usize == before {
            return (kept.into(), 0);
        }
        let mut i = 0;
        self.nodes.retain(|_| {
            i += 1;
            remap[i - 1] != u32::MAX
        });
        self.nodes.shrink_to_fit();
        for node in &mut self.nodes {
            if let DChildren::Nodes(kids) = &mut node.children {
                *kids = kids.iter().map(|&k| remap[k as usize]).collect();
            }
        }
        self.root = remap[self.root as usize];
        self.index_nodes();
        (kept.into(), (before - kept as usize) as u64)
    }

    /// A key table for exactly the nodes held, at load at most ½.
    fn index_nodes(&mut self) {
        self.table = KeyTable::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            self.table.insert(node.key, i as u32);
        }
    }

    /// The node for `key`, whose key range holds exactly the branch nodes
    /// `branches`: the branch itself when it is `key`, else a shared node
    /// over the child octants that hold branches, built depth-first in
    /// Morton order (with no branches at all, an empty root). Recursion
    /// depth is at most [`hot_morton::MAX_DEPTH`].
    fn top_node(&mut self, key: Key, branches: std::ops::Range<usize>) -> u32 {
        if branches.len() == 1 && self.nodes[branches.start].key == key {
            return branches.start as u32;
        }
        let level = key.level() + 1;
        let mut kids = Kids::default();
        let mut i = branches.start;
        while i < branches.end {
            let child = self.nodes[i].key.ancestor_at(level);
            let j = i + self.nodes[i..branches.end]
                .partition_point(|b| b.key.ancestor_at(level) == child);
            kids.push(self.top_node(child, i..j));
            i = j;
        }
        let summary = Summary::of_children(
            key,
            kids.iter().map(|&k| &self.nodes[k as usize].summary),
            &self.local.domain,
        );
        self.nodes.push(DNode { summary, owner: SHARED, children: DChildren::Nodes(kids) });
        self.nodes.len() as u32 - 1
    }

    fn push_node(&mut self, node: DNode<M>) -> u32 {
        let idx = self.nodes.len() as u32;
        self.table.insert(node.key, idx);
        self.nodes.push(node);
        idx
    }

    /// The children of one of *my* local cells, as the rank fetching them
    /// will hold them. `None` when the key is not resident locally (a
    /// protocol error by the requester).
    pub fn children_nodes(&self, key: Key) -> Option<Vec<DNode<M>>> {
        let cell = self.local.cell_by_key(key)?;
        let kids = &self.local.cells[self.local.children(cell)];
        Some(kids.iter().map(|k| DNode::remote(k.summary, self.rank, k.is_leaf())).collect())
    }

    /// The local tree-order span of a key's range, by binary search on the
    /// sorted key array — answers "virtual" keys that have no resident
    /// cell too.
    pub fn span_of(&self, key: Key) -> std::ops::Range<usize> {
        let begin = key.range_begin();
        let last = key.range_last();
        let i0 = self.local.keys.partition_point(|&k| k < begin);
        let i1 = i0 + self.local.keys[i0..].partition_point(|&k| k <= last);
        i0..i1
    }

    /// Bodies within a key's range, for serving a remote direct-sum
    /// request.
    pub fn bodies_of(&self, key: Key) -> Option<(Vec<Vec3>, Vec<M::Charge>)> {
        let span = self.span_of(key);
        if span.is_empty() {
            return None;
        }
        Some((self.local.pos[span.clone()].to_vec(), self.local.charge[span].to_vec()))
    }

    /// Install fetched children below node `parent_key` (a no-op when an
    /// earlier reply already installed them). Panics when the reply carries
    /// more than eight nodes: no octree cell has more children.
    pub fn install_children(&mut self, parent_key: Key, kids: Vec<DNode<M>>) {
        assert!(
            kids.len() <= 8,
            "install_children: {} children for {parent_key:?}, an octree cell has at most 8",
            kids.len()
        );
        let pidx = self
            .table
            .get(parent_key)
            // Protocol invariant: replies only arrive for requested parents.
            // hot-lint: allow(unwrap-audit)
            .expect("install_children: unknown parent") as usize;
        if let DChildren::Nodes(_) = self.nodes[pidx].children {
            return;
        }
        let idxs = kids.into_iter().map(|k| self.push_node(k)).collect();
        self.nodes[pidx].children = DChildren::Nodes(idxs);
    }

    /// Total particles visible from the global root.
    #[cfg(test)]
    pub fn global_n(&self) -> u64 {
        self.nodes[self.root as usize].n
    }

    /// Check the top tree is an octree over a tiling of branches: one node
    /// per key, each found by the table; every shared node's children are
    /// distinct child octants of it in ascending order, and its summary is
    /// bit for bit [`Summary::of_children`] of theirs (so the root counts
    /// every branch's particles); the branches below the shared nodes are
    /// disjoint. After `DistTree::prune` a shared node either keeps all
    /// its children or is [`DChildren::Pruned`], and only a shared node
    /// may be; a pruned node's summary is not checked, as what it merged
    /// is gone. Remote cells installed by a walk below a branch are
    /// checked for key uniqueness only.
    pub fn validate(&self) -> Result<(), TopTreeError> {
        for (i, node) in self.nodes.iter().enumerate() {
            match self.table.get(node.key) {
                Some(j) if j as usize == i => {}
                Some(j) if self.nodes[j as usize].key == node.key => {
                    return Err(TopTreeError::DuplicateKey { key: node.key })
                }
                _ => return Err(TopTreeError::NotInTable { key: node.key }),
            }
            if node.children == DChildren::Pruned && node.owner != SHARED {
                return Err(TopTreeError::PrunedNotShared { key: node.key });
            }
        }
        let mut branches = Vec::new();
        let mut stack = vec![self.root];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni as usize];
            if node.owner != SHARED {
                branches.push(node.key);
                continue;
            }
            let kids: &[u32] = match &node.children {
                DChildren::Nodes(kids) => kids,
                DChildren::Pruned => continue,
                _ => &[],
            };
            let mut prev: Option<Key> = None;
            for &k in kids {
                let c = &self.nodes[k as usize];
                let octant = c.key.level() == node.key.level() + 1 && c.key.parent() == node.key;
                if !octant || prev.is_some_and(|p| p >= c.key) {
                    return Err(TopTreeError::MisplacedChild { parent: node.key, child: c.key });
                }
                prev = Some(c.key);
            }
            let merged = Summary::of_children(
                node.key,
                kids.iter().map(|&k| &self.nodes[k as usize].summary),
                &self.local.domain,
            );
            if !node.summary.same_bits(&merged) {
                return Err(TopTreeError::NotSummaryOfChildren { key: node.key });
            }
            stack.extend_from_slice(kids);
        }
        branches.sort_unstable_by_key(|k| k.range_begin());
        if let Some(w) = branches.windows(2).find(|w| w[0].range_last() >= w[1].range_begin()) {
            return Err(TopTreeError::BranchesOverlap { a: w[0], b: w[1] });
        }
        Ok(())
    }
}

/// Why [`DistTree::validate`] rejected a top tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopTreeError {
    /// Two nodes carry this key.
    DuplicateKey {
        /// The repeated key.
        key: Key,
    },
    /// The key table does not lead to the node carrying this key.
    NotInTable {
        /// The node's key.
        key: Key,
    },
    /// A shared node's child is not one of its octants, or the children
    /// are not strictly ascending.
    MisplacedChild {
        /// The shared node.
        parent: Key,
        /// The offending child.
        child: Key,
    },
    /// A shared node's summary is not, bit for bit, the merge of its
    /// children's.
    NotSummaryOfChildren {
        /// The shared node.
        key: Key,
    },
    /// Two branches under the top tree share key range.
    BranchesOverlap {
        /// The branch starting first.
        a: Key,
        /// The branch it overlaps.
        b: Key,
    },
    /// A branch or a remote cell is marked [`DChildren::Pruned`]: only a
    /// shared node's subtree may be dropped.
    PrunedNotShared {
        /// The marked node.
        key: Key,
    },
}

impl std::fmt::Display for TopTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopTreeError::DuplicateKey { key } => write!(f, "two top-tree nodes carry {key:?}"),
            TopTreeError::NotInTable { key } => write!(f, "the key table does not find {key:?}"),
            TopTreeError::MisplacedChild { parent, child } => {
                write!(f, "{child:?} is not the next child octant of {parent:?}")
            }
            TopTreeError::NotSummaryOfChildren { key } => {
                write!(f, "{key:?}: the summary is not its children's")
            }
            TopTreeError::BranchesOverlap { a, b } => write!(f, "branches {a:?} and {b:?} overlap"),
            TopTreeError::PrunedNotShared { key } => write!(f, "{key:?} is pruned but not shared"),
        }
    }
}

impl std::error::Error for TopTreeError {}

/// Extract this rank's branch cells, as every rank will first hold them:
/// the coarsest cells (by key range) fully inside the rank's interval, in
/// ascending key-range (depth-first) order.
///
/// Works on key *ranges* over the sorted particle array rather than on the
/// built cells, because a local leaf may straddle an interval boundary: the
/// leaf then splits into "virtual" branch cells that exist in key space but
/// not in the local cell store, summarised from their particles. A resident
/// cell ships its own summary. The resulting branch set is an antichain
/// that tiles the occupied key space — the invariant the top tree needs.
fn branch_nodes<M: Moments>(local: &Tree<M>, intervals: &KeyIntervals, rank: u32) -> Vec<DNode<M>> {
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
                    DNode::remote(c.summary, rank, c.is_leaf())
                }
                None => {
                    let (pos, charge) = (&local.pos[span.clone()], &local.charge[span]);
                    DNode::remote(Summary::of_particles(key, pos, charge, &local.domain), rank, true)
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
    use crate::decomp::{decompose, Body};
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
            assert_eq!(dt.validate(), Ok(()));
            DistInfo {
                global_n: dt.global_n(),
                root_mass: dt.nodes[dt.root as usize].moments.mass,
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

    fn check_branch_antichain<M: Moments>(dt: &DistTree<M>) -> bool {
        // Collect the branch keys (nodes that are LocalSubtree / Remote*).
        let branch_keys: Vec<Key> = dt
            .nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.children,
                    DChildren::LocalSubtree | DChildren::RemoteLeaf | DChildren::RemoteUnfetched
                )
            })
            .map(|n| n.key)
            .collect();
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
                    ((dt.validate(), dt.global_n(), dt.nodes.len()), mine.is_empty())
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
                let same = |n: &&DNode<MassMoments>| {
                    serial.cell_by_key(n.key).is_some_and(|s| s.summary.same_bits(&n.summary))
                };
                let differ: Vec<Key> = dt.nodes.iter().filter(|n| !same(n)).map(|n| n.key).collect();
                (differ, dt.nodes.iter().filter(|n| n.owner == SHARED).count())
            });
            for (rank, (differ, shared)) in out.results.iter().enumerate() {
                assert!(differ.is_empty(), "np={np} rank={rank}: {differ:?} differ from the serial tree");
                assert!(*shared >= cuts.len(), "np={np}: {shared} shared nodes");
            }
        }
    }

    /// A kept shared node must have all its children or be pruned, and
    /// only a shared node may be pruned: the validator names each breach
    /// with its own error.
    #[test]
    fn validate_learns_the_pruned_canopy() {
        let out = RunConfig::builder().np(4).run(|c| {
            let (mine, iv) = decompose(c, sweep_bodies("uniform", c.rank(), 4), 16);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let local = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
            let mut dt = DistTree::build(c, local, iv);
            let root = dt.root as usize;
            let branch = dt.nodes.iter().position(|n| n.owner != SHARED).expect("a branch");
            let DChildren::Nodes(kids) = dt.nodes[root].children else { panic!("a bare root") };
            let check = |dt: &mut DistTree<MassMoments>, i: usize, mark: DChildren| {
                let was = std::mem::replace(&mut dt.nodes[i].children, mark);
                let got = dt.validate();
                dt.nodes[i].children = was;
                got
            };
            let short = DChildren::Nodes(kids[1..].iter().copied().collect());
            let misplaced = TopTreeError::PrunedNotShared { key: dt.nodes[branch].key };
            let partial = TopTreeError::NotSummaryOfChildren { key: Key::ROOT };
            [
                (check(&mut dt, root, DChildren::Pruned), Ok(())),
                (check(&mut dt, branch, DChildren::Pruned), Err(misplaced)),
                (check(&mut dt, root, short), Err(partial)),
                (dt.validate(), Ok(())),
            ]
        });
        for (rank, checks) in out.results.iter().enumerate() {
            for (i, (got, want)) in checks.iter().enumerate() {
                assert_eq!(got, want, "rank {rank}, check {i}");
            }
        }
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
            assert_eq!((back.summary, back.owner, back.children), (summary, 2, node.children));
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

    #[test]
    fn serving_children_and_bodies() {
        let out = RunConfig::builder().np(2).run(|c| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(c.rank() as u64);
            let bodies: Vec<Body<f64>> = (0..300)
                .map(|i| {
                    let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                    Body {
                        key: Key::from_point(pos, &Aabb::unit()),
                        pos,
                        charge: 1.0,
                        work: 1.0,
                        id: i,
                    }
                })
                .collect();
            let (mine, iv) = decompose(c, bodies, 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
            let dt = DistTree::build(c, tree, iv);
            // Every local cell can be served.
            let root_children = dt.children_nodes(Key::ROOT).expect("root is local");
            let n_from_children: u64 = root_children.iter().map(|r| r.n).sum();
            assert_eq!(n_from_children, dt.local.n_particles() as u64);
            // Bodies of the first leaf.
            let leaf = dt.local.cells.iter().find(|c| c.is_leaf() && c.n > 0).expect("a leaf");
            let (bp, bq) = dt.bodies_of(leaf.key).expect("leaf resident");
            assert_eq!(bp.len(), leaf.n as usize);
            assert_eq!(bq.len(), leaf.n as usize);
            // Exercise the deep-key lookup path; the key may or may not be
            // resident, so only the call itself is under test.
            let _ = dt.children_nodes(Key::ROOT.child(0).child(0).child(0).child(0));
            1u8
        });
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn install_children_links_nodes() {
        // Single-rank scenario faking a remote install.
        let out = RunConfig::builder().np(1).run(|c| {
            let pos: Vec<Vec3> = (0..50)
                .map(|i| Vec3::new((i as f64 + 0.5) / 50.0, 0.5, 0.5))
                .collect();
            let q = vec![1.0; 50];
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
            let (_, iv) = decompose::<f64>(c, Vec::new(), 8);
            let mut dt = DistTree::build(c, tree, iv);
            // Fabricate a remote node and install children beneath it.
            let fake_key = Key::ROOT.child(7).child(7).child(7);
            let fake = Summary {
                key: fake_key,
                n: 5,
                center: Vec3::splat(0.9),
                bmax: 0.01,
                wsum: 5.0,
                moments: MassMoments { mass: 5.0, ..Default::default() },
            };
            let parent_idx = dt.push_node(DNode::remote(fake, 0, false));
            let kid = DNode::remote(Summary { key: fake_key.child(1), ..fake }, 0, true);
            dt.install_children(fake_key, vec![kid.clone()]);
            let DChildren::Nodes(idxs) = dt.nodes[parent_idx as usize].children.clone() else {
                panic!("install left the parent unlinked");
            };
            assert_eq!(idxs.len(), 1);
            assert_eq!(dt.nodes[idxs[0] as usize].key, fake_key.child(1));
            // Second install is a no-op.
            let before = dt.nodes.len();
            dt.install_children(fake_key, vec![kid]);
            assert_eq!(dt.nodes.len(), before);
            true
        });
        assert!(out.results[0]);
    }

    /// The count's spare byte values tag `DChildren`'s other variants, so
    /// a node's children cost the eight indices and one byte, padded.
    #[test]
    fn children_need_no_tag() {
        assert_eq!(std::mem::size_of::<DChildren>(), 36);
    }

    #[test]
    #[should_panic(expected = "an octree cell has at most 8")]
    fn install_children_rejects_more_than_eight() {
        RunConfig::builder().np(1).run(|c| {
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &[Vec3::splat(0.5)], &[1.0], 4);
            let (_, iv) = decompose::<f64>(c, Vec::new(), 8);
            let mut dt = DistTree::build(c, tree, iv);
            let one = Summary::<MassMoments>::of_particles(Key::ROOT.child(0), &[], &[], &Aabb::unit());
            dt.install_children(Key::ROOT, vec![DNode::remote(one, 0, true); 9]);
        });
    }
}
