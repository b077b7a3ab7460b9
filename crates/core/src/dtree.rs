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
//!   carries the total system mass).
//! * The top tree is an octree: **one node per key**. Every rank lists its
//!   branches depth-first and the intervals ascend with rank, so the
//!   gathered records arrive in ascending key-range order. One depth-first
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
use crate::tree::Tree;
use crate::wirevec::{get_vec3, put_vec3};
use crate::KeyTable;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hot_base::Vec3;
use hot_comm::{Comm, Wire};
use hot_morton::Key;

/// Wire record describing one tree cell (branch exchange and child fetch).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellRecord<M> {
    /// Cell key.
    pub key: Key,
    /// Owning rank.
    pub owner: u32,
    /// Particles contained.
    pub n: u64,
    /// Expansion center.
    pub center: Vec3,
    /// Matter radius bound.
    pub bmax: f64,
    /// Total absolute charge (centroid weight).
    pub wsum: f64,
    /// Multipole expansion.
    pub moments: M,
    /// True when the cell has no children.
    pub is_leaf: bool,
}

impl<M: Wire + Copy> Wire for CellRecord<M> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.key.0);
        buf.put_u32_le(self.owner);
        buf.put_u64_le(self.n);
        put_vec3(buf, self.center);
        buf.put_f64_le(self.bmax);
        buf.put_f64_le(self.wsum);
        self.moments.encode(buf);
        buf.put_u8(self.is_leaf as u8);
    }
    fn decode(buf: &mut Bytes) -> Self {
        let key = Key(buf.get_u64_le());
        let owner = buf.get_u32_le();
        let n = buf.get_u64_le();
        let center = get_vec3(buf);
        let bmax = buf.get_f64_le();
        let wsum = buf.get_f64_le();
        let moments = M::decode(buf);
        let is_leaf = buf.get_u8() != 0;
        CellRecord { key, owner, n, center, bmax, wsum, moments, is_leaf }
    }
    fn wire_size(&self) -> usize {
        8 + 4 + 8 + 24 + 8 + 8 + self.moments.wire_size() + 1
    }
}

/// How a distributed node's children are reached.
#[derive(Clone, Debug, PartialEq)]
pub enum DChildren {
    /// Fully-resolved children, indices into `DistTree::nodes`.
    Nodes(Vec<u32>),
    /// This is one of *my* branches: descend via the local tree.
    LocalSubtree,
    /// Remote internal cell whose children have not been fetched yet.
    RemoteUnfetched,
    /// Remote leaf cell: no children; its bodies can be fetched.
    RemoteLeaf,
}

/// One node of the global tree view.
#[derive(Clone, Debug)]
pub struct DNode<M> {
    /// Cell key.
    pub key: Key,
    /// Owning rank (`u32::MAX` for shared top-tree nodes).
    pub owner: u32,
    /// Particles contained.
    pub n: u64,
    /// Expansion center.
    pub center: Vec3,
    /// Matter radius bound.
    pub bmax: f64,
    /// Centroid weight.
    pub wsum: f64,
    /// Multipole expansion.
    pub moments: M,
    /// Child linkage.
    pub children: DChildren,
}

/// Owner tag for shared top-tree nodes.
pub const SHARED: u32 = u32::MAX;

/// Previous step's branch exchange, kept between steps so
/// [`DistTree::build_cached_traced`] can skip the allgather on
/// inactive-majority steps (nothing crossed a branch boundary anywhere).
#[derive(Clone, Debug)]
pub struct BranchCache<M> {
    /// This rank's branch records from the last exchange.
    pub mine: Vec<CellRecord<M>>,
    /// The full gathered record set from the last exchange, depth-first.
    pub records: Vec<CellRecord<M>>,
    /// Intervals the cached records were extracted under.
    pub intervals: Option<KeyIntervals>,
}

impl<M> Default for BranchCache<M> {
    fn default() -> Self {
        BranchCache { mine: Vec::new(), records: Vec::new(), intervals: None }
    }
}

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
    /// intervals from [`crate::decomp::decompose`].
    pub fn build(comm: &mut Comm, local: Tree<M>, intervals: KeyIntervals) -> Self {
        let rank = comm.rank();
        let my_branches = branch_records(&local, &intervals, rank);
        let records = gather_branches(comm, my_branches);
        Self::assemble(rank, local, intervals, &records)
    }

    /// [`DistTree::build`] with the previous step's branch exchange cached:
    /// when *every* rank's branch records (and the intervals) are unchanged
    /// — decided by a cheap `allreduce` — the branch allgather is skipped
    /// and the top tree is re-assembled from the cached records. The
    /// resulting node set is bitwise identical either way (assembly is a
    /// pure function of the sorted record set); only the traffic pattern
    /// differs, which is why the adaptive decomposition policy opts in and
    /// `Static` never takes this path.
    ///
    /// Returns the tree plus whether the allgather was skipped.
    pub fn build_cached_traced(
        comm: &mut Comm,
        local: Tree<M>,
        intervals: KeyIntervals,
        cache: &mut BranchCache<M>,
        trace: &mut hot_trace::Ledger,
    ) -> (Self, bool)
    where
        M: PartialEq,
    {
        let wire_before = comm.stats();
        let rank = comm.rank();
        let my_branches = branch_records(&local, &intervals, rank);
        let unchanged = cache.intervals.as_ref() == Some(&intervals)
            && my_branches == cache.mine;
        let np = comm.size() as u64;
        let all_unchanged = comm.allreduce_sum_u64(u64::from(unchanged)) == np;
        let dt = if all_unchanged {
            Self::assemble(rank, local, intervals, &cache.records)
        } else {
            let records = gather_branches(comm, my_branches.clone());
            let dt = Self::assemble(rank, local, intervals, &records);
            cache.mine = my_branches;
            cache.records = records;
            cache.intervals = Some(dt.intervals.clone());
            dt
        };
        trace.add(hot_trace::Counter::CellsBuilt, dt.nodes.len() as u64);
        trace.add_traffic(&comm.stats().since(&wire_before));
        (dt, all_unchanged)
    }

    /// Build the top tree from an already-gathered record set in
    /// depth-first order. Pure local computation — every rank holding the
    /// same records builds the same nodes.
    fn assemble(
        rank: u32,
        local: Tree<M>,
        intervals: KeyIntervals,
        records: &[CellRecord<M>],
    ) -> Self {
        let mut dt = DistTree {
            rank,
            local,
            intervals,
            nodes: Vec::new(),
            table: KeyTable::with_capacity(records.len() * 3 + 16),
            root: 0,
            body_cache: std::collections::HashMap::new(),
        };

        if records.is_empty() {
            // Empty universe: a lone empty root.
            dt.root = dt.push_node(DNode {
                key: Key::ROOT,
                owner: SHARED,
                n: 0,
                center: dt.local.domain.center(),
                bmax: 0.0,
                wsum: 0.0,
                moments: M::default(),
                children: DChildren::Nodes(Vec::new()),
            });
            return dt;
        }

        // Insert branch nodes: record i is node i.
        for r in records {
            let children = if r.owner == rank {
                DChildren::LocalSubtree
            } else if r.is_leaf {
                DChildren::RemoteLeaf
            } else {
                DChildren::RemoteUnfetched
            };
            dt.push_node(DNode {
                key: r.key,
                owner: r.owner,
                n: r.n,
                center: r.center,
                bmax: r.bmax,
                wsum: r.wsum,
                moments: r.moments,
                children,
            });
        }
        dt.root = dt.top_node(Key::ROOT, 0, records);
        dt
    }

    /// The node for `key`, whose key range holds exactly `records` (the
    /// branches from node `first` on): the branch itself when it is `key`,
    /// else a shared node over the child octants that hold records, built
    /// depth-first in Morton order. Recursion depth is at most
    /// [`hot_morton::MAX_DEPTH`].
    fn top_node(&mut self, key: Key, first: usize, records: &[CellRecord<M>]) -> u32 {
        if let [only] = records {
            if only.key == key {
                return first as u32;
            }
        }
        let level = key.level() + 1;
        let mut kids = Vec::new();
        let mut i = 0;
        while i < records.len() {
            let child = records[i].key.ancestor_at(level);
            let j = i + records[i..].partition_point(|r| r.key.ancestor_at(level) == child);
            kids.push(self.top_node(child, first + i, &records[i..j]));
            i = j;
        }
        self.make_parent(key, kids)
    }

    fn push_node(&mut self, node: DNode<M>) -> u32 {
        let idx = self.nodes.len() as u32;
        self.table.insert(node.key, idx);
        self.nodes.push(node);
        idx
    }

    fn make_parent(&mut self, key: Key, kids: Vec<u32>) -> u32 {
        let geom = key.cell_aabb(&self.local.domain);
        let mut wsum = 0.0;
        let mut centroid = Vec3::ZERO;
        let mut n = 0u64;
        for &k in &kids {
            let c = &self.nodes[k as usize];
            wsum += c.wsum;
            centroid += c.center * c.wsum;
            n += c.n;
        }
        let center = if wsum > 0.0 { centroid / wsum } else { geom.center() };
        let mut moments = M::default();
        let mut bmax = 0.0f64;
        for &k in &kids {
            let (cm, cc, cb) = {
                let c = &self.nodes[k as usize];
                (c.moments, c.center, c.bmax)
            };
            moments.accumulate_shifted(&cm, cc, center);
            bmax = bmax.max((cc - center).norm() + cb);
        }
        let corner = {
            let dmin = (center - geom.min).abs();
            let dmax = (geom.max - center).abs();
            dmin.max(dmax).norm()
        };
        self.push_node(DNode {
            key,
            owner: SHARED,
            n,
            center,
            bmax: bmax.min(corner),
            wsum,
            moments,
            children: DChildren::Nodes(kids),
        })
    }

    /// Child records of one of *my* local cells, for serving a remote
    /// rank's fetch request. Returns `None` when the key is not resident
    /// locally (a protocol error by the requester).
    pub fn children_records(&self, key: Key) -> Option<Vec<CellRecord<M>>> {
        let ci = self.local.table.get(key)?;
        let cell = &self.local.cells[ci as usize];
        let mut out = Vec::with_capacity(cell.nchild as usize);
        for k in self.local.children(cell) {
            let ch = &self.local.cells[k];
            out.push(CellRecord {
                key: ch.key,
                owner: self.rank,
                n: ch.n as u64,
                center: ch.center,
                bmax: ch.bmax,
                wsum: ch.wsum,
                moments: ch.moments,
                is_leaf: ch.is_leaf(),
            });
        }
        Some(out)
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
    /// earlier reply already installed them).
    pub fn install_children(&mut self, parent_key: Key, records: &[CellRecord<M>]) {
        let pidx = self
            .table
            .get(parent_key)
            // Protocol invariant: replies only arrive for requested parents.
            // hot-lint: allow(unwrap-audit)
            .expect("install_children: unknown parent") as usize;
        if let DChildren::Nodes(_) = self.nodes[pidx].children {
            return;
        }
        let idxs = records
            .iter()
            .map(|r| {
                let children =
                    if r.is_leaf { DChildren::RemoteLeaf } else { DChildren::RemoteUnfetched };
                self.push_node(DNode {
                    key: r.key,
                    owner: r.owner,
                    n: r.n,
                    center: r.center,
                    bmax: r.bmax,
                    wsum: r.wsum,
                    moments: r.moments,
                    children,
                })
            })
            .collect();
        self.nodes[pidx].children = DChildren::Nodes(idxs);
    }

    /// Total particles visible from the global root.
    pub fn global_n(&self) -> u64 {
        self.nodes[self.root as usize].n
    }

    /// Check the top tree is an octree over a tiling of branches: one node
    /// per key, each found by the table; every shared node's children are
    /// distinct child octants of it in ascending order, and its `n` and
    /// `wsum` are their sums (its mass to rounding); the branches below the
    /// shared nodes are disjoint and hold `global_n()` particles. Remote
    /// cells installed by a walk below a branch are checked for key
    /// uniqueness only.
    pub fn validate(&self) -> Result<(), TopTreeError> {
        for (i, node) in self.nodes.iter().enumerate() {
            match self.table.get(node.key) {
                Some(j) if j as usize == i => {}
                Some(j) if self.nodes[j as usize].key == node.key => {
                    return Err(TopTreeError::DuplicateKey { key: node.key })
                }
                _ => return Err(TopTreeError::NotInTable { key: node.key }),
            }
        }
        let mut branches = Vec::new();
        let mut stack = vec![self.root];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni as usize];
            if node.owner != SHARED {
                branches.push((node.key, node.n));
                continue;
            }
            let kids: &[u32] = match &node.children {
                DChildren::Nodes(kids) => kids,
                _ => &[],
            };
            let (mut n, mut wsum, mut mass, mut scale) = (0u64, 0.0, 0.0, 0.0f64);
            let mut prev: Option<Key> = None;
            for &k in kids {
                let c = &self.nodes[k as usize];
                let octant = c.key.level() == node.key.level() + 1 && c.key.parent() == node.key;
                if !octant || prev.is_some_and(|p| p >= c.key) {
                    return Err(TopTreeError::MisplacedChild { parent: node.key, child: c.key });
                }
                prev = Some(c.key);
                n += c.n;
                wsum += c.wsum;
                mass += c.moments.total_weight();
                scale += c.moments.total_weight().abs();
            }
            let m = node.moments.total_weight();
            if n != node.n {
                return Err(TopTreeError::NotSumOfChildren { key: node.key, field: "n" });
            }
            if wsum.to_bits() != node.wsum.to_bits() {
                return Err(TopTreeError::NotSumOfChildren { key: node.key, field: "wsum" });
            }
            if (m - mass).abs() > 1e-12 * scale {
                return Err(TopTreeError::NotSumOfChildren { key: node.key, field: "mass" });
            }
            stack.extend_from_slice(kids);
        }
        branches.sort_unstable_by_key(|&(k, _)| k.range_begin());
        if let Some(w) = branches.windows(2).find(|w| w[0].0.range_last() >= w[1].0.range_begin()) {
            return Err(TopTreeError::BranchesOverlap { a: w[0].0, b: w[1].0 });
        }
        let n: u64 = branches.iter().map(|&(_, n)| n).sum();
        if n != self.global_n() {
            return Err(TopTreeError::BranchCount { branches: n, global: self.global_n() });
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
    /// A shared node's `n`, `wsum` or mass is not the sum over its
    /// children.
    NotSumOfChildren {
        /// The shared node.
        key: Key,
        /// `"n"`, `"wsum"` or `"mass"`.
        field: &'static str,
    },
    /// Two branches under the top tree share key range.
    BranchesOverlap {
        /// The branch starting first.
        a: Key,
        /// The branch it overlaps.
        b: Key,
    },
    /// The branches' particle counts do not add up to the root's.
    BranchCount {
        /// Sum over branches.
        branches: u64,
        /// `DistTree::global_n`.
        global: u64,
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
            TopTreeError::NotSumOfChildren { key, field } => {
                write!(f, "{key:?}: {field} is not the sum over its children")
            }
            TopTreeError::BranchesOverlap { a, b } => write!(f, "branches {a:?} and {b:?} overlap"),
            TopTreeError::BranchCount { branches, global } => {
                write!(f, "branches hold {branches} particles, the root {global}")
            }
        }
    }
}

impl std::error::Error for TopTreeError {}

/// Allgather every rank's branch records. Each rank's list is in
/// depth-first order inside its own key interval and the intervals ascend
/// with rank, so the concatenation is the whole branch set depth-first —
/// no sort.
fn gather_branches<M: Moments>(comm: &mut Comm, mine: Vec<CellRecord<M>>) -> Vec<CellRecord<M>> {
    let records: Vec<CellRecord<M>> = comm.allgather(mine).into_iter().flatten().collect();
    debug_assert!(
        records.windows(2).all(|w| w[0].key.range_last() < w[1].key.range_begin()),
        "branch records must be disjoint and in depth-first order"
    );
    records
}

/// Extract this rank's branch cells: the coarsest cells (by key range)
/// fully inside the rank's interval, in ascending key-range (depth-first)
/// order.
///
/// Works on key *ranges* over the sorted particle array rather than on the
/// built cells, because a local leaf may straddle an interval boundary: the
/// leaf then splits into "virtual" branch cells that exist in key space but
/// not in the local cell store. The resulting branch set is an antichain
/// that tiles the occupied key space — the invariant the top tree needs.
fn branch_records<M: Moments>(
    local: &Tree<M>,
    intervals: &KeyIntervals,
    rank: u32,
) -> Vec<CellRecord<M>> {
    let mut out = Vec::new();
    if local.n_particles() == 0 {
        return out;
    }
    let (lo, hi) = intervals.interval(rank);
    let last_rank = rank as usize == intervals.np() - 1;
    // (key, span) work stack over the sorted key array.
    let mut stack: Vec<(Key, usize, usize)> = vec![(Key::ROOT, 0, local.n_particles())];
    while let Some((key, i0, i1)) = stack.pop() {
        if i0 == i1 {
            continue;
        }
        let begin = key.range_begin().0;
        let last = key.range_last().0;
        let inside = begin >= lo && (last < hi || (last_rank && last <= hi));
        if inside {
            out.push(record_for_span(local, key, i0, i1, rank));
            continue;
        }
        debug_assert!(
            key.level() < hot_morton::MAX_DEPTH,
            "a max-depth cell is a single key and is owned whole"
        );
        // Split by the next digit (binary search within the span), and
        // push the children 7..0 so they pop in key order.
        let mut kids = [(Key::ROOT, 0, 0); 8];
        let mut lo_i = i0;
        for (d, kid) in (0..8u8).zip(&mut kids) {
            let child = key.child(d);
            let child_last = child.range_last();
            let hi_i = lo_i
                + local.keys[lo_i..i1].partition_point(|&k| k <= child_last);
            *kid = (child, lo_i, hi_i);
            lo_i = hi_i;
        }
        debug_assert_eq!(lo_i, i1);
        stack.extend(kids.into_iter().rev().filter(|&(_, a, b)| b > a));
    }
    out
}

/// Build a cell record for a key + particle span, preferring the resident
/// cell when one exists and synthesizing moments from particles otherwise
/// (the "virtual branch" case).
fn record_for_span<M: Moments>(
    local: &Tree<M>,
    key: Key,
    i0: usize,
    i1: usize,
    rank: u32,
) -> CellRecord<M> {
    if let Some(ci) = local.table.get(key) {
        let c = &local.cells[ci as usize];
        debug_assert_eq!(c.span(), i0..i1);
        return CellRecord {
            key,
            owner: rank,
            n: c.n as u64,
            center: c.center,
            bmax: c.bmax,
            wsum: c.wsum,
            moments: c.moments,
            is_leaf: c.is_leaf(),
        };
    }
    // Virtual cell: compute expansion directly from the span.
    let mut wsum = 0.0;
    let mut centroid = Vec3::ZERO;
    for i in i0..i1 {
        let w = M::weight(&local.charge[i]);
        wsum += w;
        centroid += local.pos[i] * w;
    }
    let center = if wsum > 0.0 { centroid / wsum } else { key.cell_center(&local.domain) };
    let mut moments = M::default();
    let mut bmax2 = 0.0f64;
    for i in i0..i1 {
        let one = M::from_particle(local.pos[i], &local.charge[i], center);
        moments.accumulate_shifted(&one, center, center);
        bmax2 = bmax2.max((local.pos[i] - center).norm2());
    }
    CellRecord {
        key,
        owner: rank,
        n: (i1 - i0) as u64,
        center,
        bmax: bmax2.sqrt(),
        wsum,
        moments,
        is_leaf: true,
    }
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
            tree.validate();
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
                    let tree = || Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
                    let built = DistTree::build(c, tree(), iv.clone());
                    let mut cache = BranchCache::default();
                    let mut trace = hot_trace::Ledger::scratch();
                    let mut cached = || {
                        DistTree::build_cached_traced(c, tree(), iv.clone(), &mut cache, &mut trace)
                    };
                    let (cold, _) = cached();
                    let (warm, skipped) = cached();
                    assert!(skipped, "unchanged branches skip the exchange");
                    let check = |dt: &DistTree<_>| (dt.validate(), dt.global_n(), dt.nodes.len());
                    ([check(&built), check(&cold), check(&warm)], mine.is_empty())
                });
                let n_total: u64 = match input {
                    "sparse" => u64::from(np / 2),
                    _ => u64::from(np) * 48,
                };
                let nodes = out.results[0].0[0].2;
                let empty = out.results.iter().filter(|r| r.1).count();
                for (rank, (builds, _)) in out.results.iter().enumerate() {
                    for (what, (ok, global_n, len)) in ["build", "cold", "warm"].iter().zip(builds) {
                        let tag = format!("np={np} {input} rank={rank} {what}");
                        assert_eq!(*ok, Ok(()), "{tag}");
                        assert_eq!(*global_n, n_total, "{tag}");
                        assert_eq!(*len, nodes, "{tag}: every rank builds the same top tree");
                    }
                }
                if input == "sparse" && np > 1 {
                    assert!(empty > 0, "np={np}: the sparse input must leave a rank empty");
                }
            }
        }
    }

    #[test]
    fn cached_build_skips_allgather_when_unchanged() {
        let out = RunConfig::builder().np(3).run(|c| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(41 + c.rank() as u64);
            let bodies: Vec<Body<f64>> = (0..250)
                .map(|i| {
                    let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                    Body {
                        key: Key::from_point(pos, &Aabb::unit()),
                        pos,
                        charge: 1.0,
                        work: 1.0,
                        id: c.rank() as u64 * 1_000_000 + i,
                    }
                })
                .collect();
            let (mine, iv) = decompose(c, bodies, 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let build_tree = || Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);

            let mut cache = BranchCache::default();
            let mut trace = hot_trace::Ledger::scratch();
            let (dt1, skipped1) = DistTree::build_cached_traced(
                c,
                build_tree(),
                iv.clone(),
                &mut cache,
                &mut trace,
            );
            assert!(!skipped1, "cold cache must allgather");
            let sent_after_first = c.stats().bytes_sent;
            let (dt2, skipped2) = DistTree::build_cached_traced(
                c,
                build_tree(),
                iv.clone(),
                &mut cache,
                &mut trace,
            );
            assert!(skipped2, "unchanged branches must skip the allgather");
            let sent_after_second = c.stats().bytes_sent;
            // Node sets must be identical across the two paths.
            assert_eq!(dt1.nodes.len(), dt2.nodes.len());
            for (a, b) in dt1.nodes.iter().zip(&dt2.nodes) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.owner, b.owner);
                assert_eq!(a.n, b.n);
                assert_eq!(a.wsum.to_bits(), b.wsum.to_bits());
                assert_eq!(a.moments.mass.to_bits(), b.moments.mass.to_bits());
            }
            // A reference build for traffic comparison: the cached rebuild
            // must move less data than a full exchange.
            let full = DistTree::build(c, build_tree(), iv.clone());
            let sent_after_full = c.stats().bytes_sent;
            assert_eq!(full.nodes.len(), dt2.nodes.len());
            let cached_bytes = sent_after_second - sent_after_first;
            let full_bytes = sent_after_full - sent_after_second;
            assert!(
                cached_bytes < full_bytes,
                "cached rebuild must be cheaper: {cached_bytes} vs {full_bytes}"
            );
            1u8
        });
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn record_wire_roundtrip() {
        let rec = CellRecord::<MassMoments> {
            key: Key::ROOT.child(3).child(5),
            owner: 2,
            n: 17,
            center: Vec3::new(0.1, 0.2, 0.3),
            bmax: 0.05,
            wsum: 17.0,
            moments: MassMoments { mass: 17.0, quad: hot_base::SymMat3::IDENTITY, b2: 3.0 },
            is_leaf: true,
        };
        let back: CellRecord<MassMoments> = hot_comm::from_bytes(hot_comm::to_bytes(&rec));
        assert_eq!(back, rec);
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
            let root_children = dt.children_records(Key::ROOT).expect("root is local");
            let n_from_children: u64 = root_children.iter().map(|r| r.n).sum();
            assert_eq!(n_from_children, dt.local.n_particles() as u64);
            // Bodies of the first leaf.
            let leaf = dt.local.cells.iter().find(|c| c.is_leaf() && c.n > 0).expect("a leaf");
            let (bp, bq) = dt.bodies_of(leaf.key).expect("leaf resident");
            assert_eq!(bp.len(), leaf.n as usize);
            assert_eq!(bq.len(), leaf.n as usize);
            // Exercise the deep-key lookup path; the key may or may not be
            // resident, so only the call itself is under test.
            let _ = dt.children_records(Key::ROOT.child(0).child(0).child(0).child(0));
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
            let fake = CellRecord {
                key: fake_key,
                owner: 0,
                n: 5,
                center: Vec3::splat(0.9),
                bmax: 0.01,
                wsum: 5.0,
                moments: MassMoments { mass: 5.0, ..Default::default() },
                is_leaf: false,
            };
            let parent_idx = dt.push_node(DNode {
                key: fake.key,
                owner: 0,
                n: 5,
                center: fake.center,
                bmax: fake.bmax,
                wsum: 5.0,
                moments: fake.moments,
                children: DChildren::RemoteUnfetched,
            });
            let kid = CellRecord { key: fake_key.child(1), is_leaf: true, n: 5, ..fake };
            dt.install_children(fake_key, &[kid]);
            let DChildren::Nodes(idxs) = dt.nodes[parent_idx as usize].children.clone() else {
                panic!("install left the parent unlinked");
            };
            assert_eq!(idxs.len(), 1);
            assert_eq!(dt.nodes[idxs[0] as usize].key, fake_key.child(1));
            // Second install is a no-op.
            let before = dt.nodes.len();
            dt.install_children(fake_key, &[kid]);
            assert_eq!(dt.nodes.len(), before);
            true
        });
        assert!(out.results[0]);
    }
}
