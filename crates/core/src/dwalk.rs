//! Distributed tree traversal with latency hiding.
//!
//! The paper: *"An efficient mechanism for latency hiding in the tree
//! traversal phase of the algorithm is critical. To avoid stalls during
//! non-local data access, we effectively do explicit 'context switching'."*
//!
//! The rank walks its one tree ([`DistTree`]: local cells, the canopy
//! grafted after them, and what it fetches after that) with the library's
//! one walk ([`crate::walk`]), in two stages per sink group. *Resolve* is
//! the walk that writes no list: it MAC-tests the nodes the group's
//! traversal reaches and collects **every** remote node it must open but
//! cannot yet — not just the first — and never descends a subtree whose
//! bodies are all resident. Opening a remote node is one operation: its
//! owner serves what lies below the key, the children of an internal cell
//! or the bodies of a leaf, and the rank appends them to its tree. A group
//! with anything missing is *parked* and the rank switches to another
//! group instead of stalling; a group with nothing missing *emits*: the
//! walk that writes the group's [`InteractionList`](crate::ilist::InteractionList)
//! ([`crate::walk::walk_group_list`]), one uninterrupted depth-first
//! traversal from the global root, where the rank's tree starts its walks.
//! Below the rank's own branches it walks the local cells exactly as the
//! serial walk does. The pipeline then hides the network latency two ways:
//!
//! * **Request coalescing** — the wants of all parked groups are gathered
//!   per *round* and every distinct key wanted from one owner goes out in a
//!   single request message, its keys in ascending order; the owner answers
//!   every key in one reply kind, whatever lies below it, batched the same
//!   way. Since a group asks for its whole missing frontier at once, a
//!   round fetches one level of every remote subtree being descended, and
//!   rounds number the remote trees' depth below the branch level — not the
//!   count of remote cells opened. Rounds are the rank's own: its parked
//!   groups resume once a reply entry has answered every key it asked for,
//!   so the per-round request sets — and therefore every logical message
//!   and byte count — are a pure function of the walk, independent of
//!   message schedules. Each key is fetched exactly once, and only because
//!   some group's walk needs it.
//! * **Resolve → post → compute the ready batch → serve** — a round first
//!   only *resolves* groups; those with nothing missing (all of round 0
//!   for a wholly local closure) form the round's *ready batch*. The
//!   round's requests are posted and flushed, so they travel while the
//!   rank computes the batch — each group emitted, its interaction counts
//!   pinned, and its list handed to the rank's [`ListConsumer`] — and only
//!   then serves and absorbs messages. The batch runs through the one
//!   group loop, [`crate::walk::walk_apply`], as `ForceCalc` runs a whole
//!   tree: in tree order, on the rank's share of the hardware threads
//!   ([`Comm::compute_threads`]), each thread with a list that lives for
//!   the batch only. Compute threads touch no channel and are joined
//!   before the rank serves. Sink groups are disjoint and each group's
//!   list is its own, so accelerations stay bitwise identical under any
//!   thread count.
//!
//! Emit never starts before everything it will touch is resident, so each
//! group's list is written in the one canonical depth-first order no matter
//! which rounds its data arrived in, and forces are bitwise identical
//! under any ABM batch capacity and thread count. The per-key blocking
//! walk and the one-key-per-group-per-round walk this pipeline replaced are
//! frozen as rows L1 and L2 of EXPERIMENTS.md; the overlapped apply that
//! computed one finished list per poll-idle window before the ready batch
//! replaced it is row D1. A rank waiting for replies serves its peers
//! ([`Abm::wait_once`]); once its walk is done it serves on in ABM's one
//! termination step ([`Abm::complete`]).
//!
//! Before any of this the walk cuts the rank's canopy to its reach: every
//! shared node the MAC accepts against one sphere holding all the rank's
//! sink groups is accepted by each group, so its subtree is dropped
//! (`DistTree::prune`) and a group that opened it would panic. The lists
//! are those of the whole canopy, bit for bit; only the memory changes
//! (DESIGN.md, "The reach of a rank's walk").

use crate::dtree::{DistTree, Reply};
use crate::ilist::ListConsumer;
use crate::mac::Mac;
use crate::moments::Moments;
use crate::tree::{Below, Cell, Tree};
use crate::walk::{walk, walk_apply, workers_for, Visit, WalkStats};
use bytes::Bytes;
use hot_base::Vec3;
use hot_comm::{from_bytes, Abm, Comm, Wire};
use hot_morton::Key;
use std::collections::{BTreeMap, BTreeSet};

// Message kinds on the ABM channel. Kinds 1–4 belonged to the retired
// per-key protocol and 7 to the retired separate body reply; they stay
// unassigned.

/// One request per (requester, owner) pair per round: the keys to open,
/// ascending.
const K_REQUEST: u16 = 5;
/// Replies: `Vec<(key, what lies below it)>`.
const K_REPLY: u16 = 6;

/// ABM physical batch capacity in bytes (flush threshold), which also
/// bounds the reply chunk size. A round carries a whole tree level per
/// owner, so replies are long: on the Loki wire model 16 KiB costs 30.30 ms
/// for N = 32768 / np = 8 against 29.85 ms at 64 KiB and 32.82 ms at 4 KiB,
/// and 4 KiB ran at a higher peak RSS (EXPERIMENTS.md L2). The capacity
/// changes only when data moves, never what the walk computes.
const ABM_BATCH: usize = 16384;

/// The distributed walk has no settable values: this type carries none.
/// It remains only as the type of `DistOptions::walk`, which callers pass
/// on to [`dwalk_with_traced`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkConfig;

/// One sink group's resolve stage. Once nothing is missing the group joins
/// its round's ready batch, which writes and applies its list in one go.
struct GroupWalk {
    /// Index of the group cell in the local tree.
    gi: u32,
    /// Nodes the resolve stage has reached but not yet MAC-tested.
    untested: Vec<u32>,
    /// Remote nodes that failed the MAC and are not open yet: what the
    /// group is parked on. They open during the round, so the next resolve
    /// goes straight to their children.
    missing: Vec<u32>,
}

/// One round's requests: per owner, the keys to open. The set both
/// deduplicates the keys the round's groups want and orders them for
/// [`request`].
type Wants = BTreeMap<u32, BTreeSet<u64>>;

/// The request to one owner: its wanted keys, ascending. The bytes are
/// therefore a pure function of the *set* of keys, not of the order the
/// groups parked in, which keeps the walk's message traffic bitwise
/// identical across message schedules.
fn request(keys: BTreeSet<u64>) -> Vec<u64> {
    keys.into_iter().collect()
}

/// The sink groups of the rank's walk: the cells of its local tree holding
/// at most `group_size` bodies.
fn sink_groups<M: Moments>(dt: &DistTree<M>, group_size: usize) -> Vec<u32> {
    dt.local.groups(group_size)
}

/// Statistics of one rank's distributed walk.
#[derive(Clone, Debug, Default)]
pub struct DwalkStats {
    /// Interaction counts (paper units), including the list-entry counts.
    pub walk: WalkStats,
    /// Distinct cell-children keys requested.
    pub cell_requests: u64,
    /// Distinct leaf-body keys requested.
    pub body_requests: u64,
    /// Times a group parked (the "context switches"): once per group per
    /// round in which its traversal still reached non-resident data, however
    /// many keys it was missing. A group whose closure is resident never
    /// parks. Schedule-independent, like `rounds`.
    pub parks: u64,
    /// Coalesced multi-key request messages sent (≤ one per owner per
    /// round).
    pub request_msgs: u64,
    /// Request rounds of this rank's walk: rounds that posted at least one
    /// request. A round asks for every key any parked group is missing,
    /// so this is bounded by the depth of the remote trees below the branch
    /// level (plus one for leaf bodies), not by how many remote cells the
    /// walks open.
    pub rounds: u64,
    /// Always 0: the walk installs only what it requested. Kept for
    /// callers that still read it.
    pub prefetched_cells: u64,
    /// Always 0, like `prefetched_cells`.
    pub prefetch_hits: u64,
    /// ABM session counters. `posted`/`delivered`/bytes are logical and
    /// schedule-independent; `batches_sent` is not.
    pub abm: hot_comm::AbmStats,
    /// Global nodes this rank kept when the walk cut its top tree to the
    /// reach of its sink groups, before anything was fetched (see the
    /// module docs). A pure function of the tree, the MAC and the groups.
    pub top_nodes_kept: u64,
    /// Global nodes the same cut dropped.
    pub top_nodes_dropped: u64,
}

/// Run the distributed traversal, recording a `Walk` span into `trace`.
/// Collective: every rank calls with its [`DistTree`] and its own list
/// consumer (the apply stage); returns when the machine-wide exchange is
/// over. `group_size` is the sink-group particle bound (see
/// [`crate::walk::default_group_size`]); `_cfg` carries nothing (see
/// [`WalkConfig`]). Ready batches run on the rank's share of the hardware
/// threads ([`Comm::compute_threads`]).
///
/// The walk first cuts `dt`'s top tree to what its own sink groups can
/// open under `mac` (see the module docs), so a tree serves one walk: a
/// second walk with other groups or another MAC may open a node the first
/// cut pruned, and panics. Build a fresh tree for another walk.
///
/// The walk phase must stay bitwise identical across message schedules, so
/// the span records only *logical* quantities: cells opened, list entries,
/// the number of distinct cell/body keys requested, the request rounds,
/// and the ABM layer's posted/delivered message and byte counts — all pure
/// functions of the walk thanks to the round structure (see the module
/// docs). Raw `TrafficStats` deltas are deliberately **not** folded in
/// here: the number of termination waves — and therefore their messages —
/// depends on arrival interleaving, as do batch counts.
#[allow(clippy::too_many_arguments)]
pub fn dwalk_with_traced<M: Moments, C: ListConsumer<M>>(
    comm: &mut Comm,
    dt: &mut DistTree<M>,
    mac: &Mac,
    consumer: &mut C,
    group_size: usize,
    _cfg: &WalkConfig,
    trace: &mut hot_trace::Ledger,
) -> DwalkStats {
    trace.begin(hot_trace::Phase::Walk);
    let share = comm.compute_threads();
    let workers = |sinks| workers_for(sinks, share);
    let stats = dwalk_pipelined(comm, dt, mac, consumer, group_size, ABM_BATCH, workers);
    stats.walk.record_traversal(trace);
    trace.add(hot_trace::Counter::CellRequests, stats.cell_requests);
    trace.add(hot_trace::Counter::BodyRequests, stats.body_requests);
    trace.add(hot_trace::Counter::WalkRounds, stats.rounds);
    trace.add(hot_trace::Counter::MsgsSent, stats.abm.posted);
    trace.add(hot_trace::Counter::BytesSent, stats.abm.bytes_posted);
    trace.add(hot_trace::Counter::MsgsRecvd, stats.abm.delivered);
    trace.add(hot_trace::Counter::BytesRecvd, stats.abm.bytes_delivered);
    trace.end();
    stats
}

/// The walk of `group_size` sink groups: first the top tree is cut to
/// what the groups can reach ([`reach`], [`DistTree::prune`]), then
/// [`walk_groups`] runs the rounds. Nothing blocks between the tree's
/// build and the cut, so on one executor worker at most one rank holds
/// its whole top tree at a time.
fn dwalk_pipelined<M: Moments, C: ListConsumer<M>>(
    comm: &mut Comm,
    dt: &mut DistTree<M>,
    mac: &Mac,
    consumer: &mut C,
    group_size: usize,
    abm_batch: usize,
    workers: impl Fn(usize) -> usize,
) -> DwalkStats {
    let groups = sink_groups(dt, group_size);
    let sphere = reach(&dt.local, &groups);
    let (kept, dropped) = dt.prune(|s| sphere.is_some_and(|(c, r)| !mac.accepts(s, c, r)));
    let mut stats = walk_groups(comm, dt, mac, consumer, groups, abm_batch, workers);
    (stats.top_nodes_kept, stats.top_nodes_dropped) = (kept, dropped);
    stats
}

/// The sphere holding every sink group of `groups` (cells of `local`):
/// centred on the groups' centres weighted by their sink counts, with
/// radius the largest `|c_g − C| + bmax_g`, widened by 1e-9 of itself and
/// of the domain's largest coordinate to cover rounding. `None` without
/// groups.
///
/// A cell the MAC accepts against this sphere is accepted by every group:
/// each group's distance `|x − c_g| − bmax_g` to a cell centre `x` is at
/// least the sphere's `|x − C| − R`, and both criteria accept
/// monotonically in that distance (DESIGN.md, "The reach of a rank's
/// walk").
fn reach<M: Moments>(local: &Tree<M>, groups: &[u32]) -> Option<(Vec3, f64)> {
    if groups.is_empty() {
        return None;
    }
    let cells = groups.iter().map(|&gi| &local.cells[gi as usize]);
    let sinks: f64 = cells.clone().map(|g| g.n as f64).sum();
    let center = cells.clone().fold(Vec3::ZERO, |a, g| a + g.center * g.n as f64) / sinks;
    let r = cells.map(|g| (g.center - center).norm() + g.bmax).fold(0.0, f64::max);
    let coords = local.domain.min.norm().max(local.domain.max.norm());
    Some((center, r + 1e-9 * (r + coords)))
}

/// The coalesced pipeline over the sink groups `groups`. `abm_batch` is
/// the ABM batch capacity in bytes (production uses [`ABM_BATCH`]);
/// `workers` maps a ready batch's sink count to the threads it is computed
/// on.
///
/// Structured as the rank's own request rounds:
///
/// 1. drain every runnable group. Its *resolve* stage MAC-tests the global
///    nodes its traversal newly reaches and collects **every** remote node
///    it must open but cannot yet — not just the first — into the round's
///    wants per owner (deduplicated against what other groups already
///    asked for this round). A group with nothing missing joins the
///    round's ready batch; the others park;
/// 2. post at most one [`request`] per owner and flush, then compute the
///    ready batch ([`walk_apply`] on `workers(sinks in the batch)`
///    threads) while the requests travel;
/// 3. serve peers and open what replies answer ([`Abm::wait_once`]) until
///    a reply entry has answered every key the round asked for; then the
///    parked groups resume.
///
/// A round therefore requests one whole level of every remote subtree the
/// parked groups reach, and rounds number the remote trees' depth below the
/// branch level rather than the count of remote cells opened. Discovery
/// happens in step 1 only, on a tree that changes by whole rounds of the
/// rank's own replies, so the request sets and every logical count are a
/// pure function of the walk, never of arrival timing. With nothing parked
/// the rank serves on in ABM's one termination step ([`Abm::complete`]);
/// its waves vary with the schedule and stay out of the trace.
fn walk_groups<M: Moments, C: ListConsumer<M>>(
    comm: &mut Comm,
    dt: &mut DistTree<M>,
    mac: &Mac,
    consumer: &mut C,
    groups: Vec<u32>,
    abm_batch: usize,
    workers: impl Fn(usize) -> usize,
) -> DwalkStats {
    let mut stats = DwalkStats::default();
    // One walk per sink group, all starting at the global root.
    let mut active: Vec<GroupWalk> = groups
        .into_iter()
        .map(|gi| GroupWalk { gi, untested: vec![dt.local.walk_root()], missing: Vec::new() })
        .collect();
    let mut parked: Vec<GroupWalk> = Vec::new();
    let mut abm = Abm::new(comm, abm_batch);
    // Keys this rank asked for that no reply entry has answered yet.
    let mut unanswered = 0u64;
    loop {
        // (1) Resolve runnable groups; gather the round's new wants per
        // owner and its ready batch.
        let mut wants = Wants::new();
        let mut ready = Vec::new();
        while let Some(mut w) = active.pop() {
            resolve(dt, mac, &mut w, &mut wants, &mut stats);
            if w.missing.is_empty() {
                ready.push(w.gi);
            } else {
                stats.parks += 1;
                parked.push(w);
            }
        }
        // (2) One coalesced multi-key request per owner, on the wire before
        // the ready batch is computed.
        if !wants.is_empty() {
            stats.rounds += 1;
        }
        for (owner, keys) in wants {
            stats.request_msgs += 1;
            unanswered += keys.len() as u64;
            abm.post(owner, K_REQUEST, &request(keys));
        }
        abm.flush_all();
        // The batch's lists live for the batch only: kept across rounds,
        // every parked rank fiber would hold them.
        let sinks = ready.iter().map(|&gi| dt.local.cells[gi as usize].n as usize).sum();
        stats.walk.merge(&walk_apply(&dt.local, mac, &mut ready, consumer, workers(sinks), &mut Vec::new()));
        if parked.is_empty() {
            break;
        }
        // (3) Serve and absorb until the round's every key is answered.
        while unanswered > 0 {
            abm.wait_once(&mut make_batch_handler(dt, abm_batch, &mut unanswered));
        }
        active.append(&mut parked);
    }
    abm.complete(make_batch_handler(dt, abm_batch, &mut unanswered));
    stats.abm = abm.stats();
    stats
}

/// The resolve stage: the one walk over the nodes this group's traversal
/// has newly reached, writing no list, recording in `w.missing` every
/// remote node it must open that is not open yet, adding each key nobody
/// asked for yet this round to `wants` and counting it in `stats` as a cell
/// or a body request. It never descends a subtree whose bodies are all
/// resident — nothing there can miss — and looks at each node at most once
/// per group: a node found missing is open by the next call (a round ends
/// when all its keys are answered), so that call starts from its children.
/// Leaves `w.missing` empty iff the group's list can be written.
fn resolve<M: Moments>(
    dt: &DistTree<M>,
    mac: &Mac,
    w: &mut GroupWalk,
    wants: &mut Wants,
    stats: &mut DwalkStats,
) {
    let tree = &dt.local;
    for ni in w.missing.drain(..) {
        w.untested.extend(tree.children(&tree.cells[ni as usize]).map(|k| k as u32));
    }
    walk(tree, mac, w.gi, &mut w.untested, &mut Resolve { missing: &mut w.missing, wants, stats });
}

/// The resolve stage's [`Visit`]: a missing node is parked on and its key
/// wanted from its owner.
struct Resolve<'a> {
    missing: &'a mut Vec<u32>,
    wants: &'a mut Wants,
    stats: &'a mut DwalkStats,
}

impl<M: Moments> Visit<M> for Resolve<'_> {
    const LISTS: bool = false;
    fn cell(&mut self, _: &Cell<M>) {}
    fn bodies(&mut self, _: &[Vec3], _: &[M::Charge], _: Option<usize>) {}
    fn miss(&mut self, ci: u32, c: &Cell<M>) {
        let Below::Remote { owner, leaf } = c.below else { unreachable!("only a remote node misses") };
        self.missing.push(ci);
        if self.wants.entry(owner).or_default().insert(c.key.0) {
            *if leaf { &mut self.stats.body_requests } else { &mut self.stats.cell_requests } += 1;
        }
    }
}

/// Serve one request: what lies below every requested key
/// ([`DistTree::serve`]), in the request's order, packed greedily into
/// reply messages of at most `limit` encoded bytes (always at least one
/// entry each), so only one message's entries are held at a time. Entry
/// order survives chunking because ABM delivery is in-order per flow, and
/// the entire reply, chunk boundaries included, is a pure function of the
/// request and the owner's local tree.
fn serve_request<M: Moments>(
    dt: &DistTree<M>,
    ep: &mut Abm<'_>,
    src: u32,
    keys: &[u64],
    limit: usize,
) {
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "non-canonical request from rank {src}");
    let mut chunk: Vec<(u64, Reply<M>)> = Vec::new();
    let mut size = 8usize; // the Vec length prefix
    for &k in keys {
        let entry = (k, dt.serve(Key(k)));
        let sz = entry.wire_size();
        if !chunk.is_empty() && size + sz > limit {
            ep.post(src, K_REPLY, &chunk);
            chunk.clear();
            size = 8;
        }
        size += sz;
        chunk.push(entry);
    }
    if !chunk.is_empty() {
        ep.post(src, K_REPLY, &chunk);
    }
}

/// The ABM handler: serves requests (replies chunked at `limit` bytes) and
/// opens the nodes replies answer, counting each off `unanswered`, but
/// never reactivates walks — reactivation waits for the round boundary,
/// which is what keeps request sets schedule-independent.
fn make_batch_handler<'a, M: Moments>(
    dt: &'a mut DistTree<M>,
    limit: usize,
    unanswered: &'a mut u64,
) -> impl FnMut(&mut Abm<'_>, u32, u16, Bytes) + 'a {
    move |ep, src, kind, payload| match kind {
        K_REQUEST => serve_request(dt, ep, src, &from_bytes::<Vec<u64>>(payload), limit),
        K_REPLY => {
            for (key, reply) in from_bytes::<Vec<(u64, Reply<M>)>>(payload) {
                dt.open(Key(key), reply);
                *unanswered -= 1;
            }
        }
        other => panic!("unknown ABM message kind {other}"),
    }
}

#[cfg(test)]
mod tests {
    use hot_comm::RunConfig;
    use super::*;
    use crate::decomp::{decompose, decompose_unaligned, Body};
    use crate::ilist::{InteractionList, Segment};
    use crate::moments::MassMoments;
    use crate::tree::Tree;
    use hot_base::Aabb;
    use hot_morton::Key;
    use rand::{Rng, SeedableRng};
    use std::ops::Range;

    /// Mass-coverage consumer, distributed flavour: every source entry in
    /// a group's list (particles and cell masses alike) is "seen" once by
    /// each sink in the group.
    struct MassCoverage {
        seen: Vec<f64>,
    }

    impl ListConsumer<MassMoments> for MassCoverage {
        fn consume(
            &mut self,
            _pos: &[Vec3],
            _charge: &[f64],
            sinks: Range<usize>,
            list: &InteractionList<MassMoments>,
        ) {
            let mut total = 0.0;
            for seg in list.segments() {
                match seg {
                    Segment::Pp(v) => total += v.q.iter().sum::<f64>(),
                    Segment::Pc(c) => total += c.m.iter().map(|m| m.mass).sum::<f64>(),
                }
            }
            for i in sinks {
                self.seen[i] += total;
            }
        }
    }

    /// Body `i` of this rank's initial set, at `pos`.
    fn body_at(c: &Comm, i: usize, pos: Vec3) -> Body<f64> {
        Body {
            key: Key::from_point(pos, &Aabb::unit()),
            pos,
            charge: 1.0 + (i % 4) as f64 * 0.5,
            work: 1.0,
            id: c.rank() as u64 * 1_000_000 + i as u64,
        }
    }

    fn make_bodies(c: &Comm, n_per: usize, seed: u64, clustered: bool) -> Vec<Body<f64>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + c.rank() as u64);
        (0..n_per)
            .map(|i| {
                let pos = if clustered && i % 2 == 0 {
                    Vec3::new(
                        0.1 + rng.gen::<f64>() * 0.01,
                        0.1 + rng.gen::<f64>() * 0.01,
                        0.1 + rng.gen::<f64>() * 0.01,
                    )
                } else {
                    Vec3::new(rng.gen(), rng.gen(), rng.gen())
                };
                body_at(c, i, pos)
            })
            .collect()
    }

    /// The walk as the public entry runs it, at ABM batch capacity `cap`:
    /// groups of 16, ready batches on the rank's share of the threads.
    fn walk_at<C: ListConsumer<MassMoments>>(
        c: &mut Comm,
        dt: &mut DistTree<MassMoments>,
        mac: &Mac,
        consumer: &mut C,
        cap: usize,
    ) -> DwalkStats {
        let share = c.compute_threads();
        dwalk_pipelined(c, dt, mac, consumer, 16, cap, |sinks| workers_for(sinks, share))
    }

    fn coverage_run_at(np: u32, n_per: usize, theta: f64, clustered: bool, cap: usize) {
        let out = RunConfig::builder().np(np).run(move |c| {
            let bodies = make_bodies(c, n_per, 1234, clustered);
            let (mine, iv) = decompose(c, bodies, 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
            let mut dt = DistTree::build(c, tree, iv);
            let total_mass = c.allreduce_sum_f64(q.iter().sum());
            let mut cov = MassCoverage { seen: vec![0.0; dt.local.n_particles()] };
            let stats = walk_at(c, &mut dt, &Mac::BarnesHut { theta }, &mut cov, cap);
            (cov.seen, total_mass, stats.walk.interactions(), stats.parks)
        });
        let mut total_parks = 0;
        for (rank, (seen, total_mass, inter, parks)) in out.results.iter().enumerate() {
            for (i, &s) in seen.iter().enumerate() {
                assert!(
                    (s - total_mass).abs() < 1e-9 * total_mass,
                    "np={np} rank={rank} sink={i}: saw {s} of {total_mass}"
                );
            }
            if seen.len() > 1 {
                assert!(*inter > 0);
            }
            total_parks += parks;
        }
        if np > 1 {
            // With several ranks the walks must actually have context
            // switched at least somewhere.
            assert!(total_parks > 0, "np={np}: no latency hiding exercised");
        }
    }

    fn coverage_run(np: u32, n_per: usize, theta: f64, clustered: bool) {
        coverage_run_at(np, n_per, theta, clustered, ABM_BATCH);
    }

    #[test]
    fn coverage_single_rank() {
        coverage_run(1, 500, 0.7, false);
    }

    #[test]
    fn coverage_two_ranks() {
        coverage_run(2, 400, 0.7, false);
    }

    #[test]
    fn coverage_five_ranks() {
        coverage_run(5, 300, 0.6, false);
    }

    #[test]
    fn coverage_clustered() {
        coverage_run(4, 400, 0.8, true);
    }

    #[test]
    fn coverage_tight_mac() {
        // A very tight theta forces deep descent into remote trees and
        // plenty of body fetches.
        coverage_run(3, 200, 0.25, false);
    }

    #[test]
    fn coverage_tiny_batches() {
        // A tiny batch capacity forces reply chunking across many physical
        // batches.
        coverage_run_at(3, 300, 0.5, false, 256);
    }

    /// Every ABM batch capacity must produce the same lists, and so the
    /// same coverage sums (bitwise), interaction counts and request
    /// structure — only the physical batching of the messages may differ.
    #[test]
    fn pipeline_configs_agree_bitwise() {
        type RankResult = (Vec<u64>, u64, u64, u64, [u64; 4]);
        let mut reference: Option<Vec<RankResult>> = None;
        for cap in [256, 512, ABM_BATCH] {
            let out = RunConfig::builder().np(4).run(move |c| {
                let bodies = make_bodies(c, 350, 99, true);
                let (mine, iv) = decompose(c, bodies, 32);
                let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
                let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
                let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
                let mut dt = DistTree::build(c, tree, iv);
                let mut cov = MassCoverage { seen: vec![0.0; dt.local.n_particles()] };
                let s = walk_at(c, &mut dt, &Mac::BarnesHut { theta: 0.6 }, &mut cov, cap);
                let bits: Vec<u64> = cov.seen.iter().map(|s| s.to_bits()).collect();
                let requests = [s.cell_requests, s.body_requests, s.request_msgs, s.rounds];
                (bits, s.walk.pp, s.walk.pc, s.walk.opened, requests)
            });
            match &reference {
                None => reference = Some(out.results),
                Some(r) => assert_eq!(r, &out.results, "capacity {cap} B diverged"),
            }
        }
    }

    /// What one rank's walk must give under any compute thread count:
    /// coverage bits, walk counts, and
    /// `[cell requests, body requests, request messages, rounds, parks]`;
    /// beside them, the rank's largest ready batch.
    type Forced = (Vec<u64>, WalkStats, [u64; 5], usize);

    /// Walk with a splittable consumer, every ready batch forced onto
    /// `workers` threads through the crate-private entry.
    fn forced_workers_run(np: u32, clustered: bool, workers: usize) -> Vec<Forced> {
        let out = RunConfig::builder().np(np).run(move |c| {
            let bodies = make_bodies(c, 2000, 4242, clustered);
            let (mine, iv) = decompose(c, bodies, 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
            let mut dt = DistTree::build(c, tree, iv);
            let mut seen = vec![0.0; dt.local.n_particles()];
            let biggest = std::cell::Cell::new(0);
            let s = dwalk_pipelined(
                c,
                &mut dt,
                &Mac::BarnesHut { theta: 0.5 },
                &mut crate::walk::tests::Coverage { seen: &mut seen, base: 0 },
                16,
                ABM_BATCH,
                |sinks| {
                    biggest.set(biggest.get().max(sinks));
                    workers
                },
            );
            let counts = [s.cell_requests, s.body_requests, s.request_msgs, s.rounds, s.parks];
            let bits = seen.iter().map(|x| x.to_bits()).collect();
            (bits, s.walk, counts, biggest.get())
        });
        out.results
    }

    /// Ready batches computed on 2, 3 or 8 threads give the one-thread
    /// walk bit for bit — coverage, counts, requests, rounds and parks —
    /// on uniform and clustered bodies, in batches the public
    /// rule would fan out.
    #[test]
    fn dwalk_fan_out_is_bitwise_for_any_worker_count() {
        for np in [2, 4] {
            for clustered in [false, true] {
                let one = forced_workers_run(np, clustered, 1);
                let tag = format!("np={np} clustered={clustered}");
                let biggest: Vec<usize> = one.iter().map(|r| r.3).collect();
                assert!(
                    biggest.iter().any(|&b| b >= 2 * crate::walk::MIN_SINKS_PER_THREAD),
                    "{tag}: no ready batch above the fan-out threshold: {biggest:?}"
                );
                for workers in [2, 3, 8] {
                    let many = forced_workers_run(np, clustered, workers);
                    for (rank, (a, b)) in one.iter().zip(&many).enumerate() {
                        assert!(a == b, "{tag}: rank {rank} differs on {workers} workers");
                    }
                }
            }
        }
    }

    /// The walk meets the whole machine once: whatever its round count, a
    /// rank's walk ends in one termination step of at most three waves —
    /// at np = 2, 8 and 64, under the production executor and under 8
    /// seeded schedules, on bodies whose walk takes at least 3 rounds.
    #[test]
    fn the_walk_meets_the_machine_once() {
        for np in [2u32, 8, 64] {
            for seed in [None].into_iter().chain((0..8).map(Some)) {
                let mut run = RunConfig::builder().np(np);
                if let Some(seed) = seed {
                    run = run.event_seed(seed);
                }
                let out = run.run(|c| {
                    let (mine, iv) = decompose(c, make_bodies(c, 4096 / c.size() as usize, 5, false), 32);
                    let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
                    let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
                    let mut dt = DistTree::build(c, Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8), iv);
                    let mut cov = MassCoverage { seen: vec![0.0; dt.local.n_particles()] };
                    let s = walk_at(c, &mut dt, &Mac::BarnesHut { theta: 0.5 }, &mut cov, ABM_BATCH);
                    (s.rounds, s.abm.waves)
                });
                let tag = format!("np={np} seed={seed:?}");
                let rounds = out.results.iter().map(|r| r.0).max();
                assert!(rounds >= Some(3), "{tag}: the walk took {rounds:?} rounds");
                for (rank, &(_, waves)) in out.results.iter().enumerate() {
                    assert!((2..=3).contains(&waves), "{tag}: rank {rank} took {waves} waves");
                }
            }
        }
    }

    /// Coalescing must collapse the per-key message count. A per-key
    /// protocol posts exactly one request message per distinct key, so the
    /// ratio keys / request messages *is* the saving (frozen against the
    /// retired blocking walk in EXPERIMENTS.md L1).
    #[test]
    fn coalescing_reduces_request_messages() {
        let out = RunConfig::builder().np(4).run(|c| {
            let bodies = make_bodies(c, 350, 7, false);
            let (mine, iv) = decompose(c, bodies, 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
            let mut dt = DistTree::build(c, tree, iv);
            let mut cov = MassCoverage { seen: vec![0.0; dt.local.n_particles()] };
            let s = walk_at(c, &mut dt, &Mac::BarnesHut { theta: 0.5 }, &mut cov, ABM_BATCH);
            (s.request_msgs, s.cell_requests + s.body_requests, s.rounds)
        });
        let msgs: u64 = out.results.iter().map(|r| r.0).sum();
        let keys: u64 = out.results.iter().map(|r| r.1).sum();
        assert!(msgs * 2 <= keys, "coalescing saved too little: {msgs} messages for {keys} keys");
        assert!(out.results.iter().any(|r| r.2 > 0), "no rounds counted");
    }

    /// Opening a node is one operation whatever lies below it: a request
    /// that asks one owner for internal cells and leaves together is
    /// answered by one reply message. θ = 0 accepts nothing, so the first
    /// round asks for every remote branch, and with the cut inside an
    /// octant each rank's peer has branches of both kinds; every reply
    /// fits one ABM chunk, so the messages posted are the requests and one
    /// reply to each.
    #[test]
    fn a_request_for_cells_and_leaves_gets_one_reply() {
        let out = RunConfig::builder().np(2).run(|c| {
            let (mine, iv) = decompose_unaligned(c, make_bodies(c, 64, 3, false), 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 4);
            let mut dt = DistTree::build(c, tree, iv);
            let remote = |leaf: bool| {
                dt.local.cells[dt.nodes.clone()].iter().any(|n| {
                    n.n > 0 && matches!(n.below, Below::Remote { leaf: l, .. } if l == leaf)
                })
            };
            let both = remote(false) && remote(true);
            let mut cov = MassCoverage { seen: vec![0.0; dt.local.n_particles()] };
            let s = walk_at(c, &mut dt, &Mac::BarnesHut { theta: 0.0 }, &mut cov, ABM_BATCH);
            (both, s.request_msgs, s.abm.posted)
        });
        for (rank, &(both, ..)) in out.results.iter().enumerate() {
            assert!(both, "rank {rank}: its peer's branches are not both cells and leaves");
        }
        let requests: u64 = out.results.iter().map(|r| r.1).sum();
        let posted: u64 = out.results.iter().map(|r| r.2).sum();
        assert_eq!(posted, 2 * requests, "{requests} requests");
    }

    /// Two clumps in opposite corners, a third of the bodies in the first:
    /// ranks holding only the small clump accept every remote branch by the
    /// MAC, so their groups' closures are wholly local, while the ranks
    /// sharing the big clump must fetch from each other.
    fn two_clumps(c: &Comm, n_per: usize, seed: u64) -> Vec<Body<f64>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + c.rank() as u64);
        (0..n_per)
            .map(|i| {
                let corner = if i % 3 == 0 { 0.05 } else { 0.9 };
                let mut coord = || corner + rng.gen::<f64>() * 0.05;
                body_at(c, i, Vec3::new(coord(), coord(), coord()))
            })
            .collect()
    }

    /// What one rank's walk must compute, worked out by recursing over the
    /// rank's global view with *every* rank's local tree in hand, so nothing
    /// is ever missing: the list is a pure function of trees + MAC. Shares
    /// no code with the walk. Recursion order differs from the
    /// walk's stack order, which the mass sums cannot see: every charge is
    /// a multiple of 0.5, so they are exact in any order.
    struct Oracle<'a> {
        dt: &'a DistTree<MassMoments>,
        trees: &'a [Tree<MassMoments>],
        mac: Mac,
        gi: u32,
        pp: u64,
        pc: u64,
        opened: u64,
        /// Source mass listed for the current group.
        mass: f64,
        /// Remote cells opened + remote leaves summed by the current group:
        /// zero means its closure is wholly local.
        remote_uses: u64,
        /// Remote cells opened / remote leaves summed directly: the keys
        /// whose children / bodies the walk must obtain somehow.
        cell_keys: BTreeSet<u64>,
        body_keys: BTreeSet<u64>,
    }

    impl Oracle<'_> {
        fn group(&self) -> &crate::tree::Cell<MassMoments> {
            &self.dt.local.cells[self.gi as usize]
        }

        /// The current group needs `key`'s children (or, for a leaf, its
        /// bodies) from another rank.
        fn fetch(&mut self, key: Key, leaf: bool) {
            self.remote_uses += 1;
            if leaf {
                &mut self.body_keys
            } else {
                &mut self.cell_keys
            }
            .insert(key.0);
        }

        fn bodies(&mut self, tree: &Tree<MassMoments>, span: Range<usize>, pairs_per_sink: u64) {
            self.pp += self.group().n * pairs_per_sink;
            self.mass += tree.charge[span].iter().sum::<f64>();
        }

        fn node(&mut self, ni: u32) {
            let dt = self.dt;
            let node = &dt.local.cells[ni as usize];
            let (gc, gr, gn) = (
                self.group().center,
                self.group().bmax,
                self.group().n,
            );
            if node.n == 0 {
                return;
            }
            if self.mac.accepts(node, gc, gr) {
                self.pc += gn;
                self.mass += node.moments.mass;
                return;
            }
            if let (Below::Kids { .. }, crate::tree::NO_BODIES) = (node.below, node.first) {
                self.opened += 1;
                dt.local.children(node).for_each(|k| self.node(k as u32));
                return;
            }
            // A branch: continue in its owner's tree, the one every rank
            // built over the owner's bodies. A branch carries its cell's
            // summary, so `cell` repeats the MAC test just failed.
            let owner = match node.below {
                Below::Remote { owner, .. } => owner,
                _ => dt.rank,
            };
            let remote = owner != dt.rank;
            let tree = &self.trees[owner as usize];
            if let Some(ci) = tree.table.get(node.key) {
                return self.cell(tree, ci, remote);
            }
            // Virtual branch: a span of the owner's bodies, no cell.
            let i0 = tree.keys.partition_point(|&k| k < node.key.range_begin());
            let i1 = tree.keys.partition_point(|&k| k <= node.key.range_last());
            if remote {
                self.fetch(node.key, true);
            }
            let own = !remote && (i0..i1) == self.group().span();
            self.bodies(tree, i0..i1, (i1 - i0) as u64 - u64::from(own));
        }

        fn cell(&mut self, tree: &Tree<MassMoments>, ci: u32, remote: bool) {
            let c = &tree.cells[ci as usize];
            let (gc, gr, gn) = (
                self.group().center,
                self.group().bmax,
                self.group().n,
            );
            if !remote && ci == self.gi {
                return self.bodies(tree, c.span(), gn - 1);
            }
            if c.n == 0 {
                return;
            }
            if self.mac.accepts(c, gc, gr) {
                self.pc += gn;
                self.mass += c.moments.mass;
                return;
            }
            if remote {
                self.fetch(c.key, c.is_leaf());
            }
            if c.is_leaf() {
                self.bodies(tree, c.span(), c.n);
            } else {
                self.opened += 1;
                tree.children(c)
                    .for_each(|k| self.cell(tree, k as u32, remote));
            }
        }
    }

    /// Coverage plus the order groups were applied in (by sink-span start).
    struct Ordered {
        cov: MassCoverage,
        order: Vec<usize>,
    }

    impl ListConsumer<MassMoments> for Ordered {
        fn consume(
            &mut self,
            pos: &[Vec3],
            charge: &[f64],
            sinks: Range<usize>,
            list: &InteractionList<MassMoments>,
        ) {
            self.order.push(sinks.start);
            self.cov.consume(pos, charge, sinks, list);
        }
    }

    /// One walk checked against the oracle on every rank. Returns, per
    /// rank, (groups whose closure was wholly local, groups, keys needed).
    /// The cuts stay at their work quantiles, inside octants: at np = 2 an
    /// aligned cut falls on a level-1 octant boundary and leaves too little
    /// remote depth for the round structure to show.
    fn round_structure_run(
        np: u32,
        make: fn(&Comm, usize, u64) -> Vec<Body<f64>>,
    ) -> Vec<(usize, usize, usize)> {
        let out = RunConfig::builder().np(np).run(move |c| {
            let mac = Mac::BarnesHut { theta: 0.6 };
            let (mine, iv) = decompose_unaligned(c, make(c, 350, 31), 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let everyone: Vec<Vec<(Vec3, f64)>> = c.allgather(
                pos.iter()
                    .copied()
                    .zip(q.iter().copied())
                    .collect::<Vec<_>>(),
            );
            let trees: Vec<Tree<MassMoments>> = everyone
                .iter()
                .map(|b| {
                    let (p, q): (Vec<Vec3>, Vec<f64>) = b.iter().copied().unzip();
                    Tree::build(Aabb::unit(), &p, &q, 8)
                })
                .collect();
            let mut dt =
                DistTree::build(c, Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8), iv);
            let rank = dt.rank;
            let groups = sink_groups(&dt, 16);

            // The oracle, and which groups can finish without any fetch,
            // both from the tree as the walk will first see it.
            let mut want_seen = vec![0u64; dt.local.n_particles()];
            let mut local_closure = BTreeSet::new();
            let mut o = Oracle {
                dt: &dt,
                trees: &trees,
                mac,
                gi: 0,
                pp: 0,
                pc: 0,
                opened: 0,
                mass: 0.0,
                remote_uses: 0,
                cell_keys: BTreeSet::new(),
                body_keys: BTreeSet::new(),
            };
            for &gi in &groups {
                (o.gi, o.mass, o.remote_uses) = (gi, 0.0, 0);
                o.node(dt.local.walk_root());
                for i in o.group().span() {
                    want_seen[i] = o.mass.to_bits();
                }
                if o.remote_uses == 0 {
                    local_closure.insert(o.group().span().start);
                }
            }
            let (pp, pc, opened) = (o.pp, o.pc, o.opened);
            let (cell_keys, body_keys) = (o.cell_keys, o.body_keys);
            let level = |k: &u64| Key(*k).level();
            let deepest = cell_keys.iter().chain(&body_keys).map(level).max();
            let shallowest = dt.local.cells[dt.nodes.clone()]
                .iter()
                .filter(|n| matches!(n.below, Below::Remote { .. }))
                .map(|n| n.key.level())
                .min();

            let mut ordered = Ordered {
                cov: MassCoverage {
                    seen: vec![0.0; dt.local.n_particles()],
                },
                order: Vec::new(),
            };
            let stats = walk_at(c, &mut dt, &mac, &mut ordered, ABM_BATCH);
            let tag = format!("np={np} rank={rank}");

            // (c) the list is the oracle's, whatever rounds delivered it.
            assert_eq!(
                (stats.walk.pp, stats.walk.pc, stats.walk.opened),
                (pp, pc, opened),
                "{tag}"
            );
            let seen: Vec<u64> = ordered.cov.seen.iter().map(|s| s.to_bits()).collect();
            assert_eq!(seen, want_seen, "{tag}");
            // (b) + (c) every needed key is requested exactly once: the
            // requests are the remote cells the walks open and the remote
            // leaves they sum. A key requested twice, or one no walk uses,
            // breaks the equalities.
            assert_eq!(stats.cell_requests, cell_keys.len() as u64, "{tag}");
            assert_eq!(stats.body_requests, body_keys.len() as u64, "{tag}");
            // (a) rounds follow the depth fetched, not the key count.
            let keys = stats.cell_requests + stats.body_requests;
            match deepest {
                Some(deepest) => {
                    let depth = u64::from(deepest - shallowest.expect("a key was fetched"));
                    assert!(
                        stats.rounds <= depth + 2,
                        "{tag}: {} rounds for depth {depth}",
                        stats.rounds
                    );
                    assert!(
                        keys <= 8 || stats.rounds < keys,
                        "{tag}: {} rounds, {keys} keys",
                        stats.rounds
                    );
                }
                None => assert_eq!((stats.rounds, keys), (0, 0), "{tag}"),
            }
            // (d) groups with a wholly local closure never park and are
            // applied first; every other group parks once per round it waits.
            let (closed, waiting) = (local_closure.len(), groups.len() - local_closure.len());
            let first: BTreeSet<usize> = ordered.order[..closed].iter().copied().collect();
            assert_eq!(
                first, local_closure,
                "{tag}: round 0 applied other groups first"
            );
            assert!(
                waiting as u64 <= stats.parks && stats.parks <= waiting as u64 * stats.rounds,
                "{tag}: {} parks, {waiting} waiting groups, {} rounds",
                stats.parks,
                stats.rounds
            );
            (closed, groups.len(), cell_keys.len() + body_keys.len())
        });
        out.results
    }

    /// The round structure of the frontier-at-once fetch (see
    /// `round_structure_run` for what is asserted on every rank).
    #[test]
    fn rounds_follow_remote_depth_not_key_count() {
        let uniform: fn(&Comm, usize, u64) -> Vec<Body<f64>> =
            |c, n, s| make_bodies(c, n, s, false);
        let clustered: fn(&Comm, usize, u64) -> Vec<Body<f64>> =
            |c, n, s| make_bodies(c, n, s, true);
        for np in [2, 4, 8] {
            for make in [uniform, clustered] {
                let ranks = round_structure_run(np, make);
                assert!(
                    ranks.iter().any(|r| r.2 > 8),
                    "np={np}: no rank fetched > 8 keys"
                );
            }
        }
        // Non-vacuity of (d): some groups finish in round 0 beside others
        // that wait.
        let ranks = round_structure_run(3, two_clumps);
        assert!(
            ranks.iter().any(|r| r.0 > 0),
            "no wholly local closure: {ranks:?}"
        );
        assert!(
            ranks.iter().any(|r| r.0 < r.1),
            "no group had to fetch: {ranks:?}"
        );
    }

    /// A list as a consumer can see it, in bits: per segment its kind and
    /// length, then every entry's coordinates and charge or mass, and a P-P
    /// source's tree-order index.
    fn list_bits(list: &InteractionList<MassMoments>) -> Vec<u64> {
        let mut out = Vec::new();
        for seg in list.segments() {
            match seg {
                Segment::Pp(v) => {
                    out.extend([0, v.x.len() as u64]);
                    for j in 0..v.x.len() {
                        let (x, y, z, q) = (v.x[j], v.y[j], v.z[j], v.q[j]);
                        out.extend([x, y, z, q].map(f64::to_bits));
                        out.push(u64::from(v.idx[j]));
                    }
                }
                Segment::Pc(c) => {
                    out.extend([1, c.x.len() as u64]);
                    for k in 0..c.x.len() {
                        let (x, y, z, m) = (c.x[k], c.y[k], c.z[k], c.m[k].mass);
                        out.extend([x, y, z, m].map(f64::to_bits));
                    }
                }
            }
        }
        out
    }

    /// Every list it is handed, as `(first sink, bits)`.
    struct Recorded(Vec<(usize, Vec<u64>)>);

    impl ListConsumer<MassMoments> for Recorded {
        fn consume(
            &mut self,
            _pos: &[Vec3],
            _charge: &[f64],
            sinks: Range<usize>,
            list: &InteractionList<MassMoments>,
        ) {
            self.0.push((sinks.start, list_bits(list)));
        }
    }

    /// On one rank every global node leads to this rank's own tree, so the
    /// distributed walk must write each group's list exactly as the serial
    /// walk does — entry for entry, bit for bit — and count the same.
    #[test]
    fn one_rank_writes_the_serial_walks_lists() {
        for clustered in [false, true] {
            let out = RunConfig::builder().np(1).run(move |c| {
                let (mine, iv) = decompose(c, make_bodies(c, 1500, 8, clustered), 32);
                let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
                let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
                let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
                let mut dt = DistTree::build(c, tree, iv);
                let mac = Mac::BarnesHut { theta: 0.6 };
                let (mut serial, mut stats) = (Vec::new(), WalkStats::default());
                let mut list = InteractionList::new();
                for gi in sink_groups(&dt, 16) {
                    stats.merge(&crate::walk::walk_group_list(&dt.local, &mac, gi, &mut list));
                    serial.push((dt.local.cells[gi as usize].first as usize, list_bits(&list)));
                }
                serial.sort_unstable();
                let mut dist = Recorded(Vec::new());
                let walk = walk_at(c, &mut dt, &mac, &mut dist, ABM_BATCH).walk;
                dist.0.sort_unstable();
                (serial, stats, dist.0, walk)
            });
            let (serial, stats, dist, walk) = &out.results[0];
            assert!(serial.len() > 50, "clustered {clustered}: {} groups", serial.len());
            assert!(serial == dist, "clustered {clustered}: the lists differ");
            assert_eq!(stats, walk, "clustered {clustered}");
        }
    }

    /// Every list it is handed, as `(first sink, bits)`, and per sink the
    /// monopole acceleration those lists give (softened, self-pairs
    /// skipped through the P-P source index).
    struct Forces {
        lists: Lists,
        acc: Vec<Vec3>,
    }

    impl ListConsumer<MassMoments> for Forces {
        fn consume(
            &mut self,
            pos: &[Vec3],
            _charge: &[f64],
            sinks: Range<usize>,
            list: &InteractionList<MassMoments>,
        ) {
            self.lists.push((sinks.start, list_bits(list)));
            let pull = |at: Vec3, x: Vec3, m: f64| {
                let d = x - at;
                d * (m / (d.norm2() + 1e-6).powf(1.5))
            };
            for i in sinks {
                let mut a = Vec3::ZERO;
                for seg in list.segments() {
                    match seg {
                        Segment::Pp(v) => {
                            for j in (0..v.x.len()).filter(|&j| v.idx[j] as usize != i) {
                                a += pull(pos[i], Vec3::new(v.x[j], v.y[j], v.z[j]), v.q[j]);
                            }
                        }
                        Segment::Pc(c) => {
                            for k in 0..c.x.len() {
                                a += pull(pos[i], Vec3::new(c.x[k], c.y[k], c.z[k]), c.m[k].mass);
                            }
                        }
                    }
                }
                self.acc[i] = a;
            }
        }
    }

    /// One rank's walk, in bits: its lists by first sink, its forces, its
    /// walk counts, `[cell requests, body requests, request messages,
    /// rounds, parks]`; beside them, the top-tree nodes the cut dropped.
    type Walked = ((Lists, Vec<[u64; 3]>, WalkStats, [u64; 5]), u64);

    /// A rank's lists, as `(first sink, bits)`.
    type Lists = Vec<(usize, Vec<u64>)>;

    /// The cut's inputs: np, MAC, group size, clustered bodies.
    type CutCase = (u32, Mac, usize, bool);

    /// Bodies for a cut case: fewer per rank as np grows, charges scaled
    /// by 2^-20 so that the Salmon–Warren bound accepts some shared
    /// nodes in the unit box (scaling by a power of two keeps every sum
    /// exact as it was).
    fn cut_case_bodies(c: &Comm, np: u32, clustered: bool) -> Vec<Body<f64>> {
        let n_per = match np {
            2 => 400,
            8 => 150,
            _ => 48,
        };
        let mut bodies = make_bodies(c, n_per, 2024, clustered);
        bodies.iter_mut().for_each(|b| b.charge *= (-20f64).exp2());
        bodies
    }

    /// One walk of a cut case on every rank: with the cut, as the public
    /// entry runs it, or without it, straight into [`walk_groups`]. After
    /// the cut walk the tree must still validate.
    fn cut_case_run(case: CutCase, cut: bool) -> Vec<Walked> {
        let (np, mac, group_size, clustered) = case;
        let out = RunConfig::builder().np(np).run(move |c| {
            let (mine, iv) = decompose(c, cut_case_bodies(c, np, clustered), 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
            let mut dt = DistTree::build(c, tree, iv);
            let n = dt.local.n_particles();
            let mut forces = Forces { lists: Vec::new(), acc: vec![Vec3::ZERO; n] };
            let share = c.compute_threads();
            let workers = |sinks| workers_for(sinks, share);
            let s = if cut {
                let s =
                    dwalk_pipelined(c, &mut dt, &mac, &mut forces, group_size, ABM_BATCH, workers);
                assert_eq!(dt.local.validate(), Ok(()), "rank {} after the walk", c.rank());
                s
            } else {
                let groups = sink_groups(&dt, group_size);
                walk_groups(c, &mut dt, &mac, &mut forces, groups, ABM_BATCH, workers)
            };
            forces.lists.sort_unstable();
            let acc = forces.acc.iter().map(|a| [a.x, a.y, a.z].map(f64::to_bits)).collect();
            let counts = [s.cell_requests, s.body_requests, s.request_msgs, s.rounds, s.parks];
            ((forces.lists, acc, s.walk, counts), s.top_nodes_dropped)
        });
        out.results
    }

    /// Every cut case: np 2, 8 and 64; Barnes–Hut θ = 0.4 and 0.7 and
    /// Salmon–Warren δ = 1e-4; groups of 8, 32 and 64; uniform and
    /// clustered bodies.
    fn cut_cases() -> Vec<CutCase> {
        let macs = [
            Mac::BarnesHut { theta: 0.4 },
            Mac::BarnesHut { theta: 0.7 },
            Mac::SalmonWarren { delta: 1e-4 },
        ];
        let mut cases = Vec::new();
        for np in [2, 8, 64] {
            for mac in macs {
                for group_size in [8, 32, 64] {
                    for clustered in [false, true] {
                        cases.push((np, mac, group_size, clustered));
                    }
                }
            }
        }
        cases
    }

    /// Cutting the top tree to the reach of the rank's groups changes
    /// nothing a walk computes: lists, forces, counts, requests, rounds and
    /// parks are bit for bit those of the walk over the whole top tree, on
    /// every rank of every cut case. At np = 64
    /// each case drops nodes.
    #[test]
    fn the_cut_walk_is_the_whole_trees_walk() {
        for case in cut_cases() {
            let whole = cut_case_run(case, false);
            let cut = cut_case_run(case, true);
            for (rank, (w, c)) in whole.iter().zip(&cut).enumerate() {
                assert!(w.0 == c.0, "{case:?} rank {rank}: the cut changed the walk");
            }
            let dropped: u64 = cut.iter().map(|c| c.1).sum();
            if case.0 == 64 {
                assert!(dropped > 0, "{case:?}: nothing was cut");
            }
        }
    }

    /// Non-vacuity of the cut's proof: a sphere that forgets the groups'
    /// `bmax` is too small, and the first resolve of some group then opens
    /// a pruned node and panics.
    #[test]
    fn a_sphere_without_bmax_opens_a_pruned_node() {
        let mut hits = 0;
        for (np, mac, group_size, clustered) in cut_cases().into_iter().filter(|c| c.0 > 2) {
            let out = RunConfig::builder().np(np).run(move |c| {
                let (mine, iv) = decompose(c, cut_case_bodies(c, np, clustered), 32);
                let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
                let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
                let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
                let mut dt = DistTree::build(c, tree, iv);
                let groups = sink_groups(&dt, group_size);
                let Some((center, _)) = reach(&dt.local, &groups) else { return false };
                let cells = &dt.local.cells;
                let r = groups.iter().map(|&gi| (cells[gi as usize].center - center).norm());
                let r = r.fold(0.0, f64::max);
                dt.prune(|s| !mac.accepts(s, center, r));
                let resolved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for &gi in &groups {
                        let mut w = GroupWalk { gi, untested: vec![dt.local.walk_root()], missing: Vec::new() };
                        resolve(&dt, &mac, &mut w, &mut Wants::new(), &mut DwalkStats::default());
                    }
                }));
                match resolved {
                    Ok(()) => false,
                    Err(p) => {
                        let msg = p.downcast_ref::<String>().map_or("", String::as_str);
                        assert!(msg.contains("which the cut pruned"), "{msg}");
                        true
                    }
                }
            });
            hits += out.results.iter().filter(|&&hit| hit).count();
        }
        assert!(hits > 0, "no configuration opened a pruned node");
    }

    /// The distributed walk must agree with a serial walk over the union of
    /// all particles — same MAC, same bucket — on the *interaction counts*
    /// seen per rank in aggregate (they partition the sinks).
    #[test]
    fn matches_serial_interaction_totals() {
        let np = 3u32;
        let n_total = 600usize;
        // Deterministic global particle set.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let all_pos: Vec<Vec3> =
            (0..n_total).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect();
        let all_q = vec![1.0f64; n_total];

        // Serial reference (list-build only; the counts are all we need).
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &all_pos, &all_q, 8);
        let mut scratch = InteractionList::new();
        let mut serial_total = 0.0;
        for gi in tree.groups(16) {
            let s = crate::walk::walk_group_list(
                &tree,
                &Mac::BarnesHut { theta: 0.7 },
                gi,
                &mut scratch,
            );
            serial_total += s.interactions() as f64;
        }

        let pos_clone = all_pos.clone();
        let out = RunConfig::builder().np(np).run(move |c| {
            let per = n_total / np as usize;
            let lo = c.rank() as usize * per;
            let hi = if c.rank() == np - 1 { n_total } else { lo + per };
            let bodies: Vec<Body<f64>> = (lo..hi)
                .map(|i| Body {
                    key: Key::from_point(pos_clone[i], &Aabb::unit()),
                    pos: pos_clone[i],
                    charge: 1.0,
                    work: 1.0,
                    id: i as u64,
                })
                .collect();
            let (mine, iv) = decompose(c, bodies, 32);
            let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
            let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
            let mut dt = DistTree::build(c, tree, iv);
            let mut cov = MassCoverage { seen: vec![0.0; dt.local.n_particles()] };
            let stats = walk_at(c, &mut dt, &Mac::BarnesHut { theta: 0.7 }, &mut cov, ABM_BATCH);
            stats.walk.interactions()
        });
        let dist_total: u64 = out.results.iter().sum();
        // Not identical (the decomposition changes group shapes), but the
        // same order: within 40% of the serial count.
        let ratio = dist_total as f64 / serial_total;
        assert!(
            (0.6..1.67).contains(&ratio),
            "distributed {dist_total} vs serial {serial_total} (ratio {ratio})"
        );
    }

    /// Every rank's pair accounting must reconcile with its list-entry
    /// counts: interactions are the per-sink fan-out of the listed
    /// entries, minus exactly one self-pair per sink.
    #[test]
    fn listed_entries_reconcile_with_interactions() {
        let out = RunConfig::builder().np(2).run(|c| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(77 + c.rank() as u64);
            let bodies: Vec<Body<f64>> = (0..300)
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
            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
            let mut dt = DistTree::build(c, tree, iv);
            let mut cov = MassCoverage { seen: vec![0.0; dt.local.n_particles()] };
            let stats = walk_at(c, &mut dt, &Mac::BarnesHut { theta: 0.6 }, &mut cov, ABM_BATCH);
            stats.walk
        });
        for w in out.results {
            assert!(w.listed_pp > 0 && w.listed_pc > 0);
            // Fan-out bound: each listed entry is seen by at least one and
            // at most group_size sinks (self-pairs only ever subtract).
            assert!(w.pp >= w.listed_pp.saturating_sub(1));
            assert!(w.pp <= w.listed_pp * 16);
            assert!(w.pc >= w.listed_pc && w.pc <= w.listed_pc * 16);
        }
    }

    proptest::proptest! {
        /// A round's request to an owner carries every key the groups
        /// wanted from it once, ascending, and roundtrips through the
        /// wire; its bytes depend only on the set of wanted keys, not on
        /// the order or repetition the groups wanted them in.
        #[test]
        fn a_request_depends_only_on_the_wanted_set(
            keys in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..80),
        ) {
            let build = |keys: &mut dyn Iterator<Item = &u64>| {
                let mut wants = Wants::new();
                keys.for_each(|&k| {
                    wants.entry(3).or_default().insert(k);
                });
                request(wants.remove(&3).unwrap_or_default())
            };
            let req = build(&mut keys.iter());
            proptest::prop_assert!(req.windows(2).all(|w| w[0] < w[1]));
            proptest::prop_assert!(keys.iter().all(|k| req.binary_search(k).is_ok()));
            proptest::prop_assert!(req.iter().all(|k| keys.contains(k)));
            let bytes = hot_comm::to_bytes(&req);
            proptest::prop_assert_eq!(&from_bytes::<Vec<u64>>(bytes.clone()), &req);
            let again = build(&mut keys.iter().rev().chain(&keys));
            proptest::prop_assert_eq!(&bytes[..], &hot_comm::to_bytes(&again)[..]);
        }
    }
}
