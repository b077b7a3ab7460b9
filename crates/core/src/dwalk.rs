//! Distributed tree traversal with latency hiding.
//!
//! The paper: *"An efficient mechanism for latency hiding in the tree
//! traversal phase of the algorithm is critical. To avoid stalls during
//! non-local data access, we effectively do explicit 'context switching'."*
//!
//! Each sink group carries an independent walk in two stages. *Resolve*
//! MAC-tests the global nodes the group's traversal reaches and collects
//! **every** one whose data is not resident — the children of a remote
//! cell, or the bodies of a remote leaf — not just the first. A group with
//! anything missing is *parked* and the rank switches to another group
//! instead of stalling; a group with nothing missing *emits*: one
//! uninterrupted depth-first traversal of the global nodes recording its
//! accepted sources into the group's [`InteractionList`] — the distributed
//! flavour of the list-build stage. Below a branch cell of the rank's own
//! tree, emit hands over to the serial walk's local walk, so there is one
//! local walk in the library.
//! The pipeline then hides the network latency two ways:
//!
//! * **Request coalescing** — the wants of all parked groups are gathered
//!   per *round* and every distinct key wanted from one owner goes out in a
//!   single multi-key [`KeyBatchRequest`] message, with replies batched the
//!   same way. Since a group asks for its whole missing frontier at once, a
//!   round fetches one level of every remote subtree being descended, and
//!   rounds number the remote trees' depth below the branch level — not the
//!   count of remote cells opened. Rounds are globally synchronized: parked
//!   groups resume only at a machine-wide quiescent point (every
//!   outstanding request answered), which makes the per-round request sets
//!   — and therefore every logical message and byte count — a pure function
//!   of the walk, independent of message schedules. Each key is fetched
//!   exactly once, and only because some group's walk needs it.
//! * **Resolve → post → compute the ready batch → serve** — a round first
//!   only *resolves* groups; those with nothing missing (all of round 0
//!   for a wholly local closure) form the round's *ready batch*. The
//!   round's requests are posted and flushed, so they travel while the
//!   rank computes the batch — each group emitted, its interaction counts
//!   pinned, and its list handed to the rank's [`ListConsumer`] — and only
//!   then serves and absorbs messages. The batch runs in tree order through
//!   [`crate::walk::fan_out`] on the rank's share of the hardware threads
//!   ([`Comm::compute_threads`]): compute threads touch no channel and are
//!   joined before the rank serves. Sink groups are disjoint and each
//!   group's list is its own, so accelerations stay bitwise identical
//!   under any thread count.
//!
//! Emit never starts before everything it will touch is resident, so each
//! group's list is written in the one canonical depth-first order no matter
//! which rounds its data arrived in, and forces are bitwise identical
//! under any ABM batch capacity and thread count. The per-key blocking
//! walk and the one-key-per-group-per-round walk this pipeline replaced are
//! frozen as rows L1 and L2 of EXPERIMENTS.md; the overlapped apply that
//! computed one finished list per poll-idle window before the ready batch
//! replaced it is row D1. The whole exchange runs to quiescence with ABM's
//! termination protocol, every rank serving its peers' fetch requests from
//! its local tree throughout.

use crate::dtree::{DChildren, DNode, DistTree};
use crate::ilist::{InteractionList, ListConsumer};
use crate::mac::Mac;
use crate::moments::Moments;
use crate::walk::{fan_out, walk_subtree, workers_for, WalkStats};
use bytes::Bytes;
use hot_base::Vec3;
use hot_comm::{from_bytes, Abm, Comm, KeyBatchRequest, Wire};
use hot_morton::Key;
use std::collections::{BTreeMap, BTreeSet};

// Message kinds on the ABM channel. Kinds 1–4 belonged to the retired
// per-key protocol and stay unassigned.

/// One multi-key request per (requester, owner) pair per round.
const K_REQ_BATCH: u16 = 5;
/// Batched children replies: `Vec<(parent key, child nodes)>`.
const K_REP_CELL_BATCH: u16 = 6;
/// Batched body replies: `Vec<(leaf key, bodies)>`.
const K_REP_BODY_BATCH: u16 = 7;

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
/// its round's ready batch, which emits and applies it in one go.
struct GroupWalk {
    /// Index of the group cell in the local tree.
    gi: u32,
    /// Global nodes the resolve stage has reached but not yet MAC-tested.
    untested: Vec<u32>,
    /// Global nodes that failed the MAC and whose children (or bodies) are
    /// not resident: what the group is parked on. Their data lands during
    /// the round, so the next resolve goes straight to their children.
    missing: Vec<u32>,
}

/// One round's new wants: per owner, the (cell keys, leaf keys) to request.
type Wants = BTreeMap<u32, (Vec<u64>, Vec<u64>)>;

/// Statistics of one rank's distributed walk.
#[derive(Clone, Debug, Default)]
pub struct DwalkStats {
    /// Interaction counts (paper units), including the list-entry counts.
    pub walk: WalkStats,
    /// Cells opened per sink group, as `(group cell index, opened)` sorted
    /// by group index. Each group's walk — and so its opened count — is a
    /// pure function of the tree (schedule-independent); only the
    /// *completion* order varies, which the sort erases. This is the
    /// traversal-cost half of the adaptive decomposition's feedback (the
    /// interaction half rides in the per-sink `work` tally).
    pub group_costs: Vec<(u32, u64)>,
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
    /// Request rounds this rank participated in with at least one request
    /// of its own. A round asks for every key any parked group is missing,
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
}

/// Run the distributed traversal, recording a `Walk` span into `trace`.
/// Collective: every rank calls with its [`DistTree`] and its own list
/// consumer (the apply stage); returns when the machine-wide exchange is
/// quiescent. `group_size` is the sink-group particle bound (see
/// [`crate::walk::default_group_size`]); `_cfg` carries nothing (see
/// [`WalkConfig`]). Ready batches run on the rank's share of the hardware
/// threads ([`Comm::compute_threads`]).
///
/// The walk phase must stay bitwise identical across message schedules, so
/// the span records only *logical* quantities: cells opened, list entries,
/// the number of distinct cell/body keys requested, the request rounds,
/// and the ABM layer's posted/delivered message and byte counts — all pure
/// functions of the walk thanks to the round structure (see the module
/// docs). Raw `TrafficStats` deltas are deliberately **not** folded in
/// here: the number of termination-detection rounds — and therefore the
/// allreduce traffic — depends on arrival interleaving, as do batch counts.
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

/// The coalesced pipeline. `abm_batch` is the ABM batch capacity in bytes
/// (production uses [`ABM_BATCH`]); `workers` maps a ready batch's sink
/// count to the threads it is computed on.
///
/// Structured as globally synchronized request rounds:
///
/// 1. drain every runnable group. Its *resolve* stage MAC-tests the global
///    nodes its traversal newly reaches and collects **every** one whose
///    children or bodies are not resident — not just the first — into the
///    round's wants per owner (deduplicated against what other groups
///    already asked for this round). A group with nothing missing joins
///    the round's ready batch; the others park;
/// 2. post at most one [`KeyBatchRequest`] per owner and flush, then
///    compute the ready batch (see [`compute_batch`]) while the requests
///    travel;
/// 3. serve peers / absorb replies until no message is pollable;
/// 4. join the round's count consensus. Parked groups reactivate **only**
///    when the allreduce proves every posted message machine-wide has been
///    delivered — i.e. all of this round's replies have landed everywhere.
///
/// A round therefore requests one whole level of every remote subtree the
/// parked groups reach, and rounds number the remote trees' depth below the
/// branch level rather than the count of remote cells opened.
///
/// Step 4 is the determinism keystone, and the reason discovery happens in
/// step 1 only, never between polls in step 3: because the tree a resolve
/// sees changes only at globally agreed quiescent points, which keys each
/// round requests, how many rounds there are, and every logical
/// message/byte count is a pure function of the walk state, never of reply
/// arrival timing. (The *number of allreduce iterations* between
/// rounds does vary with the schedule, which is why termination traffic is
/// excluded from the trace.) The exchange terminates when the machine-wide
/// (posted, delivered, parked) triple is stable at (n, n, 0) for two
/// consecutive iterations.
fn dwalk_pipelined<M: Moments, C: ListConsumer<M>>(
    comm: &mut Comm,
    dt: &mut DistTree<M>,
    mac: &Mac,
    consumer: &mut C,
    group_size: usize,
    abm_batch: usize,
    workers: impl Fn(usize) -> usize,
) -> DwalkStats {
    let mut stats = DwalkStats::default();
    // One walk per sink group, all starting at the global root.
    let mut active: Vec<GroupWalk> = dt
        .local
        .groups(group_size)
        .into_iter()
        .map(|gi| GroupWalk { gi, untested: vec![dt.root], missing: Vec::new() })
        .collect();
    let mut parked: Vec<GroupWalk> = Vec::new();
    // Keys requested in the current round: dedups wants across groups.
    let mut requested: BTreeSet<u64> = BTreeSet::new();
    let mut abm = Abm::new(comm, abm_batch);

    let mut prev = (u64::MAX, u64::MAX, u64::MAX);
    loop {
        // (1) Resolve runnable groups; gather the round's new wants per
        // owner and its ready batch.
        let mut wants = Wants::new();
        let mut ready = Vec::new();
        while let Some(mut w) = active.pop() {
            resolve(dt, mac, &mut w, &mut requested, &mut wants);
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
        for (owner, (cells, bodies)) in wants {
            stats.cell_requests += cells.len() as u64;
            stats.body_requests += bodies.len() as u64;
            stats.request_msgs += 1;
            abm.post(owner, K_REQ_BATCH, &KeyBatchRequest::new(cells, bodies));
        }
        abm.flush_all();
        compute_batch(dt, mac, consumer, &mut ready, &mut stats, &workers);
        // (3) Serve and absorb until locally idle.
        loop {
            abm.flush_all();
            let handled = abm.poll(&mut make_batch_handler(dt, abm_batch));
            if handled == 0 {
                break;
            }
        }
        // (4) Round consensus: wake everything parked once the machine is
        // quiescent (every request answered, every reply delivered).
        let s = abm.stats();
        let totals = abm
            .comm_mut()
            .allreduce((s.posted, s.delivered, parked.len() as u64), |a, b| {
                (a.0 + b.0, a.1 + b.1, a.2 + b.2)
            });
        if totals.0 == totals.1 {
            if totals.2 == 0 && totals == prev {
                break;
            }
            active.append(&mut parked);
            requested.clear();
        }
        prev = totals;
    }
    debug_assert!(active.is_empty() && parked.is_empty());
    stats.abm = abm.stats();
    stats.group_costs.sort_unstable();
    stats
}

/// What one chunk of a ready batch hands back to be merged.
#[derive(Default)]
struct BatchOut {
    walk: WalkStats,
    group_costs: Vec<(u32, u64)>,
}

/// Compute one round's ready batch: per group, [`emit`] its list (its
/// counts pinned against the list) and hand the list to `consumer` (the
/// apply stage). The groups run in tree
/// order through [`fan_out`] on `workers(sinks in the batch)` threads,
/// each with a list of its own that lives for this batch only. Sink groups
/// are disjoint, so neither the order nor the thread of a group's apply can
/// change a per-sink sum.
fn compute_batch<M: Moments, C: ListConsumer<M>>(
    dt: &DistTree<M>,
    mac: &Mac,
    consumer: &mut C,
    ready: &mut [u32],
    stats: &mut DwalkStats,
    workers: impl Fn(usize) -> usize,
) {
    let cells = &dt.local.cells;
    ready.sort_unstable_by_key(|&gi| cells[gi as usize].first);
    let sinks = ready.iter().map(|&gi| cells[gi as usize].n as usize).sum();
    let outs = fan_out(
        workers(sinks),
        ready,
        |gi| cells[gi as usize].span(),
        consumer,
        &mut Vec::new(),
        |groups, part, list| {
            let mut out = BatchOut::default();
            for &gi in groups {
                let walk = emit(dt, mac, gi, list);
                out.walk.merge(&walk);
                out.group_costs.push((gi, walk.opened));
                part.consume(&dt.local.pos, &dt.local.charge, cells[gi as usize].span(), list);
            }
            out
        },
    );
    for out in outs {
        stats.walk.merge(&out.walk);
        stats.group_costs.extend(out.group_costs);
    }
}

/// The resolve stage: MAC-test the global nodes this group's traversal has
/// newly reached and record in `w.missing` every one whose children or
/// bodies are not resident, adding each key nobody asked for yet this round
/// to `wants`. Only global nodes are looked at — a `LocalSubtree` cannot
/// miss — and each at most once per group: a node found missing has its
/// data by the next call (rounds end quiescent), so that call starts from
/// its children. Leaves `w.missing` empty iff [`emit`] can run.
fn resolve<M: Moments>(
    dt: &DistTree<M>,
    mac: &Mac,
    w: &mut GroupWalk,
    requested: &mut BTreeSet<u64>,
    wants: &mut Wants,
) {
    let g = &dt.local.cells[w.gi as usize];
    for ni in w.missing.drain(..) {
        if let DChildren::Nodes(kids) = &dt.nodes[ni as usize].children {
            w.untested.extend_from_slice(kids);
        }
    }
    while let Some(ni) = w.untested.pop() {
        let node = &dt.nodes[ni as usize];
        if node.n == 0 || mac.accepts(node, g.center, g.bmax) {
            continue;
        }
        let leaf = match &node.children {
            DChildren::Nodes(kids) => {
                w.untested.extend_from_slice(kids);
                continue;
            }
            DChildren::LocalSubtree => continue,
            DChildren::RemoteLeaf if dt.body_cache.contains_key(&ni) => continue,
            DChildren::RemoteLeaf => true,
            DChildren::RemoteUnfetched => false,
        };
        w.missing.push(ni);
        if requested.insert(node.key.0) {
            let (cells, bodies) = wants.entry(node.owner).or_default();
            if leaf { bodies } else { cells }.push(node.key.0);
        }
    }
}

/// The emit stage: one uninterrupted depth-first traversal recording group
/// `gi`'s accepted sources into `list` (cleared first), returning the
/// walk's counts, pinned against the list. It walks the global nodes; at a
/// branch cell of this rank's own tree the one local walk
/// ([`walk_subtree`]) lists the subtree below it. Runs only once
/// [`resolve`] found everything it reaches resident, so the list is
/// written in the one canonical order whatever round its data arrived in.
fn emit<M: Moments>(
    dt: &DistTree<M>,
    mac: &Mac,
    gi: u32,
    list: &mut InteractionList<M>,
) -> WalkStats {
    list.clear();
    let mut stats = WalkStats::default();
    let local = &dt.local;
    let g = &local.cells[gi as usize];
    let (gc, gr, sinks, gn) = (g.center, g.bmax, g.span(), g.n);
    let mut stack = vec![dt.root];
    while let Some(ni) = stack.pop() {
        let node = &dt.nodes[ni as usize];
        if node.n == 0 {
            continue;
        }
        if mac.accepts(node, gc, gr) {
            list.push_pc(node.center, &node.moments);
            stats.pc += gn;
            continue;
        }
        match &node.children {
            DChildren::Nodes(kids) => {
                stats.opened += 1;
                stack.extend_from_slice(kids);
            }
            DChildren::LocalSubtree => match local.table.get(node.key) {
                Some(ci) => stats.merge(&walk_subtree(local, mac, gi, ci, list)),
                None => {
                    // Virtual branch (no resident cell): its particles live
                    // in a span of the local arrays, possibly aliasing the
                    // sink span — src_start lets the apply stage exclude
                    // self pairs. When the span *is* the sink span, count
                    // like the self-interaction case: gn·(len−1) pairs.
                    let span = dt.span_of(node.key);
                    if !span.is_empty() {
                        list.push_pp(
                            &local.pos[span.clone()],
                            &local.charge[span.clone()],
                            Some(span.start),
                        );
                        let len = span.len() as u64;
                        stats.pp += if span == sinks { gn * (len - 1) } else { gn * len };
                    }
                }
            },
            DChildren::RemoteLeaf => {
                let (bp, bq) = dt
                    .body_cache
                    .get(&ni)
                    // hot-lint: allow(unwrap-audit)
                    .expect("emit reached a remote leaf resolve left unfetched");
                list.push_pp(bp, bq, None);
                stats.pp += gn * bp.len() as u64;
            }
            DChildren::RemoteUnfetched => {
                unreachable!("emit reached a remote cell resolve left unfetched")
            }
        }
    }
    stats.pinned_to(list, &sinks, gi)
}

/// Install a body reply into the remote-leaf cache.
fn install_bodies<M: Moments>(dt: &mut DistTree<M>, key: u64, pairs: Vec<(Vec3, M::Charge)>) {
    let ni = dt
        .table
        .get(Key(key))
        // Protocol invariant: body replies match a prior request.
        // hot-lint: allow(unwrap-audit)
        .expect("body reply for unknown node");
    let mut pos = Vec::with_capacity(pairs.len());
    let mut charge = Vec::with_capacity(pairs.len());
    for (p, q) in pairs {
        pos.push(p);
        charge.push(q);
    }
    dt.body_cache.insert(ni, (pos, charge));
}

/// Serve one coalesced request: the children of every requested cell
/// key, then all requested leaf bodies. Replies are chunked into logical
/// messages of at most `limit` encoded bytes. The entire reply, chunk
/// boundaries included, is a pure function of the request and the owner's
/// local tree.
fn serve_batch<M: Moments>(
    dt: &DistTree<M>,
    ep: &mut Abm<'_>,
    src: u32,
    req: &KeyBatchRequest,
    limit: usize,
) {
    assert!(req.is_canonical(), "non-canonical key batch from rank {src}");
    if !req.cell_keys.is_empty() {
        let entries: Vec<(u64, Vec<DNode<M>>)> = req
            .cell_keys
            .iter()
            .map(|&k| (k, dt.children_nodes(Key(k)).unwrap_or_default()))
            .collect();
        post_chunked(ep, src, K_REP_CELL_BATCH, entries, limit);
    }
    if !req.body_keys.is_empty() {
        let entries: Vec<BodyBatchEntry<M>> = req
            .body_keys
            .iter()
            .map(|&k| {
                let (pos, charge) = dt.bodies_of(Key(k)).unwrap_or_default();
                (k, pos.into_iter().zip(charge).collect())
            })
            .collect();
        post_chunked(ep, src, K_REP_BODY_BATCH, entries, limit);
    }
}

/// One `K_REP_BODY_BATCH` entry: a leaf key and its `(position, charge)`
/// pairs.
type BodyBatchEntry<M> = (u64, Vec<(Vec3, <M as Moments>::Charge)>);

/// Post `entries` as one or more `kind` messages, greedily packing whole
/// entries up to `limit` encoded bytes per message (always at least one
/// entry per message). Entry order survives chunking because ABM delivery
/// is in-order per flow.
fn post_chunked<T: Wire>(ep: &mut Abm<'_>, dst: u32, kind: u16, entries: Vec<T>, limit: usize) {
    let mut chunk: Vec<T> = Vec::new();
    let mut size = 8usize; // the Vec length prefix
    for e in entries {
        let sz = e.wire_size();
        if !chunk.is_empty() && size + sz > limit {
            ep.post(dst, kind, &chunk);
            chunk.clear();
            size = 8;
        }
        size += sz;
        chunk.push(e);
    }
    if !chunk.is_empty() {
        ep.post(dst, kind, &chunk);
    }
}

/// The ABM handler: serves requests (replies chunked at `limit` bytes) and
/// installs replies, but never reactivates walks — reactivation waits for
/// the round boundary, which is what keeps request sets
/// schedule-independent.
fn make_batch_handler<M: Moments>(
    dt: &mut DistTree<M>,
    limit: usize,
) -> impl FnMut(&mut Abm<'_>, u32, u16, Bytes) + '_ {
    move |ep, src, kind, payload| match kind {
        K_REQ_BATCH => {
            let req: KeyBatchRequest = from_bytes(payload);
            serve_batch(dt, ep, src, &req, limit);
        }
        K_REP_CELL_BATCH => {
            let entries: Vec<(u64, Vec<DNode<M>>)> = from_bytes(payload);
            for (key, kids) in entries {
                dt.install_children(Key(key), kids);
            }
        }
        K_REP_BODY_BATCH => {
            let entries: Vec<BodyBatchEntry<M>> = from_bytes(payload);
            for (key, pairs) in entries {
                install_bodies(dt, key, pairs);
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
    use crate::ilist::Segment;
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
    /// coverage bits, walk counts, sorted group costs, and
    /// `[cell requests, body requests, request messages, rounds, parks]`;
    /// beside them, the rank's largest ready batch.
    type Forced = (Vec<u64>, WalkStats, Vec<(u32, u64)>, [u64; 5], usize);

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
            (bits, s.walk, s.group_costs, counts, biggest.get())
        });
        out.results
    }

    /// Ready batches computed on 2, 3 or 8 threads give the one-thread
    /// walk bit for bit — coverage, counts, group costs, requests, rounds
    /// and parks — on uniform and clustered bodies, in batches the public
    /// rule would fan out.
    #[test]
    fn dwalk_fan_out_is_bitwise_for_any_worker_count() {
        for np in [2, 4] {
            for clustered in [false, true] {
                let one = forced_workers_run(np, clustered, 1);
                let tag = format!("np={np} clustered={clustered}");
                let biggest: Vec<usize> = one.iter().map(|r| r.4).collect();
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
    /// no code with `resolve`/`emit`. Recursion order differs from the
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
            let node = &dt.nodes[ni as usize];
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
            if let DChildren::Nodes(kids) = &node.children {
                self.opened += 1;
                kids.iter().for_each(|&k| self.node(k));
                return;
            }
            // A branch: continue in its owner's tree. A branch carries its
            // cell's summary, so `cell` repeats the MAC test just failed.
            let remote = node.owner != dt.rank;
            let tree = if remote {
                &self.trees[node.owner as usize]
            } else {
                &dt.local
            };
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
            let groups = dt.local.groups(16);

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
                o.node(dt.root);
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
            let shallowest = dt
                .nodes
                .iter()
                .filter(|n| n.owner != rank && n.owner != crate::dtree::SHARED)
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
                for gi in dt.local.groups(16) {
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
}
