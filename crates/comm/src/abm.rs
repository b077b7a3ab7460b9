//! Asynchronous Batched Messages (ABM).
//!
//! From the paper: *"To avoid stalls during non-local data access, we
//! effectively do explicit 'context switching'. In order to manage the
//! complexities of the required asynchronous message traffic, we have
//! developed a paradigm called 'asynchronous batched messages (ABM)' built
//! from primitive send/recv functions whose interface is modeled after that
//! of active messages."*
//!
//! An [`Abm`] endpoint lets a rank *post* many small logical messages
//! (e.g. "send me cell K") that are packed into per-destination batches and
//! shipped only when a batch fills or is explicitly flushed. Incoming
//! batches are unpacked and dispatched to a handler, active-message style.
//! [`Abm::complete`] runs the exchange to global quiescence with a
//! double-count termination protocol, so irregular request/reply cascades
//! (tree walks!) terminate correctly without any a-priori knowledge of the
//! traffic pattern. Its waves are ABM messages too, and a rank serves its
//! peers while it waits for them.

use crate::runtime::Comm;
use crate::wire::{crc32, from_bytes, to_bytes, Wire};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;

/// Internal tag for ABM batch traffic.
pub(crate) const ABM_TAG: u32 = 0x9000_0000;

/// Kind of a termination wave's `(posted, delivered)` sums (see
/// [`Abm::complete`]): never handed to a handler, never counted in
/// [`AbmStats`]' logical fields.
const K_WAVE: u16 = u16::MAX;

/// Wire overhead of one logical ABM message: a `u16` kind plus a `u32`
/// payload length, written little-endian ahead of the payload. This is the
/// single source of truth for per-message ABM byte accounting — [`AbmStats`]
/// charges it per logical message, so a session's `bytes_posted` equals
/// *exactly* the message bytes packed into batches (pinned by the
/// `logical_bytes_reconcile_with_wire_traffic` test).
pub const ABM_MSG_HEADER_BYTES: u64 = 6;

/// Wire overhead of one physical ABM batch: a `u64` batch sequence number
/// and a `u32` CRC32 over the batch body, written little-endian ahead of
/// the packed messages. Batch bytes on the wire are therefore
/// `bytes_posted + ABM_BATCH_HEADER_BYTES × batches_sent` plus the waves'
/// messages — the wire reconciliation test pins this identity.
///
/// The sequence number makes re-delivered batches idempotently
/// suppressible, and the CRC is an end-to-end integrity check *above* the
/// transport's frame CRC: a corrupt batch reaching this layer means the
/// reliability machinery itself failed, which is a panic, not a retry.
pub const ABM_BATCH_HEADER_BYTES: u64 = 12;

/// Counters describing an ABM session.
///
/// `posted`/`delivered` and both byte counters are *logical* quantities: a
/// pure function of the message pattern, independent of arrival
/// interleaving. `batches_sent` and `waves` are not — they depend on when
/// flushes and work end relative to arrivals — so schedule-independent
/// consumers (the trace ledger) must use the logical fields only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbmStats {
    /// Logical messages posted by this rank.
    pub posted: u64,
    /// Logical messages handled by this rank.
    pub delivered: u64,
    /// Bytes posted (header + payload per logical message); sums to the
    /// batch bytes this rank sends on the wire.
    pub bytes_posted: u64,
    /// Bytes handled (header + payload per logical message); sums to the
    /// batch bytes this rank receives.
    pub bytes_delivered: u64,
    /// Physical batches sent (each one point-to-point message).
    /// Schedule-dependent; never compare across schedules.
    pub batches_sent: u64,
    /// Batches re-delivered with an already-consumed sequence number and
    /// suppressed. Always zero in normal operation — the transport dedups
    /// first — but the ABM layer defends end-to-end regardless.
    pub dup_batches: u64,
    /// Termination waves this rank took part in, two or three a
    /// [`Abm::complete`]; schedule-dependent like `batches_sent`.
    pub waves: u64,
}

/// An active-message endpoint over a [`Comm`].
pub struct Abm<'a> {
    comm: &'a mut Comm,
    batch_capacity: usize,
    /// Unsent bytes, kept only for destinations that have some: a flush
    /// visits those (ascending), and a rank holds no buffer per peer.
    out: BTreeMap<u32, BytesMut>,
    stats: AbmStats,
    /// Next batch sequence number per destination.
    out_seq: Vec<u64>,
    /// Next in-order batch sequence expected per source.
    in_expected: Vec<u64>,
    /// The current termination wave at this rank: its children's reports,
    /// summed, until it reports; then the machine's sums, once `verdict`.
    wave: Wave,
}

#[derive(Default)]
struct Wave {
    reports: u32,
    verdict: bool,
    sums: (u64, u64),
}

/// `rank`'s children in the wave tree over `np` ranks, a binomial tree
/// rooted at rank 0: `rank + 2^k` for each `2^k` below `rank`'s lowest set
/// bit. Rank `r > 0`'s parent is `r & (r - 1)`.
fn wave_children(rank: u32, np: u32) -> impl Iterator<Item = u32> {
    let below = if rank == 0 { np } else { rank & rank.wrapping_neg() };
    (0..u32::BITS)
        .map(|k| 1 << k)
        .take_while(move |&b| b < below && rank + b < np)
        .map(move |b| rank + b)
}

impl<'a> Abm<'a> {
    /// Create an endpoint. `batch_capacity` is the flush threshold in bytes;
    /// the paper's motivation is that fast-ethernet latency (hundreds of µs)
    /// dwarfs per-byte cost, so requests must be aggregated.
    pub fn new(comm: &'a mut Comm, batch_capacity: usize) -> Self {
        let np = comm.size() as usize;
        Abm {
            comm,
            batch_capacity: batch_capacity.max(16),
            out: BTreeMap::new(),
            stats: AbmStats::default(),
            out_seq: vec![0; np],
            in_expected: vec![0; np],
            wave: Wave::default(),
        }
    }

    /// This rank.
    pub fn rank(&self) -> u32 {
        self.comm.rank()
    }

    /// Machine size.
    pub fn size(&self) -> u32 {
        self.comm.size()
    }

    /// Session counters.
    pub fn stats(&self) -> AbmStats {
        self.stats
    }

    /// Post a logical message of `kind` to `dst`. Local destinations are
    /// legal and loop back through the same dispatch path. Kind `u16::MAX`
    /// is the waves'.
    pub fn post<T: Wire>(&mut self, dst: u32, kind: u16, payload: &T) {
        assert_ne!(kind, K_WAVE, "ABM kind {kind} is reserved for termination");
        let data = to_bytes(payload);
        self.stats.posted += 1;
        self.stats.bytes_posted += ABM_MSG_HEADER_BYTES + data.len() as u64;
        if self.enqueue(dst, kind, &data) >= self.batch_capacity {
            self.flush_one(dst);
        }
    }

    /// Append one message of `kind` to `dst`'s pending batch; returns the
    /// batch's length.
    fn enqueue(&mut self, dst: u32, kind: u16, data: &[u8]) -> usize {
        let buf = self.out.entry(dst).or_default();
        buf.put_u16_le(kind);
        buf.put_u32_le(data.len() as u32);
        buf.put_slice(data);
        buf.len()
    }

    /// Ship the pending batch for `dst`, if any, framed with its sequence
    /// number and a CRC32 over the body.
    pub fn flush_one(&mut self, dst: u32) {
        let Some(body) = self.out.remove(&dst) else {
            return;
        };
        let body = body.freeze();
        let seq = self.out_seq[dst as usize];
        self.out_seq[dst as usize] += 1;
        let mut framed = BytesMut::with_capacity(ABM_BATCH_HEADER_BYTES as usize + body.len());
        framed.put_u64_le(seq);
        framed.put_u32_le(crc32(&body));
        framed.put_slice(&body);
        self.stats.batches_sent += 1;
        self.comm.send_bytes(dst, ABM_TAG, framed.freeze());
    }

    /// Ship every pending batch, in ascending destination order.
    pub fn flush_all(&mut self) {
        while let Some(&dst) = self.out.keys().next() {
            self.flush_one(dst);
        }
    }

    /// Dispatch at most one incoming batch through `handler`. Returns the
    /// number of logical messages handled (0 when nothing was waiting).
    #[cfg(test)]
    fn poll_once(&mut self, handler: &mut impl FnMut(&mut Abm<'_>, u32, u16, Bytes)) -> u64 {
        self.dispatch(false, handler).unwrap_or(0)
    }

    /// Ship every pending batch, then sleep in the runtime until a batch
    /// arrives and dispatch it through `handler`.
    ///
    /// The handler receives `(endpoint, source, kind, payload)` and may post
    /// replies — that is the active-message pattern the tree walk uses.
    pub fn wait_once(&mut self, handler: &mut impl FnMut(&mut Abm<'_>, u32, u16, Bytes)) {
        self.flush_all();
        self.dispatch(true, handler);
    }

    /// Take one incoming batch, blocking until one arrives when `block`,
    /// and hand its messages to `handler`, a wave's to [`Abm::complete`].
    /// `None` when nothing was waiting, else the logical messages handled.
    ///
    /// Kept out of line: inlined, it pulled the distributed walk's round
    /// loop out of its caller, which deepened every rank fiber's stack
    /// (`dist_fine` peak RSS 37.6 → 38.0 MiB).
    #[inline(never)]
    fn dispatch(
        &mut self,
        block: bool,
        handler: &mut impl FnMut(&mut Abm<'_>, u32, u16, Bytes),
    ) -> Option<u64> {
        let (src, mut cursor) = loop {
            let (src, batch) = if block {
                self.comm.recv_bytes(None, ABM_TAG)
            } else {
                self.comm.try_recv_bytes(None, ABM_TAG)?
            };
            let mut cursor = batch;
            assert!(
                cursor.remaining() >= ABM_BATCH_HEADER_BYTES as usize,
                "ABM batch from rank {src} shorter than its header"
            );
            let seq = cursor.get_u64_le();
            let stored_crc = cursor.get_u32_le();
            // End-to-end integrity above the transport's frame CRC: a bad
            // batch here means reliability itself is broken — a bug, not a
            // wire fault to retry.
            assert_eq!(
                crc32(&cursor),
                stored_crc,
                "ABM batch {seq} from rank {src} failed its CRC past the reliable transport"
            );
            let s = src as usize;
            let expected = self.in_expected[s];
            if seq < expected {
                // Re-delivered batch: already consumed, idempotently skip.
                self.stats.dup_batches += 1;
                continue;
            }
            assert_eq!(
                seq, expected,
                "ABM batch gap from rank {src}: got {seq}, expected {expected} \
                 (transport lost a batch)"
            );
            self.in_expected[s] = expected + 1;
            break (src, cursor);
        };
        let mut handled = 0;
        let mut handled_bytes = 0;
        while cursor.has_remaining() {
            let kind = cursor.get_u16_le();
            let len = cursor.get_u32_le() as usize;
            let payload = cursor.split_to(len);
            if kind == K_WAVE {
                // Children report from above this rank, the parent's
                // verdict comes from below.
                let (posted, delivered): (u64, u64) = from_bytes(payload);
                let w = &mut self.wave;
                w.sums = (w.sums.0 + posted, w.sums.1 + delivered);
                w.reports += u32::from(src > self.comm.rank());
                w.verdict |= src < self.comm.rank();
                continue;
            }
            handled_bytes += ABM_MSG_HEADER_BYTES + len as u64;
            handler(self, src, kind, payload);
            handled += 1;
        }
        self.stats.delivered += handled;
        self.stats.bytes_delivered += handled_bytes;
        Some(handled)
    }

    /// Run the exchange to global quiescence, serving `handler` throughout,
    /// and return once every message posted machine-wide — handlers'
    /// replies included — has been delivered and none can follow.
    ///
    /// Every rank calls it once, when its own work is done; it may enter
    /// while peers still need its replies. The termination is Mattern's
    /// double count in waves of `(posted, delivered)` sums, up a binomial
    /// tree to rank 0 and back down as [`K_WAVE`] messages, until two
    /// consecutive waves agree with nothing in flight: two waves or three
    /// (DESIGN.md, "One termination step"). Ranks return at different
    /// times, and a rank still inside takes every ABM batch that lands, so
    /// a following session on the same [`Comm`] may post only after a
    /// collective no rank leaves before all have entered it (a barrier,
    /// allreduce, allgather or alltoall).
    pub fn complete(&mut self, mut handler: impl FnMut(&mut Abm<'_>, u32, u16, Bytes)) {
        let (rank, np) = (self.rank(), self.size());
        let children = wave_children(rank, np).count() as u32;
        let mut last = None;
        loop {
            // Serve, flushing replies as they are posted, until every child
            // has reported and nothing more has arrived.
            self.flush_all();
            while self.dispatch(self.wave.reports < children, &mut handler).is_some() {
                self.flush_all();
            }
            let (posted, delivered) = std::mem::take(&mut self.wave).sums;
            let mut sums = (posted + self.stats.posted, delivered + self.stats.delivered);
            self.stats.waves += 1;
            if rank > 0 {
                self.send_wave(rank & (rank - 1), sums);
                while !self.wave.verdict {
                    self.wait_once(&mut handler);
                }
                sums = std::mem::take(&mut self.wave).sums;
            }
            for child in wave_children(rank, np) {
                self.send_wave(child, sums);
            }
            if last.replace(sums) == Some(sums) && sums.0 == sums.1 {
                return;
            }
        }
    }

    /// Send one wave message to `dst` at once.
    fn send_wave(&mut self, dst: u32, sums: (u64, u64)) {
        self.enqueue(dst, K_WAVE, &to_bytes(&sums));
        self.flush_one(dst);
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::RunConfig;
    use super::*;

    /// Every rank asks every other rank to echo a value; replies must all
    /// arrive before `complete()` returns.
    #[test]
    fn request_reply_to_quiescence() {
        const REQ: u16 = 1;
        const REP: u16 = 2;
        for np in [1u32, 2, 4, 6] {
            let out = RunConfig::builder().np(np).run(|c| {
                let rank = c.rank();
                let np = c.size();
                let mut got = vec![0u64; np as usize];
                let mut abm = Abm::new(c, 64);
                for dst in 0..np {
                    abm.post(dst, REQ, &(rank as u64 * 1000));
                }
                {
                    let got = &mut got;
                    abm.complete(move |ep, src, kind, payload| match kind {
                        REQ => {
                            let v: u64 = crate::wire::from_bytes(payload);
                            ep.post(src, REP, &(v + ep.rank() as u64));
                        }
                        REP => {
                            let v: u64 = crate::wire::from_bytes(payload);
                            got[src as usize] = v;
                        }
                        _ => unreachable!(),
                    });
                }
                got
            });
            for (me, got) in out.results.iter().enumerate() {
                for (src, &v) in got.iter().enumerate() {
                    assert_eq!(v, me as u64 * 1000 + src as u64, "np={np} me={me} src={src}");
                }
            }
        }
    }

    /// Handlers that spawn further requests (multi-hop cascades) still
    /// terminate: rank 0 asks 1, 1 asks 2, ... n-1 answers.
    #[test]
    fn cascading_requests_terminate() {
        const HOP: u16 = 7;
        let np = 5u32;
        let out = RunConfig::builder().np(np).run(|c| {
            let np = c.size();
            let mut final_value = 0u64;
            let mut abm = Abm::new(c, 32);
            if abm.rank() == 0 {
                abm.post(1 % np, HOP, &1u64);
            }
            {
                let fv = &mut final_value;
                abm.complete(move |ep, _src, kind, payload| {
                    assert_eq!(kind, HOP);
                    let v: u64 = crate::wire::from_bytes(payload);
                    let next = (ep.rank() + 1) % ep.size();
                    if v < 20 {
                        ep.post(next, HOP, &(v + 1));
                    } else {
                        *fv = v;
                    }
                });
            }
            final_value
        });
        // The chain runs 1..=20; whoever handled hop 20 recorded it.
        let total: u64 = out.results.iter().sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn batching_reduces_physical_messages() {
        let np = 2u32;
        let out = RunConfig::builder().np(np).run(|c| {
            let mut abm = Abm::new(c, 1 << 20); // huge batches: one flush
            if abm.rank() == 0 {
                for i in 0..1000u64 {
                    abm.post(1, 3, &i);
                }
            }
            let mut count = 0u64;
            {
                let count = &mut count;
                abm.complete(move |_, _, _, _| *count += 1);
            }
            (abm.stats(), count)
        });
        let (s0, _) = out.results[0];
        let (s1, c1) = out.results[1];
        assert_eq!(c1, 1000);
        assert_eq!(s0.posted, 1000);
        // Beside the posts' batch, rank 0 sends each wave's verdict.
        assert_eq!(s0.batches_sent - s0.waves, 1, "all posts must ride one batch");
        assert_eq!(s1.delivered, 1000);
    }

    #[test]
    fn small_batch_capacity_flushes_eagerly() {
        let out = RunConfig::builder().np(2).run(|c| {
            let mut abm = Abm::new(c, 16);
            if abm.rank() == 0 {
                for i in 0..10u64 {
                    abm.post(1, 1, &i);
                }
            }
            abm.complete(|_, _, _, _| {});
            abm.stats()
        });
        assert!(out.results[0].batches_sent > 1, "tiny capacity must produce several batches");
    }

    /// `flush_all` visits only destinations with pending bytes — k batches
    /// for k of np destinations, however they were posted — in ascending
    /// order, and leaves nothing pending.
    #[test]
    fn flush_all_sends_one_batch_per_pending_destination_ascending() {
        let out = RunConfig::builder().np(8).run(|c| {
            let before = c.stats();
            let mut abm = Abm::new(c, 1 << 20);
            if abm.rank() == 0 {
                for dst in [5u32, 1, 3, 5] {
                    abm.post(dst, 2, &u64::from(dst));
                }
                // What flush_all walks, in the order it walks it.
                assert_eq!(abm.out.keys().copied().collect::<Vec<_>>(), [1, 3, 5]);
                abm.flush_all();
                let sent = abm.comm.stats().since(&before).sends;
                assert_eq!((sent, abm.stats().batches_sent), (3, 3));
                assert_eq!(abm.out_seq, [0, 1, 0, 1, 0, 1, 0, 0]);
                assert!(abm.out.is_empty());
                abm.flush_all();
                assert_eq!(abm.stats().batches_sent, 3, "nothing pending, nothing sent");
            }
            let mut got = Vec::new();
            abm.complete(|_, _, _, payload| got.push(crate::wire::from_bytes::<u64>(payload)));
            got
        });
        assert_eq!(out.results[5], [5, 5]);
        assert_eq!(out.results[2], [0u64; 0]);
    }

    /// The byte-accounting contract: logical `bytes_posted` (header +
    /// payload per message) equals exactly the batch bytes the `Comm`
    /// counted on the wire — one source of truth for the trace ledger and
    /// the machine comm-cost model.
    #[test]
    fn logical_bytes_reconcile_with_wire_traffic() {
        let out = RunConfig::builder().np(2).run(|c| {
            let before = c.stats();
            let mut abm = Abm::new(c, 64); // small capacity: several batches
            let n = 37u64;
            if abm.rank() == 0 {
                for i in 0..n {
                    abm.post(1, 5, &(i, i as f64)); // 16-byte payload
                }
            }
            abm.complete(|_, _, _, _| {});
            let stats = abm.stats();
            let wire = abm.comm.stats().since(&before);
            (stats, wire)
        });
        let expect = 37 * (ABM_MSG_HEADER_BYTES + 16);
        let (s0, s1) = (out.results[0].0, out.results[1].0);
        assert_eq!(s0.bytes_posted, expect);
        assert_eq!(s1.bytes_delivered, expect);
        assert_eq!(s1.bytes_posted, 0);
        // Every message on the wire is an ABM batch: no collective runs.
        // Batches carry every posted byte plus one 12-byte seq/CRC header
        // each, and the termination: at np = 2 each rank sends one wave
        // message a wave (rank 1 its report, rank 0 the verdict), a 6-byte
        // header and 16 bytes of sums.
        for (s, wire) in out.results {
            assert_eq!(wire.sends, s.batches_sent);
            let waves = (ABM_MSG_HEADER_BYTES + 16) * s.waves;
            assert_eq!(wire.bytes_sent, s.bytes_posted + ABM_BATCH_HEADER_BYTES * s.batches_sent + waves);
            assert!((2..=3).contains(&s.waves), "{} waves", s.waves);
        }
    }

    /// The wave tree is a binomial tree over every rank: each rank but 0
    /// is the child of exactly its parent `r & (r - 1)`, and no child is
    /// out of range.
    #[test]
    fn wave_tree_spans_every_rank_once() {
        for np in [1u32, 2, 3, 5, 8, 13, 64, 100, 1024, 6800] {
            let mut parent = vec![None; np as usize];
            for r in 0..np {
                for c in wave_children(r, np) {
                    assert!(c < np && parent[c as usize].replace(r).is_none(), "np={np}: child {c} of {r}");
                }
            }
            assert_eq!(parent[0], None, "np={np}");
            for r in 1..np {
                assert_eq!(parent[r as usize], Some(r & (r - 1)), "np={np}: rank {r}");
            }
        }
    }

    /// A batch wearing an already-consumed sequence number must be
    /// suppressed without re-dispatching its messages — the ABM layer's
    /// own idempotency, independent of the transport's.
    #[test]
    fn duplicate_batches_are_suppressed() {
        let out = RunConfig::builder().np(2).run(|c| {
            if c.rank() == 0 {
                // Hand-build one batch (seq 0, CRC over body) and deliver
                // it twice, bypassing the Abm sender's sequencing.
                let mut body = BytesMut::new();
                body.put_u16_le(4);
                body.put_u32_le(8);
                body.put_u64_le(777);
                let body = body.freeze();
                let mut batch = BytesMut::new();
                batch.put_u64_le(0);
                batch.put_u32_le(crc32(&body));
                batch.put_slice(&body);
                let batch = batch.freeze();
                c.send_bytes(1, ABM_TAG, batch.clone());
                c.send_bytes(1, ABM_TAG, batch);
                0u64
            } else {
                let mut got = 0u64;
                let mut abm = Abm::new(c, 64);
                {
                    let got = &mut got;
                    let mut handler = move |_: &mut Abm<'_>, _: u32, _: u16, payload: Bytes| {
                        *got += crate::wire::from_bytes::<u64>(payload);
                    };
                    // First poll dispatches the batch; the second must see
                    // the replay and suppress it.
                    while abm.poll_once(&mut handler) == 0 {
                        std::hint::spin_loop();
                    }
                    assert_eq!(abm.poll_once(&mut handler), 0);
                }
                assert_eq!(abm.stats().dup_batches, 1);
                assert_eq!(abm.stats().delivered, 1);
                got
            }
        });
        assert_eq!(out.results[1], 777);
    }

    /// A corrupt batch reaching the ABM layer is a reliability failure,
    /// not a wire fault: it must panic loudly instead of mis-dispatching.
    #[test]
    fn corrupt_batch_panics_past_the_transport() {
        let result = std::panic::catch_unwind(|| {
            RunConfig::builder().np(2).run(|c| {
                if c.rank() == 0 {
                    let mut batch = BytesMut::new();
                    batch.put_u64_le(0); // seq
                    batch.put_u32_le(0xBAD_F00D); // wrong CRC for the body
                    batch.put_u16_le(1);
                    batch.put_u32_le(0);
                    c.send_bytes(1, ABM_TAG, batch.freeze());
                } else {
                    let mut abm = Abm::new(c, 64);
                    let mut handler = |_: &mut Abm<'_>, _: u32, _: u16, _: Bytes| {};
                    while abm.poll_once(&mut handler) == 0 {
                        std::hint::spin_loop();
                    }
                }
            });
        });
        assert!(result.is_err(), "corrupt batch must panic");
    }

    #[test]
    fn self_posts_loop_back() {
        let out = RunConfig::builder().np(1).run(|c| {
            let mut seen = Vec::new();
            let mut abm = Abm::new(c, 8);
            abm.post(0, 9, &42u32);
            abm.post(0, 9, &43u32);
            {
                let seen = &mut seen;
                abm.complete(move |_, src, _, payload| {
                    assert_eq!(src, 0);
                    seen.push(crate::wire::from_bytes::<u32>(payload));
                });
            }
            seen
        });
        assert_eq!(out.results[0], vec![42, 43]);
    }
}
