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
//! traffic pattern.

use crate::runtime::Comm;
use crate::wire::{crc32, to_bytes, Wire};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeSet;

/// Internal tag for ABM batch traffic.
pub(crate) const ABM_TAG: u32 = 0x9000_0000;

/// Wire overhead of one logical ABM message: a `u16` kind plus a `u32`
/// payload length, written little-endian ahead of the payload. This is the
/// single source of truth for per-message ABM byte accounting — [`AbmStats`]
/// charges it per logical message, so a session's `bytes_posted` equals
/// *exactly* the message bytes packed into batches (pinned by the
/// `logical_bytes_reconcile_with_wire_traffic` test).
pub const ABM_MSG_HEADER_BYTES: u64 = 6;

/// Wire overhead of one physical ABM batch: a `u64` batch sequence number,
/// a `u64` piggybacked cumulative ack, and a `u32` CRC32 over the batch
/// body, written little-endian ahead of the packed messages. Batch bytes
/// on the wire are therefore
/// `bytes_posted + ABM_BATCH_HEADER_BYTES × batches_sent` — the wire
/// reconciliation test pins this identity.
///
/// The sequence number makes re-delivered batches idempotently
/// suppressible, the ack word records how far the sender has consumed its
/// peer's batch stream (nothing reads it back), and the CRC is an
/// end-to-end integrity check *above* the transport's frame CRC: a
/// corrupt batch reaching this layer means the reliability machinery
/// itself failed, which is a panic, not a retry.
pub const ABM_BATCH_HEADER_BYTES: u64 = 20;

/// Counters describing an ABM session.
///
/// `posted`/`delivered` and both byte counters are *logical* quantities: a
/// pure function of the message pattern, independent of arrival
/// interleaving. `batches_sent` is not — batch boundaries depend on when
/// flushes trigger relative to arrivals — so schedule-independent consumers
/// (the trace ledger) must use the logical fields only.
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
}

/// An active-message endpoint over a [`Comm`].
pub struct Abm<'a> {
    comm: &'a mut Comm,
    batch_capacity: usize,
    out: Vec<BytesMut>,
    /// Destinations whose `out` buffer holds unsent bytes, so a flush
    /// visits only those (ascending) instead of all `np`.
    pending: BTreeSet<u32>,
    stats: AbmStats,
    /// Next batch sequence number per destination.
    out_seq: Vec<u64>,
    /// Next in-order batch sequence expected per source; doubles as the
    /// cumulative ack piggybacked on outgoing batches.
    in_expected: Vec<u64>,
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
            out: (0..np).map(|_| BytesMut::new()).collect(),
            pending: BTreeSet::new(),
            stats: AbmStats::default(),
            out_seq: vec![0; np],
            in_expected: vec![0; np],
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

    /// Direct access to the underlying communicator, for callers that
    /// interleave collectives with ABM traffic (e.g. custom termination
    /// protocols). Messages already queued in ABM batches are unaffected.
    pub fn comm_mut(&mut self) -> &mut Comm {
        self.comm
    }

    /// Post a logical message of `kind` to `dst`. Local destinations are
    /// legal and loop back through the same dispatch path.
    pub fn post<T: Wire>(&mut self, dst: u32, kind: u16, payload: &T) {
        let data = to_bytes(payload);
        let buf = &mut self.out[dst as usize];
        if buf.is_empty() {
            self.pending.insert(dst);
        }
        buf.put_u16_le(kind);
        buf.put_u32_le(data.len() as u32);
        buf.put_slice(&data);
        self.stats.posted += 1;
        self.stats.bytes_posted += ABM_MSG_HEADER_BYTES + data.len() as u64;
        if buf.len() >= self.batch_capacity {
            self.flush_one(dst);
        }
    }

    /// Ship the pending batch for `dst`, if any, framed with its sequence
    /// number, a piggybacked cumulative ack, and a CRC32 over the body.
    pub fn flush_one(&mut self, dst: u32) {
        let buf = &mut self.out[dst as usize];
        if buf.is_empty() {
            return;
        }
        self.pending.remove(&dst);
        let body = buf.split().freeze();
        let seq = self.out_seq[dst as usize];
        self.out_seq[dst as usize] += 1;
        let mut framed = BytesMut::with_capacity(ABM_BATCH_HEADER_BYTES as usize + body.len());
        framed.put_u64_le(seq);
        framed.put_u64_le(self.in_expected[dst as usize]);
        framed.put_u32_le(crc32(&body));
        framed.put_slice(&body);
        self.stats.batches_sent += 1;
        self.comm.send_bytes(dst, ABM_TAG, framed.freeze());
    }

    /// Ship every pending batch, in ascending destination order.
    pub fn flush_all(&mut self) {
        while let Some(dst) = self.pending.first().copied() {
            self.flush_one(dst);
        }
    }

    /// Dispatch at most one incoming batch through `handler`. Returns the
    /// number of logical messages handled (0 when nothing was waiting).
    ///
    /// The handler receives `(endpoint, source, kind, payload)` and may post
    /// replies — that is the active-message pattern the tree walk uses.
    ///
    /// Kept out of line: inlined, it pulled the distributed walk's round
    /// loop out of its caller, which deepened every rank fiber's stack
    /// (`dist_fine` peak RSS 37.6 → 38.0 MiB).
    #[inline(never)]
    pub fn poll_once(
        &mut self,
        handler: &mut impl FnMut(&mut Abm<'_>, u32, u16, Bytes),
    ) -> u64 {
        let (src, mut cursor) = loop {
            let Some((src, batch)) = self.comm.try_recv_bytes(None, ABM_TAG) else {
                return 0;
            };
            let mut cursor = batch;
            assert!(
                cursor.remaining() >= ABM_BATCH_HEADER_BYTES as usize,
                "ABM batch from rank {src} shorter than its header"
            );
            let seq = cursor.get_u64_le();
            cursor.advance(8); // the piggybacked ack
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
            handled_bytes += ABM_MSG_HEADER_BYTES + len as u64;
            handler(self, src, kind, payload);
            handled += 1;
        }
        self.stats.delivered += handled;
        self.stats.bytes_delivered += handled_bytes;
        handled
    }

    /// Drain all immediately available batches.
    pub fn poll(&mut self, handler: &mut impl FnMut(&mut Abm<'_>, u32, u16, Bytes)) -> u64 {
        let mut n = 0;
        loop {
            let h = self.poll_once(handler);
            if h == 0 {
                return n;
            }
            n += h;
        }
    }

    /// Run the exchange to global quiescence: flush, dispatch, and repeat
    /// until every posted message (including those posted by handlers while
    /// handling) has been delivered machine-wide and a full round passes
    /// with no new traffic (double-count termination detection).
    ///
    /// Every rank must call `complete` with its own handler; the call
    /// returns on all ranks together.
    ///
    /// Caveat: every rank must *enter* `complete` without requiring
    /// further service from its peers first — `complete` blocks in a
    /// collective between drain rounds, during which a rank serves
    /// nothing. Callers whose progress depends on replies (like the tree
    /// walk) must instead interleave their own work with the drain/count
    /// rounds; see `hot-core::dwalk` for that pattern.
    pub fn complete(&mut self, mut handler: impl FnMut(&mut Abm<'_>, u32, u16, Bytes)) {
        let mut prev = (u64::MAX, u64::MAX);
        loop {
            // Dispatch until locally quiet, flushing replies as they are
            // posted so partners can make progress.
            loop {
                self.flush_all();
                if self.poll(&mut handler) == 0 {
                    break;
                }
            }
            let posted = self.stats.posted;
            let delivered = self.stats.delivered;
            let totals = self.comm.allreduce((posted, delivered), |a, b| (a.0 + b.0, a.1 + b.1));
            if totals.0 == totals.1 && totals == prev {
                return;
            }
            prev = totals;
        }
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
        assert_eq!(s0.batches_sent, 1, "all posts must ride one batch");
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
                assert_eq!(abm.pending.iter().copied().collect::<Vec<_>>(), [1, 3, 5]);
                abm.flush_all();
                let sent = abm.comm_mut().stats().since(&before).sends;
                assert_eq!((sent, abm.stats().batches_sent), (3, 3));
                assert_eq!(abm.out_seq, [0, 1, 0, 1, 0, 1, 0, 0]);
                assert!(abm.pending.is_empty());
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
            let wire = abm.comm_mut().stats().since(&before);
            (stats, wire)
        });
        let (s0, w0) = out.results[0];
        let (s1, w1) = out.results[1];
        let expect = 37 * (ABM_MSG_HEADER_BYTES + 16);
        assert_eq!(s0.bytes_posted, expect);
        assert_eq!(s1.bytes_delivered, expect);
        assert_eq!(s1.bytes_posted, 0);
        // Wire traffic = ABM batches + the termination allreduce. Subtract
        // the collective's own bytes (16 per allreduce message) by counting
        // only the ABM-tag bytes: batches carry every posted byte plus one
        // 20-byte seq/ack/CRC batch header each, nothing more. The
        // allreduce sends 16-byte tuples, so bytes on the wire minus
        // 16×(collective msgs) minus the batch headers must equal
        // bytes_posted exactly.
        let coll_msgs0 = w0.sends - s0.batches_sent;
        assert_eq!(
            w0.bytes_sent - 16 * coll_msgs0 - ABM_BATCH_HEADER_BYTES * s0.batches_sent,
            s0.bytes_posted
        );
        let coll_msgs1 = w1.sends - s1.batches_sent;
        assert_eq!(
            w1.bytes_sent - 16 * coll_msgs1 - ABM_BATCH_HEADER_BYTES * s1.batches_sent,
            s1.bytes_posted
        );
    }

    /// A batch wearing an already-consumed sequence number must be
    /// suppressed without re-dispatching its messages — the ABM layer's
    /// own idempotency, independent of the transport's.
    #[test]
    fn duplicate_batches_are_suppressed() {
        let out = RunConfig::builder().np(2).run(|c| {
            if c.rank() == 0 {
                // Hand-build one batch (seq 0, ack 0, CRC over body) and
                // deliver it twice, bypassing the Abm sender's sequencing.
                let mut body = BytesMut::new();
                body.put_u16_le(4);
                body.put_u32_le(8);
                body.put_u64_le(777);
                let body = body.freeze();
                let mut batch = BytesMut::new();
                batch.put_u64_le(0);
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
                    batch.put_u64_le(0); // ack
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
