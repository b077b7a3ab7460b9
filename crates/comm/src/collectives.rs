//! Collective operations built from point-to-point messages.
//!
//! Implementing collectives *on top of* send/recv (binomial trees,
//! dissemination barriers, ring all-gathers) rather than as runtime magic
//! keeps the traffic counters honest: the machine models see exactly the
//! messages a 1997 MPI implementation would have put on the wire.
//!
//! Tag discipline: every collective uses tags above
//! [`crate::runtime::MAX_USER_TAG`]. Because each (sender, receiver, tag)
//! stream is FIFO and every rank participates in collectives in the same
//! order, consecutive collectives of the same kind cannot interfere.

use crate::runtime::Comm;
use crate::wire::{from_bytes, to_bytes, Wire};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const COLL_BASE: u32 = 0x8000_0000;
pub(crate) const TAG_BARRIER: u32 = COLL_BASE;
pub(crate) const TAG_BCAST: u32 = COLL_BASE + 0x100;
pub(crate) const TAG_REDUCE: u32 = COLL_BASE + 0x200;
pub(crate) const TAG_GATHER: u32 = COLL_BASE + 0x300;
pub(crate) const TAG_ALLGATHER_RING: u32 = COLL_BASE + 0x400;
pub(crate) const TAG_ALLTOALL: u32 = COLL_BASE + 0x500;
pub(crate) const TAG_ALLGATHER_BRUCK: u32 = COLL_BASE + 0x600;

/// Machine size at which [`Comm::allgather`] switches from the ring (the
/// bandwidth-optimal pattern for the paper's switched-ethernet
/// Loki/Hyglac class) to the Bruck log-round algorithm (latency-bound big
/// machines). Allgather is the one collective with two shapes — barrier,
/// bcast, reduce and allreduce are O(log p) throughout — and the two are
/// *bitwise equivalent*: allgather moves bits, it never combines them, so
/// switching by machine size perturbs no result. Every golden and
/// pinned-traffic test runs below this bound, so their wire footprints
/// are those of the ring.
pub const AUTO_TREE_MIN_NP: u32 = 16;

impl Comm {
    /// Dissemination barrier: `ceil(log2 np)` rounds, each rank sends one
    /// empty message per round.
    pub fn barrier(&mut self) {
        let np = self.size();
        if np == 1 {
            return;
        }
        let mut k = 0u32;
        let mut dist = 1u32;
        while dist < np {
            let dst = (self.rank() + dist) % np;
            let src = (self.rank() + np - dist % np) % np;
            self.send(dst, TAG_BARRIER + k, &());
            let _: () = self.recv(src, TAG_BARRIER + k);
            dist <<= 1;
            k += 1;
        }
    }

    /// Binomial-tree broadcast from `root`. Non-root ranks pass a value that
    /// is replaced; the returned value is the root's on every rank.
    pub fn bcast<T: Wire>(&mut self, root: u32, v: T) -> T {
        self.bcast_from(root, Some(v))
    }

    /// The one broadcast body. `v` may be `None` on a non-root rank with
    /// no value of its own (`allreduce`'s); the root must pass `Some`.
    fn bcast_from<T: Wire>(&mut self, root: u32, mut v: Option<T>) -> T {
        let np = self.size();
        let rel = (self.rank() + np - root) % np;
        // Receive phase: my parent owns the subtree whose id clears my
        // lowest set bit.
        let mut mask = 1u32;
        while mask < np {
            if rel & mask != 0 {
                let src = (self.rank() + np - mask) % np;
                v = Some(self.recv(src, TAG_BCAST));
                break;
            }
            mask <<= 1;
        }
        let v = v.expect("the root passes a value, every other rank receives one");
        // Forward phase: send to children below my lowest set bit.
        mask >>= 1;
        while mask > 0 {
            if rel + mask < np {
                let dst = (self.rank() + mask) % np;
                self.send(dst, TAG_BCAST, &v);
            }
            mask >>= 1;
        }
        v
    }

    /// Binomial-tree reduction to `root` with an arbitrary associative,
    /// commutative combiner. Returns `Some(total)` on the root, `None`
    /// elsewhere.
    pub fn reduce<T: Wire>(&mut self, root: u32, v: T, op: impl Fn(T, T) -> T) -> Option<T> {
        let np = self.size();
        if np == 1 {
            return Some(v);
        }
        let rel = (self.rank() + np - root) % np;
        let mut acc = v;
        let mut mask = 1u32;
        while mask < np {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < np {
                    let src = (src_rel + root) % np;
                    let other: T = self.recv(src, TAG_REDUCE);
                    acc = op(acc, other);
                }
            } else {
                let dst = (self.rank() + np - mask) % np;
                self.send(dst, TAG_REDUCE, &acc);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Reduce-to-zero followed by broadcast: every rank gets the total.
    pub fn allreduce<T: Wire + Clone>(&mut self, v: T, op: impl Fn(T, T) -> T) -> T {
        let total = self.reduce(0, v, op);
        self.bcast_from(0, total)
    }

    /// Sum-allreduce for `f64`.
    pub fn allreduce_sum_f64(&mut self, v: f64) -> f64 {
        self.allreduce(v, |a, b| a + b)
    }

    /// Sum-allreduce for `u64`.
    pub fn allreduce_sum_u64(&mut self, v: u64) -> u64 {
        self.allreduce(v, |a, b| a + b)
    }

    /// Max-allreduce for `f64`.
    pub fn allreduce_max_f64(&mut self, v: f64) -> f64 {
        self.allreduce(v, f64::max)
    }

    /// Element-wise sum-allreduce of equal-length vectors.
    pub fn allreduce_sum_vec_f64(&mut self, v: Vec<f64>) -> Vec<f64> {
        self.allreduce(v, |mut a, b| {
            assert_eq!(a.len(), b.len(), "allreduce vector length mismatch");
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        })
    }

    /// Gather per-rank values to `root`, indexed by rank. `None` elsewhere.
    pub fn gather<T: Wire>(&mut self, root: u32, v: T) -> Option<Vec<T>> {
        let np = self.size();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..np).map(|_| None).collect();
            out[root as usize] = Some(v);
            // One message *per peer*: a non-root sends and leaves, so it may
            // be calls ahead, and its next contribution must stay queued.
            self.recv_each(TAG_GATHER, &mut |src, data| {
                out[src as usize] = Some(from_bytes(data));
            });
            Some(out.into_iter().map(|o| o.expect("every rank gathered")).collect())
        } else {
            self.send(root, TAG_GATHER, &v);
            None
        }
    }

    /// All ranks obtain every rank's value, indexed by rank. Dispatches on
    /// machine size: the np−1-step ring ([`Comm::allgather_ring`]) below
    /// [`AUTO_TREE_MIN_NP`] ranks, the ⌈log₂ np⌉-round Bruck doubling
    /// algorithm ([`Comm::allgather_bruck`]) from there up. Both produce
    /// bitwise identical results — allgather is pure data movement.
    pub fn allgather<T: Wire + Clone>(&mut self, v: T) -> Vec<T> {
        if self.size() >= AUTO_TREE_MIN_NP {
            self.allgather_bruck(v)
        } else {
            self.allgather_ring(v)
        }
    }

    /// Ring allgather: np−1 steps, each rank forwarding to its right
    /// neighbour the block it received the step before — the
    /// bandwidth-optimal pattern for switched ethernet, and the linear
    /// reference the Bruck algorithm is checked bitwise against.
    pub fn allgather_ring<T: Wire + Clone>(&mut self, v: T) -> Vec<T> {
        let np = self.size();
        let mut out: Vec<Option<T>> = (0..np).map(|_| None).collect();
        out[self.rank() as usize] = Some(v.clone());
        if np == 1 {
            return out.into_iter().map(|o| o.expect("own slot")).collect();
        }
        let right = (self.rank() + 1) % np;
        let left = (self.rank() + np - 1) % np;
        // Pass blocks around the ring; at step s we forward the block that
        // originated at rank (rank - s) mod np.
        let mut current = v;
        for s in 0..np - 1 {
            // One tag suffices: the left neighbour's sends arrive FIFO, so
            // step s matches the s-th message from it.
            self.send(right, TAG_ALLGATHER_RING, &current);
            let incoming: T = self.recv(left, TAG_ALLGATHER_RING);
            let origin = (self.rank() + np - 1 - s) % np;
            out[origin as usize] = Some(incoming.clone());
            current = incoming;
        }
        out.into_iter().map(|o| o.expect("ring filled every slot")).collect()
    }

    /// Bruck allgather: ⌈log₂ np⌉ rounds of distance doubling. At the
    /// start of a round each rank holds the values of `len` consecutive
    /// ranks beginning with its own; it sends its first
    /// `min(d, np − len)` blocks to rank `r − d` and appends the same
    /// count received from rank `r + d`, doubling `d` each round. One
    /// final local rotation restores rank order. O(log p) messages per
    /// rank instead of the ring's O(p) — what makes np = 6800 tractable.
    ///
    /// A round's message is a `Vec<T>` on the wire, but no rank encodes a
    /// block it only forwards: it encodes its own value once, keeps every
    /// message it receives as the bytes that arrived, and builds the next
    /// message from the count prefix plus one byte copy per held message.
    /// The held blocks are decoded once, in the final round, where that
    /// round's shorter message needs their boundaries anyway; until then a
    /// rank holds its blocks once, as bytes. Messages are byte-identical
    /// to encoding `have[..cnt]` afresh.
    pub fn allgather_bruck<T: Wire + Clone>(&mut self, v: T) -> Vec<T> {
        let np = self.size();
        if np == 1 {
            return vec![v];
        }
        let r = self.rank();
        let own = to_bytes(&v);
        let mut have: Vec<T> = Vec::with_capacity(np as usize);
        have.push(v);
        // Every message received before the final round — its blocks after
        // the count prefix, and how many — in rank order after `own`.
        let mut relay: Vec<(Bytes, usize)> = Vec::new();
        let (mut held, mut d) = (1u32, 1u32);
        while held < np {
            let cnt = d.min(np - held);
            let last = held + cnt == np;
            let dst = (r + np - d) % np;
            let src = (r + d) % np;
            let msg = {
                let mut parts: Vec<&[u8]> = vec![&own];
                if last {
                    // Decode every held block, in order, and cut the
                    // message after its first `cnt`.
                    for (body, n) in &relay {
                        let mut cur = body.clone();
                        for _ in 0..*n {
                            have.push(T::decode(&mut cur));
                            if have.len() == cnt as usize {
                                parts.push(&body[..body.len() - cur.len()]);
                            }
                        }
                        assert!(cur.is_empty(), "wire decode left {} trailing bytes", cur.len());
                        if have.len() < cnt as usize {
                            parts.push(body);
                        }
                    }
                } else {
                    parts.extend(relay.iter().map(|(body, _)| &body[..]));
                }
                block_message(cnt, &parts)
            };
            if last {
                relay.clear();
            }
            // One tag suffices: within one allgather each ordered pair
            // (src, dst) communicates in exactly one round (the distances
            // 1, 2, 4, … are distinct), and consecutive allgathers stay
            // separated by per-(source, tag) FIFO as in the ring.
            self.send_bytes(dst, TAG_ALLGATHER_BRUCK, msg);
            let (_, mut data) = self.recv_bytes(Some(src), TAG_ALLGATHER_BRUCK);
            let n = data.get_u64_le();
            debug_assert_eq!(n, u64::from(cnt), "bruck round count mismatch");
            if last {
                for _ in 0..cnt {
                    have.push(T::decode(&mut data));
                }
                assert!(data.is_empty(), "wire decode left {} trailing bytes", data.len());
            } else {
                relay.push((data, cnt as usize));
            }
            held += cnt;
            d <<= 1;
        }
        // have[i] is the value of rank (r + i) mod np; rotate into rank
        // order.
        have.rotate_right(r as usize);
        have
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; returns the
    /// vector received from each rank. `sends.len()` must equal `size()`.
    pub fn alltoall<T: Wire>(&mut self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let np = self.size();
        assert_eq!(sends.len(), np as usize, "alltoall needs one bucket per rank");
        let mut out: Vec<Option<Vec<T>>> = (0..np).map(|_| None).collect();
        // Own bucket moves locally.
        out[self.rank() as usize] = Some(std::mem::take(&mut sends[self.rank() as usize]));
        for d in 0..np {
            if d != self.rank() {
                let bucket = std::mem::take(&mut sends[d as usize]);
                self.send(d, TAG_ALLTOALL, &bucket);
            }
        }
        // One bucket *per peer*, not the first np − 1 to arrive: a rank
        // already inside its next alltoall call could otherwise satisfy
        // this call twice and leave another slot empty. Per-(source, tag)
        // FIFO keeps calls separated without a barrier. (Found by
        // `hot-analyze schedules`.)
        self.recv_each(TAG_ALLTOALL, &mut |src, data| {
            out[src as usize] = Some(from_bytes(data));
        });
        out.into_iter().map(|o| o.expect("bucket from every rank")).collect()
    }

    /// Exclusive prefix sum across ranks (`rank 0 → identity`), plus the
    /// global total: `(sum over ranks < me, sum over all)`.
    pub fn exscan_sum_u64(&mut self, v: u64) -> (u64, u64) {
        let all = self.allgather(v);
        let before: u64 = all[..self.rank() as usize].iter().sum();
        let total: u64 = all.iter().sum();
        (before, total)
    }
}

/// The wire encoding of a `Vec<T>` of `cnt` blocks whose encodings,
/// concatenated, are `parts`.
fn block_message(cnt: u32, parts: &[&[u8]]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + parts.iter().map(|p| p.len()).sum::<usize>());
    buf.put_u64_le(u64::from(cnt));
    for p in parts {
        buf.put_slice(p);
    }
    buf.freeze()
}

#[cfg(test)]
mod tests {
    use crate::runtime::RunConfig;

    /// Pin bytes-on-wire for every collective at np = 4, derived from
    /// `Wire::wire_size` — the one source of truth shared by the traffic
    /// counters, the trace ledger, and the machine comm-cost model. Any
    /// algorithm change (tree shape, ring direction, framing) that alters
    /// the wire footprint must update these constants consciously.
    #[test]
    fn bytes_on_wire_pinned_per_collective() {
        use crate::wire::Wire;
        let np = 4u32;
        let out = RunConfig::builder().np(np).run(|c| {
            let mut deltas = Vec::new();
            let mut mark = c.stats();
            let mut step = |c: &mut crate::runtime::Comm, deltas: &mut Vec<(u64, u64)>| {
                let now = c.stats();
                let d = now.since(&mark);
                deltas.push((d.sends, d.bytes_sent));
                mark = now;
            };
            c.barrier();
            step(c, &mut deltas);
            let _ = c.bcast(0, 7u64);
            step(c, &mut deltas);
            let _ = c.reduce(0, 1u64, |a, b| a + b);
            step(c, &mut deltas);
            let _ = c.allreduce_sum_u64(1);
            step(c, &mut deltas);
            let _ = c.gather(0, c.rank() as u64);
            step(c, &mut deltas);
            let _ = c.allgather(c.rank() as u64);
            step(c, &mut deltas);
            let bucket: Vec<Vec<u64>> = (0..np).map(|d| vec![u64::from(d); 2]).collect();
            let _ = c.alltoall(bucket);
            step(c, &mut deltas);
            deltas
        });
        // Sum each collective's (sends, bytes) across ranks.
        let total = |i: usize| -> (u64, u64) {
            out.results.iter().map(|r| r[i]).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        };
        let w = 7u64.wire_size() as u64; // scalar payload: 8 bytes
        let npu = u64::from(np);
        // barrier: ceil(log2 np) = 2 rounds × one empty message per rank.
        assert_eq!(total(0), (2 * npu, 0));
        // bcast / reduce: binomial tree, np−1 messages of one scalar.
        assert_eq!(total(1), (npu - 1, (npu - 1) * w));
        assert_eq!(total(2), (npu - 1, (npu - 1) * w));
        // allreduce = reduce-to-0 + bcast.
        assert_eq!(total(3), (2 * (npu - 1), 2 * (npu - 1) * w));
        // gather: every non-root sends one scalar to root.
        assert_eq!(total(4), (npu - 1, (npu - 1) * w));
        // ring allgather: np−1 steps, every rank forwards one scalar.
        assert_eq!(total(5), (npu * (npu - 1), npu * (npu - 1) * w));
        // alltoall: np−1 buckets per rank; a Vec<u64> of len 2 frames as
        // an 8-byte length prefix + 2 scalars.
        let bucket_bytes = vec![0u64; 2].wire_size() as u64;
        assert_eq!(bucket_bytes, 8 + 2 * w);
        assert_eq!(total(6), (npu * (npu - 1), npu * (npu - 1) * bucket_bytes));
    }

    #[test]
    fn barrier_orders_phases() {
        for np in [1u32, 2, 3, 4, 7, 8] {
            let out = RunConfig::builder().np(np).run(|c| {
                for _ in 0..3 {
                    c.barrier();
                }
                c.rank()
            });
            assert_eq!(out.results.len(), np as usize);
        }
    }

    #[test]
    fn bcast_all_sizes_all_roots() {
        for np in [1u32, 2, 3, 5, 8, 13] {
            for root in [0, np - 1, np / 2] {
                let out = RunConfig::builder().np(np).run(move |c| {
                    let v = if c.rank() == root { 777u64 } else { 0 };
                    c.bcast(root, v)
                });
                assert!(out.results.iter().all(|&v| v == 777), "np={np} root={root}");
            }
        }
    }

    #[test]
    fn reduce_sum_matches() {
        for np in [1u32, 2, 4, 6, 9] {
            let out = RunConfig::builder().np(np).run(|c| c.reduce(0, c.rank() as u64 + 1, |a, b| a + b));
            let expect = (np as u64) * (np as u64 + 1) / 2;
            assert_eq!(out.results[0], Some(expect), "np={np}");
            for r in 1..np as usize {
                assert_eq!(out.results[r], None);
            }
        }
    }

    #[test]
    fn allreduce_everyone_agrees() {
        for np in [1u32, 2, 3, 8, 12] {
            let out = RunConfig::builder().np(np).run(|c| c.allreduce_sum_u64(c.rank() as u64 + 1));
            let expect = (np as u64) * (np as u64 + 1) / 2;
            assert!(out.results.iter().all(|&v| v == expect), "np={np}: {:?}", out.results);
        }
    }

    #[test]
    fn allreduce_max() {
        let out = RunConfig::builder().np(5).run(|c| {
            let x = (c.rank() as f64 - 2.0) * 1.5;
            c.allreduce_max_f64(x)
        });
        assert!(out.results.iter().all(|&mx| mx == 3.0), "{:?}", out.results);
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let out = RunConfig::builder().np(4).run(|c| {
            let v = vec![c.rank() as f64, 1.0, -(c.rank() as f64)];
            c.allreduce_sum_vec_f64(v)
        });
        for r in &out.results {
            assert_eq!(r, &vec![6.0, 4.0, -6.0]);
        }
    }

    #[test]
    fn gather_indexes_by_rank() {
        let out = RunConfig::builder().np(6).run(|c| c.gather(2, c.rank() * 10));
        assert_eq!(out.results[2], Some(vec![0, 10, 20, 30, 40, 50]));
        assert_eq!(out.results[0], None);
    }

    /// Non-roots send and leave, so under most schedules one of them is a
    /// call or two ahead of the root: each call must still return its own
    /// values. (An any-source gather took a fast rank's second
    /// contribution for the first call — 133 of 200 event seeds at np = 3.)
    #[test]
    fn gathers_back_to_back_keep_their_calls_apart() {
        type Gathered = Vec<Option<Vec<(u32, u32)>>>;
        let body = |c: &mut crate::runtime::Comm| -> Gathered {
            (0..3).map(|call| c.gather(1, (call, c.rank()))).collect()
        };
        for np in [3u32, 5] {
            let want: Gathered =
                (0..3).map(|call| Some((0..np).map(|r| (call, r)).collect())).collect();
            let check = |out: crate::runtime::RunOutput<Gathered>, what: &str| {
                assert_eq!(out.results[1], want, "np={np} {what}");
                assert!(out.undrained.is_empty(), "np={np} {what}");
            };
            for seed in 0..128 {
                check(RunConfig::builder().np(np).event_seed(seed).run(body), "event seed");
            }
        }
    }

    #[test]
    fn allgather_ring() {
        for np in [1u32, 2, 3, 4, 7] {
            let out = RunConfig::builder().np(np).run(|c| c.allgather(c.rank() as u64 * 3));
            let expect: Vec<u64> = (0..np as u64).map(|r| r * 3).collect();
            for r in &out.results {
                assert_eq!(r, &expect, "np={np}");
            }
        }
    }

    #[test]
    fn alltoall_personalized() {
        let np = 4u32;
        let out = RunConfig::builder().np(np).run(|c| {
            // Rank r sends [r, d] to rank d.
            let sends: Vec<Vec<u32>> = (0..np).map(|d| vec![c.rank(), d]).collect();
            c.alltoall(sends)
        });
        for (r, recvd) in out.results.iter().enumerate() {
            for (s, bucket) in recvd.iter().enumerate() {
                assert_eq!(bucket, &vec![s as u32, r as u32]);
            }
        }
    }

    #[test]
    fn alltoall_uneven_buckets() {
        let np = 3u32;
        let out = RunConfig::builder().np(np).run(|c| {
            let sends: Vec<Vec<u8>> =
                (0..np).map(|d| vec![c.rank() as u8; (d as usize) + c.rank() as usize]).collect();
            c.alltoall(sends)
        });
        // Rank d receives from rank s a bucket of length d + s.
        for (d, recvd) in out.results.iter().enumerate() {
            for (s, bucket) in recvd.iter().enumerate() {
                assert_eq!(bucket.len(), d + s);
                assert!(bucket.iter().all(|&b| b == s as u8));
            }
        }
    }

    #[test]
    fn exscan() {
        let out = RunConfig::builder().np(5).run(|c| c.exscan_sum_u64((c.rank() as u64 + 1) * 2));
        // values 2,4,6,8,10 ; total 30 ; prefix 0,2,6,12,20
        let prefixes: Vec<u64> = out.results.iter().map(|&(p, _)| p).collect();
        assert_eq!(prefixes, vec![0, 2, 6, 12, 20]);
        assert!(out.results.iter().all(|&(_, t)| t == 30));
    }

    #[test]
    fn collectives_back_to_back_do_not_interfere() {
        // Two different collectives immediately after another; FIFO + tag
        // discipline must keep them separate.
        let out = RunConfig::builder().np(4).run(|c| {
            let a = c.allreduce_sum_u64(1);
            let b = c.allgather(c.rank());
            c.barrier();
            let d = c.allreduce_sum_u64(2);
            (a, b, d)
        });
        for (a, b, d) in &out.results {
            assert_eq!(*a, 4);
            assert_eq!(b, &vec![0, 1, 2, 3]);
            assert_eq!(*d, 8);
        }
    }
}
