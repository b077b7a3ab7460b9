//! Property-based tests of the wire codec and the reliable transport
//! (proptest).

#![cfg(test)]

use crate::wire::{
    crc32, crc32_bytewise, frame_message, from_bytes, to_bytes, unframe_message, KeyBatchRequest,
    Wire,
};
use crate::{Abm, Comm, FaultConfig, FaultDecision, FaultPlan, RunConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `Comm::alltoall` as it was before the every-peer receive: np − 1
/// receives by source, in rank order. Kept as the oracle the one-pass
/// receive is checked against.
fn alltoall_by_source<T: Wire>(c: &mut Comm, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
    use crate::collectives::TAG_ALLTOALL;
    let (me, np) = (c.rank(), c.size());
    for d in (0..np).filter(|&d| d != me) {
        c.send(d, TAG_ALLTOALL, &std::mem::take(&mut sends[d as usize]));
    }
    (0..np)
        .map(|s| if s == me { std::mem::take(&mut sends[s as usize]) } else { c.recv(s, TAG_ALLTOALL) })
        .collect()
}

type Buckets = Vec<Vec<u64>>;
type AllToAll = fn(&mut Comm, Buckets) -> Buckets;

/// Three alltoalls back to back with no barrier between, so fast ranks run
/// a call or two ahead. Buckets are uneven — about a quarter of them empty
/// — and a word says which call, source and destination it belongs to.
fn alltoall_storm(c: &mut Comm, alltoall: AllToAll) -> Vec<Buckets> {
    let (me, np) = (u64::from(c.rank()), u64::from(c.size()));
    (0..3u64)
        .map(|call| {
            let sends = (0..np)
                .map(|d| {
                    let word = (call << 40) | (me << 20) | d;
                    vec![word; ((call + 3 * me + 5 * d) % 4) as usize]
                })
                .collect();
            alltoall(c, sends)
        })
        .collect()
}

#[test]
fn alltoall_matches_by_source_oracle_under_every_schedule() {
    for np in [2u32, 5, 16, 33] {
        let want = RunConfig::builder().np(np).run(|c| alltoall_storm(c, alltoall_by_source));
        let got = |c: &mut Comm| alltoall_storm(c, Comm::alltoall);
        let check = |out: crate::RunOutput<Vec<Buckets>>, what: &str| {
            assert!(out.results == want.results, "np={np} {what}");
            assert_eq!(out.stats, want.stats, "np={np} {what}");
            assert!(out.undrained.is_empty(), "np={np} {what}");
        };
        check(RunConfig::builder().np(np).run(got), "production");
        check(RunConfig::builder().np(np).workers(1).run(got), "one worker");
        for seed in 0..6 {
            check(RunConfig::builder().np(np).event_seed(seed).run(got), "event seed");
        }
    }
}

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) -> bool {
    let b = to_bytes(v);
    b.len() == v.wire_size() && &from_bytes::<T>(b) == v
}

proptest! {
    /// Slicing-by-8 against the byte-at-a-time oracle: lengths 0..=4096,
    /// starting at any alignment within a word.
    #[test]
    fn crc32_matches_bytewise_oracle(
        data in proptest::collection::vec(any::<u8>(), 4104..4105),
        start in 0usize..8,
        len in 0usize..4097,
    ) {
        let s = &data[start..start + len];
        prop_assert_eq!(crc32(s), crc32_bytewise(s));
    }

    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        prop_assert!(roundtrip(&v));
    }

    #[test]
    fn f64_roundtrip_including_specials(bits in any::<u64>()) {
        // Every bit pattern must survive, including NaNs (compare by bits).
        let v = f64::from_bits(bits);
        let back: f64 = from_bytes(to_bytes(&v));
        prop_assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn vec_of_tuples_roundtrip(v in proptest::collection::vec((any::<u32>(), -1e9f64..1e9), 0..50)) {
        prop_assert!(roundtrip(&v));
    }

    #[test]
    fn nested_vecs_roundtrip(v in proptest::collection::vec(proptest::collection::vec(any::<u16>(), 0..8), 0..12)) {
        prop_assert!(roundtrip(&v));
    }

    #[test]
    fn vec3_roundtrip(x in -1e12f64..1e12, y in -1e12f64..1e12, z in -1e12f64..1e12) {
        prop_assert!(roundtrip(&hot_base::Vec3::new(x, y, z)));
    }

    /// Concatenated encodings decode back in order (the batch property the
    /// ABM layer depends on).
    #[test]
    fn sequential_decode(a in any::<u64>(), b in -1e9f64..1e9, c in any::<u32>()) {
        let mut buf = bytes::BytesMut::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        c.encode(&mut buf);
        let mut cur = buf.freeze();
        prop_assert_eq!(u64::decode(&mut cur), a);
        prop_assert_eq!(f64::decode(&mut cur), b);
        prop_assert_eq!(u32::decode(&mut cur), c);
        prop_assert!(cur.is_empty());
    }

    /// A coalesced multi-key request built from arbitrary (duplicated,
    /// unsorted) key sets roundtrips through the wire, covers exactly the
    /// input key sets, and never carries a duplicate key.
    #[test]
    fn key_batch_request_canonical_over_arbitrary_sets(
        cells in proptest::collection::vec(any::<u64>(), 0..80),
        bodies in proptest::collection::vec(any::<u64>(), 0..80),
    ) {
        let req = KeyBatchRequest::new(cells.clone(), bodies.clone());
        prop_assert!(roundtrip(&req));
        prop_assert!(req.is_canonical());
        // Strictly increasing ⇒ no duplicates within one request.
        prop_assert!(req.cell_keys.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(req.body_keys.windows(2).all(|w| w[0] < w[1]));
        // Same key *sets* as the input.
        for k in &cells {
            prop_assert!(req.cell_keys.binary_search(k).is_ok());
        }
        for k in &bodies {
            prop_assert!(req.body_keys.binary_search(k).is_ok());
        }
        prop_assert!(req.cell_keys.iter().all(|k| cells.contains(k)));
        prop_assert!(req.body_keys.iter().all(|k| bodies.contains(k)));
        // Canonical form is insertion-order independent: the encoded bytes
        // are a pure function of the key sets.
        let mut rc = cells;
        let mut rb = bodies;
        rc.reverse();
        rb.reverse();
        prop_assert_eq!(&to_bytes(&req)[..], &to_bytes(&KeyBatchRequest::new(rc, rb))[..]);
    }

    /// Flipping any single bit of a framed message — header, payload, or
    /// the CRC field itself — must make the frame unreadable. CRC-32
    /// detects all single-bit errors, and the length field is cross-checked
    /// against the buffer, so there is no bit position a flip can hide in.
    #[test]
    fn framed_bitflip_always_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..160),
        seq in any::<u64>(),
        hb in any::<u64>(),
        tag in any::<u32>(),
        bit in any::<u64>(),
    ) {
        let frame = frame_message(seq, hb, tag, &payload);
        prop_assert!(unframe_message(&frame).is_ok());
        let flipped = bytes::Bytes::from(FaultPlan::corrupt(&frame, bit));
        prop_assert!(
            unframe_message(&flipped).is_err(),
            "bit {} flip in a {}-byte frame went undetected",
            bit % (frame.len() as u64 * 8),
            frame.len()
        );
    }
}

proptest! {
    // End-to-end runs are heavier than codec checks; fewer cases, each a
    // full 2-rank machine under a seeded schedule.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A batched reply split into chunk messages — with an ABM batch
    /// capacity small enough that chunks straddle physical batch
    /// boundaries — reassembles on the receiver into exactly the original
    /// entry sequence: nothing lost, nothing duplicated, order preserved.
    #[test]
    fn reply_chunks_reassemble_across_batch_boundaries(
        entries in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u64>(), 0..6)),
            1..24,
        ),
        chunk_limit in 24usize..160,
        abm_capacity in 48usize..128,
        sched_seed in 0u64..8,
    ) {
        const K_CHUNK: u16 = 6;
        type Entry = (u64, Vec<u64>);
        let sent = entries.clone();
        let out = RunConfig::builder()
            .np(2)
            .event_seed(sched_seed)
            .run(move |c| {
            let mut ep = Abm::new(c, abm_capacity);
            if ep.rank() == 0 {
                // Greedy whole-entry packing up to `chunk_limit` encoded
                // bytes per logical message (at least one entry each) —
                // the same policy the walk's reply path uses.
                let mut chunk: Vec<Entry> = Vec::new();
                let mut size = 8usize;
                for e in entries.clone() {
                    let sz = e.wire_size();
                    if !chunk.is_empty() && size + sz > chunk_limit {
                        ep.post(1, K_CHUNK, &chunk);
                        chunk.clear();
                        size = 8;
                    }
                    size += sz;
                    chunk.push(e);
                }
                if !chunk.is_empty() {
                    ep.post(1, K_CHUNK, &chunk);
                }
            }
            let mut got: Vec<Entry> = Vec::new();
            ep.complete(|_, _, kind, payload| {
                assert_eq!(kind, K_CHUNK);
                got.extend(from_bytes::<Vec<Entry>>(payload));
            });
            got
        });
        prop_assert!(out.results[0].is_empty());
        prop_assert_eq!(&out.results[1], &sent);
    }

    /// A single bit flip anywhere in a framed message is rejected by the
    /// receiver's CRC check and recovered with exactly one retransmission:
    /// one retry, one CRC reject, payload delivered intact.
    #[test]
    fn single_bitflip_costs_exactly_one_retry(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        bit in any::<u64>(),
        sched_seed in 0u64..8,
    ) {
        let plan = FaultPlan::new(FaultConfig::clean(1)).with_targeted(
            0,
            1,
            0,
            FaultDecision { corrupt_bit: Some(bit), ..Default::default() },
        );
        let expect = payload.clone();
        let out = RunConfig::builder()
            .np(2)
            .event_seed(sched_seed)
            .faults(plan)
            .run(move |c| {
            if c.rank() == 0 {
                c.send(1, 7, &payload);
                Vec::new()
            } else {
                c.recv::<Vec<u8>>(0, 7)
            }
        });
        prop_assert_eq!(&out.results[1], &expect);
        prop_assert!(out.undrained.is_empty(), "undrained: {:?}", out.undrained);
        prop_assert_eq!(out.injected.corruptions, 1);
        let retries: u64 = out.reliability.iter().map(|r| r.retries).sum();
        let rejects: u64 = out.reliability.iter().map(|r| r.crc_rejects).sum();
        prop_assert_eq!(retries, 1, "want exactly one retransmission");
        prop_assert_eq!(rejects, 1, "want exactly one CRC rejection");
    }
}

/// A rank's contribution to the relay tests: 0–300 bytes that differ by
/// rank, every seventh one empty.
fn relay_value(rank: u32) -> Vec<u8> {
    let len = if rank % 7 == 3 { 0 } else { (rank as usize * 97 + 13) % 301 };
    (0..len).map(|i| (rank as usize * 31 + i) as u8).collect()
}

/// Per-rank `(sends, bytes_sent)` of the Bruck allgather that encoded
/// `have[..cnt]` afresh every round: round `d` sends a `Vec` of the `cnt`
/// values of ranks `r, r + 1, …`.
fn bruck_closed_form(np: u32, rank: u32) -> (u64, u64) {
    let size = |q: u32| relay_value(q % np).wire_size() as u64;
    let (mut len, mut d) = (1u32, 1u32);
    let (mut sends, mut bytes) = (0, 0);
    while len < np {
        let cnt = d.min(np - len);
        (sends, bytes) = (sends + 1, bytes + 8 + (0..cnt).map(|i| size(rank + i)).sum::<u64>());
        len += cnt;
        d <<= 1;
    }
    (sends, bytes)
}

/// The Bruck allgather relays what it received: on variable-length values
/// (empty ones included) its result is the ring's, and its messages are
/// those of encoding every block afresh — same count, same bytes.
/// np = 17 and 31 end on a partial round.
#[test]
fn bruck_relay_matches_ring_and_parent_traffic() {
    type Out = (Vec<Vec<u8>>, crate::TrafficStats, Vec<Vec<u8>>);
    let body = |c: &mut Comm| -> Out {
        let bruck = c.allgather_bruck(relay_value(c.rank()));
        let stats = c.stats();
        // Zero-byte blocks: only the counts say where they are.
        assert_eq!(c.allgather_bruck(()).len(), c.size() as usize);
        (bruck, stats, c.allgather_ring(relay_value(c.rank())))
    };
    for np in [16u32, 17, 31, 128] {
        let want: Vec<Vec<u8>> = (0..np).map(relay_value).collect();
        let check = |out: crate::RunOutput<Out>, what: &str| {
            for (rank, (bruck, stats, ring)) in out.results.iter().enumerate() {
                assert_eq!(bruck, ring, "np={np} rank={rank} {what}");
                assert_eq!(bruck, &want, "np={np} rank={rank} {what}");
                let got = (stats.sends, stats.bytes_sent);
                assert_eq!(got, bruck_closed_form(np, rank as u32), "np={np} rank={rank} {what}");
            }
            assert!(out.undrained.is_empty(), "np={np} {what}");
        };
        check(RunConfig::builder().np(np).run(body), "production");
        for seed in 0..3 {
            check(RunConfig::builder().np(np).event_seed(seed).run(body), "event seed");
        }
    }
}

static RELAY_ENCODES: AtomicU64 = AtomicU64::new(0);

/// A value that counts how often it is encoded.
#[derive(Clone, Debug, PartialEq)]
struct Counted(Vec<u8>);

impl Wire for Counted {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        RELAY_ENCODES.fetch_add(1, Relaxed);
        self.0.encode(buf);
    }
    fn decode(buf: &mut bytes::Bytes) -> Self {
        Counted(Vec::decode(buf))
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

/// Every rank encodes its own value once and forwards the rest as bytes:
/// np encodes in all, where re-encoding every forwarded block made
/// np · (np − 1).
#[test]
fn bruck_encodes_each_value_once() {
    for np in [16u32, 17, 31, 128] {
        RELAY_ENCODES.store(0, Relaxed);
        let value = |r: u32| Counted(relay_value(r));
        let out = RunConfig::builder().np(np).run(|c| c.allgather_bruck(value(c.rank())));
        let want: Vec<Counted> = (0..np).map(value).collect();
        assert!(out.results.iter().all(|r| r == &want), "np={np}");
        assert_eq!(RELAY_ENCODES.load(Relaxed), u64::from(np), "np={np}");
    }
}

proptest! {
    // Collective-shape equivalence: full machines per case, so few cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ring and Bruck allgathers are pure data movement, so their
    /// results must be *bitwise* identical for arbitrary bit patterns —
    /// across machine sizes, production runs, and seeded schedules. This
    /// is the license for `Comm::allgather` to switch algorithms on np
    /// alone.
    #[test]
    fn allgather_shapes_bitwise_equivalent(
        np in 2u32..10,
        base in any::<u64>(),
        event_seed in 0u64..4,
    ) {
        // Per-rank contribution: an arbitrary 64-bit pattern (covers f64
        // NaN payloads when reinterpreted; allgather never looks inside).
        // Both shapes run back to back in the same machine.
        let body = move |c: &mut Comm| {
            let v = base ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(c.rank()) + 1));
            (c.allgather_ring(v), c.allgather_bruck(v))
        };
        let production = RunConfig::builder().np(np).run(body);
        for (ring, bruck) in &production.results {
            prop_assert_eq!(ring, bruck);
        }
        let seeded = RunConfig::builder().np(np).event_seed(event_seed).run(body);
        prop_assert_eq!(&production.results, &seeded.results);
    }

    /// The production binomial-tree allreduce agrees with a linear
    /// gather → fold → bcast baseline for exactly-associative operators
    /// (wrapping add, max, xor), in production and seeded runs. f64 sums are excluded
    /// deliberately: tree reduction reassociates, which is why the f64
    /// goldens pin the *tree* order instead.
    #[test]
    fn tree_allreduce_matches_linear_baseline_for_associative_ops(
        np in 2u32..10,
        base in any::<u64>(),
        op_idx in 0usize..3,
        event_seed in 0u64..4,
    ) {
        let ops: [fn(u64, u64) -> u64; 3] =
            [u64::wrapping_add, std::cmp::max, |a, b| a ^ b];
        let op = ops[op_idx];
        let body = move |c: &mut Comm| {
            let v = base ^ (0xD134_2543_DE82_EF95u64.wrapping_mul(u64::from(c.rank()) + 3));
            let tree = c.allreduce(v, op);
            // Linear baseline: rank 0 folds the gathered vector in rank
            // order, then broadcasts the result.
            let folded = c
                .gather(0, v)
                .map(|all| all.into_iter().reduce(op).expect("np >= 1"));
            let linear = c.bcast(0, folded.unwrap_or_default());
            (tree, linear)
        };
        let production = RunConfig::builder().np(np).run(body);
        for (rank, (tree, linear)) in production.results.iter().enumerate() {
            prop_assert_eq!(tree, linear, "rank {}", rank);
        }
        let seeded = RunConfig::builder().np(np).event_seed(event_seed).run(body);
        prop_assert_eq!(&production.results, &seeded.results);
    }
}
