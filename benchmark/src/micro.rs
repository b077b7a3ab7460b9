//! Cost per operation of the layers a step passes through but the step's
//! own spans cannot isolate: key encode, hash-table probe, wire
//! encode/decode/frame, ABM post, point-to-point hop. Each is a short
//! closed loop over the workload's own bodies and keys, sized to take tens
//! of milliseconds, reported as the median of `REPS` repetitions.

use crate::common::BUCKET;
use crate::report::{median, Metrics};
use hot_base::{Aabb, Vec3};
use hot_comm::{frame_message, from_bytes, to_bytes, unframe_message, Abm, RunConfig, Runtime};
use hot_core::decomp::Body;
use hot_core::htable::KeyTable;
use hot_core::moments::MassMoments;
use hot_core::tree::Tree;
use hot_morton::Key;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

fn median_secs(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

/// `morton.encode_ns` and the three `htable.*` metrics over `pos`.
pub fn keys_and_table(m: &mut Metrics, domain: Aabb, pos: &[Vec3], mass: &[f64]) {
    let n = pos.len();
    let encode = median_secs(|| {
        let t = Instant::now();
        let mut x = 0u64;
        for &p in pos {
            x ^= Key::from_point(black_box(p), &domain).0;
        }
        black_box(x);
        t.elapsed().as_secs_f64()
    });
    m.insert("morton.encode_ns", encode * 1e9 / n as f64);

    // The keys the tree's table really holds: its cell keys.
    let tree = Tree::<MassMoments>::build(domain, pos, mass, BUCKET);
    let keys: Vec<Key> = tree.cells.iter().map(|c| c.key).collect();
    let mut table = KeyTable::with_capacity(keys.len());
    let insert = median_secs(|| {
        table = KeyTable::with_capacity(keys.len());
        let t = Instant::now();
        for (i, &k) in keys.iter().enumerate() {
            table.insert(k, i as u32);
        }
        t.elapsed().as_secs_f64()
    });
    table.reset_probes();
    let get = median_secs(|| {
        let t = Instant::now();
        let mut x = 0u32;
        for &k in &keys {
            x ^= table.get(black_box(k)).expect("inserted key");
        }
        black_box(x);
        t.elapsed().as_secs_f64()
    });
    m.insert("htable.insert_ns", insert * 1e9 / keys.len() as f64);
    m.insert("htable.get_ns", get * 1e9 / keys.len() as f64);
    m.insert(
        "htable.probes_per_get",
        table.probes() as f64 / (REPS * keys.len()) as f64,
    );
}

/// `wire.*` over a body payload like the ones decomposition ships.
pub fn wire(m: &mut Metrics, bodies: &[Body<f64>]) {
    let payload: Vec<Body<f64>> = bodies.iter().take(4096).copied().collect();
    let encoded = to_bytes(&payload);
    let bytes = encoded.len() as f64;
    // Repeat until each timing covers about a megabyte.
    let inner = ((1 << 20) as f64 / bytes).ceil() as usize;
    let encode = median_secs(|| {
        let t = Instant::now();
        for _ in 0..inner {
            black_box(to_bytes(black_box(&payload)));
        }
        t.elapsed().as_secs_f64()
    });
    let decode = median_secs(|| {
        let t = Instant::now();
        for _ in 0..inner {
            black_box(from_bytes::<Vec<Body<f64>>>(encoded.clone()));
        }
        t.elapsed().as_secs_f64()
    });
    let frame = median_secs(|| {
        let t = Instant::now();
        for i in 0..inner {
            let framed = frame_message(i as u64, 0, 7, black_box(&encoded));
            black_box(unframe_message(&framed).expect("a frame just built"));
        }
        t.elapsed().as_secs_f64()
    });
    let per_byte = 1e9 / (bytes * inner as f64);
    m.insert("wire.encode_ns_per_byte", encode * per_byte);
    m.insert("wire.decode_ns_per_byte", decode * per_byte);
    m.insert("wire.frame_ns_per_byte", frame * per_byte);
}

/// `abm.post_ns`: every rank of a 16-rank machine posts `MSGS` small
/// messages to its right neighbour, flushes and runs the exchange to
/// quiescence; wall per posted message on rank 0.
pub fn abm_post(m: &mut Metrics, workers: usize) {
    const MSGS: u64 = 4096;
    const KIND: u16 = 9;
    let out = RunConfig::builder()
        .np(16)
        .runtime(Runtime::Events)
        .workers(workers)
        .run(|c| {
            let right = (c.rank() + 1) % c.size();
            let mut walls = Vec::new();
            for _ in 0..REPS {
                c.barrier();
                let t = Instant::now();
                let mut sum = 0u64;
                let mut abm = Abm::new(c, 4096);
                for i in 0..MSGS {
                    abm.post(right, KIND, &i);
                }
                abm.flush_all();
                abm.complete(|_, _, _, payload| sum += from_bytes::<u64>(payload));
                walls.push(t.elapsed().as_secs_f64());
                assert_eq!(
                    sum,
                    MSGS * (MSGS - 1) / 2,
                    "ABM ring lost or duplicated a message"
                );
            }
            median(&walls)
        });
    m.insert("abm.post_ns", out.results[0] * 1e9 / MSGS as f64);
}

/// `p2p.pingpong_ns`: two ranks on one worker bounce a word; each hop is a
/// send, a park, a fiber switch and a receive. Nanoseconds per hop.
pub fn pingpong(m: &mut Metrics) {
    const HOPS: u64 = 20_000;
    const TAG: u32 = 11;
    let out = RunConfig::builder()
        .np(2)
        .runtime(Runtime::Events)
        .workers(1)
        .run(|c| {
            let peer = 1 - c.rank();
            let mut walls = Vec::new();
            for _ in 0..REPS {
                c.barrier();
                let t = Instant::now();
                let mut v = 0u64;
                for _ in 0..HOPS / 2 {
                    if c.rank() == 0 {
                        c.send(peer, TAG, &v);
                        v = c.recv::<u64>(peer, TAG) + 1;
                    } else {
                        v = c.recv::<u64>(peer, TAG) + 1;
                        c.send(peer, TAG, &v);
                    }
                }
                walls.push(t.elapsed().as_secs_f64());
                assert!(v >= HOPS - 1, "ping-pong lost a hop");
            }
            median(&walls)
        });
    m.insert("p2p.pingpong_ns", out.results[0] * 1e9 / HOPS as f64);
}

/// `p2p.ring_us`: a 1 KiB `sendrecv` ring at the workload's machine size;
/// microseconds per call (all ranks call once per round), rank 0's view.
pub fn ring(m: &mut Metrics, np: u32, workers: usize, stack: usize) {
    const ROUNDS: usize = 20;
    const TAG: u32 = 12;
    let out = RunConfig::builder()
        .np(np)
        .runtime(Runtime::Events)
        .workers(workers)
        .stack_size(stack)
        .run(|c| {
            let (right, left) = (
                (c.rank() + 1) % c.size(),
                (c.rank() + c.size() - 1) % c.size(),
            );
            let block = vec![u64::from(c.rank()); 128];
            c.barrier();
            let t = Instant::now();
            for _ in 0..ROUNDS {
                let got: Vec<u64> = c.sendrecv(right, left, TAG, &block);
                assert_eq!(got[0], u64::from(left), "ring delivered the wrong block");
            }
            c.barrier();
            t.elapsed().as_secs_f64()
        });
    m.insert("p2p.ring_us", out.results[0] * 1e6 / ROUNDS as f64);
}
