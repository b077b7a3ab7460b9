//! What one message costs on the event runtime (EXPERIMENTS.md M1): a
//! dense `alltoall` of one word per peer, and a point-to-point stream at
//! three payload sizes — empty, small enough to travel inside the envelope,
//! and a heap-backed kilobyte. One worker thread, so the numbers are the
//! send → mailbox → receive path and not lock contention. Reported per
//! message; wall clock, so nothing gates on it. The `allgather` group is
//! the Bruck relay, reported per received byte.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hot_base::Vec3;
use hot_comm::{Comm, RunConfig, Wire};
use hot_core::{dtree::DNode, MassMoments, Summary};
use hot_morton::Key;
use std::time::Duration;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
}

/// One launch of `body` on `np` fibers. Launch and teardown are part of
/// the sample, which is why every body below moves ≥ 10⁵ messages.
fn launch(np: u32, body: impl Fn(&mut Comm) -> u64 + Sync) -> u64 {
    let out = RunConfig::builder()
        .np(np)
        .workers(1)
        .stack_size(256 << 10)
        .run(body);
    assert!(out.undrained.is_empty());
    out.results.iter().sum()
}

fn bench_alltoall(c: &mut Criterion) {
    const NP: u32 = 256;
    const CALLS: u64 = 4;
    let mut g = c.benchmark_group("alltoall");
    g.throughput(Throughput::Elements(CALLS * u64::from(NP) * u64::from(NP - 1)));
    g.bench_function("one_word_per_peer_np256", |b| {
        b.iter(|| {
            launch(NP, |c| {
                let mut acc = 0u64;
                for call in 0..CALLS {
                    let sends = (0..NP).map(|d| vec![call ^ u64::from(c.rank() + d)]).collect();
                    acc += c.alltoall::<u64>(sends).iter().map(|b| b[0]).sum::<u64>();
                }
                acc
            })
        });
    });
    g.finish();
}

const BURSTS: u64 = 1000;
const BURST: u64 = 128;

/// Rank 0 streams bursts of `payload` to rank 1, which answers each burst
/// with one empty message (so at most a burst is ever queued).
fn stream<T: Wire + Sync>(payload: &T) -> u64 {
    launch(2, |c| {
        for _ in 0..BURSTS {
            if c.rank() == 0 {
                (0..BURST).for_each(|_| c.send(1, 1, payload));
                c.recv::<()>(1, 2);
            } else {
                (0..BURST).for_each(|_| drop(c.recv::<T>(0, 1)));
                c.send(0, 2, &());
            }
        }
        c.stats().recvs
    })
}
fn bench_send_recv(c: &mut Criterion) {
    let mut g = c.benchmark_group("send_recv");
    g.throughput(Throughput::Elements(BURSTS * (BURST + 1)));
    g.bench_function("0_bytes", |b| b.iter(|| stream(&())));
    g.bench_function("16_bytes", |b| b.iter(|| stream(&(1u64, 2u64))));
    g.bench_function("1024_bytes", |b| b.iter(|| stream(&vec![7u64; 127])));
    g.finish();
}

/// `calls` Bruck allgathers of `value(rank)` on `np` fibers, reported per
/// byte a rank receives: the branch exchange's shape (np = 128, 32 branch
/// records each) and `comm_storm`'s (np = 1024, one word each), where a
/// per-block cost would show.
fn bench_allgather(c: &mut Criterion) {
    fn run<T: Wire + Clone + Sync>(np: u32, calls: u64, value: impl Fn(u32) -> T + Sync) -> u64 {
        let body = |c: &mut Comm| {
            (0..calls).map(|_| c.allgather(value(c.rank())).len() as u64).sum::<u64>()
        };
        let out = RunConfig::builder().np(np).workers(1).stack_size(256 << 10).run(body);
        assert!(out.undrained.is_empty());
        out.stats.iter().map(|s| s.bytes_recvd).sum()
    }
    let record = |rank: u32| {
        let summary = Summary {
            key: Key::ROOT.child((rank % 8) as u8),
            n: 32,
            center: Vec3::splat(0.5),
            bmax: 0.1,
            wsum: 32.0,
            moments: MassMoments { mass: 32.0, ..Default::default() },
        };
        vec![DNode::remote(summary, rank, true); 32]
    };
    let word = |rank: u32| u64::from(rank);
    let mut g = c.benchmark_group("allgather");
    g.throughput(Throughput::Elements(run(128, 2, record)));
    g.bench_function("branch_records_np128", |b| b.iter(|| run(128, 2, record)));
    g.throughput(Throughput::Elements(run(1024, 16, word)));
    g.bench_function("one_word_np1024", |b| b.iter(|| run(1024, 16, word)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_alltoall, bench_send_recv, bench_allgather
}
criterion_main!(benches);
