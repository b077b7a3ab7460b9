//! What one message costs on the event runtime (EXPERIMENTS.md M1): a
//! dense `alltoall` of one word per peer, and a point-to-point stream at
//! three payload sizes — empty, small enough to travel inside the envelope,
//! and a heap-backed kilobyte. One worker thread, so the numbers are the
//! send → mailbox → receive path and not lock contention. Reported per
//! message; wall clock, so nothing gates on it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hot_comm::{Comm, RunConfig, Wire};
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

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_alltoall, bench_send_recv
}
criterion_main!(benches);
