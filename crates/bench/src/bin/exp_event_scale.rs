//! Event-runtime scale experiment: run the paper's actual machine sizes
//! for real.
//!
//! The thread runtime caps practical machines near np ≈ 100 (one OS thread
//! and a 16 MiB stack per rank); every result at ASCI Red sizes was
//! extrapolated from np = 8. The event runtime multiplexes ranks as
//! cooperative fibers on a worker pool, so this experiment *measures*:
//!
//! 1. collectives (dissemination barrier, binomial allreduce, Bruck
//!    allgather) at np = 1024 and np = 6800 — the paper's two headline
//!    processor counts — with O(log p) round structure checked against
//!    the per-rank traffic counters;
//! 2. a reduced-N full treecode step (weighted decomposition → local
//!    trees → branch exchange → latency-hiding walk) at np = 1024.
//!
//! Each stage asserts a wall-clock budget so CI catches a runtime that
//! stops scaling, and a bound on the busiest rank's send count so it also
//! catches a step whose *structure* regressed (a linear collective; a walk
//! whose request rounds follow the key count instead of the tree depth).
//! The treecode step also records its traffic — the machine's total bytes
//! sent and the most bytes any one rank received — and bounds the latter,
//! its peak resident set, the top-tree nodes the ranks kept and dropped
//! when each cut its top tree to what its own walk can reach (at np ≥ 256
//! some must be dropped), and the termination waves ending each walk (at
//! most three). Everything is written to `results/BENCH_event_scale.json`.
//!
//! Args: `exp_event_scale [np_collectives] [np_treecode] [n_per_rank]`
//! (defaults 6800, 1024, 24).

use hot_base::flops::FlopCounter;
use hot_base::Aabb;
use hot_bench::{arg_usize, header, random_bodies, rule};
use hot_comm::RunConfig;
use hot_gravity::dist::{distributed_accelerations, DistOptions};
use std::time::Instant;

fn ceil_log2(np: u32) -> u64 {
    u64::from(32 - (np - 1).leading_zeros())
}

/// Collectives at machine size `np` on the event runtime. Returns
/// (wall seconds, max per-rank messages sent) and checks the log-p
/// structure: every rank's send count must be O(log np), not O(np).
fn collectives_at(np: u32) -> (f64, u64) {
    let t0 = Instant::now();
    let out = RunConfig::builder()
        .np(np)
        .stack_size(256 << 10)
        .run(|c| {
            c.barrier();
            let sum = c.allreduce_sum_u64(u64::from(c.rank()));
            let all = c.allgather(u64::from(c.rank()) ^ 0xA5A5);
            c.barrier();
            (sum, all.len() as u64)
        });
    let wall = t0.elapsed().as_secs_f64();
    let expect = u64::from(np) * u64::from(np - 1) / 2;
    for (r, (sum, len)) in out.results.iter().enumerate() {
        assert_eq!(*sum, expect, "allreduce wrong on rank {r}");
        assert_eq!(*len, u64::from(np), "allgather short on rank {r}");
    }
    let max_sends = out.stats.iter().map(|s| s.sends).max().unwrap_or(0);
    // Two barriers + allreduce + Bruck allgather are all ⌈log2 np⌉-round:
    // a generous structural bound that a linear collective (np - 1 sends)
    // blows through immediately at these sizes.
    let bound = 8 * ceil_log2(np) + 16;
    assert!(
        max_sends <= bound,
        "collective rounds are not O(log p): {max_sends} sends > bound {bound} at np = {np}"
    );
    (wall, max_sends)
}

/// One `DNode<MassMoments>` on the wire (a branch or a fetched child): its
/// summary (key 8, n 8, center 24, bmax 8, wsum 8, moments 64 — mass,
/// quadrupole, b2), owner 4, leaf flag 1. Pinned by hot-core's
/// `node_wire_roundtrip`.
const RECORD_BYTES: u64 = 125;

/// One remote body as the walk fetches it: position 24, charge 8.
const BODY_BYTES: u64 = 32;

/// What one treecode step measured.
struct Treecode {
    wall: f64,
    /// Peak resident set of the process during the step, in MiB (`None`
    /// where Linux's `/proc/self` cannot report or reset it).
    peak_rss_mib: Option<f64>,
    interactions: u64,
    /// Top-tree nodes kept and dropped by the walk's cut, summed over
    /// ranks.
    top_kept: u64,
    top_dropped: u64,
    /// The most termination waves a rank's walk took.
    max_waves: u64,
    max_sends: u64,
    /// Payload bytes sent, summed over the machine.
    bytes_sent: u64,
    /// Payload bytes received by the busiest rank.
    max_bytes_recvd: u64,
}

/// A bound on the payload bytes one rank receives in a treecode step of
/// `n_total` bodies on `np` ranks that sample `oversample` keys each:
/// - rank 0 receives every rank's work samples, `8 + 16 · oversample`
///   bytes a rank;
/// - every rank receives every other rank's branches, at most one
///   per body (branches are disjoint and non-empty);
/// - the walk fetches each remote key at most once: child cells, fewer
///   than one per body in these uniform bucket-16 trees (the benchmark's
///   `tree.cells_per_body` reads 0.15–0.28), and remote bodies' positions
///   and charges.
///
/// The splitter broadcast and a rank's own share of the body exchange are
/// `O(np + n_total / np)` bytes and fit in what the walk term over-counts.
/// Measured at np = 1024 × 24: 1.83 MB on the busiest rank against
/// 8.0 MB. The `n_total` term, `O(np · n_total)` bytes machine-wide, is
/// what a coarsened, locally essential branch exchange would cut.
fn recv_bound(np: u32, n_total: u64, oversample: u64) -> u64 {
    u64::from(np) * (8 + 16 * oversample) + n_total * (2 * RECORD_BYTES + BODY_BYTES)
}

/// Reset this process's peak resident set to its current one (Linux's
/// `clear_refs` code 5). Returns whether the kernel took it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()? / 1024.0)
}

/// One reduced-N treecode force evaluation at `np` on the event runtime.
fn treecode_at(np: u32, n_per_rank: usize) -> Treecode {
    let reset = reset_peak_rss();
    let t0 = Instant::now();
    let out = RunConfig::builder()
        .np(np)
        .stack_size(2 << 20)
        .run(move |c| {
            let bodies = random_bodies(c.rank(), n_per_rank, 7);
            let counter = FlopCounter::new();
            let opts = DistOptions { eps2: 1e-8, ..Default::default() };
            let res = distributed_accelerations(c, bodies, Aabb::unit(), &opts, &counter);
            let s = res.stats;
            (s.walk.interactions(), s.top_nodes_kept, s.top_nodes_dropped, s.abm.waves)
        });
    let wall = t0.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_mib().filter(|_| reset);
    let top_kept = out.results.iter().map(|r| r.1).sum();
    let top_dropped = out.results.iter().map(|r| r.2).sum();
    let max_waves = out.results.iter().map(|r| r.3).max().unwrap_or(0);
    assert!(max_waves <= 3, "a rank's walk took {max_waves} termination waves at np = {np}");
    // At np = 256 a rank's groups sit in 1/256 of the cube: the shared
    // nodes far from it pass the MAC against all of them at once.
    assert!(
        np < 256 || top_dropped > 0,
        "no rank cut its top tree at np = {np} ({top_kept} nodes kept)"
    );
    let max_sends = out.stats.iter().map(|s| s.sends).max().unwrap_or(0);
    // A step is a few exchanges with every peer (the sample sort's
    // alltoall; one coalesced request and its replies per owner per walk
    // round) plus O(log p) collectives and the walk's termination waves —
    // measured 2103 sends at np = 1024. A walk that spends a round per
    // missing key multiplies the request term by the keys a group opens,
    // which the wall-clock budget is far too loose to notice.
    let bound = 4 * u64::from(np) + 64 * ceil_log2(np);
    assert!(
        max_sends <= bound,
        "treecode step is not a few exchanges per peer: {max_sends} sends > bound {bound} \
         at np = {np} (walk rounds no longer bounded by tree depth?)"
    );
    let bytes_sent = out.stats.iter().map(|s| s.bytes_sent).sum();
    let max_bytes_recvd = out.stats.iter().map(|s| s.bytes_recvd).max().unwrap_or(0);
    let n_total = u64::from(np) * n_per_rank as u64;
    let oversample = DistOptions::default().oversample as u64;
    let bound = recv_bound(np, n_total, oversample);
    assert!(
        max_bytes_recvd <= bound,
        "a rank received {max_bytes_recvd} bytes in one treecode step > bound {bound} \
         at np = {np}, N = {n_total}"
    );
    Treecode {
        wall,
        peak_rss_mib,
        interactions: out.results.iter().map(|r| r.0).sum(),
        top_kept,
        top_dropped,
        max_waves,
        max_sends,
        bytes_sent,
        max_bytes_recvd,
    }
}

fn main() {
    let np_coll = arg_usize(1, 6800) as u32;
    let np_tree = arg_usize(2, 1024) as u32;
    let n_per_rank = arg_usize(3, 24);
    header("Event-runtime scale: the paper's machine sizes, run for real");

    // Stage 1: collectives at 1024 and the headline size.
    let mut coll = Vec::new();
    for np in [1024, np_coll] {
        let (wall, max_sends) = collectives_at(np);
        println!(
            "collectives np = {np:>5}: {wall:>7.2} s wall, max {max_sends} sends/rank \
             (log2 np = {})",
            ceil_log2(np)
        );
        coll.push((np, wall, max_sends));
    }

    // Stage 2: a full treecode step at np = 1024.
    let Treecode {
        wall: tree_wall,
        peak_rss_mib,
        interactions,
        top_kept,
        top_dropped,
        max_waves,
        max_sends: tree_sends,
        bytes_sent,
        max_bytes_recvd,
    } = treecode_at(np_tree, n_per_rank);
    let n_total = np_tree as usize * n_per_rank;
    let peak = peak_rss_mib.map_or("n/a".to_string(), |m| format!("{m:.0} MiB"));
    println!(
        "treecode  np = {np_tree:>5}: {tree_wall:>7.2} s wall, N = {n_total}, \
         {interactions} interactions, max {tree_sends} sends/rank, {bytes_sent} bytes sent, \
         max {max_bytes_recvd} bytes received by a rank"
    );
    println!(
        "          peak RSS {peak}; top-tree nodes kept {top_kept}, dropped {top_dropped} \
         (summed over ranks); at most {max_waves} termination waves per rank"
    );
    rule();

    // Wall-clock budgets: generous enough for a loaded CI box, tight
    // enough that an O(np) regression (or a lost-wakeup hang) fails fast.
    assert!(
        coll.iter().all(|&(_, w, _)| w < 120.0),
        "collectives blew the 120 s budget: {coll:?}"
    );
    assert!(
        tree_wall < 900.0,
        "treecode step blew the 900 s budget: {tree_wall:.1} s"
    );
    assert!(interactions > 0, "treecode step did no work");

    let mut json = String::from("{\n  \"collectives\": [\n");
    for (i, (np, wall, max_sends)) in coll.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"np\": {np}, \"wall_s\": {wall:.3}, \"max_sends_per_rank\": {max_sends}}}{}\n",
            if i + 1 < coll.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"treecode\": {{\"np\": {np_tree}, \"n_per_rank\": {n_per_rank}, \
         \"wall_s\": {tree_wall:.3}, \"interactions\": {interactions}, \
         \"max_sends_per_rank\": {tree_sends}, \"bytes_sent\": {bytes_sent}, \
         \"max_bytes_recvd_per_rank\": {max_bytes_recvd}, \"peak_rss_mib\": {}, \
         \"top_nodes_kept\": {top_kept}, \"top_nodes_dropped\": {top_dropped}, \
         \"max_waves_per_rank\": {max_waves}}}\n}}\n",
        peak_rss_mib.map_or("null".to_string(), |m| format!("{m:.1}"))
    ));
    let path = std::path::Path::new("results").join("BENCH_event_scale.json");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, json).expect("write BENCH_event_scale.json");
    println!("results written to {}", path.display());
}
