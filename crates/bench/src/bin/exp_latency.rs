//! Experiment L1: the latency-hiding walk pipeline.
//!
//! Measures request coalescing on the 1997 network models: per-rank
//! request messages, distinct keys requested, request rounds, and the
//! modeled walk-phase time on Loki (104 µs / 11.5 MB/s fast ethernet) and
//! ASCI Red (20.5 µs / 290 MB/s). The comparisons against the retired
//! blocking per-key walk, the one-key-per-group-per-round walk, the
//! speculative subtree prefetch and the ABM batch-capacity sweep are frozen
//! as rows L1 and L2 of EXPERIMENTS.md.
//!
//! Results go to `results/BENCH_latency.json`. From N ≥ 8192 (CI's smoke
//! size) the run *asserts* that coalescing carries ≥ 8 distinct keys per
//! request message (a per-key protocol posts exactly one message per
//! distinct key, so this ratio is the saving over it; measured 17.0 at
//! `8192 4`) and that no rank needs more than 16 request rounds (measured
//! 8: a round asks for a whole level of every remote subtree the parked
//! groups reach; the walk that parked a group on its first missing key
//! took 55).
//!
//! Args: `exp_latency [n_total] [np]` (defaults 32768, 8).

use hot_base::flops::FlopCounter;
use hot_base::Aabb;
use hot_bench::{arg_usize, clustered_bodies, header, rule};
use hot_comm::{NetworkModel, RunConfig};
use hot_core::Mac;
use hot_gravity::{distributed_accelerations_traced, DistOptions};
use hot_machine::LOKI;
use hot_trace::{Counter, CounterSet, Ledger, ModelClock, Phase};

/// The walk's counts, reduced across ranks.
#[derive(Default)]
struct WalkRun {
    /// Walk-phase request messages, summed over ranks.
    request_msgs: u64,
    /// Distinct keys requested (cells + bodies), summed over ranks.
    keys_requested: u64,
    /// Request rounds, max over ranks.
    rounds: u64,
    /// Walk-phase logical messages posted, summed over ranks.
    walk_msgs: u64,
    walk_bytes: u64,
    /// Modeled walk seconds (slowest rank) under the two 1997 networks.
    loki_s: f64,
    asci_s: f64,
}

fn walk_seconds(net: NetworkModel, cs: &CounterSet) -> f64 {
    // The walk span carries no flops (the force phase is separate), so the
    // per-proc rate only prices the traversal's bookkeeping terms.
    ModelClock::new(net, LOKI.nbody_mflops_per_proc).seconds(cs)
}

fn run_walk(n_total: usize, np: u32) -> WalkRun {
    let n_per = n_total / np as usize;
    let out = RunConfig::builder().np(np).run(move |c| {
        let bodies = clustered_bodies(c.rank(), n_per, 1997, 8);
        let opts = DistOptions {
            mac: Mac::BarnesHut { theta: 0.6 },
            eps2: 1e-8,
            ..Default::default()
        };
        let mut trace = Ledger::scratch();
        let res = distributed_accelerations_traced(
            c,
            bodies,
            Aabb::unit(),
            &opts,
            &FlopCounter::new(),
            &mut trace,
        );
        let walk_cs = trace
            .spans()
            .iter()
            .find(|s| s.phase == Phase::Walk)
            .expect("walk span missing")
            .exclusive;
        (res.stats, walk_cs)
    });
    let mut run = WalkRun::default();
    for (stats, cs) in out.results {
        run.request_msgs += stats.request_msgs;
        run.keys_requested += stats.cell_requests + stats.body_requests;
        run.rounds = run.rounds.max(stats.rounds);
        run.walk_msgs += cs.get(Counter::MsgsSent);
        run.walk_bytes += cs.get(Counter::BytesSent);
        // Walk time is set by the slowest rank.
        run.loki_s = run.loki_s.max(walk_seconds(NetworkModel::loki(), &cs));
        run.asci_s = run.asci_s.max(walk_seconds(NetworkModel::asci_red(), &cs));
    }
    run
}

fn main() {
    let n_total = arg_usize(1, 32_768);
    let np = arg_usize(2, 8).max(2) as u32;
    header("Experiment L1: latency-hiding walk pipeline on the 1997 networks");
    println!("N = {n_total} clustered bodies, np = {np}, theta = 0.6");

    let r = run_walk(n_total, np);
    println!(
        "{:>9} {:>9} {:>7} {:>9} {:>11} {:>11}",
        "req msgs", "keys", "rounds", "walk msgs", "loki walk", "asci walk"
    );
    println!(
        "{:>9} {:>9} {:>7} {:>9} {:>9.2}ms {:>9.3}ms",
        r.request_msgs,
        r.keys_requested,
        r.rounds,
        r.walk_msgs,
        r.loki_s * 1e3,
        r.asci_s * 1e3
    );
    let keys_per_msg = r.keys_requested as f64 / r.request_msgs.max(1) as f64;
    println!("coalescing: {keys_per_msg:.1} distinct keys per request message");
    rule();

    std::fs::create_dir_all("results").expect("create results dir");
    let json = format!(
        "{{\n  \"schema\": \"bench-latency/v3\",\n  \"n\": {n_total},\n  \"np\": {np},\n  \
         \"theta\": 0.6,\n  \"request_msgs\": {},\n  \"keys_requested\": {},\n  \
         \"rounds\": {},\n  \"walk_msgs\": {},\n  \"walk_bytes\": {},\n  \
         \"loki_walk_s\": {:.6},\n  \"asci_red_walk_s\": {:.6},\n  \
         \"keys_per_request_msg\": {keys_per_msg:.3}\n}}\n",
        r.request_msgs, r.keys_requested, r.rounds, r.walk_msgs, r.walk_bytes, r.loki_s, r.asci_s
    );
    let path = std::path::Path::new("results").join("BENCH_latency.json");
    std::fs::write(&path, json).expect("write BENCH_latency.json");
    println!("results written to {}", path.display());

    // The counters are deterministic, so the gate holds down to CI's
    // smoke size.
    if n_total >= 8192 {
        assert!(
            keys_per_msg >= 8.0,
            "request-message gate failed: only {keys_per_msg:.2} keys per message at N = {n_total}"
        );
        assert!(
            r.rounds <= 16,
            "round gate failed: {} request rounds at N = {n_total}",
            r.rounds
        );
        println!("gates passed: {keys_per_msg:.1} keys per request message, {} rounds", r.rounds);
    } else {
        println!("(smoke size N = {n_total} < 8192: gate reported, not enforced)");
    }
}
