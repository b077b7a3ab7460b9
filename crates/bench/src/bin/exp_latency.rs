//! Experiment L1: the latency-hiding walk pipeline.
//!
//! Measures request coalescing and speculative subtree prefetch on the
//! 1997 network models: per-rank request messages, request rounds,
//! prefetch traffic, and the modeled walk-phase time on Loki (104 µs /
//! 11.5 MB/s fast ethernet) and ASCI Red (20.5 µs / 290 MB/s). The
//! accelerations of every configuration must be bitwise identical — the
//! pipeline moves data earlier, it never changes what the walk computes.
//! The comparisons against the retired blocking per-key walk and against
//! the one-key-per-group-per-round walk are frozen as rows L1 and L2 of
//! EXPERIMENTS.md.
//!
//! Also sweeps the ABM physical batch capacity and reports the knee (the
//! smallest capacity whose modeled wire time is within 10% of the best),
//! which is how the shipped `WalkConfig::default().abm_batch` was chosen.
//!
//! Results go to `results/BENCH_latency.json`. From N ≥ 8192 (CI's smoke
//! size) the run *asserts*, with prefetch off, that coalescing carries ≥ 8
//! distinct keys per request message (a per-key protocol posts exactly one
//! message per distinct key, so this ratio is the saving over it; measured
//! 17.0 at `8192 4`) and that no rank needs more than 16 request rounds
//! (measured 8: a round asks for a whole level of every remote subtree the
//! parked groups reach; the walk that parked a group on its first missing
//! key took 55); at full size (N ≥ 32768) it additionally asserts the
//! shipped `abm_batch` default equals the sweep's measured knee.
//!
//! Args: `exp_latency [n_total] [np]` (defaults 32768, 8).

use hot_comm::RunConfig;
use hot_base::Aabb;
use hot_bench::{arg_usize, clustered_bodies, header, rule};
use hot_base::flops::FlopCounter;
use hot_comm::NetworkModel;
use hot_core::dwalk::WalkConfig;
use hot_gravity::{distributed_accelerations_traced, DistOptions};
use hot_core::Mac;
use hot_trace::{Counter, CounterSet, Ledger, ModelClock, Phase};

/// Everything one configuration's run produces, reduced across ranks.
struct ConfigRun {
    name: &'static str,
    /// (body id, acc bit patterns), sorted — the bitwise gate.
    acc_bits: Vec<(u64, [u64; 3])>,
    /// Walk-phase request messages, summed over ranks.
    request_msgs: u64,
    /// Distinct keys requested (cells + bodies), summed over ranks.
    keys_requested: u64,
    /// Request rounds, max over ranks.
    rounds: u64,
    prefetch_hits: u64,
    prefetched_cells: u64,
    prefetch_wasted_bytes: u64,
    /// Walk-phase logical messages posted, summed over ranks.
    walk_msgs: u64,
    walk_bytes: u64,
    /// ABM physical batches, summed over ranks.
    batches: u64,
    /// Modeled walk seconds (slowest rank) under the two 1997 networks.
    loki_s: f64,
    asci_s: f64,
}

fn walk_seconds(net: NetworkModel, cs: &CounterSet) -> f64 {
    // The walk span carries no flops (the force phase is separate), so the
    // per-proc rate only prices the traversal's bookkeeping terms.
    ModelClock::new(net, 74.3).seconds(cs)
}

fn run_config(name: &'static str, n_total: usize, np: u32, walk: WalkConfig) -> ConfigRun {
    let n_per = n_total / np as usize;
    let out = RunConfig::builder().np(np).run(move |c| {
        let bodies = clustered_bodies(c.rank(), n_per, 1997, 8);
        let counter = FlopCounter::new();
        let opts = DistOptions {
            mac: Mac::BarnesHut { theta: 0.6 },
            eps2: 1e-8,
            walk,
            ..Default::default()
        };
        let mut trace = Ledger::scratch();
        let res = distributed_accelerations_traced(
            c,
            bodies,
            Aabb::unit(),
            &opts,
            &counter,
            &mut trace,
        );
        let mut acc_bits: Vec<(u64, [u64; 3])> = res
            .bodies
            .iter()
            .zip(&res.acc)
            .map(|(b, a)| (b.id, [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()]))
            .collect();
        acc_bits.sort_unstable();
        let walk_cs = trace
            .spans()
            .iter()
            .find(|s| s.phase == Phase::Walk)
            .expect("walk span missing")
            .exclusive;
        (acc_bits, res.stats, walk_cs)
    });
    let mut run = ConfigRun {
        name,
        acc_bits: Vec::new(),
        request_msgs: 0,
        keys_requested: 0,
        rounds: 0,
        prefetch_hits: 0,
        prefetched_cells: 0,
        prefetch_wasted_bytes: 0,
        walk_msgs: 0,
        walk_bytes: 0,
        batches: 0,
        loki_s: 0.0,
        asci_s: 0.0,
    };
    for (bits, stats, cs) in out.results {
        run.acc_bits.extend(bits);
        run.request_msgs += stats.request_msgs;
        run.keys_requested += stats.cell_requests + stats.body_requests;
        run.rounds = run.rounds.max(stats.rounds);
        run.prefetch_hits += stats.prefetch_hits;
        run.prefetched_cells += stats.prefetched_cells;
        run.prefetch_wasted_bytes += stats.prefetch_wasted_bytes;
        run.walk_msgs += cs.get(Counter::MsgsSent);
        run.walk_bytes += cs.get(Counter::BytesSent);
        run.batches += stats.abm.batches_sent;
        // Walk time is set by the slowest rank.
        run.loki_s = run.loki_s.max(walk_seconds(NetworkModel::loki(), &cs));
        run.asci_s = run.asci_s.max(walk_seconds(NetworkModel::asci_red(), &cs));
    }
    run.acc_bits.sort_unstable();
    run
}

fn main() {
    let n_total = arg_usize(1, 32_768);
    let np = arg_usize(2, 8).max(2) as u32;
    header("Experiment L1: latency-hiding walk pipeline on the 1997 networks");
    println!("N = {n_total} clustered bodies, np = {np}, theta = 0.6");

    let configs = [
        ("coalesced", WalkConfig { prefetch_levels: 0, prefetch_budget: 0, ..WalkConfig::default() }),
        ("coalesced+prefetch", WalkConfig::default()),
    ];
    let runs: Vec<ConfigRun> =
        configs.iter().map(|&(name, cfg)| run_config(name, n_total, np, cfg)).collect();

    // Bitwise gate: the pipeline must never change the physics.
    for r in &runs[1..] {
        assert_eq!(
            runs[0].acc_bits, r.acc_bits,
            "{} accelerations diverged from the no-prefetch configuration",
            r.name
        );
    }
    println!(
        "bitwise gate: {} accelerations identical across {} configurations",
        runs[0].acc_bits.len(),
        runs.len()
    );
    rule();

    println!(
        "{:<20} {:>9} {:>9} {:>7} {:>9} {:>9} {:>11} {:>11}",
        "config", "req msgs", "keys", "rounds", "walk msgs", "pf hits", "loki walk", "asci walk"
    );
    for r in &runs {
        println!(
            "{:<20} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9.2}ms {:>9.3}ms",
            r.name,
            r.request_msgs,
            r.keys_requested,
            r.rounds,
            r.walk_msgs,
            r.prefetch_hits,
            r.loki_s * 1e3,
            r.asci_s * 1e3
        );
    }
    let coalesced = &runs[0];
    let best = &runs[1];
    let keys_per_msg = coalesced.keys_requested as f64 / coalesced.request_msgs.max(1) as f64;
    println!("coalescing: {keys_per_msg:.1} distinct keys per request message with prefetch off");
    rule();

    // ABM batch-capacity sweep under the full pipeline: physical wire time
    // on Loki (per-batch latency + batch-framed bytes), slowest rank's
    // share approximated by the machine total / np. Logical counters are
    // capacity-invariant (the determinism contract), so only the batch
    // count moves.
    let sweep_sizes = [1024usize, 4096, 16384, 65536];
    println!("ABM batch capacity sweep (full pipeline, Loki wire model):");
    let mut sweep: Vec<(usize, u64, f64)> = Vec::new();
    for &cap in &sweep_sizes {
        let r = run_config("sweep", n_total, np, WalkConfig { abm_batch: cap, ..WalkConfig::default() });
        assert_eq!(
            r.acc_bits, runs[0].acc_bits,
            "abm_batch = {cap}: accelerations diverged"
        );
        // The request structure (rounds, coalesced requests, keys) is
        // capacity-invariant; only reply chunking — and with it the batch
        // count — moves with the capacity.
        assert_eq!(
            (r.request_msgs, r.rounds, r.keys_requested),
            (best.request_msgs, best.rounds, best.keys_requested),
            "abm_batch = {cap}: request structure moved with the physical batch size"
        );
        let wire_bytes = r.walk_bytes + 20 * r.batches; // batch framing
        let wire_s = NetworkModel::loki().send_time(r.batches, wire_bytes) / np as f64;
        println!("  {cap:>6} B capacity: {:>5} batches, {:>8.2} ms wire", r.batches, wire_s * 1e3);
        sweep.push((cap, r.batches, wire_s));
    }
    let best_wire = sweep.iter().map(|s| s.2).fold(f64::INFINITY, f64::min);
    let knee = sweep
        .iter()
        .find(|s| s.2 <= best_wire * 1.10)
        .expect("sweep nonempty")
        .0;
    let shipped = WalkConfig::default().abm_batch;
    println!("  knee (smallest within 10% of best): {knee} B; shipped default: {shipped} B");
    rule();

    std::fs::create_dir_all("results").expect("create results dir");
    let mut json = format!(
        "{{\n  \"schema\": \"bench-latency/v2\",\n  \"n\": {n_total},\n  \"np\": {np},\n  \
         \"theta\": 0.6,\n  \"bitwise_match\": true,\n  \"configs\": [\n"
    );
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"request_msgs\": {}, \"keys_requested\": {}, \
             \"rounds\": {}, \"walk_msgs\": {}, \"walk_bytes\": {}, \"prefetched_cells\": {}, \
             \"prefetch_hits\": {}, \"prefetch_wasted_bytes\": {}, \"loki_walk_s\": {:.6}, \
             \"asci_red_walk_s\": {:.6}}}{}\n",
            r.name,
            r.request_msgs,
            r.keys_requested,
            r.rounds,
            r.walk_msgs,
            r.walk_bytes,
            r.prefetched_cells,
            r.prefetch_hits,
            r.prefetch_wasted_bytes,
            r.loki_s,
            r.asci_s,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"abm_batch_sweep\": [\n");
    for (i, (cap, batches, wire_s)) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"capacity\": {cap}, \"batches\": {batches}, \"loki_wire_s\": {wire_s:.6}}}{}\n",
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"abm_batch_knee\": {knee},\n  \"abm_batch_shipped\": {shipped},\n  \
         \"keys_per_request_msg\": {keys_per_msg:.3}\n}}\n"
    ));
    let path = std::path::Path::new("results").join("BENCH_latency.json");
    std::fs::write(&path, json).expect("write BENCH_latency.json");
    println!("results written to {}", path.display());

    // The counters are deterministic, so the gate holds down to CI's
    // smoke size; only the capacity knee needs the full problem.
    if n_total >= 8192 {
        assert!(
            keys_per_msg >= 8.0,
            "request-message gate failed: only {keys_per_msg:.2} keys per message at N = {n_total}"
        );
        assert!(
            coalesced.rounds <= 16,
            "round gate failed: {} request rounds with prefetch off at N = {n_total}",
            coalesced.rounds
        );
        println!(
            "gates passed: {keys_per_msg:.1} keys per request message, {} rounds",
            coalesced.rounds
        );
    } else {
        println!("(smoke size N = {n_total} < 8192: gate reported, not enforced)");
    }
    if n_total >= 32_768 {
        assert_eq!(
            shipped, knee,
            "shipped abm_batch default no longer matches the measured knee"
        );
        println!("capacity gate passed: shipped default {shipped} B is the measured knee");
    }
}
