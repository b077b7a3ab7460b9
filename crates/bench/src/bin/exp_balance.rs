//! Adaptive-decomposition balance experiment: the feedback loop pays for
//! itself.
//!
//! The paper's treecode re-costs every particle from the previous step's
//! interaction counts and repartitions when the load skews ("the domain
//! decomposition … based on the work profile of the previous timestep").
//! This experiment measures that loop on clustered initial conditions —
//! the load-balance stressor — at several machine sizes on the event
//! runtime:
//!
//! 1. **Skew** — per-step max/mean walk-phase flop skew. The static arm
//!    runs the one-shot `distributed_accelerations_traced` every step,
//!    re-sorting by the previous step's interaction counts; the adaptive
//!    arm runs the multi-step `distributed_step_traced`, which carries its
//!    intervals and smoothed costs across steps. After a one-step warmup
//!    the adaptive arm must sit at materially lower skew (≥ 25 %
//!    reduction at np ≥ 256, the acceptance gate).
//! 2. **Cost** — amortized decomposition + tree-build model seconds must
//!    stay below the walk+force model seconds the rebalance saves.
//! 3. **Migration** — the incremental repartition must move the minimal
//!    key-range diff: run-total migrated bodies stay under a small
//!    multiple of N (a from-scratch shuffle every step would be ~N·steps).
//!
//! Everything is written to `results/BENCH_balance.json`.
//!
//! Args: `exp_balance [np_max] [n_per_rank] [steps]` (defaults 256, 16, 6).
//! Machine sizes 64/256/1024 run up to `np_max`, so CI can smoke-test with
//! `exp_balance 64`.

use hot_base::flops::FlopCounter;
use hot_base::Aabb;
use hot_bench::{arg_usize, clustered_bodies, header, rule};
use hot_comm::RunConfig;
use hot_gravity::dist::{
    distributed_accelerations_traced, distributed_step_traced, DecompState, DistOptions,
};
use hot_trace::{Counter, Phase};
use std::time::Instant;

const SEED: u64 = 0x97;
const N_CLUMPS: usize = 8;

/// Per-rank output of one arm: per-step walk+force flops, run-total
/// (rebalances, migrated bodies, migrated bytes), and this rank's model
/// seconds for (decomp, tree-build, walk+force, walk+force compute-only).
type ArmRankOut = (Vec<u64>, u64, u64, u64, f64, f64, f64, f64);

/// Aggregated arm results.
struct Arm {
    /// Max/mean walk-phase flop skew per step.
    skew: Vec<f64>,
    rebalances: u64,
    migrated_bodies: u64,
    migrated_bytes: u64,
    /// Critical-path (max over ranks) model seconds over the whole run.
    decomp_s: f64,
    build_s: f64,
    walk_s: f64,
    /// Compute-only share of `walk_s` (flops at the model rate, no comm).
    walk_flop_s: f64,
    /// Machine-wide (mean over ranks) model seconds — the amortized-cost
    /// side of the ledger: what the whole machine spends per phase.
    decomp_mean_s: f64,
    build_mean_s: f64,
    walk_mean_s: f64,
    wall_s: f64,
}

fn run_arm(np: u32, n_per_rank: usize, steps: usize, adaptive: bool) -> Arm {
    let t0 = Instant::now();
    let out = RunConfig::builder()
        .np(np)
        .stack_size(2 << 20)
        .run(move |c| -> ArmRankOut {
            let mut bodies = clustered_bodies(c.rank(), n_per_rank, SEED, N_CLUMPS);
            let counter = FlopCounter::new();
            let opts = DistOptions { eps2: 1e-6, ..Default::default() };
            let mut state = DecompState::default();
            let mut trace = hot_trace::Ledger::new(hot_trace::ModelClock::paper_loki());
            for _ in 0..steps {
                let (domain, t) = (Aabb::unit(), &mut trace);
                let res = if adaptive {
                    distributed_step_traced(c, bodies, domain, &opts, &counter, &mut state, t)
                } else {
                    distributed_accelerations_traced(c, bodies, domain, &opts, &counter, t)
                };
                bodies = res.bodies;
            }
            let t = trace.totals();
            let clock = hot_trace::ModelClock::paper_loki();
            let phase_s = |p: Phase| -> f64 {
                trace
                    .spans()
                    .iter()
                    .filter(|s| s.phase == p)
                    .map(|s| clock.seconds(&s.exclusive))
                    .sum()
            };
            // One Walk and one Force span per step, in step order: their
            // exclusive flops are the walk-phase work the skew gate is
            // about (MAC tests + interaction kernels).
            let flops_of = |p: Phase| -> Vec<u64> {
                trace
                    .spans()
                    .iter()
                    .filter(|s| s.phase == p)
                    .map(|s| s.exclusive.get(Counter::Flops))
                    .collect()
            };
            let (wf, ff) = (flops_of(Phase::Walk), flops_of(Phase::Force));
            assert_eq!(wf.len(), steps);
            assert_eq!(ff.len(), steps);
            let per_step: Vec<u64> = wf.iter().zip(&ff).map(|(w, f)| w + f).collect();
            let flop_s = per_step.iter().sum::<u64>() as f64 / (clock.mflops_per_proc * 1e6);
            (
                per_step,
                t.get(Counter::RebalanceSteps),
                t.get(Counter::MigratedBodies),
                t.get(Counter::MigratedBytes),
                phase_s(Phase::Decomp),
                phase_s(Phase::TreeBuild),
                phase_s(Phase::Walk) + phase_s(Phase::Force),
                flop_s,
            )
        });
    let wall_s = t0.elapsed().as_secs_f64();
    let nf = f64::from(np);
    let mut skew = Vec::with_capacity(steps);
    for t in 0..steps {
        let per_rank: Vec<u64> = out.results.iter().map(|r| r.0[t]).collect();
        let max = per_rank.iter().copied().max().unwrap_or(0) as f64;
        let total: u64 = per_rank.iter().sum();
        skew.push(if total == 0 { 1.0 } else { max * nf / total as f64 });
    }
    Arm {
        skew,
        rebalances: out.results.iter().map(|r| r.1).sum(),
        migrated_bodies: out.results.iter().map(|r| r.2).sum(),
        migrated_bytes: out.results.iter().map(|r| r.3).sum(),
        decomp_s: out.results.iter().map(|r| r.4).fold(0.0, f64::max),
        build_s: out.results.iter().map(|r| r.5).fold(0.0, f64::max),
        walk_s: out.results.iter().map(|r| r.6).fold(0.0, f64::max),
        walk_flop_s: out.results.iter().map(|r| r.7).fold(0.0, f64::max),
        decomp_mean_s: out.results.iter().map(|r| r.4).sum::<f64>() / nf,
        build_mean_s: out.results.iter().map(|r| r.5).sum::<f64>() / nf,
        walk_mean_s: out.results.iter().map(|r| r.6).sum::<f64>() / nf,
        wall_s,
    }
}

/// Mean skew over the steady-state steps (everything after the one-step
/// cost warmup plus the first rebalanced step).
fn steady(skew: &[f64]) -> f64 {
    let tail = &skew[2.min(skew.len() - 1)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

fn main() {
    let np_max = arg_usize(1, 256) as u32;
    let n_per_rank = arg_usize(2, 16);
    let steps = arg_usize(3, 6).max(3);
    header("Adaptive decomposition: skew, rebalance cost, migration");

    let sizes: Vec<u32> = [64u32, 256, 1024].into_iter().filter(|&np| np <= np_max).collect();
    assert!(!sizes.is_empty(), "np_max below the smallest machine size (64)");

    let mut runs = Vec::new();
    let mut gates: Vec<String> = Vec::new();
    for &np in &sizes {
        let n_total = np as usize * n_per_rank;
        let st = run_arm(np, n_per_rank, steps, false);
        let ad = run_arm(np, n_per_rank, steps, true);
        let (st_sk, ad_sk) = (steady(&st.skew), steady(&ad.skew));
        let reduction = 100.0 * (1.0 - ad_sk / st_sk);
        println!(
            "np = {np:>4}  N = {n_total:>6}: steady skew static {st_sk:.3} → adaptive \
             {ad_sk:.3} ({reduction:+.1} %), {} rebalances, {} bodies / {} B migrated",
            ad.rebalances, ad.migrated_bodies, ad.migrated_bytes
        );
        println!(
            "            critical path:  decomp+build {:.4}+{:.4} → {:.4}+{:.4}, \
             walk {:.4} → {:.4} (flops {:.4} → {:.4})",
            st.decomp_s, st.build_s, ad.decomp_s, ad.build_s, st.walk_s, ad.walk_s,
            st.walk_flop_s, ad.walk_flop_s
        );
        println!(
            "            machine mean:   decomp+build {:.4}+{:.4} → {:.4}+{:.4}, \
             walk {:.4} → {:.4}  (wall {:.1} s + {:.1} s)",
            st.decomp_mean_s, st.build_mean_s, ad.decomp_mean_s, ad.build_mean_s,
            st.walk_mean_s, ad.walk_mean_s, st.wall_s, ad.wall_s
        );

        // Gates. The smoke gate (any np): adaptive never does worse than
        // static at steady state, and the incremental migration stays a
        // small multiple of N (bootstrap moves ~N once; a from-scratch
        // shuffle every step would be ~N·steps).
        if ad_sk > st_sk * 1.02 {
            gates.push(format!(
                "np {np}: adaptive steady skew {ad_sk:.3} worse than static {st_sk:.3}"
            ));
        }
        if ad.rebalances == 0 {
            gates.push(format!("np {np}: the feedback loop never repartitioned"));
        }
        // The bootstrap decomposition moves ~N once and the first
        // cost-driven repartition can move a sizable chunk; after that
        // the diffs must be small. A from-scratch shuffle every step
        // would migrate ~N·steps — demand less than half of that.
        if ad.migrated_bodies >= (n_total * steps) as u64 / 2 {
            gates.push(format!(
                "np {np}: migrated {} bodies over {steps} steps — not a minimal \
                 diff for N = {n_total}",
                ad.migrated_bodies
            ));
        }
        // The acceptance gates at np ≥ 256: ≥ 25 % reduction in
        // steady-state walk-phase flop skew; the critical-path walk
        // *compute* time must actually drop (balance moved real work off
        // the slowest rank); and machine-wide, the amortized
        // rebalance+migration cost must stay below the walk time saved.
        // The critical-path walk time including comm is reported (and in
        // the JSON) but not gated: at bench grain the per-message model
        // cost dominates and the cost model deliberately balances
        // measured walk work, not message counts.
        if np >= 256 {
            if reduction < 25.0 {
                gates.push(format!(
                    "np {np}: skew reduction {reduction:.1} % below the 25 % gate"
                ));
            }
            if ad.walk_flop_s >= st.walk_flop_s {
                gates.push(format!(
                    "np {np}: critical-path walk compute time did not drop \
                     ({:.4} → {:.4} model s)",
                    st.walk_flop_s, ad.walk_flop_s
                ));
            }
            let overhead = (ad.decomp_mean_s + ad.build_mean_s)
                - (st.decomp_mean_s + st.build_mean_s);
            let saved = st.walk_mean_s - ad.walk_mean_s;
            if overhead >= saved {
                gates.push(format!(
                    "np {np}: amortized rebalance overhead {overhead:.4} model s \
                     exceeds walk time saved {saved:.4}"
                ));
            }
        }
        runs.push((np, n_total, st, ad, st_sk, ad_sk, reduction));
    }

    rule();

    let fmt_skew = |s: &[f64]| {
        s.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(", ")
    };
    let mut json = String::from("{\n  \"runs\": [\n");
    for (i, (np, n_total, st, ad, st_sk, ad_sk, reduction)) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"np\": {np}, \"n_total\": {n_total}, \"steps\": {steps},\n     \
             \"static\": {{\"skew\": [{}], \"steady_skew\": {st_sk:.4}, \
             \"decomp_s\": {:.6}, \"build_s\": {:.6}, \"walk_s\": {:.6}, \
             \"walk_flop_s\": {:.6}, \"decomp_mean_s\": {:.6}, \
             \"build_mean_s\": {:.6}, \"walk_mean_s\": {:.6}, \
             \"wall_s\": {:.3}}},\n     \
             \"adaptive\": {{\"skew\": [{}], \"steady_skew\": {ad_sk:.4}, \
             \"decomp_s\": {:.6}, \"build_s\": {:.6}, \"walk_s\": {:.6}, \
             \"walk_flop_s\": {:.6}, \"decomp_mean_s\": {:.6}, \
             \"build_mean_s\": {:.6}, \"walk_mean_s\": {:.6}, \
             \"wall_s\": {:.3}, \"rebalances\": {}, \
             \"migrated_bodies\": {}, \"migrated_bytes\": {}}},\n     \
             \"skew_reduction_pct\": {reduction:.2}}}{}\n",
            fmt_skew(&st.skew),
            st.decomp_s,
            st.build_s,
            st.walk_s,
            st.walk_flop_s,
            st.decomp_mean_s,
            st.build_mean_s,
            st.walk_mean_s,
            st.wall_s,
            fmt_skew(&ad.skew),
            ad.decomp_s,
            ad.build_s,
            ad.walk_s,
            ad.walk_flop_s,
            ad.decomp_mean_s,
            ad.build_mean_s,
            ad.walk_mean_s,
            ad.wall_s,
            ad.rebalances,
            ad.migrated_bodies,
            ad.migrated_bytes,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = std::path::Path::new("results").join("BENCH_balance.json");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, json).expect("write BENCH_balance.json");
    println!("results written to {}", path.display());
    assert!(gates.is_empty(), "balance gates failed:\n{}", gates.join("\n"));
}
