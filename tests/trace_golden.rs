//! Golden-snapshot test for the `hot-trace` ledger (see VERIFICATION.md,
//! "Trace invariants").
//!
//! A seeded 2-rank distributed force evaluation must reproduce the
//! committed report JSON *bitwise* — every counter, every span, every
//! model-clock second. Any intentional change to the pipeline's message
//! pattern, traversal, flop accounting or the report schema shows up here
//! as a readable first-difference diff; refresh the snapshot with
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test trace_golden
//! ```
//!
//! and review the golden's diff like any other code change.

use hot_base::flops::FlopCounter;
use hot_comm::{RunConfig, RunConfigBuilder};
use hot_base::{Aabb, Vec3};
use hot_core::decomp::Body;
use hot_gravity::dist::{distributed_accelerations_traced, DistOptions};
use hot_morton::Key;
use hot_trace::{Ledger, ModelClock};
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const NP: u32 = 2;
const N_PER_RANK: usize = 150;
const SEED: u64 = 20260807;

fn seeded_bodies(rank: u32) -> Vec<Body<f64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED ^ (u64::from(rank) << 32));
    (0..N_PER_RANK)
        .map(|i| {
            let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
            Body {
                key: Key::from_point(pos, &Aabb::unit()),
                pos,
                charge: rng.gen_range(0.5..1.5),
                work: 1.0,
                id: u64::from(rank) * 1_000_000 + i as u64,
            }
        })
        .collect()
}

/// Run the pipeline on the default machine and return every rank's reduced
/// report JSON.
fn run_traced() -> Vec<String> {
    run_traced_on(RunConfig::builder().np(NP))
}

fn run_traced_on(machine: RunConfigBuilder) -> Vec<String> {
    let out = machine.run(|c| {
        let bodies = seeded_bodies(c.rank());
        let counter = FlopCounter::new();
        let opts = DistOptions { eps2: 1e-6, ..Default::default() };
        let mut trace = Ledger::new(ModelClock::paper_loki());
        let _ = distributed_accelerations_traced(c, bodies, Aabb::unit(), &opts, &counter, &mut trace);
        hot_trace::reduce(c, &trace).to_json()
    });
    out.results
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/trace_np2.json")
}

/// Point at the first line where the two JSON documents diverge.
fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first difference at line {}:\n  golden: {e}\n  actual: {a}",
                i + 1
            );
        }
    }
    format!(
        "one document is a prefix of the other ({} vs {} lines)",
        expected.lines().count(),
        actual.lines().count()
    )
}

#[test]
fn ledger_matches_committed_golden() {
    let reports = run_traced();
    let actual = &reports[0];
    for (rank, r) in reports.iter().enumerate() {
        assert_eq!(
            r, actual,
            "rank {rank} reduced to a different report than rank 0"
        );
    }

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("golden refreshed: {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1 cargo test --test trace_golden",
            path.display()
        )
    });
    assert!(
        expected == *actual,
        "trace report diverged from {}\n{}\n\
         (intentional change? refresh with UPDATE_GOLDENS=1 and review the diff)",
        path.display(),
        first_diff(&expected, actual)
    );
}

/// Repeated runs in the same process must be bitwise identical — the
/// ledger depends only on the seeded inputs, never on wall-clock, rank
/// interleaving or allocator state.
#[test]
fn repeated_runs_are_bitwise_identical() {
    let a = run_traced();
    let b = run_traced();
    assert_eq!(a, b, "two identical runs produced different ledgers");
}

/// How the ranks are scheduled must be invisible to the ledger: a seeded
/// serialized schedule and a two-worker production run reproduce the
/// *same* committed golden, bit for bit.
#[test]
fn schedules_and_worker_counts_reproduce_the_same_golden() {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        return; // ledger_matches_committed_golden owns the refresh
    }
    let expected = std::fs::read_to_string(golden_path()).expect("golden present");
    let machines = [
        ("event_seed(7)", RunConfig::builder().np(NP).event_seed(7)),
        ("workers(2)", RunConfig::builder().np(NP).workers(2)),
    ];
    for (what, machine) in machines {
        let reports = run_traced_on(machine);
        assert!(
            reports.iter().all(|r| *r == expected),
            "{what}: trace diverged from the committed golden\n{}",
            first_diff(&expected, &reports[0])
        );
    }
}
