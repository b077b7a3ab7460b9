//! Dynamic schedule checker for the rank runtime.
//!
//! Reruns communication-heavy workloads under many seeded rank
//! interleavings (`RunConfigBuilder::event_seed`) and asserts the three
//! properties the paper's reported numbers depend on:
//!
//! 1. **No deadlock** — a seeded run serializes ranks, so "every rank
//!    blocked with no matching in-flight or future send" is *proved*, not
//!    timed out; the failure report names each rank's wanted
//!    `(source, tag)` and its queued mailbox state.
//! 2. **Clean teardown** — no message (poison aside) left undrained in any
//!    mailbox after the SPMD bodies return.
//! 3. **Schedule independence** — results (and, for the collectives
//!    workload, the full per-rank [`hot_comm::TrafficStats`]) are bitwise
//!    identical across every seed. The ABM workload compares results and its
//!    posted/delivered message counts but not raw traffic: batch
//!    boundaries legitimately vary with the schedule (documented in
//!    VERIFICATION.md).
//!
//! The reference every seed is compared against is one production run on
//! two workers — a truly concurrent execution — so a result that depends
//! on the interleaving, or on the serialization itself, shows up as a
//! difference.

use crate::sweep::{self, SweepReport};
use crate::workloads;
use hot_comm::{Comm, RunConfig};
use std::fmt::Debug;

/// Check one workload: a production reference on two workers, then
/// `seeds` seeded schedules compared against it (see [`sweep::compare`]).
/// `compare_traffic` demands bitwise-identical per-rank
/// [`hot_comm::TrafficStats`] on top of identical results.
fn check_workload<T, F>(
    name: &'static str,
    np: u32,
    seeds: u64,
    compare_traffic: bool,
    body: F,
) -> SweepReport
where
    T: Send + PartialEq + Debug,
    F: Fn(&mut Comm) -> T + Sync,
{
    let machine = || RunConfig::builder().np(np);
    let production = ("production (2 workers)".to_string(), machine().workers(2));
    let seeded = (0..seeds).map(|seed| (format!("seed {seed}"), machine().event_seed(seed)));
    let failures = sweep::compare(production, seeded, compare_traffic, body).failures;
    SweepReport { name, ran: format!("{seeds} seeds"), failures, detail: String::new() }
}

/// Collectives sweep (see [`workloads::collectives`]): deterministic by
/// construction, so results *and* traffic must match bitwise across seeds.
#[must_use]
pub fn check_collectives(np: u32, seeds: u64) -> SweepReport {
    check_workload("collectives", np, seeds, true, workloads::collectives)
}

/// ABM traversal (see [`workloads::abm_traversal`]): results and
/// posted/delivered counts must be schedule-free; batch counts (and hence
/// raw traffic) legitimately are not.
#[must_use]
pub fn check_abm(np: u32, seeds: u64) -> SweepReport {
    check_workload("abm-traversal", np, seeds, false, workloads::abm_traversal)
}

/// Traced treecode pipeline (see [`workloads::traced_pipeline`]): a pass
/// proves the *ledger itself* is bitwise schedule-independent — the
/// property the golden-snapshot test and the paper-style phase tables rely
/// on. Raw traffic is not compared (ABM batch boundaries legitimately
/// vary); the ledger only ever records the schedule-free counters, which
/// is exactly what this check enforces.
#[must_use]
pub fn check_traced_pipeline(np: u32, seeds: u64) -> SweepReport {
    check_workload("traced-pipeline", np, seeds, false, workloads::traced_pipeline)
}

/// Adaptive-rebalance pipeline (see [`workloads::rebalance_pipeline`]):
/// the feedback-driven repartition — re-cost from the ledger, move the
/// cuts, migrate the key-range diff — must produce bitwise identical
/// accelerations, body ownership, trace reports and rebalance counters on
/// every schedule, or the migration has a schedule dependence.
#[must_use]
pub fn check_rebalance(np: u32, seeds: u64) -> SweepReport {
    check_workload("rebalance-pipeline", np, seeds, false, workloads::rebalance_pipeline)
}

/// The full checker: all workloads at several machine sizes.
#[must_use]
pub fn check_all(seeds: u64) -> Vec<SweepReport> {
    let mut reports = Vec::new();
    for np in [2, 4, 5] {
        reports.push(check_collectives(np, seeds));
        reports.push(check_abm(np, seeds));
    }
    // The traced pipeline is heavier; two sizes keep the sweep affordable
    // while still covering the odd-np branch-exchange paths.
    for np in [2, 3] {
        reports.push(check_traced_pipeline(np, seeds));
    }
    // The rebalance pipeline runs three adaptive steps per seed; one
    // multi-rank size exercises the migration's per-source merge.
    reports.push(check_rebalance(3, seeds));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectives_pass_across_seeds() {
        let rep = check_collectives(4, 8);
        assert!(rep.passed(), "{:?}", rep.failures);
    }

    #[test]
    fn abm_passes_across_seeds() {
        let rep = check_abm(3, 8);
        assert!(rep.passed(), "{:?}", rep.failures);
    }

    /// The trace ledger (reduced report JSON included) must be bitwise
    /// identical across seeded schedules — tracing with the deterministic
    /// model clock never records wall-clock or schedule-dependent state.
    #[test]
    fn traced_pipeline_ledger_is_schedule_independent() {
        let rep = check_traced_pipeline(2, 6);
        assert!(rep.passed(), "{:?}", rep.failures);
    }

    /// The adaptive rebalance — re-cost, move cuts, migrate the diff —
    /// must be bitwise schedule-independent end to end, and the sweep is
    /// only meaningful if the feedback loop actually fired.
    #[test]
    fn rebalance_pipeline_is_schedule_independent() {
        let rep = check_rebalance(3, 4);
        assert!(rep.passed(), "{:?}", rep.failures);
        let out = hot_comm::RunConfig::builder().np(3).run(crate::workloads::rebalance_pipeline);
        let (_, _, _, rebalances, migrated) = &out.results[0];
        assert!(*rebalances > 0, "clustered workload never repartitioned");
        assert!(*migrated > 0, "repartition moved no bodies");
    }

    /// Planted fixture 1: a two-rank head-to-head deadlock (both ranks
    /// receive before sending). The checker must flag it with an actionable
    /// report naming both ranks' tag state rather than hanging.
    #[test]
    fn detects_planted_deadlock() {
        let rep = check_workload("fixture-deadlock", 2, 4, false, |c| {
            let other = 1 - c.rank();
            // Deadlock: both sides recv first; no send is ever in flight.
            let v: u64 = c.recv(other, 0x77);
            c.send(other, 0x77, &v);
            v
        });
        assert!(!rep.passed(), "planted deadlock not detected");
        let msg = rep.failures.join("\n");
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("rank 0"), "{msg}");
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains("tag=0x77"), "{msg}");
    }

    /// Planted fixture 2: an order-sensitive floating-point reduction.
    /// Rank 0 sums contributions in *arrival* order; the addends are chosen
    /// so that float addition order changes the rounded result. Different
    /// schedules permute arrivals, so results differ across seeds and the
    /// checker must say so.
    #[test]
    fn detects_planted_nondeterministic_reduction() {
        let rep = check_workload("fixture-nondet-reduction", 4, 16, false, |c| {
            let vals = [0.0, 1.0e16, 3.0, -1.0e16];
            if c.rank() == 0 {
                let mut acc = 0.0f64;
                for _ in 1..c.size() {
                    let (_, v) = c.recv_any::<f64>(9);
                    acc += v; // arrival order = schedule order: nondeterministic
                }
                acc.to_bits()
            } else {
                c.send(0, 9, &vals[c.rank() as usize]);
                0
            }
        });
        assert!(!rep.passed(), "planted nondeterministic reduction not detected");
        let msg = rep.failures.join("\n");
        assert!(msg.contains("results differ"), "{msg}");
        assert!(msg.contains("schedule-dependent"), "{msg}");
    }

    /// An unreceived message must surface as an undrained-teardown failure.
    #[test]
    fn detects_undrained_message() {
        let rep = check_workload("fixture-undrained", 2, 2, false, |c| {
            if c.rank() == 0 {
                c.send(1, 5, &1u8); // never received
            }
            c.rank()
        });
        assert!(!rep.passed(), "undrained message not detected");
        assert!(rep.failures.join("\n").contains("undrained"), "{:?}", rep.failures);
    }

    /// The full default sweep stays green — the same invariant CI enforces.
    #[test]
    fn full_sweep_passes() {
        for rep in check_all(4) {
            assert!(rep.passed(), "{}: {:?}", rep.name, rep.failures);
        }
    }
}
