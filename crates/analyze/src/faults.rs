//! Fault-injection checker: determinism under a hostile network.
//!
//! Crosses seeded [`FaultPlan`]s (every fault class at ≥ 10%: drop,
//! duplicate, reorder/delay, bit-flip corruption, rank stalls) with seeded
//! rank interleavings (`RunConfigBuilder::event_seed`), and asserts that
//! each workload still
//! produces output **bitwise identical** to a fault-free reference run:
//!
//! 1. **Completion** — every faulted run terminates (the reliable
//!    transport recovers every loss; no deadlock, no undrained teardown).
//! 2. **Result identity** — per-rank results equal the fault-free
//!    reference exactly. For the traced pipeline the result *is* the
//!    reduced `hot-trace` report JSON plus a force checksum, so this pins
//!    the paper-style tables and the force output at once.
//! 3. **Logical-traffic identity** — for the collectives workload the
//!    per-rank [`hot_comm::TrafficStats`] must also match: the ledger
//!    counts only logical payload, never retransmissions.
//! 4. **Non-vacuity** — the sweep must have actually injected faults and
//!    the transport must have actually recovered some; a hostile plan that
//!    touched nothing proves nothing and is reported as a failure.

use crate::sweep::{self, SweepReport};
use crate::workloads;
use hot_comm::{Comm, FaultConfig, FaultPlan, RunConfig};
use std::fmt::Debug;

/// Sweep one workload: a fault-free reference, then `fault_seeds` hostile
/// plans × `schedules` seeded interleavings, each compared bitwise against
/// the reference (see [`sweep::compare`]); then reject the vacuous pass.
fn sweep_workload<T, F>(
    name: &'static str,
    np: u32,
    fault_seeds: u64,
    schedules: u64,
    compare_traffic: bool,
    body: F,
) -> SweepReport
where
    T: Send + PartialEq + Debug,
    F: Fn(&mut Comm) -> T + Sync,
{
    let machine = move || RunConfig::builder().np(np);
    // Fault-free golden. The schedules checker separately proves the
    // reference is schedule-independent, so one seed suffices here.
    let reference = ("fault-free reference".to_string(), machine().event_seed(0));
    let faulted = (0..fault_seeds).flat_map(|fault_seed| {
        let plan = FaultConfig::hostile(0xFA17 + fault_seed);
        (0..schedules).map(move |sched_seed| {
            let cfg = machine().event_seed(sched_seed).faults(FaultPlan::new(plan));
            (format!("fault seed {fault_seed} × schedule {sched_seed}"), cfg)
        })
    });
    let mut run = sweep::compare(reference, faulted, compare_traffic, body);
    // Reject vacuous passes: a hostile sweep that never injected (or
    // never had to recover) anything exercised nothing.
    if run.failures.is_empty() && run.injected == 0 {
        run.failures.push("vacuous sweep: hostile plans injected zero faults".to_string());
    }
    if run.failures.is_empty() && run.recovered.is_quiet() {
        run.failures.push("vacuous sweep: transport reported zero recovery activity".to_string());
    }
    let t = &run.recovered;
    let detail = format!(
        "injected {}, recovered via {} retries / {} crc rejects / {} dups suppressed",
        run.injected, t.retries, t.crc_rejects, t.dup_suppressed
    );
    let ran = format!("{fault_seeds} fault seeds × {schedules} schedules");
    SweepReport { name, ran, failures: run.failures, detail }
}

/// Collectives under faults: results *and* logical traffic must match the
/// fault-free reference bitwise.
#[must_use]
pub fn check_collectives(np: u32, fault_seeds: u64, schedules: u64) -> SweepReport {
    sweep_workload("collectives", np, fault_seeds, schedules, true, workloads::collectives)
}

/// ABM traversal under faults: results and posted/delivered counts must
/// match; raw traffic is schedule-dependent and is not compared.
#[must_use]
pub fn check_abm(np: u32, fault_seeds: u64, schedules: u64) -> SweepReport {
    sweep_workload("abm-traversal", np, fault_seeds, schedules, false, workloads::abm_traversal)
}

/// Full traced treecode pipeline under faults: force checksum *and* the
/// reduced `hot-trace` report JSON must match the fault-free golden
/// bitwise — the headline acceptance property of the fault layer.
#[must_use]
pub fn check_traced_pipeline(np: u32, fault_seeds: u64, schedules: u64) -> SweepReport {
    sweep_workload(
        "traced-pipeline",
        np,
        fault_seeds,
        schedules,
        false,
        workloads::traced_pipeline,
    )
}

/// Adaptive-rebalance pipeline under faults: the forces, trace report and
/// rebalance counters must match the fault-free reference bitwise.
#[must_use]
pub fn check_rebalance(np: u32, fault_seeds: u64, schedules: u64) -> SweepReport {
    let body = workloads::rebalance_pipeline;
    sweep_workload("rebalance-pipeline", np, fault_seeds, schedules, false, body)
}

/// The full fault sweep CI runs: all workloads, fault seeds × schedules.
///
/// The two pipelines are much heavier per run than the other workloads,
/// so their fault-seed count is capped (the cap is printed by the CLI, not
/// silently applied) — the cheap workloads carry the breadth of the seed
/// sweep, the pipelines carry the depth of the protocol stack.
#[must_use]
pub fn check_all(fault_seeds: u64) -> Vec<SweepReport> {
    let schedules = 3;
    let mut reports = Vec::new();
    for np in [2, 4] {
        reports.push(check_collectives(np, fault_seeds, schedules));
        reports.push(check_abm(np, fault_seeds, schedules));
    }
    reports.push(check_traced_pipeline(2, pipeline_seed_cap(fault_seeds), 2));
    reports.push(check_rebalance(3, pipeline_seed_cap(fault_seeds), 2));
    reports
}

/// Fault-seed budget for the traced and rebalance pipelines inside
/// [`check_all`].
#[must_use]
pub fn pipeline_seed_cap(fault_seeds: u64) -> u64 {
    fault_seeds.min(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Faults the sweep injected, read off its `ok` detail.
    fn injected(rep: &SweepReport) -> u64 {
        let n = rep.detail.strip_prefix("injected ").and_then(|d| d.split(',').next());
        n.and_then(|n| n.parse().ok()).expect("detail starts with the injected count")
    }

    #[test]
    fn collectives_survive_hostile_plans() {
        let rep = check_collectives(3, 3, 2);
        assert!(rep.passed(), "{:?}", rep.failures);
        assert!(injected(&rep) > 0, "vacuous: nothing injected");
    }

    #[test]
    fn abm_survives_hostile_plans() {
        let rep = check_abm(3, 2, 2);
        assert!(rep.passed(), "{:?}", rep.failures);
    }

    #[test]
    fn traced_pipeline_survives_hostile_plans() {
        let rep = check_traced_pipeline(2, 1, 1);
        assert!(rep.passed(), "{:?}", rep.failures);
        // The pipeline's result includes the trace-report JSON, so a pass
        // means the report was bitwise identical under injected faults.
        assert!(injected(&rep) > 0, "vacuous: nothing injected");
    }

    /// The adaptive step's migration and rebalance counters survive hostile
    /// plans, and the sweep is not vacuous: faults were injected, and the
    /// feedback loop repartitioned and moved bodies.
    #[test]
    fn rebalance_pipeline_survives_hostile_plans() {
        let rep = check_rebalance(3, 1, 1);
        assert!(rep.passed(), "{:?}", rep.failures);
        assert!(injected(&rep) > 0, "vacuous: nothing injected");
        let out = RunConfig::builder().np(3).run(workloads::rebalance_pipeline);
        let (_, _, _, rebalances, migrated) = &out.results[0];
        assert!(*rebalances > 0, "clustered workload never repartitioned");
        assert!(*migrated > 0, "repartition moved no bodies");
    }

    /// Planted fixture: a workload whose result records *recovery-visible*
    /// state (the order in which two senders' messages arrive, which drops,
    /// delays and retransmissions permute). That is schedule/fault-dependent
    /// by design, and the checker must flag it — proving the comparison
    /// actually bites.
    #[test]
    fn detects_fault_dependent_results() {
        let rep = sweep_workload("fixture-fault-dependent", 3, 4, 2, false, |c| {
            if c.rank() == 0 {
                // One bit per message: did it come from rank 2?
                let mut order = 0u64;
                for _ in 0..40 {
                    let (src, _) = c.recv_bytes(None, 7);
                    order = order << 1 | u64::from(src == 2);
                }
                order
            } else {
                for i in 0..20u64 {
                    c.send(0, 7, &i);
                }
                0
            }
        });
        assert!(!rep.passed(), "planted fault-dependent result not detected");
        let msg = rep.failures.join("\n");
        assert!(msg.contains("differ from fault-free reference"), "{msg}");
    }

    /// A workload that sends no message gives a hostile plan nothing to
    /// fault: the sweep must refuse the vacuous pass.
    #[test]
    fn silent_workload_is_a_vacuous_sweep() {
        let rep = sweep_workload("fixture-silent", 2, 2, 2, false, |c| c.rank());
        assert_eq!(rep.failures, ["vacuous sweep: hostile plans injected zero faults"]);
    }

    /// Every faulted run of a workload that leaves a message undrained
    /// fails; the sweep stops past 8 failures and says so exactly once.
    #[test]
    fn sweep_aborts_once_after_eight_failures() {
        let rep = sweep_workload("fixture-undrained", 2, 4, 3, false, |c| {
            if c.rank() == 0 {
                c.send(1, 5, &1u8); // never received
            }
            c.rank()
        });
        let abort = "… sweep aborted after 8 failures";
        assert_eq!(rep.failures.iter().filter(|f| *f == abort).count(), 1, "{:?}", rep.failures);
        assert_eq!(rep.failures.last().map(String::as_str), Some(abort));
    }
}
