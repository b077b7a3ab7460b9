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
//!    per-rank [`TrafficStats`] must also match: the ledger counts only
//!    logical payload, never retransmissions.
//! 4. **Non-vacuity** — the sweep must have actually injected faults and
//!    the transport must have actually recovered some; a hostile plan that
//!    touched nothing proves nothing and is reported as a failure.

use crate::workloads;
use hot_comm::{Comm, FaultConfig, FaultPlan, RunConfig};
use hot_trace::FaultReport;
use std::fmt::Debug;
use std::panic::AssertUnwindSafe;

/// Outcome of one workload swept across fault plans × schedules.
#[derive(Debug)]
pub struct FaultSweepReport {
    /// Workload name.
    pub name: &'static str,
    /// Fault seeds exercised.
    pub fault_seeds: u64,
    /// Seeded schedules per fault seed.
    pub schedules: u64,
    /// Human-readable failures; empty means the workload passed.
    pub failures: Vec<String>,
    /// Recovery activity aggregated over the whole sweep (outside the
    /// determinism contract; reported for visibility).
    pub recovery: FaultReport,
}

impl FaultSweepReport {
    /// True when every faulted run matched the fault-free reference.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

struct Snapshot<T> {
    results: Vec<T>,
    stats: Vec<hot_comm::TrafficStats>,
    undrained: Vec<String>,
    reliability: Vec<hot_comm::ReliabilityStats>,
    injected: hot_comm::InjectedFaults,
}

/// Run `body` on `np` ranks under a seeded schedule and an optional fault
/// plan, catching rank panics into `Err`.
fn run_one<T, F>(
    np: u32,
    sched_seed: u64,
    fault: Option<FaultConfig>,
    body: F,
) -> Result<Snapshot<T>, String>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let cfg = RunConfig::builder()
        .np(np)
        .event_seed(sched_seed)
        .faults_opt(fault.map(FaultPlan::new))
        .build();
    let out = std::panic::catch_unwind(AssertUnwindSafe(|| cfg.run(body)))
        .map_err(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!("rank panic: {msg}")
        })?;
    Ok(Snapshot {
        results: out.results,
        stats: out.stats,
        undrained: out.undrained.iter().map(ToString::to_string).collect(),
        reliability: out.reliability,
        injected: out.injected,
    })
}

/// Sweep one workload: a fault-free reference, then `fault_seeds` hostile
/// plans × `schedules` seeded interleavings, each compared bitwise against
/// the reference.
fn sweep_workload<T, F>(
    name: &'static str,
    np: u32,
    fault_seeds: u64,
    schedules: u64,
    compare_traffic: bool,
    body: F,
) -> FaultSweepReport
where
    T: Send + PartialEq + Debug,
    F: Fn(&mut Comm) -> T + Sync,
{
    let mut failures = Vec::new();
    let mut recovered = hot_comm::ReliabilityStats::default();
    let mut injected = hot_comm::InjectedFaults::default();
    let mut config = None;

    // Fault-free golden. The schedules checker separately proves the
    // reference is schedule-independent, so one seed suffices here.
    let reference = match run_one(np, 0, None, &body) {
        Ok(snap) => {
            if snap.injected.total() != 0 || !snap.reliability.iter().all(hot_comm::ReliabilityStats::is_quiet) {
                failures.push("fault-free reference reported recovery activity".to_string());
            }
            Some(snap)
        }
        Err(e) => {
            failures.push(format!("fault-free reference: {e}"));
            None
        }
    };

    if let Some(r) = &reference {
        'sweep: for fault_seed in 0..fault_seeds {
            let plan = FaultConfig::hostile(0xFA17 + fault_seed);
            config.get_or_insert(plan);
            for sched_seed in 0..schedules {
                let label = format!("fault seed {fault_seed} × schedule {sched_seed}");
                match run_one(np, sched_seed, Some(plan), &body) {
                    Err(e) => failures.push(format!("{label}: {e}")),
                    Ok(snap) => {
                        if !snap.undrained.is_empty() {
                            failures.push(format!(
                                "{label}: {} message(s) undrained at teardown: {}",
                                snap.undrained.len(),
                                snap.undrained.join("; ")
                            ));
                        }
                        if snap.results != r.results {
                            failures.push(format!(
                                "{label}: results differ from fault-free reference\n  \
                                 reference: {:?}\n  faulted:   {:?}",
                                r.results, snap.results
                            ));
                        }
                        if compare_traffic && snap.stats != r.stats {
                            failures.push(format!(
                                "{label}: logical TrafficStats differ from fault-free \
                                 reference — recovery traffic leaked into the ledger\n  \
                                 reference: {:?}\n  faulted:   {:?}",
                                r.stats, snap.stats
                            ));
                        }
                        for s in &snap.reliability {
                            recovered.merge(s);
                        }
                        let i = snap.injected;
                        injected.drops += i.drops;
                        injected.duplicates += i.duplicates;
                        injected.corruptions += i.corruptions;
                        injected.delays += i.delays;
                        injected.stalls += i.stalls;
                    }
                }
                if failures.len() > 8 {
                    failures.push("… sweep aborted after 8 failures".to_string());
                    break 'sweep;
                }
            }
        }
        // Reject vacuous passes: a hostile sweep that never injected (or
        // never had to recover) anything exercised nothing.
        if failures.is_empty() && injected.total() == 0 {
            failures.push("vacuous sweep: hostile plans injected zero faults".to_string());
        }
        if failures.is_empty() && recovered.is_quiet() {
            failures
                .push("vacuous sweep: transport reported zero recovery activity".to_string());
        }
    }

    let per_rank = vec![recovered]; // sweep-level aggregate, not per-rank
    FaultSweepReport {
        name,
        fault_seeds,
        schedules,
        failures,
        recovery: FaultReport::from_run(config, &per_rank, injected),
    }
}

/// Collectives under faults: results *and* logical traffic must match the
/// fault-free reference bitwise.
#[must_use]
pub fn check_collectives(np: u32, fault_seeds: u64, schedules: u64) -> FaultSweepReport {
    sweep_workload("collectives", np, fault_seeds, schedules, true, workloads::collectives)
}

/// ABM traversal under faults: results and posted/delivered counts must
/// match; raw traffic is schedule-dependent and is not compared.
#[must_use]
pub fn check_abm(np: u32, fault_seeds: u64, schedules: u64) -> FaultSweepReport {
    sweep_workload("abm-traversal", np, fault_seeds, schedules, false, workloads::abm_traversal)
}

/// Full traced treecode pipeline under faults: force checksum *and* the
/// reduced `hot-trace` report JSON must match the fault-free golden
/// bitwise — the headline acceptance property of the fault layer.
#[must_use]
pub fn check_traced_pipeline(np: u32, fault_seeds: u64, schedules: u64) -> FaultSweepReport {
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
pub fn check_rebalance(np: u32, fault_seeds: u64, schedules: u64) -> FaultSweepReport {
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
pub fn check_all(fault_seeds: u64) -> Vec<FaultSweepReport> {
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

    #[test]
    fn collectives_survive_hostile_plans() {
        let rep = check_collectives(3, 3, 2);
        assert!(rep.passed(), "{:?}", rep.failures);
        assert!(rep.recovery.injected.total() > 0, "vacuous: nothing injected");
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
        assert!(rep.recovery.injected.total() > 0, "vacuous: nothing injected");
    }

    /// The adaptive step's migration and rebalance counters survive hostile
    /// plans, and the sweep is not vacuous: faults were injected, and the
    /// feedback loop repartitioned and moved bodies.
    #[test]
    fn rebalance_pipeline_survives_hostile_plans() {
        let rep = check_rebalance(3, 1, 1);
        assert!(rep.passed(), "{:?}", rep.failures);
        assert!(rep.recovery.injected.total() > 0, "vacuous: nothing injected");
        let out = RunConfig::builder().np(3).run(workloads::rebalance_pipeline);
        let (_, _, _, rebalances, migrated) = &out.results[0];
        assert!(*rebalances > 0, "clustered workload never repartitioned");
        assert!(*migrated > 0, "repartition moved no bodies");
    }

    /// Planted fixture: a workload whose result records *recovery-visible*
    /// state (how many raw frames arrived, dups and all). That is
    /// schedule/fault-dependent by design, and the checker must flag it —
    /// proving the comparison actually bites.
    #[test]
    fn detects_fault_dependent_results() {
        let rep = sweep_workload("fixture-fault-dependent", 2, 4, 2, false, |c| {
            if c.rank() == 0 {
                for i in 0..20u64 {
                    c.send(1, 7, &i);
                }
                0
            } else {
                let mut sum = 0u64;
                for _ in 0..20 {
                    sum += c.recv::<u64>(0, 7);
                }
                // Leak transport state into the "result": total retries seen
                // so far on this rank. Varies with the fault plan.
                sum + c.reliability_stats().retries * 1_000_000
            }
        });
        assert!(!rep.passed(), "planted fault-dependent result not detected");
        let msg = rep.failures.join("\n");
        assert!(msg.contains("differ from fault-free reference"), "{msg}");
    }
}
