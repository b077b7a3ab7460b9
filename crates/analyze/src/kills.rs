//! Crash-stop kill checker: seeded rank deaths must be *detected* by a
//! survivor, and supervised rollback must recover to the bitwise golden.
//!
//! Two sweeps back the gate:
//!
//! 1. **Detection** ([`check_detection`]) — seeded crash-stop plans
//!    ([`FaultConfig::lethal`]) crossed with schedules (the production
//!    executor *and* seeded serialized interleavings) over a chatty
//!    point-to-point workload. A death is detected in one way only: the
//!    executor proves the machine quiescent while a rank is dead, and
//!    every survivor blocked at that verdict records it. Every run where a
//!    kill fired must abort with at least one detection; every detection
//!    must be made by a live rank, accuse a rank that actually died, and
//!    appear once; and a run where no kill fired must complete cleanly.
//!    The counts are a function of the plans alone, so two runs of the
//!    sweep print the same numbers.
//! 2. **Recovery** ([`check_recovery`]) — targeted kills at step positions
//!    crossing checkpoint boundaries (top-of-step and mid-step, np ∈
//!    {2, 4, 8}) driven through the cosmology supervisor
//!    ([`hot_cosmo::supervisor`]), whose force evaluations carry bodies,
//!    measured costs and key intervals across a segment: each killed run
//!    must detect, roll back, rebuild that state from the checkpoint,
//!    rerun, and finish with state digest and trace totals **bitwise
//!    identical** to the fault-free golden's, migration counters and all.
//!
//! Both sweeps reject vacuous passes (a sweep in which no kill ever fired
//! proves nothing), and the separate planted fixture
//! ([`check_planted_undetected`], CLI `--planted-undetected`) proves the
//! detection gate bites: a workload whose ranks never communicate never
//! blocks, so no quiescence reveals the death; the runtime's teardown
//! audit flags it, and the checker *must* report it (CI asserts exit 1).

use crate::sweep::{self, SweepReport};
use hot_comm::{Comm, DetectionRecord, FaultConfig, FaultPlan, RunConfig};
use hot_cosmo::supervisor::{self, KillSpec, SupervisorConfig};
use std::collections::BTreeSet;

/// The report of a kill sweep: `plans × schedules` ran, and a pass lists
/// the kills fired, the detections recorded and the rollbacks run.
fn kill_report(
    name: &'static str,
    plans: u64,
    schedules: u64,
    failures: Vec<String>,
    [kills, detections, recoveries]: [u64; 3],
) -> SweepReport {
    SweepReport {
        name,
        ran: format!("{plans} plans × {schedules} schedules"),
        failures,
        detail: format!("{kills} kills fired, {detections} detections, {recoveries} recoveries"),
    }
}

/// A chatty neighbor exchange: enough blocked receives that, after a kill
/// inside the window, every survivor ends up blocked on the dead rank
/// (directly or through a neighbor). Pure function of `(np, rank)`.
fn ring_workload(c: &mut Comm) -> u64 {
    let np = c.size();
    let right = (c.rank() + 1) % np;
    let left = (c.rank() + np - 1) % np;
    let mut acc = u64::from(c.rank());
    for round in 0..64u64 {
        c.send(right, 5, &(acc + round));
        acc = acc.wrapping_add(c.recv::<u64>(left, 5));
    }
    acc
}

/// Cross seeded crash-stop plans with schedules and demand every fired
/// kill is detected, by live ranks, once per (survivor, dead) pair.
/// Schedule 0 is the production executor on its default workers;
/// schedules ≥ 1 are seeded serialized interleavings. Both detect at
/// proven quiescence.
#[must_use]
pub fn check_detection(np: u32, kill_seeds: u64, schedules: u64) -> SweepReport {
    let mut failures = Vec::new();
    let mut kills_fired = 0u64;
    let mut detections = 0u64;
    let mut wipeouts = 0u64;

    'sweep: for kill_seed in 0..kill_seeds {
        // Per-rank death probability well under 1: a plan that kills every
        // rank leaves no survivor to do the detecting and proves nothing.
        let config = FaultConfig::lethal(0x4B11 + kill_seed, 0.4, (16, 96));
        for sched_seed in 0..schedules {
            let plan = FaultPlan::new(config);
            let monitor = plan.monitor();
            let label = format!("np {np} kill seed {kill_seed} × schedule {sched_seed}");
            let b = RunConfig::builder().np(np).faults(plan);
            let b = if sched_seed == 0 { b } else { b.event_seed(sched_seed) };
            let result = sweep::run_caught(b, ring_workload);
            let kills = monitor.kills();
            let found: Vec<DetectionRecord> = monitor.detections();
            kills_fired += kills.len() as u64;
            detections += found.len() as u64;
            if kills.len() as u32 == np {
                // Total wipeout: nothing left to detect; not a pass, not a
                // failure — but counted, so a sweep of wipeouts stays
                // vacuous rather than silently passing.
                wipeouts += 1;
                continue;
            }
            match result {
                Ok(_) => {
                    if !kills.is_empty() {
                        failures.push(format!(
                            "{label}: {} kill(s) fired yet the run completed normally",
                            kills.len()
                        ));
                    }
                }
                Err(msg) => {
                    if kills.is_empty() {
                        failures.push(format!("{label}: no kill fired but the run aborted: {msg}"));
                        continue;
                    }
                    if found.is_empty() {
                        failures.push(format!(
                            "{label}: {} kill(s) fired, run aborted, but no survivor \
                             recorded a detection: {msg}",
                            kills.len()
                        ));
                    }
                    let mut pairs = BTreeSet::new();
                    for d in &found {
                        if !kills.iter().any(|k| k.rank == d.dead) {
                            failures.push(format!(
                                "{label}: rank {} falsely confirmed live rank {} dead",
                                d.by, d.dead
                            ));
                        }
                        if kills.iter().any(|k| k.rank == d.by) {
                            failures.push(format!(
                                "{label}: dead rank {} recorded a detection of rank {}",
                                d.by, d.dead
                            ));
                        }
                        if !pairs.insert((d.by, d.dead)) {
                            failures.push(format!(
                                "{label}: rank {} recorded rank {}'s death twice",
                                d.by, d.dead
                            ));
                        }
                    }
                }
            }
            if sweep::aborted(&mut failures) {
                break 'sweep;
            }
        }
    }
    if failures.is_empty() && kills_fired == 0 {
        failures.push("vacuous sweep: no kill plan ever fired".to_string());
    }
    if failures.is_empty() && detections == 0 {
        failures.push(format!(
            "vacuous sweep: kills fired but zero detections recorded \
             ({wipeouts} total-wipeout runs)"
        ));
    }
    kill_report("kill-detection", kill_seeds, schedules, failures, [kills_fired, detections, 0])
}

/// Kill positions for an `n`-step supervised run checkpointed every 2
/// steps: inside the first segment (top-of-step), at a segment boundary
/// (mid-step), and in the final segment (mid-step) — the "≥ 3 kill times
/// crossing checkpoint boundaries" of the acceptance gate.
fn boundary_kills(np: u32) -> [KillSpec; 3] {
    [
        KillSpec { rank: np - 1, step: 1, mid_step: false },
        KillSpec { rank: 0, step: 2, mid_step: true },
        KillSpec { rank: np / 2, step: 3, mid_step: true },
    ]
}

/// Drive the cosmology supervisor through targeted kills × schedules and
/// demand bitwise recovery: final state digest and trace totals equal to
/// the fault-free golden's. Schedule 0 is the production executor;
/// schedules ≥ 1 are seeded.
#[must_use]
pub fn check_recovery(np: u32, schedules: u64) -> SweepReport {
    const STEPS: u64 = 4;
    const EVERY: u64 = 2;
    let name = "kill-recovery";
    let mut failures = Vec::new();
    let mut kills_fired = 0u64;
    let mut detections = 0u64;
    let mut recoveries = 0u64;
    let dir = std::env::temp_dir().join("hot97_analyze_kills");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        failures.push(format!("cannot create checkpoint dir {}: {e}", dir.display()));
    }

    let state = || supervisor::demo_state(64, 0xC0);
    let golden = match supervisor::run_supervised(
        state(),
        &SupervisorConfig::golden(
            np,
            STEPS,
            0.01,
            EVERY,
            dir.join(format!("golden_{name}_np{np}.ckpt")),
        ),
    ) {
        Ok(rep) => Some(rep),
        Err(e) => {
            failures.push(format!("np {np}: fault-free golden failed: {e}"));
            None
        }
    };

    if let Some(golden) = &golden {
        let specs = boundary_kills(np);
        'sweep: for (i, spec) in specs.iter().enumerate() {
            for sched_seed in 0..schedules {
                let label = format!(
                    "np {np} kill rank {} at step {}{} × schedule {sched_seed}",
                    spec.rank,
                    spec.step,
                    if spec.mid_step { " (mid-step)" } else { "" }
                );
                let cfg = SupervisorConfig {
                    faults: Some(FaultConfig::clean(0xD1E ^ sched_seed)),
                    kills: vec![*spec],
                    fuzz_seed: (sched_seed > 0).then_some(sched_seed),
                    ..SupervisorConfig::golden(
                        np,
                        STEPS,
                        0.01,
                        EVERY,
                        dir.join(format!("kill_{name}_np{np}_{i}_{sched_seed}.ckpt")),
                    )
                };
                match supervisor::run_supervised(state(), &cfg) {
                    Err(e) => failures.push(format!("{label}: supervised run failed: {e}")),
                    Ok(rep) => {
                        kills_fired += rep.kills_fired;
                        detections += rep.detections;
                        recoveries += u64::from(rep.recoveries);
                        if rep.kills_fired == 0 {
                            failures.push(format!("{label}: planted kill never fired"));
                        } else if rep.detections == 0 {
                            failures.push(format!(
                                "{label}: kill fired but no detection was recorded"
                            ));
                        }
                        if rep.recoveries == 0 && rep.kills_fired > 0 {
                            failures.push(format!("{label}: kill fired but no rollback ran"));
                        }
                        if rep.state_digest != golden.state_digest {
                            failures.push(format!(
                                "{label}: recovered state digest {:016x} != golden {:016x}",
                                rep.state_digest, golden.state_digest
                            ));
                        }
                        if rep.totals != golden.totals {
                            failures.push(format!(
                                "{label}: recovered trace totals differ from golden\n  \
                                 golden:    {:?}\n  recovered: {:?}",
                                golden.totals, rep.totals
                            ));
                        }
                    }
                }
                if sweep::aborted(&mut failures) {
                    break 'sweep;
                }
            }
        }
        if failures.is_empty() && (kills_fired == 0 || recoveries == 0) {
            failures.push("vacuous sweep: no kill fired or no rollback ran".to_string());
        }
    }

    kill_report(name, 3, schedules, failures, [kills_fired, detections, recoveries])
}

/// The planted fixture behind `hot-analyze kills --planted-undetected`:
/// ranks that never communicate never block, so the machine never
/// quiesces with a survivor waiting and a kill there is undetectable by
/// construction. The runtime's teardown audit still catches it, and this
/// sweep reports it as the failure it is — CI asserts the command exits
/// 1, proving the detection gate is not vacuously green.
#[must_use]
pub fn check_planted_undetected(np: u32) -> SweepReport {
    let plan = FaultPlan::new(FaultConfig::clean(1)).with_rank_kill_at_epoch(np - 1, 0);
    let monitor = plan.monitor();
    let mut failures = Vec::new();
    let result = sweep::run_caught(RunConfig::builder().np(np).faults(plan), |c| {
        // No messages: survivors cannot observe the death in-band.
        c.kill_point(0);
        u64::from(c.rank())
    });
    let kills = monitor.kills();
    let detections = monitor.detections();
    match result {
        Ok(_) => failures.push(format!(
            "planted fixture: run completed with {} kill(s) fired and nothing flagged",
            kills.len()
        )),
        Err(msg) => {
            if kills.is_empty() {
                failures.push(format!("planted fixture broke: kill never fired ({msg})"));
            } else {
                failures.push(format!(
                    "planted fixture: {} kill(s) fired with no survivor detection — \
                     caught by the teardown audit: {msg}",
                    kills.len()
                ));
            }
        }
    }
    let counts = [kills.len() as u64, detections.len() as u64, 0];
    kill_report("planted-undetected", 1, 1, failures, counts)
}

/// The full kill sweep CI runs. `kill_seeds` scales the detection sweep;
/// the supervised recovery sweep is fixed at the acceptance-gate shape
/// (np ∈ {2, 4, 8} × 3 boundary-crossing kill positions × production +
/// seeded schedules).
#[must_use]
pub fn check_all(kill_seeds: u64) -> Vec<SweepReport> {
    let mut reports = Vec::new();
    for np in [2, 4] {
        reports.push(check_detection(np, detection_seed_cap(kill_seeds), 3));
    }
    for np in [2, 4, 8] {
        reports.push(check_recovery(np, 2));
    }
    reports
}

/// Kill-seed budget for the detection sweep inside [`check_all`]: each
/// seed runs `np` ranks to quiescence under several schedules, so the
/// sweep is capped like the traced-pipeline fault sweep (the cap is
/// printed by the CLI, never silently applied).
#[must_use]
pub fn detection_seed_cap(kill_seeds: u64) -> u64 {
    kill_seeds.min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[kills fired, detections, recoveries]`, read off the report's detail.
    fn counts(rep: &SweepReport) -> [u64; 3] {
        let count = |part: &str| part.split(' ').next().unwrap().parse().unwrap();
        let n: Vec<u64> = rep.detail.split(", ").map(count).collect();
        n.try_into().expect("three counts")
    }

    #[test]
    fn detection_sweep_passes_and_is_not_vacuous() {
        let rep = check_detection(4, 2, 2);
        assert!(rep.passed(), "{:?}", rep.failures);
        let [kills, detections, _] = counts(&rep);
        assert!(kills > 0, "no kill fired");
        assert!(detections > 0, "no detection recorded");
    }

    /// Detection happens only at proven quiescence, which every schedule
    /// reaches with the same survivors blocked: the counts repeat exactly.
    #[test]
    fn detection_counts_are_deterministic() {
        let a = check_detection(4, 4, 2);
        let b = check_detection(4, 4, 2);
        assert!(a.passed(), "{:?}", a.failures);
        assert_eq!(counts(&a), counts(&b));
    }

    #[test]
    fn recovery_sweep_passes_and_is_not_vacuous() {
        let rep = check_recovery(2, 2);
        assert!(rep.passed(), "{:?}", rep.failures);
        let [kills, _, recoveries] = counts(&rep);
        assert!(kills > 0);
        assert!(recoveries > 0);
    }

    #[test]
    fn planted_undetected_kill_is_reported() {
        let rep = check_planted_undetected(4);
        assert!(!rep.passed(), "planted undetected kill sailed through");
        assert_eq!(counts(&rep), [1, 0, 0]);
        let msg = rep.failures.join("\n");
        assert!(msg.contains("teardown audit"), "{msg}");
    }
}
