//! Fibers migrating between event-runtime workers must not read
//! thread-locals through an address cached before the switch.
//!
//! A rank fiber suspended on worker A may be resumed on worker B. The
//! runtime used to pass the yield reason from fiber to worker through a
//! `thread_local!`, and once `fiber_yield` inlined into `wait_message`'s
//! loop the compiler hoisted the thread-local's address out of the loop:
//! after a migration the fiber wrote its reason into the *previous*
//! worker's slot, the resuming worker read a stale one, and a rank was
//! parked against a notify version it had never seen — a lost wakeup,
//! reported as a "proved deadlock" with every rank inside an allreduce.
//!
//! The stress is collectives only (np = 128, two workers, 200 allreduces
//! per launch): all parking and waking, nothing else. The bug needs
//! optimised code to inline and hoist, so the 600-launch release run in
//! `ci.sh` is the one with teeth. Measured before the fix on two hardware
//! threads: release, 16 failed launches in 2400 (1 in 150; each of four
//! 600-launch batches failed, with 4, 7, 1 and 4 launches); debug, 0 in
//! 600 — the 40-launch debug run guards the park/wake protocol, not this
//! hazard. After the fix: release, 0 failures in 2500 launches.

use hot_comm::RunConfig;

const NP: u32 = 128;
const ROUNDS: u64 = 200;

fn launch() {
    let out = RunConfig::builder()
        .np(NP)
        .workers(2)
        .stack_size(256 << 10)
        .run(|c| {
            let mut total = 0u64;
            for round in 0..ROUNDS {
                total += c.allreduce_sum_u64(u64::from(c.rank()) + round);
            }
            total
        });
    let ranks = u64::from(NP);
    let want = ROUNDS * ranks * (ranks - 1) / 2 + ranks * ROUNDS * (ROUNDS - 1) / 2;
    assert!(out.results.iter().all(|&t| t == want), "allreduce totals diverged");
}

#[test]
fn two_worker_collectives_survive_migration() {
    for _ in 0..40 {
        launch();
    }
}

#[test]
#[ignore = "600 launches; run in release from ci.sh"]
fn two_worker_collectives_survive_migration_long() {
    for _ in 0..600 {
        launch();
    }
}
