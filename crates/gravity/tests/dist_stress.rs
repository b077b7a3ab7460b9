//! Two executor workers run the distributed step's ranks in real
//! interleavings: replies land early or late, and a rank resumes its
//! parked groups whenever its own round's keys are answered. That moves
//! when a rank computes, never what: each round's requests follow from the
//! replies to the rank's own earlier rounds.
//!
//! The stress is the `dist_fine` grain, np = 128 × 32 bodies, half of them
//! in a clump so the walks go several rounds deep: 100 two-worker launches,
//! each equal to a one-worker launch bit for bit in body ids,
//! accelerations and the walk's logical counts. Interleavings need
//! optimised code on two hardware threads to vary much, so `ci.sh` runs
//! the ignored test in release; the short one keeps the comparison itself
//! under the debug suite.

use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3};
use hot_comm::RunConfig;
use hot_core::decomp::Body;
use hot_gravity::{distributed_accelerations, DistOptions};
use hot_morton::Key;
use rand::{Rng, SeedableRng};

const NP: u32 = 128;
const PER_RANK: u64 = 32;

/// One rank's step: its body ids, their accelerations in bits, and the
/// walk's logical counts — interactions, cells opened, list entries,
/// rounds, cell and body requests, request messages, parks, and ABM
/// messages and bytes posted and delivered.
type RankStep = (Vec<u64>, Vec<[u64; 3]>, [u64; 14]);

fn launch(workers: usize) -> Vec<RankStep> {
    let out = RunConfig::builder().np(NP).workers(workers).run(|c| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1997 + u64::from(c.rank()));
        let first = u64::from(c.rank()) * PER_RANK;
        let bodies: Vec<Body<f64>> = (first..first + PER_RANK)
            .map(|id| {
                let pos = if id % 2 == 0 {
                    Vec3::new(0.3, 0.6, 0.4) + Vec3::new(rng.gen(), rng.gen(), rng.gen()) * 0.05
                } else {
                    Vec3::new(rng.gen(), rng.gen(), rng.gen())
                };
                let key = Key::from_point(pos, &Aabb::unit());
                Body { key, pos, charge: 1.0 / f64::from(NP), work: 1.0, id }
            })
            .collect();
        let res = distributed_accelerations(c, bodies, Aabb::unit(), &DistOptions::default(), &FlopCounter::new());
        let (s, w, abm) = (&res.stats, &res.stats.walk, &res.stats.abm);
        let counts = [
            w.pp,
            w.pc,
            w.opened,
            w.listed_pp,
            w.listed_pc,
            s.rounds,
            s.cell_requests,
            s.body_requests,
            s.request_msgs,
            s.parks,
            abm.posted,
            abm.delivered,
            abm.bytes_posted,
            abm.bytes_delivered,
        ];
        let ids = res.bodies.iter().map(|b| b.id).collect();
        let acc = res.acc.iter().map(|a| [a.x, a.y, a.z].map(f64::to_bits)).collect();
        (ids, acc, counts)
    });
    out.results
}

fn stress(launches: usize) {
    let one = launch(1);
    let rounds = one.iter().map(|r| r.2[5]).max();
    assert!(rounds >= Some(3), "the walks took {rounds:?} rounds: nothing to interleave");
    for i in 0..launches {
        let two = launch(2);
        for (rank, (a, b)) in one.iter().zip(&two).enumerate() {
            assert!(a == b, "launch {i}: rank {rank}'s step on two workers differs from one worker's");
        }
    }
}

#[test]
fn two_worker_steps_equal_one_worker_steps() {
    stress(2);
}

#[test]
#[ignore = "100 launches; run in release from ci.sh"]
fn two_worker_steps_equal_one_worker_steps_long() {
    stress(100);
}
