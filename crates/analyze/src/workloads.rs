//! The comm-runtime workloads the dynamic checkers rerun.
//!
//! Shared between [`crate::schedules`] (many seeded interleavings, no
//! faults) and [`crate::faults`] (fault plans crossed with interleavings):
//! both checkers assert the *same* bodies produce bitwise-identical output,
//! so the bodies must live in one place or the two checks would drift.
//!
//! Every workload is a pure function of `(np, rank)` — no wall clock, no
//! ambient randomness beyond per-rank seeded RNGs — which is what makes
//! "results must match the reference run exactly" a meaningful assertion.

use hot_comm::{Abm, Comm};

/// Output of [`collectives`]: reduction bit patterns, gathered vectors,
/// both all-to-all exchanges, both gathers, broadcast and scan results.
pub(crate) type CollectivesOut =
    (u64, u64, Vec<u64>, [Vec<Vec<u64>>; 2], [Option<Vec<u64>>; 2], u64, u64, u64);

/// Output of [`traced_pipeline`]: the reduced trace-report JSON, an
/// acceleration checksum, and the local body count after migration.
pub(crate) type PipelineOut = (String, u64, usize);

/// Output of [`rebalance_pipeline`]: the reduced trace-report JSON, an
/// acceleration checksum, the local body count after the final step, and
/// the run-total (rebalance steps, migrated bodies) counters.
pub(crate) type RebalanceOut = (String, u64, usize, u64, u64);

/// Collectives sweep: every collective the runtime offers, chained so that
/// tag reuse across phases is also exercised. The two all-to-alls (uneven
/// buckets, some empty) and the two gathers run back to back with no
/// barrier between, so under most schedules some rank is a call ahead of
/// the one receiving from it: a receive that takes "the next np − 1
/// messages" instead of "one from every peer" mixes the calls.
/// Deterministic by construction, so results *and* traffic must match
/// bitwise across schedules (and fault plans).
pub(crate) fn collectives(c: &mut Comm) -> CollectivesOut {
    let r = f64::from(c.rank());
    c.barrier();
    let s1 = c.allreduce_sum_f64(r + 1.0);
    let s2 = c.allreduce_max_f64(r * 2.0);
    let v = c.allgather(c.rank() as u64);
    let a2a = [0, 1].map(|call| {
        let bucket = |d: u32| vec![u64::from(c.rank() * 100 + d); ((call + c.rank() + d) % 3) as usize];
        c.alltoall((0..c.size()).map(bucket).collect())
    });
    let gathered = [0, 1].map(|call| c.gather(c.size() - 1, u64::from(call * 1000 + c.rank())));
    let bc = c.bcast(0, if c.rank() == 0 { 42u64 } else { 0 });
    let (before, total) = c.exscan_sum_u64(u64::from(c.rank()) + 1);
    c.barrier();
    (s1.to_bits(), s2.to_bits(), v, a2a, gathered, bc, before, total)
}

/// ABM traversal: the cascading request/reply pattern of the latency-hiding
/// tree walk. Each rank posts a request to every peer; each request spawns
/// a reply; quiescence is reached through the double-count termination
/// protocol. Results and posted/delivered counts must be schedule-free;
/// batch counts (and hence raw traffic) legitimately are not.
pub(crate) fn abm_traversal(c: &mut Comm) -> (u64, u64, u64) {
    const K_REQ: u16 = 1;
    const K_REP: u16 = 2;
    let me = c.rank();
    let np = c.size();
    let mut acc = 0u64;
    let mut abm = Abm::new(c, 64);
    for peer in 0..np {
        if peer != me {
            abm.post(peer, K_REQ, &u64::from(me));
        }
    }
    abm.complete(|ep, src, kind, payload| match kind {
        K_REQ => {
            let from: u64 = hot_comm::from_bytes(payload);
            ep.post(src, K_REP, &(from * 1000 + u64::from(ep.rank())));
        }
        K_REP => {
            let v: u64 = hot_comm::from_bytes(payload);
            acc += v;
        }
        other => panic!("unexpected ABM kind {other}"),
    });
    let stats = abm.stats();
    (acc, stats.posted, stats.delivered)
}

/// Traced treecode pipeline: the full distributed force evaluation
/// (decompose → build → branch exchange → ABM walk) with the `hot-trace`
/// ledger recording every phase, reduced to the run-level report on every
/// rank. Returns the report JSON plus an acceleration checksum, so a pass
/// proves the *ledger itself* is bitwise independent of schedule and fault
/// plan — the property the golden-snapshot test and the paper-style phase
/// tables rely on.
pub(crate) fn traced_pipeline(c: &mut Comm) -> PipelineOut {
    use hot_base::flops::FlopCounter;
    use hot_base::{Aabb, Vec3};
    use hot_core::decomp::Body;
    use hot_gravity::{distributed_accelerations_traced, DistOptions};
    use rand::{Rng, SeedableRng};

    let mut rng = rand::rngs::StdRng::seed_from_u64(1234 + u64::from(c.rank()));
    let bodies: Vec<Body<f64>> = (0..120)
        .map(|i| {
            let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
            Body {
                key: hot_morton::Key::from_point(pos, &Aabb::unit()),
                pos,
                charge: rng.gen_range(0.5..1.5),
                work: 1.0,
                id: u64::from(c.rank()) * 1000 + i,
            }
        })
        .collect();
    let counter = FlopCounter::new();
    let opts = DistOptions { eps2: 1e-6, ..Default::default() };
    let mut trace = hot_trace::Ledger::new(hot_trace::ModelClock::paper_loki());
    let res = distributed_accelerations_traced(c, bodies, Aabb::unit(), &opts, &counter, &mut trace);
    let report = hot_trace::reduce(c, &trace);
    let checksum: u64 = res.acc.iter().fold(0u64, |h, a| {
        h ^ a.x.to_bits() ^ a.y.to_bits().rotate_left(1) ^ a.z.to_bits().rotate_left(2)
    });
    (report.to_json(), checksum, res.bodies.len())
}

/// Adaptive-rebalance pipeline: a clustered multi-step run through
/// `distributed_step_traced`, clustered enough that the feedback loop
/// fires at the production trigger — step 0 is the one-shot step's
/// work-weighted sample sort, later steps re-cost from the interaction
/// counts, move the interval cuts and migrate the key-range diff through
/// one all-to-all.
/// A pass proves the rebalance
/// (including the RebalanceSteps/MigratedBodies/MigratedBytes counters) is
/// bitwise independent of schedule and fault plan.
pub(crate) fn rebalance_pipeline(c: &mut Comm) -> RebalanceOut {
    use hot_base::flops::FlopCounter;
    use hot_base::{Aabb, Vec3};
    use hot_core::decomp::Body;
    use hot_gravity::dist::{distributed_step_traced, DecompState, DistOptions};
    use hot_trace::Counter;
    use rand::{Rng, SeedableRng};

    let np = c.size();
    let rank = c.rank();
    let n_total = 240usize;
    // Every rank draws the same global clustered point set and takes an
    // index slice, so the initial (count-based) ownership is skewed.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4321);
    let all: Vec<Vec3> = (0..n_total)
        .map(|i| {
            if i % 4 == 0 {
                Vec3::new(rng.gen(), rng.gen(), rng.gen())
            } else {
                Vec3::new(
                    0.2 + rng.gen::<f64>() * 0.02,
                    0.7 + rng.gen::<f64>() * 0.02,
                    0.4 + rng.gen::<f64>() * 0.02,
                )
            }
        })
        .collect();
    let per = n_total / np as usize;
    let lo = rank as usize * per;
    let hi = if rank == np - 1 { n_total } else { lo + per };
    let mut bodies: Vec<Body<f64>> = (lo..hi)
        .map(|i| Body {
            key: hot_morton::Key::from_point(all[i], &Aabb::unit()),
            pos: all[i],
            charge: 1.0,
            work: 1.0,
            id: i as u64,
        })
        .collect();
    let counter = FlopCounter::new();
    let opts = DistOptions { eps2: 1e-6, ..Default::default() };
    let mut trace = hot_trace::Ledger::new(hot_trace::ModelClock::paper_loki());
    let mut state = DecompState::default();
    let mut checksum = 0u64;
    for _ in 0..3 {
        let res =
            distributed_step_traced(c, bodies, Aabb::unit(), &opts, &counter, &mut state, &mut trace);
        checksum ^= res.acc.iter().fold(0u64, |h, a| {
            h ^ a.x.to_bits() ^ a.y.to_bits().rotate_left(1) ^ a.z.to_bits().rotate_left(2)
        });
        bodies = res.bodies;
    }
    let report = hot_trace::reduce(c, &trace);
    let t = trace.totals();
    (
        report.to_json(),
        checksum,
        bodies.len(),
        t.get(Counter::RebalanceSteps),
        t.get(Counter::MigratedBodies),
    )
}
