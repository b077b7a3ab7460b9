//! The full distributed gravity step: decomposition → local tree → branch
//! exchange → latency-hiding walk. This is the code path the paper's
//! headline runs exercise (322M particles on ASCI Red, 9.75M on Loki),
//! here over the simulated message-passing machine.

use crate::evaluator::{record_force_phase, GravityEvaluator};
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3};
use hot_comm::Comm;
use hot_core::decomp::{
    body_cost, decompose_costed_traced, decompose_traced, rebalance_traced, Body, CostModel,
    DecompPolicy, KeyIntervals, Rebalance,
};
use hot_core::dtree::{BranchCache, DistTree};
use hot_core::dwalk::{dwalk_with_traced, DwalkStats, WalkConfig};
use hot_core::moments::MassMoments;
use hot_core::tree::Tree;
use hot_core::Mac;
use hot_trace::{Ledger, Phase};

/// Options for a distributed force evaluation.
#[derive(Clone, Copy, Debug)]
pub struct DistOptions {
    /// Acceptance criterion.
    pub mac: Mac,
    /// Leaf bucket size.
    pub bucket: usize,
    /// Sink-group bound.
    pub group_size: usize,
    /// Plummer softening squared.
    pub eps2: f64,
    /// Evaluate quadrupole terms.
    pub quadrupole: bool,
    /// Sample-sort oversampling.
    pub oversample: usize,
    /// Carries no setting: the walk has none (see [`WalkConfig`]).
    pub walk: WalkConfig,
    /// Domain-decomposition policy for the step entry
    /// ([`distributed_step_traced`]). `Static` keeps the sample-sort
    /// decomposition bitwise identical to earlier releases; `Adaptive`
    /// re-costs bodies from the previous step's measured walk work and
    /// moves interval cut points incrementally.
    pub policy: DecompPolicy,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            mac: Mac::BarnesHut { theta: 0.7 },
            bucket: 16,
            group_size: 32,
            eps2: 0.0,
            quadrupole: true,
            oversample: 64,
            walk: WalkConfig,
            policy: DecompPolicy::Static,
        }
    }
}

impl DistOptions {
    // Per-field builders off `Default`, matching the `TreecodeOptions` /
    // `FaultConfig` idiom.

    /// Set the acceptance criterion.
    #[must_use]
    pub fn with_mac(mut self, mac: Mac) -> Self {
        self.mac = mac;
        self
    }

    /// Set the leaf bucket size.
    #[must_use]
    pub fn with_bucket(mut self, bucket: usize) -> Self {
        self.bucket = bucket;
        self
    }

    /// Set the sink-group bound.
    #[must_use]
    pub fn with_group_size(mut self, group_size: usize) -> Self {
        self.group_size = group_size;
        self
    }

    /// Set the Plummer softening squared.
    #[must_use]
    pub fn with_eps2(mut self, eps2: f64) -> Self {
        self.eps2 = eps2;
        self
    }

    /// Enable or disable the quadrupole term.
    #[must_use]
    pub fn with_quadrupole(mut self, on: bool) -> Self {
        self.quadrupole = on;
        self
    }

    /// Set the sample-sort oversampling factor.
    #[must_use]
    pub fn with_oversample(mut self, oversample: usize) -> Self {
        self.oversample = oversample;
        self
    }

    /// Set the domain-decomposition policy.
    #[must_use]
    pub fn with_policy(mut self, policy: DecompPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Cross-step state for [`DecompPolicy::Adaptive`]: the intervals, local
/// tree and branch exchange of the previous step, which the next step
/// diffs against. `Default` is the cold state; `Static` runs never touch
/// it.
#[derive(Default)]
pub struct DecompState {
    /// Key ownership after the previous step (None before the first).
    pub intervals: Option<KeyIntervals>,
    /// The previous step's local tree, for the octant-graft rebuild.
    pub tree: Option<Tree<MassMoments>>,
    /// The previous step's branch exchange, for skipping the allgather.
    pub branches: BranchCache<MassMoments>,
}

/// Result of one distributed force evaluation on this rank.
pub struct DistForces {
    /// This rank's bodies after decomposition, sorted by key; `work` fields
    /// are refreshed with this step's interaction counts.
    pub bodies: Vec<Body<f64>>,
    /// Accelerations aligned with `bodies`.
    pub acc: Vec<Vec3>,
    /// Walk statistics.
    pub stats: DwalkStats,
    /// Key ownership after this decomposition.
    pub intervals: KeyIntervals,
    /// Outcome of the skew-triggered rebalance, when this step went
    /// through [`distributed_step_traced`] with an adaptive policy and a
    /// warm state (`None` on static or bootstrap steps).
    pub rebalance: Option<Rebalance>,
}

/// Decompose, build, exchange and walk: compute accelerations for all
/// bodies (collective call).
pub fn distributed_accelerations(
    comm: &mut Comm,
    bodies: Vec<Body<f64>>,
    domain: Aabb,
    opts: &DistOptions,
    counter: &FlopCounter,
) -> DistForces {
    distributed_accelerations_traced(comm, bodies, domain, opts, counter, &mut Ledger::scratch())
}

/// [`distributed_accelerations`] with phase tracing: decomposition, local
/// build + branch exchange, traversal and force arithmetic land in the
/// `Decomp` / `TreeBuild` / `Walk` / `Force` spans of `trace`. Every
/// counter recorded is schedule-independent, so the resulting ledger is
/// bitwise identical across message-delivery orders (collective call).
pub fn distributed_accelerations_traced(
    comm: &mut Comm,
    bodies: Vec<Body<f64>>,
    domain: Aabb,
    opts: &DistOptions,
    counter: &FlopCounter,
    trace: &mut Ledger,
) -> DistForces {
    let (bodies, intervals) = decompose_traced(comm, bodies, opts.oversample, trace);
    let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.charge).collect();
    trace.begin(Phase::TreeBuild);
    let tree = Tree::<MassMoments>::build(domain, &pos, &mass, opts.bucket);
    tree.record_build(trace);
    let mut dt = DistTree::build_traced(comm, tree, intervals.clone(), trace);
    trace.end();

    let n = dt.local.n_particles();
    let mut acc_sorted = vec![Vec3::ZERO; n];
    let mut work_sorted = vec![0.0f32; n];
    let flops_before = counter.report().flops();
    let stats = {
        let mut ev = GravityEvaluator {
            acc: &mut acc_sorted,
            pot: None,
            eps2: opts.eps2,
            quadrupole: opts.quadrupole,
            counter,
            work: &mut work_sorted,
            base: 0,
        };
        dwalk_with_traced(comm, &mut dt, &opts.mac, &mut ev, opts.group_size, &opts.walk, trace)
    };
    record_force_phase(trace, &stats.walk, counter.report().flops() - flops_before);

    // Map tree order back to the bodies' order and refresh work weights.
    let mut bodies_out = bodies;
    let mut acc = vec![Vec3::ZERO; n];
    for (sorted_i, &orig) in dt.local.order.iter().enumerate() {
        acc[orig as usize] = acc_sorted[sorted_i];
        bodies_out[orig as usize].work = work_sorted[sorted_i].max(1.0);
    }
    DistForces { bodies: bodies_out, acc, stats, intervals, rebalance: None }
}

/// One distributed force step under a [`DecompPolicy`], carrying state
/// across steps (collective call).
///
/// * `Static` delegates to [`distributed_accelerations_traced`] untouched —
///   bitwise identical traffic, counters and forces to earlier releases —
///   and ignores `state`.
/// * `Adaptive` bootstraps with a cost-exact decomposition on the first
///   call, then each later step: (1) re-costs every body by blending the
///   previous smoothed cost with this step's measured walk work
///   (interactions from the evaluator's work array plus a per-sink share
///   of the group's cells opened — all integer arithmetic, so costs are
///   bitwise schedule-independent); (2) runs the skew-triggered
///   incremental rebalance, moving cut points and migrating only the
///   key-range diff; (3) rebuilds the local tree by octant graft and the
///   distributed tree through the branch cache.
pub fn distributed_step_traced(
    comm: &mut Comm,
    bodies: Vec<Body<f64>>,
    domain: Aabb,
    opts: &DistOptions,
    counter: &FlopCounter,
    state: &mut DecompState,
    trace: &mut Ledger,
) -> DistForces {
    let DecompPolicy::Adaptive { threshold_milli, smoothing } = opts.policy else {
        return distributed_accelerations_traced(comm, bodies, domain, opts, counter, trace);
    };
    let (bodies, intervals, rebalance) = match state.intervals.take() {
        Some(prev) => {
            let (b, iv, r) = rebalance_traced(comm, bodies, prev, threshold_milli, trace);
            (b, iv, Some(r))
        }
        None => {
            let (b, iv) = decompose_costed_traced(comm, bodies, opts.oversample, trace);
            (b, iv, None)
        }
    };
    let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.charge).collect();
    trace.begin(Phase::TreeBuild);
    let tree = match &state.tree {
        Some(prev) => Tree::build_with_reuse(domain, &pos, &mass, opts.bucket, prev).0,
        None => Tree::<MassMoments>::build(domain, &pos, &mass, opts.bucket),
    };
    tree.record_build(trace);
    let (mut dt, _cached) =
        DistTree::build_cached_traced(comm, tree, intervals.clone(), &mut state.branches, trace);
    trace.end();

    let n = dt.local.n_particles();
    let mut acc_sorted = vec![Vec3::ZERO; n];
    let mut work_sorted = vec![0.0f32; n];
    let flops_before = counter.report().flops();
    let stats = {
        let mut ev = GravityEvaluator {
            acc: &mut acc_sorted,
            pot: None,
            eps2: opts.eps2,
            quadrupole: opts.quadrupole,
            counter,
            work: &mut work_sorted,
            base: 0,
        };
        dwalk_with_traced(comm, &mut dt, &opts.mac, &mut ev, opts.group_size, &opts.walk, trace)
    };
    record_force_phase(trace, &stats.walk, counter.report().flops() - flops_before);

    // Spread each sink group's cells-opened count over its sinks (integer
    // share, remainder to the leading sinks) so traversal cost lands in
    // the per-body measurement alongside the interaction count.
    let mut opened = vec![0u64; n];
    for &(gi, op) in &stats.group_costs {
        let span = dt.local.cells[gi as usize].span();
        let len = span.len() as u64;
        if len == 0 {
            continue;
        }
        let share = op / len;
        let rem = (op % len) as usize;
        for (j, i) in span.enumerate() {
            opened[i] += share + u64::from(j < rem);
        }
    }

    // Map tree order back to body order; blend the smoothed cost.
    let model = CostModel::new(smoothing);
    let mut bodies_out = bodies;
    let mut acc = vec![Vec3::ZERO; n];
    for (sorted_i, &orig) in dt.local.order.iter().enumerate() {
        acc[orig as usize] = acc_sorted[sorted_i];
        let prev = body_cost(&bodies_out[orig as usize]);
        let measured = work_sorted[sorted_i] as u64 + opened[sorted_i];
        bodies_out[orig as usize].work = model.blend(prev, measured) as f32;
    }
    state.intervals = Some(intervals.clone());
    state.tree = Some(dt.local);
    DistForces { bodies: bodies_out, acc, stats, intervals, rebalance }
}

#[cfg(test)]
mod tests {
    use hot_comm::RunConfig;
    use super::*;
    use crate::direct::direct_serial;
    use hot_morton::Key;
    use rand::{Rng, SeedableRng};

    /// The distributed treecode must agree with the serial direct sum to
    /// treecode accuracy — the end-to-end correctness test of the whole
    /// stack (decomposition + branches + ABM walk + kernels).
    #[test]
    fn distributed_forces_match_direct() {
        let n_total = 900usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let all_pos: Vec<Vec3> =
            (0..n_total).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect();
        let all_mass: Vec<f64> = (0..n_total).map(|_| rng.gen_range(0.5..2.0)).collect();
        let counter = FlopCounter::new();
        let exact = direct_serial(&all_pos, &all_mass, 1e-6, &counter);

        for np in [1u32, 2, 4] {
            let (pos_c, mass_c, exact_c) = (all_pos.clone(), all_mass.clone(), exact.clone());
            let out = RunConfig::builder().np(np).run(move |c| {
                let per = n_total / np as usize;
                let lo = c.rank() as usize * per;
                let hi = if c.rank() == np - 1 { n_total } else { lo + per };
                let bodies: Vec<Body<f64>> = (lo..hi)
                    .map(|i| Body {
                        key: Key::from_point(pos_c[i], &Aabb::unit()),
                        pos: pos_c[i],
                        charge: mass_c[i],
                        work: 1.0,
                        id: i as u64,
                    })
                    .collect();
                let counter = FlopCounter::new();
                let opts = DistOptions {
                    mac: Mac::BarnesHut { theta: 0.45 },
                    eps2: 1e-6,
                    ..Default::default()
                };
                let res =
                    distributed_accelerations(c, bodies, Aabb::unit(), &opts, &counter);
                // Per-body relative error vs the exact force.
                let mut worst = 0.0f64;
                let mut sum2 = 0.0;
                for (b, a) in res.bodies.iter().zip(&res.acc) {
                    let e = exact_c[b.id as usize];
                    let rel = (*a - e).norm() / e.norm().max(1e-12);
                    worst = worst.max(rel);
                    sum2 += rel * rel;
                }
                (res.bodies.len(), worst, sum2, res.stats.walk.interactions())
            });
            let total: usize = out.results.iter().map(|r| r.0).sum();
            assert_eq!(total, n_total, "np={np}: bodies lost");
            let rms =
                (out.results.iter().map(|r| r.2).sum::<f64>() / n_total as f64).sqrt();
            assert!(rms < 5e-3, "np={np}: rms {rms}");
            for (_, worst, _, _) in &out.results {
                assert!(*worst < 0.1, "np={np}: worst {worst}");
            }
        }
    }

    /// The public path on a rank's share of the hardware threads — all of
    /// them with one worker, one per worker with a worker per CPU — gives
    /// the same accelerations, work weights and walk counts bit for bit.
    /// `ci.sh` prints the line below and runs this again pinned to one CPU,
    /// where both shares are 1 and the comparison is vacuous.
    #[test]
    fn fan_out_distributed_accelerations_match_across_shares() {
        let n_per = 4096usize;
        let run = |workers: usize| {
            RunConfig::builder().np(2).workers(workers).run(|c| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(900 + u64::from(c.rank()));
                let bodies: Vec<Body<f64>> = (0..n_per)
                    .map(|i| {
                        let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                        Body {
                            key: Key::from_point(pos, &Aabb::unit()),
                            pos,
                            charge: 1.0 / (2 * n_per) as f64,
                            work: 1.0,
                            id: u64::from(c.rank()) * n_per as u64 + i as u64,
                        }
                    })
                    .collect();
                let opts = DistOptions { mac: Mac::BarnesHut { theta: 0.5 }, ..Default::default() };
                let res = distributed_accelerations(c, bodies, Aabb::unit(), &opts, &FlopCounter::new());
                let mut out: Vec<(u64, [u64; 3], u32)> = res
                    .bodies
                    .iter()
                    .zip(&res.acc)
                    .map(|(b, a)| (b.id, [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()], b.work.to_bits()))
                    .collect();
                out.sort_unstable();
                let s = &res.stats;
                let counts = [s.cell_requests, s.body_requests, s.rounds, s.parks];
                (c.compute_threads(), out, s.walk, s.group_costs.clone(), counts)
            })
            .results
        };
        let avail = hot_base::available_threads();
        let one = run(1);
        let all = run(avail);
        println!(
            "dwalk compute threads: {} (one worker), {} ({avail} workers)",
            one[0].0, all[0].0
        );
        for (rank, (a, b)) in one.iter().zip(&all).enumerate() {
            assert!(a.1 == b.1, "rank {rank}: accelerations or work differ");
            assert_eq!((a.2, &a.3, a.4), (b.2, &b.3, b.4), "rank {rank}: walk counts differ");
        }
    }

    /// Clustered bodies, split across ranks so the static decomposition
    /// starts unbalanced.
    fn clustered_bodies(rank: u32, np: u32, n_total: usize, seed: u64) -> Vec<Body<f64>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let all: Vec<Vec3> = (0..n_total)
            .map(|i| {
                if i % 4 == 0 {
                    Vec3::new(rng.gen(), rng.gen(), rng.gen())
                } else {
                    // Tight clump: 3/4 of the matter in ~1e-2 of the box.
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
        (lo..hi)
            .map(|i| Body {
                key: Key::from_point(all[i], &Aabb::unit()),
                pos: all[i],
                charge: 1.0,
                work: 1.0,
                id: i as u64,
            })
            .collect()
    }

    /// Adaptive decomposition may move owners, never physics: across a
    /// multi-step sequence the adaptive forces must agree with static to
    /// treecode-grouping tolerance, conserve momentum identically, and
    /// keep the interaction counters in a narrow band. (Exact bitwise
    /// equality is not expected: sink groups derive from each rank's
    /// *local* tree, so moving a cut regroups boundary sinks and flips
    /// individual MAC decisions within the accuracy envelope.)
    #[test]
    fn adaptive_physics_matches_static() {
        use hot_trace::Counter;
        let np = 4u32;
        let n_total = 1200usize;
        let steps = 3usize;
        let run = |policy: DecompPolicy| {
            RunConfig::builder().np(np).run(move |c| {
                let mut bodies = clustered_bodies(c.rank(), np, n_total, 99);
                let counter = FlopCounter::new();
                let opts = DistOptions {
                    mac: Mac::BarnesHut { theta: 0.5 },
                    eps2: 1e-6,
                    ..Default::default()
                }
                .with_policy(policy);
                let mut state = DecompState::default();
                let mut trace = hot_trace::Ledger::scratch();
                let mut acc_by_id: Vec<(u64, Vec3)> = Vec::new();
                let mut momentum = Vec3::ZERO;
                for _ in 0..steps {
                    let res = distributed_step_traced(
                        c,
                        bodies,
                        Aabb::unit(),
                        &opts,
                        &counter,
                        &mut state,
                        &mut trace,
                    );
                    acc_by_id =
                        res.bodies.iter().zip(&res.acc).map(|(b, a)| (b.id, *a)).collect();
                    momentum =
                        res.bodies.iter().zip(&res.acc).fold(Vec3::ZERO, |s, (b, a)| {
                            s + *a * b.charge
                        });
                    bodies = res.bodies;
                }
                let gross: f64 =
                    acc_by_id.iter().map(|(_, a)| a.norm()).sum();
                let t = trace.totals();
                (
                    acc_by_id,
                    momentum,
                    t.get(Counter::PpInteractions) + t.get(Counter::PcInteractions),
                    t.get(Counter::RebalanceSteps),
                    t.get(Counter::MigratedBodies),
                    gross,
                )
            })
        };
        let st = run(DecompPolicy::Static);
        // A low threshold forces repartitions so the migration path runs.
        let ad = run(DecompPolicy::Adaptive { threshold_milli: 1010, smoothing: 128 });

        // Collect final-step accelerations by body id.
        type RankResult = (Vec<(u64, Vec3)>, Vec3, u64, u64, u64, f64);
        let gather = |out: &Vec<RankResult>| {
            let mut v: Vec<(u64, Vec3)> =
                out.iter().flat_map(|r| r.0.iter().copied()).collect();
            v.sort_unstable_by_key(|&(id, _)| id);
            v
        };
        let sa = gather(&st.results);
        let aa = gather(&ad.results);
        assert_eq!(sa.len(), n_total, "static lost bodies");
        assert_eq!(aa.len(), n_total, "adaptive lost bodies");
        let mut worst = 0.0f64;
        for ((ia, a), (ib, b)) in sa.iter().zip(&aa) {
            assert_eq!(ia, ib, "ownership must cover the same ids");
            let rel = (*a - *b).norm() / a.norm().max(1e-12);
            worst = worst.max(rel);
        }
        assert!(worst < 2e-2, "adaptive forces diverged from static: {worst}");
        // Net momentum flux vanishes only to treecode accuracy: compare it
        // against the gross acceleration magnitude, and require static and
        // adaptive to sit at the same (small) level.
        let ps: Vec3 = st.results.iter().map(|r| r.1).fold(Vec3::ZERO, |a, b| a + b);
        let pa: Vec3 = ad.results.iter().map(|r| r.1).fold(Vec3::ZERO, |a, b| a + b);
        let gross: f64 = st.results.iter().map(|r| r.5).sum();
        assert!(ps.norm() < 1e-3 * gross, "static momentum {} vs {gross}", ps.norm());
        assert!(pa.norm() < 1e-3 * gross, "adaptive momentum {} vs {gross}", pa.norm());
        // Interaction volume stays in a narrow band: same physics, only
        // grouping differences at ownership boundaries.
        let si: u64 = st.results.iter().map(|r| r.2).sum();
        let ai: u64 = ad.results.iter().map(|r| r.2).sum();
        let ratio = ai as f64 / si as f64;
        assert!((0.85..1.15).contains(&ratio), "interaction band broken: {ratio}");
        // The adaptive run must actually have exercised the machinery.
        let rebalances: u64 = ad.results.iter().map(|r| r.3).sum();
        let migrated: u64 = ad.results.iter().map(|r| r.4).sum();
        assert!(rebalances > 0, "low threshold must trigger repartitions");
        assert!(migrated > 0, "repartition must migrate the diff");
        for r in &st.results {
            assert_eq!(r.3, 0, "static run must never count rebalance steps");
            assert_eq!(r.4, 0, "static run must never migrate");
        }
    }

    /// With frozen positions and a huge threshold, the adaptive path
    /// settles: after the bootstrap step the intervals are reused
    /// verbatim, nothing migrates, and repeated runs are bitwise
    /// reproducible.
    #[test]
    fn adaptive_noop_rebalance_is_stable() {
        use hot_trace::Counter;
        let np = 3u32;
        let run = || {
            RunConfig::builder().np(np).run(|c| {
                let mut bodies = clustered_bodies(c.rank(), np, 600, 7);
                let counter = FlopCounter::new();
                let opts = DistOptions::default()
                    .with_policy(DecompPolicy::Adaptive { threshold_milli: u32::MAX, smoothing: 128 });
                let mut state = DecompState::default();
                let mut trace = hot_trace::Ledger::scratch();
                let mut ivs = Vec::new();
                let mut acc_bits: Vec<(u64, [u64; 3])> = Vec::new();
                let mut migrated_after_bootstrap = 0;
                for step in 0..3 {
                    let res = distributed_step_traced(
                        c,
                        bodies,
                        Aabb::unit(),
                        &opts,
                        &counter,
                        &mut state,
                        &mut trace,
                    );
                    if step == 0 {
                        migrated_after_bootstrap =
                            trace.totals().get(Counter::MigratedBodies);
                    }
                    ivs.push(res.intervals.clone());
                    acc_bits = res
                        .bodies
                        .iter()
                        .zip(&res.acc)
                        .map(|(b, a)| (b.id, [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()]))
                        .collect();
                    if let Some(r) = &res.rebalance {
                        assert!(!r.repartitioned, "huge threshold must never repartition");
                    }
                    bodies = res.bodies;
                }
                assert_eq!(ivs[1], ivs[0], "intervals must be reused verbatim");
                assert_eq!(ivs[2], ivs[0], "intervals must be reused verbatim");
                let t = trace.totals();
                assert_eq!(t.get(Counter::RebalanceSteps), 0);
                // The bootstrap redistribution counts; steps 2–3 must not
                // add a single migrated body (frozen positions, huge
                // threshold).
                assert_eq!(
                    t.get(Counter::MigratedBodies),
                    migrated_after_bootstrap,
                    "frozen positions must not drift"
                );
                acc_bits
            })
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra, rb, "adaptive steps must be bitwise reproducible");
        }
    }

    /// Repeating the decomposition with refreshed work weights keeps the
    /// machine balanced (smoke test of the feedback loop).
    #[test]
    fn work_feedback_round_trip() {
        let np = 3u32;
        let out = RunConfig::builder().np(np).run(|c| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(c.rank() as u64);
            let bodies: Vec<Body<f64>> = (0..400)
                .map(|i| {
                    let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                    Body {
                        key: Key::from_point(pos, &Aabb::unit()),
                        pos,
                        charge: 1.0,
                        work: 1.0,
                        id: c.rank() as u64 * 1000 + i,
                    }
                })
                .collect();
            let counter = FlopCounter::new();
            let opts = DistOptions::default();
            let r1 = distributed_accelerations(c, bodies, Aabb::unit(), &opts, &counter);
            assert!(r1.bodies.iter().all(|b| b.work >= 1.0));
            // Second round with the refreshed weights.
            let r2 =
                distributed_accelerations(c, r1.bodies, Aabb::unit(), &opts, &counter);
            let my_work: f64 = r2.bodies.iter().map(|b| b.work as f64).sum();
            let total_work = c.allreduce_sum_f64(my_work);
            (my_work, total_work)
        });
        for &(w, total) in &out.results {
            let avg = total / np as f64;
            assert!(w > avg * 0.5 && w < avg * 1.6, "work {w} vs avg {avg}");
        }
    }
}
