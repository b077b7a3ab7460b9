//! The full distributed gravity step: decomposition → local tree → branch
//! exchange → latency-hiding walk. This is the code path the paper's
//! headline runs exercise (322M particles on ASCI Red, 9.75M on Loki),
//! here over the simulated message-passing machine.

use crate::evaluator::{record_force_phase, refuse_coincident, refuse_non_finite, unsort, GravityEvaluator};
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3};
use hot_comm::Comm;
use hot_core::decomp::{
    blend_cost, body_cost, decompose_traced, rebalance_traced, Body, KeyIntervals, Rebalance,
    REBALANCE_THRESHOLD_MILLI,
};
use hot_core::dtree::DistTree;
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
}

/// Cross-step state of [`distributed_step_traced`]: the previous step's
/// intervals, which the next step's rebalance diffs against. `Default` is
/// the cold state.
#[derive(Default)]
pub struct DecompState {
    /// Key ownership after the previous step (None before the first).
    pub intervals: Option<KeyIntervals>,
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
    /// Outcome of the skew-triggered rebalance of a warm step (`None` on a
    /// cold step, which every one-shot call is).
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
///
/// This is the cold step of [`distributed_step_traced`]: the work-weighted
/// sample sort, then every body's `work` set to its interaction count.
pub fn distributed_accelerations_traced(
    comm: &mut Comm,
    bodies: Vec<Body<f64>>,
    domain: Aabb,
    opts: &DistOptions,
    counter: &FlopCounter,
    trace: &mut Ledger,
) -> DistForces {
    distributed_step_traced(comm, bodies, domain, opts, counter, &mut DecompState::default(), trace)
}

/// The step after the decomposition: local tree and branch exchange in one
/// `TreeBuild` span, then the walk and force phase (collective call).
/// Returns the distributed tree, the accelerations in `bodies` order, and
/// per-sink interactions in tree order.
fn build_and_walk(
    comm: &mut Comm,
    bodies: &[Body<f64>],
    intervals: KeyIntervals,
    domain: Aabb,
    opts: &DistOptions,
    counter: &FlopCounter,
    trace: &mut Ledger,
) -> (DistTree<MassMoments>, Vec<Vec3>, Vec<f32>, DwalkStats) {
    trace.begin(Phase::TreeBuild);
    // The tree keeps its own sorted copies: the unsorted ones go before
    // the exchange and the walk, which every rank runs at once.
    let tree = {
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        refuse_non_finite(&pos, |i| bodies[i as usize].id);
        let mass: Vec<f64> = bodies.iter().map(|b| b.charge).collect();
        Tree::<MassMoments>::build(domain, &pos, &mass, opts.bucket)
    };
    refuse_coincident(&tree, opts.eps2, |i| bodies[i as usize].id);
    tree.record_build(trace);
    let mut dt = DistTree::build_traced(comm, tree, intervals, trace);
    trace.end();

    let n = bodies.len();
    let mut acc_sorted = vec![Vec3::ZERO; n];
    let mut work = vec![0.0f32; n];
    let flops_before = counter.report().flops();
    let stats = {
        let mut ev = GravityEvaluator {
            acc: &mut acc_sorted,
            pot: None,
            eps2: opts.eps2,
            quadrupole: opts.quadrupole,
            counter,
            work: &mut work,
            base: 0,
        };
        dwalk_with_traced(comm, &mut dt, &opts.mac, &mut ev, opts.group_size, &opts.walk, trace)
    };
    record_force_phase(trace, &stats.walk, counter.report().flops() - flops_before);
    let acc = unsort(&dt.local.order, &acc_sorted);
    (dt, acc, work, stats)
}

/// One distributed step, carrying the decomposition across steps
/// (collective call): the paper's feedback loop, where each step's cuts
/// are weighted by the work its bodies cost in the step before.
///
/// A cold `state` decomposes with the work-weighted sample sort
/// ([`decompose_traced`]) and sets every body's `work` to this step's
/// interaction count (at least 1). A warm one runs the skew-triggered
/// incremental rebalance at [`REBALANCE_THRESHOLD_MILLI`], moving cut
/// points and migrating only the key-range diff, and blends each body's
/// cost with this step's interaction count ([`blend_cost`]: integer
/// arithmetic, so costs are bitwise schedule-independent). Between the
/// decomposition and the refresh both run the same code: a fresh local
/// tree, the full branch exchange and the walk.
pub fn distributed_step_traced(
    comm: &mut Comm,
    bodies: Vec<Body<f64>>,
    domain: Aabb,
    opts: &DistOptions,
    counter: &FlopCounter,
    state: &mut DecompState,
    trace: &mut Ledger,
) -> DistForces {
    let (mut bodies, intervals, rebalance) = match state.intervals.take() {
        Some(prev) => {
            let (b, iv, r) =
                rebalance_traced(comm, bodies, prev, REBALANCE_THRESHOLD_MILLI, trace);
            (b, iv, Some(r))
        }
        None => {
            let (b, iv) = decompose_traced(comm, bodies, opts.oversample, trace);
            (b, iv, None)
        }
    };
    let (dt, acc, work_sorted, stats) =
        build_and_walk(comm, &bodies, intervals, domain, opts, counter, trace);
    for (&orig, &w) in dt.local.order.iter().zip(&work_sorted) {
        let b = &mut bodies[orig as usize];
        b.work = match rebalance {
            Some(_) => blend_cost(body_cost(b), w as u64) as f32,
            None => w.max(1.0),
        };
    }
    state.intervals = Some(dt.intervals.clone());
    DistForces { bodies, acc, stats, intervals: dt.intervals, rebalance }
}

#[cfg(test)]
mod tests {
    use hot_comm::RunConfig;
    use super::*;
    use crate::direct::direct_serial;
    use crate::{ForceCalc, TreecodeOptions};
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

    /// Rank `rank`'s share of the bodies `pos`/`mass` on `np` ranks: a
    /// contiguous run of ids, the last rank taking the remainder.
    fn share_of(rank: u32, np: u32, pos: &[Vec3], mass: &[f64]) -> Vec<Body<f64>> {
        let per = pos.len() / np as usize;
        let lo = rank as usize * per;
        let hi = if rank == np - 1 { pos.len() } else { lo + per };
        (lo..hi)
            .map(|i| Body {
                key: Key::from_point(pos[i], &Aabb::unit()),
                pos: pos[i],
                charge: mass[i],
                work: 1.0,
                id: i as u64,
            })
            .collect()
    }

    /// `distributed_accelerations` of `pos`/`mass` on `np` ranks with
    /// `opts`: every body's acceleration by id, and the summed walk counts.
    fn distributed_by_id(np: u32, pos: &[Vec3], mass: &[f64], opts: DistOptions) -> (Vec<Vec3>, u64) {
        let (pos, mass) = (pos.to_vec(), mass.to_vec());
        let n = pos.len();
        let out = RunConfig::builder().np(np).run(move |c| {
            let bodies = share_of(c.rank(), np, &pos, &mass);
            let res = distributed_accelerations(c, bodies, Aabb::unit(), &opts, &FlopCounter::new());
            let ids: Vec<u64> = res.bodies.iter().map(|b| b.id).collect();
            (ids, res.acc, res.stats.walk.interactions())
        });
        let mut acc: Vec<Option<Vec3>> = vec![None; n];
        for (ids, a, _) in &out.results {
            for (&id, &a) in ids.iter().zip(a) {
                assert!(acc[id as usize].replace(a).is_none(), "np={np}: body {id} twice");
            }
        }
        let acc = acc.into_iter().enumerate().map(|(i, a)| a.unwrap_or_else(|| panic!("np={np}: body {i} lost")));
        (acc.collect(), out.results.iter().map(|r| r.2).sum())
    }

    /// The serial and the distributed entry agree bit for bit wherever
    /// their sink groups already agree: 4096 uniform bodies (seed 7),
    /// default options on both sides, np = 1, 2, 4 and 8 — every body's
    /// acceleration, looked up by id, and the summed P-P + P-C
    /// interactions. This is the oracle for one force entry. Once a sink
    /// group never crosses a cut (ROADMAP, "The distributed step computes
    /// the serial treecode's forces, bit for bit, at every np"), the np
    /// list grows to 16, 64 and 128 and clustered and planar sets join.
    #[test]
    fn both_entries_agree_bitwise_where_their_groups_do() {
        let n = 4096;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pos: Vec<Vec3> = (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect();
        let mass = vec![1.0 / n as f64; n];
        let counter = FlopCounter::new();
        let serial = ForceCalc::new().compute(Aabb::unit(), &pos, &mass, &TreecodeOptions::default(), &counter, false);
        let bits = |a: &Vec3| [a.x, a.y, a.z].map(f64::to_bits);
        for np in [1u32, 2, 4, 8] {
            let (acc, interactions) = distributed_by_id(np, &pos, &mass, DistOptions::default());
            let differ = acc.iter().zip(&serial.acc).filter(|(a, s)| bits(a) != bits(s)).count();
            assert_eq!(differ, 0, "np={np}: {differ} of {n} bodies differ from the serial entry");
            assert_eq!(interactions, serial.stats.interactions(), "np={np}");
        }
    }

    /// The one-shot step composed from its public layers, call by call, as
    /// the benchmark harness composes it: `decompose_traced`, `Tree::build`,
    /// `DistTree::build_traced`, `dwalk_with_traced` into a
    /// `GravityEvaluator`, then every body's `work` set to its interaction
    /// count, at least 1.
    fn composed_step(
        c: &mut Comm,
        bodies: Vec<Body<f64>>,
        opts: &DistOptions,
        counter: &FlopCounter,
        trace: &mut Ledger,
    ) -> DistForces {
        let (mut bodies, intervals) = decompose_traced(c, bodies, opts.oversample, trace);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.charge).collect();
        trace.begin(Phase::TreeBuild);
        let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &mass, opts.bucket);
        tree.record_build(trace);
        let mut dt = DistTree::build_traced(c, tree, intervals.clone(), trace);
        trace.end();
        let n = bodies.len();
        let (mut acc_sorted, mut work) = (vec![Vec3::ZERO; n], vec![0.0f32; n]);
        let flops_before = counter.report().flops();
        let stats = {
            let mut ev = GravityEvaluator {
                acc: &mut acc_sorted,
                pot: None,
                eps2: opts.eps2,
                quadrupole: opts.quadrupole,
                counter,
                work: &mut work,
                base: 0,
            };
            dwalk_with_traced(c, &mut dt, &opts.mac, &mut ev, opts.group_size, &opts.walk, trace)
        };
        record_force_phase(trace, &stats.walk, counter.report().flops() - flops_before);
        let mut acc = vec![Vec3::ZERO; n];
        for (sorted_i, &orig) in dt.local.order.iter().enumerate() {
            acc[orig as usize] = acc_sorted[sorted_i];
            bodies[orig as usize].work = work[sorted_i].max(1.0);
        }
        DistForces { bodies, acc, stats, intervals, rebalance: None }
    }

    /// `distributed_accelerations` is its public layers: at np = 1, 3 and
    /// 8, over two steps on clustered bodies (the second weighted by the
    /// work the first refreshed), the one-shot call and [`composed_step`]
    /// give the same bodies, ids, work, accelerations, interaction counts,
    /// intervals and ledger totals, bit for bit. The library-side twin of
    /// the benchmark's `composed_equals_distributed_accelerations` gate.
    #[test]
    fn one_shot_step_is_its_public_layers() {
        for np in [1u32, 3, 8] {
            let out = RunConfig::builder().np(np).run(move |c| {
                let opts = DistOptions { eps2: 1e-6, ..Default::default() };
                let mut steps = Vec::new();
                let mut bodies = [clustered_bodies(c.rank(), np, 1200, 5), clustered_bodies(c.rank(), np, 1200, 5)];
                for _ in 0..2 {
                    let mut got = Vec::new();
                    for (composed, b) in [false, true].into_iter().zip(&mut bodies) {
                        let (counter, mut trace) = (FlopCounter::new(), Ledger::scratch());
                        let input = std::mem::take(b);
                        let res = if composed {
                            composed_step(c, input, &opts, &counter, &mut trace)
                        } else {
                            distributed_accelerations_traced(c, input, Aabb::unit(), &opts, &counter, &mut trace)
                        };
                        let acc: Vec<[u64; 3]> = res.acc.iter().map(|a| [a.x, a.y, a.z].map(f64::to_bits)).collect();
                        let work: Vec<u32> = res.bodies.iter().map(|b| b.work.to_bits()).collect();
                        let counts = (res.stats.walk, res.stats.rounds, res.stats.request_msgs, counter.report().flops());
                        got.push((acc, work, counts, res.intervals.clone(), res.rebalance, *trace.totals()));
                        *b = res.bodies;
                    }
                    assert!(bodies[0] == bodies[1], "rank {}: bodies or ids differ", c.rank());
                    steps.push(got);
                }
                steps
            });
            for (rank, steps) in out.results.iter().enumerate() {
                for (step, got) in steps.iter().enumerate() {
                    assert!(got[0] == got[1], "np={np} rank {rank} step {step}: the one-shot step is not its layers");
                }
            }
        }
    }

    /// Hostile inputs through both entries, the distributed one at np = 1,
    /// 3 and 8: no bodies, one body, fewer bodies than ranks (empty ranks),
    /// and every body at one point (softened, so direct sum is finite) all
    /// match direct sum within the treecode's tolerance; a NaN position
    /// panics, naming the body by its id, and so do coincident bodies without
    /// softening, naming both — in release builds too.
    #[test]
    fn hostile_inputs_through_both_entries() {
        let eps2 = 1e-6;
        let spread = |n: usize| -> Vec<Vec3> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect()
        };
        let rows = [
            ("no bodies", Vec::new()),
            ("one body", spread(1)),
            ("two bodies", spread(2)),
            ("coincident", vec![Vec3::splat(0.3); 40]),
        ];
        let serial_opts = TreecodeOptions { eps2, ..Default::default() };
        let dist_opts = DistOptions { eps2, ..Default::default() };
        for (name, pos) in rows {
            let mass: Vec<f64> = (0..pos.len()).map(|i| 1.0 + (i % 3) as f64).collect();
            let counter = FlopCounter::new();
            let exact = direct_serial(&pos, &mass, eps2, &counter);
            let close = |acc: &[Vec3], tag: &str| {
                assert_eq!(acc.len(), exact.len(), "{name} {tag}");
                for (i, (a, e)) in acc.iter().zip(&exact).enumerate() {
                    let err = (*a - *e).norm();
                    assert!(err <= 5e-3 * e.norm() + 1e-12, "{name} {tag}: body {i} {a:?}, direct {e:?}");
                }
            };
            let serial = ForceCalc::new().compute(Aabb::unit(), &pos, &mass, &serial_opts, &counter, true);
            close(&serial.acc, "serial");
            for np in [1u32, 3, 8] {
                close(&distributed_by_id(np, &pos, &mass, dist_opts).0, &format!("np={np}"));
            }
        }
        let mut nan = spread(40);
        nan[17].y = f64::NAN;
        let mut pair = spread(40);
        pair[23] = pair[7];
        let unsoftened = (TreecodeOptions::default(), DistOptions::default());
        let refused = [
            (nan, (serial_opts, dist_opts), "body 17 is at"),
            (vec![Vec3::splat(0.3); 40], unsoftened, "are both at"),
            (pair, unsoftened, "bodies 7 and 23 are both at"),
        ];
        let mass = vec![1.0; 40];
        for (pos, (serial_opts, dist_opts), want) in refused {
            let named = |p: Result<_, Box<dyn std::any::Any + Send>>, tag: &str| {
                let p = p.err().unwrap_or_else(|| panic!("{tag}: {want:?} must panic"));
                let msg = p.downcast_ref::<String>().map_or("", String::as_str);
                assert!(msg.contains(want), "{tag}: {msg}");
            };
            let serial = std::panic::catch_unwind(|| {
                ForceCalc::new().compute(Aabb::unit(), &pos, &mass, &serial_opts, &FlopCounter::new(), false)
            });
            named(serial.map(drop), "serial");
            for np in [1u32, 3, 8] {
                let dist = std::panic::catch_unwind(|| distributed_by_id(np, &pos, &mass, dist_opts));
                named(dist.map(drop), &format!("np={np}"));
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
                (c.compute_threads(), out, s.walk, counts)
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
            assert_eq!((a.2, a.3), (b.2, b.3), "rank {rank}: walk counts differ");
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

    /// The feedback loop may move owners, never physics: across a
    /// multi-step sequence its forces must agree with the one-shot static
    /// decomposition's to treecode-grouping tolerance, conserve momentum
    /// identically, and keep the interaction counters in a narrow band.
    /// (Exact bitwise equality is not expected: sink groups derive from
    /// each rank's *local* tree, so moving a cut regroups boundary sinks
    /// and flips individual MAC decisions within the accuracy envelope.)
    #[test]
    fn adaptive_physics_matches_static() {
        use hot_trace::Counter;
        let np = 4u32;
        let n_total = 1200usize;
        let steps = 3usize;
        let run = |adaptive: bool| {
            RunConfig::builder().np(np).run(move |c| {
                let mut bodies = clustered_bodies(c.rank(), np, n_total, 99);
                let counter = FlopCounter::new();
                let opts = DistOptions {
                    mac: Mac::BarnesHut { theta: 0.5 },
                    eps2: 1e-6,
                    ..Default::default()
                };
                let mut state = DecompState::default();
                let mut trace = hot_trace::Ledger::scratch();
                let mut acc_by_id: Vec<(u64, Vec3)> = Vec::new();
                let mut momentum = Vec3::ZERO;
                for _ in 0..steps {
                    let (domain, t) = (Aabb::unit(), &mut trace);
                    let res = if adaptive {
                        distributed_step_traced(c, bodies, domain, &opts, &counter, &mut state, t)
                    } else {
                        distributed_accelerations_traced(c, bodies, domain, &opts, &counter, t)
                    };
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
        let st = run(false);
        let ad = run(true);

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
        assert!(rebalances > 0, "the clustered input must trigger repartitions");
        assert!(migrated > 0, "repartition must migrate the diff");
        for r in &st.results {
            assert_eq!(r.3, 0, "static run must never count rebalance steps");
            assert_eq!(r.4, 0, "static run must never migrate");
        }
    }

    /// Repeated multi-step runs are bitwise reproducible, rebalances and
    /// migrations included.
    #[test]
    fn adaptive_noop_rebalance_is_stable() {
        let np = 3u32;
        let run = || {
            RunConfig::builder().np(np).run(|c| {
                let mut bodies = clustered_bodies(c.rank(), np, 600, 7);
                let counter = FlopCounter::new();
                let opts = DistOptions::default();
                let mut state = DecompState::default();
                let mut trace = hot_trace::Ledger::scratch();
                let mut acc_bits: Vec<(u64, [u64; 3])> = Vec::new();
                for _ in 0..3 {
                    let res = distributed_step_traced(
                        c,
                        bodies,
                        Aabb::unit(),
                        &opts,
                        &counter,
                        &mut state,
                        &mut trace,
                    );
                    acc_bits = res
                        .bodies
                        .iter()
                        .zip(&res.acc)
                        .map(|(b, a)| (b.id, [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()]))
                        .collect();
                    bodies = res.bodies;
                }
                (acc_bits, *trace.totals())
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
