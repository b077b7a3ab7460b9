//! High-level treecode force evaluation behind a single entry point.
//!
//! [`ForceCalc`] owns the reusable interaction-list buffers and runs the
//! paper's two-stage pipeline: build each sink group's
//! [`InteractionList`] (list-build, the `Walk` phase), then apply it
//! segment by segment through [`GravityEvaluator`] (list-apply, the
//! `Force` phase). Tracing is an option, not a separate function: the
//! `_traced` variant attributes phases to a [`Ledger`]. Every sink's
//! accumulation order is fixed by its group's list.

use crate::evaluator::{record_force_phase, refuse_coincident, refuse_non_finite, unsort, GravityEvaluator};
use hot_base::flops::FlopCounter;
use hot_base::{available_threads, Aabb, Vec3};
use hot_core::ilist::InteractionList;
use hot_core::moments::MassMoments;
use hot_core::tree::Tree;
use hot_core::walk::{default_group_size, walk_apply, workers_for, WalkStats};
use hot_core::Mac;
use hot_trace::{Ledger, Phase};

/// Options for a treecode force evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreecodeOptions {
    /// Acceptance criterion.
    pub mac: Mac,
    /// Leaf bucket size.
    pub bucket: usize,
    /// Plummer softening squared.
    pub eps2: f64,
    /// Include the quadrupole term.
    pub quadrupole: bool,
}

impl Default for TreecodeOptions {
    fn default() -> Self {
        TreecodeOptions {
            mac: Mac::BarnesHut { theta: 0.7 },
            bucket: 16,
            eps2: 0.0,
            quadrupole: true,
        }
    }
}

impl TreecodeOptions {
    // Per-field builders off `Default`, matching the `DistOptions` /
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

/// Result of a treecode force evaluation, in the *original* particle order.
#[derive(Debug)]
pub struct ForceResult {
    /// Accelerations.
    pub acc: Vec<Vec3>,
    /// Potentials (if requested; else empty).
    pub pot: Vec<f64>,
    /// Per-particle interaction counts, usable as the next decomposition's
    /// work weights.
    pub work: Vec<f32>,
    /// Walk statistics.
    pub stats: WalkStats,
}

/// The treecode force calculator: one entry point, holding the
/// interaction-list buffers that are reused across calls and substeps so
/// steady-state evaluation does not allocate list storage.
///
/// The sink groups of one evaluation run through the library's one group
/// loop ([`hot_core::walk::walk_apply`]), fanned out over every hardware
/// thread the process may use ([`hot_base::available_threads`] — a fact about the machine,
/// like the lane body's run-time AVX2 choice, not an option). Workers
/// *share*, read-only, the tree, the options and the (atomic)
/// [`FlopCounter`]; each worker *owns* one interaction list of `lists`
/// and, chunk by chunk, the part of the [`GravityEvaluator`]
/// ([`split`](hot_core::ilist::ListConsumer::split)) owning the outputs
/// of the contiguous run of groups it pulled. Nothing else is touched
/// until the join: the per-chunk [`WalkStats`] are then added and the
/// [`Ledger`] written by the caller alone. A sink's accumulation order is
/// fixed by its own group's list and every merged quantity is an integer
/// sum, so results, stats, flop counts and trace counters are bitwise the
/// one-thread ones under any thread count and any schedule.
#[derive(Clone, Default)]
pub struct ForceCalc {
    /// One list per worker; index 0 is the calling thread's.
    lists: Vec<InteractionList<MassMoments>>,
}

impl std::fmt::Debug for ForceCalc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForceCalc").finish_non_exhaustive()
    }
}

impl ForceCalc {
    /// A calculator with empty buffers.
    pub fn new() -> Self {
        ForceCalc::default()
    }

    /// Evaluate the accelerations (and optionally potentials) of every
    /// particle. `pos` and `mass` must pair up (panics otherwise); no
    /// particles is a valid problem and yields an empty result.
    pub fn compute(
        &mut self,
        domain: Aabb,
        pos: &[Vec3],
        mass: &[f64],
        opts: &TreecodeOptions,
        counter: &FlopCounter,
        want_pot: bool,
    ) -> ForceResult {
        self.compute_traced(domain, pos, mass, opts, counter, want_pot, &mut Ledger::scratch())
    }

    /// [`compute`](ForceCalc::compute) with phase tracing: tree build,
    /// list build and list apply are attributed to `TreeBuild` / `Walk` /
    /// `Force` spans of `trace`.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_traced(
        &mut self,
        domain: Aabb,
        pos: &[Vec3],
        mass: &[f64],
        opts: &TreecodeOptions,
        counter: &FlopCounter,
        want_pot: bool,
        trace: &mut Ledger,
    ) -> ForceResult {
        let workers = workers_for(pos.len(), available_threads());
        self.compute_on(workers, domain, pos, mass, opts, counter, want_pot, trace)
    }

    /// [`compute_traced`](ForceCalc::compute_traced) on at most `workers`
    /// threads, the caller's included (fewer when there are fewer chunks).
    #[allow(clippy::too_many_arguments)]
    fn compute_on(
        &mut self,
        workers: usize,
        domain: Aabb,
        pos: &[Vec3],
        mass: &[f64],
        opts: &TreecodeOptions,
        counter: &FlopCounter,
        want_pot: bool,
        trace: &mut Ledger,
    ) -> ForceResult {
        assert_eq!(pos.len(), mass.len(), "ForceCalc: positions and masses must pair up");
        trace.begin(Phase::TreeBuild);
        refuse_non_finite(pos, u64::from);
        let tree = Tree::<MassMoments>::build(domain, pos, mass, opts.bucket);
        refuse_coincident(&tree, opts.eps2, u64::from);
        tree.record_build(trace);
        trace.end();

        let n = pos.len();
        let mut groups = tree.groups(default_group_size(opts.bucket));
        let (mut acc, mut pot, mut work) = (vec![Vec3::ZERO; n], vec![0.0; if want_pot { n } else { 0 }], vec![0.0; n]);
        let mut ev = GravityEvaluator {
            acc: &mut acc,
            pot: want_pot.then_some(&mut pot[..]),
            eps2: opts.eps2,
            quadrupole: opts.quadrupole,
            counter,
            work: &mut work,
            base: 0,
        };
        let flops_before = counter.report().flops();
        trace.begin(Phase::Walk);
        let stats = walk_apply(&tree, &opts.mac, &mut groups, &mut ev, workers, &mut self.lists);
        stats.record_traversal(trace);
        trace.end();
        record_force_phase(trace, &stats, counter.report().flops() - flops_before);
        let order = &tree.order;
        ForceResult { acc: unsort(order, &acc), pot: unsort(order, &pot), work: unsort(order, &work), stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_serial;
    use hot_core::ilist::{ListConsumer, Segment};
    use rand::{Rng, SeedableRng};

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pos = (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect();
        let mass = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
        (pos, mass)
    }

    #[test]
    fn tree_approximates_direct() {
        let (pos, mass) = random_system(800, 10);
        let counter = FlopCounter::new();
        let exact = direct_serial(&pos, &mass, 1e-6, &counter);
        let opts = TreecodeOptions {
            mac: Mac::BarnesHut { theta: 0.5 },
            bucket: 8,
            eps2: 1e-6,
            ..Default::default()
        };
        let res = ForceCalc::new().compute(Aabb::unit(), &pos, &mass, &opts, &counter, false);
        let mut rms = 0.0;
        for (a, e) in res.acc.iter().zip(&exact) {
            let rel = (*a - *e).norm() / e.norm().max(1e-12);
            rms += rel * rel;
        }
        let rms = (rms / pos.len() as f64).sqrt();
        assert!(rms < 5e-3, "rms relative force error {rms}");
        assert!(res.stats.interactions() < (800 * 799) as u64 / 2);
        assert!(res.work.iter().all(|&w| w > 0.0));
    }

    /// A tight clump plus a sparse background: a deep tree whose groups —
    /// and so whose chunks — cost very different amounts.
    fn clumped_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let (mut pos, mass) = random_system(n, seed);
        for p in &mut pos[..n * 3 / 4] {
            *p = Vec3::splat(0.5) + (*p - Vec3::splat(0.5)) * 1e-4;
        }
        (pos, mass)
    }

    /// Everything one evaluation produces, floats as bit patterns.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        acc: Vec<[u64; 3]>,
        pot: Vec<u64>,
        work: Vec<u32>,
        stats: WalkStats,
        flops: hot_base::flops::FlopReport,
    }

    fn outcome(res: &ForceResult, counter: &FlopCounter) -> Outcome {
        Outcome {
            acc: res.acc.iter().map(|a| [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()]).collect(),
            pot: res.pot.iter().map(|p| p.to_bits()).collect(),
            work: res.work.iter().map(|w| w.to_bits()).collect(),
            stats: res.stats,
            flops: counter.report(),
        }
    }

    fn outcome_on(
        calc: &mut ForceCalc,
        workers: usize,
        (pos, mass): &(Vec<Vec3>, Vec<f64>),
        opts: &TreecodeOptions,
        want_pot: bool,
    ) -> Outcome {
        let counter = FlopCounter::new();
        let trace = &mut Ledger::scratch();
        let res =
            calc.compute_on(workers, Aabb::unit(), pos, mass, opts, &counter, want_pot, trace);
        outcome(&res, &counter)
    }

    #[test]
    fn fan_out_is_bitwise_for_any_worker_count() {
        for system in [random_system(1500, 21), clumped_system(1500, 22)] {
            for (quadrupole, want_pot) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let opts = TreecodeOptions { eps2: 1e-8, quadrupole, ..Default::default() };
                let one = outcome_on(&mut ForceCalc::new(), 1, &system, &opts, want_pot);
                assert_eq!(one.pot.len(), if want_pot { 1500 } else { 0 });
                for workers in [2, 3, 8] {
                    let mut calc = ForceCalc::new();
                    let many = outcome_on(&mut calc, workers, &system, &opts, want_pot);
                    assert_eq!(calc.lists.len(), workers, "one list per worker");
                    assert!(many == one, "{workers} workers, quad {quadrupole}, pot {want_pot}");
                }
            }
        }
    }

    /// The public entry — on however many threads this machine offers,
    /// one under `taskset` (`ci.sh` runs both and prints the line) —
    /// against the one-worker answer, at a size above the floor.
    #[test]
    fn fan_out_public_entry_matches_one_worker() {
        println!("force threads: {} (available_threads)", available_threads());
        let system = random_system(4096, 23);
        let opts = TreecodeOptions { eps2: 1e-8, ..Default::default() };
        let one = outcome_on(&mut ForceCalc::new(), 1, &system, &opts, true);
        let counter = FlopCounter::new();
        let (pos, mass) = &system;
        let res = ForceCalc::new().compute(Aabb::unit(), pos, mass, &opts, &counter, true);
        assert!(outcome(&res, &counter) == one);
    }

    /// More workers than groups: the surplus is never spawned, and the
    /// degenerate sizes — no particles included — are ordinary problems.
    #[test]
    fn fan_out_with_fewer_groups_than_workers() {
        let opts = TreecodeOptions::default();
        for n in [0, 1, 2, 7] {
            let system = random_system(n, 30 + n as u64);
            let one = outcome_on(&mut ForceCalc::new(), 1, &system, &opts, true);
            let mut calc = ForceCalc::new();
            let eight = outcome_on(&mut calc, 8, &system, &opts, true);
            assert_eq!(eight, one, "N = {n}");
            assert_eq!((one.acc.len(), one.pot.len(), one.work.len()), (n, n, n));
            assert_eq!(calc.lists.len(), 1, "N = {n} is one group at most: nothing to spawn for");
        }
    }

    #[test]
    #[should_panic(expected = "must pair up")]
    fn mismatched_lengths_are_refused() {
        let (pos, mass) = random_system(9, 1);
        let counter = FlopCounter::new();
        let opts = TreecodeOptions::default();
        ForceCalc::new().compute(Aabb::unit(), &pos, &mass[..8], &opts, &counter, false);
    }

    /// One calculator reused across problems of different sizes — its
    /// lists grown by a large one, then handed a small one — gives what a
    /// fresh one-worker calculator gives.
    #[test]
    fn buffers_reused_across_calls_bitwise() {
        let opts = TreecodeOptions::default();
        let mut calc = ForceCalc::new();
        for (n, workers) in [(700, 3), (3000, 8), (5, 8), (700, 3), (0, 2), (700, 1)] {
            let system = random_system(n, 13);
            let reused = outcome_on(&mut calc, workers, &system, &opts, false);
            let fresh = outcome_on(&mut ForceCalc::new(), 1, &system, &opts, false);
            assert!(reused == fresh, "N = {n}: reused list buffers must not change results");
        }
    }

    #[test]
    fn quadrupole_beats_monopole_accuracy() {
        let (pos, mass) = random_system(600, 12);
        let counter = FlopCounter::new();
        let exact = direct_serial(&pos, &mass, 0.0, &counter);
        let rms_of = |quad: bool| {
            let opts = TreecodeOptions {
                mac: Mac::BarnesHut { theta: 0.8 },
                bucket: 8,
                quadrupole: quad,
                ..Default::default()
            };
            let res =
                ForceCalc::new().compute(Aabb::unit(), &pos, &mass, &opts, &counter, false);
            let mut rms = 0.0;
            for (a, e) in res.acc.iter().zip(&exact) {
                let rel = (*a - *e).norm() / e.norm().max(1e-12);
                rms += rel * rel;
            }
            (rms / pos.len() as f64).sqrt()
        };
        let mono = rms_of(false);
        let quad = rms_of(true);
        assert!(quad < mono, "quad {quad} must beat mono {mono}");
    }

    /// Reference apply stage: the scalar kernels, one sink at a time, one
    /// source at a time, in list order — the accumulation-order contract
    /// written out (per sink, each P-P segment sums into a fresh
    /// accumulator added once, each accepted cell adds directly), with no
    /// sink blocking or lanes.
    struct ScalarApply<'a> {
        acc: &'a mut [Vec3],
        eps2: f64,
        quadrupole: bool,
    }

    impl ListConsumer<MassMoments> for ScalarApply<'_> {
        fn consume(
            &mut self,
            sink_pos: &[Vec3],
            _sink_charge: &[f64],
            sinks: std::ops::Range<usize>,
            list: &InteractionList<MassMoments>,
        ) {
            use crate::kernels::{pc_mono_acc, pc_quad_acc, pp_acc};
            for i in sinks {
                let xi = sink_pos[i];
                for seg in list.segments() {
                    match seg {
                        Segment::Pp(src) => {
                            let mut a = Vec3::ZERO;
                            for j in 0..src.x.len() {
                                if src.idx[j] as usize == i {
                                    continue;
                                }
                                let xj = Vec3::new(src.x[j], src.y[j], src.z[j]);
                                a += pp_acc(xi - xj, src.q[j], self.eps2);
                            }
                            self.acc[i] += a;
                        }
                        Segment::Pc(cells) => {
                            for (k, m) in cells.m.iter().enumerate() {
                                let d = xi - Vec3::new(cells.x[k], cells.y[k], cells.z[k]);
                                self.acc[i] += if self.quadrupole {
                                    pc_quad_acc(d, m.mass, &m.quad, self.eps2)
                                } else {
                                    pc_mono_acc(d, m.mass, self.eps2)
                                };
                            }
                        }
                    }
                }
            }
        }
    }

    /// The whole-tree pipeline `ForceCalc` runs (fan-out, batched span
    /// kernels) must agree *bitwise*, sink for sink, with the scalar
    /// kernels applied to the same lists one sink and one source at a
    /// time, with and without the quadrupole term.
    #[test]
    fn list_pipeline_matches_scalar_apply_bitwise() {
        let (pos, mass) = random_system(4096, 1997);
        let counter = FlopCounter::new();
        for quadrupole in [false, true] {
            let opts = TreecodeOptions { eps2: 1e-8, quadrupole, ..Default::default() };
            let res = ForceCalc::new().compute(Aabb::unit(), &pos, &mass, &opts, &counter, false);

            let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &mass, opts.bucket);
            let mut acc_sorted = vec![Vec3::ZERO; pos.len()];
            let mut oracle = ScalarApply { acc: &mut acc_sorted, eps2: opts.eps2, quadrupole };
            let stats = hot_core::walk::walk_lists(&tree, &opts.mac, &mut oracle);
            assert_eq!((stats.pp, stats.pc), (res.stats.pp, res.stats.pc));
            let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
            for (sorted_i, &orig) in tree.order.iter().enumerate() {
                assert_eq!(
                    bits(res.acc[orig as usize]),
                    bits(acc_sorted[sorted_i]),
                    "quadrupole = {quadrupole}: sink {orig} differs"
                );
            }
        }
    }
}
