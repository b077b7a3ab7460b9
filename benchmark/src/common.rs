//! What every workload shares: the accuracy regime, the run plan, the
//! checksums and force check behind the correctness gates, and the serial
//! force evaluation composed from the library's layer calls.

use crate::gen::{hash_words, BenchRng};
use crate::report::Metrics;
use crate::spans::Recorder;
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3};
use hot_core::ilist::{InteractionList, ListConsumer as _};
use hot_core::moments::MassMoments;
use hot_core::tree::Tree;
use hot_core::walk::{default_group_size, walk_group_list, WalkStats};
use hot_core::Mac;
use hot_gravity::evaluator::record_force_phase;
use hot_gravity::kernels::pp_acc;
use hot_gravity::GravityEvaluator;
use hot_trace::{Counter, Ledger};

/// The repo's "paper accuracy regime" (`paper_accuracy_regime` test): the
/// paper quotes its rates at an RMS force error better than 1e-3, which
/// θ = 0.4 with quadrupoles meets and the library default θ = 0.7 does not.
pub const MAC: Mac = Mac::BarnesHut { theta: 0.4 };
pub const BUCKET: usize = 16;
pub const EPS2: f64 = 1e-8;
pub const QUADRUPOLE: bool = true;
/// Hard cap on `force_rms_err`: the paper's stated accuracy.
pub const FORCE_ERR_CAP: f64 = 1e-3;
/// Sinks sampled for the force check.
pub const FORCE_SAMPLES: usize = 256;
/// Times an end-to-end run sets up (input generation, launch, warm-up
/// step): once for the timed steps, then again on its own; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 3;

/// One run's parameters, as the driver passes them.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Plan {
    pub fn stream(&self) -> u64 {
        crate::gen::stream_of(self.workload)
    }

    /// Timed steps of this run: a pure function of the arguments, so that a
    /// parent commit and a change do identical work for the same
    /// `--seconds` (a loop that ran "until the time is up" would hand the
    /// faster build more steps, deeper into the run's evolution).
    /// `--seconds` over the step time sized on the reference 2-core box,
    /// within `[min, max]`; a traced run splits its budget between the
    /// untraced reference pass and the traced pass.
    pub fn steps(&self, sized_step_s: f64, max: usize) -> usize {
        let budget = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        ((budget / sized_step_s).round() as usize).clamp(2, max)
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness gates: `(name, passed, detail)`.
    pub gates: Vec<(&'static str, bool, String)>,
    /// Free-form facts for the human table (sample counts, min/max, sizes).
    pub info: Vec<(&'static str, String)>,
    /// Chrome-trace JSON of the traced pass.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            metrics: Metrics::new(),
            attempted: 0,
            failed: 0,
            gates: Vec::new(),
            info: Vec::new(),
            chrome_trace: None,
        }
    }

    pub fn gate(&mut self, name: &'static str, ok: bool, detail: String) {
        self.gates.push((name, ok, detail));
    }

    /// The end-to-end metrics every workload derives the same way from its
    /// first set-up and its step walls (`run_wall_s` is added by the
    /// supervisor, which sees the whole process). `set_up_again` repeats the
    /// set-up alone and returns its seconds.
    pub fn end_to_end(
        &mut self,
        first_setup_s: f64,
        walls: &[f64],
        items_per_step: f64,
        mut set_up_again: impl FnMut() -> f64,
    ) {
        use crate::report::{median, min_max, peak_rss_mib};
        // Peak memory of one set-up and the timed steps, read before the
        // set-up is repeated: a second machine launch in the same process
        // gets its fiber stacks from recycled heap, which `calloc` must
        // clear, and whether that happens (+2 MiB resident per rank) depends
        // on the allocator's history, not on the code under test.
        self.metrics.insert("peak_rss_mb", peak_rss_mib());
        let mut setups = vec![first_setup_s];
        setups.extend((1..SETUP_REPEATS).map(|_| set_up_again()));
        self.metrics.insert("setup_s", median(&setups));
        // The rate is taken at the median step, not over the summed walls: a
        // mean lets one disturbed step (a neighbour's burst on the shared
        // host, the cold first step of `dist_fine`) move the whole run.
        let step_wall_s = median(walls);
        self.metrics.insert("step_wall_s", step_wall_s);
        self.metrics
            .insert("items_per_s", items_per_step / step_wall_s);
        let (lo, hi) = min_max(walls);
        // With fewer than 20 samples no percentile above the median
        // qualifies; min and max are information only.
        self.info.push((
            "step_samples",
            format!(
                "{} (min {lo:.4} s, max {hi:.4} s): {walls:.3?}",
                walls.len()
            ),
        ));
        self.info.push(("setup_samples", format!("{setups:.3?}")));
    }
}

/// Order-independent, bitwise checksum term of one body's acceleration.
pub fn acc_hash(id: u64, a: Vec3) -> u64 {
    hash_words(&[id, a.x.to_bits(), a.y.to_bits(), a.z.to_bits()])
}

pub fn all_finite(acc: &[Vec3]) -> bool {
    acc.iter().all(|a| a.is_finite())
}

/// `FORCE_SAMPLES` distinct body ids, sorted.
pub fn sample_ids(seed: u64, stream: u64, n: usize) -> Vec<u64> {
    let mut rng = BenchRng::new(seed, stream ^ 0x5A17);
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < FORCE_SAMPLES.min(n) {
        ids.insert(rng.below(n as u64));
    }
    ids.into_iter().collect()
}

/// Exact softened acceleration of body `i`: the direct sum the harness
/// computes itself, with the library's own 38-flop kernel.
pub fn direct_acc(i: usize, pos: &[Vec3], mass: &[f64], eps2: f64) -> Vec3 {
    let xi = pos[i];
    let mut acc = Vec3::ZERO;
    for (j, (&xj, &m)) in pos.iter().zip(mass).enumerate() {
        if j != i {
            acc += pp_acc(xi - xj, m, eps2);
        }
    }
    acc
}

/// RMS over `(got, exact)` pairs of `|got − exact| / |exact|`.
pub fn rms_rel_err(pairs: &[(Vec3, Vec3)]) -> f64 {
    let sum: f64 = pairs
        .iter()
        .map(|(got, exact)| {
            let rel = (*got - *exact).norm() / exact.norm().max(1e-300);
            rel * rel
        })
        .sum();
    (sum / pairs.len().max(1) as f64).sqrt()
}

/// Record the force check as a per-layer value and a gate.
pub fn gate_force_err(out: &mut Outcome, err: f64, cap: f64) {
    out.metrics.insert("force_rms_err", err);
    out.gate(
        "force_rms_err",
        err <= cap,
        format!("{err:.3e} (cap {cap:e})"),
    );
}

/// One serial force evaluation and the seconds each layer took.
pub struct Layered {
    /// Accelerations in the caller's body order.
    pub acc: Vec<Vec3>,
    pub stats: WalkStats,
    pub n_cells: usize,
    pub build_s: f64,
    pub list_s: f64,
    pub apply_s: f64,
}

/// The serial force evaluation composed from the layer calls — exactly the
/// serial body of `ForceCalc::compute`: `Tree::build` → `groups` → per
/// group `walk_group_list` + `GravityEvaluator::consume` → unsort — with a
/// span around each call and the model-clock counters at the same
/// boundaries.
#[allow(clippy::too_many_arguments)]
pub fn layered_serial(
    domain: Aabb,
    pos: &[Vec3],
    mass: &[f64],
    eps2: f64,
    counter: &FlopCounter,
    list: &mut InteractionList<MassMoments>,
    ledger: &mut Ledger,
    rec: &mut Recorder,
) -> Layered {
    rec.begin("tree.build");
    let tree = Tree::<MassMoments>::build(domain, pos, mass, BUCKET);
    let build_s = rec.end();
    tree.record_build(ledger);

    let n = pos.len();
    rec.begin("tree.groups");
    let groups = tree.groups(default_group_size(BUCKET));
    let mut acc_sorted = vec![Vec3::ZERO; n];
    let mut work_sorted = vec![0.0f32; n];
    rec.end();

    let flops_before = counter.report().flops();
    let mut stats = WalkStats::default();
    let (mut list_s, mut apply_s) = (0.0, 0.0);
    {
        let mut ev = GravityEvaluator {
            acc: &mut acc_sorted,
            pot: None,
            eps2,
            quadrupole: QUADRUPOLE,
            counter,
            work: &mut work_sorted,
            base: 0,
        };
        for gi in groups {
            rec.begin("walk.list");
            stats.merge(&walk_group_list(&tree, &MAC, gi, list));
            list_s += rec.end();
            rec.begin("kernels.apply");
            ev.consume(
                &tree.pos,
                &tree.charge,
                tree.cells[gi as usize].span(),
                list,
            );
            apply_s += rec.end();
        }
    }
    stats.record_traversal(ledger);
    record_force_phase(ledger, &stats, counter.report().flops() - flops_before);

    rec.begin("treecode.unsort");
    let mut acc = vec![Vec3::ZERO; n];
    for (sorted_i, &orig) in tree.order.iter().enumerate() {
        acc[orig as usize] = acc_sorted[sorted_i];
    }
    rec.end();
    Layered {
        acc,
        stats,
        n_cells: tree.n_cells(),
        build_s,
        list_s,
        apply_s,
    }
}

/// The tree / walk / kernel metrics of a set of layered evaluations
/// (medians over the evaluations; counts from the last one).
pub fn layer_metrics(m: &mut Metrics, evals: &[Layered], n: usize) {
    use crate::report::median;
    let last = evals.last().expect("at least one layered evaluation");
    let ixn = last.stats.interactions() as f64;
    let per = |f: fn(&Layered) -> f64| median(&evals.iter().map(f).collect::<Vec<_>>());
    m.insert(
        "tree.build_ns_per_body",
        per(|e| e.build_s) * 1e9 / n as f64,
    );
    m.insert("tree.cells_per_body", last.n_cells as f64 / n as f64);
    m.insert(
        "walk.list_ns_per_ixn",
        per(|e| e.list_s / e.stats.interactions() as f64) * 1e9,
    );
    m.insert("walk.ixn_per_body", ixn / n as f64);
    m.insert("walk.pp_share", last.stats.pp as f64 / ixn);
    m.insert(
        "kernels.apply_ns_per_ixn",
        per(|e| e.apply_s / e.stats.interactions() as f64) * 1e9,
    );
    // Paper convention: 38 flops per P-P, 70 per quadrupole P-C interaction.
    m.insert(
        "kernels.gflops_paper",
        per(|e| (38.0 * e.stats.pp as f64 + 70.0 * e.stats.pc as f64) / e.apply_s) * 1e-9,
    );
}

/// The harness's own three: the traced step's wall, how much tracing slowed
/// it against the untraced `walls`, and how much of rank 0's step span its
/// child spans account for.
pub fn harness_metrics(m: &mut Metrics, rank0: &Recorder, walls: &[f64]) {
    use crate::report::median;
    let traced = median(&rank0.secs_of("step"));
    m.insert("traced_step_wall_s", traced);
    m.insert("trace_overhead_frac", traced / median(walls) - 1.0);
    m.insert(
        "span_coverage_frac",
        median(&crate::spans::step_coverage(&rank0.spans)),
    );
}

/// Model-clock counters of a ledger, per step.
pub fn model_metrics(m: &mut Metrics, totals: &hot_trace::CounterSet, model_s: f64, steps: usize) {
    let per = |c| totals.get(c) as f64 / steps as f64;
    m.insert("model.step_s", model_s / steps as f64);
    m.insert("model.flops", per(Counter::Flops));
    m.insert("model.cells_opened", per(Counter::CellsOpened));
    m.insert("model.hash_probes", per(Counter::HashProbes));
}
