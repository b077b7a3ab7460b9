//! `dist_coarse` and `dist_fine`: `distributed_accelerations` on the event
//! runtime, one `run` closure holding every step.
//!
//! * `dist_coarse` — np = 16 (Loki/Hyglac's processor count) × 4096 bodies
//!   per rank: distributed but compute-heavy; decomposition, branch
//!   exchange, walk and ABM all run while the kernels still do a large
//!   share of the step. A kernel and a comm change should both move it.
//! * `dist_fine` — np = 128 × 32 bodies per rank: the ASCI Red grain scaled
//!   to fit; almost all of the step is mailbox, fiber, ABM and collective
//!   overhead inside the walk phase. Where executor throughput must show;
//!   a kernel change should not move it.

use crate::common::{
    acc_hash, all_finite, direct_acc, gate_force_err, harness_metrics, layer_metrics,
    layered_serial, model_metrics, rms_rel_err, sample_ids, Outcome, Plan, BUCKET, EPS2,
    FORCE_ERR_CAP, MAC, QUADRUPOLE,
};
use crate::gen::{cube_position, cube_positions};
use crate::machine::{launch, speedup_w2, Launch, RankLog, WORKERS};
use crate::report::{mean, median};
use crate::spans::{chrome_trace, now_ns, Recorder};
use crate::{micro, progress};
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3};
use hot_comm::{Comm, NetworkModel};
use hot_core::decomp::{decompose_traced, Body};
use hot_core::dtree::DistTree;
use hot_core::dwalk::dwalk_with_traced;
use hot_core::ilist::InteractionList;
use hot_core::moments::MassMoments;
use hot_core::tree::Tree;
use hot_gravity::evaluator::record_force_phase;
use hot_gravity::{distributed_accelerations, DistForces, DistOptions, GravityEvaluator};
use hot_morton::Key;
use hot_trace::{CounterSet, Ledger, ModelClock, Phase};

pub struct Shape {
    pub np: u32,
    pub per_rank: usize,
    /// Seconds per step sized on the reference 2-core box.
    sized_step_s: f64,
    max_steps: usize,
    /// The 1997 machine whose model clock prices the step's counters.
    clock: fn() -> ModelClock,
    /// Also run a two-worker pass for `events.speedup_w2`.
    two_worker_pass: bool,
}

pub const COARSE: Shape = Shape {
    np: 16,
    per_rank: 4096,
    sized_step_s: 1.5,
    max_steps: 12,
    clock: ModelClock::paper_loki,
    two_worker_pass: false,
};

pub const FINE: Shape = Shape {
    np: 128,
    per_rank: 32,
    sized_step_s: 1.0,
    max_steps: 20,
    // ASCI Red's measured early treecode rate (hot-machine's specs).
    clock: || ModelClock::new(NetworkModel::asci_red(), 63.4),
    two_worker_pass: true,
};

/// Fiber stack per rank; pages are mapped lazily.
pub const STACK: usize = 2 << 20;

fn options() -> DistOptions {
    DistOptions::default()
        .with_mac(MAC)
        .with_bucket(BUCKET)
        .with_eps2(EPS2)
        .with_quadrupole(QUADRUPOLE)
}

/// Move every body to its position at `step` (a pure function of its id).
fn reposition(bodies: &mut [Body<f64>], plan: &Plan, n: usize, step: u64) {
    let (stream, domain) = (plan.stream(), Aabb::unit());
    for b in bodies {
        b.pos = cube_position(plan.seed, stream, n, b.id, step);
        b.key = Key::from_point(b.pos, &domain);
    }
}

/// What one rank saw of one step: the conservation and equality checks'
/// raw material.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct StepCheck {
    bodies: u64,
    id_sum: u64,
    acc_sum: u64,
    ixn: u64,
    finite: bool,
}

fn check(res: &DistForces) -> StepCheck {
    StepCheck {
        bodies: res.bodies.len() as u64,
        id_sum: res.bodies.iter().fold(0, |s, b| s.wrapping_add(b.id)),
        acc_sum: res
            .bodies
            .iter()
            .zip(&res.acc)
            .fold(0, |s, (b, a)| s.wrapping_add(acc_hash(b.id, *a))),
        ixn: res.stats.walk.interactions(),
        finite: all_finite(&res.acc),
    }
}

/// Sum the per-rank checks of one step.
fn total(ranks: &[RankOut], pick: impl Fn(&RankOut) -> &StepCheck) -> StepCheck {
    ranks.iter().map(pick).fold(
        StepCheck {
            finite: true,
            ..StepCheck::default()
        },
        |t, c| StepCheck {
            bodies: t.bodies + c.bodies,
            id_sum: t.id_sum.wrapping_add(c.id_sum),
            acc_sum: t.acc_sum.wrapping_add(c.acc_sum),
            ixn: t.ixn + c.ixn,
            finite: t.finite && c.finite,
        },
    )
}

/// Counts one rank's traced step leaves behind.
#[derive(Clone, Copy, Default)]
struct TracedCounts {
    moved_in: u64,
    branch_cells: u64,
    rounds: u64,
    request_msgs: u64,
    prefetched: u64,
    prefetch_hits: u64,
}

#[derive(Default)]
struct RankOut {
    warm: StepCheck,
    steps: Vec<StepCheck>,
    /// `(id, acceleration)` of the sampled sinks at the warm-up state.
    samples: Vec<(u64, Vec3)>,
    traced: Vec<StepCheck>,
    counts: Vec<TracedCounts>,
    /// Machine-wide model-clock totals and critical-path seconds (rank 0).
    model: Option<(CounterSet, f64)>,
}

/// `distributed_accelerations_traced`'s body, call by call, with a span
/// around each layer and the model-clock ledger fed at the same boundaries.
fn traced_step(
    c: &mut Comm,
    bodies: Vec<Body<f64>>,
    opts: &DistOptions,
    counter: &FlopCounter,
    ledger: &mut Ledger,
    rec: &mut Recorder,
) -> (DistForces, TracedCounts) {
    let mut before: Vec<u64> = bodies.iter().map(|b| b.id).collect();
    before.sort_unstable();

    rec.begin("decomp");
    let (bodies, intervals) = decompose_traced(c, bodies, opts.oversample, ledger);
    rec.end();

    rec.begin("treebuild");
    let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.charge).collect();
    ledger.begin(Phase::TreeBuild);
    let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &mass, opts.bucket);
    tree.record_build(ledger);
    rec.end();

    rec.begin("dtree");
    let mut dt = DistTree::build_traced(c, tree, intervals.clone(), ledger);
    ledger.end();
    rec.end();
    let branch_cells = dt.nodes.len() as u64;

    rec.begin("dwalk");
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
        dwalk_with_traced(
            c,
            &mut dt,
            &opts.mac,
            &mut ev,
            opts.group_size,
            &opts.walk,
            ledger,
        )
    };
    rec.end();
    record_force_phase(ledger, &stats.walk, counter.report().flops() - flops_before);

    rec.begin("gather");
    let mut bodies_out = bodies;
    let mut acc = vec![Vec3::ZERO; n];
    for (sorted_i, &orig) in dt.local.order.iter().enumerate() {
        acc[orig as usize] = acc_sorted[sorted_i];
        bodies_out[orig as usize].work = work_sorted[sorted_i].max(1.0);
    }
    rec.end();

    let counts = TracedCounts {
        moved_in: bodies_out
            .iter()
            .filter(|b| before.binary_search(&b.id).is_err())
            .count() as u64,
        branch_cells,
        rounds: stats.rounds,
        request_msgs: stats.request_msgs,
        prefetched: stats.prefetched_cells,
        prefetch_hits: stats.prefetch_hits,
    };
    (
        DistForces {
            bodies: bodies_out,
            acc,
            stats,
            intervals,
            rebalance: None,
        },
        counts,
    )
}

/// Bodies `ids` of an `n`-body cube at their step-0 positions.
fn initial_bodies(plan: &Plan, n: usize, ids: std::ops::Range<u64>) -> Vec<Body<f64>> {
    let mut bodies: Vec<Body<f64>> = ids
        .map(|id| Body {
            key: Key::INVALID,
            pos: Vec3::ZERO,
            charge: 1.0 / n as f64,
            work: 1.0,
            id,
        })
        .collect();
    reposition(&mut bodies, plan, n, 0);
    bodies
}

/// The SPMD body: warm-up step, `steps` untraced steps and, when `traced`,
/// each followed by the same step composed from the layer calls.
fn rank_main(
    c: &mut Comm,
    log: &mut RankLog,
    plan: &Plan,
    shape: &Shape,
    steps: usize,
    traced: bool,
    samples: &[u64],
) -> RankOut {
    let mut out = RankOut::default();
    let n = shape.np as usize * shape.per_rank;
    let (domain, opts, counter) = (Aabb::unit(), options(), FlopCounter::new());
    let first = u64::from(c.rank()) * shape.per_rank as u64;
    let initial = initial_bodies(plan, n, first..first + shape.per_rank as u64);

    let warm = distributed_accelerations(c, initial, domain, &opts, &counter);
    out.warm = check(&warm);
    out.samples = warm
        .bodies
        .iter()
        .zip(&warm.acc)
        .filter(|(b, _)| samples.binary_search(&b.id).is_ok())
        .map(|(b, a)| (b.id, *a))
        .collect();
    c.barrier();
    log.warm_ns = now_ns();

    // The timed steps. A traced run follows each with the same step composed
    // from the layer calls, on its own identical copy of the bodies: taken
    // in turns, both see the same state of a machine whose speed drifts.
    let mut bodies = warm.bodies.clone();
    let mut tracing = traced.then(|| {
        (
            warm.bodies,
            Recorder::new(c.rank()),
            Ledger::new((shape.clock)()),
        )
    });
    for step in 1..=steps as u64 {
        let res = log.timed_step(c, |c| {
            reposition(&mut bodies, plan, n, step);
            let input = std::mem::take(&mut bodies);
            let res = distributed_accelerations(c, input, domain, &opts, &counter);
            c.barrier();
            res
        });
        out.steps.push(check(&res));
        bodies = res.bodies;
        if c.rank() == 0 {
            progress(step);
        }
        if let Some((traced_bodies, rec, ledger)) = tracing.as_mut() {
            rec.set_step(step as u32);
            rec.begin("step");
            rec.span("jitter", |_| reposition(traced_bodies, plan, n, step));
            let input = std::mem::take(traced_bodies);
            let (res, counts) = traced_step(c, input, &opts, &counter, ledger, rec);
            out.traced.push(check(&res));
            out.counts.push(counts);
            *traced_bodies = res.bodies;
            rec.span("barrier", |_| c.barrier());
            rec.end();
        }
    }
    if let Some((_, rec, ledger)) = tracing {
        let report = hot_trace::reduce(c, &ledger);
        if c.rank() == 0 {
            out.model = Some((report.totals, report.seconds.max));
        }
        log.rec = Some(rec);
    }
    out
}

fn launch_dist(
    plan: &Plan,
    shape: &Shape,
    steps: usize,
    traced: bool,
    workers: usize,
    samples: &[u64],
) -> Launch<RankOut> {
    launch(shape.np, workers, STACK, |c, log| {
        rank_main(c, log, plan, shape, steps, traced, samples)
    })
}

pub fn run(plan: &Plan, shape: &Shape) -> Outcome {
    let mut out = Outcome::new();
    let steps = plan.steps(shape.sized_step_s, shape.max_steps);
    let n = shape.np as usize * shape.per_rank;
    let samples = sample_ids(plan.seed, plan.stream(), n);

    // Set-up: machine launch, input generation on the ranks, warm-up step.
    let run = launch_dist(plan, shape, steps, plan.trace, WORKERS, &samples);
    let ranks = &run.ranks;

    // Conservation, every step: all bodies present, ids intact, forces finite.
    let id_sum = (0..n as u64).fold(0u64, |s, id| s.wrapping_add(id));
    let conserved =
        |t: &StepCheck| t.bodies == n as u64 && t.id_sum == id_sum && t.finite && t.ixn > 0;
    let warm = total(ranks, |r| &r.warm);
    out.gate(
        "warm_up_conserves_bodies",
        conserved(&warm),
        format!("{} bodies", warm.bodies),
    );
    let totals: Vec<StepCheck> = (0..steps).map(|s| total(ranks, |r| &r.steps[s])).collect();
    out.attempted = steps as u64;
    out.failed = totals.iter().filter(|t| !conserved(t)).count() as u64;

    // Force check at the warm-up state against the harness's own direct sum.
    let stream = plan.stream();
    let pos0 = cube_positions(plan.seed, stream, n, 0);
    let mass = vec![1.0 / n as f64; n];
    let pairs: Vec<(Vec3, Vec3)> = ranks
        .iter()
        .flat_map(|r| &r.samples)
        .map(|&(id, acc)| (acc, direct_acc(id as usize, &pos0, &mass, EPS2)))
        .collect();
    out.gate(
        "force_samples_found",
        pairs.len() == samples.len(),
        format!("{} of {}", pairs.len(), samples.len()),
    );
    gate_force_err(&mut out, rms_rel_err(&pairs), FORCE_ERR_CAP);

    let walls = run.walls().to_vec();
    out.info.push((
        "size",
        format!(
            "np = {} x {} bodies (N = {n}), {steps} steps, {WORKERS} worker thread(s), {:.3e} interactions/step",
            shape.np,
            shape.per_rank,
            mean(&totals.iter().map(|t| t.ixn as f64).collect::<Vec<_>>())
        ),
    ));
    if !plan.trace {
        // The extra set-ups run the warm-up step only and tear down again.
        out.end_to_end(run.setup_s(), &walls, n as f64, || {
            launch_dist(plan, shape, 0, false, WORKERS, &samples).setup_s()
        });
        return out;
    }

    // The composed step must reproduce `distributed_accelerations`.
    let equal = (0..steps).all(|s| total(ranks, |r| &r.traced[s]) == totals[s]);
    out.gate(
        "composed_equals_distributed_accelerations",
        equal,
        "bodies, ids, interaction count and bitwise acceleration checksum, every step".into(),
    );

    let recs = run.recorders();
    let m = &mut out.metrics;

    // Phase walls on the shared epoch: last rank out of a phase minus last
    // rank out of the previous one, per step; medians over steps.
    const PHASES: [&str; 5] = ["jitter", "decomp", "treebuild", "dtree", "dwalk"];
    let mut phase_s: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    for step in 1..=steps as u32 {
        let last_out = |name: &str| {
            recs.iter()
                .flat_map(|r| r.spans.iter().filter(|s| s.step == step && s.name == name))
                .map(|s| s.end)
                .max()
                .expect("every rank records every phase")
        };
        let ends: Vec<u64> = PHASES.iter().map(|p| last_out(p)).collect();
        for p in 1..PHASES.len() {
            phase_s[p].push(ends[p].saturating_sub(ends[p - 1]) as f64 * 1e-9);
        }
    }
    let dwalk_s = median(&phase_s[4]);
    m.insert("decomp.phase_s", median(&phase_s[1]));
    m.insert("treebuild.phase_s", median(&phase_s[2]));
    m.insert("dtree.phase_s", median(&phase_s[3]));
    m.insert("dwalk.phase_s", dwalk_s);

    // Counts: summed over ranks and averaged over steps, or of the last step.
    let per_step = |f: fn(&TracedCounts) -> u64| {
        ranks.iter().flat_map(|r| &r.counts).map(f).sum::<u64>() as f64 / steps as f64
    };
    let last = steps - 1;
    m.insert("decomp.bodies_moved", per_step(|c| c.moved_in));
    m.insert(
        "dtree.branch_cells",
        ranks[0].counts[last].branch_cells as f64,
    );
    m.insert(
        "dwalk.rounds",
        ranks
            .iter()
            .map(|r| r.counts[last].rounds)
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert("dwalk.request_msgs", per_step(|c| c.request_msgs));
    let prefetched = per_step(|c| c.prefetched);
    if prefetched > 0.0 {
        m.insert(
            "dwalk.prefetch_hit_ratio",
            per_step(|c| c.prefetch_hits) / prefetched,
        );
    }
    let ixn: Vec<f64> = ranks.iter().map(|r| r.traced[last].ixn as f64).collect();
    m.insert(
        "dwalk.ixn_skew",
        ixn.iter().copied().fold(0.0, f64::max) / mean(&ixn),
    );

    run.machine_metrics(m, steps);
    let (model_totals, model_s) = ranks[0].model.expect("rank 0 reduces the ledger");
    model_metrics(m, &model_totals, model_s, steps);
    harness_metrics(m, recs[0], &walls);

    // One serial evaluation of the whole body set prices the kernels, so
    // the walk phase can be split into arithmetic and everything else.
    let mut serial_rec = Recorder::new(shape.np);
    let layered = layered_serial(
        Aabb::unit(),
        &cube_positions(plan.seed, stream, n, 1),
        &mass,
        EPS2,
        &FlopCounter::new(),
        &mut InteractionList::new(),
        &mut Ledger::scratch(),
        &mut serial_rec,
    );
    layer_metrics(m, std::slice::from_ref(&layered), n);
    let busy_s = ixn.iter().sum::<f64>() * layered.apply_s / layered.stats.interactions() as f64;
    m.insert(
        "dwalk.wait_share",
        1.0 - busy_s / (dwalk_s * WORKERS as f64),
    );

    micro::keys_and_table(m, Aabb::unit(), &pos0, &mass);
    micro::wire(m, &initial_bodies(plan, n, 0..4096.min(n as u64)));
    micro::abm_post(m, WORKERS);
    micro::pingpong(m);
    micro::ring(m, shape.np, WORKERS, STACK);

    // What the second worker buys.
    if shape.two_worker_pass {
        let (speedup, note) = speedup_w2(&walls[..2], || {
            launch_dist(plan, shape, 2, false, 2, &samples)
                .walls()
                .to_vec()
        });
        out.metrics.insert("events.speedup_w2", speedup);
        out.info.push(("two_worker_pass", note));
    }

    let mut all = run.into_recorders();
    all.push(serial_rec);
    out.chrome_trace = Some(chrome_trace(plan.workload, &all));
    out
}
