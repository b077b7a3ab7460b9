//! `serial_uniform`: `ForceCalc::compute` on a uniform cube, one process,
//! one thread, no communication. Kernel, walk and tree build do all the
//! work, so this is where a kernel or walk optimisation must show and a
//! runtime or comm one must not.

use crate::common::{
    acc_hash, all_finite, direct_acc, gate_force_err, harness_metrics, layer_metrics,
    layered_serial, model_metrics, rms_rel_err, sample_ids, Layered, Outcome, Plan, BUCKET, EPS2,
    FORCE_ERR_CAP, MAC, QUADRUPOLE,
};
use crate::gen::cube_positions;
use crate::report::median;
use crate::spans::{chrome_trace, Recorder};
use crate::{micro, progress};
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3};
use hot_core::ilist::InteractionList;
use hot_gravity::{ForceCalc, TreecodeOptions};
use hot_trace::{Ledger, ModelClock};
use std::time::Instant;

pub const N: usize = 131_072;
/// Seconds per evaluation sized on the reference 2-core box.
const SIZED_STEP_S: f64 = 2.1;
const MAX_STEPS: usize = 8;

fn options() -> TreecodeOptions {
    TreecodeOptions::default()
        .with_mac(MAC)
        .with_bucket(BUCKET)
        .with_eps2(EPS2)
        .with_quadrupole(QUADRUPOLE)
}

fn positions(plan: &Plan, step: u64) -> Vec<Vec3> {
    cube_positions(plan.seed, plan.stream(), N, step)
}

fn checksum(acc: &[Vec3]) -> u64 {
    acc.iter()
        .enumerate()
        .fold(0u64, |h, (i, &a)| h.wrapping_add(acc_hash(i as u64, a)))
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new();
    let steps = plan.steps(SIZED_STEP_S, MAX_STEPS);
    let domain = Aabb::unit();
    let opts = options();
    let counter = FlopCounter::new();
    let mass = vec![1.0 / N as f64; N];

    // Set-up: input generation, calculator construction, warm-up evaluation.
    let set_up = || {
        let t = Instant::now();
        let pos = positions(plan, 0);
        let mut calc = ForceCalc::new();
        let warm = calc.compute(domain, &pos, &mass, &opts, &counter, false);
        (t.elapsed().as_secs_f64(), pos, calc, warm)
    };
    let (first_setup_s, pos0, mut calc, warm) = set_up();

    // Force check at the warm-up state, against the harness's own direct sum.
    let pairs: Vec<(Vec3, Vec3)> = sample_ids(plan.seed, plan.stream(), N)
        .into_iter()
        .map(|id| {
            (
                warm.acc[id as usize],
                direct_acc(id as usize, &pos0, &mass, EPS2),
            )
        })
        .collect();
    gate_force_err(&mut out, rms_rel_err(&pairs), FORCE_ERR_CAP);
    drop(warm);

    // The timed evaluations. A traced run follows each with the same
    // evaluation composed from the layer calls, on the same positions: taken
    // in turns, both see the same state of a machine whose speed drifts.
    let mut walls = Vec::new();
    let mut rec = Recorder::new(0);
    let mut ledger = Ledger::new(ModelClock::paper_loki());
    let mut list = InteractionList::new();
    let mut evals: Vec<Layered> = Vec::new();
    let mut equal = true;
    for step in 1..=steps as u64 {
        let pos = positions(plan, step);
        let t = Instant::now();
        let res = calc.compute(domain, &pos, &mass, &opts, &counter, false);
        walls.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if !all_finite(&res.acc) || res.stats.interactions() == 0 {
            out.failed += 1;
        }
        progress(step);
        if plan.trace {
            rec.set_step(step as u32);
            rec.begin("step");
            let e = layered_serial(
                domain,
                &pos,
                &mass,
                EPS2,
                &counter,
                &mut list,
                &mut ledger,
                &mut rec,
            );
            rec.end();
            equal &= (e.stats.interactions(), checksum(&e.acc))
                == (res.stats.interactions(), checksum(&res.acc));
            evals.push(e);
        }
    }
    out.info
        .push(("size", format!("N = {N}, {steps} evaluations, 1 thread")));
    if !plan.trace {
        out.end_to_end(first_setup_s, &walls, N as f64, || set_up().0);
        return out;
    }
    out.gate(
        "composed_equals_compute",
        equal,
        "interaction count and bitwise acceleration checksum, every step".into(),
    );

    let m = &mut out.metrics;
    layer_metrics(m, &evals, N);
    model_metrics(
        m,
        ledger.totals(),
        ledger.clock().seconds(ledger.totals()),
        steps,
    );
    let layers = median(
        &evals
            .iter()
            .map(|e| e.build_s + e.list_s + e.apply_s)
            .collect::<Vec<_>>(),
    );
    m.insert("treecode.other_s", median(&walls) - layers);
    harness_metrics(m, &rec, &walls);
    micro::keys_and_table(m, domain, &pos0, &mass);
    out.chrome_trace = Some(chrome_trace(plan.workload, &[rec]));
    out
}
