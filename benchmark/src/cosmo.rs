//! `cosmo_sphere`: the paper's headline application. `CosmoSim::step` on a
//! CDM sphere with an 8×-mass buffer shell, from a = 0.15 to 0.8. It uses
//! the same tree, walk and kernel layers as `serial_uniform` differently:
//! two tree rebuilds per step, the 16-chunk evaluation path, multi-mass
//! bodies, and a distribution that clusters as the run proceeds.

use crate::common::{
    direct_acc, gate_force_err, harness_metrics, layer_metrics, layered_serial, model_metrics,
    rms_rel_err, sample_ids, Outcome, Plan, BUCKET, MAC, QUADRUPOLE,
};
use crate::gen::{cdm_sphere, hash_words, CdmSphere, CDM_A0, CDM_A1};
use crate::report::median;
use crate::spans::{chrome_trace, Recorder};
use crate::{micro, progress};
use hot_base::flops::FlopCounter;
use hot_base::Vec3;
use hot_core::ilist::InteractionList;
use hot_cosmo::sim::{cosmic_time, domain_for};
use hot_cosmo::{CosmoSim, RHO_BAR};
use hot_gravity::TreecodeOptions;
use hot_trace::{Ledger, ModelClock};
use std::time::Instant;

/// Cap on `force_rms_err` here. At the CDM start (a = 0.15) the bodies sit
/// near a uniform lattice and each net force is the residual of a near
/// cancellation, so the per-body *relative* error at θ = 0.4 is 0.74e-3 to
/// 1.12e-3 depending on the seed (eight seeds, 4096 sinks each) — astride
/// the paper's 1e-3, which the uniform cube meets at 2–4e-4. The cap leaves
/// the seed-to-seed range room and still catches a loosened MAC.
const FORCE_ERR_CAP_CDM: f64 = 1.5e-3;

/// Seconds per KDK step sized on the reference 2-core box.
const SIZED_STEP_S: f64 = 1.6;
const MAX_STEPS: usize = 16;

fn new_sim(ics: CdmSphere) -> CosmoSim {
    let eps = 0.05 * ics.cell;
    let opts = TreecodeOptions::default()
        .with_mac(MAC)
        .with_bucket(BUCKET)
        .with_eps2(eps * eps)
        .with_quadrupole(QUADRUPOLE);
    CosmoSim::new(ics.pos, ics.vel, ics.mass, CDM_A0, ics.center, opts)
}

/// The uniform-background term `CosmoSim::accelerations` adds to the tree
/// force.
fn background(sim: &CosmoSim, p: Vec3) -> Vec3 {
    (p - sim.center) * (4.0 * std::f64::consts::PI / 3.0 * RHO_BAR)
}

fn state_hash(sim: &CosmoSim) -> u64 {
    sim.pos
        .iter()
        .zip(&sim.mom)
        .enumerate()
        .fold(0u64, |h, (i, (p, w))| {
            h.wrapping_add(hash_words(&[
                i as u64,
                p.x.to_bits(),
                p.y.to_bits(),
                p.z.to_bits(),
                w.x.to_bits(),
                w.y.to_bits(),
                w.z.to_bits(),
            ]))
        })
}

/// `CosmoSim::step` written out in the harness — kick, drift, kick around
/// the public `accelerations` — so that force and integrator time separate.
/// Returns the step's interaction count.
fn kdk_step(sim: &mut CosmoSim, da: f64, counter: &FlopCounter, rec: &mut Recorder) -> u64 {
    let (a0, a1) = (sim.a, sim.a + da);
    let (t0, t1) = (cosmic_time(a0), cosmic_time(a1));
    let dt = t1 - t0;
    let a_mid = ((t0 + 0.5 * dt) * 1.5).powf(2.0 / 3.0);
    let f0 = rec.span("sim.force", |_| sim.accelerations(counter));
    rec.span("sim.kick_drift", |_| {
        for (w, acc) in sim.mom.iter_mut().zip(&f0.acc) {
            *w += *acc * (0.5 * dt / a0);
        }
        let inv_a2 = 1.0 / (a_mid * a_mid);
        for (x, w) in sim.pos.iter_mut().zip(&sim.mom) {
            *x += *w * (dt * inv_a2);
        }
        sim.a = a1;
    });
    let f1 = rec.span("sim.force", |_| sim.accelerations(counter));
    rec.span("sim.kick_drift", |_| {
        for (w, acc) in sim.mom.iter_mut().zip(&f1.acc) {
            *w += *acc * (0.5 * dt / a1);
        }
        sim.steps += 1;
    });
    f0.stats.interactions() + f1.stats.interactions()
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new();
    let steps = plan.steps(SIZED_STEP_S, MAX_STEPS);
    let da = (CDM_A1 - CDM_A0) / steps as f64;
    let counter = FlopCounter::new();

    // Set-up: FFT-built initial conditions, simulation state, warm-up force.
    let set_up = || {
        let t = Instant::now();
        let ics = cdm_sphere(plan.seed, plan.stream());
        let ics_s = (ics.field_s, ics.zeldovich_s);
        let mut sim = new_sim(ics);
        let warm = sim.accelerations(&counter);
        (t.elapsed().as_secs_f64(), sim, warm, ics_s)
    };
    let (first_setup_s, mut sim, warm, (field_s, zeldovich_s)) = set_up();
    let n = sim.pos.len();

    // Force check at the warm-up state: the tree part of the peculiar force
    // against the harness's own direct sum.
    let pairs: Vec<(Vec3, Vec3)> = sample_ids(plan.seed, plan.stream(), n)
        .into_iter()
        .map(|id| {
            let i = id as usize;
            (
                warm.acc[i] - background(&sim, sim.pos[i]),
                direct_acc(i, &sim.pos, &sim.mass, sim.opts.eps2),
            )
        })
        .collect();
    gate_force_err(&mut out, rms_rel_err(&pairs), FORCE_ERR_CAP_CDM);
    drop(warm);

    // The timed steps. A traced run advances a second, identical simulation
    // in step with the first, its integrator written out in the harness:
    // taken in turns, both see the same state of a machine whose speed drifts.
    let mut traced_sim = plan.trace.then(|| sim.clone());
    let mut walls = Vec::new();
    let mut ixn_per_step = Vec::new();
    let mut rec = Recorder::new(0);
    let mut equal = true;
    for step in 1..=steps as u64 {
        let t = Instant::now();
        let ixn = sim.step(da, &counter);
        walls.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if ixn == 0 || !sim.pos.iter().chain(&sim.mom).all(|v| v.is_finite()) {
            out.failed += 1;
        }
        ixn_per_step.push(ixn);
        progress(step);
        if let Some(traced) = traced_sim.as_mut() {
            rec.set_step(step as u32);
            rec.begin("step");
            let traced_ixn = kdk_step(traced, da, &counter, &mut rec);
            rec.end();
            equal &= (traced_ixn, state_hash(traced)) == (ixn, state_hash(&sim));
        }
    }
    out.info.push((
        "size",
        format!("N = {n}, {steps} KDK steps a = {CDM_A0}..{CDM_A1}, 1 thread"),
    ));
    if !plan.trace {
        out.end_to_end(first_setup_s, &walls, n as f64, || set_up().0);
        return out;
    }
    out.gate(
        "composed_equals_step",
        equal,
        "interaction count and bitwise position+momentum checksum, every step".into(),
    );

    // One force evaluation of the final, clustered state, layer by layer.
    let mut ledger = Ledger::new(ModelClock::paper_loki());
    let mut list = InteractionList::new();
    rec.set_step(steps as u32 + 1);
    let layered = layered_serial(
        domain_for(&sim.pos),
        &sim.pos,
        &sim.mass,
        sim.opts.eps2,
        &counter,
        &mut list,
        &mut ledger,
        &mut rec,
    );
    let last = sim.accelerations(&counter);
    let same = last.stats.interactions() == layered.stats.interactions()
        && last
            .acc
            .iter()
            .zip(&layered.acc)
            .zip(&sim.pos)
            .all(|((a, b), &p)| *a == *b + background(&sim, p));
    out.gate(
        "layered_equals_accelerations",
        same,
        "final state, bitwise".into(),
    );

    let m = &mut out.metrics;
    m.insert("ics.field_s", field_s);
    m.insert("ics.zeldovich_s", zeldovich_s);
    // Two force evaluations and two kick/drift spans per step.
    let per_step = |name| 2.0 * median(&rec.secs_of(name));
    m.insert("sim.force_s", per_step("sim.force"));
    m.insert("sim.kick_drift_s", per_step("sim.kick_drift"));
    m.insert(
        "sim.ixn_per_body_first",
        ixn_per_step[0] as f64 / (2 * n) as f64,
    );
    m.insert(
        "sim.ixn_per_body_last",
        ixn_per_step[steps - 1] as f64 / (2 * n) as f64,
    );
    layer_metrics(m, std::slice::from_ref(&layered), n);
    model_metrics(
        m,
        ledger.totals(),
        ledger.clock().seconds(ledger.totals()),
        1,
    );
    let last_force_s = *rec
        .secs_of("sim.force")
        .last()
        .expect("the traced steps evaluate forces");
    m.insert(
        "treecode.other_s",
        last_force_s - layered.build_s - layered.list_s - layered.apply_s,
    );
    harness_metrics(m, &rec, &walls);
    micro::keys_and_table(m, domain_for(&sim.pos), &sim.pos, &sim.mass);
    out.chrome_trace = Some(chrome_trace(plan.workload, &[rec]));
    out
}
