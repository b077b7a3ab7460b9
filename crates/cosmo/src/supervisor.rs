//! Crash-stop supervision: coordinated checkpointing, automatic rollback,
//! and rerun-from-checkpoint recovery for distributed simulations.
//!
//! The paper's headline runs are exactly the regime where a node dying
//! mid-run is routine rather than exceptional — 9.4 hours on 6800 ASCI Red
//! processors, multi-day campaigns on Loki — and the production treecodes
//! of that era survived by checkpointing at step boundaries and restarting
//! after failures. This module closes that loop over the simulated
//! machine:
//!
//! * the run is divided into **segments** of `k` steps, with `k` chosen by
//!   a Daly-style optimal-interval rule parameterized on the
//!   [`NetworkModel`] machine specs ([`daly_interval_steps`]);
//! * after every successful segment the supervisor (the I/O-node stand-in)
//!   writes a [`checkpoint`](crate::checkpoint) of the coordinated state —
//!   the end-of-segment barrier *is* the coordination, so the checkpoint
//!   is always a consistent cut;
//! * a rank death is detected when the executor proves the machine
//!   quiescent with a survivor blocked on the dead rank (`Comm::wait_take`)
//!   and aborts the step collectively; the supervisor classifies the abort
//!   through the fault plan's [`FaultMonitor`], rolls back to the
//!   checkpoint, and reruns the segment on a repaired machine — fully
//!   automatically;
//! * because the checkpoint is bitwise-exact and the distributed force
//!   evaluation is schedule-independent, the recovered run converges to
//!   **bitwise-identical final state and trace totals** vs the fault-free
//!   golden ([`state_digest`] pins this).
//!
//! The integration itself is a replicated-state distributed KDK, the one
//! [`CosmoSim::step`] runs with the distributed force in place of the
//! treecode: every rank holds the full particle state, computes forces for
//! the bodies it owns through [`distributed_step_traced`] — a segment
//! starts from the index partition, and each later evaluation keeps the
//! bodies and measured costs the rank owned after the previous one's
//! migration — and an `allreduce` rebuilds the full acceleration array on
//! every rank, so all replicas integrate identically and any `np − 1`
//! survivors hold the complete state a rollback needs. A step's closing
//! force opens the next step, so a step evaluates one force after a
//! segment's first; each segment attempt starts without a kept force, so a
//! rerun from the checkpoint evaluates what the fault-free run did.

use crate::checkpoint::CheckpointError;
use crate::sim::{domain_for, CosmoSim, RHO_BAR};
use hot_base::flops::FlopCounter;
use hot_base::Vec3;
use hot_comm::{Comm, FaultConfig, FaultMonitor, FaultPlan, NetworkModel, RunConfig};
use hot_core::decomp::Body;
use hot_core::walk::default_group_size;
use hot_gravity::dist::{distributed_step_traced, DecompState, DistOptions};
use hot_morton::Key;
use hot_trace::{CounterSet, Ledger};
use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Checkpoint cadence: Daly's optimal interval on the 1997 machines.
// ---------------------------------------------------------------------------

/// Seconds to drain one checkpoint to stable storage through a node's
/// network port — the `δ` of the Daly model. On the paper's machines the
/// checkpoint leaves the node over the same wires as application traffic,
/// so the cost is the network model's latency + bytes/bandwidth.
pub fn checkpoint_cost_seconds(net: &NetworkModel, ckpt_bytes: u64) -> f64 {
    net.send_time(1, ckpt_bytes)
}

/// Daly's first-order optimal checkpoint interval, in *steps*:
/// `τ_opt = sqrt(2 δ M) − δ` with `δ` the checkpoint cost
/// ([`checkpoint_cost_seconds`]) and `M` the mean time between failures,
/// converted to whole steps of `step_seconds` each (at least 1).
///
/// The interval balances checkpoint overhead (∝ 1/τ) against expected
/// rework after a failure (∝ τ): checkpointing every step wastes the
/// machine on I/O, checkpointing never wastes it on re-running from a=a₀.
pub fn daly_interval_steps(
    net: &NetworkModel,
    ckpt_bytes: u64,
    step_seconds: f64,
    mtbf_seconds: f64,
) -> u64 {
    assert!(step_seconds > 0.0 && mtbf_seconds > 0.0);
    let delta = checkpoint_cost_seconds(net, ckpt_bytes);
    let tau = (2.0 * delta * mtbf_seconds).sqrt() - delta;
    let steps = (tau / step_seconds).round();
    if steps < 1.0 {
        1
    } else {
        steps as u64
    }
}

/// Fraction of machine time spent writing checkpoints at a cadence of
/// `every` steps: `δ / (δ + every·step_seconds)`. At the Daly interval
/// this is `≈ sqrt(δ / 2M)` — small whenever failures are much rarer than
/// checkpoints, which is the regime the rule targets.
pub fn checkpoint_overhead_fraction(
    net: &NetworkModel,
    ckpt_bytes: u64,
    step_seconds: f64,
    every: u64,
) -> f64 {
    let delta = checkpoint_cost_seconds(net, ckpt_bytes);
    delta / (delta + every.max(1) as f64 * step_seconds)
}

// ---------------------------------------------------------------------------
// Supervisor configuration and report.
// ---------------------------------------------------------------------------

/// One scheduled rank death, placed relative to the step structure so a
/// kill can land exactly on or across a checkpoint boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// Rank that dies.
    pub rank: u32,
    /// Global step index (0-based, over the whole supervised run) at which
    /// the kill fires.
    pub step: u64,
    /// `false`: the rank dies at the top of the step, before its opening
    /// force, kept or evaluated. `true`: it dies *mid-step*, before the
    /// closing force — after the drift, holding half-updated momenta.
    pub mid_step: bool,
}

impl KillSpec {
    /// The `Comm::kill_point` epoch this spec fires at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.step * 2 + u64::from(self.mid_step)
    }
}

/// Everything a supervised run needs besides the initial state.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Ranks in the simulated machine.
    pub np: u32,
    /// Steps to advance.
    pub steps: u64,
    /// Scale-factor increment per step.
    pub da: f64,
    /// Checkpoint cadence in steps (see [`daly_interval_steps`]).
    pub ckpt_every: u64,
    /// Rolling checkpoint file (written atomically; the rollback target).
    pub ckpt_path: PathBuf,
    /// Message-level fault plan config (drops, dups, corruption, seeded
    /// kills); `None` runs the machine without a transport.
    pub faults: Option<FaultConfig>,
    /// Targeted kills at exact step positions.
    pub kills: Vec<KillSpec>,
    /// Run each segment under a seeded serialized schedule
    /// (`RunConfigBuilder::event_seed`) instead of the production executor
    /// (the `hot-analyze kills` checker crosses kill plans with these
    /// seeds).
    pub fuzz_seed: Option<u64>,
    /// Abort the run if recovery is attempted more than this many times.
    pub max_recoveries: u32,
}

impl SupervisorConfig {
    /// A config with no faults, no kills, production scheduling: the
    /// fault-free golden for a given `(np, steps, da, cadence)`.
    #[must_use]
    pub fn golden(np: u32, steps: u64, da: f64, ckpt_every: u64, ckpt_path: PathBuf) -> Self {
        SupervisorConfig {
            np,
            steps,
            da,
            ckpt_every,
            ckpt_path,
            faults: None,
            kills: Vec::new(),
            fuzz_seed: None,
            max_recoveries: 8,
        }
    }
}

/// What a supervised run did, besides producing the final state.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Final simulation state.
    pub sim: CosmoSim,
    /// Trace counters summed over all ranks and all *successful* segments
    /// — aborted attempts are discarded with their segment, so this total
    /// is bitwise-comparable to the fault-free golden's.
    pub totals: CounterSet,
    /// FNV digest of the final particle state ([`state_digest`]).
    pub state_digest: u64,
    /// Segments completed.
    pub segments: u64,
    /// Checkpoints written (one initial + one per completed segment).
    pub checkpoints: u64,
    /// Rollback-rerun cycles performed.
    pub recoveries: u32,
    /// Steps of work discarded by rollbacks (segment lengths of aborted
    /// attempts) — the "rework" term of the Daly trade-off.
    pub rework_steps: u64,
    /// Crash-stop kills that fired across all attempts.
    pub kills_fired: u64,
    /// Failure detections recorded across all attempts: one per survivor
    /// blocked when the executor proved quiescence, per dead rank.
    pub detections: u64,
}

/// Why a supervised run gave up.
#[derive(Debug)]
pub enum SupervisorError {
    /// More rollback cycles than [`SupervisorConfig::max_recoveries`].
    TooManyRecoveries {
        /// The configured bound.
        limit: u32,
    },
    /// The rollback target itself failed to load.
    Checkpoint(CheckpointError),
    /// Writing a checkpoint failed.
    Io(std::io::Error),
    /// Replicas disagreed at a segment boundary — an integration bug, not
    /// a fault-injection outcome.
    ReplicaDivergence {
        /// Step at which the digests disagreed.
        step: u64,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::TooManyRecoveries { limit } => {
                write!(f, "gave up after {limit} recovery cycles")
            }
            SupervisorError::Checkpoint(e) => write!(f, "rollback target unusable: {e}"),
            SupervisorError::Io(e) => write!(f, "checkpoint write failed: {e}"),
            SupervisorError::ReplicaDivergence { step } => {
                write!(f, "replicated states diverged at step {step}")
            }
        }
    }
}

impl std::error::Error for SupervisorError {}

impl From<std::io::Error> for SupervisorError {
    fn from(e: std::io::Error) -> Self {
        SupervisorError::Io(e)
    }
}

/// FNV-1a digest over every resume-relevant bit of the particle state:
/// step count, scale factor, positions, momenta, masses. Two states with
/// equal digests went through bitwise-identical trajectories (for the
/// widths at stake here).
#[must_use]
pub fn state_digest(sim: &CosmoSim) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(sim.steps);
    eat(sim.a.to_bits());
    for &p in &sim.pos {
        eat(p.x.to_bits());
        eat(p.y.to_bits());
        eat(p.z.to_bits());
    }
    for &w in &sim.mom {
        eat(w.x.to_bits());
        eat(w.y.to_bits());
        eat(w.z.to_bits());
    }
    for &m in &sim.mass {
        eat(m.to_bits());
    }
    h
}

// ---------------------------------------------------------------------------
// The replicated-state distributed step.
// ---------------------------------------------------------------------------

fn dist_options(sim: &CosmoSim) -> DistOptions {
    DistOptions {
        mac: sim.opts.mac,
        bucket: sim.opts.bucket,
        group_size: default_group_size(sim.opts.bucket),
        eps2: sim.opts.eps2,
        quadrupole: sim.opts.quadrupole,
        ..DistOptions::default()
    }
}

/// Segment-local decomposition state: the cross-step [`DecompState`] plus
/// this rank's body set, so smoothed costs and ownership survive between
/// force evaluations (`None` before the segment's first). Rebuilt cold at
/// every segment attempt, which keeps rollback-rerun recovery bitwise.
#[derive(Default)]
struct SegmentState {
    decomp: DecompState,
    bodies: Option<Vec<Body<f64>>>,
}

/// Peculiar accelerations of the *full* replicated state, computed
/// cooperatively, and this rank's interaction count: this rank contributes
/// its bodies to the distributed treecode, then an element-wise
/// `allreduce` (each body owned by exactly one rank, so the sum is exact)
/// rebuilds the complete array everywhere, and the uniform-background
/// correction is applied identically on every replica (collective call).
///
/// A segment's first evaluation contributes the index partition. Each
/// later one keeps the bodies the rank owned after the previous
/// evaluation's migration, refreshing their positions from the replicated
/// state (every rank holds all of it), so ownership evolves by interval
/// diff and the smoothed costs stay attached.
fn replicated_accelerations(
    c: &mut Comm,
    sim: &CosmoSim,
    seg: &mut SegmentState,
    counter: &FlopCounter,
    trace: &mut Ledger,
) -> (Vec<Vec3>, u64) {
    let n = sim.pos.len();
    let domain = domain_for(&sim.pos);
    let bodies: Vec<Body<f64>> = match seg.bodies.take() {
        Some(mut prev) => {
            for b in &mut prev {
                let i = b.id as usize;
                b.pos = sim.pos[i];
                b.key = Key::from_point(sim.pos[i], &domain);
                b.charge = sim.mass[i];
            }
            prev
        }
        None => {
            let (np, rank) = (c.size() as usize, c.rank() as usize);
            let per = n / np;
            let lo = rank * per;
            let hi = if rank == np - 1 { n } else { lo + per };
            (lo..hi)
                .map(|i| Body {
                    key: Key::from_point(sim.pos[i], &domain),
                    pos: sim.pos[i],
                    charge: sim.mass[i],
                    work: 1.0,
                    id: i as u64,
                })
                .collect()
        }
    };
    let opts = dist_options(sim);
    let res = distributed_step_traced(c, bodies, domain, &opts, counter, &mut seg.decomp, trace);
    let mut flat = vec![0.0f64; 3 * n];
    for (b, a) in res.bodies.iter().zip(&res.acc) {
        let i = b.id as usize * 3;
        flat[i] = a.x;
        flat[i + 1] = a.y;
        flat[i + 2] = a.z;
    }
    seg.bodies = Some(res.bodies);
    let interactions = res.stats.walk.interactions();
    let all = c.allreduce_sum_vec_f64(flat);
    let k = 4.0 * std::f64::consts::PI / 3.0 * RHO_BAR;
    let acc = (0..n)
        .map(|i| {
            Vec3::new(all[3 * i], all[3 * i + 1], all[3 * i + 2]) + (sim.pos[i] - sim.center) * k
        })
        .collect();
    (acc, interactions)
}

/// Per-rank product of one segment attempt.
struct SegmentOut {
    digest: u64,
    totals: CounterSet,
    /// The advanced state, returned by rank 0 only (all replicas are
    /// digest-checked equal).
    state: Option<Box<CosmoSim>>,
}

// ---------------------------------------------------------------------------
// The supervisor loop.
// ---------------------------------------------------------------------------

/// Build the fault plan for one segment attempt. Seeded kills are resolved
/// to their `(rank, op)` sites up front (still a pure function of
/// `(seed, rank)`), so that ranks which already died — and were "replaced
/// by a fresh node" — can be excluded on rerun; targeted step kills are
/// installed for the segment's epoch range only.
fn segment_plan(
    cfg: &SupervisorConfig,
    fired: &BTreeSet<u32>,
    step0: u64,
    step1: u64,
) -> Option<FaultPlan> {
    let base = cfg.faults?;
    let probe = FaultPlan::new(base);
    // Message-level faults keep their config; kill draws move into
    // targeted sites so reruns can exclude already-dead ranks.
    let mut plan = FaultPlan::new(FaultConfig { kill: 0.0, kill_window: (0, 0), ..base });
    for rank in 0..cfg.np {
        if fired.contains(&rank) {
            continue;
        }
        if let Some(op) = probe.kill_time(rank) {
            plan = plan.with_rank_kill_at_op(rank, op);
        }
    }
    for k in &cfg.kills {
        if k.step >= step0 && k.step < step1 && !fired.contains(&k.rank) {
            plan = plan.with_rank_kill_at_epoch(k.rank, k.epoch());
        }
    }
    Some(plan)
}

/// Run `cfg.steps` KDK steps of `sim` on an `np`-rank machine under
/// crash-stop supervision: checkpoint every `ckpt_every` steps, detect
/// rank deaths, roll back and rerun automatically. See the module docs
/// for the recovery contract.
///
/// # Panics
///
/// Panics (propagating the original payload) when a segment aborts for a
/// reason the fault monitor cannot attribute to an injected kill — a
/// genuine bug must not be silently "recovered".
pub fn run_supervised(
    sim: CosmoSim,
    cfg: &SupervisorConfig,
) -> Result<RecoveryReport, SupervisorError> {
    assert!(cfg.np >= 1, "need at least one rank");
    assert!(cfg.ckpt_every >= 1, "checkpoint cadence must be at least one step");
    let mut state = sim;
    let mut fired: BTreeSet<u32> = BTreeSet::new();
    let mut totals = CounterSet::new();
    let mut report = (0u64, 0u64, 0u32, 0u64, 0u64, 0u64); // segments, ckpts, recov, rework, kills, detections

    // The initial state is the first rollback target: a kill in the first
    // segment must rewind to step 0, not to nothing.
    state.save_checkpoint(&cfg.ckpt_path)?;
    report.1 += 1;

    let mut step = 0u64;
    while step < cfg.steps {
        let seg_end = (step + cfg.ckpt_every).min(cfg.steps);
        let plan = segment_plan(cfg, &fired, step, seg_end);
        let monitor: Option<Arc<FaultMonitor>> = plan.as_ref().map(FaultPlan::monitor);
        let run = RunConfig::builder().np(cfg.np).faults_opt(plan);
        let run = match cfg.fuzz_seed {
            Some(seed) => run.event_seed(seed),
            None => run,
        };
        let da = cfg.da;
        let body_state = &state;
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run.run(|c| {
                let mut local = body_state.clone();
                let counter = FlopCounter::new();
                let mut trace = Ledger::scratch();
                // Fresh per attempt: a rerun after rollback starts from the
                // same cold decomposition state, and without a kept force,
                // as the aborted attempt did.
                let mut seg = SegmentState::default();
                local.end_force = None;
                for s in step..seg_end {
                    // The step's kill epochs (`KillSpec::epoch`): `2·s` at
                    // the top, `2·s + 1` before the closing force.
                    c.kill_point(2 * s);
                    local.kdk(da, &mut trace, |sim, trace, closing| {
                        if closing {
                            c.kill_point(2 * s + 1);
                        }
                        replicated_accelerations(c, sim, &mut seg, &counter, trace)
                    });
                }
                SegmentOut {
                    digest: state_digest(&local),
                    totals: *trace.totals(),
                    state: (c.rank() == 0).then(|| Box::new(local)),
                }
            })
        }));
        match attempt {
            Ok(out) => {
                let d0 = out.results[0].digest;
                if out.results.iter().any(|r| r.digest != d0) {
                    return Err(SupervisorError::ReplicaDivergence { step: seg_end });
                }
                for r in &out.results {
                    totals.merge(&r.totals);
                }
                let advanced = out
                    .results
                    .into_iter()
                    .find_map(|r| r.state)
                    // Rank 0 always boxes its state; a missing slot would
                    // mean the runtime dropped a result on a *successful*
                    // run. hot-lint: allow(unwrap-audit)
                    .expect("rank 0 returns the advanced state");
                state = *advanced;
                step = seg_end;
                report.0 += 1;
                state.save_checkpoint(&cfg.ckpt_path)?;
                report.1 += 1;
            }
            Err(payload) => {
                // Only a monitored crash-stop abort is recoverable; any
                // other panic is a bug and must propagate.
                let m = monitor.as_ref().filter(|m| {
                    m.kills_fired() > 0 || !m.detections().is_empty()
                });
                let Some(m) = m else { std::panic::resume_unwind(payload) };
                report.4 += m.kills_fired();
                report.5 += m.detections().len() as u64;
                for k in m.kills() {
                    fired.insert(k.rank);
                }
                report.2 += 1;
                if report.2 > cfg.max_recoveries {
                    return Err(SupervisorError::TooManyRecoveries {
                        limit: cfg.max_recoveries,
                    });
                }
                report.3 += seg_end - step;
                // Roll back through the real checkpoint file — the load
                // path (magic, version, CRC) is part of the recovery
                // machinery under test, not just the in-memory clone.
                state = CosmoSim::load_checkpoint(&cfg.ckpt_path)
                    .map_err(SupervisorError::Checkpoint)?;
            }
        }
    }
    let digest = state_digest(&state);
    Ok(RecoveryReport {
        sim: state,
        totals,
        state_digest: digest,
        segments: report.0,
        checkpoints: report.1,
        recoveries: report.2,
        rework_steps: report.3,
        kills_fired: report.4,
        detections: report.5,
    })
}

// ---------------------------------------------------------------------------
// A small deterministic workload, shared by tests, the `hot-analyze kills`
// checker, and the `exp_recovery` bench.
// ---------------------------------------------------------------------------

/// A deterministic cold sphere of `n` particles (pure function of `seed`;
/// no RNG crate involved, so every consumer gets the same bytes).
#[must_use]
pub fn demo_state(n: usize, seed: u64) -> CosmoSim {
    // splitmix64 stream, mapped into [-1, 1).
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    };
    let center = Vec3::splat(5.0);
    let mut pos = Vec::with_capacity(n);
    while pos.len() < n {
        let p = Vec3::new(next(), next(), next());
        if p.norm2() <= 1.0 {
            pos.push(center + p * 3.0);
        }
    }
    let vol = 4.0 / 3.0 * std::f64::consts::PI * 27.0;
    let mass = vec![RHO_BAR * vol / n as f64; n];
    let opts = hot_gravity::treecode::TreecodeOptions { eps2: 0.04, ..Default::default() };
    CosmoSim::new(pos, vec![Vec3::ZERO; n], mass, 0.3, center, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hot97_supervisor");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn daly_interval_is_sane_on_both_machines() {
        // 1 MB checkpoint, 1-second steps, 6-hour MTBF: the interval must
        // be over an hour's worth of steps on either network — and the
        // faster network checkpoints cheaper, so it recommends *more
        // frequent* checkpoints (smaller τ), never fewer.
        let bytes = 1 << 20;
        let mtbf = 6.0 * 3600.0;
        let loki = daly_interval_steps(&NetworkModel::loki(), bytes, 1.0, mtbf);
        let red = daly_interval_steps(&NetworkModel::asci_red(), bytes, 1.0, mtbf);
        assert!(loki > 30, "loki interval {loki}");
        assert!(red > 10, "asci red interval {red}");
        assert!(red < loki, "cheaper checkpoints should mean a shorter interval");
        for (net, every) in [(NetworkModel::loki(), loki), (NetworkModel::asci_red(), red)] {
            let f = checkpoint_overhead_fraction(&net, bytes, 1.0, every);
            assert!(f < 0.05, "overhead {f} at the Daly interval");
        }
    }

    /// The distributed walk groups sinks as `CosmoSim`'s serial step
    /// does, whatever the bucket.
    #[test]
    fn dist_options_group_like_the_serial_step() {
        let mut sim = demo_state(8, 1);
        for bucket in [4, 8, 16, 32] {
            sim.opts.bucket = bucket;
            assert_eq!(dist_options(&sim).group_size, default_group_size(bucket), "bucket {bucket}");
        }
    }

    #[test]
    fn golden_run_needs_no_recovery() {
        let cfg = SupervisorConfig::golden(2, 4, 0.01, 2, tmp("golden.ckpt"));
        let rep = run_supervised(demo_state(96, 1), &cfg).expect("golden run");
        assert_eq!(rep.sim.steps, 4);
        assert_eq!(rep.segments, 2);
        assert_eq!(rep.checkpoints, 3);
        assert_eq!(rep.recoveries, 0);
        assert_eq!(rep.kills_fired, 0);
    }

    #[test]
    fn supervised_integration_matches_replicas() {
        // np=1 and np=2 agree in physics (not bitwise — different force
        // summation order), and each np is internally deterministic.
        let a = run_supervised(
            demo_state(96, 2),
            &SupervisorConfig::golden(2, 3, 0.01, 3, tmp("rep_a.ckpt")),
        )
        .expect("np=2");
        let b = run_supervised(
            demo_state(96, 2),
            &SupervisorConfig::golden(2, 3, 0.01, 3, tmp("rep_b.ckpt")),
        )
        .expect("np=2 again");
        assert_eq!(a.state_digest, b.state_digest, "np=2 not deterministic");
        assert_eq!(a.totals, b.totals);
    }

    /// The tentpole gate, in miniature: kill a rank mid-run (top-of-step
    /// and mid-step, across a checkpoint boundary), and the recovered
    /// final state, digest, and trace totals must be bitwise-identical to
    /// the fault-free golden's.
    #[test]
    fn killed_rank_recovers_to_bitwise_golden() {
        let np = 2;
        let steps = 4;
        let golden = run_supervised(
            demo_state(80, 3),
            &SupervisorConfig::golden(np, steps, 0.01, 2, tmp("kb_golden.ckpt")),
        )
        .expect("golden");
        for (i, spec) in [
            KillSpec { rank: 1, step: 1, mid_step: false },
            KillSpec { rank: 0, step: 2, mid_step: true },
            KillSpec { rank: 1, step: 3, mid_step: true },
        ]
        .iter()
        .enumerate()
        {
            let cfg = SupervisorConfig {
                faults: Some(FaultConfig::clean(9)),
                kills: vec![*spec],
                ..SupervisorConfig::golden(np, steps, 0.01, 2, tmp(&format!("kb_{i}.ckpt")))
            };
            let rep = run_supervised(demo_state(80, 3), &cfg).expect("supervised run");
            assert_eq!(rep.kills_fired, 1, "kill {spec:?} never fired");
            assert_eq!(rep.recoveries, 1, "kill {spec:?}: wrong recovery count");
            assert!(rep.rework_steps > 0);
            assert_eq!(
                rep.state_digest, golden.state_digest,
                "kill {spec:?}: state diverged from golden"
            );
            assert_eq!(rep.totals, golden.totals, "kill {spec:?}: trace totals diverged");
            assert_eq!(rep.sim.a.to_bits(), golden.sim.a.to_bits());
        }
    }

    /// A segment carries its bodies and their measured costs from one force
    /// evaluation to the next, so the decomposition moves bodies by cost
    /// instead of re-cutting the index partition every time.
    #[test]
    fn supervised_run_rebalances_from_measured_costs() {
        let rep = run_supervised(
            demo_state(80, 3),
            &SupervisorConfig::golden(2, 4, 0.01, 2, tmp("costs.ckpt")),
        )
        .expect("golden run");
        let migrated = rep.totals.get(hot_trace::Counter::MigratedBodies);
        assert!(migrated > 0, "no body ever moved between ranks");
    }

    #[test]
    fn unrecoverable_panic_propagates() {
        // A panic the monitor cannot attribute to a kill must not be
        // swallowed by the recovery loop.
        let cfg = SupervisorConfig {
            faults: Some(FaultConfig::clean(4)),
            ..SupervisorConfig::golden(2, 1, f64::NAN, 1, tmp("bug.ckpt"))
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // NaN da => NaN positions => `domain_for` asserts, naming the
            // body, before the tree build's own release-build check.
            run_supervised(demo_state(64, 5), &cfg)
        }));
        assert!(result.is_err(), "genuine bug was 'recovered'");
    }
}
