//! `comm_storm`: no physics. 1024 fibers run rounds of `barrier` +
//! `allreduce_sum_u64` + `allgather` + a 1 KiB `sendrecv` ring + an
//! `alltoall` of one word per peer, every result verified. It uses the comm
//! layer the other way round from `dist_fine` — collectives and a dense
//! all-to-all instead of ABM request/reply — at the paper's machine size,
//! isolating per-message and per-switch cost from tree logic.

use crate::common::{harness_metrics, Outcome, Plan};
use crate::gen::hash_words;
use crate::machine::{launch, speedup_w2, Launch, RankLog, WORKERS};
use crate::report::mean;
use crate::spans::{chrome_trace, now_ns, Recorder};
use crate::{micro, progress};
use hot_comm::Comm;

pub const NP: u32 = 1024;
const STACK: usize = 256 << 10;
const RING_TAG: u32 = 21;
/// Seconds per round sized on the reference 2-core box.
const SIZED_STEP_S: f64 = 1.3;
const MAX_STEPS: usize = 12;

/// The word rank `rank` contributes in `round`.
fn word(plan: &Plan, rank: u32, round: u64) -> u64 {
    hash_words(&[plan.seed, plan.stream(), u64::from(rank), round])
}

/// One round; returns whether every collective delivered the right data.
fn round(c: &mut Comm, plan: &Plan, round: u64, rec: &mut Recorder) -> bool {
    let (me, np) = (c.rank(), c.size());
    let mine = word(plan, me, round);
    rec.begin("step");

    rec.begin("coll.allreduce");
    let sum = c.allreduce_sum_u64(mine >> 12);
    rec.end();
    let mut ok = sum == (0..np).map(|r| word(plan, r, round) >> 12).sum::<u64>();

    rec.begin("coll.allgather");
    let all = c.allgather(mine);
    rec.end();
    ok &= all.len() == np as usize
        && all
            .iter()
            .zip(0..np)
            .all(|(&w, r)| w == word(plan, r, round));

    let (right, left) = ((me + 1) % np, (me + np - 1) % np);
    let block = vec![mine; 128];
    rec.begin("p2p.ring");
    let got: Vec<u64> = c.sendrecv(right, left, RING_TAG, &block);
    rec.end();
    ok &= got.len() == 128 && got.iter().all(|&w| w == word(plan, left, round));

    let sends: Vec<Vec<u64>> = (0..np).map(|d| vec![mine ^ u64::from(d)]).collect();
    rec.begin("coll.alltoall");
    let got = c.alltoall(sends);
    rec.end();
    ok &= got.len() == np as usize
        && got
            .iter()
            .zip(0..np)
            .all(|(b, s)| b.len() == 1 && b[0] == word(plan, s, round) ^ u64::from(me));

    rec.begin("coll.barrier");
    c.barrier();
    rec.end();
    rec.end();
    ok
}

#[derive(Default)]
struct RankOut {
    warm_ok: bool,
    ok: Vec<bool>,
    traced_ok: Vec<bool>,
}

fn rank_main(c: &mut Comm, log: &mut RankLog, plan: &Plan, rounds: usize, traced: bool) -> RankOut {
    let mut out = RankOut::default();
    c.barrier();
    let mut off = Recorder::off();
    out.warm_ok = round(c, plan, 0, &mut off);
    log.warm_ns = now_ns();
    // The timed rounds. A traced run follows each with the same round under
    // spans: taken in turns, both see the same state of a machine whose
    // speed drifts.
    log.rec = traced.then(|| Recorder::new(c.rank()));
    for r in 1..=rounds as u64 {
        out.ok
            .push(log.timed_step(c, |c| round(c, plan, r, &mut off)));
        if c.rank() == 0 {
            progress(r);
        }
        if let Some(rec) = log.rec.as_mut() {
            rec.set_step(r as u32);
            out.traced_ok.push(round(c, plan, r, rec));
        }
    }
    out
}

fn launch_storm(plan: &Plan, rounds: usize, traced: bool, workers: usize) -> Launch<RankOut> {
    launch(NP, workers, STACK, |c, log| {
        rank_main(c, log, plan, rounds, traced)
    })
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new();
    let rounds = plan.steps(SIZED_STEP_S, MAX_STEPS);

    // Set-up: launching 1024 fibers and one warm-up round.
    let run = launch_storm(plan, rounds, plan.trace, WORKERS);
    let ranks = &run.ranks;

    out.gate(
        "warm_up_round_verified",
        ranks.iter().all(|r| r.warm_ok),
        format!("{NP} ranks"),
    );
    out.attempted = rounds as u64;
    out.failed = (0..rounds)
        .filter(|&r| !ranks.iter().all(|k| k.ok[r]))
        .count() as u64;

    let walls = run.walls().to_vec();
    let sends: u64 = run.logs.iter().map(|l| l.traffic.sends).sum();
    let msgs_per_round = sends as f64 / rounds as f64;
    out.info.push((
        "size",
        format!("np = {NP} fibers, {rounds} rounds, {WORKERS} worker thread(s), {msgs_per_round:.0} messages/round"),
    ));
    if !plan.trace {
        // The extra set-ups run the warm-up round only and tear down again.
        out.end_to_end(run.setup_s(), &walls, msgs_per_round, || {
            launch_storm(plan, 0, false, WORKERS).setup_s()
        });
        return out;
    }

    out.gate(
        "traced_rounds_verified",
        ranks.iter().all(|r| r.traced_ok.iter().all(|&ok| ok)),
        "every collective result, every rank, every round".into(),
    );
    let recs = run.recorders();
    let m = &mut out.metrics;

    // Mean per rank per call of each collective's span.
    let per_call = |name: &str| {
        mean(
            &recs
                .iter()
                .flat_map(|r| r.secs_of(name))
                .collect::<Vec<_>>(),
        )
    };
    m.insert("coll.barrier_us", per_call("coll.barrier") * 1e6);
    m.insert("coll.allreduce_us", per_call("coll.allreduce") * 1e6);
    m.insert("coll.allgather_us", per_call("coll.allgather") * 1e6);
    m.insert("coll.alltoall_ms", per_call("coll.alltoall") * 1e3);
    m.insert("p2p.ring_us", per_call("p2p.ring") * 1e6);
    run.machine_metrics(m, rounds);
    harness_metrics(m, recs[0], &walls);
    micro::abm_post(m, WORKERS);
    micro::pingpong(m);

    let (speedup, note) = speedup_w2(&walls[..2], || {
        launch_storm(plan, 2, false, 2).walls().to_vec()
    });
    out.metrics.insert("events.speedup_w2", speedup);
    out.info.push(("two_worker_pass", note));

    out.chrome_trace = Some(chrome_trace(plan.workload, &run.into_recorders()));
    out
}
