//! What the workloads that launch a simulated machine share (`dist_*`,
//! `comm_storm`): the launch itself, what every rank logs about time and
//! traffic, and the metrics read off those logs.

use crate::report::{median, Metrics};
use crate::spans::{now_ns, Recorder};
use hot_comm::{Comm, RunConfig, Runtime, TrafficStats};

/// Worker threads under every timed pass: one.
///
/// The event runtime with two workers dies of a spurious "proved deadlock"
/// too often to time (3 of 25 `dist_fine` runs while this benchmark was
/// sized, 1 of ~15 `comm_storm` runs; see README, "Known flake"), and a
/// benchmark whose runs fail cannot judge a later change. What a second
/// worker buys is measured apart, in the traced pass, as
/// `events.speedup_w2`.
pub const WORKERS: usize = 1;

/// What one rank logs about a launch.
#[derive(Default)]
pub struct RankLog {
    entered_ns: u64,
    left_ns: u64,
    /// Stamp after the warm-up step (the end of set-up).
    pub warm_ns: u64,
    /// Wall of each untraced timed step, to the far side of its barrier.
    pub walls: Vec<f64>,
    /// Wire traffic of the untraced timed steps.
    pub traffic: TrafficStats,
    /// Spans of the traced steps.
    pub rec: Option<Recorder>,
}

impl RankLog {
    /// Run one untraced timed step and log its wall and wire traffic.
    pub fn timed_step<R>(&mut self, c: &mut Comm, step: impl FnOnce(&mut Comm) -> R) -> R {
        let (started, before) = (now_ns(), c.stats());
        let r = step(c);
        self.walls.push((now_ns() - started) as f64 * 1e-9);
        self.traffic.merge(&c.stats().since(&before));
        r
    }
}

/// One run of an SPMD body on the event runtime, and when it happened.
pub struct Launch<R> {
    pub logs: Vec<RankLog>,
    pub ranks: Vec<R>,
    called_ns: u64,
    returned_ns: u64,
}

pub fn launch<R: Send>(
    np: u32,
    workers: usize,
    stack: usize,
    body: impl Fn(&mut Comm, &mut RankLog) -> R + Sync,
) -> Launch<R> {
    let called_ns = now_ns();
    let out = RunConfig::builder()
        .np(np)
        .runtime(Runtime::Events)
        .workers(workers)
        .stack_size(stack)
        .run(|c| {
            let mut log = RankLog {
                entered_ns: now_ns(),
                ..RankLog::default()
            };
            let r = body(c, &mut log);
            log.left_ns = now_ns();
            (log, r)
        });
    let returned_ns = now_ns();
    let (logs, ranks) = out.results.into_iter().unzip();
    Launch {
        logs,
        ranks,
        called_ns,
        returned_ns,
    }
}

impl<R> Launch<R> {
    /// Seconds from the `run` call to the end of rank 0's warm-up step.
    pub fn setup_s(&self) -> f64 {
        (self.logs[0].warm_ns - self.called_ns) as f64 * 1e-9
    }

    /// Rank 0's step walls: each ends at a barrier, so they are the machine's.
    pub fn walls(&self) -> &[f64] {
        &self.logs[0].walls
    }

    pub fn recorders(&self) -> Vec<&Recorder> {
        self.logs
            .iter()
            .map(|l| l.rec.as_ref().expect("a traced launch"))
            .collect()
    }

    pub fn into_recorders(self) -> Vec<Recorder> {
        self.logs.into_iter().filter_map(|l| l.rec).collect()
    }

    /// `comm.*` over the untraced steps, `events.launch_s`, `events.teardown_s`.
    pub fn machine_metrics(&self, m: &mut Metrics, steps: usize) {
        let sends: Vec<u64> = self.logs.iter().map(|l| l.traffic.sends).collect();
        let bytes: u64 = self.logs.iter().map(|l| l.traffic.bytes_sent).sum();
        let per_step = |total: u64| total as f64 / steps as f64;
        m.insert("comm.sends_per_step", per_step(sends.iter().sum()));
        m.insert("comm.bytes_per_step", per_step(bytes));
        m.insert(
            "comm.sends_per_rank_max",
            per_step(sends.iter().copied().max().unwrap_or(0)),
        );
        let first_in = self.logs.iter().map(|l| l.entered_ns).min().unwrap_or(0);
        let last_out = self.logs.iter().map(|l| l.left_ns).max().unwrap_or(0);
        m.insert(
            "events.launch_s",
            first_in.saturating_sub(self.called_ns) as f64 * 1e-9,
        );
        m.insert(
            "events.teardown_s",
            self.returned_ns.saturating_sub(last_out) as f64 * 1e-9,
        );
    }
}

/// `events.speedup_w2`: one-worker step wall over two-worker step wall
/// (above 1: the second worker helps), or 0 when the two-worker pass died of
/// the known flake or the box has one hardware thread. `two_worker_walls`
/// launches the pass and returns its step walls.
pub fn speedup_w2(
    one_worker_walls: &[f64],
    two_worker_walls: impl FnOnce() -> Vec<f64>,
) -> (f64, String) {
    if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) < 2 {
        return (0.0, "skipped: one hardware thread".into());
    }
    // The deadlock report is O(np²) text per run; keep it off stderr.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let walls = std::panic::catch_unwind(std::panic::AssertUnwindSafe(two_worker_walls));
    std::panic::set_hook(hook);
    match walls {
        Ok(w2) => (median(one_worker_walls) / median(&w2), "ran".into()),
        Err(_) => (
            0.0,
            "the two-worker pass panicked (known flake); reported as 0".into(),
        ),
    }
}
