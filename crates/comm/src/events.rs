//! The rank executor: every simulated rank is a cooperative fiber on a
//! small worker pool — thousands of them, the paper's np = 1024–6800
//! machines run for real instead of extrapolated from np = 8.
//!
//! Every blocking point in `Comm`, the collectives, the reliable transport
//! and the fault machinery routes through [`EventSched::yield_point`] /
//! [`EventSched::wait_message`], and those suspend the calling *fiber*
//! (see [`crate::fiber`]); [`EventSched::notify`] makes a blocked rank
//! ready again.
//!
//! Two operating modes, chosen by the `RunConfig` builder:
//!
//! * **Fifo** — the production mode. Ready ranks run in FIFO order; a
//!   rank that performs many channel ops without blocking is preempted
//!   every [`PREEMPT_EVERY`] ops so `try_recv` poll loops cannot starve
//!   the pool. At quiescence (every unfinished rank blocked) the
//!   deadlock is proved instead of hung on — and on a run with a
//!   crash-stopped rank, that proof is the failure detection.
//! * **Seeded** — serialized, splitmix64-driven schedule exploration on
//!   one worker: every channel op is a schedule decision, a schedule is a
//!   pure function of the seed (replayable), and deadlocks are proved at
//!   quiescence with each rank's wanted `(source, tag)`.
//!
//! ## The lost-wakeup protocol
//!
//! A fiber that wants to block records the per-rank notify `version` it
//! observed *before* its final mailbox check, stores it in its rank's
//! `yield_reason` slot and yields. The worker — after the fiber is fully
//! suspended — compares the live version against `seen` under the state
//! lock: if a notify landed in the window, the rank is requeued instead of
//! parked. `notify` itself bumps the version first and only then flips
//! Blocked → Ready. Every interleaving therefore either parks with no
//! pending notify or requeues; no wakeup is lost.
//!
//! Idle *workers* are woken the same way one level down: a worker counts
//! itself into `ExecState::parked` around each condvar wait, under the
//! state lock, and whatever makes work for a worker happens under that
//! lock too. A notifier that reads `parked == 0` therefore knows nobody
//! waits or can start to before it unlocks, and skips `notify_all` — with
//! one worker a fiber switch makes no futex call. Only the exit path
//! notifies unconditionally.

#![allow(unsafe_code)] // one `unsafe` call: the scoped-fiber constructor,
                       // made sound here by joining all workers (and hence
                       // all fibers) before `execute_scoped` returns.

use crate::fiber::{fiber_yield, Fiber};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// In Fifo mode, a rank is preempted after this many channel operations
/// without blocking, so busy-polling ranks share the worker pool fairly.
pub(crate) const PREEMPT_EVERY: u64 = 256;

/// `yield_reason` value for a voluntary / fairness yield: requeue
/// immediately. Any other value is the notify version a blocking rank
/// observed before its final failed check.
const PREEMPT: u64 = u64::MAX;

/// What a blocked rank is waiting for, plus the tag state of its mailbox —
/// the raw material of an actionable deadlock report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Want {
    /// Required source rank, `None` for any-source.
    pub src: Option<u32>,
    /// Required tag.
    pub tag: u32,
    /// `(source, tag)` of every envelope queued at this rank, oldest first.
    pub queued: Vec<(u32, u32)>,
}

impl fmt::Display for Want {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.src {
            Some(s) => write!(f, "recv(src={s}, tag={:#x})", self.tag)?,
            None => write!(f, "recv(src=any, tag={:#x})", self.tag)?,
        }
        if self.queued.is_empty() {
            write!(f, "; mailbox empty")
        } else {
            let tags: Vec<String> =
                self.queued.iter().map(|(s, t)| format!("(src={s}, tag={t:#x})")).collect();
            write!(f, "; queued unmatched: [{}]", tags.join(", "))
        }
    }
}

/// A proven deadlock: the per-rank picture at the moment no progress was
/// possible anywhere in the machine.
#[derive(Clone, Debug)]
pub(crate) struct Deadlock {
    /// For each rank: `Some(want)` when blocked, `None` when finished.
    pub blocked: Vec<(u32, Option<Want>)>,
}

impl fmt::Display for Deadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock: every rank is blocked or finished and no queued or future \
             send can match any blocked recv"
        )?;
        for (rank, want) in &self.blocked {
            match want {
                Some(w) => writeln!(f, "  rank {rank}: blocked in {w}")?,
                None => writeln!(f, "  rank {rank}: finished")?,
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RankState {
    Ready,
    Running,
    Blocked,
    Done,
}

enum Pick {
    /// Production: FIFO over the ready queue, any number of workers.
    Fifo,
    /// Checker: uniform seeded choice over the sorted ready set, one
    /// worker, trace recorded.
    Seeded { rng: u64, trace: Vec<u32> },
}

fn splitmix_next(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *rng;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct ExecState {
    ready: VecDeque<u32>,
    status: Vec<RankState>,
    /// Last `Want` of each currently-Blocked rank (deadlock reporting).
    wants: Vec<Option<Want>>,
    running: u32,
    unfinished: u32,
    /// Workers waiting on `cv` (see the module doc).
    parked: u32,
    deadlock: Option<Deadlock>,
    pick: Pick,
}

impl ExecState {
    /// Take the next rank to run, transitioning it to Running.
    fn pick_next(&mut self) -> Option<u32> {
        let rank = match &mut self.pick {
            Pick::Fifo => self.ready.pop_front()?,
            Pick::Seeded { rng, trace } => {
                if self.ready.is_empty() {
                    return None;
                }
                let mut candidates: Vec<u32> = self.ready.iter().copied().collect();
                candidates.sort_unstable();
                let rank = candidates[(splitmix_next(rng) % candidates.len() as u64) as usize];
                self.ready.retain(|&r| r != rank);
                trace.push(rank);
                rank
            }
        };
        self.status[rank as usize] = RankState::Running;
        self.running += 1;
        Some(rank)
    }

    /// Requeue every Blocked rank after the deadlock verdict, so each
    /// blocked fiber observes it.
    fn requeue_blocked(&mut self) {
        for r in 0..self.status.len() {
            if self.status[r] == RankState::Blocked {
                self.status[r] = RankState::Ready;
                self.wants[r] = None;
                self.ready.push_back(r as u32);
            }
        }
    }

    /// Record the quiescence verdict: every unfinished rank blocked, no
    /// queued or future send can match — reported per rank with its wanted
    /// `(source, tag)`.
    fn declare_deadlock(&mut self) {
        if self.deadlock.is_some() {
            return;
        }
        let blocked = self
            .status
            .iter()
            .enumerate()
            .map(|(r, s)| {
                let want = match s {
                    RankState::Blocked => self.wants[r].clone(),
                    _ => None,
                };
                (r as u32, want)
            })
            .collect();
        self.deadlock = Some(Deadlock { blocked });
    }
}

/// Scheduler + executor state for the fiber rank runtime, created by
/// `RunConfig::run`; also the home of the seeded serialized mode the
/// analyzers use.
pub(crate) struct EventSched {
    state: Mutex<ExecState>,
    cv: Condvar,
    /// Per-rank notify counters for the lost-wakeup protocol.
    version: Vec<AtomicU64>,
    /// Per-rank channel-op counters driving Fifo fairness preemption.
    ops: Vec<AtomicU64>,
    /// Per-rank side-channel from a yielding fiber to the worker that
    /// resumed it: [`PREEMPT`], or the notify version seen before blocking.
    /// Per rank, not per thread — a fiber can be resumed on a different
    /// worker than the one it last yielded on, so it must not carry a
    /// thread-local's address across a switch. Written just before
    /// `fiber_yield` and read after `resume` returns, both on the resuming
    /// worker's OS thread, so `Relaxed` suffices.
    yield_reason: Vec<AtomicU64>,
    seeded: bool,
}

impl EventSched {
    fn with(np: u32, pick: Pick) -> EventSched {
        let seeded = matches!(pick, Pick::Seeded { .. });
        EventSched {
            state: Mutex::new(ExecState {
                ready: (0..np).collect(),
                status: vec![RankState::Ready; np as usize],
                wants: vec![None; np as usize],
                running: 0,
                unfinished: np,
                parked: 0,
                deadlock: None,
                pick,
            }),
            cv: Condvar::new(),
            version: (0..np).map(|_| AtomicU64::new(0)).collect(),
            ops: (0..np).map(|_| AtomicU64::new(0)).collect(),
            yield_reason: (0..np).map(|_| AtomicU64::new(PREEMPT)).collect(),
            seeded,
        }
    }

    /// Production event scheduler for an `np`-rank machine.
    #[must_use]
    pub(crate) fn new(np: u32) -> EventSched {
        EventSched::with(np, Pick::Fifo)
    }

    /// Serialized seeded mode: one rank runs between hook points, chosen
    /// by splitmix64 from `seed`; deadlocks are proven at quiescence.
    #[must_use]
    pub(crate) fn seeded(np: u32, seed: u64) -> EventSched {
        EventSched::with(np, Pick::Seeded { rng: seed, trace: Vec::new() })
    }

    /// The schedule decided so far in seeded mode: each entry is a rank
    /// granted the worker. Empty in Fifo mode.
    #[cfg(test)]
    pub(crate) fn trace(&self) -> Vec<u32> {
        match &self.state.lock().expect("event sched lock").pick {
            Pick::Seeded { trace, .. } => trace.clone(),
            Pick::Fifo => Vec::new(),
        }
    }

    /// Run each of `bodies` as a fiber and drive all of them to completion
    /// on `workers` OS threads. Safe despite the bodies borrowing the
    /// caller's stack (`'a`): every worker is joined before this returns,
    /// and joined workers have either finished or dropped every fiber — the
    /// same structural argument as `std::thread::scope`.
    pub(crate) fn execute_scoped<'a>(
        self: &Arc<EventSched>,
        bodies: Vec<Box<dyn FnOnce() + Send + 'a>>,
        workers: usize,
        stack_size: usize,
    ) {
        assert!(!self.seeded || workers == 1, "seeded event runs are single-worker");
        let fibers: Vec<Fiber> = bodies
            .into_iter()
            // SAFETY: see the scoping argument in the doc comment above.
            .map(|b| unsafe { Fiber::new_scoped(stack_size, b) })
            .collect();
        let fibers: Vec<Mutex<Fiber>> = fibers.into_iter().map(Mutex::new).collect();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let sched = Arc::clone(self);
                let fibers = &fibers;
                std::thread::Builder::new()
                    .name(format!("hot-events-{w}"))
                    .spawn_scoped(scope, move || sched.worker_loop(fibers))
                    .expect("spawn event worker");
            }
        });
    }

    fn worker_loop(&self, fibers: &[Mutex<Fiber>]) {
        loop {
            let rank = {
                let mut st = self.state.lock().expect("event sched lock");
                loop {
                    if st.unfinished == 0 {
                        self.cv.notify_all();
                        return;
                    }
                    if let Some(r) = st.pick_next() {
                        break r;
                    }
                    if st.running > 0 {
                        // Another worker's fiber may unblock someone.
                        st.parked += 1;
                        st = self.cv.wait(st).expect("event sched lock");
                        st.parked -= 1;
                        continue;
                    }
                    // Quiescent: every unfinished rank is Blocked.
                    st.declare_deadlock();
                    st.requeue_blocked();
                    self.wake_parked(&st);
                }
            };
            // Run outside the state lock; the fiber mutex is uncontended
            // (Running status makes this worker the exclusive resumer).
            let finished =
                fibers[rank as usize].lock().expect("fiber slot").resume();
            let mut st = self.state.lock().expect("event sched lock");
            st.running -= 1;
            let r = rank as usize;
            if finished {
                st.status[r] = RankState::Done;
                st.wants[r] = None;
                st.unfinished -= 1;
            } else {
                let seen = self.yield_reason[r].load(Ordering::Relaxed);
                // Preempted, or a notify raced the suspend: don't park.
                if seen == PREEMPT || self.version[r].load(Ordering::SeqCst) != seen {
                    st.status[r] = RankState::Ready;
                    st.wants[r] = None;
                    st.ready.push_back(rank);
                } else {
                    st.status[r] = RankState::Blocked;
                }
            }
            // Wake peers: for new ready work, for the final exit, and for
            // quiescence decisions (which need running == 0 observed).
            self.wake_parked(&st);
        }
    }

    /// Wake the workers waiting on `cv`, if there are any.
    fn wake_parked(&self, st: &ExecState) {
        if st.parked > 0 {
            self.cv.notify_all();
        }
    }

    /// `rank` is at a channel operation: in seeded mode every one is a
    /// schedule decision; in Fifo mode every [`PREEMPT_EVERY`]-th yields.
    pub(crate) fn yield_point(&self, rank: u32) {
        if self.seeded {
            self.yield_reason[rank as usize].store(PREEMPT, Ordering::Relaxed);
            fiber_yield();
            return;
        }
        let n = self.ops[rank as usize].fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(PREEMPT_EVERY) {
            self.yield_reason[rank as usize].store(PREEMPT, Ordering::Relaxed);
            fiber_yield();
        }
    }

    /// `rank` found no matching message and must wait until `check` can
    /// return true. Returns `Err` when the machine is provably deadlocked.
    /// `check` observes the caller's mailbox and may first drive the
    /// caller's *own* reliable-transport progress; it never calls back
    /// into the scheduler.
    pub(crate) fn wait_message(
        &self,
        rank: u32,
        want: &Want,
        check: &mut dyn FnMut() -> bool,
    ) -> Result<(), Deadlock> {
        let r = rank as usize;
        loop {
            let seen = self.version[r].load(Ordering::SeqCst);
            if check() {
                return Ok(());
            }
            {
                let mut st = self.state.lock().expect("event sched lock");
                if let Some(d) = &st.deadlock {
                    return Err(d.clone());
                }
                if self.version[r].load(Ordering::SeqCst) != seen {
                    // Notify landed between the check and here; re-check
                    // before committing to block.
                    continue;
                }
                st.wants[r] = Some(want.clone());
            }
            self.yield_reason[r].store(seen, Ordering::Relaxed);
            fiber_yield();
            let st = self.state.lock().expect("event sched lock");
            if let Some(d) = &st.deadlock {
                return Err(d.clone());
            }
        }
    }

    /// A message was enqueued for `dst` (possibly by `dst` itself).
    pub(crate) fn notify(&self, dst: u32) {
        // Version first: a worker deciding whether to park `dst` compares
        // against this counter after the fiber suspends.
        self.version[dst as usize].fetch_add(1, Ordering::SeqCst);
        let mut st = self.state.lock().expect("event sched lock");
        if st.status[dst as usize] == RankState::Blocked {
            st.status[dst as usize] = RankState::Ready;
            st.wants[dst as usize] = None;
            st.ready.push_back(dst);
            self.wake_parked(&st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn want_display_names_tag_state() {
        let w = Want { src: Some(3), tag: 0x11, queued: vec![(0, 7)] };
        let s = w.to_string();
        assert!(s.contains("src=3"), "{s}");
        assert!(s.contains("0x11"), "{s}");
        assert!(s.contains("src=0, tag=0x7"), "{s}");
    }

    #[test]
    fn deadlock_display_lists_every_rank() {
        let d = Deadlock {
            blocked: vec![
                (0, Some(Want { src: Some(1), tag: 5, queued: vec![] })),
                (1, None),
            ],
        };
        let s = d.to_string();
        assert!(s.contains("rank 0: blocked"), "{s}");
        assert!(s.contains("rank 1: finished"), "{s}");
    }
}
