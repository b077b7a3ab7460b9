//! The simulated parallel machine: every rank is a fiber on the event
//! executor (`events.rs`), message passing with MPI-style
//! `(source, tag)` matching.
//!
//! The paper's machines (ASCI Red, Loki, Hyglac) are distributed-memory
//! message-passing systems programmed against NX/MPI. This module provides
//! the equivalent substrate so the HOT algorithms run with their real
//! communication structure: ranks share nothing, every byte crosses an
//! explicit [`crate::chan::Mailbox`], and the per-rank [`TrafficStats`]
//! feed the 1997 machine models in `hot-machine` that convert message
//! counts into predicted wall-clock on the paper's networks.
//!
//! Every channel operation passes through the executor's hooks. Production
//! runs use its FIFO mode on a worker pool; the `hot-analyze` checkers
//! select its seeded mode ([`RunConfigBuilder::event_seed`]) to serialize
//! ranks, perturb the interleaving reproducibly, prove deadlocks instead of
//! hanging on them, and audit teardown for undrained messages.

use crate::chan::{Mailbox, Scan};
use crate::events::{EventSched, Want};
use crate::fault::{FaultPlan, InjectedFaults, KillSite};
use crate::reliable::{ReliabilityStats, Transport, FRAME_TAG};
use crate::wire::{from_bytes, to_bytes, Wire};
use bytes::Bytes;
use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, Mutex};
// Wall-clock here times the host machine's run for Gflop/s reporting; the
// simulation itself never reads it (enforced by `hot-analyze lint`).
use std::time::{Duration, Instant};

/// Highest tag available to applications; larger tags are reserved for
/// collectives and runtime control traffic.
pub const MAX_USER_TAG: u32 = 0x7fff_ffff;

/// Tag carried by teardown poison messages emitted when a rank panics.
/// Public so checkers can distinguish expected post-panic poison from a
/// genuinely dropped message when auditing mailboxes at teardown.
pub const POISON_TAG: u32 = u32::MAX;

/// One message in flight.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: u32,
    /// Message tag.
    pub tag: u32,
    /// Encoded payload.
    pub data: Bytes,
}

/// Per-rank communication counters. The machine models consume these; the
/// paper's own performance discussion is in exactly these terms (message
/// counts, bytes, bandwidth-limited phases).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Point-to-point messages sent.
    pub sends: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub recvs: u64,
    /// Payload bytes received.
    pub bytes_recvd: u64,
}

impl TrafficStats {
    /// Element-wise accumulate.
    pub fn merge(&mut self, o: &TrafficStats) {
        self.sends += o.sends;
        self.bytes_sent += o.bytes_sent;
        self.recvs += o.recvs;
        self.bytes_recvd += o.bytes_recvd;
    }

    /// Difference since an earlier snapshot (for per-phase accounting).
    #[must_use]
    pub fn since(&self, earlier: &TrafficStats) -> TrafficStats {
        TrafficStats {
            sends: self.sends - earlier.sends,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            recvs: self.recvs - earlier.recvs,
            bytes_recvd: self.bytes_recvd - earlier.bytes_recvd,
        }
    }
}

struct Machine {
    np: u32,
    mailboxes: Vec<Mailbox>,
    sched: Arc<EventSched>,
    /// Reliable transport over a faulty wire; present iff the run installed
    /// a [`FaultPlan`].
    transport: Option<Transport>,
    /// Each rank's share of the hardware threads (see
    /// [`Comm::compute_threads`]).
    compute_threads: usize,
}

/// Panic payload of a rank whose [`FaultPlan`] kill fired: the crash-stop
/// unwind. [`RunConfig::run`] recognizes it and lets the rank vanish
/// silently (no poison, no result) instead of treating it as a bug.
#[derive(Debug)]
pub struct RankKilled {
    /// The rank that died.
    pub rank: u32,
}

/// A rank's handle onto the simulated machine.
///
/// Not `Clone` and not `Sync`: exactly one fiber drives each rank, as one
/// process did on the real machines.
pub struct Comm {
    rank: u32,
    machine: Arc<Machine>,
    stats: TrafficStats,
    /// Channel operations performed — the rank's model clock. Indexes the
    /// fault plan's stall and kill draws.
    ops: u64,
    /// Set when this rank's crash-stop kill fires, switching teardown from
    /// the poison protocol to silent death.
    killed: bool,
}

impl Comm {
    /// This rank's id, `0..size()`.
    #[inline]
    #[must_use]
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in the machine.
    #[inline]
    #[must_use]
    pub fn size(&self) -> u32 {
        self.machine.np
    }

    /// This rank's share of the hardware threads, for compute fanned out
    /// *inside* one call (threads that perform no channel operation and
    /// are joined before the rank's next one): the process's available
    /// threads divided by the ranks that can run at once — the executor's
    /// worker count (one when seeded) — and at least 1. A fact about the
    /// run, not an option: with a worker per processor (the default) it is
    /// 1 and nothing fans out.
    #[inline]
    #[must_use]
    pub fn compute_threads(&self) -> usize {
        self.machine.compute_threads
    }

    /// Communication counters so far. These are *logical* counters — under
    /// a fault plan, retransmissions, duplicates, acks and frame overhead
    /// are excluded, so the numbers are bitwise-identical to a fault-free
    /// run (see [`RunOutput::reliability`] for the recovery traffic).
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Drive reliable-transport progress for this rank: verify and
    /// resequence framed intake, deliver in-order messages, and recover
    /// losses. No-op when the run has no fault plan.
    fn pump_transport(&mut self) {
        if let Some(t) = &self.machine.transport {
            t.pump(self.rank, &self.machine.mailboxes[self.rank as usize]);
        }
    }

    /// What every channel operation starts with: the schedule point, then
    /// the fault plan's hook — advance the model clock, fire a pending
    /// crash-stop kill, and possibly stall this rank by spending extra
    /// schedule yields (a transient node hiccup — the rank loses its turn a
    /// few times but performs no I/O).
    fn channel_op(&mut self) {
        self.machine.sched.yield_point(self.rank);
        if let Some(t) = &self.machine.transport {
            let idx = self.ops;
            self.ops += 1;
            if t.kill_armed() && t.plan.kill_time(self.rank).is_some_and(|at| idx >= at) {
                self.die(KillSite::Op(idx));
            }
            if t.plan.decide_stall(self.rank, idx) {
                t.note_stall(self.rank);
                for _ in 0..2 {
                    self.machine.sched.yield_point(self.rank);
                }
            }
        }
    }

    /// Application-declared kill point: if the run's fault plan scheduled
    /// this rank's death at `epoch`, the rank dies here — before
    /// performing any effect of the epoch. Supervised simulations call
    /// this with step-indexed epochs so a kill lands at an exact position
    /// relative to checkpoint boundaries; a no-op on every other run.
    pub fn kill_point(&mut self, epoch: u64) {
        if let Some(t) = &self.machine.transport {
            if t.kill_armed() && t.plan.kill_epoch(self.rank) == Some(epoch) {
                self.die(KillSite::Epoch(epoch));
            }
        }
    }

    /// Crash-stop: mark this rank dead in the transport (its sends and
    /// retransmissions vanish), record the kill, and unwind with the
    /// [`RankKilled`] payload. Holds no locks.
    fn die(&mut self, site: KillSite) -> ! {
        let t = self.machine.transport.as_ref().expect("kill fired without transport");
        t.mark_dead(self.rank);
        t.plan.monitor().record_kill(self.rank, site);
        self.killed = true;
        std::panic::panic_any(RankKilled { rank: self.rank });
    }

    /// Send encoded bytes to `dst` with `tag`. Asynchronous: never blocks
    /// (infinite buffering, like an eager-protocol MPI send of modest size).
    pub fn send_bytes(&mut self, dst: u32, tag: u32, data: Bytes) {
        assert!(dst < self.machine.np, "send to rank {dst} of {}", self.machine.np);
        self.channel_op();
        self.stats.sends += 1;
        self.stats.bytes_sent += data.len() as u64;
        match &self.machine.transport {
            // Poison is a teardown signal, not a message: it bypasses
            // framing and faults so a dying machine always unblocks.
            Some(t) if tag != POISON_TAG => {
                t.on_send(self.rank, dst, tag, &data, &self.machine.mailboxes[dst as usize]);
            }
            _ => {
                self.machine.mailboxes[dst as usize].push(Envelope { src: self.rank, tag, data });
            }
        }
        self.machine.sched.notify(dst);
    }

    /// Send a typed value.
    pub fn send<T: Wire>(&mut self, dst: u32, tag: u32, v: &T) {
        debug_assert!(tag <= MAX_USER_TAG || is_internal_tag(tag));
        let data = to_bytes(v);
        // Byte accounting charges actual encoded length; `wire_size` is the
        // contract every cost model reasons with. They must never diverge.
        debug_assert_eq!(
            data.len(),
            v.wire_size(),
            "Wire impl out of sync: encoded {} bytes, wire_size() says {}",
            data.len(),
            v.wire_size()
        );
        self.send_bytes(dst, tag, data);
    }

    /// Blocking receive matching `src` (or any source when `None`) and
    /// `tag`. Returns the actual source and payload.
    ///
    /// # Panics
    ///
    /// Panics when a peer rank dies (poison teardown) or when the executor
    /// proves the machine deadlocked (every rank blocked with no matching
    /// message queued or still to come).
    pub fn recv_bytes(&mut self, src: Option<u32>, tag: u32) -> (u32, Bytes) {
        self.channel_op();
        let ready = |m: &Mailbox| m.has_match_or_poison(src, tag);
        let e = self.wait_take(src, tag, &mut |m| m.take_match(src, tag), &ready);
        self.stats.recvs += 1;
        self.stats.bytes_recvd += e.data.len() as u64;
        (e.src, e.data)
    }

    /// One `tag` message from every peer, handed to `sink` with its source:
    /// the np − 1 by-source receives of `alltoall` and `gather`, in arrival
    /// order ([`Mailbox::take_each`]) — a peer already in its next call
    /// cannot satisfy this one twice. Blocks as a receive from the first
    /// peer still missing; every delivered message is one channel operation.
    pub(crate) fn recv_each(&mut self, tag: u32, sink: &mut dyn FnMut(u32, Bytes)) {
        let missing: Vec<_> = (0..self.size()).map(|r| Cell::new(r != self.rank)).collect();
        let (mut left, mut first, mut bytes) = (u64::from(self.size()) - 1, 0, 0);
        while left > 0 {
            // Marks only ever clear, so the cursor only ever advances.
            while !missing[first as usize].get() {
                first += 1;
            }
            self.channel_op();
            let mut take = |m: &Mailbox| {
                m.take_each(tag, &missing, &mut |src, data| {
                    bytes += data.len() as u64;
                    sink(src, data);
                })
            };
            let ready = |m: &Mailbox| m.has_each_or_poison(tag, &missing);
            let got = self.wait_take(Some(first), tag, &mut take, &ready);
            for _ in 1..got {
                self.channel_op();
            }
            self.stats.recvs += got;
            left -= got;
        }
        self.stats.bytes_recvd += bytes;
    }

    /// The one blocking receive loop: `take` from this rank's mailbox until
    /// it matches, asleep in the scheduler until `ready` in between. `src`
    /// and `tag` name the wait in the deadlock report.
    fn wait_take<M>(
        &self,
        src: Option<u32>,
        tag: u32,
        take: &mut dyn FnMut(&Mailbox) -> Scan<M>,
        ready: &dyn Fn(&Mailbox) -> bool,
    ) -> M {
        let rank = self.rank;
        let transport = self.machine.transport.as_ref();
        let mbox = &self.machine.mailboxes[self.rank as usize];
        loop {
            if let Some(t) = transport {
                t.pump(rank, mbox);
            }
            match take(mbox) {
                Scan::Matched(m) => return m,
                Scan::Poisoned { src } => {
                    panic!("rank {}: peer rank {src} died (poison received)", self.rank);
                }
                Scan::Empty => {}
            }
            let want = Want { src, tag, queued: mbox.queued_tags() };
            if let Err(deadlock) =
                self.machine.sched.wait_message(self.rank, &want, &mut || {
                    // While blocked, every wake drives transport progress:
                    // a dropped frame's notify lands here and recovery
                    // retransmits it, so loss never wedges a receiver.
                    if let Some(t) = transport {
                        t.pump(rank, mbox);
                    }
                    ready(mbox)
                })
            {
                // The executor proved global quiescence. With a crashed
                // rank that is the failure detector — the runtime analogue
                // of the process manager reaping a dead process — so
                // classify it as a crash-stop detection rather than a
                // program deadlock. Every rank blocked at the verdict
                // passes here exactly once, so each (survivor, dead) pair
                // is recorded once.
                if let Some(t) = transport {
                    let dead = t.dead_ranks();
                    if !dead.is_empty() {
                        for &d in &dead {
                            t.plan.monitor().record_detection(rank, d);
                        }
                        panic!(
                            "crash-stop: rank {rank}: machine quiesced with rank(s) \
                             {dead:?} dead ({deadlock}); aborting step for rollback \
                             recovery"
                        );
                    }
                }
                panic!("rank {}: {deadlock}", self.rank);
            }
        }
    }

    /// Blocking typed receive from a specific source.
    pub fn recv<T: Wire>(&mut self, src: u32, tag: u32) -> T {
        let (_, data) = self.recv_bytes(Some(src), tag);
        from_bytes(data)
    }

    /// Non-blocking probe: pull one matching message if immediately
    /// available, else `None`.
    ///
    /// # Panics
    ///
    /// Panics when a peer rank died and no matching message remains.
    pub fn try_recv_bytes(&mut self, src: Option<u32>, tag: u32) -> Option<(u32, Bytes)> {
        self.channel_op();
        self.pump_transport();
        match self.machine.mailboxes[self.rank as usize].take_match(src, tag) {
            Scan::Matched(e) => {
                self.stats.recvs += 1;
                self.stats.bytes_recvd += e.data.len() as u64;
                Some((e.src, e.data))
            }
            Scan::Poisoned { src } => {
                panic!("rank {}: peer rank {src} died (poison received)", self.rank)
            }
            Scan::Empty => None,
        }
    }

    /// Exchange with a partner: send then receive (safe under the runtime's
    /// unbounded buffering; mirrors `MPI_Sendrecv`).
    pub fn sendrecv<T: Wire>(&mut self, dst: u32, src: u32, tag: u32, v: &T) -> T {
        self.send(dst, tag, v);
        self.recv(src, tag)
    }
}

#[inline]
fn is_internal_tag(tag: u32) -> bool {
    tag > MAX_USER_TAG
}

impl Drop for Comm {
    fn drop(&mut self) {
        // Teardown discipline, exercised by `hot-analyze schedules`:
        //
        // If this rank is dying of a panic, first drain its own mailbox —
        // in-flight envelopes addressed to a dead rank must be consumed, not
        // leak as "undrained" teardown noise — then wake every peer with a
        // poison message so a rank blocked in `recv` tears down instead of
        // deadlocking. The poison bypasses `yield_point`: a panicking rank
        // must never park itself waiting for a schedule grant.
        //
        // A crash-stop kill is different: the rank must vanish *silently* —
        // no poison and no wake-ups, because a real dead node sends nothing.
        // It only drains its own mailbox (the simulator reclaiming the dead
        // node's memory). Survivors learn of the death when the executor
        // proves the machine quiescent.
        if self.killed {
            self.machine.mailboxes[self.rank as usize].drain_all();
        } else if std::thread::panicking() {
            self.machine.mailboxes[self.rank as usize].drain_all();
            for dst in 0..self.machine.np {
                if dst != self.rank {
                    self.machine.mailboxes[dst as usize].push(Envelope {
                        src: self.rank,
                        tag: POISON_TAG,
                        data: Bytes::new(),
                    });
                    self.machine.sched.notify(dst);
                }
            }
        }
    }
}

/// A message still queued at a rank's mailbox after its SPMD body returned
/// — evidence of a communication-matching bug (or expected poison). On a
/// fault-plan run this also covers *silent loss*: frames a sender still
/// holds unacked because they were dropped on the wire and no receive ever
/// recovered them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Undrained {
    /// Rank whose mailbox held (or should have held) the message.
    pub at: u32,
    /// Sending rank.
    pub src: u32,
    /// Message tag.
    pub tag: u32,
    /// Human-readable class of `tag` — `"user"`, `"coll:barrier"`,
    /// `"abm"`, … — so fault-run failures are diagnosable without a tag
    /// table at hand.
    pub tag_name: &'static str,
    /// Transport flow sequence number; `None` on runs without a fault plan.
    pub seq: Option<u64>,
}

impl Undrained {
    /// Build a report entry, classifying the tag.
    #[must_use]
    pub fn new(at: u32, src: u32, tag: u32, seq: Option<u64>) -> Undrained {
        Undrained { at, src, tag, tag_name: tag_class_name(tag), seq }
    }
}

impl fmt::Display for Undrained {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {}: undrained {} message from rank {} (tag {:#x}",
            self.at, self.tag_name, self.src, self.tag
        )?;
        if let Some(seq) = self.seq {
            write!(f, ", flow seq {seq}")?;
        }
        write!(f, ")")
    }
}

/// Classify a tag for diagnostics: which subsystem's traffic was it?
#[must_use]
pub fn tag_class_name(tag: u32) -> &'static str {
    use crate::collectives::{
        TAG_ALLGATHER_BRUCK, TAG_ALLGATHER_RING, TAG_ALLTOALL, TAG_BARRIER, TAG_BCAST,
        TAG_GATHER, TAG_REDUCE,
    };
    match tag {
        POISON_TAG => "poison",
        FRAME_TAG => "frame",
        crate::abm::ABM_TAG => "abm",
        TAG_BARRIER => "coll:barrier",
        TAG_BCAST => "coll:bcast",
        TAG_REDUCE => "coll:reduce",
        TAG_GATHER => "coll:gather",
        TAG_ALLGATHER_RING => "coll:allgather",
        TAG_ALLGATHER_BRUCK => "coll:allgather",
        TAG_ALLTOALL => "coll:alltoall",
        t if t <= MAX_USER_TAG => "user",
        _ => "internal",
    }
}

/// Result of running an SPMD program on the simulated machine.
#[derive(Debug)]
pub struct RunOutput<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank communication counters, indexed by rank.
    pub stats: Vec<TrafficStats>,
    /// Wall-clock time for the whole run (spawn to last join).
    pub elapsed: Duration,
    /// Messages never received by the time their destination rank returned,
    /// poison excluded. Always worth asserting empty in tests: a non-empty
    /// list means a send had no matching recv. On fault-plan runs this is
    /// normalized per logical message (sorted, transport duplicates
    /// excluded, lost-but-unrecovered frames included), so it compares
    /// bitwise across schedules.
    pub undrained: Vec<Undrained>,
    /// Per-rank reliability counters, indexed by rank; all zero without a
    /// fault plan. Deliberately *not* part of the deterministic trace
    /// contract — recovery work depends on fault seed and schedule.
    pub reliability: Vec<ReliabilityStats>,
    /// Faults the plan actually injected over the run; all zero without a
    /// fault plan. Checkers assert this is non-zero to reject vacuous
    /// "survived faults" passes.
    pub injected: InjectedFaults,
}

impl<T> RunOutput<T> {
    /// Aggregate traffic over all ranks.
    #[must_use]
    pub fn total_traffic(&self) -> TrafficStats {
        let mut t = TrafficStats::default();
        for s in &self.stats {
            t.merge(s);
        }
        t
    }
}

/// The execution substrate that carries the simulated ranks. There is one:
/// cooperative fibers on a small worker pool. The type survives only so
/// existing `.runtime(Runtime::Events)` calls keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Runtime {
    /// Cooperative fibers multiplexed on a small worker pool: the
    /// substrate that runs the paper's 1024–6800 processor configurations
    /// for real.
    #[default]
    Events,
}

/// Per-run machine configuration: size, fault injection, worker pool,
/// stack size and schedule seed. Build one with [`RunConfig::builder`]:
///
/// ```
/// use hot_comm::RunConfig;
/// let out = RunConfig::builder()
///     .np(4)
///     .run(|c| c.allreduce_sum_u64(u64::from(c.rank())));
/// assert!(out.results.iter().all(|&t| t == 6));
/// ```
pub struct RunConfig {
    np: u32,
    faults: Option<FaultPlan>,
    workers: Option<usize>,
    stack_size: Option<usize>,
    event_seed: Option<u64>,
}

impl RunConfig {
    /// Start building a run configuration. `np` defaults to 1.
    #[must_use]
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder {
            cfg: RunConfig {
                np: 1,
                faults: None,
                workers: None,
                stack_size: None,
                event_seed: None,
            },
        }
    }

    /// Execute the SPMD closure `f` on this configuration's machine and
    /// gather results. A panic on any rank poisons the others and
    /// propagates out (lowest-rank panic wins when several fire).
    pub fn run<T, F>(self, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let np = self.np;
        assert!(np >= 1, "need at least one rank");
        let sched = Arc::new(match self.event_seed {
            Some(seed) => EventSched::seeded(np, seed),
            None => EventSched::new(np),
        });
        let workers = match self.event_seed {
            Some(_) => 1,
            None => self.workers.unwrap_or_else(|| hot_base::available_threads().min(8)),
        };
        let machine = Machine::build(np, sched, self.faults, workers);
        execute(&machine, workers, self.stack_size.unwrap_or(4 << 20), &f)
    }
}

/// Builder for [`RunConfig`] — the single entry point onto the simulated
/// machine.
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    /// Number of ranks in the machine.
    #[must_use]
    pub fn np(mut self, np: u32) -> Self {
        self.cfg.np = np;
        self
    }

    /// Install a fault plan: every non-poison message travels CRC-framed
    /// through the plan's seeded adversary and the reliable transport
    /// ([`crate::reliable`]) recovers drops, duplicates, reordering,
    /// delays, and bit-flips transparently.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Optional form of [`Self::faults`].
    #[must_use]
    pub fn faults_opt(mut self, plan: Option<FaultPlan>) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Accepts the one [`Runtime`] there is and changes nothing.
    #[must_use]
    pub fn runtime(self, _rt: Runtime) -> Self {
        self
    }

    /// Worker-thread count of the executor (default: available
    /// parallelism, capped at 8). Ignored by seeded runs, which use one.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = Some(n.max(1));
        self
    }

    /// Per-rank fiber stack size in bytes (default 4 MiB; pages are lazily
    /// mapped, so untouched stack is free).
    #[must_use]
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.cfg.stack_size = Some(bytes);
        self
    }

    /// Seeded serialized schedule exploration: one worker, one rank
    /// running between channel operations, the next one drawn from `seed`
    /// — replayable, and deadlocks are proved at quiescence.
    #[must_use]
    pub fn event_seed(mut self, seed: u64) -> Self {
        self.cfg.event_seed = Some(seed);
        self
    }

    /// Finish building.
    #[must_use]
    pub fn build(self) -> RunConfig {
        self.cfg
    }

    /// Build and run in one step — the common call shape:
    /// `RunConfig::builder().np(4).run(|c| ...)`.
    pub fn run<T, F>(self, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        self.cfg.run(f)
    }
}

impl Machine {
    /// `concurrent` is how many ranks can run at once.
    fn build(
        np: u32,
        sched: Arc<EventSched>,
        faults: Option<FaultPlan>,
        concurrent: usize,
    ) -> Arc<Machine> {
        Arc::new(Machine {
            np,
            mailboxes: (0..np).map(|_| Mailbox::default()).collect(),
            sched,
            transport: faults.map(|plan| Transport::new(np, plan)),
            compute_threads: rank_share(hot_base::available_threads(), concurrent),
        })
    }
}

/// A rank's share of `available` hardware threads when `concurrent` ranks
/// can run at once: at least one.
fn rank_share(available: usize, concurrent: usize) -> usize {
    (available / concurrent.max(1)).max(1)
}

/// How one rank's body ended.
enum RankExit<T> {
    /// Returned normally.
    Done(T, TrafficStats),
    /// Crash-stop kill fired: the rank vanished silently (no result).
    Killed,
    /// Any other panic; re-raised by [`finish`] after all ranks settle.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// The body every rank executes: run `f`, classify the exit, and guarantee
/// the teardown discipline (`Comm::drop` runs under `panicking()` for real
/// panics, under `killed` for crash-stops) regardless of how the rank ends.
fn rank_main<T, F>(rank: u32, machine: &Arc<Machine>, f: &F) -> RankExit<T>
where
    F: Fn(&mut Comm) -> T + Sync,
{
    let mut comm = Comm {
        rank,
        machine: machine.clone(),
        stats: TrafficStats::default(),
        ops: 0,
        killed: false,
    };
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
    match out {
        Ok(v) => {
            let stats = comm.stats();
            drop(comm);
            RankExit::Done(v, stats)
        }
        Err(p) if p.downcast_ref::<RankKilled>().is_some() => {
            // Crash-stop: silent teardown (Drop sees `killed`), no result,
            // no propagation — detection is the survivors' job.
            drop(comm);
            RankExit::Killed
        }
        Err(p) => {
            // Re-raise *while `comm` is still in scope* so the poison-
            // teardown Drop observes `thread::panicking()`, then catch the
            // unwind again at this frame: it must not cross the fiber
            // boundary, and deferring the propagation to `finish` keeps
            // "lowest panicking rank wins" deterministic.
            let p2 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _comm = comm;
                std::panic::resume_unwind(p)
            }))
            .expect_err("resume_unwind cannot return");
            RankExit::Panicked(p2)
        }
    }
}

/// Run every rank as a fiber, `workers` OS threads driving them through
/// the machine's [`EventSched`], then [`finish`].
fn execute<T, F>(machine: &Arc<Machine>, workers: usize, stack_size: usize, f: &F) -> RunOutput<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let np = machine.np;
    let exits: Vec<Mutex<Option<RankExit<T>>>> = (0..np).map(|_| Mutex::new(None)).collect();
    // hot-lint: allow(wall-clock) — host-side elapsed only.
    let t0 = Instant::now();
    let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..np)
        .map(|rank| {
            let machine = machine.clone();
            let slot = &exits[rank as usize];
            Box::new(move || {
                let exit = rank_main(rank, &machine, f);
                *slot.lock().expect("exit slot") = Some(exit);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    machine.sched.execute_scoped(bodies, workers, stack_size);
    finish(np, machine, exits, t0.elapsed())
}

/// Epilogue: propagate panics (lowest rank first), audit undetected
/// kills, sweep mailboxes for undrained traffic, and collect results.
fn finish<T>(
    np: u32,
    machine: &Arc<Machine>,
    exits: Vec<Mutex<Option<RankExit<T>>>>,
    elapsed: Duration,
) -> RunOutput<T> {
    let mut collected = Vec::with_capacity(np as usize);
    for (rank, slot) in exits.into_iter().enumerate() {
        let exit = slot
            .into_inner()
            .expect("exit slot")
            .unwrap_or_else(|| panic!("rank {rank} never ran to an exit"));
        if let RankExit::Panicked(p) = exit {
            std::panic::resume_unwind(p);
        }
        collected.push(exit);
    }

    // Undetected-kill invariant: if a crash-stop kill fired, some
    // surviving rank must have aborted the step (its crash-stop panic
    // propagated above and we never reach this line). Reaching here with
    // dead ranks means every survivor ran to completion oblivious — a
    // broken failure detector. The `hot-analyze kills` planted fixture
    // relies on this firing.
    if let Some(t) = &machine.transport {
        let dead = t.dead_ranks();
        if !dead.is_empty() {
            panic!(
                "crash-stop: rank(s) {dead:?} were killed mid-run but every \
                 surviving rank completed without detecting the death — \
                 undetected kill"
            );
        }
    }

    // Teardown audit. Without a transport this is a straight mailbox
    // sweep; with one, leftover raw frames are unframed and cross-
    // checked against the flow tables so lost-on-the-wire messages are
    // reported too instead of vanishing silently.
    let mut leftover = Vec::new();
    for (at, mbox) in machine.mailboxes.iter().enumerate() {
        for env in mbox.drain_all() {
            leftover.push((at as u32, env));
        }
    }
    let undrained = match &machine.transport {
        Some(t) => t.teardown_undrained(&leftover),
        None => leftover
            .iter()
            .filter(|(_, env)| env.tag != POISON_TAG)
            .map(|(at, env)| Undrained::new(*at, env.src, env.tag, None))
            .collect(),
    };
    let reliability = match &machine.transport {
        Some(t) => (0..np).map(|r| t.stats(r)).collect(),
        None => vec![ReliabilityStats::default(); np as usize],
    };
    let injected = machine.transport.as_ref().map(|t| t.plan.injected()).unwrap_or_default();

    let mut out_results = Vec::with_capacity(np as usize);
    let mut out_stats = Vec::with_capacity(np as usize);
    for exit in collected {
        match exit {
            RankExit::Done(r, s) => {
                out_results.push(r);
                out_stats.push(s);
            }
            RankExit::Killed => unreachable!(
                "a killed rank implies a crash-stop abort or the undetected-\
                 kill audit; neither returns"
            ),
            RankExit::Panicked(_) => unreachable!("panics propagated above"),
        }
    }
    RunOutput {
        results: out_results,
        stats: out_stats,
        elapsed,
        undrained,
        reliability,
        injected,
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::RunConfig;
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan, KillRecord};

    /// Ring workload with enough rounds of traffic that a mid-run kill
    /// leaves plenty of surviving communication to detect it through.
    fn chatty_ring(c: &mut Comm) -> u64 {
        let right = (c.rank() + 1) % c.size();
        let left = (c.rank() + c.size() - 1) % c.size();
        let mut acc = 0u64;
        for i in 0..64u64 {
            acc = acc.wrapping_add(c.sendrecv::<u64>(right, left, 7, &i));
        }
        acc
    }

    fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    }

    /// A rank's compute share is the available threads over the ranks that
    /// can run at once: the executor's workers, one when seeded.
    #[test]
    fn compute_threads_are_the_ranks_share() {
        let avail = hot_base::available_threads();
        assert_eq!((rank_share(2, 1), rank_share(2, 2), rank_share(2, 16)), (2, 1, 1));
        assert_eq!((rank_share(8, 3), rank_share(1, 0)), (2, 1));
        let shares = |b: RunConfigBuilder| b.run(|c| c.compute_threads()).results;
        let np4 = || RunConfig::builder().np(4);
        assert_eq!(shares(np4().workers(1)), vec![avail; 4], "one worker: every thread");
        for w in [2, 3, 8] {
            assert_eq!(shares(np4().workers(w)), vec![(avail / w).max(1); 4], "{w} workers");
        }
        assert_eq!(shares(np4().event_seed(7)), vec![avail; 4], "seeded");
    }

    /// The production executor detects a crash-stop death at proven
    /// quiescence on any worker count: in the ring, rank 1's death leaves
    /// every survivor blocked, and each survivor records the death once.
    #[test]
    fn killed_rank_is_detected_at_quiescence_on_the_production_executor() {
        let default = || RunConfig::builder();
        for (label, builder) in [
            ("workers(1)", default().workers(1)),
            ("workers(2)", default().workers(2)),
            ("default workers", default()),
        ] {
            let plan = FaultPlan::new(FaultConfig::clean(3)).with_rank_kill_at_op(1, 40);
            let monitor = plan.monitor();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                builder.np(4).faults(plan).run(chatty_ring);
            }));
            let msg = panic_text(&result.expect_err("killed run completed"));
            assert!(msg.contains("crash-stop"), "{label}: {msg}");
            assert_eq!(monitor.kills(), vec![KillRecord { rank: 1, site: KillSite::Op(40) }]);
            let mut found: Vec<(u32, u32)> =
                monitor.detections().iter().map(|d| (d.by, d.dead)).collect();
            found.sort_unstable();
            assert_eq!(found, vec![(0, 1), (2, 1), (3, 1)], "{label}");
        }
    }

    #[test]
    fn killed_rank_under_seeded_schedule_is_detected_at_quiescence() {
        let plan = FaultPlan::new(FaultConfig::clean(7)).with_rank_kill_at_op(2, 30);
        let monitor = plan.monitor();
        let result = std::panic::catch_unwind(|| {
            RunConfig::builder().np(4).event_seed(11).faults(plan).run(chatty_ring);
        });
        let payload = result.expect_err("killed seeded run completed");
        let msg = panic_text(&payload);
        assert!(
            msg.contains("crash-stop") || msg.contains("poison"),
            "unexpected abort message: {msg}"
        );
        assert_eq!(monitor.kills_fired(), 1);
        assert!(
            !monitor.detections().is_empty(),
            "quiescence intercept recorded no detection"
        );
    }

    #[test]
    fn undetected_kill_panics_at_teardown() {
        // Epoch kill in a workload with no post-kill communication: nobody
        // can notice the death, so the World itself must flag it.
        let plan = FaultPlan::new(FaultConfig::clean(1)).with_rank_kill_at_epoch(1, 0);
        let monitor = plan.monitor();
        let result = std::panic::catch_unwind(|| {
            RunConfig::builder().np(2).faults(plan).run(|c| {
                c.kill_point(0);
                u64::from(c.rank()) * 3
            });
        });
        let payload = result.expect_err("undetected kill must abort teardown");
        let msg = panic_text(&payload);
        assert!(msg.contains("undetected kill"), "{msg}");
        assert_eq!(monitor.kills_fired(), 1);
        assert!(monitor.detections().is_empty());
    }

    #[test]
    fn kill_free_armed_run_matches_unarmed_golden() {
        // Arming kills (the per-op kill check) must not perturb logical
        // results or traffic when no kill actually fires: the recovery
        // machinery is observable only through ReliabilityStats.
        let golden = RunConfig::builder().np(4).run(chatty_ring);
        let plan = FaultPlan::new(FaultConfig::clean(5)).with_rank_kill_at_epoch(3, u64::MAX);
        assert!(plan.kill_armed());
        let out = RunConfig::builder().np(4).faults(plan).run(chatty_ring);
        assert_eq!(out.results, golden.results);
        assert_eq!(out.stats, golden.stats);
        assert!(out.undrained.is_empty());
    }

    #[test]
    fn single_rank() {
        let out = RunConfig::builder().np(1).run(|c| {
            assert_eq!(c.rank(), 0);
            assert_eq!(c.size(), 1);
            7u64
        });
        assert_eq!(out.results, vec![7]);
        assert_eq!(out.stats[0], TrafficStats::default());
        assert!(out.undrained.is_empty());
    }

    #[test]
    fn ping_pong() {
        let out = RunConfig::builder().np(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, &123u64);
                c.recv::<u64>(1, 6)
            } else {
                let v: u64 = c.recv(0, 5);
                c.send(0, 6, &(v * 2));
                v
            }
        });
        assert_eq!(out.results, vec![246, 123]);
        assert_eq!(out.stats[0].sends, 1);
        assert_eq!(out.stats[0].bytes_sent, 8);
        assert_eq!(out.stats[1].recvs, 1);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = RunConfig::builder().np(2).run(|c| {
            if c.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                c.send(1, 2, &20u32);
                c.send(1, 1, &10u32);
                0
            } else {
                let a: u32 = c.recv(0, 1);
                let b: u32 = c.recv(0, 2);
                assert_eq!((a, b), (10, 20));
                1
            }
        });
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn recv_any_source() {
        let out = RunConfig::builder().np(4).run(|c| {
            if c.rank() == 0 {
                let mut sum = 0u64;
                for _ in 0..3 {
                    let (_, v) = c.recv_bytes(None, 9);
                    sum += from_bytes::<u64>(v);
                }
                sum
            } else {
                c.send(0, 9, &(c.rank() as u64));
                0
            }
        });
        assert_eq!(out.results[0], 1 + 2 + 3);
    }

    #[test]
    fn try_recv_polls() {
        let out = RunConfig::builder().np(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 3, &55u8);
                0u8
            } else {
                loop {
                    if let Some((src, v)) = c.try_recv_bytes(None, 3) {
                        assert_eq!(src, 0);
                        return from_bytes::<u8>(v);
                    }
                    std::hint::spin_loop();
                }
            }
        });
        assert_eq!(out.results[1], 55);
    }

    #[test]
    fn sendrecv_ring() {
        let np = 5;
        let out = RunConfig::builder().np(np).run(|c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.sendrecv::<u32>(right, left, 7, &c.rank())
        });
        for r in 0..np {
            assert_eq!(out.results[r as usize], (r + np - 1) % np);
        }
    }

    #[test]
    fn traffic_stats_track_bytes() {
        let out = RunConfig::builder().np(2).run(|c| {
            if c.rank() == 0 {
                let payload = vec![0u64; 100];
                c.send(1, 1, &payload);
            } else {
                let _: Vec<u64> = c.recv(0, 1);
            }
        });
        assert_eq!(out.stats[0].bytes_sent, 808);
        assert_eq!(out.stats[1].bytes_recvd, 808);
        assert_eq!(out.total_traffic().sends, 1);
    }

    /// Regression test for the teardown-drain fix: the panicking rank sends
    /// unrelated traffic first, so the peer's mailbox holds a non-matching
    /// envelope when the poison arrives. The blocked peer must still wake
    /// (poison is found by scan, not FIFO order) and the dead rank's own
    /// queued messages must not wedge anything.
    #[test]
    fn poison_wakes_peer_blocked_behind_unmatched_traffic() {
        let result = std::panic::catch_unwind(|| {
            RunConfig::builder().np(2).run(|c| {
                if c.rank() == 0 {
                    // Never-received noise, then death. Rank 1 also sent us
                    // a message we never receive: drain-on-panic consumes it.
                    c.send(1, 77, &1u8);
                    panic!("rank 0 exploded");
                } else {
                    c.send(0, 88, &2u8);
                    // Blocks on a tag rank 0 never sends; only the poison
                    // scan can wake us.
                    let _: u8 = c.recv(0, 44);
                    0u8
                }
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn poison_wakes_rank_blocked_inside_alltoall() {
        // Ranks 0 and 1 have each other's bucket and wait for rank 2's,
        // which never comes: only the poison scan of the every-peer
        // receive can end the run.
        let result = std::panic::catch_unwind(|| {
            RunConfig::builder().np(3).run(|c| {
                if c.rank() == 2 {
                    panic!("rank 2 exploded");
                }
                c.alltoall(vec![vec![c.rank()]; 3])
            });
        });
        let msg = panic_text(&result.expect_err("panic must propagate"));
        assert!(msg.contains("rank 2 exploded") || msg.contains("rank 2 died"), "{msg}");
    }

    #[test]
    fn undecodable_bucket_is_an_ordinary_panic() {
        // The bucket is decoded under the mailbox lock. The unwind poisons
        // that lock, and the dying rank then drains the same mailbox: it
        // must do so without a second panic, which would abort the process.
        let result = std::panic::catch_unwind(|| {
            RunConfig::builder().np(2).run(|c| {
                if c.rank() == 1 {
                    c.send(0, crate::collectives::TAG_ALLTOALL, &7u8);
                } else {
                    c.alltoall(vec![vec![0u64], vec![1u64]]);
                }
            });
        });
        let msg = panic_text(&result.expect_err("a one-byte bucket cannot decode"));
        assert!(msg.contains("buffer underflow"), "{msg}");
    }

    #[test]
    fn deadlock_inside_alltoall_names_the_first_missing_source() {
        // Rank 2 skips the collective. At quiescence ranks 0 and 1 hold
        // each other's bucket, so both report waiting for rank 2.
        let result = std::panic::catch_unwind(|| {
            RunConfig::builder().np(3).event_seed(5).run(|c| {
                if c.rank() != 2 {
                    c.alltoall(vec![vec![c.rank()]; 3]);
                }
            });
        });
        let msg = panic_text(&result.expect_err("deadlock must panic"));
        assert!(msg.contains("deadlock"), "{msg}");
        for rank in 0..2 {
            let line = format!("rank {rank}: blocked in recv(src=2, tag=0x80000500)");
            assert!(msg.contains(&line), "{msg}");
        }
    }

    #[test]
    fn undrained_messages_reported_at_teardown() {
        let out = RunConfig::builder().np(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 9, &3u32); // never received
            }
        });
        assert_eq!(out.undrained, vec![Undrained::new(1, 0, 9, None)]);
        assert_eq!(out.undrained[0].tag_name, "user");
        let shown = out.undrained[0].to_string();
        assert!(shown.contains("user"), "{shown}");
        assert!(shown.contains("0x9"), "{shown}");
    }

    #[test]
    fn stats_since_snapshot() {
        let out = RunConfig::builder().np(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, &1u8);
                let snap = c.stats();
                c.send(1, 1, &2u8);
                c.send(1, 1, &3u8);
                c.stats().since(&snap).sends
            } else {
                for _ in 0..3 {
                    let _: u8 = c.recv(0, 1);
                }
                0
            }
        });
        assert_eq!(out.results[0], 2);
    }

    #[test]
    fn seeded_schedules_agree_with_production() {
        let body = |c: &mut Comm| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 1, &(c.rank() as u64));
            let v: u64 = c.recv(left, 1);
            v * 10 + c.rank() as u64
        };
        let reference = RunConfig::builder().np(4).run(body);
        for seed in 0..8 {
            let out = RunConfig::builder().np(4).event_seed(seed).run(body);
            assert_eq!(out.results, reference.results, "seed {seed}");
            assert_eq!(out.stats, reference.stats, "seed {seed}");
            assert!(out.undrained.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn worker_count_is_invisible() {
        // How many OS threads drive the fibers is below the Comm API:
        // identical results, identical logical traffic, nothing left in
        // any mailbox.
        let golden = RunConfig::builder().np(8).workers(1).run(chatty_ring);
        let out = RunConfig::builder().np(8).workers(4).run(chatty_ring);
        assert_eq!(out.results, golden.results);
        assert_eq!(out.stats, golden.stats);
        assert!(out.undrained.is_empty());
    }

    #[test]
    fn np_1024_smoke() {
        // A thousand ranks on a handful of workers: barrier + allreduce +
        // point-to-point ring, small stacks. The paper's machine sizes are
        // why ranks are fibers: a thread per rank would need ~16 GiB of
        // stacks here.
        let np = 1024u32;
        let out = RunConfig::builder()
            .np(np)
            .stack_size(256 << 10)
            .run(|c| {
                c.barrier();
                let sum = c.allreduce_sum_u64(u64::from(c.rank()));
                let right = (c.rank() + 1) % c.size();
                let left = (c.rank() + c.size() - 1) % c.size();
                let from_left = c.sendrecv::<u64>(right, left, 3, &u64::from(c.rank()));
                sum + from_left
            });
        let expect_sum = u64::from(np) * u64::from(np - 1) / 2;
        for (r, &v) in out.results.iter().enumerate() {
            let left = (r as u32 + np - 1) % np;
            assert_eq!(v, expect_sum + u64::from(left), "rank {r}");
        }
        assert!(out.undrained.is_empty());
    }

    #[test]
    fn seeded_trace_is_replayable() {
        // Seeded serialized mode: same seed → same grant trace and same
        // output; different seeds explore different schedules but agree on
        // results.
        let body = |c: &mut Comm| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 1, &u64::from(c.rank()));
            let v: u64 = c.recv(left, 1);
            v * 10 + u64::from(c.rank())
        };
        let run = |seed: u64| {
            let sched = Arc::new(EventSched::seeded(4, seed));
            let machine = Machine::build(4, sched.clone(), None, 1);
            let out = execute(&machine, 1, 256 << 10, &body);
            (out.results, out.stats, sched.trace())
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b, "same seed must replay bit-for-bit");
        let c = run(10);
        assert_eq!(a.0, c.0, "results are schedule-independent");
        assert_ne!(a.2, c.2, "seeds 9 and 10 should explore different schedules");
    }

    #[test]
    fn deadlock_is_proved_at_quiescence() {
        // Head-to-head recv: both the production Fifo pool and the seeded
        // mode must prove the deadlock once quiescent, naming both ranks'
        // waits, instead of hanging.
        for seeded in [false, true] {
            let result = std::panic::catch_unwind(|| {
                let b = RunConfig::builder().np(2);
                let b = if seeded { b.event_seed(3) } else { b };
                b.run(|c| {
                    let other = 1 - c.rank();
                    let v: u64 = c.recv(other, 5); // nobody sends first
                    c.send(other, 5, &v);
                });
            });
            let payload = result.expect_err("deadlock must panic");
            let msg = panic_text(&payload);
            assert!(msg.contains("deadlock"), "seeded={seeded}: {msg}");
            assert!(msg.contains("tag=0x5"), "seeded={seeded}: {msg}");
        }
    }

    #[test]
    fn panicking_rank_tears_down_machine() {
        // A real (non-kill) panic on one fiber must poison the machine,
        // wake every blocked peer, and re-raise out of run().
        let result = std::panic::catch_unwind(|| {
            RunConfig::builder().np(4).run(|c| {
                if c.rank() == 2 {
                    panic!("rank 2 exploded");
                }
                // Everyone else blocks on a message only rank 2 would send.
                c.recv::<u64>(2, 9)
            });
        });
        let payload = result.expect_err("panic must propagate");
        // Lowest-rank panic wins: rank 0 died of rank 2's poison, so either
        // the original panic or a poison-death naming rank 2 may surface.
        let msg = panic_text(&payload);
        assert!(
            msg.contains("rank 2 exploded") || msg.contains("rank 2 died"),
            "{msg}"
        );
    }
}
