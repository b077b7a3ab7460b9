//! Reliable delivery over a faulty transport.
//!
//! When a run installs a [`crate::fault::FaultPlan`] (via
//! [`crate::runtime::RunConfig`]), every non-poison message is carried as a
//! CRC32-framed, per-flow sequence-numbered frame (see
//! [`crate::wire::frame_message`]) and passes through the plan's seeded
//! adversary, which may drop, duplicate, delay, or bit-flip it. The
//! [`Transport`] in this module is the recovery machinery that makes the
//! machine behave *exactly* as if the network were perfect:
//!
//! * **Integrity** — frames failing their CRC are rejected at intake and
//!   recovered by retransmission, never delivered.
//! * **Exactly-once** — per-flow sequence numbers make duplicate frames
//!   (injected or retransmission races) idempotently suppressible.
//! * **FIFO per flow** — a per-source resequencing stash restores send
//!   order, so MPI non-overtaking semantics survive reordering.
//! * **Loss recovery** — senders keep unacked frames; the receiver-driven
//!   pump retransmits the next-expected frame when it went missing, with a
//!   capped exponential backoff charge recorded in model units. Delivery
//!   acks prune the sender's retransmission buffer (the simulated
//!   machine's shared memory stands in for ack packets; on a real network
//!   they would ride the reverse flow).
//!
//! Because recovery is deterministic given the fault seed and the
//! schedule, `hot-analyze faults` can cross fault plans with seeded
//! schedules and require results bitwise-identical to a fault-free run.
//! [`TrafficStats`](crate::runtime::TrafficStats) counts *logical* payload
//! traffic only — retransmissions, duplicates, frame overhead, and acks
//! are visible exclusively through [`ReliabilityStats`], keeping the
//! deterministic trace ledger unchanged under faults.

use crate::chan::Mailbox;
use crate::fault::{FaultDecision, FaultPlan};
use crate::runtime::{Envelope, Undrained, POISON_TAG};
use crate::wire::{frame_message, unframe_message, Wire};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Envelope tag carrying CRC-framed transport data. One below
/// [`POISON_TAG`]; applications are limited to
/// [`crate::runtime::MAX_USER_TAG`], far away.
pub const FRAME_TAG: u32 = u32::MAX - 1;

/// Cap on the exponent of the retransmission backoff charge: retry `n`
/// charges `2^min(n, BACKOFF_CAP)` backoff units.
pub const BACKOFF_CAP: u32 = 6;

/// Per-rank reliability counters. Everything the recovery machinery does
/// is observable here — and *only* here: none of these feed the
/// deterministic trace ledger, because retries and rejects depend on the
/// fault plan and schedule, not on the program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Frames retransmitted (recovery of loss, corruption, or delay).
    pub retries: u64,
    /// Recoveries initiated without an observed CRC failure on the flow —
    /// i.e. the frame silently went missing and its absence was detected,
    /// the analogue of an ack-timeout firing.
    pub timeouts: u64,
    /// Frames rejected at intake because their CRC32 did not verify.
    pub crc_rejects: u64,
    /// Duplicate frames suppressed by sequence-number idempotency.
    pub dup_suppressed: u64,
    /// Transient rank stalls injected at channel operations.
    pub stalls: u64,
    /// Exponential-backoff charge accumulated by retries, in model units
    /// (multiples of the network latency a real sender would have waited).
    pub backoff_units: u64,
}

impl ReliabilityStats {
    /// Element-wise accumulate.
    pub fn merge(&mut self, o: &ReliabilityStats) {
        self.retries += o.retries;
        self.timeouts += o.timeouts;
        self.crc_rejects += o.crc_rejects;
        self.dup_suppressed += o.dup_suppressed;
        self.stalls += o.stalls;
        self.backoff_units += o.backoff_units;
    }

    /// True when no reliability event occurred (a clean transport).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        *self == ReliabilityStats::default()
    }
}

impl Wire for ReliabilityStats {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.retries);
        buf.put_u64_le(self.timeouts);
        buf.put_u64_le(self.crc_rejects);
        buf.put_u64_le(self.dup_suppressed);
        buf.put_u64_le(self.stalls);
        buf.put_u64_le(self.backoff_units);
    }
    fn decode(buf: &mut Bytes) -> Self {
        ReliabilityStats {
            retries: buf.get_u64_le(),
            timeouts: buf.get_u64_le(),
            crc_rejects: buf.get_u64_le(),
            dup_suppressed: buf.get_u64_le(),
            stalls: buf.get_u64_le(),
            backoff_units: buf.get_u64_le(),
        }
    }
    fn wire_size(&self) -> usize {
        48
    }
}

/// Sender-side state of one directed flow `src → dst`.
#[derive(Default)]
struct TxFlow {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Sent but not yet delivered frames: `seq → (tag, payload, attempts)`.
    /// Pruned when the receiver's pump delivers the frame in order.
    unacked: BTreeMap<u64, (u32, Bytes, u32)>,
}

/// A frame held back by a delay fault, parked at its destination.
struct Delayed {
    src: u32,
    release_in: u32,
    bytes: Bytes,
}

/// Receiver-side state of one rank: per-source resequencing plus the
/// delay-fault holding pen.
struct RxSide {
    /// Next in-order sequence expected from each source.
    expected: Vec<u64>,
    /// Out-of-order frames awaiting their predecessors:
    /// `(src, seq) → (tag, payload)`.
    stash: BTreeMap<(u32, u64), (u32, Bytes)>,
    /// Frames the fault plan is holding back.
    delayed: Vec<Delayed>,
}

/// The reliable-transport engine installed on a machine when a fault plan
/// is active. Shared by all ranks; every member is independently locked
/// (lock order: `rx` before `flows` before mailbox, `rstats` leaf-only;
/// `dead` holds atomics).
pub(crate) struct Transport {
    pub(crate) plan: FaultPlan,
    np: u32,
    /// `src * np + dst` indexed flow table.
    flows: Vec<Mutex<TxFlow>>,
    rx: Vec<Mutex<RxSide>>,
    rstats: Vec<Mutex<ReliabilityStats>>,
    /// Ranks whose kill fired: the crash-stop ground truth that classifies
    /// a proven quiescence as a detection, silences the dead rank's sends,
    /// and drives the undetected-kill audit.
    dead: Vec<AtomicBool>,
    /// Cached [`FaultPlan::kill_armed`]: only plans that can kill pay for
    /// the per-op kill check.
    armed: bool,
}

impl Transport {
    pub(crate) fn new(np: u32, plan: FaultPlan) -> Transport {
        let armed = plan.kill_armed();
        Transport {
            plan,
            np,
            flows: (0..np * np).map(|_| Mutex::new(TxFlow::default())).collect(),
            rx: (0..np)
                .map(|_| {
                    Mutex::new(RxSide {
                        expected: vec![0; np as usize],
                        stash: BTreeMap::new(),
                        delayed: Vec::new(),
                    })
                })
                .collect(),
            rstats: (0..np).map(|_| Mutex::new(ReliabilityStats::default())).collect(),
            dead: (0..np).map(|_| AtomicBool::new(false)).collect(),
            armed,
        }
    }

    fn flow(&self, src: u32, dst: u32) -> &Mutex<TxFlow> {
        &self.flows[(src * self.np + dst) as usize]
    }

    /// True when the plan can kill ranks.
    pub(crate) fn kill_armed(&self) -> bool {
        self.armed
    }

    /// Record that `rank`'s kill fired: from here on its sends vanish.
    pub(crate) fn mark_dead(&self, rank: u32) {
        self.dead[rank as usize].store(true, Ordering::Release);
    }

    /// Ranks whose kill fired, ascending.
    pub(crate) fn dead_ranks(&self) -> Vec<u32> {
        (0..self.np).filter(|&r| self.dead[r as usize].load(Ordering::Acquire)).collect()
    }

    /// Reliability counters attributed to `rank` so far.
    pub(crate) fn stats(&self, rank: u32) -> ReliabilityStats {
        *self.rstats[rank as usize].lock().expect("rstats lock")
    }

    /// Record an injected stall at `rank`.
    pub(crate) fn note_stall(&self, rank: u32) {
        self.rstats[rank as usize].lock().expect("rstats lock").stalls += 1;
    }

    /// Sender path: assign the next flow sequence number, buffer the frame
    /// for retransmission, and put it on the (faulty) wire. The caller
    /// still performs the scheduler notify.
    pub(crate) fn on_send(&self, src: u32, dst: u32, tag: u32, data: &Bytes, dst_mbox: &Mailbox) {
        // A dead rank is silent: nothing reaches the wire, nothing enters
        // its retransmission buffer. (The kill normally unwinds the rank
        // before it can send again; this guards the unwind window.)
        if self.dead[src as usize].load(Ordering::Acquire) {
            return;
        }
        let seq = {
            let mut fl = self.flow(src, dst).lock().expect("flow lock");
            let seq = fl.next_seq;
            fl.next_seq += 1;
            fl.unacked.insert(seq, (tag, data.clone(), 0));
            seq
        };
        let d = self.plan.decide(src, dst, seq, 0);
        let mut rx = self.rx[dst as usize].lock().expect("rx lock");
        self.transmit(src, seq, tag, data, &d, &mut rx.delayed, dst_mbox);
    }

    /// Put one (possibly faulted) copy of a frame on the wire: into the
    /// destination mailbox, or the destination's delay pen. The caller
    /// passes the pen explicitly so the pump can transmit while already
    /// holding its own `RxSide` lock.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &self,
        src: u32,
        seq: u64,
        tag: u32,
        payload: &Bytes,
        d: &FaultDecision,
        delayed: &mut Vec<Delayed>,
        mbox: &Mailbox,
    ) {
        if d.drop {
            return;
        }
        // A dead sender transmits nothing — including retransmissions
        // performed on its behalf by a receiver's gap recovery.
        if self.dead[src as usize].load(Ordering::Acquire) {
            return;
        }
        // The frame's `hb` field is reserved: always 0.
        let mut bytes = frame_message(seq, 0, tag, payload);
        if let Some(bit) = d.corrupt_bit {
            bytes = Bytes::from(FaultPlan::corrupt(&bytes, bit));
        }
        if d.delay_slots > 0 {
            delayed.push(Delayed { src, release_in: d.delay_slots, bytes: bytes.clone() });
        } else {
            mbox.push(Envelope { src, tag: FRAME_TAG, data: bytes.clone() });
        }
        if d.duplicate {
            // The network duplicated the packet as transmitted: same bits.
            mbox.push(Envelope { src, tag: FRAME_TAG, data: bytes });
        }
    }

    /// Verify, dedup, and stash one raw frame arriving at `me` from `src`.
    /// Flags `crc_seen[src]` when the frame failed its checksum (so the
    /// subsequent recovery is accounted as a corruption retry, not an
    /// ack-timeout).
    fn intake(
        &self,
        rx: &mut RxSide,
        src: u32,
        bytes: &Bytes,
        crc_seen: &mut [bool],
        stats: &mut ReliabilityStats,
    ) {
        match unframe_message(bytes) {
            Err(_) => {
                stats.crc_rejects += 1;
                crc_seen[src as usize] = true;
            }
            Ok(frame) => {
                let exp = rx.expected[src as usize];
                if frame.seq < exp || rx.stash.contains_key(&(src, frame.seq)) {
                    stats.dup_suppressed += 1;
                } else {
                    rx.stash.insert((src, frame.seq), (frame.tag, frame.payload));
                }
            }
        }
    }

    /// Move every in-order stashed frame into `me`'s mailbox as a logical
    /// envelope, acking it (pruning the sender's retransmission buffer).
    fn deliver(&self, me: u32, rx: &mut RxSide, mbox: &Mailbox) {
        for src in 0..self.np {
            loop {
                let exp = rx.expected[src as usize];
                let Some((tag, payload)) = rx.stash.remove(&(src, exp)) else {
                    break;
                };
                rx.expected[src as usize] = exp + 1;
                mbox.push(Envelope { src, tag, data: payload });
                self.flow(src, me).lock().expect("flow lock").unacked.remove(&exp);
            }
        }
    }

    /// The receiver-driven progress engine, run by rank `me` at every
    /// receive path (including the blocked-wait check). Ages and matures
    /// delayed frames, verifies and resequences intake, delivers in order,
    /// and — when the next-expected frame of some flow was transmitted but
    /// went missing — recovers it: a matching delayed frame is force-
    /// released, otherwise the sender's buffered copy is retransmitted
    /// with an exponential-backoff charge. Bounded: the fault plan stops
    /// faulting a frame after `max_faults_per_frame` attempts.
    pub(crate) fn pump(&self, me: u32, mbox: &Mailbox) {
        let mut rx = self.rx[me as usize].lock().expect("rx lock");
        let mut stats = ReliabilityStats::default();
        let mut crc_seen = vec![false; self.np as usize];

        // Age the delay pen one slot; mature frames join the intake.
        let mut matured = Vec::new();
        let mut i = 0;
        while i < rx.delayed.len() {
            if rx.delayed[i].release_in <= 1 {
                matured.push(rx.delayed.remove(i));
            } else {
                rx.delayed[i].release_in -= 1;
                i += 1;
            }
        }
        for m in matured {
            self.intake(&mut rx, m.src, &m.bytes, &mut crc_seen, &mut stats);
        }
        for e in mbox.drain_tag(FRAME_TAG) {
            self.intake(&mut rx, e.src, &e.data, &mut crc_seen, &mut stats);
        }
        self.deliver(me, &mut rx, mbox);

        // Recovery: close gaps until every flow is either fully delivered
        // or waiting on a frame the sender has not transmitted yet.
        loop {
            let mut progressed = false;
            for src in 0..self.np {
                let exp = rx.expected[src as usize];
                // A gap exists iff the sender holds `exp` unacked: it was
                // sent (possibly dropped/corrupted/delayed) but never
                // delivered. An untransmitted future frame is not a gap.
                let pending = {
                    let mut fl = self.flow(src, me).lock().expect("flow lock");
                    match fl.unacked.get_mut(&exp) {
                        None => None,
                        Some((tag, payload, attempts)) => {
                            // Check the delay pen first: the frame may just
                            // be parked. Force-release it rather than
                            // spending a retransmission.
                            let parked = rx.delayed.iter().position(|d| {
                                d.src == src
                                    && unframe_message(&d.bytes)
                                        .map(|f| f.seq == exp)
                                        .unwrap_or(false)
                            });
                            match parked {
                                Some(idx) => Some(Err(idx)),
                                // A dead sender cannot retransmit: its
                                // buffered copy died with it. The gap
                                // stays open until the machine quiesces.
                                None if self.dead[src as usize].load(Ordering::Acquire) => None,
                                None => {
                                    *attempts += 1;
                                    Some(Ok((*tag, payload.clone(), *attempts)))
                                }
                            }
                        }
                    }
                };
                match pending {
                    None => {}
                    Some(Err(idx)) => {
                        let d = rx.delayed.remove(idx);
                        self.intake(&mut rx, d.src, &d.bytes, &mut crc_seen, &mut stats);
                        progressed = true;
                    }
                    Some(Ok((tag, payload, attempt))) => {
                        stats.retries += 1;
                        stats.backoff_units += 1 << attempt.min(BACKOFF_CAP);
                        if !crc_seen[src as usize] {
                            stats.timeouts += 1;
                        }
                        crc_seen[src as usize] = false;
                        let d = self.plan.decide(src, me, exp, attempt);
                        let RxSide { delayed, .. } = &mut *rx;
                        self.transmit(src, exp, tag, &payload, &d, delayed, mbox);
                        for e in mbox.drain_tag(FRAME_TAG) {
                            self.intake(&mut rx, e.src, &e.data, &mut crc_seen, &mut stats);
                        }
                        progressed = true;
                    }
                }
                self.deliver(me, &mut rx, mbox);
            }
            if !progressed {
                break;
            }
        }
        if !stats.is_quiet() {
            self.rstats[me as usize].lock().expect("rstats lock").merge(&stats);
        }
    }

    /// Teardown audit: classify everything still in flight after every
    /// rank returned — raw frames left in mailboxes, stashed out-of-order
    /// frames, parked delayed frames, and (the silent-loss case) frames a
    /// sender still holds unacked because they were lost and no receive
    /// ever pulled them. Each logical message is reported once, tagged
    /// with its flow sequence number; transport-level duplicates of
    /// already-delivered frames are excluded. The returned list is sorted,
    /// so it is schedule-independent for a schedule-independent program.
    pub(crate) fn teardown_undrained(&self, leftover: &[(u32, Envelope)]) -> Vec<Undrained> {
        let mut seen: BTreeSet<(u32, u32, u64)> = BTreeSet::new();
        let mut out = Vec::new();
        for (at, env) in leftover {
            if env.tag == POISON_TAG {
                continue;
            }
            if env.tag == FRAME_TAG {
                if let Ok(f) = unframe_message(&env.data) {
                    let exp = self.rx[*at as usize].lock().expect("rx lock").expected
                        [env.src as usize];
                    if f.seq >= exp && seen.insert((*at, env.src, f.seq)) {
                        out.push(Undrained::new(*at, env.src, f.tag, Some(f.seq)));
                    }
                }
                // Corrupt leftovers are recovered below via the sender's
                // unacked buffer, which still knows the logical message.
            } else {
                out.push(Undrained::new(*at, env.src, env.tag, None));
            }
        }
        for me in 0..self.np {
            let rx = self.rx[me as usize].lock().expect("rx lock");
            for (&(src, seq), &(tag, _)) in &rx.stash {
                if seen.insert((me, src, seq)) {
                    out.push(Undrained::new(me, src, tag, Some(seq)));
                }
            }
            for d in &rx.delayed {
                if let Ok(f) = unframe_message(&d.bytes) {
                    if f.seq >= rx.expected[d.src as usize] && seen.insert((me, d.src, f.seq)) {
                        out.push(Undrained::new(me, d.src, f.tag, Some(f.seq)));
                    }
                }
            }
        }
        for src in 0..self.np {
            for dst in 0..self.np {
                let fl = self.flow(src, dst).lock().expect("flow lock");
                for (&seq, &(tag, _, _)) in &fl.unacked {
                    if seen.insert((dst, src, seq)) {
                        out.push(Undrained::new(dst, src, tag, Some(seq)));
                    }
                }
            }
        }
        out.sort_by_key(|u| (u.at, u.src, u.seq, u.tag));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::runtime::{Comm, RunConfig};

    fn faulty(np: u32, seed: u64) -> RunConfig {
        RunConfig::builder()
            .np(np)
            .faults(FaultPlan::new(FaultConfig::hostile(seed)))
            .build()
    }

    #[test]
    fn reliability_stats_wire_roundtrip() {
        let s = ReliabilityStats {
            retries: 1,
            timeouts: 2,
            crc_rejects: 3,
            dup_suppressed: 4,
            stalls: 5,
            backoff_units: 6,
        };
        let b = crate::wire::to_bytes(&s);
        assert_eq!(b.len(), s.wire_size());
        assert_eq!(crate::wire::from_bytes::<ReliabilityStats>(b), s);
    }

    /// The transport's wire contract, pinned so silent retuning breaks the
    /// build: retransmission backoff capped at 2^6, and a 28-byte frame
    /// (the 20-byte header and trailer plus the reserved 8-byte `hb`
    /// field). Retuning either must be a reviewed, documented change.
    #[test]
    fn detection_constants_are_pinned() {
        assert_eq!(BACKOFF_CAP, 6);
        assert_eq!(crate::wire::FRAME_OVERHEAD_BYTES, 28);
    }

    #[test]
    fn clean_plan_is_transparent() {
        let reference = RunConfig::builder().np(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, &123u64);
                c.recv::<u64>(1, 6)
            } else {
                let v: u64 = c.recv(0, 5);
                c.send(0, 6, &(v * 2));
                v
            }
        });
        let out = RunConfig::builder()
            .np(2)
            .faults(FaultPlan::new(FaultConfig::clean(1)))
            .run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, &123u64);
                c.recv::<u64>(1, 6)
            } else {
                let v: u64 = c.recv(0, 5);
                c.send(0, 6, &(v * 2));
                v
            }
        });
        assert_eq!(out.results, reference.results);
        assert_eq!(out.stats, reference.stats);
        assert!(out.undrained.is_empty());
        assert!(out.reliability.iter().all(ReliabilityStats::is_quiet));
        assert_eq!(out.injected.total(), 0);
    }

    #[test]
    fn hostile_plan_preserves_results_and_logical_stats() {
        let body = |c: &mut Comm| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            for i in 0..20u64 {
                c.send(right, 1, &(c.rank() as u64 * 100 + i));
            }
            let mut sum = 0u64;
            for _ in 0..20 {
                sum += c.recv::<u64>(left, 1);
            }
            sum + c.allreduce_sum_u64(1)
        };
        let reference = RunConfig::builder().np(4).run(body);
        for seed in 0..6 {
            let out = faulty(4, seed).run(body);
            assert_eq!(out.results, reference.results, "seed {seed}");
            assert_eq!(out.stats, reference.stats, "seed {seed} logical traffic");
            assert!(out.undrained.is_empty(), "seed {seed}");
            assert!(out.injected.total() > 0, "seed {seed} injected nothing");
        }
    }

    #[test]
    fn hostile_plan_under_seeded_schedules() {
        let body = |c: &mut Comm| {
            let v = c.rank() as u64 + 1;
            let total = c.allreduce_sum_u64(v);
            let all = c.allgather(v);
            (total, all)
        };
        let reference = RunConfig::builder().np(3).run(body);
        for fault_seed in 0..3 {
            for sched_seed in 0..3 {
                let out = RunConfig::builder()
                    .np(3)
                    .faults(FaultPlan::new(FaultConfig::hostile(fault_seed)))
                    .event_seed(sched_seed)
                    .run(body);
                assert_eq!(
                    out.results, reference.results,
                    "fault seed {fault_seed} sched seed {sched_seed}"
                );
                assert!(out.undrained.is_empty());
            }
        }
    }

    #[test]
    fn targeted_corruption_triggers_exactly_one_retry() {
        // Corrupt the first frame of flow 0→1 in an otherwise clean plan:
        // the CRC must reject it and recovery must retransmit exactly once.
        let plan = FaultPlan::new(FaultConfig::clean(0)).with_targeted(
            0,
            1,
            0,
            FaultDecision { corrupt_bit: Some(13), ..FaultDecision::default() },
        );
        let out = RunConfig::builder()
            .np(2)
            .faults(plan)
            .event_seed(1)
            .run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, &0xDEAD_BEEFu64);
                0
            } else {
                c.recv::<u64>(0, 5)
            }
        });
        assert_eq!(out.results[1], 0xDEAD_BEEF);
        let total: u64 = out.reliability.iter().map(|r| r.retries).sum();
        let rejects: u64 = out.reliability.iter().map(|r| r.crc_rejects).sum();
        assert_eq!(total, 1, "exactly one retry");
        assert_eq!(rejects, 1, "exactly one CRC reject");
    }

    #[test]
    fn duplicates_are_suppressed() {
        let plan = FaultPlan::new(FaultConfig::clean(0)).with_targeted(
            0,
            1,
            0,
            FaultDecision { duplicate: true, ..FaultDecision::default() },
        );
        let out = RunConfig::builder()
            .np(2)
            .faults(plan)
            .event_seed(1)
            .run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, &7u32);
                0
            } else {
                c.recv::<u32>(0, 5)
            }
        });
        assert_eq!(out.results[1], 7);
        assert!(out.undrained.is_empty(), "duplicate must not linger: {:?}", out.undrained);
        let dups: u64 = out.reliability.iter().map(|r| r.dup_suppressed).sum();
        assert_eq!(dups, 1);
    }

    #[test]
    fn abm_session_survives_hostile_plan() {
        use crate::abm::Abm;
        let body = |c: &mut Comm| {
            let rank = c.rank();
            let np = c.size();
            let mut got = vec![0u64; np as usize];
            let mut abm = Abm::new(c, 48);
            for dst in 0..np {
                abm.post(dst, 1, &(rank as u64 * 1000));
            }
            {
                let got = &mut got;
                abm.complete(move |ep, src, kind, payload| match kind {
                    1 => {
                        let v: u64 = crate::wire::from_bytes(payload);
                        ep.post(src, 2, &(v + ep.rank() as u64));
                    }
                    _ => {
                        let v: u64 = crate::wire::from_bytes(payload);
                        got[src as usize] = v;
                    }
                });
            }
            got
        };
        let reference = RunConfig::builder().np(4).run(body);
        for seed in 0..4 {
            let out = faulty(4, seed).run(body);
            assert_eq!(out.results, reference.results, "seed {seed}");
            assert!(out.undrained.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn undrained_under_faults_names_tag_and_seq() {
        // A message sent but never received must be reported with its
        // logical tag and flow sequence number even when the fault plan
        // dropped it on the wire (the silent-loss audit).
        let plan = FaultPlan::new(FaultConfig::clean(0)).with_targeted(
            0,
            1,
            0,
            FaultDecision { drop: true, ..FaultDecision::default() },
        );
        let out = RunConfig::builder().np(2).faults(plan).run(|c| {
            if c.rank() == 0 {
                c.send(1, 9, &3u32); // dropped, never received, never recovered
            }
        });
        assert_eq!(out.undrained, vec![Undrained::new(1, 0, 9, Some(0))]);
        assert_eq!(out.undrained[0].tag_name, "user");
    }
}
