//! `hot-trace`: a deterministic per-rank span/counter ledger.
//!
//! The paper's claims are *tables* — per-phase timing breakdowns (domain
//! decomposition, tree build, traversal, force evaluation, data migration),
//! flop rates, and message traffic. This crate is the observability layer
//! that produces those tables from the reproduction, under one hard rule:
//!
//! **everything recorded here is a pure function of inputs and seeds.**
//!
//! There is no wall clock anywhere in this crate. Span "times" are *model
//! seconds*, derived from monotonic event counters through [`ModelClock`]
//! (`hot_comm::NetworkModel` + a sustained-Mflops rate, built from a
//! `hot_machine::MachineSpec`), the same clock that prices every predicted
//! run on the 1997 machines. Consequently a ledger — and
//! the JSON report reduced from it — is bitwise identical across repeated
//! runs and across every seeded message schedule, which is exactly what the
//! golden-snapshot suite and `hot-analyze schedules` assert.
//!
//! The moving parts:
//!
//! * [`Counter`] / [`CounterSet`] — a fixed vocabulary of monotonic event
//!   counters (flops, P-P/P-C interactions, cells opened/built, hash
//!   probes, requests, messages, bytes).
//! * [`ModelClock`] — converts a [`CounterSet`], or a whole-machine phase,
//!   into model seconds.
//! * [`Phase`] — the paper's phase names (decomp / tree build / walk /
//!   force / comm / step).
//! * [`Ledger`] — per-rank recorder: nested [`Phase`] spans, counters
//!   attributed to the innermost open span, inclusive/exclusive roll-up.
//! * [`RankRecord`] — a `Wire`-serializable snapshot of one rank's ledger,
//!   reduced across ranks (see [`report`]) into a [`report::RunReport`]
//!   with min/mean/max-per-rank skew.
//!
//! What may be recorded where is a *determinism contract*, documented in
//! VERIFICATION.md: collective-phase instrumentation may use raw
//! `TrafficStats` deltas (bitwise schedule-independent, enforced by the
//! schedule checker), but the asynchronous walk phase must use the ABM's
//! logical counters (`posted`/`delivered`/bytes), never its batch counts —
//! batch boundaries legitimately depend on arrival interleaving.

use hot_comm::{NetworkModel, TrafficStats, Wire};
use hot_machine::{MachineSpec, LOKI};

pub mod faults;
pub mod report;

pub use faults::{FaultReport, FAULT_SCHEMA};
pub use report::{reduce, RankStat, RunReport, SCHEMA};

/// The monotonic event counters the ledger understands.
///
/// The set is fixed (and schema-versioned through [`SCHEMA`]) so that
/// golden reports stay comparable across runs and machines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    /// Flops, under the paper's fixed per-interaction convention
    /// (38/70/123 flops — see `hot-base`).
    Flops,
    /// Particle–particle interactions (self-pairs excluded).
    PpInteractions,
    /// Particle–cell (multipole) interactions.
    PcInteractions,
    /// Cells opened during traversal (MAC rejections that recursed).
    CellsOpened,
    /// Tree cells constructed.
    CellsBuilt,
    /// Hash-table slot probes in the *local* key table. Only recorded for
    /// deterministic single-writer tables (the local tree); the remote-cell
    /// cache's layout depends on reply arrival order and is never counted.
    HashProbes,
    /// Remote cell-child requests issued by the distributed walk.
    CellRequests,
    /// Remote leaf-body requests issued by the distributed walk.
    BodyRequests,
    /// Bodies received in the domain-decomposition exchange.
    BodiesExchanged,
    /// Messages sent (collective phases: wire messages; walk phase:
    /// logical ABM messages posted).
    MsgsSent,
    /// Bytes sent (same sourcing rule as [`Counter::MsgsSent`]).
    BytesSent,
    /// Messages received.
    MsgsRecvd,
    /// Bytes received.
    BytesRecvd,
    /// P-P source *entries* pushed into interaction lists during the walk
    /// (list-build side). One entry fans out to one interaction per sink in
    /// the group, so `PpInteractions / PpListed` ≈ the group-size
    /// amortization the paper's list split buys.
    PpListed,
    /// P-C accepted-cell entries pushed into interaction lists.
    PcListed,
    /// Globally synchronized request rounds of the coalesced walk: drains
    /// that produced at least one multi-key request on this rank. A round
    /// boundary is a machine-wide quiescent point (every outstanding
    /// request answered), so the count is a pure function of the walk.
    WalkRounds,
    /// Steps on which the multi-step decomposition actually moved interval
    /// cut points (the skew trigger fired). Zero on one-shot evaluations.
    RebalanceSteps,
    /// Bodies received through the incremental key-range migration (the
    /// minimal diff between old and new intervals — the adaptive analogue
    /// of [`Counter::BodiesExchanged`]).
    MigratedBodies,
    /// Wire bytes received in migration batches.
    MigratedBytes,
}

/// Number of distinct counters.
pub const COUNTER_COUNT: usize = 19;

/// Every counter, in canonical (schema) order.
pub const COUNTERS: [Counter; COUNTER_COUNT] = [
    Counter::Flops,
    Counter::PpInteractions,
    Counter::PcInteractions,
    Counter::CellsOpened,
    Counter::CellsBuilt,
    Counter::HashProbes,
    Counter::CellRequests,
    Counter::BodyRequests,
    Counter::BodiesExchanged,
    Counter::MsgsSent,
    Counter::BytesSent,
    Counter::MsgsRecvd,
    Counter::BytesRecvd,
    Counter::PpListed,
    Counter::PcListed,
    Counter::WalkRounds,
    Counter::RebalanceSteps,
    Counter::MigratedBodies,
    Counter::MigratedBytes,
];

impl Counter {
    /// Canonical index into a [`CounterSet`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Counter::Flops => 0,
            Counter::PpInteractions => 1,
            Counter::PcInteractions => 2,
            Counter::CellsOpened => 3,
            Counter::CellsBuilt => 4,
            Counter::HashProbes => 5,
            Counter::CellRequests => 6,
            Counter::BodyRequests => 7,
            Counter::BodiesExchanged => 8,
            Counter::MsgsSent => 9,
            Counter::BytesSent => 10,
            Counter::MsgsRecvd => 11,
            Counter::BytesRecvd => 12,
            Counter::PpListed => 13,
            Counter::PcListed => 14,
            Counter::WalkRounds => 15,
            Counter::RebalanceSteps => 16,
            Counter::MigratedBodies => 17,
            Counter::MigratedBytes => 18,
        }
    }

    /// Stable `snake_case` name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Flops => "flops",
            Counter::PpInteractions => "pp_interactions",
            Counter::PcInteractions => "pc_interactions",
            Counter::CellsOpened => "cells_opened",
            Counter::CellsBuilt => "cells_built",
            Counter::HashProbes => "hash_probes",
            Counter::CellRequests => "cell_requests",
            Counter::BodyRequests => "body_requests",
            Counter::BodiesExchanged => "bodies_exchanged",
            Counter::MsgsSent => "msgs_sent",
            Counter::BytesSent => "bytes_sent",
            Counter::MsgsRecvd => "msgs_recvd",
            Counter::BytesRecvd => "bytes_recvd",
            Counter::PpListed => "pp_listed",
            Counter::PcListed => "pc_listed",
            Counter::WalkRounds => "walk_rounds",
            Counter::RebalanceSteps => "rebalance_steps",
            Counter::MigratedBodies => "migrated_bodies",
            Counter::MigratedBytes => "migrated_bytes",
        }
    }
}

/// A fixed-width vector of the 19 [`Counter`] values.
///
/// Merging is componentwise addition, so it is associative and commutative
/// (the property suite pins this) — a `CounterSet` can be reduced across
/// ranks in any order.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CounterSet {
    vals: [u64; COUNTER_COUNT],
}

impl CounterSet {
    /// All-zero set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c.index()]
    }

    /// Bump one counter by `n`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c.index()] += n;
    }

    /// Componentwise sum.
    pub fn merge(&mut self, o: &CounterSet) {
        for (a, b) in self.vals.iter_mut().zip(&o.vals) {
            *a += *b;
        }
    }

    /// Componentwise saturating difference (`self − o`).
    pub fn minus(&self, o: &CounterSet) -> CounterSet {
        let mut out = *self;
        for (a, b) in out.vals.iter_mut().zip(&o.vals) {
            *a = a.saturating_sub(*b);
        }
        out
    }

    /// Componentwise `self ≤ o`.
    #[cfg(test)]
    pub fn le(&self, o: &CounterSet) -> bool {
        self.vals.iter().zip(&o.vals).all(|(a, b)| a <= b)
    }

    /// Total interactions (P-P + P-C).
    pub fn interactions(&self) -> u64 {
        self.get(Counter::PpInteractions) + self.get(Counter::PcInteractions)
    }
}

impl Wire for CounterSet {
    fn wire_size(&self) -> usize {
        8 * COUNTER_COUNT
    }

    fn encode(&self, buf: &mut bytes::BytesMut) {
        for v in &self.vals {
            v.encode(buf);
        }
    }

    fn decode(buf: &mut bytes::Bytes) -> Self {
        let mut vals = [0u64; COUNTER_COUNT];
        for v in &mut vals {
            *v = u64::decode(buf);
        }
        CounterSet { vals }
    }
}

/// Converts counts into deterministic *model seconds* on one machine.
///
/// This is the one place counted work and counted traffic become time.
/// Compute time charges flops against a sustained per-processor Mflops
/// rate; communication time charges messages and bytes through
/// [`NetworkModel::rank_comm_time`]. [`ModelClock::seconds`] prices one
/// rank's counters (every ledger span); [`ModelClock::phase_seconds`]
/// prices a phase of the whole machine, which waits for its busiest rank.
/// Spread evenly over the processors, the two agree bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelClock {
    /// Network cost parameters.
    pub network: NetworkModel,
    /// Sustained N-body Mflops per processor.
    pub mflops_per_proc: f64,
    /// Processors a phase's flops spread over in
    /// [`ModelClock::phase_seconds`].
    pub procs: u32,
}

impl ModelClock {
    /// One-processor clock over an explicit network model and compute rate.
    pub fn new(network: NetworkModel, mflops_per_proc: f64) -> Self {
        ModelClock { network, mflops_per_proc, procs: 1 }
    }

    /// The clock of a machine: its network, its sustained N-body rate and
    /// its processor count.
    pub fn of(spec: &MachineSpec) -> Self {
        ModelClock {
            network: spec.network,
            mflops_per_proc: spec.nbody_mflops_per_proc,
            procs: spec.procs(),
        }
    }

    /// Loki's clock ([`hot_machine::LOKI`]), the ledger's default.
    pub fn paper_loki() -> Self {
        ModelClock::of(&LOKI)
    }

    /// Model seconds for a counter set: compute + communication.
    pub fn seconds(&self, c: &CounterSet) -> f64 {
        let traffic = TrafficStats {
            sends: c.get(Counter::MsgsSent),
            bytes_sent: c.get(Counter::BytesSent),
            recvs: c.get(Counter::MsgsRecvd),
            bytes_recvd: c.get(Counter::BytesRecvd),
        };
        self.compute_seconds(c.get(Counter::Flops) as f64) + self.network.rank_comm_time(&traffic)
    }

    /// Model seconds of a phase of the whole machine: the busiest rank's
    /// compute plus the busiest rank's communication (compute and
    /// communication do not overlap). The busiest rank computes
    /// `max_rank_flops`, or, when that is 0, an even share of the total
    /// `flops` over [`ModelClock::procs`]; `traffic` holds one entry per
    /// rank.
    pub fn phase_seconds(&self, flops: u64, max_rank_flops: u64, traffic: &[TrafficStats]) -> f64 {
        let rank_flops = if max_rank_flops > 0 {
            max_rank_flops as f64
        } else {
            flops as f64 / f64::from(self.procs.max(1))
        };
        self.compute_seconds(rank_flops) + self.network.phase_comm_time(traffic)
    }

    fn compute_seconds(&self, flops: f64) -> f64 {
        flops / (self.mflops_per_proc * 1e6)
    }
}

/// The per-step phases of the paper's diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// One whole simulation step (outermost span).
    Step,
    /// Domain decomposition (sample-sort + body exchange).
    Decomp,
    /// Tree construction: local build, branch exchange, top tree.
    TreeBuild,
    /// Traversal: MAC tests, cell opening, remote data requests.
    Walk,
    /// Force evaluation: the interaction kernels.
    Force,
    /// Explicit communication not inside another phase (reductions,
    /// diagnostics).
    Comm,
}

/// Every phase, in canonical (schema/table) order.
pub const PHASES: [Phase; 6] =
    [Phase::Step, Phase::Decomp, Phase::TreeBuild, Phase::Walk, Phase::Force, Phase::Comm];

impl Phase {
    /// Stable `snake_case` name used in the JSON schema and table.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Step => "step",
            Phase::Decomp => "decomp",
            Phase::TreeBuild => "tree_build",
            Phase::Walk => "walk",
            Phase::Force => "force",
            Phase::Comm => "comm",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Phase::Step => 0,
            Phase::Decomp => 1,
            Phase::TreeBuild => 2,
            Phase::Walk => 3,
            Phase::Force => 4,
            Phase::Comm => 5,
        }
    }

    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Step,
            1 => Phase::Decomp,
            2 => Phase::TreeBuild,
            3 => Phase::Walk,
            4 => Phase::Force,
            5 => Phase::Comm,
            other => panic!("invalid Phase discriminant {other} on the wire"),
        }
    }
}

/// One completed span: a phase with counters attributed to it.
///
/// `inclusive` counts everything that happened while the span was open
/// (children included); `exclusive` subtracts the children's inclusive
/// counts. Both are monotone, so exclusive counters — and therefore
/// [`SpanRecord::self_seconds`] — can never go negative (pinned by the
/// property suite).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRecord {
    /// Phase label.
    pub phase: Phase,
    /// Nesting depth (0 = top level).
    pub depth: u8,
    /// Counters including child spans.
    pub inclusive: CounterSet,
    /// Counters excluding child spans (self-attribution).
    pub exclusive: CounterSet,
    /// Model seconds for the exclusive counters.
    pub self_seconds: f64,
}

impl Wire for SpanRecord {
    fn wire_size(&self) -> usize {
        1 + 1 + self.inclusive.wire_size() + self.exclusive.wire_size() + 8
    }

    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.phase.to_u8().encode(buf);
        self.depth.encode(buf);
        self.inclusive.encode(buf);
        self.exclusive.encode(buf);
        self.self_seconds.encode(buf);
    }

    fn decode(buf: &mut bytes::Bytes) -> Self {
        SpanRecord {
            phase: Phase::from_u8(u8::decode(buf)),
            depth: u8::decode(buf),
            inclusive: CounterSet::decode(buf),
            exclusive: CounterSet::decode(buf),
            self_seconds: f64::decode(buf),
        }
    }
}

/// A `Wire`-serializable snapshot of one rank's finished ledger, the unit
/// reduced across ranks by [`report::reduce`].
#[derive(Clone, Debug, PartialEq)]
pub struct RankRecord {
    /// Originating rank.
    pub rank: u32,
    /// Run-wide counters for this rank (spans and unattributed adds).
    pub totals: CounterSet,
    /// Completed spans in *begin* order (stable across schedules).
    pub spans: Vec<SpanRecord>,
}

impl RankRecord {
    /// Sum of exclusive model seconds across this rank's spans.
    pub fn total_seconds(&self) -> f64 {
        self.spans.iter().map(|s| s.self_seconds).sum()
    }
}

impl Wire for RankRecord {
    fn wire_size(&self) -> usize {
        4 + self.totals.wire_size() + self.spans.wire_size()
    }

    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.rank.encode(buf);
        self.totals.encode(buf);
        self.spans.encode(buf);
    }

    fn decode(buf: &mut bytes::Bytes) -> Self {
        RankRecord {
            rank: u32::decode(buf),
            totals: CounterSet::decode(buf),
            spans: Vec::<SpanRecord>::decode(buf),
        }
    }
}

struct OpenSpan {
    phase: Phase,
    /// Index of the placeholder in `Ledger::spans`.
    idx: usize,
    /// Snapshot of `Ledger::totals` at begin.
    start: CounterSet,
    /// Sum of completed children's inclusive counters.
    children: CounterSet,
}

/// Per-rank recorder: nested phase spans plus monotonic counters.
///
/// Counters added while spans are open are attributed to the innermost
/// open span (and, transitively, to every enclosing span's inclusive
/// count). The ledger holds no clock state — spans are "timed" purely by
/// the counters they accumulate, converted through the [`ModelClock`].
pub struct Ledger {
    clock: ModelClock,
    totals: CounterSet,
    spans: Vec<SpanRecord>,
    open: Vec<OpenSpan>,
}

impl Ledger {
    /// Ledger with an explicit model clock.
    pub fn new(clock: ModelClock) -> Self {
        Ledger { clock, totals: CounterSet::new(), spans: Vec::new(), open: Vec::new() }
    }

    /// Throwaway ledger (paper-Loki clock) for untraced code paths.
    pub fn scratch() -> Self {
        Ledger::new(ModelClock::paper_loki())
    }

    /// The clock this ledger converts counters with.
    pub fn clock(&self) -> ModelClock {
        self.clock
    }

    /// Open a span. Spans nest; close with [`Ledger::end`].
    pub fn begin(&mut self, phase: Phase) {
        let idx = self.spans.len();
        // Placeholder keeps `spans` in *begin* order, which is
        // deterministic; completion order would be too, but begin order
        // matches how a reader thinks about the phase sequence.
        self.spans.push(SpanRecord {
            phase,
            depth: self.open.len() as u8,
            inclusive: CounterSet::new(),
            exclusive: CounterSet::new(),
            self_seconds: 0.0,
        });
        self.open.push(OpenSpan { phase, idx, start: self.totals, children: CounterSet::new() });
    }

    /// Close the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open — an unbalanced `begin`/`end` pair is
    /// an instrumentation bug, not a runtime condition.
    pub fn end(&mut self) {
        let Some(o) = self.open.pop() else {
            panic!("Ledger::end with no open span");
        };
        let inclusive = self.totals.minus(&o.start);
        let exclusive = inclusive.minus(&o.children);
        let rec = SpanRecord {
            phase: o.phase,
            depth: self.open.len() as u8,
            inclusive,
            exclusive,
            self_seconds: self.clock.seconds(&exclusive),
        };
        self.spans[o.idx] = rec;
        if let Some(parent) = self.open.last_mut() {
            parent.children.merge(&inclusive);
        }
    }

    /// Run `f` inside a `phase` span.
    pub fn span<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Ledger) -> R) -> R {
        self.begin(phase);
        let r = f(self);
        self.end();
        r
    }

    /// Bump a counter (attributed to the innermost open span, if any).
    pub fn add(&mut self, c: Counter, n: u64) {
        self.totals.add(c, n);
    }

    /// Fold a `TrafficStats` *delta* (see `TrafficStats::since`) into the
    /// message/byte counters.
    pub fn add_traffic(&mut self, t: &TrafficStats) {
        self.add(Counter::MsgsSent, t.sends);
        self.add(Counter::BytesSent, t.bytes_sent);
        self.add(Counter::MsgsRecvd, t.recvs);
        self.add(Counter::BytesRecvd, t.bytes_recvd);
    }

    /// Run-wide counters recorded so far.
    pub fn totals(&self) -> &CounterSet {
        &self.totals
    }

    /// Completed spans in begin order (placeholders for still-open spans
    /// are all-zero).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Snapshot this rank's ledger for reduction.
    ///
    /// # Panics
    /// Panics while any span is still open: a record with half-attributed
    /// counters would make the cross-rank report lie.
    pub fn rank_record(&self, rank: u32) -> RankRecord {
        assert!(
            self.open.is_empty(),
            "Ledger::rank_record with {} span(s) still open",
            self.open.len()
        );
        RankRecord { rank, totals: self.totals, spans: self.spans.clone() }
    }
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger")
            .field("totals", &self.totals)
            .field("spans", &self.spans.len())
            .field("open", &self.open.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_comm::{from_bytes, to_bytes};

    #[test]
    fn counters_attribute_to_innermost_span() {
        let mut l = Ledger::scratch();
        l.begin(Phase::Step);
        l.add(Counter::CellsBuilt, 5);
        l.begin(Phase::Walk);
        l.add(Counter::PpInteractions, 100);
        l.end();
        l.add(Counter::CellsBuilt, 2);
        l.end();
        let spans = l.spans();
        assert_eq!(spans.len(), 2);
        let step = spans[0];
        let walk = spans[1];
        assert_eq!(step.phase, Phase::Step);
        assert_eq!(step.depth, 0);
        assert_eq!(walk.depth, 1);
        assert_eq!(step.inclusive.get(Counter::PpInteractions), 100);
        assert_eq!(step.exclusive.get(Counter::PpInteractions), 0);
        assert_eq!(step.exclusive.get(Counter::CellsBuilt), 7);
        assert_eq!(walk.exclusive.get(Counter::PpInteractions), 100);
        assert_eq!(l.totals().get(Counter::PpInteractions), 100);
    }

    #[test]
    fn model_seconds_are_pure_counter_functions() {
        let clock = ModelClock::paper_loki();
        let mut c = CounterSet::new();
        c.add(Counter::Flops, 74_300_000);
        // 74.3 Mflop at 74.3 Mflops/s = exactly one second.
        assert!((clock.seconds(&c) - 1.0).abs() < 1e-12);
        let mut m = CounterSet::new();
        m.add(Counter::MsgsSent, 2);
        // Two sends at 104 µs half-latency each.
        assert!((clock.seconds(&m) - 2.0 * 0.5 * 104e-6).abs() < 1e-15);
    }

    /// Why one clock is enough: a phase whose ranks do equal flops costs,
    /// bit for bit, what its busiest rank's counters cost.
    #[test]
    fn phase_seconds_is_the_busiest_ranks_seconds() {
        use hot_machine::{ASCI_RED_6800, HYGLAC, LOKI_HYGLAC_SC96};
        for spec in [&LOKI, &HYGLAC, &LOKI_HYGLAC_SC96, &ASCI_RED_6800] {
            let clock = ModelClock::of(spec);
            let per_rank_flops = 38 * 123_457u64;
            let mut ranks = Vec::new();
            for r in 0..u64::from(clock.procs) {
                let mut c = CounterSet::new();
                c.add(Counter::Flops, per_rank_flops);
                c.add(Counter::MsgsSent, 3 + r % 5);
                c.add(Counter::BytesSent, 1_000 * (r * 7 % 11));
                c.add(Counter::MsgsRecvd, 2 + r % 3);
                c.add(Counter::BytesRecvd, 997 * (r * 5 % 13));
                ranks.push(c);
            }
            let traffic: Vec<TrafficStats> = ranks
                .iter()
                .map(|c| TrafficStats {
                    sends: c.get(Counter::MsgsSent),
                    bytes_sent: c.get(Counter::BytesSent),
                    recvs: c.get(Counter::MsgsRecvd),
                    bytes_recvd: c.get(Counter::BytesRecvd),
                })
                .collect();
            let busiest = ranks.iter().map(|c| clock.seconds(c)).fold(0.0, f64::max);
            let total = per_rank_flops * u64::from(clock.procs);
            assert_eq!(clock.phase_seconds(total, 0, &traffic).to_bits(), busiest.to_bits());
            assert_eq!(
                clock.phase_seconds(total, per_rank_flops, &traffic).to_bits(),
                busiest.to_bits()
            );
        }
    }

    /// The paper's N² benchmark counts reproduce its 635 Gflops / 239 s
    /// headline on ASCI Red (the ring's communication is negligible there).
    #[test]
    fn reproduces_nsquared_headline() {
        let flops = 1_000_000u64 * 1_000_000 * 38 * 4;
        let s = ModelClock::of(&hot_machine::ASCI_RED_6800).phase_seconds(flops, 0, &[]);
        assert!((s - 239.3).abs() < 2.0, "predicted {s} s");
        let gflops = flops as f64 / s / 1e9;
        assert!((gflops - 635.0).abs() < 5.0, "predicted {gflops} Gflops");
    }

    /// Loki's initial-phase treecode: 1.15e12 interactions in 36973 s.
    #[test]
    fn reproduces_loki_initial_phase() {
        let flops = (1.15e12 * 38.0) as u64;
        let s = ModelClock::of(&LOKI).phase_seconds(flops, 0, &[]);
        assert!((s - 36_973.0).abs() / 36_973.0 < 0.02, "predicted {s} s vs 36973");
        let mflops = flops as f64 / s / 1e6;
        assert!((mflops - 1_186.0).abs() < 30.0, "predicted {mflops} Mflops");
    }

    #[test]
    fn imbalance_slows_the_machine() {
        let clock = ModelClock::of(&LOKI);
        let flops = 1_000_000_000u64;
        let balanced = clock.phase_seconds(flops, 0, &[]);
        // One rank holds 25% of all work.
        let skewed = clock.phase_seconds(flops, flops / 4, &[]);
        assert!(skewed > balanced * 3.0);
    }

    #[test]
    fn comm_heavy_phase_prefers_fast_network() {
        let traffic = vec![
            TrafficStats {
                sends: 1000,
                bytes_sent: 50_000_000,
                recvs: 1000,
                bytes_recvd: 50_000_000,
            };
            4
        ];
        let on_loki = ModelClock::of(&LOKI).phase_seconds(0, 0, &traffic);
        let on_red = ModelClock::of(&hot_machine::ASCI_RED_6800).phase_seconds(0, 0, &traffic);
        assert!(on_loki > 5.0 * on_red);
    }

    #[test]
    fn rank_record_roundtrips_on_the_wire() {
        let mut l = Ledger::scratch();
        l.span(Phase::Decomp, |l| l.add(Counter::BodiesExchanged, 42));
        l.span(Phase::Force, |l| {
            l.add(Counter::Flops, 38 * 1000);
            l.add(Counter::PpInteractions, 1000);
        });
        let rec = l.rank_record(3);
        let back: RankRecord = from_bytes(to_bytes(&rec));
        assert_eq!(back, rec);
        assert_eq!(back.spans.len(), 2);
        assert!(back.total_seconds() > 0.0);
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn unbalanced_end_panics() {
        Ledger::scratch().end();
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn rank_record_with_open_span_panics() {
        let mut l = Ledger::scratch();
        l.begin(Phase::Walk);
        let _ = l.rank_record(0);
    }
}

#[cfg(test)]
mod proptests;
