//! Work-weighted domain decomposition.
//!
//! From the paper: *"The domain decomposition is obtained by splitting this
//! \[Morton-ordered\] list into Np pieces. The implementation of the domain
//! decomposition is practically identical to a parallel sorting algorithm,
//! with the modification that the amount of data that ends up in each
//! processor is weighted by the work associated with each item."*
//!
//! This module implements exactly that: a weighted parallel sample sort.
//! Each rank samples its local key distribution at work quantiles, the
//! samples are gathered to rank 0, which derives the `Np − 1` splitting
//! keys at global work quantiles once and broadcasts them, and an
//! all-to-all exchange moves each body to its owner. Each splitting key
//! sits on the coarsest octant boundary within a small slack of its
//! quantile, so a domain is a few whole octants and the branch cells every
//! rank receives are few and coarse. Per-body work weights
//! come from the previous step's interaction counts, so expensive
//! (clustered) regions spread over more processors — the load-balancing
//! mechanism the paper credits for surviving "probably more severe
//! \[imbalance\] than any other conventional computational physics
//! algorithm".
//!
//! # Feedback-driven decomposition across steps
//!
//! The sample sort above re-sorts the whole key space and weights bodies
//! with whatever `work` the caller left in them: it is a step's cold
//! decomposition, and the distributed step sets each body's `work` to the
//! interactions it cost there. Each later step of a multi-step run keeps
//! the previous step's cuts and closes the loop on the same measurement:
//!
//! * [`blend_cost`] — deterministic integer EWMA of per-body cost, fed from
//!   the previous step's measured interaction count. Costs are exact
//!   integers `1..=2^24` stored in `Body::work` (exactly representable in
//!   the `f32`, so the wire format is unchanged).
//! * [`rebalance_traced`] — the incremental repartition: first migrate the
//!   *drift diff* (bodies whose keys left their owner's interval), then
//!   compare the max/mean cost skew against the trigger
//!   ([`REBALANCE_THRESHOLD_MILLI`] in production). Below the trigger the
//!   old [`KeyIntervals`] are reused verbatim; above it,
//!   [`cost_cut_bounds`] moves the interval cut points exactly (integer
//!   cost prefix sums, no sampling) and [`migrate_traced`] ships only the
//!   minimal key-range diff, one [`Body`] bucket per peer through the same
//!   all-to-all the sample sort uses.
//!
//! The exact cuts are a pure function of the global `(key, cost)` multiset,
//! so a forced rebalance lands on bitwise the same intervals and per-rank
//! body sets from any partition of the same bodies (pinned by the property
//! suite).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hot_base::Vec3;
use hot_comm::{Comm, Wire};
use hot_morton::Key;
use hot_trace::{Counter, Ledger, Phase};

/// A particle in flight between ranks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Body<C> {
    /// Morton key at maximum depth.
    pub key: Key,
    /// Position.
    pub pos: Vec3,
    /// Source strength (mass, vortex strength, …).
    pub charge: C,
    /// Relative cost of this body in the previous step (1.0 if unknown).
    pub work: f32,
    /// Stable global identifier.
    pub id: u64,
}

impl<C: Wire> Wire for Body<C> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.key.0);
        self.pos.encode(buf);
        self.charge.encode(buf);
        buf.put_f32_le(self.work);
        buf.put_u64_le(self.id);
    }
    fn decode(buf: &mut Bytes) -> Self {
        let key = Key(buf.get_u64_le());
        let pos = Vec3::decode(buf);
        let charge = C::decode(buf);
        let work = buf.get_f32_le();
        let id = buf.get_u64_le();
        Body { key, pos, charge, work, id }
    }
    fn wire_size(&self) -> usize {
        8 + 24 + self.charge.wire_size() + 4 + 8
    }
}

/// The key intervals owned by each rank: rank `r` owns raw keys in
/// `[bounds[r], bounds[r+1])`; `bounds[0] = 0`, `bounds[np] = u64::MAX`
/// (the maximal key `u64::MAX` itself is owned by the last rank).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyIntervals {
    /// `np + 1` interval boundaries in raw key space.
    pub bounds: Vec<u64>,
}

impl KeyIntervals {
    /// Owner rank of a key.
    pub fn owner(&self, key: Key) -> u32 {
        // partition_point: first boundary > key; minus one = owning interval.
        let i = self.bounds.partition_point(|&b| b <= key.0);
        (i.saturating_sub(1)).min(self.bounds.len() - 2) as u32
    }

    /// Number of ranks.
    pub fn np(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Raw interval `[lo, hi)` of `rank`. The last rank's `hi` is
    /// `u64::MAX` and, exceptionally, inclusive.
    pub fn interval(&self, rank: u32) -> (u64, u64) {
        (self.bounds[rank as usize], self.bounds[rank as usize + 1])
    }

    /// Does `rank` own `key`?
    #[cfg(test)]
    pub fn owns(&self, rank: u32, key: Key) -> bool {
        self.owner(key) == rank
    }

    /// Check the bounds partition the key line in rank order: at least one
    /// rank, `bounds[0] == 0`, `bounds[np] == u64::MAX`, and no bound below
    /// the one before it (equal bounds are legal: that rank is empty).
    pub fn validate(&self) -> Result<(), IntervalError> {
        let b = &self.bounds;
        let np = b.len().saturating_sub(1);
        if np == 0 {
            return Err(IntervalError::NoRanks(b.len()));
        }
        if b[0] != 0 {
            return Err(IntervalError::FirstNotZero(b[0]));
        }
        if b[np] != u64::MAX {
            return Err(IntervalError::LastNotMax(b[np]));
        }
        match (1..=np).find(|&i| b[i] < b[i - 1]) {
            Some(i) => Err(IntervalError::Decreasing(i)),
            None => Ok(()),
        }
    }
}

/// Why [`KeyIntervals::validate`] rejected a set of bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntervalError {
    /// Fewer than two bounds (the count): no rank.
    NoRanks(usize),
    /// `bounds[0]`, which is not 0: the keys below it have no owner.
    FirstNotZero(u64),
    /// `bounds[np]`, which is not `u64::MAX`: the keys above it have no owner.
    LastNotMax(u64),
    /// The first index whose bound is below the bound before it.
    Decreasing(usize),
}

impl std::fmt::Display for IntervalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IntervalError::NoRanks(n) => write!(f, "{n} bounds describe no rank"),
            IntervalError::FirstNotZero(b) => write!(f, "the first bound is {b}, not 0"),
            IntervalError::LastNotMax(b) => write!(f, "the last bound is {b}, not u64::MAX"),
            IntervalError::Decreasing(i) => write!(f, "bound {i} is below bound {}", i - 1),
        }
    }
}

impl std::error::Error for IntervalError {}

/// Decompose bodies across the machine by weighted parallel sample sort.
///
/// Returns this rank's bodies sorted by key, plus the global key intervals.
/// `oversample` controls splitter quality (samples per rank; 32–128 is
/// plenty for the load tolerances the tree cares about).
pub fn decompose<C: Wire + Copy + Send>(
    comm: &mut Comm,
    bodies: Vec<Body<C>>,
    oversample: usize,
) -> (Vec<Body<C>>, KeyIntervals) {
    decompose_traced(comm, bodies, oversample, &mut Ledger::scratch())
}

/// [`decompose`], recording a [`Phase::Decomp`] span into `trace`: bodies
/// received in the exchange, plus the sample gather, splitter broadcast
/// and all-to-all traffic. Collective traffic is bitwise
/// schedule-independent (the schedule checker enforces it), so raw
/// `TrafficStats` deltas are safe here — unlike in the ABM-driven walk.
pub fn decompose_traced<C: Wire + Copy + Send>(
    comm: &mut Comm,
    bodies: Vec<Body<C>>,
    oversample: usize,
    trace: &mut Ledger,
) -> (Vec<Body<C>>, KeyIntervals) {
    sample_sort(comm, bodies, oversample, ALIGN_SLACK_MILLI, trace)
}

/// [`decompose`] with every cut left at its work quantile: for tests that
/// need cuts inside an octant.
#[cfg(test)]
pub(crate) fn decompose_unaligned<C: Wire + Copy + Send>(
    comm: &mut Comm,
    bodies: Vec<Body<C>>,
    oversample: usize,
) -> (Vec<Body<C>>, KeyIntervals) {
    sample_sort(comm, bodies, oversample, 0, &mut Ledger::scratch())
}

/// The sample sort behind [`decompose_traced`], its cuts aligned within
/// `slack_milli` (see [`splitters`]); the test-only `decompose_unaligned`
/// passes 0.
fn sample_sort<C: Wire + Copy + Send>(
    comm: &mut Comm,
    mut bodies: Vec<Body<C>>,
    oversample: usize,
    slack_milli: u64,
    trace: &mut Ledger,
) -> (Vec<Body<C>>, KeyIntervals) {
    trace.begin(Phase::Decomp);
    let wire_before = comm.stats();
    let np = comm.size() as usize;
    bodies.sort_unstable_by_key(|b| b.key);
    if np == 1 {
        trace.end();
        return (bodies, KeyIntervals { bounds: vec![0, u64::MAX] });
    }
    // Rank 0 sees every sample and derives the splitters once; every rank
    // receives the same np + 1 bounds.
    let samples = work_samples(&bodies, oversample.max(4));
    let bounds =
        comm.gather(0, samples).map(|all| splitters(all, slack_milli)).unwrap_or_default();
    let intervals = KeyIntervals { bounds: comm.bcast(0, bounds) };
    debug_assert_eq!(intervals.validate(), Ok(()));

    // Route every body to its owner.
    let mut buckets: Vec<Vec<Body<C>>> = (0..np).map(|_| Vec::new()).collect();
    for b in bodies {
        buckets[intervals.owner(b.key) as usize].push(b);
    }
    let received = comm.alltoall(buckets);
    let mut mine: Vec<Body<C>> = received.into_iter().flatten().collect();
    mine.sort_unstable_by_key(|b| b.key);
    trace.add(Counter::BodiesExchanged, mine.len() as u64);
    trace.add_traffic(&comm.stats().since(&wire_before));
    trace.end();
    (mine, intervals)
}

/// Keys sampled at regular *work* quantiles of a key-sorted local list:
/// `oversample` samples, each standing for `local_work / oversample` units
/// of work. Empty when the rank holds no work.
fn work_samples<C>(bodies: &[Body<C>], oversample: usize) -> Vec<(u64, f64)> {
    let local_work: f64 = bodies.iter().map(|b| b.work as f64).sum();
    let mut samples: Vec<(u64, f64)> = Vec::with_capacity(oversample);
    if !bodies.is_empty() && local_work > 0.0 {
        let step = local_work / oversample as f64;
        let mut next = step * 0.5;
        let mut acc = 0.0;
        for b in bodies {
            acc += b.work as f64;
            while acc > next && samples.len() < oversample {
                samples.push((b.key.0, step));
                next += step;
            }
        }
        while samples.len() < oversample {
            // Guarded by the enclosing non-empty check; a miss is a bug.
            // hot-lint: allow(unwrap-audit)
            samples.push((bodies.last().expect("nonempty").key.0, step));
        }
    }
    samples
}

/// How far [`splitters`] may move a cut off its work quantile to reach a
/// coarser octant boundary, in milli-units of the mean rank weight: half
/// the margin [`REBALANCE_THRESHOLD_MILLI`] tolerates, because each rank
/// has two cuts. A fresh partition is then at most 15 % over the mean,
/// which is what the multi-step trigger already accepts.
const ALIGN_SLACK_MILLI: u64 = (REBALANCE_THRESHOLD_MILLI as u64 - 1000) / 2;

/// The `np + 1` interval bounds at global work quantiles of every rank's
/// samples (`all[r]` is rank `r`'s, so `np = all.len()`). Rank order and
/// the unstable sort make the result a pure function of `all`.
///
/// Cut `r`'s ideal bound is one past the first sample key whose weight
/// prefix reaches `T = r·W/np`. The cut then moves to the coarsest octant
/// boundary ([`aligned_cut`]) between the bounds the same rule gives at
/// `T ∓ slack_milli/1000 · W/np`, so a domain is a few whole octants and
/// its branch cells few and coarse. `slack_milli = 0` keeps the ideal cuts.
fn splitters(all: Vec<Vec<(u64, f64)>>, slack_milli: u64) -> Vec<u64> {
    let np = all.len();
    let mut flat: Vec<(u64, f64)> = all.into_iter().flatten().collect();
    flat.sort_unstable_by_key(|&(k, _)| k);
    let prefix: Vec<f64> = flat
        .iter()
        .scan(0.0, |acc, &(_, w)| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total_weight = prefix.last().copied().unwrap_or(0.0);
    // One past the first sample key whose weight prefix reaches `target`;
    // `u64::MAX` when none does.
    let cut = |target: f64| {
        let i = prefix.partition_point(|&p| p < target);
        flat.get(i).map_or(u64::MAX, |&(k, _)| k.saturating_add(1))
    };

    let mut bounds = vec![u64::MAX; np + 1];
    bounds[0] = 0;
    if total_weight > 0.0 {
        let step = total_weight / np as f64;
        let tol = step * slack_milli as f64 / 1000.0;
        let mut target = 0.0;
        for b in &mut bounds[1..np] {
            target += step;
            *b = aligned_cut(cut(target - tol), cut(target), cut(target + tol));
        }
    }
    // Monotonicity can be violated by duplicate sample keys; repair.
    for i in 1..bounds.len() {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
    }
    bounds
}

/// The octant-aligned cut in the window `[lo, hi]` around `ideal`: a
/// multiple of the largest `2^s`, `s ∈ {63, 60, …, 3, 0}` (a particle key
/// carries its placeholder at bit 63, so a level-`L` octant starts at a
/// multiple of `2^(63−3L)`), and among those the one nearest `ideal`, the
/// lower on a tie. A one-key window returns `ideal`.
fn aligned_cut(lo: u64, ideal: u64, hi: u64) -> u64 {
    debug_assert!(lo <= ideal && ideal <= hi, "window [{lo}, {hi}] misses {ideal}");
    (0..=63u32)
        .rev()
        .step_by(3)
        .find_map(|s| {
            let down = ideal & !((1u64 << s) - 1);
            let up = down.checked_add(1 << s).filter(|&u| u <= hi);
            match (down >= lo, up) {
                (true, Some(u)) if u - ideal < ideal - down => Some(u),
                (true, _) => Some(down),
                (false, up) => up,
            }
        })
        .unwrap_or(ideal)
}

/// Upper bound on a per-body integer cost. `2^24` is the largest range of
/// integers exactly representable in the `f32` `Body::work` carries on the
/// wire — costs never leave that range, so adaptive costs round-trip
/// bit-for-bit through the unchanged wire format.
pub const COST_CAP: u64 = 1 << 24;

/// The skew trigger of a multi-step run, in milli-units *relative to the
/// achievable skew*: [`rebalance_traced`] repartitions when
/// `1000 · skew > threshold · floor`, where `floor = 1 +
/// max_body_cost/mean_rank_cost` is the granularity bound no contiguous
/// cost-quantile split can beat (1150 ⇒ 15% over achievable). At fine
/// grain `floor ≈ 1`, recovering a plain max/mean threshold; at coarse
/// grain the relative form keeps the loop from churning on imbalance that
/// repartitioning cannot fix.
pub const REBALANCE_THRESHOLD_MILLI: u32 = 1150;

/// [`blend_cost`]'s weight on the *previous* cost, in 1/256 units: heavy
/// smoothing (7/8) so measured-cost noise does not bounce the cut points.
pub const COST_SMOOTHING: u64 = 224;

/// Blend a body's previous cost with a fresh measurement, in integer
/// arithmetic: `(s·prev + (256−s)·measured) / 256` with `s =`
/// [`COST_SMOOTHING`], clamped to `1..=`[`COST_CAP`]. Blended costs are
/// therefore bitwise schedule-independent and survive the `f32` round-trip
/// through [`Body::work`] exactly.
pub fn blend_cost(prev: u64, measured: u64) -> u64 {
    let s = COST_SMOOTHING;
    ((s * prev.min(COST_CAP) + (256 - s) * measured.min(COST_CAP)) >> 8).clamp(1, COST_CAP)
}

/// A body's integer cost as the decomposition sees it: the `work` field
/// truncated and clamped to `1..=`[`COST_CAP`]. For bodies whose costs
/// [`blend_cost`] maintains the cast is exact (costs are integers ≤ `COST_CAP` by
/// construction); for caller-supplied fractional weights it is the
/// deterministic floor.
pub fn body_cost<C>(b: &Body<C>) -> u64 {
    (b.work as u64).clamp(1, COST_CAP)
}

/// Cost-quantile targets: rank `r` (1 ≤ r < np) splits at global cost
/// prefix `ceil(total·r/np)`.
fn cost_target(total: u64, np: usize, r: usize) -> u64 {
    let t = (u128::from(total) * r as u128).div_ceil(np as u128);
    t as u64
}

/// Exact integer cost cuts — the serial reference.
///
/// `items` is the *global* `(raw key, cost)` multiset sorted by key;
/// returns the `np + 1` interval bounds that [`cost_cut_bounds`] computes
/// distributively: bound `r` is one past the smallest key whose inclusive
/// cost prefix reaches `ceil(total·r/np)`. Cuts fall only on key
/// boundaries, so equal keys are never split across ranks.
#[cfg(test)]
pub fn cost_cut_bounds_serial(items: &[(u64, u64)], np: usize) -> Vec<u64> {
    debug_assert!(items.windows(2).all(|w| w[0].0 <= w[1].0), "items must be key-sorted");
    let total: u64 = items.iter().map(|&(_, c)| c).sum();
    let mut bounds = vec![u64::MAX; np + 1];
    bounds[0] = 0;
    if total > 0 {
        let mut acc = 0u64;
        let mut r = 1usize;
        let mut i = 0usize;
        while i < items.len() && r < np {
            let k = items[i].0;
            while i < items.len() && items[i].0 == k {
                acc += items[i].1;
                i += 1;
            }
            while r < np && cost_target(total, np, r) <= acc {
                bounds[r] = k.saturating_add(1);
                r += 1;
            }
        }
    }
    for i in 1..=np {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
    }
    bounds[np] = u64::MAX;
    bounds
}

/// Distributed exact integer cost cuts (collective).
///
/// Preconditions (both hold after any ownership-respecting exchange —
/// [`decompose_traced`] or [`migrate_traced`]): `bodies` is key-sorted,
/// every key lives wholly on one rank, and ranks hold ascending key
/// ranges. `totals` is the allgathered per-rank cost sum (`totals[r]` =
/// rank `r`'s [`body_cost`] sum), which the caller typically already has
/// from the skew check.
///
/// Each rank resolves the cut targets that fall inside its own cost
/// prefix range by scanning its equal-key groups, then one allgather
/// assembles the bounds — no sampling, no bisection, and the result is a
/// pure function of the global `(key, cost)` multiset (bitwise equal to
/// the test-only serial reference `cost_cut_bounds_serial` on the gathered
/// multiset; pinned by the property suite).
pub fn cost_cut_bounds<C>(comm: &mut Comm, bodies: &[Body<C>], totals: &[u64]) -> KeyIntervals {
    let np = comm.size() as usize;
    let rank = comm.rank() as usize;
    debug_assert_eq!(totals.len(), np);
    let total: u64 = totals.iter().sum();
    let offset: u64 = totals[..rank].iter().sum();

    // Resolve the targets in (offset, offset + local] against the local
    // inclusive cost prefix, advancing one equal-key group at a time so
    // cuts land only on key boundaries.
    let mut cands: Vec<(u32, u64)> = Vec::new();
    if total > 0 {
        let mut r = 1usize;
        while r < np && cost_target(total, np, r) <= offset {
            r += 1;
        }
        let mut acc = offset;
        let mut i = 0usize;
        while i < bodies.len() && r < np {
            let k = bodies[i].key;
            while i < bodies.len() && bodies[i].key == k {
                acc += body_cost(&bodies[i]);
                i += 1;
            }
            while r < np && cost_target(total, np, r) <= acc {
                cands.push((r as u32, k.0.saturating_add(1)));
                r += 1;
            }
        }
    }

    let all: Vec<Vec<(u32, u64)>> = comm.allgather(cands);
    let mut bounds = vec![u64::MAX; np + 1];
    bounds[0] = 0;
    for (r, b) in all.into_iter().flatten() {
        debug_assert_eq!(bounds[r as usize], u64::MAX, "cut {r} resolved twice");
        bounds[r as usize] = b;
    }
    for i in 1..=np {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
    }
    bounds[np] = u64::MAX;
    let intervals = KeyIntervals { bounds };
    debug_assert_eq!(intervals.validate(), Ok(()));
    intervals
}

/// Migrate the minimal key-range diff (collective): bodies already owned
/// under `intervals` stay put; the rest move through one
/// [`Comm::alltoall`], the exchange [`decompose_traced`] uses. A scalar
/// allreduce first skips the exchange when no body anywhere changed owner.
/// `alltoall`'s per-source slots and the final `(key, id)` sort make the
/// merge independent of arrival order. Records [`Counter::MigratedBodies`]
/// / [`Counter::MigratedBytes`] (non-empty arriving batches) and the raw
/// traffic delta into the current span of `trace`.
pub fn migrate_traced<C: Wire + Copy + Send>(
    comm: &mut Comm,
    bodies: Vec<Body<C>>,
    intervals: &KeyIntervals,
    trace: &mut Ledger,
) -> Vec<Body<C>> {
    let np = comm.size() as usize;
    let rank = comm.rank() as usize;
    let wire_before = comm.stats();

    let n = bodies.len();
    let mut buckets: Vec<Vec<Body<C>>> = (0..np).map(|_| Vec::new()).collect();
    for b in bodies {
        buckets[intervals.owner(b.key) as usize].push(b);
    }
    let moving = (n - buckets[rank].len()) as u64;
    let mut mine: Vec<Body<C>> = if comm.allreduce_sum_u64(moving) == 0 {
        std::mem::take(&mut buckets[rank])
    } else {
        let received = comm.alltoall(buckets);
        for (src, batch) in received.iter().enumerate() {
            if src != rank && !batch.is_empty() {
                trace.add(Counter::MigratedBodies, batch.len() as u64);
                trace.add(Counter::MigratedBytes, batch.wire_size() as u64);
            }
        }
        received.into_iter().flatten().collect()
    };
    mine.sort_unstable_by_key(|b| (b.key, b.id));
    trace.add_traffic(&comm.stats().since(&wire_before));
    mine
}

/// Outcome of one [`rebalance_traced`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rebalance {
    /// The skew trigger fired and the interval cuts moved.
    pub repartitioned: bool,
    /// Measured max/mean cost skew (milli-units) *before* any repartition,
    /// after the drift migration. 1000 = perfectly balanced.
    pub skew_milli: u64,
}

/// Incremental feedback-driven repartition (collective), recording one
/// [`Phase::Decomp`] span.
///
/// 1. **Drift diff** — migrate bodies whose (re-keyed) positions left
///    their owner's interval, so ownership matches `intervals` again
///    ([`migrate_traced`]: one scalar allreduce when nothing moved, else
///    one all-to-all).
/// 2. **Skew check** — three scalar allreduces (cost sum, per-rank max,
///    single-body max) compute the max/mean skew and the granularity
///    floor `1 + max_body/mean` in milli-units; the full per-rank totals
///    vector is *not* gathered here.
/// 3. At `1000·skew ≤ threshold_milli·floor`: reuse `intervals`
///    **verbatim** (the returned struct is bitwise the input). Above:
///    allgather the totals (the cut-point search needs the vector), move
///    the cut points with [`cost_cut_bounds`] and migrate the minimal
///    diff, counting one [`Counter::RebalanceSteps`]. Comparing against
///    the achievable floor rather than an absolute skew keeps the loop
///    quiescent once it is within the threshold factor of the best any
///    contiguous cost-quantile split can do — repartitioning past that
///    point only churns bodies.
pub fn rebalance_traced<C: Wire + Copy + Send>(
    comm: &mut Comm,
    bodies: Vec<Body<C>>,
    intervals: KeyIntervals,
    threshold_milli: u32,
    trace: &mut Ledger,
) -> (Vec<Body<C>>, KeyIntervals, Rebalance) {
    trace.begin(Phase::Decomp);
    let mine = migrate_traced(comm, bodies, &intervals, trace);

    let wire_before = comm.stats();
    let np = comm.size() as usize;
    let local: u64 = mine.iter().map(body_cost).sum();
    // The trigger needs only global scalars (cost sum, per-rank max,
    // single-body max): three scalar allreduces instead of an
    // O(np²)-byte allgather every step.
    let total = comm.allreduce_sum_u64(local);
    let max = comm.allreduce(local, u64::max);
    let max_body = comm.allreduce(mine.iter().map(body_cost).max().unwrap_or(0), u64::max);
    let milli_of = |v: u64| -> u64 {
        if total == 0 {
            1000
        } else {
            (u128::from(v) * 1000 * np as u128 / u128::from(total)) as u64
        }
    };
    let skew_milli = milli_of(max);
    // Any contiguous cost-quantile chunk is bounded by mean + one body, so
    // no repartition can push the skew below ~1 + max_body/mean.
    let floor_milli = if total == 0 { 1000 } else { 1000 + milli_of(max_body) };

    let repartition =
        u128::from(skew_milli) * 1000 > u128::from(threshold_milli) * u128::from(floor_milli);
    let (mine, intervals) = if repartition {
        let totals: Vec<u64> = comm.allgather(local);
        let new_iv = cost_cut_bounds(comm, &mine, &totals);
        trace.add(Counter::RebalanceSteps, 1);
        trace.add_traffic(&comm.stats().since(&wire_before));
        let mine = migrate_traced(comm, mine, &new_iv, trace);
        (mine, new_iv)
    } else {
        trace.add_traffic(&comm.stats().since(&wire_before));
        (mine, intervals)
    };
    debug_assert_eq!(intervals.validate(), Ok(()));
    trace.end();
    (mine, intervals, Rebalance { repartitioned: repartition, skew_milli })
}

#[cfg(test)]
mod tests {
    use hot_comm::RunConfig;
    use super::*;
    use hot_base::Aabb;
    use rand::{Rng, SeedableRng};

    fn make_bodies(rank: u32, n: usize, seed: u64) -> Vec<Body<f64>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + rank as u64);
        (0..n)
            .map(|i| {
                let pos = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                Body {
                    key: Key::from_point(pos, &Aabb::unit()),
                    pos,
                    charge: 1.0,
                    work: 1.0,
                    id: rank as u64 * 1_000_000 + i as u64,
                }
            })
            .collect()
    }

    #[test]
    fn body_wire_roundtrip() {
        let b = Body { key: Key(123), pos: Vec3::new(1.0, 2.0, 3.0), charge: 4.5f64, work: 2.0, id: 99 };
        let back: Body<f64> = hot_comm::from_bytes(hot_comm::to_bytes(&b));
        assert_eq!(back, b);
    }

    #[test]
    fn interval_owner_logic() {
        let iv = KeyIntervals { bounds: vec![0, 100, 200, u64::MAX] };
        assert_eq!(iv.np(), 3);
        assert_eq!(iv.owner(Key(0)), 0);
        assert_eq!(iv.owner(Key(99)), 0);
        assert_eq!(iv.owner(Key(100)), 1);
        assert_eq!(iv.owner(Key(199)), 1);
        assert_eq!(iv.owner(Key(200)), 2);
        assert_eq!(iv.owner(Key(u64::MAX)), 2, "max key belongs to last rank");
        assert!(iv.owns(1, Key(150)));
        assert!(!iv.owns(0, Key(150)));
    }

    #[test]
    fn decompose_preserves_and_sorts() {
        for np in [1u32, 2, 4, 7] {
            let per_rank = 500;
            let out = RunConfig::builder().np(np).run(move |c| {
                let bodies = make_bodies(c.rank(), per_rank, 42);
                let (mine, iv) = decompose(c, bodies, 32);
                // Sorted and all owned by me.
                assert!(mine.windows(2).all(|w| w[0].key <= w[1].key));
                for b in &mine {
                    assert!(iv.owns(c.rank(), b.key), "body {b:?} not owned");
                }
                (mine.len(), mine.iter().map(|b| b.id).collect::<Vec<_>>(), iv)
            });
            // Global conservation of bodies.
            let total: usize = out.results.iter().map(|(n, _, _)| n).sum();
            assert_eq!(total, np as usize * per_rank, "np={np}");
            let mut all_ids: Vec<u64> =
                out.results.iter().flat_map(|(_, ids, _)| ids.clone()).collect();
            all_ids.sort_unstable();
            all_ids.dedup();
            assert_eq!(all_ids.len(), np as usize * per_rank, "ids lost or duplicated");
            // All ranks agree on the intervals, and they partition the key
            // line.
            let iv0 = &out.results[0].2;
            assert_eq!(iv0.validate(), Ok(()), "np={np}");
            for (_, _, iv) in &out.results {
                assert_eq!(iv, iv0);
            }
        }
    }

    /// The derivation `decompose` ran before rank 0 took it over, kept as
    /// the oracle: every rank all-gathers every sample and derives the
    /// bounds itself, by one scan of the weight prefix per window edge.
    fn splitters_every_rank(comm: &mut Comm, samples: Vec<(u64, f64)>) -> Vec<u64> {
        let np = comm.size() as usize;
        let all: Vec<Vec<(u64, f64)>> = comm.allgather(samples);
        let mut flat: Vec<(u64, f64)> = all.into_iter().flatten().collect();
        flat.sort_unstable_by_key(|&(k, _)| k);
        let total_weight: f64 = flat.iter().map(|&(_, w)| w).sum();
        // Cut r at target `r·W/np + offset`, r = 1..np: one past the first
        // sample key whose weight prefix reaches it.
        let quantiles = |offset: f64| {
            let mut cuts = Vec::with_capacity(np - 1);
            let mut acc = 0.0;
            let mut next_cut = total_weight / np as f64;
            for &(k, w) in &flat {
                acc += w;
                while acc >= next_cut + offset && cuts.len() < np - 1 {
                    cuts.push(k.saturating_add(1));
                    next_cut += total_weight / np as f64;
                }
            }
            cuts.resize(np - 1, u64::MAX);
            cuts
        };

        let mut bounds = vec![0u64];
        if total_weight > 0.0 {
            let tol = total_weight / np as f64 * ALIGN_SLACK_MILLI as f64 / 1000.0;
            let (lo, ideal, hi) = (quantiles(-tol), quantiles(0.0), quantiles(tol));
            bounds.extend((0..np - 1).map(|r| aligned_cut(lo[r], ideal[r], hi[r])));
        }
        bounds.resize(np + 1, u64::MAX);
        for i in 1..bounds.len() {
            if bounds[i] < bounds[i - 1] {
                bounds[i] = bounds[i - 1];
            }
        }
        bounds
    }

    /// `aligned_cut` by definition, over every value of a small window:
    /// the coarsest octant boundary, then the nearest to `ideal`, then the
    /// lower.
    fn brute_aligned_cut(lo: u64, ideal: u64, hi: u64) -> u64 {
        // The largest `s ∈ {0, 3, …, 63}` with `2^s` dividing `v`.
        let coarseness = |v: u64| v.trailing_zeros().min(63) / 3 * 3;
        (lo..=hi)
            .min_by_key(|&v| (std::cmp::Reverse(coarseness(v)), v.abs_diff(ideal), v))
            .expect("a window holds its ideal")
    }

    #[test]
    fn aligned_cut_matches_brute_force_on_small_windows() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let mut windows = vec![
            // Around the root's own start, the one multiple of 2^63 a key
            // can reach, and up against the top of the key line.
            ((1 << 63) - 300, (1 << 63) + 5, (1 << 63) + 300),
            (u64::MAX - 700, u64::MAX - 20, u64::MAX),
        ];
        for _ in 0..2000 {
            // A window near a boundary of random coarseness, so that every
            // level from single keys up to level-1 octants gets picked.
            let s = 3 * rng.gen_range(0..21u32);
            let anchor = ((rng.gen::<u64>() | 1 << 63) >> s) << s;
            let lo = anchor.saturating_sub(rng.gen_range(0..400));
            let hi = lo.saturating_add(rng.gen_range(0..800));
            windows.push((lo, lo + rng.gen_range(0..hi - lo + 1), hi));
        }
        for (lo, ideal, hi) in windows {
            let got = aligned_cut(lo, ideal, hi);
            assert_eq!(got, brute_aligned_cut(lo, ideal, hi), "window [{lo}, {hi}] ideal {ideal}");
            assert!((lo..=hi).contains(&got));
            assert_eq!(aligned_cut(ideal, ideal, ideal), ideal, "a one-key window keeps its ideal");
        }
    }

    /// One rank's bodies for the oracle sweep: `uniform`; `skewed`, ten
    /// times the work in the root's first octant; `identical`, every body
    /// on one point. With `some_empty`, every third rank (rank 0 among
    /// them) starts with none.
    fn oracle_bodies(input: &str, some_empty: bool, rank: u32) -> Vec<Body<f64>> {
        if some_empty && rank.is_multiple_of(3) {
            return Vec::new();
        }
        let mut bodies = make_bodies(rank, 40, 61);
        for b in &mut bodies {
            match input {
                "skewed" if (b.key.0 >> 60) & 7 == 0 => b.work = 10.0,
                "identical" => {
                    b.pos = Vec3::splat(0.5);
                    b.key = Key::from_point(b.pos, &Aabb::unit());
                }
                _ => {}
            }
        }
        bodies
    }

    #[test]
    fn splitters_from_rank_zero_match_the_every_rank_oracle() {
        for seed in [1u64, 2, 3] {
            for np in [1u32, 2, 3, 5, 16, 17, 128] {
                for input in ["uniform", "skewed", "identical"] {
                    for some_empty in [false, true] {
                        let out = RunConfig::builder().np(np).event_seed(seed).run(move |c| {
                            let bodies = oracle_bodies(input, some_empty, c.rank());
                            let mut sorted = bodies.clone();
                            sorted.sort_unstable_by_key(|b| b.key);
                            let want = splitters_every_rank(c, work_samples(&sorted, 16));
                            let (mine, iv) = decompose(c, bodies, 16);
                            let mut ids: Vec<u64> = mine.iter().map(|b| b.id).collect();
                            ids.sort_unstable();
                            (KeyIntervals { bounds: want }, iv, ids)
                        });
                        let tag = format!("seed={seed} np={np} {input} some_empty={some_empty}");
                        let oracle = &out.results[0].0;
                        assert_eq!(oracle.validate(), Ok(()), "{tag}");
                        let mut want_ids = vec![Vec::new(); np as usize];
                        for b in (0..np).flat_map(|r| oracle_bodies(input, some_empty, r)) {
                            want_ids[oracle.owner(b.key) as usize].push(b.id);
                        }
                        for (rank, (want, iv, ids)) in out.results.iter().enumerate() {
                            assert_eq!(want, oracle, "{tag} rank={rank}: the oracle disagrees");
                            assert_eq!(iv, oracle, "{tag} rank={rank}: bounds differ from the oracle");
                            want_ids[rank].sort_unstable();
                            assert_eq!(ids, &want_ids[rank], "{tag} rank={rank}: body set differs");
                        }
                    }
                }
            }
        }
    }

    /// At the ASCI Red grain (np = 128 × 32 uniform bodies, 64 samples a
    /// rank) aligned cuts at least halve the top tree every rank holds,
    /// and no rank's sample weight exceeds the mean by more than the two
    /// slacks plus one sample.
    #[test]
    fn aligned_cuts_shrink_the_branch_set() {
        use crate::dtree::DistTree;
        use crate::moments::MassMoments;
        use crate::tree::Tree;
        const NP: u32 = 128;
        let out = RunConfig::builder().np(NP).run(|c| {
            let bodies = make_bodies(c.rank(), 32, 1997);
            let mut sorted = bodies.clone();
            sorted.sort_unstable_by_key(|b| b.key);
            let samples = work_samples(&sorted, 64);
            let nodes = |c: &mut Comm, (mine, iv): (Vec<Body<f64>>, KeyIntervals)| {
                assert_eq!(iv.validate(), Ok(()));
                let pos: Vec<Vec3> = mine.iter().map(|b| b.pos).collect();
                let q: Vec<f64> = mine.iter().map(|b| b.charge).collect();
                let tree = Tree::<MassMoments>::build(Aabb::unit(), &pos, &q, 8);
                let dt = DistTree::build(c, tree, iv.clone());
                assert_eq!(dt.local.validate(), Ok(()));
                (dt.nodes.len(), iv)
            };
            let aligned = decompose(c, bodies.clone(), 64);
            let aligned = nodes(c, aligned);
            let unaligned = decompose_unaligned(c, bodies, 64);
            let unaligned = nodes(c, unaligned);
            (aligned, unaligned, samples)
        });
        let ((aligned, iv), (unaligned, _), _) = &out.results[0];
        assert!(2 * aligned <= *unaligned, "{aligned} aligned vs {unaligned} unaligned top-tree nodes");

        let samples: Vec<(u64, f64)> = out.results.iter().flat_map(|r| r.2.clone()).collect();
        let total: f64 = samples.iter().map(|&(_, w)| w).sum();
        let heaviest = samples.iter().map(|&(_, w)| w).fold(0.0, f64::max);
        let mut weight = vec![0.0; NP as usize];
        for &(k, w) in &samples {
            weight[iv.owner(Key(k)) as usize] += w;
        }
        let cap = (1000 + 2 * ALIGN_SLACK_MILLI) as f64 / 1000.0 * total / f64::from(NP) + heaviest;
        for (rank, &w) in weight.iter().enumerate() {
            assert!(w <= cap, "rank {rank}: sample weight {w} over {cap}");
        }
    }

    #[test]
    fn uniform_work_is_balanced() {
        let np = 4u32;
        let per_rank = 2000;
        let out = RunConfig::builder().np(np).run(move |c| {
            let bodies = make_bodies(c.rank(), per_rank, 7);
            let (mine, _) = decompose(c, bodies, 64);
            mine.len()
        });
        let avg = per_rank as f64;
        for &n in &out.results {
            assert!(
                (n as f64) > avg * 0.7 && (n as f64) < avg * 1.3,
                "imbalanced: {n} vs avg {avg}: {:?}",
                out.results
            );
        }
    }

    #[test]
    fn heavy_work_region_gets_fewer_bodies() {
        // Bodies in the low-key octant carry 10x work. The rank(s) owning
        // that region should end up with substantially fewer bodies.
        let np = 4u32;
        let per_rank = 2000;
        let out = RunConfig::builder().np(np).run(move |c| {
            let mut bodies = make_bodies(c.rank(), per_rank, 3);
            for b in &mut bodies {
                // Octant 0 of the root = top 3 digit bits are 000.
                if (b.key.0 >> 60) & 7 == 0 {
                    b.work = 10.0;
                }
            }
            let (mine, _) = decompose(c, bodies, 64);
            let work: f64 = mine.iter().map(|b| b.work as f64).sum();
            (mine.len(), work)
        });
        // Work should be balanced...
        let works: Vec<f64> = out.results.iter().map(|&(_, w)| w).collect();
        let avg_w: f64 = works.iter().sum::<f64>() / np as f64;
        for &w in &works {
            assert!(w > avg_w * 0.6 && w < avg_w * 1.4, "work imbalance: {works:?}");
        }
        // ...which forces body-count imbalance.
        let counts: Vec<usize> = out.results.iter().map(|&(n, _)| n).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max as f64 > 1.5 * min as f64, "counts should skew: {counts:?}");
    }

    #[test]
    fn empty_ranks_tolerated() {
        // Rank 0 holds everything initially.
        let np = 3u32;
        let out = RunConfig::builder().np(np).run(|c| {
            let bodies =
                if c.rank() == 0 { make_bodies(0, 900, 5) } else { Vec::new() };
            let (mine, _) = decompose(c, bodies, 32);
            mine.len()
        });
        let total: usize = out.results.iter().sum();
        assert_eq!(total, 900);
        // Everyone got a decent share.
        for &n in &out.results {
            assert!(n > 100, "rank starved: {:?}", out.results);
        }
    }

    #[test]
    fn blend_cost_is_clamped_and_exact() {
        // 224/256 on the previous cost, 32/256 on the measurement, floored.
        assert_eq!(blend_cost(256, 0), 224);
        assert_eq!(blend_cost(0, 256), 32);
        assert_eq!(blend_cost(100, 200), 112);
        assert_eq!(blend_cost(0, 0), 1, "cost floor");
        assert_eq!(blend_cost(u64::MAX, u64::MAX), COST_CAP, "cost cap");
        // Every blend result survives the f32 round-trip exactly.
        for &(p, me) in &[(1u64, COST_CAP), (12345, 678), (COST_CAP, 1)] {
            let c = blend_cost(p, me);
            assert_eq!(c as f32 as u64, c);
        }
    }

    fn costed_bodies(rank: u32, n: usize, seed: u64) -> Vec<Body<f64>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + rank as u64);
        let mut bodies = make_bodies(rank, n, seed);
        for b in &mut bodies {
            b.work = rng.gen_range(1u32..5000) as f32;
        }
        bodies
    }

    #[test]
    fn distributed_cost_cuts_match_the_serial_reference() {
        for np in [1u32, 2, 3, 5] {
            let out = RunConfig::builder().np(np).run(move |c| {
                let bodies = costed_bodies(c.rank(), 300, 11);
                // Co-locate equal keys first (precondition).
                let (mine, _) = decompose(c, bodies, 32);
                let local: u64 = mine.iter().map(body_cost).sum();
                let totals: Vec<u64> = c.allgather(local);
                let iv = cost_cut_bounds(c, &mine, &totals);
                let items: Vec<(u64, u64)> =
                    mine.iter().map(|b| (b.key.0, body_cost(b))).collect();
                (iv, c.allgather(items))
            });
            // Serial reference over the gathered global multiset.
            let global: Vec<(u64, u64)> = {
                let mut g: Vec<(u64, u64)> =
                    out.results[0].1.iter().flatten().copied().collect();
                g.sort_unstable();
                g
            };
            let want = cost_cut_bounds_serial(&global, np as usize);
            for (iv, _) in &out.results {
                assert_eq!(iv.bounds, want, "np={np}");
                assert_eq!(iv.validate(), Ok(()), "np={np}");
            }
        }
    }

    /// Migration ships only the bodies whose owner changed, and its
    /// traffic is one bucket from every peer: no per-pair counts exchange.
    #[test]
    fn migration_moves_only_the_diff() {
        // A `Vec<Body<f64>>` on the wire: an 8-byte length, then per body
        // key 8 + position 24 + charge 8 + work 4 + id 8 bytes.
        const VEC_BYTES: u64 = 8;
        const BODY_BYTES: u64 = 52;
        for np in [4u32, 64] {
            let out = RunConfig::builder().np(np).run(move |c| {
                let bodies = costed_bodies(c.rank(), 400, 23);
                let (mine, iv) = decompose(c, bodies, 32);
                assert_eq!(mine[0].wire_size() as u64, BODY_BYTES);
                // Re-migrating to the same intervals is a no-op: the fast
                // path's scalar allreduce and nothing else.
                let mut before: Vec<u64> = mine.iter().map(|b| b.id).collect();
                let mut trace = Ledger::scratch();
                let wire = c.stats();
                let again = migrate_traced(c, mine, &iv, &mut trace);
                let allreduce_recvd = c.stats().since(&wire).bytes_recvd;
                let mut after: Vec<u64> = again.iter().map(|b| b.id).collect();
                before.sort_unstable();
                after.sort_unstable();
                assert_eq!(before, after, "no-op migration changed ownership");
                let shipped = trace.totals().get(Counter::MigratedBodies);
                assert_eq!(shipped, 0, "no-op migration shipped bodies");
                // Now shift every cut point and count what actually moves.
                let mut shifted = iv.clone();
                for b in &mut shifted.bounds[1..np as usize] {
                    *b = b.saturating_add(1 << 58);
                }
                let departures =
                    again.iter().filter(|b| shifted.owner(b.key) != c.rank()).count() as u64;
                let n0 = again.len() as u64;
                let mut trace2 = Ledger::scratch();
                let wire = c.stats();
                let moved = migrate_traced(c, again, &shifted, &mut trace2);
                let recvd = c.stats().since(&wire).bytes_recvd;
                // arrivals = final − (initial − departures)
                let arrivals = moved.len() as u64 + departures - n0;
                assert_eq!(
                    trace2.totals().get(Counter::MigratedBodies),
                    arrivals,
                    "migration counter disagrees with arrivals"
                );
                assert_eq!(
                    recvd,
                    allreduce_recvd + u64::from(np - 1) * VEC_BYTES + arrivals * BODY_BYTES,
                    "np={np} rank={}: bytes received beyond the allreduce and the buckets",
                    c.rank()
                );
                arrivals
            });
            // At least one rank must actually have received something.
            assert!(out.results.iter().sum::<u64>() > 0, "np={np}: shifted cuts moved nothing");
        }
    }

    #[test]
    fn interval_validation_names_the_first_bad_bound() {
        let check = |bounds: Vec<u64>| KeyIntervals { bounds }.validate();
        assert_eq!(check(vec![0, 100, 100, 200, u64::MAX]), Ok(()), "an empty rank is legal");
        assert_eq!(check(vec![0, u64::MAX]), Ok(()));
        assert_eq!(check(vec![0]), Err(IntervalError::NoRanks(1)));
        assert_eq!(check(vec![5, 100, u64::MAX]), Err(IntervalError::FirstNotZero(5)));
        assert_eq!(check(vec![0, 100, 7]), Err(IntervalError::LastNotMax(7)));
        assert_eq!(check(vec![0, 300, 200, 100, u64::MAX]), Err(IntervalError::Decreasing(2)));
    }

    #[test]
    fn rebalance_below_threshold_reuses_intervals_verbatim() {
        let np = 3u32;
        let out = RunConfig::builder().np(np).run(move |c| {
            let bodies = make_bodies(c.rank(), 500, 31); // uniform work = 1
            let (mine, iv) = decompose(c, bodies, 64);
            let mut trace = Ledger::scratch();
            let (mine2, iv2, r) =
                rebalance_traced(c, mine, iv.clone(), 2000, &mut trace);
            assert!(!r.repartitioned, "uniform costs must not trigger at 2x threshold");
            assert_eq!(iv2, iv, "intervals must be reused verbatim");
            assert!(r.skew_milli >= 1000, "max/mean is at least 1");
            assert_eq!(trace.totals().get(Counter::RebalanceSteps), 0);
            mine2.len()
        });
        assert_eq!(out.results.iter().sum::<usize>(), 3 * 500);
    }

    /// A forced rebalance (threshold 0) from a deliberately bad partition,
    /// equal key ranges the bodies do not even respect yet, lands on the
    /// exact cost cuts of the global multiset and on the body sets they
    /// give.
    #[test]
    fn forced_rebalance_lands_on_the_exact_cost_cuts() {
        let np = 4u32;
        let out = RunConfig::builder().np(np).run(move |c| {
            let bodies = costed_bodies(c.rank(), 350, 47);
            let step = u64::MAX / np as u64;
            let iv = KeyIntervals {
                bounds: (0..np as u64).map(|r| r * step).chain(std::iter::once(u64::MAX)).collect(),
            };
            let (mine, iv2, r) = rebalance_traced(c, bodies, iv, 0, &mut Ledger::scratch());
            assert!(r.repartitioned);
            (mine.iter().map(|b| (b.key.0, b.id)).collect::<Vec<_>>(), iv2)
        });
        let all: Vec<Body<f64>> = (0..np).flat_map(|r| costed_bodies(r, 350, 47)).collect();
        let mut global: Vec<(u64, u64)> = all.iter().map(|b| (b.key.0, body_cost(b))).collect();
        global.sort_unstable();
        let want = cost_cut_bounds_serial(&global, np as usize);
        for (rank, (ids, iv)) in out.results.iter().enumerate() {
            assert_eq!(iv.bounds, want, "rank {rank}");
            let mut owned: Vec<(u64, u64)> =
                all.iter().filter(|b| iv.owner(b.key) == rank as u32).map(|b| (b.key.0, b.id)).collect();
            owned.sort_unstable();
            assert_eq!(ids, &owned, "rank {rank}: body set");
        }
    }

    #[test]
    fn all_identical_keys_degenerate() {
        // Every body at the same point: splitters collapse; one rank owns
        // them all, nothing is lost, nobody deadlocks.
        let np = 3u32;
        let out = RunConfig::builder().np(np).run(|c| {
            let bodies: Vec<Body<f64>> = (0..100)
                .map(|i| Body {
                    key: Key::from_point(Vec3::splat(0.5), &Aabb::unit()),
                    pos: Vec3::splat(0.5),
                    charge: 1.0,
                    work: 1.0,
                    id: c.rank() as u64 * 1000 + i,
                })
                .collect();
            let (mine, _) = decompose(c, bodies, 16);
            mine.len()
        });
        let total: usize = out.results.iter().sum();
        assert_eq!(total, 300);
    }
}
