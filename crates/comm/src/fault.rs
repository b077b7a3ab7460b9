//! Deterministic fault injection for the simulated transport.
//!
//! The paper's machines were not polite: Loki and Hyglac ran MPI over
//! fast ethernet that drops, delays and reorders packets, and a multi-hour
//! ASCI Red run sees transient node stalls. A [`FaultPlan`] reproduces that
//! hostility *deterministically*: every fault decision is a pure function
//! of the plan's seed and the message's flow identity `(src, dst, seq,
//! attempt)`, never of wall-clock or arrival interleaving — so a failing
//! fault run replays exactly from its seed, the same way a seeded
//! schedule (`RunConfigBuilder::event_seed`) replays.
//!
//! The plan decides; the reliable transport in [`crate::reliable`] recovers.
//! `hot-analyze faults` crosses fault seeds with seeded schedules and
//! asserts results stay bitwise identical to a fault-free run.

use std::sync::{Arc, Mutex};

/// Per-run fault-injection rates and bounds. All probabilities are in
/// `[0, 1]` and evaluated independently per frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Probability a frame is dropped on the wire.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is held back (reordering past later traffic).
    pub delay: f64,
    /// Maximum hold-back in subsequent-delivery slots (bounded delay; the
    /// transport may force-release a held frame once a receiver needs it).
    pub max_delay_slots: u32,
    /// Probability exactly one bit of the frame is flipped in flight.
    pub corrupt: f64,
    /// Probability a rank stalls transiently at a channel operation.
    pub stall: f64,
    /// A frame is injected with faults at most this many times; the
    /// retransmission after that is delivered clean. Bounds recovery work
    /// so every run terminates (a real network's loss bursts are finite
    /// too).
    pub max_faults_per_frame: u32,
    /// Probability a rank is killed (crash-stop) during the run. Unlike a
    /// stall, a killed rank never comes back: it silently stops sending
    /// and acking, exactly like a node losing power mid-job.
    pub kill: f64,
    /// Model-clock window `[lo, hi)` (in per-rank channel-operation
    /// counts) a seeded kill time is drawn from. Channel-op counts are a
    /// schedule-independent clock: the same program reaches op `t` at the
    /// same logical point under every interleaving.
    pub kill_window: (u64, u64),
}

impl FaultConfig {
    /// A fault-free plan (all rates zero) under `seed`. Useful for
    /// measuring the overhead of the reliability machinery itself.
    #[must_use]
    pub fn clean(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay_slots: 0,
            corrupt: 0.0,
            stall: 0.0,
            max_faults_per_frame: 3,
            kill: 0.0,
            kill_window: (0, 0),
        }
    }

    /// The hostile defaults `hot-analyze faults` runs under: every fault
    /// class at ≥ 10%, bounded delay of 4 slots.
    #[must_use]
    pub fn hostile(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop: 0.15,
            duplicate: 0.15,
            delay: 0.15,
            max_delay_slots: 4,
            corrupt: 0.10,
            stall: 0.10,
            max_faults_per_frame: 3,
            // Hostile plans stay crash-free: every message-level fault is
            // recoverable in-run, so `hot-analyze faults` can demand the
            // run *completes* bitwise-identically. Kills abort the run and
            // need a supervisor; they are armed explicitly.
            kill: 0.0,
            kill_window: (0, 0),
        }
    }

    /// A crash-stop plan: no message-level faults, but each rank dies with
    /// probability `kill` at a seeded model-clock op in `window`. Used by
    /// `hot-analyze kills` to cross kill plans with seeded schedules.
    #[must_use]
    pub fn lethal(seed: u64, kill: f64, window: (u64, u64)) -> FaultConfig {
        FaultConfig { kill, kill_window: window, ..FaultConfig::clean(seed) }
    }

    /// True when this configuration can kill ranks (seeded kills enabled).
    /// Targeted kills added via [`FaultPlan::with_rank_kill_at_op`] /
    /// [`FaultPlan::with_rank_kill_at_epoch`] arm the plan too — see
    /// [`FaultPlan::kill_armed`].
    #[must_use]
    pub fn kills_enabled(&self) -> bool {
        self.kill > 0.0 && self.kill_window.1 > self.kill_window.0
    }
}

/// `Default` is the fault-free configuration under seed 0 —
/// [`FaultConfig::clean`]`(0)`; set other fields with struct-update syntax
/// (`FaultConfig { drop: 0.1, ..FaultConfig::default() }`).
impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::clean(0)
    }
}

/// What the plan decided for one `(src, dst, seq, attempt)` frame
/// transmission. At most one wire fault applies per attempt — like a real
/// network, a packet is lost *or* corrupted *or* delayed, and duplication
/// rides alongside whichever copy survives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// Do not deliver this attempt at all.
    pub drop: bool,
    /// Deliver a second copy of this attempt.
    pub duplicate: bool,
    /// Flip this bit index (modulo frame length) in the delivered copy.
    pub corrupt_bit: Option<u64>,
    /// Hold the frame for this many delivery slots before releasing it.
    pub delay_slots: u32,
}

/// A targeted, test-oriented injection: fault exactly one identified frame.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Targeted {
    src: u32,
    dst: u32,
    seq: u64,
    decision: FaultDecision,
}

/// Counts of faults the plan actually injected (not merely configured).
/// Used by checkers to reject vacuous passes: a fault run that injected
/// nothing proves nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Frames dropped.
    pub drops: u64,
    /// Extra copies delivered.
    pub duplicates: u64,
    /// Frames with a bit flipped.
    pub corruptions: u64,
    /// Frames held back.
    pub delays: u64,
    /// Rank stalls injected.
    pub stalls: u64,
    /// Ranks killed (crash-stop).
    pub kills: u64,
}

impl InjectedFaults {
    /// Total injected fault events.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.drops + self.duplicates + self.corruptions + self.delays + self.stalls + self.kills
    }
}

/// Where in a rank's execution a kill fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillSite {
    /// At the rank's n-th channel operation (seeded or op-targeted kills).
    Op(u64),
    /// At an application-declared kill point ([`crate::Comm::kill_point`]);
    /// the supervisor uses step-indexed epochs so a kill lands at an exact
    /// model-clock position relative to checkpoint boundaries.
    Epoch(u64),
}

/// One rank death the plan actually carried out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillRecord {
    /// The rank that died.
    pub rank: u32,
    /// Where its execution stopped.
    pub site: KillSite,
}

/// One confirmed-death event observed by a survivor: the executor proved
/// global quiescence while a rank was down — the analogue of the process
/// manager reaping a dead process and broadcasting the failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectionRecord {
    /// The rank that detected the death.
    pub by: u32,
    /// The rank it confirmed dead.
    pub dead: u32,
}

/// Shared observability handle for a [`FaultPlan`]: the injection ledger
/// plus kill/detection event logs. The plan itself moves into the
/// transport when a run starts; a supervisor keeps a clone of this `Arc`
/// so it can still read what happened after the run aborts by panic.
#[derive(Debug, Default)]
pub struct FaultMonitor {
    injected: Mutex<InjectedFaults>,
    kills: Mutex<Vec<KillRecord>>,
    detections: Mutex<Vec<DetectionRecord>>,
}

impl FaultMonitor {
    /// Faults injected so far (monotone over a run).
    #[must_use]
    pub fn injected(&self) -> InjectedFaults {
        *self.injected.lock().expect("fault ledger lock")
    }

    /// Kills that actually fired, in firing order.
    #[must_use]
    pub fn kills(&self) -> Vec<KillRecord> {
        self.kills.lock().expect("kill ledger lock").clone()
    }

    /// Number of kills that actually fired.
    #[must_use]
    pub fn kills_fired(&self) -> u64 {
        self.kills.lock().expect("kill ledger lock").len() as u64
    }

    /// Confirmed-death events recorded by survivors.
    #[must_use]
    pub fn detections(&self) -> Vec<DetectionRecord> {
        self.detections.lock().expect("detection ledger lock").clone()
    }

    /// Record that `rank` died at `site`. Called by the runtime when the
    /// kill fires (the decision itself is a pure query).
    pub fn record_kill(&self, rank: u32, site: KillSite) {
        self.kills.lock().expect("kill ledger lock").push(KillRecord { rank, site });
        self.injected.lock().expect("fault ledger lock").kills += 1;
    }

    /// Record that `by` confirmed `dead` dead.
    pub fn record_detection(&self, by: u32, dead: u32) {
        self.detections.lock().expect("detection ledger lock").push(DetectionRecord { by, dead });
    }
}

/// A seeded, replayable fault plan: the adversary the reliable transport
/// must beat. Construct one per run and hand it to
/// [`crate::runtime::RunConfig`].
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    #[cfg(test)]
    targeted: Vec<Targeted>,
    kill_ops: Vec<(u32, u64)>,
    kill_epochs: Vec<(u32, u64)>,
    monitor: Arc<FaultMonitor>,
}

/// splitmix64: the same generator seeded schedules use, so a fault
/// decision is a pure function of `seed ^ identity`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a draw to `[0, 1)`.
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// Plan over `config`.
    #[must_use]
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan {
            config,
            #[cfg(test)]
            targeted: Vec::new(),
            kill_ops: Vec::new(),
            kill_epochs: Vec::new(),
            monitor: Arc::new(FaultMonitor::default()),
        }
    }

    /// The configuration this plan draws from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Test hook: additionally apply `decision` to the single frame
    /// identified by `(src, dst, seq)` on its first attempt. Targeted
    /// injections stack on top of (and override) the seeded decision.
    #[cfg(test)]
    #[must_use]
    pub fn with_targeted(mut self, src: u32, dst: u32, seq: u64, decision: FaultDecision) -> Self {
        self.targeted.push(Targeted { src, dst, seq, decision });
        self
    }

    /// Test/supervisor hook: kill `rank` when its per-rank channel-op
    /// clock reaches `op`. Targeted kills stack with seeded ones.
    #[must_use]
    pub fn with_rank_kill_at_op(mut self, rank: u32, op: u64) -> Self {
        self.kill_ops.push((rank, op));
        self
    }

    /// Supervisor hook: kill `rank` when it executes
    /// [`crate::Comm::kill_point`] with this `epoch`. Epochs let the
    /// supervisor place deaths at exact step boundaries (or mid-step)
    /// relative to its checkpoint cadence.
    #[must_use]
    pub fn with_rank_kill_at_epoch(mut self, rank: u32, epoch: u64) -> Self {
        self.kill_epochs.push((rank, epoch));
        self
    }

    /// True when this plan can kill ranks: the runtime checks for a due
    /// kill at channel operations only on such plans.
    #[must_use]
    pub fn kill_armed(&self) -> bool {
        self.config.kills_enabled() || !self.kill_ops.is_empty() || !self.kill_epochs.is_empty()
    }

    /// The seeded model-clock op at which `rank` dies, if any: a pure
    /// function of `(seed, rank)`, like every other fault decision.
    /// Targeted op-kills override the seeded draw.
    #[must_use]
    pub fn kill_time(&self, rank: u32) -> Option<u64> {
        if let Some(&(_, op)) = self.kill_ops.iter().find(|&&(r, _)| r == rank) {
            return Some(op);
        }
        let (lo, hi) = self.config.kill_window;
        if self.config.kills_enabled() && unit(self.draw(8, rank, rank, 0, 0)) < self.config.kill {
            Some(lo + self.draw(9, rank, rank, 0, 0) % (hi - lo))
        } else {
            None
        }
    }

    /// The kill-point epoch at which `rank` dies, if any (targeted only).
    #[must_use]
    pub fn kill_epoch(&self, rank: u32) -> Option<u64> {
        self.kill_epochs.iter().find(|&&(r, _)| r == rank).map(|&(_, e)| e)
    }

    /// The shared observability handle: injection ledger + kill/detection
    /// logs. Clone this before handing the plan to a run; it outlives the
    /// run even when the run aborts by panic.
    #[must_use]
    pub fn monitor(&self) -> Arc<FaultMonitor> {
        Arc::clone(&self.monitor)
    }

    /// Faults injected so far (monotone over a run).
    #[must_use]
    pub fn injected(&self) -> InjectedFaults {
        self.monitor.injected()
    }

    fn draw(&self, what: u64, src: u32, dst: u32, seq: u64, attempt: u32) -> u64 {
        let id = splitmix64(self.config.seed ^ what.rotate_left(48))
            ^ splitmix64(u64::from(src) << 32 | u64::from(dst))
            ^ splitmix64(seq.wrapping_mul(0x9E37_79B9))
            ^ u64::from(attempt);
        splitmix64(id)
    }

    /// Decide the fate of transmission `attempt` of frame `(src, dst,
    /// seq)`. Deterministic: same plan, same identity → same decision.
    /// Attempts at or beyond `max_faults_per_frame` are always clean, so
    /// retransmission converges.
    pub fn decide(&self, src: u32, dst: u32, seq: u64, attempt: u32) -> FaultDecision {
        let mut d = FaultDecision::default();
        if attempt < self.config.max_faults_per_frame {
            // One wire fault class per attempt: drop, else corrupt, else
            // delay. Duplication is decided independently.
            if unit(self.draw(1, src, dst, seq, attempt)) < self.config.drop {
                d.drop = true;
            } else if unit(self.draw(2, src, dst, seq, attempt)) < self.config.corrupt {
                d.corrupt_bit = Some(self.draw(3, src, dst, seq, attempt));
            } else if unit(self.draw(4, src, dst, seq, attempt)) < self.config.delay {
                let span = u64::from(self.config.max_delay_slots.max(1));
                d.delay_slots = 1 + (self.draw(5, src, dst, seq, attempt) % span) as u32;
            }
            if unit(self.draw(6, src, dst, seq, attempt)) < self.config.duplicate {
                d.duplicate = true;
            }
        }
        #[cfg(test)]
        if attempt == 0 {
            for t in &self.targeted {
                if t.src == src && t.dst == dst && t.seq == seq {
                    d = t.decision;
                }
            }
        }
        let mut inj = self.monitor.injected.lock().expect("fault ledger lock");
        if d.drop {
            inj.drops += 1;
        }
        if d.duplicate {
            inj.duplicates += 1;
        }
        if d.corrupt_bit.is_some() {
            inj.corruptions += 1;
        }
        if d.delay_slots > 0 {
            inj.delays += 1;
        }
        d
    }

    /// Decide whether rank `rank` stalls at its `op_index`-th channel
    /// operation. A stall is a scheduling perturbation (extra yield
    /// points), not a wire fault.
    pub fn decide_stall(&self, rank: u32, op_index: u64) -> bool {
        let s = unit(self.draw(7, rank, rank, op_index, 0)) < self.config.stall;
        if s {
            self.monitor.injected.lock().expect("fault ledger lock").stalls += 1;
        }
        s
    }

    /// Flip the decided bit in `data` (bit index taken modulo the frame
    /// length, so every byte — header, payload and CRC — is reachable).
    #[must_use]
    pub fn corrupt(data: &[u8], bit: u64) -> Vec<u8> {
        let mut out = data.to_vec();
        if !out.is_empty() {
            let nbits = out.len() as u64 * 8;
            let b = bit % nbits;
            out[(b / 8) as usize] ^= 1 << (b % 8);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(FaultConfig::hostile(7));
        let b = FaultPlan::new(FaultConfig::hostile(7));
        for seq in 0..200 {
            assert_eq!(a.decide(0, 1, seq, 0), b.decide(0, 1, seq, 0));
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn seeds_change_decisions() {
        let a = FaultPlan::new(FaultConfig::hostile(1));
        let b = FaultPlan::new(FaultConfig::hostile(2));
        let mut differ = false;
        for seq in 0..200 {
            if a.decide(0, 1, seq, 0) != b.decide(0, 1, seq, 0) {
                differ = true;
            }
        }
        assert!(differ, "200 frames decided identically under different seeds");
    }

    #[test]
    fn rates_are_roughly_honest() {
        let plan = FaultPlan::new(FaultConfig::hostile(42));
        let n = 4000u64;
        for seq in 0..n {
            let _ = plan.decide(0, 1, seq, 0);
        }
        let inj = plan.injected();
        // 15% drop over 4000 frames: expect ~600, allow wide slack.
        assert!(inj.drops > 300 && inj.drops < 1000, "drops {}", inj.drops);
        assert!(inj.duplicates > 300 && inj.duplicates < 1000, "dups {}", inj.duplicates);
        assert!(inj.corruptions > 150 && inj.corruptions < 800, "corr {}", inj.corruptions);
        assert!(inj.delays > 150 && inj.delays < 800, "delays {}", inj.delays);
    }

    #[test]
    fn clean_config_injects_nothing() {
        let plan = FaultPlan::new(FaultConfig::clean(9));
        for seq in 0..500 {
            assert_eq!(plan.decide(0, 1, seq, 0), FaultDecision::default());
            assert!(!plan.decide_stall(0, seq));
        }
        assert_eq!(plan.injected().total(), 0);
    }

    #[test]
    fn attempts_beyond_cap_are_clean() {
        let cfg = FaultConfig { drop: 1.0, ..FaultConfig::hostile(3) };
        let plan = FaultPlan::new(cfg);
        assert!(plan.decide(0, 1, 0, 0).drop);
        assert!(plan.decide(0, 1, 0, 1).drop);
        assert!(plan.decide(0, 1, 0, 2).drop);
        assert_eq!(plan.decide(0, 1, 0, 3), FaultDecision::default());
    }

    #[test]
    fn targeted_overrides_seeded_decision() {
        let plan = FaultPlan::new(FaultConfig::clean(0)).with_targeted(
            2,
            5,
            11,
            FaultDecision { corrupt_bit: Some(77), ..FaultDecision::default() },
        );
        assert_eq!(plan.decide(2, 5, 11, 0).corrupt_bit, Some(77));
        assert_eq!(plan.decide(2, 5, 12, 0), FaultDecision::default());
        // Retransmission (attempt 1) of the targeted frame is clean.
        assert_eq!(plan.decide(2, 5, 11, 1), FaultDecision::default());
    }

    #[test]
    fn kill_times_are_pure_functions_of_seed_and_rank() {
        let a = FaultPlan::new(FaultConfig::lethal(11, 0.5, (10, 200)));
        let b = FaultPlan::new(FaultConfig::lethal(11, 0.5, (10, 200)));
        let mut any = false;
        for rank in 0..32 {
            let t = a.kill_time(rank);
            assert_eq!(t, b.kill_time(rank));
            if let Some(op) = t {
                any = true;
                assert!((10..200).contains(&op), "kill op {op} outside window");
            }
        }
        assert!(any, "0 of 32 ranks drew a kill at 50%");
        // Querying is pure: nothing is recorded until a kill fires.
        assert_eq!(a.monitor().kills_fired(), 0);
        assert_eq!(a.injected().kills, 0);
    }

    #[test]
    fn kill_seeds_change_victims() {
        let a = FaultPlan::new(FaultConfig::lethal(1, 0.5, (0, 100)));
        let b = FaultPlan::new(FaultConfig::lethal(2, 0.5, (0, 100)));
        let differ = (0..64).any(|r| a.kill_time(r) != b.kill_time(r));
        assert!(differ, "64 ranks drew identical kills under different seeds");
    }

    #[test]
    fn targeted_kills_arm_and_override() {
        let plan = FaultPlan::new(FaultConfig::clean(0))
            .with_rank_kill_at_op(1, 42)
            .with_rank_kill_at_epoch(2, 7);
        assert!(plan.kill_armed());
        assert_eq!(plan.kill_time(1), Some(42));
        assert_eq!(plan.kill_time(0), None);
        assert_eq!(plan.kill_epoch(2), Some(7));
        assert_eq!(plan.kill_epoch(1), None);
        assert!(!FaultPlan::new(FaultConfig::hostile(3)).kill_armed());
    }

    #[test]
    fn monitor_outlives_the_plan_and_records_events() {
        let plan = FaultPlan::new(FaultConfig::clean(0)).with_rank_kill_at_op(0, 5);
        let mon = plan.monitor();
        mon.record_kill(0, KillSite::Op(5));
        mon.record_detection(1, 0);
        drop(plan);
        assert_eq!(mon.kills_fired(), 1);
        assert_eq!(mon.kills(), vec![KillRecord { rank: 0, site: KillSite::Op(5) }]);
        assert_eq!(mon.injected().kills, 1);
        assert_eq!(mon.detections(), vec![DetectionRecord { by: 1, dead: 0 }]);
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let data = vec![0u8; 16];
        for bit in [0u64, 7, 8, 127, 128, 1000] {
            let bad = FaultPlan::corrupt(&data, bit);
            let flipped: u32 = bad.iter().map(|b| b.count_ones()).sum();
            assert_eq!(flipped, 1, "bit {bit}");
        }
    }
}
