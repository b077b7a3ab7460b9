//! Fault/recovery reporting: what the reliable transport did to survive.
//!
//! The deterministic ledger ([`crate::Ledger`] → [`crate::RunReport`])
//! records only *logical* traffic, so its JSON is bitwise identical with
//! and without fault injection — that invariance is the whole acceptance
//! criterion for the fault layer. Retries, timeouts and CRC rejections are
//! therefore deliberately **not** [`crate::Counter`]s: adding them to the
//! ledger vocabulary would either always read zero (useless) or differ
//! between faulty and fault-free runs (breaking the golden contract).
//!
//! Instead they get their own report with its own schema tag. A
//! [`FaultReport`] is reduced from the per-rank [`ReliabilityStats`] and
//! the machine-wide injection ledger that [`hot_comm::RunOutput`] already
//! carries, and is explicitly *outside* the determinism contract: its
//! numbers may vary across schedules (a race can cause a spurious
//! retransmit that dup-suppression absorbs). What is pinned about it is
//! the schema and one cross-invariant: if the plan injected nothing, the
//! recovery layer must have nothing to report ([`FaultReport::is_quiet`]).

use crate::report::json_f64;
use hot_comm::{FaultConfig, InjectedFaults, ReliabilityStats};

/// Schema identifier for the fault-report JSON. Separate from the trace
/// [`crate::SCHEMA`] because the two artifacts have different stability
/// guarantees: trace JSON is bitwise-pinned, fault JSON is not.
pub const FAULT_SCHEMA: &str = "hot-trace/faults-v3";

/// Recovery activity reduced over a whole run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultReport {
    /// Ranks in the run.
    pub np: u32,
    /// The fault configuration the run was driven with, if any.
    pub config: Option<FaultConfig>,
    /// Per-rank recovery counters, indexed by rank.
    pub per_rank: Vec<ReliabilityStats>,
    /// Recovery counters summed over ranks.
    pub totals: ReliabilityStats,
    /// Faults the plan actually injected, machine-wide.
    pub injected: InjectedFaults,
}

impl FaultReport {
    /// Reduce per-rank reliability stats and the injection ledger into a
    /// report. `reliability` and `injected` come straight off
    /// `hot_comm::RunOutput`.
    pub fn from_run(
        config: Option<FaultConfig>,
        reliability: &[ReliabilityStats],
        injected: InjectedFaults,
    ) -> FaultReport {
        let mut totals = ReliabilityStats::default();
        for r in reliability {
            totals.merge(r);
        }
        FaultReport {
            np: reliability.len() as u32,
            config,
            per_rank: reliability.to_vec(),
            totals,
            injected,
        }
    }

    /// True when nothing was injected *and* nothing was recovered — the
    /// required state of a fault-free (or transport-less) run.
    pub fn is_quiet(&self) -> bool {
        self.injected.total() == 0 && self.totals.is_quiet()
    }

    /// Deterministic-format JSON (fixed key order; the *values* are not
    /// part of any golden contract — see the module docs).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{FAULT_SCHEMA}\",\n"));
        s.push_str(&format!("  \"np\": {},\n", self.np));
        match &self.config {
            Some(c) => s.push_str(&format!("  \"config\": {},\n", json_config(c))),
            None => s.push_str("  \"config\": null,\n"),
        }
        s.push_str(&format!("  \"injected\": {},\n", json_injected(&self.injected)));
        s.push_str("  \"per_rank\": [\n");
        for (i, r) in self.per_rank.iter().enumerate() {
            s.push_str(&format!(
                "    {}{}\n",
                json_reliability(r),
                if i + 1 < self.per_rank.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"totals\": {}\n", json_reliability(&self.totals)));
        s.push_str("}\n");
        s
    }

    /// Human-readable summary table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if let Some(c) = &self.config {
            let _ = writeln!(
                out,
                "fault plan: seed {} · drop {} dup {} delay {} (≤{}) corrupt {} stall {} \
                 kill {} in [{}, {})",
                c.seed,
                c.drop,
                c.duplicate,
                c.delay,
                c.max_delay_slots,
                c.corrupt,
                c.stall,
                c.kill,
                c.kill_window.0,
                c.kill_window.1
            );
        } else {
            let _ = writeln!(out, "fault plan: none");
        }
        let i = &self.injected;
        let _ = writeln!(
            out,
            "injected:   {} total ({} drops, {} dups, {} corruptions, {} delays, {} stalls, \
             {} kills)",
            i.total(),
            i.drops,
            i.duplicates,
            i.corruptions,
            i.delays,
            i.stalls,
            i.kills
        );
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>9} {:>12} {:>9} {:>8} {:>13}",
            "rank", "retries", "timeouts", "crc_rejects", "dups", "stalls", "backoff_units"
        );
        for (rank, r) in self.per_rank.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<6} {:>9} {:>9} {:>12} {:>9} {:>8} {:>13}",
                rank,
                r.retries,
                r.timeouts,
                r.crc_rejects,
                r.dup_suppressed,
                r.stalls,
                r.backoff_units
            );
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>9} {:>12} {:>9} {:>8} {:>13}",
            "total",
            t.retries,
            t.timeouts,
            t.crc_rejects,
            t.dup_suppressed,
            t.stalls,
            t.backoff_units
        );
        out
    }
}

fn json_config(c: &FaultConfig) -> String {
    format!(
        "{{\"seed\": {}, \"drop\": {}, \"duplicate\": {}, \"delay\": {}, \
         \"max_delay_slots\": {}, \"corrupt\": {}, \"stall\": {}, \
         \"max_faults_per_frame\": {}, \"kill\": {}, \"kill_window\": [{}, {}]}}",
        c.seed,
        json_f64(c.drop),
        json_f64(c.duplicate),
        json_f64(c.delay),
        c.max_delay_slots,
        json_f64(c.corrupt),
        json_f64(c.stall),
        c.max_faults_per_frame,
        json_f64(c.kill),
        c.kill_window.0,
        c.kill_window.1
    )
}

fn json_injected(i: &InjectedFaults) -> String {
    format!(
        "{{\"drops\": {}, \"duplicates\": {}, \"corruptions\": {}, \"delays\": {}, \
         \"stalls\": {}, \"kills\": {}}}",
        i.drops, i.duplicates, i.corruptions, i.delays, i.stalls, i.kills
    )
}

fn json_reliability(r: &ReliabilityStats) -> String {
    format!(
        "{{\"retries\": {}, \"timeouts\": {}, \"crc_rejects\": {}, \"dup_suppressed\": {}, \
         \"stalls\": {}, \"backoff_units\": {}}}",
        r.retries,
        r.timeouts,
        r.crc_rejects,
        r.dup_suppressed,
        r.stalls,
        r.backoff_units
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(retries: u64, crc: u64) -> ReliabilityStats {
        ReliabilityStats { retries, crc_rejects: crc, ..Default::default() }
    }

    #[test]
    fn totals_sum_over_ranks() {
        let rep = FaultReport::from_run(
            Some(FaultConfig::hostile(7)),
            &[stats(2, 1), stats(3, 0), stats(0, 4)],
            InjectedFaults { drops: 5, ..Default::default() },
        );
        assert_eq!(rep.np, 3);
        assert_eq!(rep.totals.retries, 5);
        assert_eq!(rep.totals.crc_rejects, 5);
        assert!(!rep.is_quiet());
    }

    #[test]
    fn quiet_run_is_quiet() {
        let rep = FaultReport::from_run(
            None,
            &[ReliabilityStats::default(); 4],
            InjectedFaults::default(),
        );
        assert!(rep.is_quiet());
    }

    #[test]
    fn json_has_schema_and_fixed_keys() {
        let rep = FaultReport::from_run(
            Some(FaultConfig::hostile(1)),
            &[stats(1, 0), stats(0, 2)],
            InjectedFaults { corruptions: 2, ..Default::default() },
        );
        let j = rep.to_json();
        assert!(j.contains("\"schema\": \"hot-trace/faults-v3\""));
        assert!(j.contains("\"corruptions\": 2"));
        assert!(j.contains("\"crc_rejects\": 2"));
        // The crash-stop plan and kill ledger appear with fixed keys.
        assert!(j.contains("\"kill\": "));
        assert!(j.contains("\"kill_window\": ["));
        assert!(j.contains("\"kills\": 0"));
        // Deterministic formatting: same report, same bytes.
        assert_eq!(j, rep.to_json());
        // A plan-less report still serializes.
        let none = FaultReport::from_run(None, &[stats(0, 0)], InjectedFaults::default());
        assert!(none.to_json().contains("\"config\": null"));
    }

    #[test]
    fn table_mentions_plan_and_ranks() {
        let rep = FaultReport::from_run(
            Some(FaultConfig::hostile(3)),
            &[stats(4, 1)],
            InjectedFaults { drops: 4, corruptions: 1, ..Default::default() },
        );
        let t = rep.render_table();
        assert!(t.contains("fault plan: seed 3"));
        assert!(t.contains("retries"));
        assert!(t.contains("total"));
    }
}
