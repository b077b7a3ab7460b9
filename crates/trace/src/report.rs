//! Cross-rank reduction of [`RankRecord`]s into a run-level report.
//!
//! The reduction is an `allgather` of `Wire`-encoded per-rank records
//! followed by a *pure* fold ([`RunReport::from_records`]) that every rank
//! computes identically: records are sorted by rank before any arithmetic,
//! so the report is independent of arrival order (pinned by the property
//! suite). The JSON serialization is hand-rolled with a fixed key order and
//! Rust's shortest-roundtrip float formatting, making it bitwise
//! reproducible — the golden-snapshot suite and the schedule checker both
//! compare it as a string.

use crate::{Counter, CounterSet, Phase, RankRecord, COUNTERS, PHASES};
use hot_comm::Comm;

/// Schema identifier stamped into every JSON report. Bump the suffix when
/// the field set, key order, or semantics of any value change.
pub const SCHEMA: &str = "hot-trace/v5";

/// Min/mean/max of a per-rank quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankStat {
    /// Smallest per-rank value.
    pub min: f64,
    /// Arithmetic mean over ranks (rank-ordered summation).
    pub mean: f64,
    /// Largest per-rank value.
    pub max: f64,
}

impl RankStat {
    /// Stats over one value per rank (`values[r]` is rank `r`'s).
    ///
    /// # Panics
    /// Panics on an empty slice — a report over zero ranks is meaningless.
    pub fn over_ranks(values: &[f64]) -> RankStat {
        assert!(!values.is_empty(), "RankStat over zero ranks");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        RankStat { min, mean: sum / values.len() as f64, max }
    }
}

/// One row of the phase table: a phase's exclusive counters summed over
/// ranks, plus the per-rank model-seconds skew.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    /// Phase label.
    pub phase: Phase,
    /// Exclusive counters summed across ranks.
    pub counters: CounterSet,
    /// Per-rank exclusive model seconds (min/mean/max over ranks).
    pub seconds: RankStat,
}

/// The run-level report reduced from every rank's ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Ranks that contributed.
    pub np: u32,
    /// Rank 0's span structure `(phase, depth)`, locking the instrumented
    /// call shape into the golden snapshot.
    pub spans: Vec<(Phase, u8)>,
    /// One row per phase that appears on any rank, in canonical order.
    pub rows: Vec<PhaseRow>,
    /// Counters summed across all ranks and phases.
    pub totals: CounterSet,
    /// Per-rank total model seconds.
    pub seconds: RankStat,
}

impl RunReport {
    /// Pure fold of per-rank records into a report.
    ///
    /// Records are sorted by rank first, so the result does not depend on
    /// the order they arrive in.
    ///
    /// # Panics
    /// Panics on zero records or duplicate ranks.
    pub fn from_records(records: &[RankRecord]) -> RunReport {
        assert!(!records.is_empty(), "RunReport over zero records");
        let mut recs: Vec<&RankRecord> = records.iter().collect();
        recs.sort_by_key(|r| r.rank);
        for pair in recs.windows(2) {
            assert!(pair[0].rank != pair[1].rank, "duplicate rank {} in reduce", pair[0].rank);
        }
        let np = recs.len() as u32;

        let mut totals = CounterSet::new();
        for r in &recs {
            totals.merge(&r.totals);
        }

        let mut rows = Vec::new();
        for &phase in &PHASES {
            let mut counters = CounterSet::new();
            let mut secs = vec![0.0f64; recs.len()];
            let mut present = false;
            for (i, r) in recs.iter().enumerate() {
                for s in r.spans.iter().filter(|s| s.phase == phase) {
                    present = true;
                    counters.merge(&s.exclusive);
                    secs[i] += s.self_seconds;
                }
            }
            if present {
                rows.push(PhaseRow { phase, counters, seconds: RankStat::over_ranks(&secs) });
            }
        }

        let per_rank_secs: Vec<f64> = recs.iter().map(|r| r.total_seconds()).collect();
        RunReport {
            np,
            spans: recs[0].spans.iter().map(|s| (s.phase, s.depth)).collect(),
            rows,
            totals,
            seconds: RankStat::over_ranks(&per_rank_secs),
        }
    }

    /// Report over a single local ledger (serial codes, rank 0 only).
    pub fn from_single(ledger: &crate::Ledger) -> RunReport {
        RunReport::from_records(&[ledger.rank_record(0)])
    }

    /// Row for `phase`, when present.
    pub fn row(&self, phase: Phase) -> Option<&PhaseRow> {
        self.rows.iter().find(|r| r.phase == phase)
    }

    /// The paper-style phase table, fixed-width text.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<11} {:>14} {:>12} {:>12} {:>8} {:>11} {:>11} {:>11} {:>11}",
            "phase", "flops", "p-p", "p-c", "msgs", "bytes", "min(s)", "mean(s)", "max(s)"
        );
        for row in &self.rows {
            let c = &row.counters;
            let _ = writeln!(
                out,
                "{:<11} {:>14} {:>12} {:>12} {:>8} {:>11} {:>11.4e} {:>11.4e} {:>11.4e}",
                row.phase.name(),
                c.get(Counter::Flops),
                c.get(Counter::PpInteractions),
                c.get(Counter::PcInteractions),
                c.get(Counter::MsgsSent),
                c.get(Counter::BytesSent),
                row.seconds.min,
                row.seconds.mean,
                row.seconds.max,
            );
        }
        let _ = writeln!(
            out,
            "{:<11} {:>14} {:>12} {:>12} {:>8} {:>11} {:>11.4e} {:>11.4e} {:>11.4e}",
            "total",
            self.totals.get(Counter::Flops),
            self.totals.get(Counter::PpInteractions),
            self.totals.get(Counter::PcInteractions),
            self.totals.get(Counter::MsgsSent),
            self.totals.get(Counter::BytesSent),
            self.seconds.min,
            self.seconds.mean,
            self.seconds.max,
        );
        let gflops = if self.seconds.max > 0.0 {
            self.totals.get(Counter::Flops) as f64 / self.seconds.max / 1e9
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "np {} · {} interactions · {:.3} model Gflops (total flops / busiest rank)",
            self.np,
            self.totals.interactions(),
            gflops
        );
        out
    }

    /// Deterministic, schema-versioned JSON.
    ///
    /// Hand-rolled: fixed key order, no whitespace variance, shortest
    /// round-trip float formatting. Two runs that recorded the same events
    /// produce the same bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"np\": {},\n", self.np));
        s.push_str("  \"spans\": [");
        for (i, (phase, depth)) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{{\"phase\": \"{}\", \"depth\": {depth}}}", phase.name()));
        }
        s.push_str("],\n");
        s.push_str("  \"phases\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"phase\": \"{}\", \"counters\": {}, \"seconds\": {}}}{}\n",
                row.phase.name(),
                json_counters(&row.counters),
                json_stat(&row.seconds),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"totals\": {},\n", json_counters(&self.totals)));
        s.push_str(&format!("  \"seconds\": {}\n", json_stat(&self.seconds)));
        s.push_str("}\n");
        s
    }

    /// Write [`RunReport::to_json`] to `path`, creating parent directories.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

fn json_counters(c: &CounterSet) -> String {
    let fields: Vec<String> =
        COUNTERS.iter().map(|&k| format!("\"{}\": {}", k.name(), c.get(k))).collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_stat(s: &RankStat) -> String {
    format!(
        "{{\"min\": {}, \"mean\": {}, \"max\": {}}}",
        json_f64(s.min),
        json_f64(s.mean),
        json_f64(s.max)
    )
}

/// Shortest-roundtrip decimal for a finite f64 — Rust's `{:?}` formatting,
/// which is deterministic across runs and platforms.
pub(crate) fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "non-finite value {v} in trace JSON");
    format!("{v:?}")
}

/// Reduce one rank's ledger across the whole machine.
///
/// Every rank calls this collectively (it is an `allgather` underneath)
/// and every rank returns the same [`RunReport`]. The gather runs on the
/// collective tag space, so it composes with user traffic.
pub fn reduce(comm: &mut Comm, ledger: &crate::Ledger) -> RunReport {
    let rec = ledger.rank_record(comm.rank());
    let all = comm.allgather(rec);
    RunReport::from_records(&all)
}

#[cfg(test)]
mod tests {
    use hot_comm::RunConfig;
    use super::*;
    use crate::{Ledger, ModelClock};

    fn sample_ledger(rank: u32, scale: u64) -> RankRecord {
        let mut l = Ledger::new(ModelClock::paper_loki());
        l.begin(Phase::Step);
        l.span(Phase::Decomp, |l| {
            l.add(Counter::BodiesExchanged, 10 * scale);
            l.add(Counter::MsgsSent, 4);
            l.add(Counter::BytesSent, 320 * scale);
        });
        l.span(Phase::Force, |l| {
            l.add(Counter::PpInteractions, 100 * scale);
            l.add(Counter::Flops, 3800 * scale);
        });
        l.end();
        l.rank_record(rank)
    }

    #[test]
    fn report_sums_counters_and_tracks_skew() {
        let recs = vec![sample_ledger(0, 1), sample_ledger(1, 3)];
        let rep = RunReport::from_records(&recs);
        assert_eq!(rep.np, 2);
        assert_eq!(rep.totals.get(Counter::PpInteractions), 400);
        let force = rep.row(Phase::Force).expect("force row");
        assert_eq!(force.counters.get(Counter::Flops), 4 * 3800);
        assert!(force.seconds.min < force.seconds.max);
        assert!((force.seconds.mean - (force.seconds.min + force.seconds.max) / 2.0).abs() < 1e-18);
        // Span structure is rank 0's.
        assert_eq!(rep.spans, vec![(Phase::Step, 0), (Phase::Decomp, 1), (Phase::Force, 1)]);
    }

    #[test]
    fn json_is_stable_and_versioned() {
        let recs = vec![sample_ledger(0, 1), sample_ledger(1, 3)];
        let a = RunReport::from_records(&recs).to_json();
        let b = RunReport::from_records(&recs).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"hot-trace/v5\""));
        assert!(a.contains("\"pp_interactions\": 400"));
    }

    #[test]
    fn table_lists_phases_and_totals() {
        let rep = RunReport::from_records(&[sample_ledger(0, 2)]);
        let t = rep.render_table();
        assert!(t.contains("decomp"));
        assert!(t.contains("force"));
        assert!(t.contains("total"));
        assert!(t.contains("model Gflops"));
    }

    #[test]
    fn reduce_agrees_on_every_rank() {
        let out = RunConfig::builder().np(4).run(|comm| {
            let mut l = Ledger::new(ModelClock::paper_loki());
            l.span(Phase::Force, |l| {
                l.add(Counter::PpInteractions, u64::from(comm.rank()) * 7 + 1);
            });
            reduce(comm, &l).to_json()
        });
        let first = &out.results[0];
        assert!(out.results.iter().all(|j| j == first));
        assert!(first.contains("\"np\": 4"));
        // 1 + 8 + 15 + 22 interactions.
        assert!(first.contains("\"pp_interactions\": 46"));
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn duplicate_ranks_rejected() {
        let _ = RunReport::from_records(&[sample_ledger(1, 1), sample_ledger(1, 2)]);
    }
}
