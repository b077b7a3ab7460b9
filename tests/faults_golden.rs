//! Golden-snapshot test for the `hot-trace/faults-v3` fault report (see
//! VERIFICATION.md, "Fault invariants").
//!
//! The fault report's *values* are deliberately outside the determinism
//! contract — a race can cause a spurious retransmit that dup-suppression
//! absorbs — so the golden pins the **schema**: key names, key order, and
//! formatting, rendered from a planted synthetic report whose counters are
//! fixed by construction. Any intentional schema change shows up as a
//! readable first-difference diff; refresh with
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test faults_golden
//! ```
//!
//! and bump `FAULT_SCHEMA` in the same change.

use hot_comm::{FaultConfig, InjectedFaults, ReliabilityStats};
use hot_trace::FaultReport;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/faults_v3.json")
}

/// A planted report exercising every field of the v3 schema: a crash-stop
/// plan (kill rate + window), a fired kill, and per-rank counters covering
/// the retransmit path (retries/timeouts/backoff).
fn planted_report() -> FaultReport {
    let config = FaultConfig {
        kill: 1.0,
        kill_window: (16, 64),
        ..FaultConfig::hostile(97)
    };
    let per_rank = [
        ReliabilityStats {
            retries: 3,
            timeouts: 1,
            crc_rejects: 2,
            dup_suppressed: 1,
            stalls: 0,
            backoff_units: 7,
        },
        ReliabilityStats { retries: 1, backoff_units: 1, ..Default::default() },
        ReliabilityStats::default(),
    ];
    let injected = InjectedFaults {
        drops: 4,
        duplicates: 1,
        corruptions: 2,
        delays: 3,
        stalls: 0,
        kills: 1,
    };
    FaultReport::from_run(Some(config), &per_rank, injected)
}

/// Point at the first line where the two JSON documents diverge.
fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first difference at line {}:\n  golden: {e}\n  actual: {a}",
                i + 1
            );
        }
    }
    format!(
        "one document is a prefix of the other ({} vs {} lines)",
        expected.lines().count(),
        actual.lines().count()
    )
}

#[test]
fn fault_report_schema_matches_committed_golden() {
    let actual = planted_report().to_json();
    assert!(actual.contains("\"schema\": \"hot-trace/faults-v3\""));

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("golden refreshed: {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1 cargo test --test faults_golden",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "fault report schema diverged from {}\n{}\n\
         (intentional change? refresh with UPDATE_GOLDENS=1 and review the diff)",
        path.display(),
        first_diff(&expected, &actual)
    );
}

/// The table renderer must surface the same v3 fields the JSON pins: kill
/// plan, fired kills, and the recovery columns — and no heartbeat-detector
/// columns, since crash-stop deaths are detected only at quiescence.
#[test]
fn fault_table_surfaces_detector_columns() {
    let t = planted_report().render_table();
    assert!(t.contains("kill 1 in [16, 64)"), "kill plan missing:\n{t}");
    assert!(t.contains("1 kills"), "fired-kill count missing:\n{t}");
    for col in ["retries", "timeouts", "crc_rejects", "backoff_units"] {
        assert!(t.contains(col), "{col} column missing:\n{t}");
    }
    assert!(!t.contains("suspects"), "stale detector column:\n{t}");
}
