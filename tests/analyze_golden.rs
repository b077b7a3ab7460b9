//! Golden-snapshot tests for the `hot-analyze` JSON output (see
//! VERIFICATION.md, "Protocol invariants").
//!
//! CI consumes `hot-analyze lint --json` / `protocol --json` as
//! artifacts, so the schema (`hot-analyze/lint-v1`, `hot-analyze/
//! protocol-v1`) is a contract: field names, ordering, and the
//! finding shape are pinned here against *planted fixtures* — small
//! sources with known findings — rather than the live workspace, whose
//! line numbers churn with every edit. Any intentional schema change
//! shows up as a readable first-difference diff; refresh with
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test analyze_golden
//! ```
//!
//! and bump the schema version string in the same change.

use hot_analyze::{json, lint, protocol};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name)
}

/// Point at the first line where the two documents diverge.
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

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("golden refreshed: {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1 cargo test --test analyze_golden",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "JSON output diverged from {}\n{}\n\
         (intentional schema change? refresh with UPDATE_GOLDENS=1, review, \
         and bump the schema version)",
        path.display(),
        first_diff(&expected, actual)
    );
}

/// A moments-scope fixture tripping four lint rules at known lines.
const LINT_FIXTURE: &str = "\
use std::collections::HashMap;
pub fn shrink(x: f64) -> f32 {
    let cache: HashMap<u32, f64> = HashMap::new();
    let t0 = Instant::now();
    let y = cache.get(&0).unwrap();
    x as f32
}
";

#[test]
fn lint_json_matches_committed_golden() {
    let findings = lint::lint_source("crates/core/src/moments.rs", LINT_FIXTURE, &[]);
    assert!(!findings.is_empty(), "planted lint fixture produced no findings");
    check("analyze_lint_fixture.json", &json::lint_json(&findings));
}

/// A fiber-run source keeping state in a thread-local: the `runtime-api`
/// finding the event runtime's worker-migration bug earned. The expected
/// document is pinned here rather than under `tests/goldens/`.
const THREAD_LOCAL_FIXTURE: &str = "\
use std::cell::Cell;
thread_local! {
    static REASON: Cell<u64> = const { Cell::new(0) };
}
";

const THREAD_LOCAL_GOLDEN: &str = r#"{
  "schema": "hot-analyze/lint-v1",
  "findings": [
    {"rule":"runtime-api","file":"crates/comm/src/events.rs","line":2,"excerpt":"thread_local! {","message":"thread-local in code a rank fiber can run: a fiber may resume on a different worker thread, and a thread-local's address cached across the switch then names the previous worker's slot; keep the state per rank (EventSched's per-rank atomics) or pass it explicitly"}
  ]
}
"#;

#[test]
fn thread_local_in_fiber_code_matches_pinned_finding() {
    let planted = lint::lint_source("crates/comm/src/events.rs", THREAD_LOCAL_FIXTURE, &[]);
    let actual = json::lint_json(&planted);
    assert!(
        actual == THREAD_LOCAL_GOLDEN,
        "thread-local fixture diverged\n{}",
        first_diff(THREAD_LOCAL_GOLDEN, &actual)
    );
    // The fiber switch's own CURRENT pointer is the single exemption.
    assert!(lint::lint_source("crates/comm/src/fiber.rs", THREAD_LOCAL_FIXTURE, &[]).is_empty());
}

/// A comm-scope fixture tripping all three protocol rules: a
/// rank-guarded barrier, an orphan tag in each direction, and a counter
/// incremented from two crates.
fn protocol_fixture() -> Vec<(String, String)> {
    let comm = "\
fn exchange(c: &mut Comm) {
    if c.rank() == 0 {
        c.barrier();
    }
    c.send(1, TAG_ORPHAN, &v);
    let r: u64 = c.recv(0, TAG_GHOST);
    c.send(1, TAG_OK, &v);
    let s: u64 = c.recv(0, TAG_OK);
    t.add(Counter::Flops, 38);
}
";
    let gravity = "\
fn kernel(t: &mut Ledger) {
    t.add(Counter::Flops, 38);
}
";
    vec![
        ("crates/comm/src/runtime.rs".to_string(), comm.to_string()),
        ("crates/gravity/src/evaluator.rs".to_string(), gravity.to_string()),
    ]
}

#[test]
fn protocol_json_matches_committed_golden() {
    let rep = protocol::check_files(&protocol_fixture());
    assert!(!rep.summary.vacuous(), "planted protocol fixture extracted nothing");
    let rules: Vec<&str> = rep.findings.iter().map(|f| f.rule).collect();
    for rule in protocol::RULES {
        assert!(
            rules.contains(&rule),
            "planted fixture should trip {rule}; got {rules:?}"
        );
    }
    check("analyze_protocol_fixture.json", &json::protocol_json(&rep));
}
