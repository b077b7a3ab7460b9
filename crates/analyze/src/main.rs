//! `hot-analyze` command-line interface.
//!
//! ```text
//! hot-analyze lint [--root PATH] [--json]
//! hot-analyze protocol [--root PATH] [--json]
//! hot-analyze loc [--root PATH]
//! hot-analyze schedules [--seeds N]
//! hot-analyze faults [--seeds N]
//! hot-analyze kills [--seeds N] [--planted-undetected]
//! ```
//!
//! Every checking subcommand exits 0 when clean and 1 on findings, so they
//! slot directly into `ci.sh`; `loc` only reports. See VERIFICATION.md for the rule catalog.

use hot_analyze::{faults, json, kills, lint, loc, print_sweep, protocol, schedules};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hot-analyze lint [--root PATH] [--json]      static invariant linter\n  \
         hot-analyze protocol [--root PATH] [--json]  static comm-protocol checker\n  \
         hot-analyze loc [--root PATH]                non-test lines per crate\n  \
         hot-analyze schedules [--seeds N]            seeded schedule checker\n  \
         hot-analyze faults [--seeds N]               fault-plan × schedule checker\n  \
         hot-analyze kills [--seeds N]                crash-stop detection/recovery checker\n  \
         hot-analyze kills --planted-undetected       planted fixture (must exit 1)\n\n\
         lint rules: {}\nprotocol rules: {}",
        lint::RULES.join(", "),
        protocol::RULES.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("protocol") => run_protocol(&args[1..]),
        Some("loc") => run_loc(&args[1..]),
        Some("schedules") => run_schedules(&args[1..]),
        Some("faults") => run_faults(&args[1..]),
        Some("kills") => run_kills(&args[1..]),
        _ => usage(),
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn parse_root(cmd: &str, args: &[String]) -> Result<PathBuf, ExitCode> {
    let root = flag_value(args, "--root").map_or_else(
        || {
            // Default: the workspace containing this binary's sources.
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        },
        PathBuf::from,
    );
    if root.is_dir() {
        Ok(root)
    } else {
        eprintln!("hot-analyze {cmd}: root {} is not a directory", root.display());
        Err(ExitCode::from(2))
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let root = match parse_root("lint", args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let findings = lint::lint_workspace(&root);
    let files = lint::collect_sources(&root).len();
    if files == 0 {
        // A rule sweep over nothing proves nothing; refuse rather than
        // report a vacuous pass.
        eprintln!("hot-analyze lint: no .rs sources under {}", root.display());
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--json") {
        print!("{}", json::lint_json(&findings));
        return if findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if findings.is_empty() {
        println!("hot-analyze lint: {files} files clean ({} rules)", lint::RULES.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("hot-analyze lint: {} finding(s) across {files} files", findings.len());
        ExitCode::FAILURE
    }
}

fn run_protocol(args: &[String]) -> ExitCode {
    let root = match parse_root("protocol", args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let rep = protocol::check_workspace(&root);
    if rep.summary.vacuous() {
        // No collectives or no tags extracted means the scan missed the
        // protocol entirely (wrong root, renamed files) — refuse rather
        // than report a vacuous pass.
        eprintln!(
            "hot-analyze protocol: extraction vacuous under {} \
             (collectives: {}, tags: {})",
            root.display(),
            rep.summary.collectives.len(),
            rep.summary.tags.len()
        );
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--json") {
        print!("{}", json::protocol_json(&rep));
        return if rep.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    println!("hot-analyze protocol: extracted communication protocol");
    for line in rep.summary.render() {
        println!("{line}");
    }
    if rep.passed() {
        println!(
            "hot-analyze protocol: clean ({} rules)",
            protocol::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &rep.findings {
            println!("{f}");
        }
        println!("hot-analyze protocol: {} finding(s)", rep.findings.len());
        ExitCode::FAILURE
    }
}

fn run_loc(args: &[String]) -> ExitCode {
    let root = match parse_root("loc", args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let counts = loc::count_workspace(&root);
    if counts.is_empty() {
        eprintln!("hot-analyze loc: no crates under {}", root.join("crates").display());
        return ExitCode::from(2);
    }
    println!("hot-analyze loc: non-blank lines outside #[cfg(test)] items and tests/");
    for (name, lines) in &counts {
        println!("  {name:<10} {lines:>7}");
    }
    println!("  {:<10} {:>7}", "total", counts.iter().map(|c| c.1).sum::<usize>());
    ExitCode::SUCCESS
}

fn parse_seeds(cmd: &str, args: &[String]) -> Result<u64, ExitCode> {
    match flag_value(args, "--seeds") {
        None => Ok(32),
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => Ok(n),
            // 0 would compare the reference against nothing — a vacuous
            // pass — and a non-number silently becoming the default would
            // hide CI typos.
            _ => {
                eprintln!("hot-analyze {cmd}: --seeds needs a positive integer, got {s:?}");
                Err(ExitCode::from(2))
            }
        },
    }
}

fn run_schedules(args: &[String]) -> ExitCode {
    let seeds: u64 = match parse_seeds("schedules", args) {
        Ok(n) => n,
        Err(code) => return code,
    };
    print_sweep("schedules", &schedules::check_all(seeds), "all workloads schedule-independent")
}

fn run_faults(args: &[String]) -> ExitCode {
    let seeds: u64 = match parse_seeds("faults", args) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let cap = faults::pipeline_seed_cap(seeds);
    if cap < seeds {
        println!("note: traced-pipeline sweep capped at {cap} of {seeds} fault seeds (cost)");
    }
    let clean = "results and trace reports identical under all fault plans";
    print_sweep("faults", &faults::check_all(seeds), clean)
}

fn run_kills(args: &[String]) -> ExitCode {
    // Every killed run aborts via panic by design; silence the per-rank
    // panic spew so the sweep report below stays readable. Failure detail
    // survives in the report (the checker captures the payloads).
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let reports = if args.iter().any(|a| a == "--planted-undetected") {
        // The fixture exists to fail: a kill no survivor can observe must
        // still be flagged. CI asserts this command exits 1.
        vec![kills::check_planted_undetected(4)]
    } else {
        let seeds: u64 = match parse_seeds("kills", args) {
            Ok(n) => n,
            Err(code) => return code,
        };
        let cap = kills::detection_seed_cap(seeds);
        if cap < seeds {
            println!("note: detection sweep capped at {cap} of {seeds} kill seeds (cost)");
        }
        kills::check_all(seeds)
    };
    std::panic::set_hook(prev_hook);
    let clean = "every fired kill detected; recovery bitwise-identical to golden";
    print_sweep("kills", &reports, clean)
}
