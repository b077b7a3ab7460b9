//! The HOT wall-clock benchmark: five workloads, end-to-end and per-layer
//! metrics, one process per workload run. See `benchmark/README.md`.
//!
//! `hot-benchmark [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
//! [--traced] [--selfcheck] [--out DIR]` supervises: it runs each requested
//! `(workload, pass)` in a child process of this same executable
//! (`--child`), so that a panic or a runaway report costs one run, not the
//! set, and prints what the children measured.

mod common;
mod cosmo;
mod dist;
mod gen;
mod machine;
mod micro;
mod report;
mod serial;
mod spans;
mod storm;

use common::{Outcome, Plan};
use report::{defs, json_num, json_str, result_json, Better, Metrics};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Workload names and the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("serial_uniform", "ForceCalc::compute on 131072 uniform bodies: kernel, walk and tree build do all the work, comm none"),
    ("cosmo_sphere", "CosmoSim::step on the 64-grid CDM sphere: two tree rebuilds a step, multi-mass, clustering as it runs"),
    ("dist_coarse", "np=16 x 4096 bodies on the event runtime: every distributed phase runs, kernels still a large share"),
    ("dist_fine", "np=128 x 32 bodies: the ASCI Red grain, almost all mailbox, fiber, ABM and collective overhead"),
    ("comm_storm", "np=1024 fibers, verified collectives and dense all-to-all, no physics: per-message and per-switch cost"),
];

const DEFAULT_SEED: u64 = 1997;
const DEFAULT_SECONDS: f64 = 12.0;
/// Most of a child's stderr the supervisor keeps; the rest is discarded as
/// it arrives (a 1024-rank deadlock report is hundreds of megabytes).
const STDERR_KEEP: usize = 64 << 10;

/// A timed step finished (child → supervisor).
pub fn progress(step: u64) {
    println!("@step {step}");
    let _ = std::io::stdout().flush();
}

fn run_workload(plan: &Plan) -> Outcome {
    match plan.workload {
        "serial_uniform" => serial::run(plan),
        "cosmo_sphere" => cosmo::run(plan),
        "dist_coarse" => dist::run(plan, &dist::COARSE),
        "dist_fine" => dist::run(plan, &dist::FINE),
        "comm_storm" => storm::run(plan),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// The child: run one pass of one workload, print what it measured as
/// `@`-prefixed lines.
fn child(plan: &Plan, out_dir: &Path) -> ExitCode {
    spans::now_ns();
    let mut outcome = run_workload(plan);
    if plan.trace {
        // A layer that does not run in this workload did no work: 0.
        for d in report::PER_LAYER {
            outcome.metrics.entry(d.name).or_insert(0.0);
        }
    }
    if let Some(trace) = &outcome.chrome_trace {
        let path = out_dir.join(format!("trace_{}.json", plan.workload));
        if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, trace))
        {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("@info trace_file {}", path.display());
    }
    for (key, text) in &outcome.info {
        println!("@info {key} {text}");
    }
    for (name, ok, detail) in &outcome.gates {
        println!("@gate {name} {} {detail}", if *ok { "ok" } else { "FAIL" });
    }
    for (name, value) in &outcome.metrics {
        println!("@metric {name} {}", json_num(*value));
    }
    println!("@count {} {}", outcome.attempted, outcome.failed);
    println!("@end");
    ExitCode::SUCCESS
}

/// What the supervisor learned from one child.
struct RunResult {
    plan: Plan,
    /// The process printed its `@end` line and exited 0.
    finished: bool,
    metrics: Metrics,
    gates: Vec<(String, bool, String)>,
    info: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    steps_seen: u64,
    stderr_head: String,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.finished
            && self.failed == 0
            && self.attempted >= 1
            && self.gates.iter().all(|g| g.1)
            && defs(self.plan.trace)
                .iter()
                .all(|d| self.metrics.contains_key(d.name))
    }

    fn json(&self) -> String {
        result_json(
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.plan.trace,
            &self.metrics,
        )
    }
}

fn static_name(name: &str, trace: bool) -> Option<&'static str> {
    defs(trace).iter().map(|d| d.name).find(|n| *n == name)
}

fn supervise(plan: &Plan, out_dir: &Path) -> RunResult {
    let mut res = RunResult {
        plan: *plan,
        finished: false,
        metrics: Metrics::new(),
        gates: Vec::new(),
        info: Vec::new(),
        attempted: 0,
        failed: 0,
        steps_seen: 0,
        stderr_head: String::new(),
    };
    let exe = std::env::current_exe().expect("path of this executable");
    let started = Instant::now();
    let mut proc = Command::new(exe)
        .arg("--child")
        .args(["--workload", plan.workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if plan.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the workload process");
    let mut stderr = proc.stderr.take().expect("piped stderr");
    let keeper = std::thread::spawn(move || {
        let mut kept = Vec::new();
        let mut buf = [0u8; 8192];
        while let Ok(n) = stderr.read(&mut buf) {
            if n == 0 {
                break;
            }
            let room = STDERR_KEEP.saturating_sub(kept.len());
            kept.extend_from_slice(&buf[..n.min(room)]);
        }
        String::from_utf8_lossy(&kept).into_owned()
    });
    for line in BufReader::new(proc.stdout.take().expect("piped stdout"))
        .lines()
        .map_while(Result::ok)
    {
        let mut words = line.splitn(3, ' ');
        match (words.next(), words.next(), words.next()) {
            (Some("@step"), _, _) => res.steps_seen += 1,
            (Some("@metric"), Some(name), Some(value)) => {
                if let (Some(name), Ok(v)) = (static_name(name, plan.trace), value.parse::<f64>()) {
                    res.metrics.insert(name, v);
                }
            }
            (Some("@gate"), Some(name), Some(rest)) => {
                let (verdict, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                res.gates
                    .push((name.to_string(), verdict == "ok", detail.to_string()));
            }
            (Some("@info"), Some(key), Some(text)) => {
                res.info.push((key.to_string(), text.to_string()))
            }
            (Some("@count"), Some(a), Some(f)) => {
                res.attempted = a.parse().unwrap_or(0);
                res.failed = f.parse().unwrap_or(0);
            }
            (Some("@end"), _, _) => res.finished = true,
            _ => {}
        }
    }
    res.finished &= proc.wait().is_ok_and(|s| s.success());
    res.stderr_head = keeper.join().unwrap_or_default();
    // Whole workload process, spawn to exit: time to solution, teardown
    // included.
    let wall = started.elapsed().as_secs_f64();
    if !plan.trace {
        res.metrics.insert("run_wall_s", wall);
    }
    res.info
        .push(("process_wall".to_string(), format!("{wall:.2} s")));
    if !res.finished {
        // A workload that dies fails every step it had not finished, and
        // its timing metrics are missing. No retry.
        res.metrics.clear();
        res.attempted = res.attempted.max(res.steps_seen + 1);
        res.failed = res.attempted - res.steps_seen;
    }
    res
}

fn print_human(r: &RunResult) {
    let pass = if r.plan.trace {
        "traced pass, per-layer"
    } else {
        "end-to-end"
    };
    println!("\n== {} ({pass}, seed {}) ==", r.plan.workload, r.plan.seed);
    for (key, text) in &r.info {
        println!("   {key}: {text}");
    }
    for d in defs(r.plan.trace) {
        let bound = if d.bound > 0.0 {
            let sign = if d.better == Better::Lower { '+' } else { '-' };
            format!("  (regression bound {sign}{:.0} %)", d.bound * 100.0)
        } else {
            String::new()
        };
        match r.metrics.get(d.name) {
            Some(v) => println!("   {:<26} {:>14.6} {}{bound}", d.name, v, d.unit),
            None => println!("   {:<26} {:>14} {}", d.name, "missing", d.unit),
        }
    }
    if let (true, Some(&over)) = (r.plan.trace, r.metrics.get("trace_overhead_frac")) {
        if over > 0.10 {
            println!(
                "   WARNING: tracing slowed the step by {:.0} %; read the spans with care",
                over * 100.0
            );
        }
    }
    for (name, ok, detail) in &r.gates {
        println!(
            "   gate {name}: {} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "   failed_frac {frac} ({} of {} steps)   correct: {}",
        r.failed,
        r.attempted,
        r.correct()
    );
    if !r.correct() && !r.stderr_head.is_empty() {
        println!(
            "   --- first {} KiB of the process's stderr ---",
            STDERR_KEEP >> 10
        );
        println!("{}", r.stderr_head);
    }
}

fn write_outputs(out_dir: &Path, results: &[RunResult]) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let mut entries = Vec::new();
    for r in results {
        let kind = if r.plan.trace { "layers" } else { "e2e" };
        std::fs::write(
            out_dir.join(format!("{kind}_{}.json", r.plan.workload)),
            r.json() + "\n",
        )?;
        entries.push(format!(
            "{{\"workload\": {}, \"pass\": {}, \"seed\": {}, \"seconds\": {}, \"result\": {}}}",
            json_str(r.plan.workload),
            json_str(kind),
            r.plan.seed,
            json_num(r.plan.seconds),
            r.json()
        ));
    }
    std::fs::write(
        out_dir.join("summary.json"),
        format!("[\n{}\n]\n", entries.join(",\n")),
    )
}

/// Run every plan twice and compare: timings within their bound, counts
/// bitwise equal.
fn selfcheck(plans: &[Plan], out_dir: &Path) -> bool {
    let mut ok = true;
    for plan in plans {
        let (a, b) = (supervise(plan, out_dir), supervise(plan, out_dir));
        let pass = if plan.trace { "traced" } else { "e2e" };
        println!("\n== selfcheck {} ({pass}) ==", plan.workload);
        if !(a.correct() && b.correct()) {
            println!("   a run failed: correct {} / {}", a.correct(), b.correct());
            ok = false;
            continue;
        }
        if (a.attempted, a.failed) != (b.attempted, b.failed) {
            println!("   failed_frac differs");
            ok = false;
        }
        for d in defs(plan.trace) {
            let (x, y) = (a.metrics[d.name], b.metrics[d.name]);
            let rel = if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().max(y.abs())
            };
            let (verdict, bad) = if d.exact {
                if x.to_bits() == y.to_bits() {
                    ("exact", false)
                } else {
                    ("MISMATCH (must repeat exactly)", true)
                }
            } else if d.bound > 0.0 {
                if rel <= d.bound {
                    ("within bound", false)
                } else {
                    ("OUTSIDE BOUND", true)
                }
            } else {
                ("info", false)
            };
            ok &= !bad;
            println!(
                "   {:<26} {:>14.6} {:>14.6}  diff {:>6.2} %  bound {:>4.0} %  {verdict}",
                d.name,
                x,
                y,
                rel * 100.0,
                d.bound * 100.0
            );
        }
    }
    ok
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--traced] [--selfcheck]\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, DEFAULT_SEED, DEFAULT_SECONDS);
    let (mut trace, mut traced_only, mut is_child, mut check) = (None, false, false, false);
    let mut out_dir = PathBuf::from("benchmark/out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match flag.as_str() {
            "--workload" => {
                let name = value();
                match WORKLOADS.iter().find(|w| w.0 == name) {
                    Some(w) => workload = Some(w.0),
                    None => return usage(),
                }
            }
            "--seed" => match value().parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if (1.0..=60.0).contains(&s) => seconds = s,
                _ => return usage(),
            },
            "--trace" => match value().as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(),
            },
            "--traced" => traced_only = true,
            "--selfcheck" => check = true,
            "--child" => is_child = true,
            "--out" => out_dir = PathBuf::from(value()),
            _ => return usage(),
        }
    }
    let plan = |workload, trace| Plan {
        workload,
        seed,
        seconds,
        trace,
    };
    if is_child {
        return match (workload, trace) {
            (Some(w), Some(t)) => child(&plan(w, t), &out_dir),
            _ => usage(),
        };
    }

    let passes: Vec<bool> = match (trace, traced_only) {
        (Some(t), _) => vec![t],
        (None, true) => vec![true],
        (None, false) => vec![false, true],
    };
    let names: Vec<&'static str> =
        workload.map_or_else(|| WORKLOADS.iter().map(|w| w.0).collect(), |w| vec![w]);
    let plans: Vec<Plan> = passes
        .iter()
        .flat_map(|&t| names.iter().map(move |&w| plan(w, t)))
        .collect();
    println!(
        "hot-benchmark: seed {seed}, {seconds} s per run, {} hardware thread(s)",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    if check {
        return if selfcheck(&plans, &out_dir) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let results: Vec<RunResult> = plans
        .iter()
        .map(|p| {
            let r = supervise(p, &out_dir);
            print_human(&r);
            r
        })
        .collect();
    if let Err(e) = write_outputs(&out_dir, &results) {
        eprintln!("cannot write {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    println!("\nresults written to {}", out_dir.display());
    // One run asked for: its result object is the last line, for the driver.
    if let [only] = results.as_slice() {
        println!("{}", only.json());
    }
    if results.iter().all(RunResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
