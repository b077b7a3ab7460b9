//! The one driver behind the dynamic sweeps (`schedules`, `faults`,
//! `kills`): one report type, one way to run a configuration with its
//! rank panics caught, one run-vs-reference compare loop, and one printer.
//!
//! A sweep is a list of labelled [`RunConfigBuilder`]s run after a
//! reference. The schedule sweep is "production on two workers, then N
//! seeded schedules"; the fault sweep is "fault-free reference, then
//! hostile fault seeds × schedules". The kill sweeps judge their runs by
//! the kill monitor rather than by a reference, so they use only the
//! panic catcher, the failure cap and the report.

use hot_comm::{Comm, ReliabilityStats, RunConfigBuilder, RunOutput};
use std::fmt::Debug;
use std::panic::AssertUnwindSafe;
use std::process::ExitCode;

/// Past this many failures a sweep stops: the first few name the bug,
/// the rest only repeat it.
const MAX_FAILURES: usize = 8;

/// Outcome of one sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Workload or sweep name.
    pub name: &'static str,
    /// What ran: `32 seeds`, `4 fault seeds × 3 schedules`, ….
    pub ran: String,
    /// Human-readable failures; empty means the sweep passed.
    pub failures: Vec<String>,
    /// What a passing sweep reports after its `ok` line; may be empty.
    pub detail: String,
}

impl SweepReport {
    /// True when every run passed every assertion.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `body` as configured by `cfg`, catching a rank panic (deadlock
/// and teardown-audit reports arrive as panics) into its text.
pub(crate) fn run_caught<T, F>(cfg: RunConfigBuilder, body: F) -> Result<RunOutput<T>, String>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    std::panic::catch_unwind(AssertUnwindSafe(|| cfg.run(body))).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// True once `failures` has passed the cap, after appending the one line
/// that says the sweep stopped there.
pub(crate) fn aborted(failures: &mut Vec<String>) -> bool {
    let full = failures.len() > MAX_FAILURES;
    if full {
        failures.push(format!("… sweep aborted after {MAX_FAILURES} failures"));
    }
    full
}

/// What one compare loop found and what its runs' transports did.
pub(crate) struct Compared {
    /// Human-readable failures.
    pub failures: Vec<String>,
    /// Recovery activity summed over every completed run and rank.
    pub recovered: ReliabilityStats,
    /// Faults injected, summed over every completed run.
    pub injected: u64,
}

/// Run `reference`, then each of `runs`, and compare every run with the
/// reference. Each run must complete without a rank panic and leave no
/// message undrained; its per-rank results — and, with
/// `compare_traffic`, its per-rank [`hot_comm::TrafficStats`] — must
/// equal the reference's bitwise. The reference itself must report no
/// recovery activity; should it fail, the first run that completes
/// stands in for it. Stops once [`aborted`] says so.
pub(crate) fn compare<T, F>(
    reference: (String, RunConfigBuilder),
    runs: impl IntoIterator<Item = (String, RunConfigBuilder)>,
    compare_traffic: bool,
    body: F,
) -> Compared
where
    T: Send + PartialEq + Debug,
    F: Fn(&mut Comm) -> T + Sync,
{
    let mut c =
        Compared { failures: Vec::new(), recovered: ReliabilityStats::default(), injected: 0 };
    let mut golden: Option<(String, RunOutput<T>)> = None;
    for (i, (label, cfg)) in std::iter::once(reference).chain(runs).enumerate() {
        match run_caught(cfg, &body) {
            Err(msg) => c.failures.push(format!("{label}: rank panic: {msg}")),
            Ok(out) => {
                let quiet = out.injected.total() == 0
                    && out.reliability.iter().all(ReliabilityStats::is_quiet);
                if i == 0 && !quiet {
                    c.failures.push(format!("{label} reported recovery activity"));
                }
                if !out.undrained.is_empty() {
                    let list: Vec<String> = out.undrained.iter().map(ToString::to_string).collect();
                    c.failures.push(format!(
                        "{label}: {} message(s) undrained at teardown: {}",
                        list.len(),
                        list.join("; ")
                    ));
                }
                for s in &out.reliability {
                    c.recovered.merge(s);
                }
                c.injected += out.injected.total();
                match &golden {
                    None => golden = Some((label, out)),
                    Some((ref_label, r)) => {
                        if out.results != r.results {
                            c.failures.push(format!(
                                "{label}: results differ from {ref_label} — schedule-dependent \
                                 or fault-dependent\n  {ref_label}: {:?}\n  {label}: {:?}",
                                r.results, out.results
                            ));
                        }
                        if compare_traffic && out.stats != r.stats {
                            c.failures.push(format!(
                                "{label}: TrafficStats differ from {ref_label} — the message \
                                 pattern is schedule-dependent or recovery traffic leaked into \
                                 the ledger\n  {ref_label}: {:?}\n  {label}: {:?}",
                                r.stats, out.stats
                            ));
                        }
                    }
                }
            }
        }
        if aborted(&mut c.failures) {
            break;
        }
    }
    c
}

/// Print `reports` as every sweep subcommand does — an `ok` line (with
/// its detail) per passing sweep, a `FAIL` line and its failures per
/// failing one — then the verdict line: `hot-analyze {cmd}: {clean}`, or
/// `FAILED` and exit 1.
pub fn print_sweep(cmd: &str, reports: &[SweepReport], clean: &str) -> ExitCode {
    for rep in reports {
        if rep.passed() {
            let sep = if rep.detail.is_empty() { "" } else { ": " };
            println!("ok   {} ({}){sep}{}", rep.name, rep.ran, rep.detail);
        } else {
            println!("FAIL {} ({})", rep.name, rep.ran);
            for f in &rep.failures {
                println!("     {f}");
            }
        }
    }
    if reports.iter().all(SweepReport::passed) {
        println!("hot-analyze {cmd}: {clean}");
        ExitCode::SUCCESS
    } else {
        println!("hot-analyze {cmd}: FAILED");
        ExitCode::FAILURE
    }
}
