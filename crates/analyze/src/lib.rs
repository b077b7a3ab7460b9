//! # hot-analyze
//!
//! Correctness tooling for the HOT97 workspace:
//!
//! * [`lexer`] + [`model`] — the analysis engine: a token-level Rust
//!   lexer (strings, char/byte literals, raw strings, nested block
//!   comments) producing aligned code/comment line views and a token
//!   stream, plus a lightweight semantic model on top (function spans,
//!   `#[cfg(test)]` masking, call-site and suppression extraction).
//! * [`lint`] — a static workspace linter enforcing the project invariants
//!   the compiler cannot see: the 38-flop accounting convention, f64-only
//!   accumulation paths, deterministic (iteration-order-free) reductions
//!   and wire encoding, wall-clock-free simulation logic, an audited
//!   `unwrap`/`expect` surface, no `pub` item that only tests use, and
//!   honest suppression inventories.
//! * [`protocol`] — a static communication-protocol checker: extracts
//!   the send/recv/post/poll call graph and every collective site of
//!   `crates/comm` and the drivers (`crates/core/src/{dwalk,decomp,dtree}.rs`,
//!   `crates/cosmo/src/supervisor.rs`), then enforces collective-order,
//!   tag-matching, and counter-discipline over all np at once.
//! * [`json`] — schema-versioned finding output for CI artifacts.
//! * [`schedules`] — a dynamic checker that reruns the comm runtime's
//!   collectives and ABM traversal under many seeded rank interleavings
//!   (via [`hot_comm::RunConfigBuilder::event_seed`]) and asserts freedom
//!   from deadlock, undrained teardown messages, and schedule-dependent
//!   results.
//! * [`faults`] — the same workloads crossed with seeded fault plans
//!   (drop/duplicate/reorder/corrupt/stall at ≥ 10% each), asserting the
//!   reliable transport keeps results and the `hot-trace` report bitwise
//!   identical to the fault-free reference.
//! * [`kills`] — crash-stop rank deaths crossed with schedules: every
//!   fired kill must be detected by a survivor, and supervised
//!   checkpoint-rollback recovery must converge to the bitwise fault-free
//!   golden; a planted undetected-kill fixture proves the gate bites.
//!
//! The three dynamic checkers share one driver (`sweep.rs`): one report
//! type ([`SweepReport`]), one panic-catching run helper, one loop that
//! runs a reference and then a list of labelled run configurations and
//! compares each with it, and one printer ([`print_sweep`]) that the CLI
//! calls for all three subcommands.
//!
//! Run as `cargo run -p hot-analyze -- lint`,
//! `cargo run -p hot-analyze -- protocol`,
//! `cargo run -p hot-analyze -- schedules --seeds 32`,
//! `cargo run -p hot-analyze -- faults --seeds 32`, and
//! `cargo run -p hot-analyze -- kills --seeds 8`. All exit non-zero
//! on findings; `ci.sh` wires them into the verify pipeline. Rules,
//! rationale and suppression syntax are documented in `VERIFICATION.md`.

pub mod faults;
pub mod json;
pub mod kills;
pub mod lexer;
pub mod lint;
pub mod model;
pub mod protocol;
pub mod schedules;
mod sweep;
pub(crate) mod workloads;

pub use sweep::{print_sweep, SweepReport};
