//! Static workspace linter.
//!
//! Built on the token-level lexer in [`crate::lexer`] (the container has
//! no `syn`), so comment text and string/char-literal interiors are
//! invisible to every rule: `//` inside a string is not a comment start,
//! and braces inside literals no longer confuse `#[cfg(test)]` masking or
//! function-span detection. Each rule is named; a finding on line `L` is
//! suppressed by putting `hot-lint: allow(rule-name)` in a *comment* on
//! line `L` or the line immediately above — always with a justification,
//! which is the point: the annotation is a reviewed claim, not an escape
//! hatch. The `unwrap-audit` rule additionally honors a per-file
//! allowlist (`crates/analyze/unwrap-allowlist.txt`).
//!
//! The annotation inventory is itself checked: a marker that suppresses
//! nothing, a marker naming an unknown rule, and an allowlist entry for a
//! file without unwrap/expect sites are all `stale-suppression` findings.
//!
//! Code inside `#[cfg(test)]` modules is exempt from every rule: tests
//! may unwrap, time themselves, and truncate at will.
//!
//! One rule, `dead-export`, is cross-file: [`lint_workspace`] runs it over
//! every file at once through [`dead_exports`], and [`lint_source`], which
//! sees one file, never reports it.
//!
//! Rules and their paper-tied rationale are documented in VERIFICATION.md.

use crate::lexer::{FileMap, Tok, TokKind};
use crate::model::{self, Suppressions};
use crate::protocol;
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier, e.g. `determinism`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        write!(f, "    | {}", self.excerpt)
    }
}

/// Names of every lint rule, for `--help` output and docs cross-checking.
/// (The `hot-analyze protocol` subcommand has its own rule list,
/// [`protocol::RULES`].)
pub const RULES: [&str; 8] = [
    "f32-accumulation",
    "flop-accounting",
    "determinism",
    "wall-clock",
    "unwrap-audit",
    "runtime-api",
    "dead-export",
    "stale-suppression",
];

/// The one cross-file rule: it runs in [`dead_exports`], not per file.
const DEAD_EXPORT: &str = "dead-export";

/// Trees outside lint's scope whose non-test code still counts as a use
/// for `dead-export`: the linter's own crate, the examples and the
/// benchmark harness (its own workspace, built on the public API).
const USE_ONLY_DIRS: [&str; 3] = ["crates/analyze", "examples", "benchmark/src"];

/// Item keywords `dead-export` checks after `pub`.
const EXPORT_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Keywords that introduce a definition: the name after one is not a use.
const DEFINING_KEYWORDS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union"];

/// Files (by suffix match) forming the f64 accumulation paths: multipole
/// moments, tree walks, and the interaction kernels.
const F32_SCOPE: [&str; 5] =
    ["moments.rs", "walk.rs", "dwalk.rs", "kernels.rs", "kernel.rs"];

/// Files whose map iteration order can leak into reduction results or wire
/// bytes.
const DETERMINISM_SCOPE: [&str; 10] = [
    "comm/src/collectives.rs",
    "comm/src/wire.rs",
    "comm/src/abm.rs",
    "comm/src/runtime.rs",
    "comm/src/fault.rs",
    "comm/src/reliable.rs",
    "core/src/dwalk.rs",
    "core/src/moments.rs",
    "vortex/src/remesh.rs",
    "cosmo/src/fof.rs",
];

/// Force-kernel entry points: any non-test call site must visibly feed the
/// `hot-base` flop counters from its enclosing function. The scalar
/// kernels, gravity's list-apply entry and the vortex batch kernels.
const KERNEL_CALLS: [&str; 9] = [
    "pp_acc(",
    "pp_acc_pot(",
    "pc_mono_acc(",
    "pc_quad_acc(",
    "pc_quad_pot(",
    "apply_segment(",
    "velocity_and_stretching(",
    "vortex_pp_batch(",
    "vortex_pc_batch(",
];

/// Files that *define* the kernels (their own bodies are the 38 flops being
/// counted, so they cannot count themselves).
const KERNEL_DEFS: [&str; 2] = ["gravity/src/kernels.rs", "vortex/src/kernel.rs"];

/// Evidence that a function feeds the flop counters.
const FLOP_EVIDENCE: [&str; 3] = ["counter.add(", "FlopCounter", "add(Kind::"];

/// Benchmark/experiment crates: self-timing by design, so the wall-clock
/// and flop-accounting rules skip them. The NPB suite's whole contract is
/// "time yourself and report Mop/s", and `bench` drives experiments.
const SELF_TIMING_CRATES: [&str; 2] = ["crates/npb/", "crates/bench/"];

/// The execution substrate's own modules: the only places allowed to spawn
/// OS threads outside tests (the executor's worker pool).
const RUNTIME_EXEMPT: [&str; 2] = ["comm/src/events.rs", "comm/src/fiber.rs"];

/// The one file allowed `thread::scope(` outside the substrate: it owns
/// the *compute*-thread fan-out (`hot_core::walk::walk_apply`, spreading the
/// sink groups of one `ForceCalc` evaluation, or of one distributed-walk
/// round's ready batch, over the hardware threads). The rule exists to
/// keep *rank* concurrency inside `RunConfig`; compute threads perform no
/// channel operation, end before the call returns, and so are invisible
/// to schedules, fault plans and the event runtime by construction. Scoped
/// threads only — a detached `thread::spawn(` there is still a finding.
const COMPUTE_THREADS_EXEMPT: &str = "core/src/walk.rs";
const SCOPED_SPAWN_CALL: &str = "thread::scope(";

/// Direct OS-thread spawn forms. Rank concurrency must come from
/// `RunConfig` (every rank a fiber on the executor); ad-hoc threads bypass
/// the scheduler hooks, so seeded schedules, fault injection, and deadlock
/// proofs cannot see them.
const THREAD_SPAWN_CALLS: [&str; 3] =
    ["thread::spawn(", SCOPED_SPAWN_CALL, "thread::Builder"];

/// Crates whose non-test code can run on a rank fiber. A fiber may be
/// resumed on a different worker thread than the one it yielded on, and
/// the compiler treats a thread-local's address as constant within a
/// function, so a `thread_local!` read after a switch can hit the previous
/// worker's slot.
const FIBER_CODE_CRATES: [&str; 4] =
    ["crates/comm/", "crates/core/", "crates/gravity/", "crates/cosmo/"];

/// The fiber switch's own `CURRENT` pointer: the one thread-local allowed
/// in fiber-run code, read only through never-inlined accessors.
const THREAD_LOCAL_EXEMPT: &str = "comm/src/fiber.rs";

/// Lint one source file. `rel` is the workspace-relative path with `/`
/// separators; `allow_unwrap` is the list of allowlisted paths for the
/// unwrap-audit rule.
#[must_use]
pub fn lint_source(rel: &str, source: &str, allow_unwrap: &[String]) -> Vec<Finding> {
    lint_filemap(rel, &FileMap::parse(source), allow_unwrap)
}

/// Rule sweep over an already-lexed file.
fn lint_filemap(rel: &str, fm: &FileMap, allow_unwrap: &[String]) -> Vec<Finding> {
    let in_test = model::test_mask(fm);
    let mut sup = Suppressions::collect(fm);
    let mut findings = Vec::new();

    let mut emit = |rule: &'static str, idx: usize, message: String| {
        if !in_test[idx] && !sup.allows(rule, idx) {
            findings.push(Finding {
                rule,
                file: rel.to_string(),
                line: idx + 1,
                excerpt: fm.lines[idx].trim().to_string(),
                message,
            });
        }
    };

    let self_timing = SELF_TIMING_CRATES.iter().any(|c| rel.starts_with(c));

    // Rule: f32-accumulation.
    if F32_SCOPE.iter().any(|s| rel.ends_with(s)) && !self_timing {
        for (i, code) in fm.code.iter().enumerate() {
            if code.contains("as f32") {
                emit(
                    "f32-accumulation",
                    i,
                    "truncation to f32 in an accumulation path: forces and moments \
                     accumulate in f64 (the paper's kernel is f64 with an f32 rsqrt \
                     seed only); keep the cast out of moments/walk/kernel files"
                        .to_string(),
                );
            }
        }
    }

    // Rule: determinism.
    if DETERMINISM_SCOPE.iter().any(|s| rel.ends_with(s)) {
        for (i, code) in fm.code.iter().enumerate() {
            if code.contains("HashMap") || code.contains("HashSet") {
                emit(
                    "determinism",
                    i,
                    "hash-order container in a reduction/wire path: iteration order \
                     is nondeterministic, so reduced values and encoded bytes would \
                     differ run-to-run; use BTreeMap/sorted Vec, or suppress with a \
                     justification proving the map is never iterated"
                        .to_string(),
                );
            }
        }
    }

    // Rule: wall-clock.
    if !self_timing {
        for (i, code) in fm.code.iter().enumerate() {
            if code.contains("Instant::now") || code.contains("SystemTime") {
                emit(
                    "wall-clock",
                    i,
                    "wall-clock read in simulation logic: results must be a pure \
                     function of inputs and seeds; time the library from \
                     outside (benchmark/), or suppress with a justification that \
                     the value never reaches simulation state"
                        .to_string(),
                );
            }
        }
    }

    // Rule: unwrap-audit.
    if !allow_unwrap.iter().any(|a| rel == a) && !self_timing {
        for (i, code) in fm.code.iter().enumerate() {
            if code.contains(".unwrap()") || code.contains(".expect(") {
                emit(
                    "unwrap-audit",
                    i,
                    "unaudited unwrap/expect in library code: add the file to \
                     crates/analyze/unwrap-allowlist.txt with a reason, or suppress \
                     the line with a justification"
                        .to_string(),
                );
            }
        }
    }

    // Rule: flop-accounting.
    if !KERNEL_DEFS.iter().any(|s| rel.ends_with(s)) && !self_timing {
        for span in model::function_spans(fm) {
            let has_kernel_call = |i: &usize| {
                let code = &fm.code[*i];
                KERNEL_CALLS.iter().any(|k| {
                    // A call site, not a definition or import.
                    code.contains(k) && !code.contains("fn ") && !code.contains("use ")
                })
            };
            let call_line = (span.start..span.end).find(has_kernel_call);
            if let Some(idx) = call_line {
                let counted = fm.code[span.start..span.end].iter().any(|code| {
                    FLOP_EVIDENCE.iter().any(|e| code.contains(e))
                });
                if !counted {
                    emit(
                        "flop-accounting",
                        idx,
                        "force-kernel call whose enclosing function never feeds the \
                         hot-base flop counters: every interaction must be counted \
                         through the 38-flop convention or the reported Gflop/s are \
                         fiction; add counter.add(Kind::..., n) beside the loop"
                            .to_string(),
                    );
                }
            }
        }
    }

    // Rule: runtime-api.
    if !RUNTIME_EXEMPT.iter().any(|s| rel.ends_with(s)) {
        let owns_compute_threads = rel.ends_with(COMPUTE_THREADS_EXEMPT);
        for (i, code) in fm.code.iter().enumerate() {
            let spawns_thread = THREAD_SPAWN_CALLS
                .iter()
                .filter(|&&k| !(owns_compute_threads && k == SCOPED_SPAWN_CALL))
                .any(|k| code.contains(k) && !code.contains("use "));
            if spawns_thread {
                emit(
                    "runtime-api",
                    i,
                    "rank concurrency outside the runtime modules: spawn ranks \
                     through RunConfig::builder() (which runs every rank as a \
                     fiber on the executor and keeps every blocking point \
                     visible to the scheduler hooks); ad-hoc std::thread use \
                     hides work from seeded schedules and fault injection"
                        .to_string(),
                );
            }
        }
    }

    // Rule: runtime-api, thread-local half.
    if FIBER_CODE_CRATES.iter().any(|c| rel.starts_with(c)) && !rel.ends_with(THREAD_LOCAL_EXEMPT)
    {
        for (i, code) in fm.code.iter().enumerate() {
            if code.contains("thread_local!") {
                emit(
                    "runtime-api",
                    i,
                    "thread-local in code a rank fiber can run: a fiber may resume \
                     on a different worker thread, and a thread-local's address \
                     cached across the switch then names the previous worker's \
                     slot; keep the state per rank (EventSched's per-rank atomics) \
                     or pass it explicitly"
                        .to_string(),
                );
            }
        }
    }

    // Rule: stale-suppression — after every other rule has had its chance
    // to consume a marker. Markers naming protocol rules are audited by
    // `hot-analyze protocol` instead (it knows which ones fire), markers
    // naming `dead-export` by the cross-file pass in `dead_exports`, and
    // `allow(stale-suppression)` markers are the meta-escape for the rare
    // marker that is load-bearing only on some platforms/configs.
    let marks: Vec<(usize, String)> = sup
        .markers
        .iter()
        .filter(|m| !m.used && !in_test[m.line] && m.rule != "stale-suppression")
        .filter(|m| m.rule != DEAD_EXPORT)
        .filter(|m| !protocol::RULES.contains(&m.rule.as_str()))
        .map(|m| (m.line, m.rule.clone()))
        .collect();
    for (line, rule) in marks {
        if !sup.allows("stale-suppression", line) {
            findings.push(stale_marker(rel, fm, line, &rule));
        }
    }

    findings
}

/// The `stale-suppression` finding for a `hot-lint: allow(rule)` marker
/// on 0-based `line` that suppressed nothing.
fn stale_marker(rel: &str, fm: &FileMap, line: usize, rule: &str) -> Finding {
    let message = if RULES.contains(&rule) {
        format!(
            "suppression marker `hot-lint: allow({rule})` suppresses no \
             finding on this or the following line; the code it justified \
             has moved or been fixed — remove the marker"
        )
    } else {
        format!(
            "suppression marker names unknown rule `{rule}`; known rules: \
             {} (lint), {} (protocol)",
            RULES.join(", "),
            protocol::RULES.join(", ")
        )
    };
    Finding {
        rule: "stale-suppression",
        file: rel.to_string(),
        line: line + 1,
        excerpt: fm.lines[line].trim().to_string(),
        message,
    }
}

/// Rule `dead-export` over `(workspace-relative path, source)` pairs: the
/// multi-file entry [`lint_workspace`] runs, split out so fixture tests
/// drive the same code path CI uses. A `pub` fn, struct, enum, trait,
/// type, const or static in lint's scope is a finding when no identifier
/// token of production code names it. Production is every file outside a
/// `tests/` directory, minus its `#[cfg(test)]` code; `use` declarations
/// (except that importing a trait puts its methods in scope), a
/// definition's own name and an `impl` block's self type do not count,
/// and comments are not tokens. The check is by name, so an item sharing
/// its name with anything production code names passes.
#[must_use]
pub fn dead_exports(files: &[(String, String)]) -> Vec<Finding> {
    let maps: Vec<(String, FileMap)> =
        files.iter().map(|(rel, src)| (rel.clone(), FileMap::parse(src))).collect();
    dead_export(&maps)
}

fn dead_export(files: &[(String, FileMap)]) -> Vec<Finding> {
    let production: Vec<(&str, &FileMap, Vec<bool>)> = files
        .iter()
        .filter(|(rel, _)| !rel.split('/').any(|c| c == "tests"))
        .map(|(rel, fm)| (rel.as_str(), fm, model::test_mask(fm)))
        .collect();
    let (mut used, mut imported) = (HashSet::new(), HashSet::new());
    for (_, fm, in_test) in &production {
        let (uses, imports) = used_names(fm, in_test);
        used.extend(uses);
        imported.extend(imports);
    }
    let mut findings = Vec::new();
    for (rel, fm, in_test) in production.iter().filter(|(rel, ..)| in_lint_scope(rel)) {
        let mut sup = Suppressions::collect(fm);
        for (line, kind, name) in exports(fm, in_test) {
            // Importing a trait puts its methods in scope: that is a use.
            let live = used.contains(name) || (kind == "trait" && imported.contains(name));
            if !live && !sup.allows(DEAD_EXPORT, line) {
                findings.push(Finding {
                    rule: DEAD_EXPORT,
                    file: rel.to_string(),
                    line: line + 1,
                    excerpt: fm.lines[line].trim().to_string(),
                    message: format!(
                        "`pub {kind} {name}` is named by no production code, only by \
                         tests, `use` lines or comments: delete it with the tests that \
                         exercise only it, or gate it with #[cfg(test)] when other \
                         tests use it as a helper or oracle"
                    ),
                });
            }
        }
        let stale: Vec<usize> = sup
            .markers
            .iter()
            .filter(|m| m.rule == DEAD_EXPORT && !m.used && !in_test[m.line])
            .map(|m| m.line)
            .collect();
        for line in stale {
            if !sup.allows("stale-suppression", line) {
                findings.push(stale_marker(rel, fm, line, DEAD_EXPORT));
            }
        }
    }
    findings
}

/// The `pub` items of a file's non-test code as `(0-based line, keyword,
/// name)`. `pub(crate)` and narrower items are left to rustc's
/// `dead_code` lint.
fn exports<'a>(fm: &'a FileMap, in_test: &[bool]) -> Vec<(usize, &'static str, &'a str)> {
    let toks = &fm.tokens;
    let ident = |j: usize, names: &[&str]| {
        toks.get(j).is_some_and(|t| names.iter().any(|n| t.is_ident(n)))
    };
    let mut out = Vec::new();
    for k in 0..toks.len() {
        if !toks[k].is_ident("pub") || in_test[toks[k].line - 1] {
            continue;
        }
        // Qualifiers: `const fn`, `unsafe fn`, `async fn`, `extern "C" fn`.
        let mut j = k + 1;
        while ident(j, &["unsafe", "async", "extern"])
            || toks.get(j).is_some_and(|t| t.kind == TokKind::Str)
            || (ident(j, &["const"]) && ident(j + 1, &["fn", "unsafe", "async", "extern"]))
        {
            j += 1;
        }
        let Some(kind) = EXPORT_KINDS.iter().find(|&&kw| ident(j, &[kw])) else {
            continue;
        };
        let at = if *kind == "static" && ident(j + 1, &["mut"]) { j + 2 } else { j + 1 };
        if let Some(name) = toks.get(at).filter(|t| t.kind == TokKind::Ident && t.text != "_") {
            out.push((name.line - 1, *kind, name.text.as_str()));
        }
    }
    out
}

/// Identifiers the non-test code of a file names, as `(uses, imports)`:
/// uses are outside `use` declarations, minus definitions' own names and
/// `impl` self types; imports are the names `use` declarations list.
fn used_names<'a>(fm: &'a FileMap, in_test: &[bool]) -> (Vec<&'a str>, Vec<&'a str>) {
    let toks = &fm.tokens;
    let idents = |ts: &'a [Tok]| {
        ts.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str())
    };
    let (mut out, mut imports) = (Vec::new(), Vec::new());
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        if in_test[t.line - 1] {
            k += 1;
        } else if t.is_ident("use") {
            let end = toks[k..].iter().position(|t| t.is_punct(";")).map_or(toks.len(), |p| k + p);
            imports.extend(idents(&toks[k + 1..end]));
            k = end + 1;
        } else if t.is_ident("impl") && item_start(toks, k) {
            let self_ty = impl_self_type(toks, k);
            out.extend(idents(&toks[k + 1..self_ty.start]));
            k = self_ty.end;
        } else {
            let defined = k > 0
                && (DEFINING_KEYWORDS.iter().any(|kw| toks[k - 1].is_ident(kw))
                    || (k > 1 && toks[k - 1].is_ident("mut") && toks[k - 2].is_ident("static")));
            if t.kind == TokKind::Ident && !defined {
                out.push(t.text.as_str());
            } else if t.kind == TokKind::Str {
                out.extend(inline_format_args(&t.text));
            }
            k += 1;
        }
    }
    (out, imports)
}

/// Names a string literal may capture as inline format arguments: the `x`
/// of `{x}` and `{x:?}`. Any literal counts, and so does an escaped
/// `{{x}}`, so the rule errs toward a use.
fn inline_format_args(lit: &str) -> impl Iterator<Item = &str> {
    lit.split('{').skip(1).filter_map(|piece| {
        let end = piece.find(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))?;
        let name = &piece[..end];
        let starts_ident = name.starts_with(|c: char| c == '_' || c.is_ascii_alphabetic());
        (starts_ident && matches!(piece[end..].chars().next(), Some('}' | ':'))).then_some(name)
    })
}

/// True when token `k` starts an item: first in the file, or after an
/// item or block boundary, an attribute, or `unsafe`.
fn item_start(toks: &[Tok], k: usize) -> bool {
    k == 0
        || ["}", ";", "]", "{"].iter().any(|p| toks[k - 1].is_punct(p))
        || toks[k - 1].is_ident("unsafe")
}

/// The token range of the self type of the `impl` block at `k`: after
/// `for` in a trait impl, after the generic parameters otherwise, up to
/// `where` or the opening brace.
fn impl_self_type(toks: &[Tok], k: usize) -> Range<usize> {
    let generics = toks.get(k + 1).is_some_and(|t| t.is_punct("<"));
    let mut depth = 0i64;
    let mut start = k + 1;
    let mut j = k + 1;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" | ">>" => {
                depth -= if t.text == ">" { 1 } else { 2 };
                if generics && depth == 0 && start == k + 1 {
                    start = j + 1;
                }
            }
            "{" | "where" if depth == 0 => break,
            "for" if depth == 0 && t.kind == TokKind::Ident => start = j + 1,
            _ => {}
        }
        j += 1;
    }
    start..j
}

/// One entry of the unwrap allowlist.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Workspace-relative path of the audited file.
    pub path: String,
    /// 1-based line of the entry in the allowlist file.
    pub line: usize,
    /// The raw entry line (path plus audit reason).
    pub raw: String,
}

/// Path of the allowlist, workspace-relative.
pub const ALLOWLIST_PATH: &str = "crates/analyze/unwrap-allowlist.txt";

/// Load the unwrap allowlist with line numbers: one workspace-relative
/// path per line, `#` comments and blanks ignored, anything after
/// whitespace is a reason.
#[must_use]
pub fn load_allowlist_entries(root: &Path) -> Vec<AllowEntry> {
    let Ok(text) = std::fs::read_to_string(root.join(ALLOWLIST_PATH)) else {
        return Vec::new();
    };
    text.lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .filter_map(|(i, l)| {
            l.split_whitespace().next().map(|p| AllowEntry {
                path: p.to_string(),
                line: i + 1,
                raw: l.trim().to_string(),
            })
        })
        .collect()
}

/// Collect the workspace sources in scope: `src/` of the root package and
/// every crate under `crates/`, excluding `crates/analyze` itself (its
/// sources quote the rule patterns and plant violations as test fixtures)
/// and excluding the offline dependency shims under `shims/`.
#[must_use]
pub fn collect_sources(root: &Path) -> Vec<PathBuf> {
    rs_files(root, &["crates", "src"])
}

/// True for a workspace-relative path [`collect_sources`] would return.
fn in_lint_scope(rel: &str) -> bool {
    (rel.starts_with("crates/") && !rel.starts_with("crates/analyze/")) || rel.starts_with("src/")
}

/// Every `.rs` file under the given directories of `root`, sorted;
/// `target/` directories and `crates/analyze` below them are skipped.
pub(crate) fn rs_files(root: &Path, dirs: &[&str]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = dirs.iter().map(|d| root.join(d)).collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target")
                    || path == root.join("crates/analyze")
                {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Read `paths` as `(workspace-relative path with `/` separators, source)`
/// pairs; unreadable files are skipped.
pub(crate) fn read_sources(root: &Path, paths: &[PathBuf]) -> Vec<(String, String)> {
    paths
        .iter()
        .filter_map(|path| {
            let source = std::fs::read_to_string(path).ok()?;
            let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
            Some((rel, source))
        })
        .collect()
}

/// True when the file has at least one unwrap/expect outside test code —
/// i.e. the unwrap-audit rule would have something to say about it.
fn has_nontest_unwrap(fm: &FileMap) -> bool {
    let in_test = model::test_mask(fm);
    fm.code
        .iter()
        .enumerate()
        .any(|(i, code)| !in_test[i] && (code.contains(".unwrap()") || code.contains(".expect(")))
}

/// Lint the whole workspace rooted at `root`. Returns all findings,
/// including stale `unwrap-allowlist.txt` entries (files that no longer
/// have any unwrap/expect outside tests, or no longer exist).
#[must_use]
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let entries = load_allowlist_entries(root);
    let allow: Vec<String> = entries.iter().map(|e| e.path.clone()).collect();
    let mut paths = collect_sources(root);
    paths.extend(rs_files(root, &USE_ONLY_DIRS));
    let files: Vec<(String, FileMap)> = read_sources(root, &paths)
        .into_iter()
        .map(|(rel, source)| (rel, FileMap::parse(&source)))
        .collect();
    let mut findings = Vec::new();
    let mut live: Vec<&str> = Vec::new();
    for (rel, fm) in files.iter().filter(|(rel, _)| in_lint_scope(rel)) {
        findings.extend(lint_filemap(rel, fm, &allow));
        if allow.iter().any(|a| a == rel) && has_nontest_unwrap(fm) {
            live.push(rel);
        }
    }
    findings.extend(dead_export(&files));
    for e in &entries {
        if !live.contains(&e.path.as_str()) {
            findings.push(Finding {
                rule: "stale-suppression",
                file: ALLOWLIST_PATH.to_string(),
                line: e.line,
                excerpt: e.raw.clone(),
                message: format!(
                    "allowlist entry for {} is stale: the file has no unwrap/expect \
                     sites outside tests (or does not exist); remove the entry so \
                     the audit inventory stays honest",
                    e.path
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        lint_source(rel, src, &[]).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn f32_rule_fires_in_scope_and_respects_scope() {
        let bad = "pub fn accumulate(x: f64) -> f32 {\n    x as f32\n}\n";
        assert_eq!(rules_hit("crates/core/src/moments.rs", bad), ["f32-accumulation"]);
        assert_eq!(rules_hit("crates/core/src/walk.rs", bad), ["f32-accumulation"]);
        // Out of scope: rsqrt's f32 fast path is the documented exception.
        assert!(rules_hit("crates/base/src/rsqrt.rs", bad).is_empty());
    }

    #[test]
    fn f32_rule_suppressible_inline() {
        let ok = "pub fn f(x: f64) -> f32 {\n    \
                  // hot-lint: allow(f32-accumulation): display only\n    x as f32\n}\n";
        assert!(rules_hit("crates/core/src/moments.rs", ok).is_empty());
    }

    #[test]
    fn determinism_rule_fires_on_hash_containers() {
        let bad = "use std::collections::HashMap;\nfn reduce() {\n    \
                   let m: HashMap<u32, f64> = HashMap::new();\n}\n";
        let hits = rules_hit("crates/comm/src/collectives.rs", bad);
        assert!(hits.iter().all(|r| *r == "determinism"));
        assert!(!hits.is_empty());
        // Same text in an unscoped file is fine.
        assert!(rules_hit("crates/core/src/htable.rs", bad).is_empty());
    }

    #[test]
    fn wall_clock_rule_fires_outside_self_timing_crates() {
        let bad = "fn step() {\n    let t = std::time::Instant::now();\n}\n";
        assert_eq!(rules_hit("crates/core/src/tree.rs", bad), ["wall-clock"]);
        // Benchmark crates time themselves by design.
        assert!(rules_hit("crates/npb/src/ft.rs", bad).is_empty());
        assert!(rules_hit("crates/bench/src/bin/exp_costs.rs", bad).is_empty());
    }

    #[test]
    fn unwrap_audit_fires_and_allowlist_clears() {
        let bad = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        assert_eq!(rules_hit("crates/core/src/tree.rs", bad), ["unwrap-audit"]);
        let allow = vec!["crates/core/src/tree.rs".to_string()];
        assert!(lint_source("crates/core/src/tree.rs", bad, &allow).is_empty());
    }

    #[test]
    fn flop_accounting_fires_on_uncounted_kernel_loop() {
        let calls = [
            ("crates/gravity/src/treecode.rs", "crates/gravity/src/kernels.rs", "pp_acc(d, m, eps2)"),
            (
                "crates/gravity/src/evaluator.rs",
                "crates/gravity/src/kernels.rs",
                "apply_segment(&seg, pos, 0..8, eps2, true, acc, &mut [])",
            ),
            (
                "crates/vortex/src/evaluator.rs",
                "crates/vortex/src/kernel.rs",
                "vortex_pp_batch(xi, ai, 3, &src, sigma2)",
            ),
            (
                "crates/vortex/src/evaluator.rs",
                "crates/vortex/src/kernel.rs",
                "vortex_pc_batch(xi, ai, &cells, sigma2, &mut u, &mut s)",
            ),
        ];
        for (rel, def, call) in calls {
            let bad = format!(
                "fn forces(pos: &[f64]) {{\n    for i in 0..pos.len() {{\n        \
                 let a = {call};\n    }}\n}}\n"
            );
            assert_eq!(rules_hit(rel, &bad), ["flop-accounting"], "{call}");
            let good = format!(
                "fn forces(pos: &[f64], counter: &FlopCounter) {{\n    \
                 for i in 0..pos.len() {{\n        let a = {call};\n    }}\n    \
                 counter.add(Kind::GravPP, pos.len() as u64);\n}}\n"
            );
            assert!(rules_hit(rel, &good).is_empty(), "{call}");
            // The kernel-defining file itself is exempt.
            assert!(rules_hit(def, &bad).is_empty(), "{call}");
        }
    }

    #[test]
    fn test_modules_are_exempt_from_every_rule() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                   let x = 1.0f64 as f32;\n        let m = HashMap::new();\n        \
                   let t = Instant::now();\n        let v = Some(1).unwrap();\n    }\n}\n";
        assert!(rules_hit("crates/core/src/moments.rs", src).is_empty());
        assert!(rules_hit("crates/comm/src/collectives.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_inner_attribute_exempts_the_whole_file() {
        let src = "//! Property tests.\n\n#![cfg(test)]\n\nfn t() {\n    \
                   let v = Some(1).unwrap();\n    let t = Instant::now();\n}\n";
        assert!(rules_hit("crates/cosmo/src/proptests.rs", src).is_empty());
    }

    #[test]
    fn comment_text_does_not_trip_rules() {
        let src = "fn f() {\n    // discussion of as f32 and HashMap here\n}\n";
        assert!(rules_hit("crates/core/src/moments.rs", src).is_empty());
        assert!(rules_hit("crates/comm/src/wire.rs", src).is_empty());
    }

    #[test]
    fn runtime_api_rule_flags_thread_spawns() {
        let spawn_bad = "fn go() {\n    let h = std::thread::spawn(|| work());\n}\n";
        assert_eq!(rules_hit("crates/cosmo/src/other.rs", spawn_bad), ["runtime-api"]);
        let scope_bad = "fn go() {\n    std::thread::scope(|s| { s.spawn(|| work()); });\n}\n";
        for rel in ["crates/core/src/dwalk.rs", "crates/gravity/src/treecode.rs",
            "crates/gravity/src/dist.rs", "crates/gravity/src/evaluator.rs",
            "crates/cosmo/src/sim.rs"]
        {
            assert_eq!(rules_hit(rel, scope_bad), ["runtime-api"], "{rel}");
        }
        let builder_bad =
            "fn go() {\n    thread::Builder::new().stack_size(n).spawn(f);\n}\n";
        assert_eq!(rules_hit("crates/npb/src/other.rs", builder_bad), ["runtime-api"]);
        // The runtime front door spawns nothing itself: the executor does.
        assert_eq!(rules_hit("crates/comm/src/runtime.rs", spawn_bad), ["runtime-api"]);
        // Thread-locals in the crates a rank fiber can run.
        for rel in ["crates/comm/src/events.rs", "crates/core/src/dwalk.rs",
            "crates/gravity/src/dist.rs", "crates/cosmo/src/supervisor.rs"]
        {
            assert_eq!(rules_hit(rel, TLS), ["runtime-api"], "{rel}");
        }
    }

    const TLS: &str = "thread_local! {\n    static SLOT: Cell<u64> = const { Cell::new(0) };\n}\n";

    #[test]
    fn runtime_api_rule_exempts_runtime_modules_tests_and_imports() {
        let spawn = "fn go() {\n    let h = std::thread::spawn(|| work());\n}\n";
        // The substrate's own modules may spawn.
        assert!(rules_hit("crates/comm/src/events.rs", spawn).is_empty());
        assert!(rules_hit("crates/comm/src/fiber.rs", spawn).is_empty());
        // The compute fan-out's one file may use scoped threads — and only
        // those.
        let scope = "fn go() {\n    std::thread::scope(|s| { s.spawn(|| work()); });\n}\n";
        assert!(rules_hit("crates/core/src/walk.rs", scope).is_empty());
        assert_eq!(rules_hit("crates/core/src/walk.rs", spawn), ["runtime-api"]);
        // Tests may spawn helper threads.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                       let h = std::thread::spawn(|| 1);\n    }\n}\n";
        assert!(rules_hit("crates/base/src/flops.rs", in_test).is_empty());
        // The fiber switch's CURRENT pointer is the one allowed
        // thread-local; crates no fiber runs are out of scope.
        assert!(rules_hit("crates/comm/src/fiber.rs", TLS).is_empty());
        assert!(rules_hit("crates/base/src/flops.rs", TLS).is_empty());
        // Importing the name is not using it.
        let use_line = "use std::thread::Builder;\n";
        assert!(rules_hit("crates/cosmo/src/other.rs", use_line).is_empty());
        // The builder entry point is of course fine.
        let good = "fn go() {\n    let out = RunConfig::builder().np(4).run(body);\n}\n";
        assert!(rules_hit("crates/cosmo/src/other.rs", good).is_empty());
    }

    #[test]
    fn finding_display_names_rule_and_location() {
        let f = lint_source(
            "crates/core/src/moments.rs",
            "fn f(x: f64) -> f32 { x as f32 }\n",
            &[],
        );
        let s = f[0].to_string();
        assert!(s.contains("crates/core/src/moments.rs:1"), "{s}");
        assert!(s.contains("[f32-accumulation]"), "{s}");
    }

    // ------------------------------------------------------------------
    // Token-layer regression tests: cases the line-regex engine got wrong.
    // ------------------------------------------------------------------

    #[test]
    fn url_in_string_no_longer_hides_code_after_it() {
        // `//` inside the URL used to be taken as a comment start, hiding
        // the HashMap on the same line from the determinism rule.
        let bad = "fn f() {\n    let doc = \"https://example.org/hot\"; \
                   let m: HashMap<u32, f64> = HashMap::new();\n}\n";
        assert_eq!(rules_hit("crates/cosmo/src/fof.rs", bad), ["determinism"]);
    }

    #[test]
    fn rule_patterns_inside_string_literals_do_not_fire() {
        // The old engine pattern-matched the raw line, so `"as f32"` in a
        // string was a false positive in f32 scope.
        let ok = "fn f() {\n    let msg = \"cast as f32 is banned\";\n    \
                  let h = \"uses HashMap internally\";\n}\n";
        assert!(rules_hit("crates/core/src/moments.rs", ok).is_empty());
        assert!(rules_hit("crates/comm/src/wire.rs", ok).is_empty());
    }

    #[test]
    fn brace_in_test_string_no_longer_extends_the_test_mask() {
        // The `{` inside the string used to keep the #[cfg(test)] mask
        // open to end of file, hiding the production unwrap.
        let bad = "#[cfg(test)]\nmod tests {\n    fn t() { let s = \"{\"; }\n}\n\
                   fn prod(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        assert_eq!(rules_hit("crates/core/src/tree.rs", bad), ["unwrap-audit"]);
    }

    #[test]
    fn brace_in_string_no_longer_merges_function_spans() {
        // The `{` inside the banner string used to stretch the first
        // function's span over the second, whose FlopCounter evidence
        // then wrongly excused the uncounted kernel call.
        let bad = "fn driver(pos: &[f64]) {\n    let banner = \"{\";\n    \
                   let a = pp_acc(d, m, eps2);\n}\n\
                   fn other(counter: &FlopCounter) {\n    \
                   counter.add(Kind::GravPP, 1);\n}\n";
        assert_eq!(rules_hit("crates/gravity/src/treecode.rs", bad), ["flop-accounting"]);
    }

    // ------------------------------------------------------------------
    // Stale-suppression rule.
    // ------------------------------------------------------------------

    #[test]
    fn unused_marker_is_a_stale_suppression_finding() {
        let src = "// hot-lint: allow(wall-clock): was needed before the timer refactor\n\
                   fn f() {}\n";
        let f = lint_source("crates/core/src/tree.rs", src, &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "stale-suppression");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("wall-clock"), "{}", f[0].message);
    }

    #[test]
    fn unknown_rule_marker_is_flagged() {
        let src = "fn f() {\n    // hot-lint: allow(no-such-rule)\n    g();\n}\n";
        let f = lint_source("crates/core/src/tree.rs", src, &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "stale-suppression");
        assert!(f[0].message.contains("unknown rule"), "{}", f[0].message);
    }

    #[test]
    fn used_markers_and_protocol_markers_are_not_stale() {
        // A marker that suppresses a real finding is used; a marker for a
        // protocol rule is audited by `hot-analyze protocol`, not lint.
        let src = "fn f() {\n    // hot-lint: allow(wall-clock): host-side only\n    \
                   let t = Instant::now();\n    \
                   // hot-lint: allow(collective-order): rejoin proven manually\n    \
                   g();\n}\n";
        assert!(rules_hit("crates/core/src/tree.rs", src).is_empty());
    }

    #[test]
    fn stale_finding_is_itself_suppressible_and_tests_are_exempt() {
        let sup = "// hot-lint: allow(stale-suppression): fires only on linux builds\n\
                   // hot-lint: allow(wall-clock)\nfn f() {}\n";
        assert!(rules_hit("crates/core/src/tree.rs", sup).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    \
                        // hot-lint: allow(wall-clock): fixture text\n    fn t() {}\n}\n";
        assert!(rules_hit("crates/core/src/tree.rs", test_src).is_empty());
    }

    #[test]
    fn stale_allowlist_entry_detection() {
        // Exercised end-to-end in `shipped_workspace_is_clean` (every real
        // entry must be live); here pin the helper's judgment directly.
        let live = FileMap::parse("fn f(v: Option<u32>) -> u32 { v.unwrap() }\n");
        assert!(has_nontest_unwrap(&live));
        let test_only = FileMap::parse(
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n",
        );
        assert!(!has_nontest_unwrap(&test_only));
    }

    // ------------------------------------------------------------------
    // Dead-export rule (cross-file).
    // ------------------------------------------------------------------

    /// A workspace in miniature: `hot_core` defines, `hot_gravity` and the
    /// benchmark harness use, and tests of every kind look on.
    const DEAD_EXPORT_FIXTURE: [(&str, &str); 7] = [
        (
            "crates/core/src/lib.rs",
            "pub fn only_tested() {}\n\
             pub fn only_imported() {}\n\
             pub struct OtherCratesTests;\n\
             pub fn shared() {}\n\
             pub const LOCAL: u32 = 1;\n\
             fn private() -> u32 { LOCAL }\n\
             pub fn benched() {}\n\
             // hot-lint: allow(dead-export): reviewed\n\
             pub fn kept() {}\n\
             // hot-lint: allow(dead-export): nothing here to suppress\n\
             pub(crate) fn narrow() {}\n\
             pub static NAMED_IN_FORMAT: &str = \"x\";\n\
             pub fn only_in_comments() {}\n\
             pub struct OnlyImpl;\n\
             impl std::fmt::Display for OnlyImpl {}\n\
             pub trait MethodsOnly { fn go(&self) {} }\n\
             #[cfg(test)]\n\
             mod tests {\n    \
                 fn t() { super::only_tested(); }\n\
             }\n",
        ),
        (
            "crates/gravity/src/lib.rs",
            "use hot_core::{only_imported, shared, MethodsOnly};\n\
             // only_in_comments() is mentioned here, which is no use\n\
             pub fn step() -> String { shared(); format!(\"{NAMED_IN_FORMAT}\") }\n\
             #[cfg(test)]\n\
             mod tests {\n    \
                 fn t() { let _ = hot_core::OtherCratesTests; }\n\
             }\n",
        ),
        ("crates/gravity/tests/api.rs", "fn t() { let _ = hot_core::OtherCratesTests; }\n"),
        ("benchmark/src/main.rs", "fn main() { hot_core::benched(); hot_gravity::step(); }\n"),
        // Definitions outside lint's scope are never findings.
        ("crates/analyze/src/lib.rs", "pub fn analyzer_only() {}\n"),
        ("examples/demo.rs", "pub fn example_only() {}\n"),
        // A test file's own items are tests, not exports.
        ("crates/core/tests/props.rs", "pub fn helper() {}\n"),
    ];

    fn dead_export_hits(files: &[(&str, &str)]) -> Vec<(&'static str, String, usize)> {
        let owned: Vec<(String, String)> =
            files.iter().map(|(rel, src)| ((*rel).to_string(), (*src).to_string())).collect();
        dead_exports(&owned).into_iter().map(|f| (f.rule, f.file, f.line)).collect()
    }

    #[test]
    fn dead_export_flags_items_no_production_code_names() {
        let core = "crates/core/src/lib.rs".to_string();
        let hit = |rule, line| (rule, core.clone(), line);
        assert_eq!(
            dead_export_hits(&DEAD_EXPORT_FIXTURE),
            [
                hit("dead-export", 1),  // only its own test module calls it
                hit("dead-export", 2),  // only a `use` line names it
                hit("dead-export", 3),  // only another crate's tests use it
                hit("dead-export", 13), // only a comment mentions it
                hit("dead-export", 14), // only its own impl header names it
                hit("stale-suppression", 10),
            ]
        );
    }

    #[test]
    fn dead_export_messages_name_the_item() {
        let owned: Vec<(String, String)> = DEAD_EXPORT_FIXTURE
            .iter()
            .map(|(rel, src)| ((*rel).to_string(), (*src).to_string()))
            .collect();
        let f = dead_exports(&owned);
        assert!(f[0].message.contains("`pub fn only_tested`"), "{}", f[0].message);
        assert!(f[2].message.contains("`pub struct OtherCratesTests`"), "{}", f[2].message);
        assert!(f[5].message.contains("allow(dead-export)"), "{}", f[5].message);
    }

    #[test]
    fn dead_export_is_cross_file_only() {
        // Per file, nothing is known about uses elsewhere: `lint_source`
        // neither flags a lone `pub fn` nor calls its marker stale.
        let (rel, src) = DEAD_EXPORT_FIXTURE[0];
        assert!(rules_hit(rel, src).is_empty(), "{:?}", rules_hit(rel, src));
        // Without the crate that names `shared`, it is dead too.
        let alone = dead_export_hits(&DEAD_EXPORT_FIXTURE[..1]);
        assert!(alone.contains(&("dead-export", rel.to_string(), 4)), "{alone:?}");
    }

    // ------------------------------------------------------------------
    // Cross-engine pin: the fixture below hits the five original rules
    // still in force at known lines (the sixth, `evaluator-api`, was
    // retired with the callback trait it guarded). The expected list is
    // frozen from the line-regex engine's output before the token-layer
    // port — identical findings are the port's acceptance criterion.
    // ------------------------------------------------------------------

    type PinnedFixture = (&'static str, &'static str, &'static [(&'static str, usize)]);

    #[test]
    fn original_rule_fixture_findings_are_pinned_across_the_port() {
        let fixtures: [PinnedFixture; 3] = [
            (
                "crates/core/src/moments.rs",
                "pub fn shrink(x: f64) -> f32 {\n    x as f32\n}\n\
                 fn order() {\n    let m = HashMap::new();\n}\n",
                &[("f32-accumulation", 2), ("determinism", 5)],
            ),
            (
                "crates/core/src/tree.rs",
                "fn step(v: Option<u32>) {\n    let t = Instant::now();\n    \
                 let x = v.unwrap();\n}\n",
                &[("wall-clock", 2), ("unwrap-audit", 3)],
            ),
            (
                "crates/gravity/src/treecode.rs",
                "fn forces(pos: &[f64]) {\n    let a = pp_acc(d, m, eps2);\n}\n",
                &[("flop-accounting", 2)],
            ),
        ];
        for (rel, src, expected) in fixtures {
            let got: Vec<(&str, usize)> =
                lint_source(rel, src, &[]).iter().map(|f| (f.rule, f.line)).collect();
            assert_eq!(got, *expected, "fixture {rel} diverged from the pinned findings");
        }
    }

    /// The shipped workspace must be clean — the same invariant the CI
    /// pipeline enforces, checked here so `cargo test` alone catches
    /// regressions. Skipped quietly if the workspace root is not found
    /// (e.g. when the crate is vendored elsewhere).
    #[test]
    fn shipped_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if !root.join("Cargo.toml").exists() {
            return;
        }
        let findings = lint_workspace(&root);
        assert!(
            findings.is_empty(),
            "workspace lint findings:\n{}",
            findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}
