//! Static communication-protocol checker (`hot-analyze protocol`).
//!
//! The paper's headline runs use 4096–6800 processors, but the dynamic
//! checkers (`schedules`/`faults`) execute at np≤8. A collective behind a
//! rank-dependent branch deadlocks at scale without ever being exercised
//! before then — the classic MPI collective-matching bug. This module
//! checks the protocol *statically*, over all np at once, the way MPI
//! collective-matching verifiers do: it extracts the communication call
//! graph of `crates/comm`, the distributed walk, and the drivers — every
//! send/recv/post/poll site with its tag expression, every collective —
//! and enforces three rules:
//!
//! - **collective-order** — no collective call reachable only under a
//!   rank-dependent branch (`rank`/`is_root` in an `if`/`while`/`match`
//!   head). Every rank must meet every collective in the same order; a
//!   guarded one deadlocks the rest of the machine. The implementation
//!   file `collectives.rs` is exempt (branching on rank *inside* a
//!   collective is how bcast/reduce are built).
//! - **tag-matching** — every named tag constant that is sent has a
//!   receive/poll/match-arm site and vice versa, and `POISON_TAG` is
//!   emitted from exactly one place (the `Comm` teardown).
//! - **counter-discipline** — each hot-trace counter is incremented from
//!   at most one crate, turning the PR-2 single-counting convention into
//!   a checked fact. `crates/trace` itself (the ledger's combinators) is
//!   exempt.
//!
//! Findings share the lint [`Finding`] type and suppression contract:
//! `hot-lint: allow(rule)` in a comment on the line or the line above,
//! with unused protocol markers reported as `stale-suppression`.
//!
//! Known approximations, chosen to keep the checker honest rather than
//! clever: collectives named like iterator methods (`reduce`) are matched
//! by name within the protocol scope only; a collective call *inside* a
//! branch condition is treated as unguarded (it executes before the
//! branch); match-arm `if` guards do not guard their arm body.

use crate::lexer::{FileMap, TokKind};
use crate::lint::{collect_sources, read_sources, Finding};
use crate::model::{self, Suppressions};
use std::collections::BTreeMap;
use std::path::Path;

/// Names of the protocol rules.
pub const RULES: [&str; 3] = ["collective-order", "tag-matching", "counter-discipline"];

/// Collective entry points on `Comm` (see `crates/comm/src/collectives.rs`).
const COLLECTIVES: [&str; 14] = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "allreduce_sum_f64",
    "allreduce_sum_u64",
    "allreduce_max_f64",
    "allreduce_sum_vec_f64",
    "gather",
    "allgather",
    "allgather_ring",
    "allgather_bruck",
    "alltoall",
    "exscan_sum_u64",
];

/// Point-to-point send family with the 0-based index of the tag/kind
/// argument (`post_chunked` is the dwalk batching helper whose kind rides
/// in position 2).
const SEND_FNS: [(&str, usize); 5] = [
    ("send", 1),
    ("send_bytes", 1),
    ("sendrecv", 2),
    ("post", 1),
    ("post_chunked", 2),
];

/// Receive family with the tag-argument index.
const RECV_FNS: [(&str, usize); 9] = [
    ("recv", 1),
    ("recv_bytes", 1),
    ("try_recv_bytes", 1),
    ("drain_tag", 0),
    ("take_match", 1),
    ("has_match_or_poison", 1),
    // One message from every peer (`alltoall`, `gather`): tag comes first.
    ("recv_each", 0),
    ("take_each", 0),
    ("has_each_or_poison", 0),
];

/// Poll-side entry points (tagless: they drain the ABM stream).
const POLL_FNS: [&str; 3] = ["poll", "poll_once", "complete"];

/// Driver files outside `crates/comm` that speak the protocol.
const DRIVER_FILES: [&str; 4] = [
    "crates/core/src/dwalk.rs",
    "crates/core/src/decomp.rs",
    "crates/core/src/dtree.rs",
    "crates/cosmo/src/supervisor.rs",
];

/// The collective implementation file: exempt from collective-order.
const COLLECTIVE_IMPL: &str = "crates/comm/src/collectives.rs";

/// The ledger crate: exempt from counter-discipline (its combinators and
/// `add_traffic` helper touch many counters by design).
const COUNTER_EXEMPT_PREFIX: &str = "crates/trace/";

/// True when `rel` is part of the communication-protocol scope.
#[must_use]
pub fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/comm/src/") || DRIVER_FILES.contains(&rel)
}

/// One extracted protocol site.
#[derive(Clone, Debug)]
pub struct Site {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What was seen there (function name or expression text).
    pub what: String,
}

/// Everything known about one named tag/kind constant.
#[derive(Clone, Debug, Default)]
pub struct TagInfo {
    /// Send-family call sites naming this tag.
    pub sends: Vec<Site>,
    /// Receive-family call sites naming this tag.
    pub recvs: Vec<Site>,
    /// `Envelope { tag: … }` construction sites (transport-level emits).
    pub emits: Vec<Site>,
    /// Match arms with this tag as the whole pattern (handler dispatch).
    pub arms: Vec<Site>,
    /// `tag == CONST` / `!=` comparison sites.
    pub compares: Vec<Site>,
}

impl TagInfo {
    fn send_evidence(&self) -> usize {
        self.sends.len() + self.emits.len()
    }
    fn recv_evidence(&self) -> usize {
        self.recvs.len() + self.arms.len() + self.compares.len()
    }
}

/// The extracted protocol, plus the counter-ownership map.
#[derive(Debug, Default)]
pub struct Summary {
    /// Workspace sources scanned for counter-discipline.
    pub files: usize,
    /// Files in the communication-protocol scope.
    pub protocol_files: usize,
    /// Collective call sites (non-test), `what` = collective name.
    pub collectives: Vec<Site>,
    /// Poll-side call sites.
    pub polls: Vec<Site>,
    /// Send/recv sites whose tag expression named no constant (dynamic).
    pub dynamic_sites: usize,
    /// Tag table keyed by constant name.
    pub tags: BTreeMap<String, TagInfo>,
    /// Counter name → crate → increment sites.
    pub counters: BTreeMap<String, BTreeMap<String, Vec<Site>>>,
}

impl Summary {
    /// A vacuous extraction proves nothing: no collectives or no tags
    /// means the scan missed the protocol entirely (wrong root, renamed
    /// files) and must not pass CI.
    #[must_use]
    pub fn vacuous(&self) -> bool {
        self.collectives.is_empty() || self.tags.is_empty()
    }

    /// Human-readable protocol summary for the CLI.
    #[must_use]
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!(
            "  scope: {} protocol files ({} workspace sources for counters)",
            self.protocol_files, self.files
        ));
        let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.collectives {
            *by_name.entry(&s.what).or_default() += 1;
        }
        let coll: Vec<String> =
            by_name.iter().map(|(n, c)| format!("{n} x{c}")).collect();
        out.push(format!(
            "  collectives: {} sites, {} polls — {}",
            self.collectives.len(),
            self.polls.len(),
            coll.join(", ")
        ));
        out.push(format!(
            "  tags: {} constants ({} dynamic-tag sites not attributable):",
            self.tags.len(),
            self.dynamic_sites
        ));
        for (tag, info) in &self.tags {
            out.push(format!(
                "    {tag:<22} sends {:>2}  recvs {:>2}  emits {:>2}  arms {:>2}  compares {:>2}",
                info.sends.len(),
                info.recvs.len(),
                info.emits.len(),
                info.arms.len(),
                info.compares.len()
            ));
        }
        let mut by_crate: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (counter, owners) in &self.counters {
            for krate in owners.keys() {
                by_crate.entry(krate).or_default().push(counter);
            }
        }
        out.push(format!("  counters: {} tracked", self.counters.len()));
        for (krate, names) in &by_crate {
            out.push(format!("    {krate}: {}", names.join(", ")));
        }
        out
    }
}

/// Result of a protocol check: findings plus the extracted summary.
#[derive(Debug, Default)]
pub struct ProtocolReport {
    /// Rule violations (empty means clean).
    pub findings: Vec<Finding>,
    /// The extracted protocol.
    pub summary: Summary,
}

impl ProtocolReport {
    /// True when no rule fired.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Check the workspace rooted at `root`.
#[must_use]
pub fn check_workspace(root: &Path) -> ProtocolReport {
    check_files(&read_sources(root, &collect_sources(root)))
}

/// Per-file analysis state kept for cross-file rules.
struct FileState {
    rel: String,
    fm: FileMap,
    mask: Vec<bool>,
    sup: Suppressions,
}

/// Check a set of `(workspace-relative path, source)` pairs. Split out
/// from [`check_workspace`] so planted-fixture tests can drive the exact
/// same code path CI uses.
#[must_use]
pub fn check_files(files: &[(String, String)]) -> ProtocolReport {
    let mut states: Vec<FileState> = files
        .iter()
        .map(|(rel, src)| {
            let fm = FileMap::parse(src);
            let mask = model::test_mask(&fm);
            let sup = Suppressions::collect(&fm);
            FileState { rel: rel.clone(), fm, mask, sup }
        })
        .collect();

    let mut summary = Summary { files: states.len(), ..Summary::default() };
    let mut findings = Vec::new();

    // ---- extraction + collective-order (per file) --------------------
    let mut guarded_sites: Vec<Site> = Vec::new();
    for st in &mut states {
        if in_scope(&st.rel) {
            summary.protocol_files += 1;
            extract_comm(st, &mut summary, &mut guarded_sites);
        }
        if !st.rel.starts_with(COUNTER_EXEMPT_PREFIX) {
            extract_counters(st, &mut summary);
        }
    }
    for site in guarded_sites {
        let st = states.iter_mut().find(|s| s.rel == site.file).expect("site file");
        if !st.sup.allows("collective-order", site.line - 1) {
            findings.push(Finding {
                rule: "collective-order",
                file: site.file.clone(),
                line: site.line,
                excerpt: st.fm.lines[site.line - 1].trim().to_string(),
                message: format!(
                    "collective `{}` is reachable only under a rank-dependent \
                     branch: every rank must execute every collective in the same \
                     order or the machine deadlocks at scale; hoist the call out \
                     of the `rank`/`is_root` guard so the paths rejoin first",
                    site.what
                ),
            });
        }
    }

    // ---- tag-matching ------------------------------------------------
    let tag_findings: Vec<(Site, String)> = tag_matching(&summary);
    for (site, message) in tag_findings {
        let st = states.iter_mut().find(|s| s.rel == site.file).expect("site file");
        if !st.sup.allows("tag-matching", site.line - 1) {
            findings.push(Finding {
                rule: "tag-matching",
                file: site.file.clone(),
                line: site.line,
                excerpt: st.fm.lines[site.line - 1].trim().to_string(),
                message,
            });
        }
    }

    // ---- counter-discipline -------------------------------------------
    let counter_findings: Vec<(Site, String)> = counter_discipline(&summary);
    for (site, message) in counter_findings {
        let st = states.iter_mut().find(|s| s.rel == site.file).expect("site file");
        if !st.sup.allows("counter-discipline", site.line - 1) {
            findings.push(Finding {
                rule: "counter-discipline",
                file: site.file.clone(),
                line: site.line,
                excerpt: st.fm.lines[site.line - 1].trim().to_string(),
                message,
            });
        }
    }

    // ---- stale protocol suppressions ----------------------------------
    for st in &mut states {
        let marks: Vec<(usize, String, bool)> =
            st.sup.markers.iter().map(|m| (m.line, m.rule.clone(), m.used)).collect();
        for (line, rule, used) in marks {
            if used || st.mask[line] || !RULES.contains(&rule.as_str()) {
                continue;
            }
            if st.sup.allows("stale-suppression", line) {
                continue;
            }
            findings.push(Finding {
                rule: "stale-suppression",
                file: st.rel.clone(),
                line: line + 1,
                excerpt: st.fm.lines[line].trim().to_string(),
                message: format!(
                    "suppression marker `hot-lint: allow({rule})` suppresses no \
                     protocol finding; remove the marker"
                ),
            });
        }
    }

    ProtocolReport { findings, summary }
}

/// True for SHOUTY constants shaped like message tags/kinds.
fn is_tag_const(word: &str) -> bool {
    word.len() > 1
        && word.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && (word.starts_with("TAG_") || word.starts_with("K_") || word.ends_with("_TAG"))
        && word != "MAX_USER_TAG" // a bound on the tag space, not a tag
}

/// First tag-shaped constant in a whitespace-joined expression.
fn tag_in_expr(expr: &str) -> Option<String> {
    expr.split_whitespace().find(|w| is_tag_const(w)).map(ToString::to_string)
}

/// Extract collectives, sends, recvs, polls, emits, arms and comparisons
/// from one protocol-scope file; collect rank-guarded collective sites.
fn extract_comm(st: &mut FileState, summary: &mut Summary, guarded_out: &mut Vec<Site>) {
    let rel = &st.rel;
    let fm = &st.fm;
    let mask = &st.mask;
    let site = |line: usize, what: &str| Site {
        file: rel.clone(),
        line: line + 1,
        what: what.to_string(),
    };

    // Collectives + rank-guard analysis (token walk with a brace stack).
    for (line, name, guarded) in collective_sites(fm) {
        if mask[line] {
            continue;
        }
        summary.collectives.push(site(line, &name));
        if guarded && rel != COLLECTIVE_IMPL {
            guarded_out.push(site(line, &name));
        }
    }

    let send_names: Vec<&str> = SEND_FNS.iter().map(|(n, _)| *n).collect();
    for c in model::call_sites(fm, &send_names) {
        if mask[c.line] {
            continue;
        }
        let idx = SEND_FNS.iter().find(|(n, _)| *n == c.name).map_or(1, |(_, i)| *i);
        match c.args.get(idx).and_then(|a| tag_in_expr(a)) {
            Some(tag) => summary
                .tags
                .entry(tag)
                .or_default()
                .sends
                .push(site(c.line, &c.name)),
            None => summary.dynamic_sites += 1,
        }
    }

    let recv_names: Vec<&str> = RECV_FNS.iter().map(|(n, _)| *n).collect();
    for c in model::call_sites(fm, &recv_names) {
        if mask[c.line] {
            continue;
        }
        let idx = RECV_FNS.iter().find(|(n, _)| *n == c.name).map_or(1, |(_, i)| *i);
        match c.args.get(idx).and_then(|a| tag_in_expr(a)) {
            Some(tag) => summary
                .tags
                .entry(tag)
                .or_default()
                .recvs
                .push(site(c.line, &c.name)),
            None => summary.dynamic_sites += 1,
        }
    }

    for c in model::call_sites(fm, &POLL_FNS) {
        if !mask[c.line] {
            summary.polls.push(site(c.line, &c.name));
        }
    }

    for (line, expr) in model::struct_field_exprs(fm, "Envelope", "tag") {
        if mask[line] {
            continue;
        }
        if let Some(tag) = tag_in_expr(&expr) {
            summary.tags.entry(tag).or_default().emits.push(site(line, &expr));
        }
    }

    for (line, name) in model::match_arm_idents(fm) {
        if !mask[line] && is_tag_const(&name) {
            summary.tags.entry(name.clone()).or_default().arms.push(site(line, &name));
        }
    }

    for (line, left, right) in model::comparisons(fm) {
        if mask[line] {
            continue;
        }
        let lw: Vec<&str> = left.split_whitespace().collect();
        let rw: Vec<&str> = right.split_whitespace().collect();
        let mentions_tag =
            |w: &[&str]| w.iter().any(|t| *t == "tag" || t.ends_with("tag") || *t == "kind");
        let (tagged, other) = if mentions_tag(&lw) {
            (true, rw)
        } else if mentions_tag(&rw) {
            (true, lw)
        } else {
            (false, rw)
        };
        if tagged {
            if let Some(c) = other.iter().find(|w| is_tag_const(w)) {
                summary
                    .tags
                    .entry((*c).to_string())
                    .or_default()
                    .compares
                    .push(site(line, &format!("{left} == {right}")));
            }
        }
    }
}

/// Walk the token stream tracking brace nesting and whether each open
/// block sits under a rank-dependent `if`/`while`/`match` head (with
/// `else` branches inheriting the guard). Returns every collective call
/// site as `(0-based line, name, rank_guarded)`.
fn collective_sites(fm: &FileMap) -> Vec<(usize, String, bool)> {
    #[derive(Clone, Copy, Default)]
    struct Frame {
        guarded: bool,
        is_if: bool,
    }
    let toks = &fm.tokens;
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending: Option<Frame> = None;
    let mut last_if_guarded: Option<bool> = None;
    let mut else_inherit = false;
    let mut out = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    stack.push(pending.take().unwrap_or_default());
                    last_if_guarded = None;
                }
                "}" => {
                    let f = stack.pop().unwrap_or_default();
                    last_if_guarded = f.is_if.then_some(f.guarded);
                }
                _ => last_if_guarded = None,
            }
            k += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "if" | "while" | "match" => {
                    let mut guarded = std::mem::take(&mut else_inherit);
                    let mut depth = 0i64;
                    let mut j = k + 1;
                    while j < toks.len() {
                        let u = &toks[j];
                        if u.kind == TokKind::Punct {
                            match u.text.as_str() {
                                "(" | "[" => depth += 1,
                                ")" | "]" => depth -= 1,
                                "{" | ";" | "=>" if depth <= 0 => break,
                                _ => {}
                            }
                        } else if u.is_ident("rank") || u.is_ident("is_root") {
                            guarded = true;
                        }
                        j += 1;
                    }
                    // Only a real block head carries the guard; a `match`
                    // arm guard (`pat if cond =>`) ends at `=>` and its
                    // guard is dropped (documented approximation).
                    if j < toks.len() && toks[j].is_punct("{") {
                        pending = Some(Frame { guarded, is_if: true });
                    } else {
                        pending = None;
                    }
                    last_if_guarded = None;
                    k = j;
                    continue;
                }
                "else" => {
                    let g = last_if_guarded.unwrap_or(false);
                    if k + 1 < toks.len() && toks[k + 1].is_ident("if") {
                        else_inherit = g;
                    } else {
                        pending = Some(Frame { guarded: g, is_if: true });
                    }
                    last_if_guarded = None;
                    k += 1;
                    continue;
                }
                name if COLLECTIVES.contains(&name)
                    && k + 1 < toks.len()
                    && toks[k + 1].is_punct("(")
                    && (k == 0 || !toks[k - 1].is_ident("fn")) =>
                {
                    let guarded = stack.iter().any(|f| f.guarded);
                    out.push((t.line - 1, name.to_string(), guarded));
                }
                _ => {}
            }
        }
        last_if_guarded = None;
        k += 1;
    }
    out
}

/// Tag increments per counter from one file (any crate except the ledger).
fn extract_counters(st: &FileState, summary: &mut Summary) {
    let krate = crate_of(&st.rel);
    for c in model::call_sites(&st.fm, &["add"]) {
        if st.mask[c.line] {
            continue;
        }
        let Some(arg0) = c.args.first() else { continue };
        let words: Vec<&str> = arg0.split_whitespace().collect();
        let Some(pos) = words
            .iter()
            .position(|w| *w == "Counter")
            .filter(|p| words.get(p + 1) == Some(&"::"))
        else {
            continue;
        };
        let Some(name) = words.get(pos + 2) else { continue };
        summary
            .counters
            .entry((*name).to_string())
            .or_default()
            .entry(krate.clone())
            .or_default()
            .push(Site {
                file: st.rel.clone(),
                line: c.line + 1,
                what: format!("{}.add", c.receiver),
            });
    }
}

/// Owning crate of a workspace-relative path.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("?").to_string(),
        Some("src") => "hot97".to_string(),
        other => other.unwrap_or("?").to_string(),
    }
}

/// Tag-matching rule over the extracted tag table.
fn tag_matching(summary: &Summary) -> Vec<(Site, String)> {
    let mut out = Vec::new();
    for (tag, info) in &summary.tags {
        if tag == "POISON_TAG" {
            // Teardown protocol: exactly one emit site (Comm::drop); the
            // poison must exist, and a second emitter would double-poison
            // shared mailboxes.
            if info.emits.len() != 1 {
                let anchor = info
                    .emits
                    .get(1)
                    .or_else(|| info.emits.first())
                    .or_else(|| info.compares.first())
                    .or_else(|| info.recvs.first());
                if let Some(a) = anchor {
                    out.push((
                        a.clone(),
                        format!(
                            "POISON_TAG must be emitted from exactly one site (the \
                             Comm teardown); found {} emit sites",
                            info.emits.len()
                        ),
                    ));
                }
            }
            continue;
        }
        if info.send_evidence() > 0 && info.recv_evidence() == 0 {
            let a = info.sends.first().or_else(|| info.emits.first()).expect("send site");
            out.push((
                a.clone(),
                format!(
                    "tag {tag} is sent but never received: no receive, poll match \
                     arm, or tag comparison names it anywhere in the protocol \
                     scope — at scale this message accumulates undrained"
                ),
            ));
        } else if !info.recvs.is_empty() && info.send_evidence() == 0 {
            let a = info.recvs.first().expect("recv site");
            out.push((
                a.clone(),
                format!(
                    "tag {tag} is received but never sent: the receive blocks \
                     forever on every schedule — remove it or restore the sender"
                ),
            ));
        }
    }
    out
}

/// Counter-discipline rule over the ownership map.
fn counter_discipline(summary: &Summary) -> Vec<(Site, String)> {
    let mut out = Vec::new();
    for (counter, owners) in &summary.counters {
        if owners.len() <= 1 {
            continue;
        }
        let desc: Vec<String> = owners
            .iter()
            .map(|(k, sites)| format!("{k} ({} sites)", sites.len()))
            .collect();
        // Anchor at the crate with the fewest sites — the likely intruder.
        let minority = owners
            .iter()
            .min_by_key(|(k, sites)| (sites.len(), k.as_str()))
            .map(|(_, sites)| sites[0].clone())
            .expect("non-empty owners");
        out.push((
            minority,
            format!(
                "hot-trace counter {counter} is incremented from more than one \
                 crate: {} — the single-counting invariant (one owner per \
                 counter) keeps reduced ledgers meaningful; move the increment \
                 into the owning crate",
                desc.join(", ")
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> ProtocolReport {
        let owned: Vec<(String, String)> =
            files.iter().map(|(r, s)| ((*r).to_string(), (*s).to_string())).collect();
        check_files(&owned)
    }

    fn rules_of(rep: &ProtocolReport) -> Vec<&'static str> {
        rep.findings.iter().map(|f| f.rule).collect()
    }

    /// Planted collective-order fixture (the ci.sh non-vacuity case): a
    /// barrier under `if rank() == 0` must produce exactly one finding,
    /// at the barrier line.
    #[test]
    fn planted_rank_guarded_collective_is_detected() {
        let src = "fn exchange(c: &mut Comm) {\n    if c.rank() == 0 {\n        \
                   c.barrier();\n    }\n    c.send(1, TAG_WORK, &v);\n    \
                   let (_, w) = c.recv_bytes(None, TAG_WORK);\n}\n";
        let rep = run(&[("crates/comm/src/runtime.rs", src)]);
        assert_eq!(rules_of(&rep), ["collective-order"]);
        assert_eq!(rep.findings[0].line, 3);
        assert!(rep.findings[0].message.contains("barrier"));
    }

    #[test]
    fn else_branch_of_rank_guard_is_also_guarded() {
        let src = "fn f(c: &mut Comm) {\n    if c.rank() == 0 {\n        work();\n    } \
                   else {\n        c.allreduce_sum_f64(x);\n    }\n    \
                   c.send(1, TAG_A, &v);\n    c.recv::<u64>(0, TAG_A);\n}\n";
        let rep = run(&[("crates/comm/src/runtime.rs", src)]);
        assert_eq!(rules_of(&rep), ["collective-order"]);
        assert_eq!(rep.findings[0].line, 5);
    }

    #[test]
    fn unguarded_collectives_and_matched_tags_are_clean() {
        let src = "fn step(c: &mut Comm) {\n    loop {\n        \
                   let t = c.allreduce_sum_u64(1);\n        if t == 0 { break; }\n    }\n    \
                   if c.rank() == 0 {\n        log();\n    }\n    \
                   c.send(1, TAG_DATA, &v);\n    let r: u64 = c.recv(0, TAG_DATA);\n}\n";
        let rep = run(&[("crates/comm/src/runtime.rs", src)]);
        assert!(rep.passed(), "{:?}", rep.findings);
        assert_eq!(rep.summary.collectives.len(), 1);
        assert!(rep.summary.tags.contains_key("TAG_DATA"));
    }

    #[test]
    fn collectives_impl_file_is_exempt_from_collective_order() {
        let src = "pub fn bcast(&mut self, root: u32) {\n    \
                   if self.rank() == root {\n        \
                   self.send_bytes(dst, TAG_BCAST, data);\n    } else {\n        \
                   let v = self.recv_bytes(Some(root), TAG_BCAST);\n    }\n}\n";
        let rep = run(&[("crates/comm/src/collectives.rs", src)]);
        assert!(rep.passed(), "{:?}", rep.findings);
    }

    #[test]
    fn unmatched_tags_are_findings_in_both_directions() {
        let src = "fn f(c: &mut Comm) {\n    c.send(1, TAG_ORPHAN, &v);\n    \
                   let r: u64 = c.recv(0, TAG_GHOST);\n    c.barrier();\n}\n";
        let rep = run(&[("crates/comm/src/runtime.rs", src)]);
        let mut rules = rules_of(&rep);
        rules.sort_unstable();
        assert_eq!(rules, ["tag-matching", "tag-matching"]);
        assert!(rep.findings.iter().any(|f| f.message.contains("TAG_ORPHAN")
            && f.message.contains("never received")));
        assert!(rep.findings.iter().any(|f| f.message.contains("TAG_GHOST")
            && f.message.contains("never sent")));
    }

    #[test]
    fn every_peer_receive_counts_as_a_receive_of_its_tag() {
        // `alltoall` and `gather` receive through `recv_each`: it must
        // match the sends of its tag, and be flagged on a tag nobody sends.
        let src = "fn f(c: &mut Comm) {\n    c.send(d, TAG_ALLTOALL, &bucket);\n    \
                   c.recv_each(TAG_ALLTOALL, &mut |src, data| keep(src, data));\n    \
                   c.recv_each(TAG_NOBODY, &mut |src, data| keep(src, data));\n    \
                   c.barrier();\n}\n";
        let rep = run(&[("crates/comm/src/runtime.rs", src)]);
        assert_eq!(rules_of(&rep), ["tag-matching"], "{:?}", rep.findings);
        assert_eq!(rep.findings[0].line, 4);
        assert!(rep.findings[0].message.contains("TAG_NOBODY")
            && rep.findings[0].message.contains("never sent"));
        assert_eq!(rep.summary.tags["TAG_ALLTOALL"].recvs.len(), 1);
    }

    #[test]
    fn abm_kinds_match_via_handler_arms_and_chunk_helper() {
        let src = "fn walk(abm: &mut Abm) {\n    abm.post(owner, K_REQ_BATCH, &req);\n    \
                   post_chunked(ep, src, K_REP_BATCH, entries, limit);\n    \
                   abm.poll(&mut |ep, src, kind, data| match kind {\n        \
                   K_REQ_BATCH => reply(ep, src),\n        \
                   K_REP_BATCH => absorb(data),\n        _ => ignore(),\n    });\n}\n";
        let rep = run(&[("crates/core/src/dwalk.rs", src)]);
        assert!(
            rep.findings.iter().all(|f| f.rule != "tag-matching"),
            "{:?}",
            rep.findings
        );
        assert_eq!(rep.summary.tags["K_REQ_BATCH"].sends.len(), 1);
        assert_eq!(rep.summary.tags["K_REP_BATCH"].arms.len(), 1);
    }

    #[test]
    fn poison_must_be_emitted_exactly_once() {
        let twice = "fn a(mb: &Mailbox) {\n    \
                     mb.push(Envelope { src: 0, tag: POISON_TAG, data: Bytes::new() });\n}\n\
                     fn b(mb: &Mailbox) {\n    \
                     mb.push(Envelope { src: 1, tag: POISON_TAG, data: Bytes::new() });\n    \
                     if env.tag == POISON_TAG { stop(); }\n}\n";
        let rep = run(&[("crates/comm/src/runtime.rs", twice)]);
        assert!(rules_of(&rep).contains(&"tag-matching"), "{:?}", rep.findings);
        assert!(rep.findings.iter().any(|f| f.message.contains("exactly one")));
    }

    #[test]
    fn counter_discipline_flags_two_crate_increments() {
        let a = "fn f(t: &mut Ledger) {\n    t.add(Counter::Flops, 38);\n}\n";
        let b = "fn g(t: &mut Ledger) {\n    t.add(hot_trace::Counter::Flops, 1);\n    \
                 c.barrier();\n    c.send(1, TAG_T, &v);\n    c.recv::<u64>(0, TAG_T);\n}\n";
        let rep = run(&[
            ("crates/gravity/src/evaluator.rs", a),
            ("crates/comm/src/runtime.rs", b),
        ]);
        assert_eq!(rules_of(&rep), ["counter-discipline"]);
        assert!(rep.findings[0].message.contains("Flops"));
        // Same counter from two files of one crate is fine.
        let rep2 = run(&[
            ("crates/gravity/src/evaluator.rs", a),
            ("crates/gravity/src/treecode.rs", a),
        ]);
        assert!(rep2.findings.iter().all(|f| f.rule != "counter-discipline"));
    }

    #[test]
    fn suppression_and_stale_markers_follow_the_lint_contract() {
        let sup = "fn f(c: &mut Comm) {\n    if c.rank() == 0 {\n        \
                   // hot-lint: allow(collective-order): np=1 debug path only\n        \
                   c.barrier();\n    }\n    c.send(1, TAG_B, &v);\n    \
                   c.recv::<u64>(0, TAG_B);\n}\n";
        let rep = run(&[("crates/comm/src/runtime.rs", sup)]);
        assert!(rep.passed(), "{:?}", rep.findings);

        let stale = "fn f(c: &mut Comm) {\n    \
                     // hot-lint: allow(collective-order): nothing here\n    \
                     c.barrier();\n    c.send(1, TAG_B, &v);\n    \
                     c.recv::<u64>(0, TAG_B);\n}\n";
        let rep = run(&[("crates/comm/src/runtime.rs", stale)]);
        assert_eq!(rules_of(&rep), ["stale-suppression"]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn live(c: &mut Comm) {\n    c.barrier();\n    \
                   c.send(1, TAG_L, &v);\n    c.recv::<u64>(0, TAG_L);\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t(c: &mut Comm) {\n        \
                   if c.rank() == 0 {\n            c.barrier();\n        }\n        \
                   c.send(9, TAG_TESTONLY, &v);\n    }\n}\n";
        let rep = run(&[("crates/comm/src/runtime.rs", src)]);
        assert!(rep.passed(), "{:?}", rep.findings);
        assert!(!rep.summary.tags.contains_key("TAG_TESTONLY"));
    }

    /// The shipped workspace must satisfy all three protocol rules — the
    /// invariant ci.sh enforces, checked here so `cargo test` alone
    /// catches regressions.
    #[test]
    fn shipped_workspace_protocol_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if !root.join("Cargo.toml").exists() {
            return;
        }
        let rep = check_workspace(&root);
        assert!(
            !rep.summary.vacuous(),
            "extraction came back empty — scope lists are stale"
        );
        assert!(
            rep.passed(),
            "protocol findings:\n{}",
            rep.findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
        // The teardown poison and the walk kinds must be visible, or the
        // extractor is looking at the wrong layer.
        assert!(rep.summary.tags.contains_key("POISON_TAG"));
        assert!(rep.summary.tags.keys().any(|t| t.starts_with("K_")));
    }

    /// Every driver file must contribute at least one extracted site: a
    /// listed file that makes no `Comm` call means the list is stale, and
    /// the file that took over its calls goes unchecked.
    #[test]
    fn every_driver_file_contributes_a_site() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if !root.join("Cargo.toml").exists() {
            return;
        }
        let s = check_workspace(&root).summary;
        let tag_sites = s.tags.values().flat_map(|t| {
            t.sends.iter().chain(&t.recvs).chain(&t.emits).chain(&t.arms).chain(&t.compares)
        });
        let sites: Vec<&Site> = s.collectives.iter().chain(&s.polls).chain(tag_sites).collect();
        for file in DRIVER_FILES {
            assert!(
                sites.iter().any(|site| site.file == file),
                "{file} contributes no protocol site: DRIVER_FILES is stale"
            );
        }
    }
}
