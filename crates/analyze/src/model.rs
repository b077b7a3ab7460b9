//! Lightweight semantic model on top of the token-level lexer.
//!
//! Everything here consumes a [`FileMap`] and answers the questions the
//! rules ask: which lines are test code, where functions begin and end,
//! where a named function is *called* (with receiver and argument text),
//! which identifiers appear as whole match-arm patterns, what both sides
//! of an `==`/`!=` comparison look like, and which `hot-lint: allow(…)`
//! suppression markers exist — with used-tracking so stale markers can be
//! reported.

use crate::lexer::{FileMap, TokKind};

/// Mark lines inside `#[cfg(test)] mod … { }` blocks (including the
/// attribute line itself) by brace tracking over the *code view*, so
/// braces inside string and char literals no longer confuse the count.
/// A gated item without a body (a field, a `const`, a `use`) ends at the
/// `,` or `;` closing its line outside parentheses. A file-level inner
/// attribute (`#![cfg(test)]`) exempts the whole file.
#[must_use]
pub fn test_mask(fm: &FileMap) -> Vec<bool> {
    if fm.code.iter().any(|l| l.trim_start().starts_with("#![cfg(test)]")) {
        return vec![true; fm.code.len()];
    }
    let mut mask = vec![false; fm.code.len()];
    let mut i = 0;
    while i < fm.code.len() {
        if fm.code[i].trim_start().starts_with("#[cfg(test)]") {
            let mut depth = 0i64;
            let mut parens = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < fm.code.len() {
                mask[j] = true;
                for ch in fm.code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        '(' | '[' => parens += 1,
                        ')' | ']' => parens -= 1,
                        _ => {}
                    }
                }
                let line = fm.code[j].trim_end();
                let bodiless =
                    !opened && parens == 0 && (line.ends_with(';') || line.ends_with(','));
                if (opened && depth <= 0) || bodiless {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// A function definition's name and `[start, end)` line range (0-based,
/// `end` exclusive).
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// The function's name, or `_` when it cannot be extracted.
    pub name: String,
    /// First line of the definition (0-based).
    pub start: usize,
    /// One past the last line of the body (exclusive).
    pub end: usize,
}

/// Line ranges of function definitions, found by scanning the code view
/// for `fn ` and brace-matching the body. Literal-interior braces are
/// already blanked by the lexer, so the count is exact.
#[must_use]
pub fn function_spans(fm: &FileMap) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < fm.code.len() {
        let code = &fm.code[i];
        let is_fn = code.trim_start().starts_with("fn ")
            || code.contains("pub fn ")
            || code.contains("pub(crate) fn ");
        if is_fn {
            let name = fn_name(code);
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < fm.code.len() {
                for ch in fm.code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                // Declaration-only (trait method sig ending in `;`).
                if !opened && fm.code[j].trim_end().ends_with(';') {
                    break;
                }
                j += 1;
            }
            spans.push(FnSpan { name, start: i, end: (j + 1).min(fm.code.len()) });
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

/// The identifier following `fn ` on a definition line.
fn fn_name(code: &str) -> String {
    let Some(pos) = code.find("fn ") else {
        return "_".to_string();
    };
    let rest = code[pos + 3..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() { "_".to_string() } else { name }
}

/// One call of a named function: `receiver.name(args…)`.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// 0-based line of the function-name token.
    pub line: usize,
    /// The called function's name.
    pub name: String,
    /// Dotted receiver chain (`self.abm`, `c`), empty for free calls.
    pub receiver: String,
    /// Argument texts, tokens joined with single spaces, split at
    /// top-level commas.
    pub args: Vec<String>,
}

/// Extract every call site of the given function names. Definitions
/// (`fn name(`) are excluded. Arguments spanning lines are captured
/// whole.
#[must_use]
pub fn call_sites(fm: &FileMap, names: &[&str]) -> Vec<CallSite> {
    let toks = &fm.tokens;
    let mut out = Vec::new();
    for k in 0..toks.len() {
        if toks[k].kind != TokKind::Ident || !names.contains(&toks[k].text.as_str()) {
            continue;
        }
        // Skip a turbofish between the name and the argument list:
        // `recv::<u64>(…)`. Angle depth must honor the `<<`/`>>` tokens
        // the lexer folds (`Vec<Vec<u64>>` ends in one `>>`).
        let mut open = k + 1;
        if open + 1 < toks.len() && toks[open].is_punct("::") && toks[open + 1].is_punct("<")
        {
            let mut depth = 0i64;
            let mut j = open + 1;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
            open = j;
        }
        if open >= toks.len() || !toks[open].is_punct("(") {
            continue;
        }
        if k > 0 && toks[k - 1].is_ident("fn") {
            continue; // definition, not a call
        }
        let receiver = receiver_chain(fm, k);
        let args = split_args(fm, open);
        out.push(CallSite {
            line: toks[k].line - 1,
            name: toks[k].text.clone(),
            receiver,
            args,
        });
    }
    out
}

/// The dotted chain immediately before a call name, e.g. `self.abm` for
/// `self.abm.post(…)`. Empty when the call is not a method call.
fn receiver_chain(fm: &FileMap, name_idx: usize) -> String {
    let toks = &fm.tokens;
    let mut parts: Vec<&str> = Vec::new();
    let mut k = name_idx;
    while k >= 2 && toks[k - 1].is_punct(".") && toks[k - 2].kind == TokKind::Ident {
        parts.push(&toks[k - 2].text);
        k -= 2;
    }
    parts.reverse();
    parts.join(".")
}

/// Split the parenthesized argument list opening at token `open_idx`
/// into top-level comma-separated texts (tokens joined with spaces).
fn split_args(fm: &FileMap, open_idx: usize) -> Vec<String> {
    let toks = &fm.tokens;
    let mut args: Vec<String> = Vec::new();
    let mut cur: Vec<&str> = Vec::new();
    let mut depth = 0i64;
    for t in &toks[open_idx..] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "," if depth == 1 => {
                    args.push(cur.join(" "));
                    cur.clear();
                    continue;
                }
                _ => {}
            }
        }
        if depth >= 1 && !(depth == 1 && t.is_punct("(")) {
            cur.push(&t.text);
        }
    }
    if !cur.is_empty() {
        args.push(cur.join(" "));
    }
    args
}

/// Identifiers appearing as a whole match-arm pattern: `IDENT =>`.
#[must_use]
pub fn match_arm_idents(fm: &FileMap) -> Vec<(usize, String)> {
    let toks = &fm.tokens;
    let mut out = Vec::new();
    for k in 0..toks.len().saturating_sub(1) {
        if toks[k].kind == TokKind::Ident && toks[k + 1].is_punct("=>") {
            out.push((toks[k].line - 1, toks[k].text.clone()));
        }
    }
    out
}

/// `==` / `!=` comparisons: `(line, left, right)` where each side is the
/// adjacent chain of identifier/number/path tokens joined with spaces.
/// Parenthesized sub-expressions are not chased — the callers only look
/// for `tag == SOME_CONST` shapes.
#[must_use]
pub fn comparisons(fm: &FileMap) -> Vec<(usize, String, String)> {
    let toks = &fm.tokens;
    let chain_tok = |k: usize| -> Option<&str> {
        let t = &toks[k];
        match t.kind {
            TokKind::Ident | TokKind::Number => Some(&t.text),
            TokKind::Punct if t.text == "." || t.text == "::" => Some(&t.text),
            _ => None,
        }
    };
    let mut out = Vec::new();
    for k in 0..toks.len() {
        if !(toks[k].is_punct("==") || toks[k].is_punct("!=")) {
            continue;
        }
        let mut left: Vec<&str> = Vec::new();
        let mut j = k;
        while j > 0 {
            match chain_tok(j - 1) {
                Some(t) => left.push(t),
                None => break,
            }
            j -= 1;
        }
        left.reverse();
        let mut right: Vec<&str> = Vec::new();
        let mut j = k + 1;
        while j < toks.len() {
            match chain_tok(j) {
                Some(t) => right.push(t),
                None => break,
            }
            j += 1;
        }
        out.push((toks[k].line - 1, left.join(" "), right.join(" ")));
    }
    out
}

/// Field initializer expressions of `Name { …, field: <expr>, … }` struct
/// literals: `(line, expr-text)` pairs. Shorthand init (`field,`) and
/// destructuring patterns yield nothing useful and are skipped by the
/// `:`-after-field requirement.
#[must_use]
pub fn struct_field_exprs(fm: &FileMap, struct_name: &str, field: &str) -> Vec<(usize, String)> {
    let toks = &fm.tokens;
    let mut out = Vec::new();
    for k in 0..toks.len().saturating_sub(1) {
        if !toks[k].is_ident(struct_name) || !toks[k + 1].is_punct("{") {
            continue;
        }
        if k > 0
            && matches!(
                toks[k - 1].text.as_str(),
                "impl" | "struct" | "enum" | "trait" | "mod" | "union" | "for"
            )
        {
            continue;
        }
        // Walk the literal body at depth 1 looking for `field :`.
        let mut depth = 0i64;
        let mut j = k + 1;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if depth == 1
                && t.is_ident(field)
                && j + 1 < toks.len()
                && toks[j + 1].is_punct(":")
                && (toks[j - 1].is_punct("{") || toks[j - 1].is_punct(","))
            {
                let mut expr: Vec<&str> = Vec::new();
                let mut d2 = 0i64;
                for e in &toks[j + 2..] {
                    if e.kind == TokKind::Punct {
                        match e.text.as_str() {
                            "{" | "(" | "[" => d2 += 1,
                            "}" | ")" | "]" if d2 == 0 => break,
                            "}" | ")" | "]" => d2 -= 1,
                            "," if d2 == 0 => break,
                            _ => {}
                        }
                    }
                    expr.push(&e.text);
                }
                out.push((t.line - 1, expr.join(" ")));
            }
            j += 1;
        }
    }
    out
}

/// One `hot-lint: allow(rule)` marker found in a comment.
#[derive(Clone, Debug)]
pub struct Marker {
    /// 0-based line of the comment containing the marker.
    pub line: usize,
    /// The rule name inside the parentheses.
    pub rule: String,
    /// Set once the marker actually suppressed a finding.
    pub used: bool,
}

/// All suppression markers in a file, with used-tracking.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// The markers in source order.
    pub markers: Vec<Marker>,
}

const MARKER: &str = "hot-lint: allow(";

impl Suppressions {
    /// Scan the comment view for `hot-lint: allow(rule)` markers. Only
    /// comments count: marker text inside a string literal is inert
    /// (that is part of the suppression contract, not an accident).
    #[must_use]
    pub fn collect(fm: &FileMap) -> Suppressions {
        let mut markers = Vec::new();
        for (i, line) in fm.comments.iter().enumerate() {
            let mut from = 0;
            while let Some(p) = line[from..].find(MARKER) {
                let at = from + p + MARKER.len();
                if let Some(close) = line[at..].find(')') {
                    markers.push(Marker {
                        line: i,
                        rule: line[at..at + close].to_string(),
                        used: false,
                    });
                    from = at + close;
                } else {
                    break;
                }
            }
        }
        Suppressions { markers }
    }

    /// True when a finding of `rule` on 0-based line `idx` is suppressed
    /// by a marker on that line or the line above. Matching markers are
    /// flagged as used.
    pub fn allows(&mut self, rule: &str, idx: usize) -> bool {
        let mut hit = false;
        for m in &mut self.markers {
            if m.rule == rule && (m.line == idx || m.line + 1 == idx) {
                m.used = true;
                hit = true;
            }
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::FileMap;

    #[test]
    fn test_mask_covers_cfg_test_modules_exactly() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn b() {}\n";
        let fm = FileMap::parse(src);
        let mask = test_mask(&fm);
        assert_eq!(&mask[..6], &[false, true, true, true, true, false]);
    }

    #[test]
    fn test_mask_ends_a_bodiless_item_at_its_terminator() {
        // A gated field or constant has no braces to track: the mask stops
        // at its `,`/`;`, not at the end of the next braced item.
        let src = "struct S {\n    #[cfg(test)]\n    hook: Vec<(\n        u32,\n    )>,\n    \
                   live: u32,\n}\n#[cfg(test)]\nconst K: u32 = 1;\nfn prod() {}\n";
        let mask = test_mask(&FileMap::parse(src));
        assert_eq!(&mask[..10], &[false, true, true, true, true, false, false, true, true, false]);
    }

    #[test]
    fn test_mask_ignores_braces_inside_strings() {
        // The stray `{` in the string used to keep the mask open past the
        // module's real end, hiding the code after it from every rule.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let s = \"{\"; }\n}\nfn prod() {}\n";
        let fm = FileMap::parse(src);
        let mask = test_mask(&fm);
        assert!(mask[0] && mask[3], "module itself masked");
        assert!(!mask[4], "code after the module must not be masked");
    }

    #[test]
    fn function_spans_are_exact_with_string_braces() {
        let src = "fn a() {\n    let s = \"{\";\n}\nfn b() {\n    x();\n}\n";
        let fm = FileMap::parse(src);
        let spans = function_spans(&fm);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].start, spans[0].end), ("a", 0, 3));
        assert_eq!((spans[1].name.as_str(), spans[1].start, spans[1].end), ("b", 3, 6));
    }

    #[test]
    fn call_sites_capture_receiver_and_args() {
        let src = "fn f(c: &mut Comm) {\n    c.send_bytes(dst, TAG_BARRIER + k, data);\n    \
                   self.abm.post(owner, K_REQ_BATCH, &req);\n}\n";
        let fm = FileMap::parse(src);
        let sites = call_sites(&fm, &["send_bytes", "post"]);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].receiver, "c");
        assert_eq!(sites[0].args[1], "TAG_BARRIER + k");
        assert_eq!(sites[1].receiver, "self.abm");
        assert_eq!(sites[1].args[1], "K_REQ_BATCH");
        assert_eq!(sites[1].line, 2);
    }

    #[test]
    fn call_sites_skip_definitions_and_span_lines() {
        let src = "fn post(dst: u32) {}\nfn g(ep: &mut Abm) {\n    ep.post(\n        dst,\n        K_REP,\n        &v,\n    );\n}\n";
        let fm = FileMap::parse(src);
        let sites = call_sites(&fm, &["post"]);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].args[1], "K_REP");
    }

    #[test]
    fn match_arms_and_comparisons_extract() {
        let src = "match kind {\n    K_REQ_CHILDREN => a(),\n    other => b(),\n}\n\
                   if env.tag == POISON_TAG { c(); }\n";
        let fm = FileMap::parse(src);
        let arms = match_arm_idents(&fm);
        assert!(arms.iter().any(|(l, n)| *l == 1 && n == "K_REQ_CHILDREN"));
        let cmps = comparisons(&fm);
        assert!(cmps
            .iter()
            .any(|(_, l, r)| l.ends_with("env . tag") && r == "POISON_TAG"));
    }

    #[test]
    fn struct_field_exprs_find_tag_initializers() {
        let src = "let e = Envelope { src: 0, tag: POISON_TAG, data: Bytes::new() };\n\
                   let f = Envelope { src, tag, data };\n";
        let fm = FileMap::parse(src);
        let tags = struct_field_exprs(&fm, "Envelope", "tag");
        assert_eq!(tags.len(), 1, "shorthand init must not match");
        assert_eq!(tags[0].1, "POISON_TAG");
    }

    #[test]
    fn suppressions_only_live_in_comments_and_track_use() {
        let src = "// hot-lint: allow(wall-clock): justified\nlet t = now();\n\
                   let s = \"hot-lint: allow(determinism)\";\n";
        let fm = FileMap::parse(src);
        let mut sup = Suppressions::collect(&fm);
        assert_eq!(sup.markers.len(), 1, "string marker is inert");
        assert!(sup.allows("wall-clock", 1));
        assert!(sup.markers[0].used);
        assert!(!sup.allows("determinism", 2));
    }
}
