//! Line counts for the "net non-test lines" gates of simplicity changes:
//! per crate under `crates/`, the non-blank lines of production code. A
//! line is test code when the lint's test mask ([`model::test_mask`])
//! covers it — a `#[cfg(test)]` item, or a whole `#![cfg(test)]` file — or
//! when its file sits in a `tests/` directory. Comments count: they are
//! lines a reader reads.

use crate::lexer::FileMap;
use crate::lint::{read_sources, rs_files};
use crate::model;
use std::collections::BTreeMap;
use std::path::Path;

/// Non-blank non-test lines of every crate under `root/crates`, as
/// `(crate directory, lines)` sorted by name. Empty when there are no
/// sources.
#[must_use]
pub fn count_workspace(root: &Path) -> Vec<(String, usize)> {
    // `rs_files` skips `crates/analyze` below `crates`; walk it on its own.
    count(&read_sources(root, &rs_files(root, &["crates", "crates/analyze"])))
}

/// [`count_workspace`] over `(workspace-relative path, source)` pairs.
fn count(files: &[(String, String)]) -> Vec<(String, usize)> {
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    for (rel, source) in files {
        let mut parts = rel.split('/');
        let (Some("crates"), Some(name)) = (parts.next(), parts.next()) else { continue };
        let lines = per_crate.entry(name.to_string()).or_default();
        if rel.split('/').any(|c| c == "tests") {
            continue;
        }
        let fm = FileMap::parse(source);
        let in_test = model::test_mask(&fm);
        *lines += fm.lines.iter().zip(&in_test).filter(|(l, &t)| !t && !l.trim().is_empty()).count();
    }
    per_crate.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Vec<(String, String)> {
        [
            // Two code lines and a comment; the gated module is test code.
            (
                "crates/a/src/lib.rs",
                "fn f() {}\n\n// why\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\npub fn g() {\n}\n",
            ),
            // A test file counts nothing, but its crate is listed.
            ("crates/b/tests/it.rs", "fn t() {}\n"),
            // So does a file gated as a whole.
            ("crates/a/src/proptests.rs", "#![cfg(test)]\nfn p() {}\n"),
            // Outside `crates/`: not counted.
            ("src/lib.rs", "fn top() {}\n"),
        ]
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .to_vec()
    }

    #[test]
    fn counts_non_blank_lines_outside_tests_per_crate() {
        assert_eq!(count(&fixture()), [("a".to_string(), 4), ("b".to_string(), 0)]);
    }

    /// The same fixture laid out on disk: the walk finds every crate,
    /// `crates/analyze` included, and skips `target/`.
    #[test]
    fn counts_a_workspace_on_disk() {
        let root = std::env::temp_dir().join(format!("hot-analyze-loc-{}", std::process::id()));
        let mut files = fixture();
        files.push(("crates/analyze/src/main.rs".into(), "fn main() {}\n".into()));
        files.push(("crates/a/target/debug/build.rs".into(), "fn skipped() {}\n".into()));
        for (rel, src) in &files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("a directory")).expect("temp dir");
            std::fs::write(path, src).expect("fixture file");
        }
        let got = count_workspace(&root);
        std::fs::remove_dir_all(&root).expect("cleanup");
        let want = [("a", 4), ("analyze", 1), ("b", 0)].map(|(c, n)| (c.to_string(), n));
        assert_eq!(got, want);
    }
}
