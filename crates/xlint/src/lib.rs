//! `xlint` — repo-specific, lexer-level lint for the workspace.
//!
//! Four rules, all convention checks the compiler cannot express:
//!
//! 1. **unsafe-safety** — every `unsafe` keyword carries a `// SAFETY:`
//!    justification (or a `# Safety` doc section) nearby.
//! 2. **no-unwrap** — `crates/service` and `crates/pram` production code
//!    never panics via `.unwrap()` / `.expect()` without an explicit
//!    `xlint: allow(unwrap)` escape comment.
//! 3. **arbitrary-policy** — algorithm crates request
//!    `WritePolicy::Arbitrary` explicitly only at approved election
//!    sites marked `xlint: allow(arbitrary-policy)`.
//! 4. **frugal-scope** — bounded-workspace ("frugal") modules allocate
//!    simulator workspace only inside `Shm::scope` blocks, so scratch
//!    is provably freed and the workspace budget sees the true live
//!    count.
//!
//! Entry-point contracts are not a lint: every paper entry point's
//! `ModelContract` is the `contract` of a plan in
//! `ipch_hull3d::paper_plans()`, and `xtests/tests/analyze_suite.rs`
//! checks at run time that each one is declared, registered, and bounds
//! the class the analyzer observes.
//!
//! Std-only on purpose: the linter must build before anything else in
//! the workspace does and must never need linting itself transitively.
//! Run with `cargo run -p xlint` from the repo root; see `main.rs` for
//! the CLI surface.

pub mod lexer;
pub mod rules;

pub use rules::{run_all, Finding, SourceFile};

use std::fs;
use std::path::{Path, PathBuf};

/// Directory components that are never linted: build output, vendored
/// shims (external idiom, not ours), lint fixtures (intentionally bad),
/// bench artifacts, and VCS metadata.
const SKIP_DIRS: &[&str] = &["target", "shims", "fixtures", "bench_results", ".git"];

/// Collect every `.rs` file under `root`, skipping [`SKIP_DIRS`], with
/// paths made relative to `root` (forward slashes). Deterministic order.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let text = fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push(SourceFile { path: rel, text });
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint everything under `root` and return the findings.
pub fn lint_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(run_all(&collect_sources(root)?))
}

/// Render findings as a JSON array (std-only, hand-rolled).
pub fn to_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings.iter().map(Finding::to_json).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_root(which: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(which)
    }

    /// The fixtures live under a `fixtures/` component, which the walker
    /// skips by design — so fixture tests load files directly.
    fn fixture_sources(which: &str) -> Vec<SourceFile> {
        let root = fixture_root(which);
        let mut files: Vec<PathBuf> = fs::read_dir(&root)
            .unwrap_or_else(|e| panic!("fixture dir {}: {e}", root.display()))
            .map(|e| e.expect("fixture entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| SourceFile {
                // Fixture files impersonate production paths via their
                // names: `crates__service__src__foo.rs` stands in for
                // `crates/service/src/foo.rs`.
                path: p
                    .file_name()
                    .expect("fixture file name")
                    .to_string_lossy()
                    .replace("__", "/"),
                text: fs::read_to_string(&p).expect("fixture readable"),
            })
            .collect()
    }

    #[test]
    fn bad_fixture_trips_every_per_file_rule() {
        let files = fixture_sources("bad");
        let mut got = Vec::new();
        for f in &files {
            rules::rule_unsafe_safety(f, &mut got);
            rules::rule_no_unwrap(f, &mut got);
            rules::rule_arbitrary_policy(f, &mut got);
            rules::rule_frugal_scope(f, &mut got);
        }
        let rules_hit: std::collections::BTreeSet<&str> = got.iter().map(|f| f.rule).collect();
        assert!(rules_hit.contains("unsafe-safety"), "{got:?}");
        assert!(rules_hit.contains("no-unwrap"), "{got:?}");
        assert!(rules_hit.contains("arbitrary-policy"), "{got:?}");
        assert!(rules_hit.contains("frugal-scope"), "{got:?}");
    }

    #[test]
    fn clean_fixture_is_clean() {
        let files = fixture_sources("clean");
        assert!(!files.is_empty(), "clean fixtures missing");
        let mut got = Vec::new();
        for f in &files {
            rules::rule_unsafe_safety(f, &mut got);
            rules::rule_no_unwrap(f, &mut got);
            rules::rule_arbitrary_policy(f, &mut got);
            rules::rule_frugal_scope(f, &mut got);
        }
        assert!(got.is_empty(), "clean fixture flagged: {got:?}");
    }

    #[test]
    fn walker_skips_fixture_and_target_dirs() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let sources = collect_sources(here).expect("walk own crate");
        assert!(sources.iter().any(|s| s.path == "src/lib.rs"));
        assert!(
            sources.iter().all(|s| !s.path.contains("fixtures/")),
            "fixtures must not be linted as repo code"
        );
    }

    #[test]
    fn json_array_shape() {
        let f = Finding {
            file: "a.rs".into(),
            line: 1,
            rule: "no-unwrap",
            message: "m".into(),
        };
        assert_eq!(
            to_json(&[f.clone(), f]),
            r#"[{"file":"a.rs","line":1,"rule":"no-unwrap","message":"m"},{"file":"a.rs","line":1,"rule":"no-unwrap","message":"m"}]"#
        );
        assert_eq!(to_json(&[]), "[]");
    }
}
