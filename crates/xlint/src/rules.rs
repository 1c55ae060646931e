//! The lint rules.
//!
//! Each rule is lexer-level: it works on the code/comment views of
//! [`crate::lexer::mask`], line by line, with no type information. The
//! rules are deliberately repo-specific — they encode this project's
//! conventions, not general Rust style.

use crate::lexer::{has_word, mask, Masked};

/// One lint finding, pointing at a file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// `path:line: [rule] message` (the text output format).
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }

    /// Minimal JSON object (std-only; all fields escaped).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"file":"{}","line":{},"rule":"{}","message":"{}"}}"#,
            json_escape(&self.file),
            self.line,
            self.rule,
            json_escape(&self.message)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A loaded source file ready for linting.
pub struct SourceFile {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// Raw contents.
    pub text: String,
}

/// Per-line lint context for one file.
struct FileView<'a> {
    path: &'a str,
    code: Vec<&'a str>,
    comments: Vec<&'a str>,
    /// `true` for lines inside a `#[cfg(test)]` block.
    test_region: Vec<bool>,
}

fn view<'a>(path: &'a str, masked: &'a Masked) -> FileView<'a> {
    let code: Vec<&str> = masked.code.lines().collect();
    let comments: Vec<&str> = masked.comments.lines().collect();
    let test_region = test_regions(&code);
    FileView {
        path,
        code,
        comments,
        test_region,
    }
}

/// Mark the lines belonging to `#[cfg(test)]`-gated items by brace
/// matching from the attribute (lexer-level, so the "item" is whatever
/// block follows).
fn test_regions(code: &[&str]) -> Vec<bool> {
    brace_regions(code, "#[cfg(test)]")
}

/// Mark the lines of every block opened at a line containing `trigger`,
/// by brace matching from that line until its braces close again
/// (lexer-level: the "block" is whatever `{ ... }` follows the trigger).
fn brace_regions(code: &[&str], trigger: &str) -> Vec<bool> {
    let mut marked = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].contains(trigger) {
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            while j < code.len() {
                marked[j] = true;
                for b in code[j].bytes() {
                    match b {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    marked
}

/// True when any comment within `span` lines above `line` (inclusive of
/// the line itself) contains `needle`.
fn comment_above(v: &FileView<'_>, line: usize, span: usize, needle: &str) -> bool {
    let lo = line.saturating_sub(span);
    (lo..=line).any(|i| v.comments.get(i).is_some_and(|c| c.contains(needle)))
}

/// Rule `unsafe-safety`: every `unsafe` keyword is justified by a
/// `// SAFETY:` comment (or a `# Safety` doc section for `unsafe fn`)
/// within the five preceding lines. Applies everywhere, tests included —
/// an unjustified unsafe block in a test is still an unsafe block.
pub fn rule_unsafe_safety(file: &SourceFile, out: &mut Vec<Finding>) {
    let masked = mask(&file.text);
    let v = view(&file.path, &masked);
    for (i, code) in v.code.iter().enumerate() {
        if !has_word(code, "unsafe") {
            continue;
        }
        if comment_above(&v, i, 5, "SAFETY:") || comment_above(&v, i, 5, "# Safety") {
            continue;
        }
        out.push(Finding {
            file: v.path.to_string(),
            line: i + 1,
            rule: "unsafe-safety",
            message: "`unsafe` without a `// SAFETY:` comment in the 5 lines above".into(),
        });
    }
}

/// Rule `no-unwrap`: production crates (`crates/service`, `crates/pram`)
/// never `.unwrap()` / `.expect(` outside tests. Justified uses carry an
/// `xlint: allow(unwrap)` comment within the three preceding lines (the
/// window covers builder chains where the comment sits above the chain).
pub fn rule_no_unwrap(file: &SourceFile, out: &mut Vec<Finding>) {
    if !(file.path.contains("crates/service/src") || file.path.contains("crates/pram/src")) {
        return;
    }
    let masked = mask(&file.text);
    let v = view(&file.path, &masked);
    for (i, code) in v.code.iter().enumerate() {
        if v.test_region[i] {
            continue;
        }
        if !(code.contains(".unwrap()") || code.contains(".expect(")) {
            continue;
        }
        if comment_above(&v, i, 3, "xlint: allow(unwrap)") {
            continue;
        }
        out.push(Finding {
            file: v.path.to_string(),
            line: i + 1,
            rule: "no-unwrap",
            message: "`.unwrap()`/`.expect()` in production code \
                      (annotate `// xlint: allow(unwrap): why` if justified)"
                .into(),
        });
    }
}

/// Rule `arbitrary-policy`: algorithm crates only request
/// `WritePolicy::Arbitrary` explicitly (via a `*_with_policy` call) at
/// approved election sites, marked `xlint: allow(arbitrary-policy)`.
/// Everywhere else an Arbitrary election is a seed-dependence hazard the
/// analyzer would flag at run time — catch it before it runs.
pub fn rule_arbitrary_policy(file: &SourceFile, out: &mut Vec<Finding>) {
    let algo_crate = [
        "crates/core/src",
        "crates/hull3d/src",
        "crates/lp/src",
        "crates/inplace/src",
    ]
    .iter()
    .any(|p| file.path.contains(p));
    if !algo_crate {
        return;
    }
    let masked = mask(&file.text);
    let v = view(&file.path, &masked);
    for (i, code) in v.code.iter().enumerate() {
        if v.test_region[i] {
            continue;
        }
        // the policy argument may sit on the line after the call opener
        let with_policy_near =
            code.contains("_with_policy") || (i > 0 && v.code[i - 1].contains("_with_policy"));
        if !(with_policy_near && code.contains("WritePolicy::Arbitrary")) {
            continue;
        }
        if comment_above(&v, i, 3, "xlint: allow(arbitrary-policy)") {
            continue;
        }
        out.push(Finding {
            file: v.path.to_string(),
            line: i + 1,
            rule: "arbitrary-policy",
            message: "explicit Arbitrary write policy outside an approved election site \
                      (annotate `// xlint: allow(arbitrary-policy): why` if intended)"
                .into(),
        });
    }
}

/// Rule `frugal-scope`: bounded-workspace ("frugal") modules in the
/// algorithm crates allocate simulator workspace only inside an
/// `Shm::scope` block, so every scratch cell is provably freed when the
/// scope closes and the workspace budget sees the true live count. A
/// `.alloc(` outside a `.scope(`-opened region is a scratch leak the
/// budget cannot reclaim. Justified exceptions carry an
/// `xlint: allow(frugal-scope)` comment within the three preceding
/// lines.
pub fn rule_frugal_scope(file: &SourceFile, out: &mut Vec<Finding>) {
    let algo_crate = [
        "crates/core/src",
        "crates/hull3d/src",
        "crates/lp/src",
        "crates/inplace/src",
    ]
    .iter()
    .any(|p| file.path.contains(p));
    if !algo_crate || !file.path.contains("frugal") {
        return;
    }
    let masked = mask(&file.text);
    let v = view(&file.path, &masked);
    let scoped = brace_regions(&v.code, ".scope(");
    for (i, code) in v.code.iter().enumerate() {
        if v.test_region[i] || scoped[i] {
            continue;
        }
        if !code.contains(".alloc(") {
            continue;
        }
        if comment_above(&v, i, 3, "xlint: allow(frugal-scope)") {
            continue;
        }
        out.push(Finding {
            file: v.path.to_string(),
            line: i + 1,
            rule: "frugal-scope",
            message: "workspace allocation outside `Shm::scope` in a frugal module \
                      (bounded-workspace code frees scratch by closing its scope; \
                      annotate `// xlint: allow(frugal-scope): why` if intended)"
                .into(),
        });
    }
}

/// Run every rule over `files` and return the combined findings, sorted
/// by file and line.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        rule_unsafe_safety(f, &mut out);
        rule_no_unwrap(f, &mut out);
        rule_arbitrary_policy(f, &mut out);
        rule_frugal_scope(f, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> SourceFile {
        SourceFile {
            path: path.into(),
            text: text.into(),
        }
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let mut out = Vec::new();
        rule_unsafe_safety(
            &src("crates/x/src/a.rs", "fn f() {\n    unsafe { g() }\n}\n"),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unsafe-safety");
        assert_eq!(out[0].line, 2);

        out.clear();
        rule_unsafe_safety(
            &src(
                "crates/x/src/a.rs",
                "fn f() {\n    // SAFETY: g upholds the invariant\n    unsafe { g() }\n}\n",
            ),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn unsafe_in_string_is_ignored() {
        let mut out = Vec::new();
        rule_unsafe_safety(
            &src("a.rs", "let s = \"unsafe\";\nlet r = r#\"unsafe\"#;\n"),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn doc_safety_section_counts() {
        let mut out = Vec::new();
        rule_unsafe_safety(
            &src(
                "a.rs",
                "/// # Safety\n/// ptr must be valid\npub unsafe fn f(p: *const u8) {}\n",
            ),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn unwrap_flagged_only_in_production_paths() {
        let text = "fn f() { x.unwrap(); }\n";
        let mut out = Vec::new();
        rule_no_unwrap(&src("crates/pram/src/a.rs", text), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        rule_no_unwrap(&src("crates/geom/src/a.rs", text), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unwrap_escape_hatch_and_tests() {
        let mut out = Vec::new();
        rule_no_unwrap(
            &src(
                "crates/service/src/a.rs",
                "// xlint: allow(unwrap): startup is fail-fast\nfn f() { x.unwrap(); }\n\
                 #[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n",
            ),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn arbitrary_policy_needs_annotation() {
        let bad = "m.step_with_policy(shm, 0..n, WritePolicy::Arbitrary, |ctx| {});\n";
        let mut out = Vec::new();
        rule_arbitrary_policy(&src("crates/lp/src/a.rs", bad), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "arbitrary-policy");

        let good = "// xlint: allow(arbitrary-policy): winner-only write\n\
                    m.step_with_policy(shm, 0..n, WritePolicy::Arbitrary, |ctx| {});\n";
        out.clear();
        rule_arbitrary_policy(&src("crates/lp/src/a.rs", good), &mut out);
        assert!(out.is_empty());

        // plan constructors mention Arbitrary without _with_policy — clean
        let plan = "StepPlan::new(\"s\", Affine::n(), WritePolicy::Arbitrary)\n";
        out.clear();
        rule_arbitrary_policy(&src("crates/lp/src/a.rs", plan), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn frugal_scope_rule_wants_allocs_inside_scope() {
        // An alloc outside any `.scope(` block in a frugal module leaks.
        let bad = "fn f(shm: &Shm) {\n    let best = shm.alloc(\"x.best\", s, EMPTY);\n}\n";
        let mut out = Vec::new();
        rule_frugal_scope(&src("crates/core/src/parallel/frugal.rs", bad), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "frugal-scope");
        assert_eq!(out[0].line, 2);

        // The same text in a non-frugal module (or non-algo crate) is
        // out of the rule's jurisdiction.
        out.clear();
        rule_frugal_scope(&src("crates/core/src/parallel/dac.rs", bad), &mut out);
        rule_frugal_scope(&src("crates/service/src/frugal.rs", bad), &mut out);
        assert!(out.is_empty());

        // Inside a scope block the alloc is reclaimed on close — clean.
        let good = "fn f(shm: &Shm) {\n    shm.scope(|shm| {\n        \
                    let best = shm.alloc(\"x.best\", s, EMPTY);\n    })\n}\n";
        out.clear();
        rule_frugal_scope(&src("crates/lp/src/frugal_bridge.rs", good), &mut out);
        assert!(out.is_empty(), "{out:?}");

        // Escape hatch and test regions, mirroring the other rules.
        let escaped = "// xlint: allow(frugal-scope): input marking, not scratch\n\
                       fn f(shm: &Shm) { shm.alloc(\"in\", n, EMPTY); }\n\
                       #[cfg(test)]\nmod tests {\n    fn g(shm: &Shm) { shm.alloc(\"t\", 1, E); }\n}\n";
        out.clear();
        rule_frugal_scope(&src("crates/lp/src/frugal_bridge.rs", escaped), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn json_output_escapes() {
        let f = Finding {
            file: "a\"b.rs".into(),
            line: 3,
            rule: "no-unwrap",
            message: "line1\nline2".into(),
        };
        assert_eq!(
            f.to_json(),
            r#"{"file":"a\"b.rs","line":3,"rule":"no-unwrap","message":"line1\nline2"}"#
        );
    }
}
