//! The protocol-specific lint rules layered on top of the
//! `[workspace.lints]` wall (see `docs/STATIC_ANALYSIS.md` for the full
//! catalogue, and DESIGN.md § "Static analysis & invariants"):
//!
//! 1. **no-panic** — no `unwrap()` / `expect()` / `panic!` family macros in
//!    the protocol hot-path *directories* (`crates/bgp/src`,
//!    `crates/core/src`), outside `#[cfg(test)]` items, unless annotated
//!    `// lint:allow(reason)`. The call-graph analysis in
//!    [`crate::analysis`] complements this directory wall with
//!    reachability from the engine entry points (including indexing and
//!    asserts, and crossing into other crates).
//! 2. **pub-docs** — every public item carries a doc comment.
//! 3. **wire-golden** — every wire-enum variant is exercised by name in the
//!    golden round-trip suite `crates/bgp/tests/wire_golden.rs`.
//! 4. **engine-hygiene** — no `Ordering::Relaxed` and no bare
//!    `thread::spawn` inside `crates/bgp/src/engine/`.
//! 5. **unsafe-audit** — every first-party crate root carries
//!    `#![forbid(unsafe_code)]`, no first-party line uses `unsafe`, and
//!    vendored stand-ins are unsafe-free unless enumerated (with a reason)
//!    in [`VENDOR_UNSAFE_EXCEPTIONS`].
//!
//! Rules 3 and 5 are parser-backed: enum variants and crate-root
//! attributes come from [`crate::parser`] item trees rather than ad-hoc
//! brace tracking.
//!
//! Allocation on the stage path is counted, not linted: the root test
//! `tests/allocations.rs` runs it under a counting allocator, so a block
//! made in any helper the step calls is seen too.

use crate::lexer::{Allow, LexedFile};
use crate::parser::ParsedFile;
use std::path::{Path, PathBuf};

/// One lint finding: rule, location, and the offending token.
#[derive(Debug)]
pub struct Violation {
    /// Short rule identifier (e.g. `no-panic`).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of what was matched.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A lexed source file plus its workspace-relative path.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root.
    pub rel_path: PathBuf,
    /// Lexer output (code-only lines, allows, test-line marks).
    pub lexed: LexedFile,
}

impl SourceFile {
    /// True if the file lives under `dir` (workspace-relative prefix).
    pub fn under(&self, dir: &str) -> bool {
        self.rel_path.starts_with(Path::new(dir))
    }
}

/// Returns `true` when a violation on `line_idx` (0-based) is covered by an
/// annotation on the same line or the line directly above; marks the
/// annotation used so `audit` can flag stale ones.
pub fn allowed(allows: &[Allow], line_idx: usize) -> bool {
    for allow in allows {
        if allow.line == line_idx || allow.line + 1 == line_idx {
            allow.used.set(true);
            return true;
        }
    }
    false
}

/// Tokens banned in protocol hot paths, with the reason shown on match.
const PANIC_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "use a typed error instead of unwrap()"),
    (".expect(", "use a typed error instead of expect()"),
    ("panic!(", "protocol paths must return errors, not panic"),
    (
        "unreachable!(",
        "encode the impossibility in the type system",
    ),
    ("todo!(", "no unfinished protocol code"),
    ("unimplemented!(", "no unfinished protocol code"),
];

/// Directories whose non-test code must be panic-free.
pub const HOT_PATHS: &[&str] = &["crates/bgp/src", "crates/core/src"];

/// Rule 1: no panic-family calls in protocol hot paths.
pub fn check_no_panic(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        if !HOT_PATHS.iter().any(|d| file.under(d)) {
            continue;
        }
        for (idx, line) in file.lexed.code_lines.iter().enumerate() {
            if file.lexed.test_lines[idx] {
                continue;
            }
            for (token, hint) in PANIC_TOKENS {
                if line.contains(token) && !allowed(&file.lexed.allows, idx) {
                    out.push(Violation {
                        rule: "no-panic",
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{}` in protocol hot path: {hint}",
                            token.trim_end_matches('(')
                        ),
                    });
                }
            }
        }
    }
}

/// True if the trimmed code line declares a public item that needs docs.
/// `pub use` re-exports and restricted visibility (`pub(crate)` etc.) are
/// exempt, matching rustc's `missing_docs`; so are semicolon module
/// declarations (`pub mod x;`), which are documented by the module file's
/// inner `//!` docs — rustc's wall verifies those.
fn is_public_item(trimmed: &str) -> bool {
    if !trimmed.starts_with("pub ") {
        return false;
    }
    let rest = &trimmed[4..];
    if rest.starts_with("mod ") && rest.trim_end().ends_with(';') {
        return false;
    }
    const ITEM_KEYWORDS: &[&str] = &[
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "mod ",
        "type ",
        "const ",
        "static ",
        "union ",
        "unsafe fn ",
        "async fn ",
        "unsafe trait ",
    ];
    ITEM_KEYWORDS.iter().any(|kw| rest.starts_with(kw))
}

/// Rule 2: every public item is documented. This is a belt-and-braces
/// double of the workspace `missing_docs = "deny"` wall that also works on
/// code rustc skips (e.g. items gated out by cfg on this platform).
pub fn check_pub_docs(files: &[SourceFile], raw_lines: &[Vec<String>], out: &mut Vec<Violation>) {
    for (file, raw) in files.iter().zip(raw_lines) {
        if !file.rel_path.starts_with("crates") && !file.rel_path.starts_with("src") {
            continue;
        }
        if file.rel_path.components().any(|c| {
            c.as_os_str() == "tests" || c.as_os_str() == "benches" || c.as_os_str() == "examples"
        }) {
            continue;
        }
        for (idx, line) in file.lexed.code_lines.iter().enumerate() {
            if file.lexed.test_lines[idx] {
                continue;
            }
            let trimmed = line.trim_start();
            if !is_public_item(trimmed) {
                continue;
            }
            // Walk upward over attributes (including multi-line ones,
            // tracked by `[`/`]` balance on code-only lines) looking for a
            // doc comment in the ORIGINAL source (doc comments are blanked
            // in code_lines).
            let mut documented = false;
            let mut bracket_balance = 0i32;
            let mut j = idx;
            while j > 0 {
                j -= 1;
                let code_above = &file.lexed.code_lines[j];
                let opens = code_above.matches('[').count() as i32;
                let closes = code_above.matches(']').count() as i32;
                bracket_balance += opens - closes;
                if bracket_balance < 0 {
                    continue; // inside a multi-line attribute, keep walking
                }
                let above = raw[j].trim_start();
                if above.starts_with("///") || above.starts_with("#[doc") {
                    documented = true;
                    break;
                }
                if above.starts_with("#[") {
                    continue;
                }
                break;
            }
            if !documented && !allowed(&file.lexed.allows, idx) {
                out.push(Violation {
                    rule: "pub-docs",
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    message: format!(
                        "public item `{}` has no doc comment",
                        first_words(trimmed, 3)
                    ),
                });
            }
        }
    }
}

fn first_words(s: &str, n: usize) -> String {
    s.split_whitespace().take(n).collect::<Vec<_>>().join(" ")
}

/// Files whose `pub enum`s define the wire vocabulary that the golden
/// suite must cover exhaustively.
pub const WIRE_ENUM_FILES: &[&str] = &["crates/bgp/src/message.rs"];

/// The golden round-trip suite.
pub const GOLDEN_TEST: &str = "crates/bgp/tests/wire_golden.rs";

/// Rule 3: every wire-enum variant must appear by name in the golden suite.
/// Variant inventory comes from the parsed item trees.
pub fn check_wire_golden(files: &[SourceFile], trees: &[ParsedFile], out: &mut Vec<Violation>) {
    let Some(golden) = files.iter().find(|f| f.rel_path == Path::new(GOLDEN_TEST)) else {
        out.push(Violation {
            rule: "wire-golden",
            file: PathBuf::from(GOLDEN_TEST),
            line: 1,
            message: "golden round-trip suite is missing".into(),
        });
        return;
    };
    let golden_text = golden.lexed.code_lines.join("\n");
    for (file, tree) in files.iter().zip(trees) {
        if !WIRE_ENUM_FILES
            .iter()
            .any(|p| file.rel_path == Path::new(p))
        {
            continue;
        }
        for item in &tree.enums {
            if item.is_test || !item.is_pub {
                continue;
            }
            for (variant, line) in &item.variants {
                let qualified = format!("{}::{variant}", item.name);
                if !golden_text.contains(&qualified) && !allowed(&file.lexed.allows, *line) {
                    out.push(Violation {
                        rule: "wire-golden",
                        file: file.rel_path.clone(),
                        line: line + 1,
                        message: format!(
                            "`{qualified}` has no golden round-trip coverage in {GOLDEN_TEST}"
                        ),
                    });
                }
            }
        }
    }
}

/// Directory covered by the engine concurrency-hygiene rule.
pub const ENGINE_DIR: &str = "crates/bgp/src/engine";

/// Tokens banned in the message-passing engine.
const ENGINE_TOKENS: &[(&str, &str)] = &[
    (
        "Ordering::Relaxed",
        "engine counters must use SeqCst (or stronger reasoning, annotated)",
    ),
    (
        "thread::spawn",
        "use std::thread::scope so engine workers cannot leak",
    ),
];

/// Rule 4: engine concurrency hygiene.
pub fn check_engine_hygiene(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        if !file.under(ENGINE_DIR) {
            continue;
        }
        for (idx, line) in file.lexed.code_lines.iter().enumerate() {
            if file.lexed.test_lines[idx] {
                continue;
            }
            for (token, hint) in ENGINE_TOKENS {
                if line.contains(token) && !allowed(&file.lexed.allows, idx) {
                    out.push(Violation {
                        rule: "engine-hygiene",
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!("`{token}` in engine: {hint}"),
                    });
                }
            }
        }
    }
}

/// Vendored crates that are allowed to contain `unsafe`, with the reviewed
/// reason. Currently empty: every stand-in under `vendor/` is std-only
/// safe Rust. A new vendored dependency that genuinely needs `unsafe`
/// must be enumerated here — and the entry goes stale (reported by
/// `audit`) the moment the unsafe code is removed.
pub const VENDOR_UNSAFE_EXCEPTIONS: &[(&str, &str)] = &[];

/// One vendored crate's unsafe inventory, collected by the driver.
#[derive(Debug)]
pub struct VendorCrate {
    /// Directory name under `vendor/`.
    pub name: String,
    /// First `unsafe` occurrence (workspace-relative path, 1-based line),
    /// if any.
    pub first_unsafe: Option<(PathBuf, usize)>,
}

/// Crate-root files that must carry `#![forbid(unsafe_code)]`. The
/// workspace `unsafe_code = "deny"` lint already covers rustc-visible
/// code; the forbid makes the guarantee un-overridable per item.
fn is_first_party_crate_root(path: &Path) -> bool {
    let comps: Vec<&str> = path
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    matches!(
        comps.as_slice(),
        ["src", "lib.rs"] | ["crates", _, "src", "lib.rs"]
    )
}

/// Rule 5: the unsafe audit. First-party crate roots must forbid unsafe
/// code, no first-party line may use `unsafe`, and vendored crates must be
/// unsafe-free unless enumerated in [`VENDOR_UNSAFE_EXCEPTIONS`].
pub fn check_unsafe_audit(
    files: &[SourceFile],
    trees: &[ParsedFile],
    vendor: &[VendorCrate],
    out: &mut Vec<Violation>,
) {
    for (file, tree) in files.iter().zip(trees) {
        if is_first_party_crate_root(&file.rel_path) && !tree.forbids_unsafe {
            out.push(Violation {
                rule: "unsafe-audit",
                file: file.rel_path.clone(),
                line: 1,
                message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
            });
        }
        for (idx, line) in file.lexed.code_lines.iter().enumerate() {
            if file.lexed.test_lines[idx] {
                continue;
            }
            let has_unsafe = line
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| w == "unsafe");
            if has_unsafe && !allowed(&file.lexed.allows, idx) {
                out.push(Violation {
                    rule: "unsafe-audit",
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    message: "`unsafe` in first-party code — the mechanism's guarantees are \
                              proven over safe Rust only"
                        .into(),
                });
            }
        }
    }
    for v in vendor {
        let excepted = VENDOR_UNSAFE_EXCEPTIONS.iter().any(|(n, _)| n == &v.name);
        match (&v.first_unsafe, excepted) {
            (Some((path, line)), false) => out.push(Violation {
                rule: "unsafe-audit",
                file: path.clone(),
                line: *line,
                message: format!(
                    "vendored crate `{}` uses `unsafe` but is not enumerated in \
                     VENDOR_UNSAFE_EXCEPTIONS",
                    v.name
                ),
            }),
            (None, true) => out.push(Violation {
                rule: "unsafe-audit",
                file: PathBuf::from(format!("vendor/{}", v.name)),
                line: 1,
                message: format!(
                    "vendored crate `{}` is enumerated in VENDOR_UNSAFE_EXCEPTIONS but \
                     contains no `unsafe` — remove the stale entry",
                    v.name
                ),
            }),
            _ => {}
        }
    }
}

/// Runs all five rules; `raw_lines[i]` are the unlexed lines of `files[i]`
/// (needed by pub-docs to see doc comments, which the lexer blanks),
/// `trees[i]` is the parsed item tree of `files[i]`, and `vendor` is the
/// vendored-crate unsafe inventory.
pub fn run_all(
    files: &[SourceFile],
    raw_lines: &[Vec<String>],
    trees: &[ParsedFile],
    vendor: &[VendorCrate],
) -> Vec<Violation> {
    let mut out = Vec::new();
    check_no_panic(files, &mut out);
    check_pub_docs(files, raw_lines, &mut out);
    check_wire_golden(files, trees, &mut out);
    check_engine_hygiene(files, &mut out);
    check_unsafe_audit(files, trees, vendor, &mut out);
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Annotations that suppressed nothing this run — reported by `audit` so
/// the allowlist cannot rot. Every collected file is scanned by at least
/// one rule or analysis (determinism and unsafe-audit are workspace-wide),
/// so staleness is checked everywhere. Callers must run both
/// [`run_all`] and [`crate::analysis::run_all`] first so live annotations
/// are marked used.
pub fn stale_allows(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        for allow in &file.lexed.allows {
            if !allow.used.get() {
                out.push(Violation {
                    rule: "stale-allow",
                    file: file.rel_path.clone(),
                    line: allow.line + 1,
                    message: format!(
                        "lint:allow({}) suppresses nothing — remove it",
                        allow.reason
                    ),
                });
            }
            if allow.reason.is_empty() {
                out.push(Violation {
                    rule: "empty-allow",
                    file: file.rel_path.clone(),
                    line: allow.line + 1,
                    message: "lint:allow() requires a reason".into(),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: PathBuf::from(path),
            lexed: lex(src),
        }
    }

    fn trees(files: &[SourceFile]) -> Vec<ParsedFile> {
        files.iter().map(|f| parse(&f.lexed)).collect()
    }

    #[test]
    fn no_panic_flags_unwrap_outside_tests() {
        let files = vec![file(
            "crates/bgp/src/x.rs",
            "fn f() { y.unwrap(); }\n#[cfg(test)]\nmod t {\n fn g() { z.unwrap(); }\n}",
        )];
        let mut out = Vec::new();
        check_no_panic(&files, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn no_panic_respects_allow_on_same_and_previous_line() {
        let files = vec![file(
            "crates/core/src/x.rs",
            "fn f() { y.unwrap(); } // lint:allow(checked above)\n// lint:allow(checked)\nfn g() { z.expect(\"msg\"); }",
        )];
        let mut out = Vec::new();
        check_no_panic(&files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn no_panic_ignores_other_crates() {
        let files = vec![file("crates/netgraph/src/x.rs", "fn f() { y.unwrap(); }")];
        let mut out = Vec::new();
        check_no_panic(&files, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn pub_docs_requires_doc_comment() {
        let src = "/// Documented.\npub fn a() {}\npub fn b() {}\n#[derive(Debug)]\npub struct C;";
        let files = vec![file("crates/lcp/src/x.rs", src)];
        let raws = vec![src.lines().map(String::from).collect::<Vec<_>>()];
        let mut out = Vec::new();
        check_pub_docs(&files, &raws, &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![3, 5], "{out:?}");
    }

    #[test]
    fn pub_docs_sees_doc_above_attributes() {
        let src = "/// Documented.\n#[derive(Debug)]\n#[must_use]\npub struct C;";
        let files = vec![file("crates/lcp/src/x.rs", src)];
        let raws = vec![src.lines().map(String::from).collect::<Vec<_>>()];
        let mut out = Vec::new();
        check_pub_docs(&files, &raws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wire_golden_finds_uncovered_variant() {
        let files = vec![
            file(
                "crates/bgp/src/message.rs",
                "/// E.\npub enum RouteInfo {\n    Reachable { cost: u64 },\n    Withdrawn,\n}",
            ),
            file(
                "crates/bgp/tests/wire_golden.rs",
                "fn t() { let _ = RouteInfo::Reachable { cost: 1 }; }",
            ),
        ];
        let trees = trees(&files);
        let mut out = Vec::new();
        check_wire_golden(&files, &trees, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("RouteInfo::Withdrawn"));
    }

    #[test]
    fn engine_hygiene_flags_relaxed_and_spawn() {
        let files = vec![file(
            "crates/bgp/src/engine/ev.rs",
            "use std::sync::atomic::Ordering;\nfn f() { c.load(Ordering::Relaxed); std::thread::spawn(|| {}); }",
        )];
        let mut out = Vec::new();
        check_engine_hygiene(&files, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn stale_allow_is_reported() {
        let files = vec![file(
            "crates/bgp/src/x.rs",
            "// lint:allow(nothing here needs this)\nfn f() {}",
        )];
        let mut out = Vec::new();
        check_no_panic(&files, &mut out);
        let stale = stale_allows(&files);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "stale-allow");
    }

    #[test]
    fn unsafe_audit_requires_forbid_on_crate_roots() {
        let files = vec![
            file(
                "crates/bgp/src/lib.rs",
                "#![forbid(unsafe_code)]\nfn f() {}",
            ),
            file("crates/core/src/lib.rs", "fn f() {}"),
            file("crates/core/src/other.rs", "fn f() {}"),
        ];
        let trees = trees(&files);
        let mut out = Vec::new();
        check_unsafe_audit(&files, &trees, &[], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, PathBuf::from("crates/core/src/lib.rs"));
    }

    #[test]
    fn unsafe_audit_flags_unsafe_tokens_but_not_words_in_idents() {
        let files = vec![file(
            "crates/bgp/src/x.rs",
            "fn f() { unsafe { g() } }\nfn unsafe_free_name() {}",
        )];
        let trees = trees(&files);
        let mut out = Vec::new();
        check_unsafe_audit(&files, &trees, &[], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn unsafe_audit_vendor_exceptions_are_exact() {
        let vendor = vec![
            VendorCrate {
                name: "sneaky".into(),
                first_unsafe: Some((PathBuf::from("vendor/sneaky/src/lib.rs"), 3)),
            },
            VendorCrate {
                name: "clean".into(),
                first_unsafe: None,
            },
        ];
        let mut out = Vec::new();
        check_unsafe_audit(&[], &[], &vendor, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("sneaky"));
    }
}
