//! Lint self-test: every rule and analysis must fire on the `bad` fixture
//! corpus and stay silent on the `good` one.
//!
//! The fixtures under `tests/fixtures/{good,bad}/` are miniature workspace
//! trees mirroring the real layout (so path-scoped rules see the paths
//! they key on: `crates/bgp/src/engine/sync.rs`, the wire-enum files, the
//! clock seam, …). They are loaded through the same lex → parse → rules →
//! analysis pipeline the `cargo xtask lint`/`analyze` driver runs; the
//! driver's source walk skips directories named `fixtures`, so these trees
//! are invisible to the real lint wall and only exist to prove it works.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::parser::ParsedFile;
use xtask::rules::{self, SourceFile, Violation};
use xtask::{analysis, lexer, parser};

/// One loaded fixture corpus, aligned the way `rules::run_all` expects.
struct Corpus {
    files: Vec<SourceFile>,
    raws: Vec<Vec<String>>,
    trees: Vec<ParsedFile>,
}

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn walk(dir: &Path, root: &Path, files: &mut Vec<SourceFile>, raws: &mut Vec<Vec<String>>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("fixture directory")
        .map(|e| e.expect("fixture entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, root, files, raws);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = fs::read_to_string(&path).expect("fixture source");
            files.push(SourceFile {
                rel_path: path
                    .strip_prefix(root)
                    .expect("fixture under root")
                    .to_path_buf(),
                lexed: lexer::lex(&source),
            });
            raws.push(source.lines().map(str::to_string).collect());
        }
    }
}

fn load(name: &str) -> Corpus {
    let root = fixture_root(name);
    let mut files = Vec::new();
    let mut raws = Vec::new();
    walk(&root, &root, &mut files, &mut raws);
    assert!(!files.is_empty(), "fixture corpus `{name}` is empty");
    let trees: Vec<ParsedFile> = files.iter().map(|f| parser::parse(&f.lexed)).collect();
    Corpus { files, raws, trees }
}

/// The full wall, in driver order: rules, then analyses, then the stale
/// sweep (which must run last so live allows are already marked used).
fn all_violations(corpus: &Corpus, vendor: &[rules::VendorCrate]) -> Vec<Violation> {
    let mut out = rules::run_all(&corpus.files, &corpus.raws, &corpus.trees, vendor);
    out.extend(analysis::run_all(&corpus.files, &corpus.trees));
    out.extend(rules::stale_allows(&corpus.files));
    out
}

fn fires_at(violations: &[Violation], rule: &str, path_suffix: &str) -> bool {
    violations
        .iter()
        .any(|v| v.rule == rule && v.file.to_string_lossy().ends_with(path_suffix))
}

#[test]
fn good_corpus_is_silent() {
    let corpus = load("good");
    let violations = all_violations(&corpus, &[]);
    assert!(
        violations.is_empty(),
        "good fixture corpus must be clean, got:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn good_corpus_exercises_the_allowlist() {
    let corpus = load("good");
    let _ = all_violations(&corpus, &[]);
    let allows: Vec<_> = corpus
        .files
        .iter()
        .flat_map(|f| f.lexed.allows.iter())
        .collect();
    assert!(
        !allows.is_empty(),
        "good corpus must contain at least one allow annotation so the \
         suppression path is exercised"
    );
    assert!(
        allows.iter().all(|a| a.used.get()),
        "every allow in the good corpus must suppress something (else the \
         stale sweep would have flagged it)"
    );
}

#[test]
fn bad_corpus_trips_every_rule_and_analysis() {
    let corpus = load("bad");
    let violations = all_violations(&corpus, &[]);
    let expected = [
        "no-panic",
        "pub-docs",
        "wire-golden",
        "engine-hygiene",
        "unsafe-audit",
        "panic-reachability",
        "determinism",
        "stale-allow",
    ];
    let observed: std::collections::BTreeSet<&str> = violations.iter().map(|v| v.rule).collect();
    let expected_set: std::collections::BTreeSet<&str> = expected.into_iter().collect();
    assert_eq!(
        observed,
        expected_set,
        "bad corpus must trip exactly the full rule inventory; violations:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn bad_corpus_fires_at_the_planted_sites() {
    let corpus = load("bad");
    let violations = all_violations(&corpus, &[]);
    let planted = [
        // (rule, file the violation was planted in)
        ("no-panic", "crates/bgp/src/engine/sync.rs"), // handle.join().unwrap()
        ("no-panic", "crates/bgp/src/chaos.rs"),       // panic! in tick_parity
        ("pub-docs", "crates/bgp/src/node.rs"),        // undocumented_helper
        ("wire-golden", "crates/bgp/src/message.rs"),  // Message::Bogus uncovered
        ("engine-hygiene", "crates/bgp/src/engine/sync.rs"), // thread::spawn + Relaxed
        ("unsafe-audit", "crates/bgp/src/lib.rs"),     // missing #![forbid(unsafe_code)]
        ("unsafe-audit", "crates/bgp/src/engine/sync.rs"), // unsafe block
        ("panic-reachability", "crates/bgp/src/engine/sync.rs"), // unwrap in LockStep::send
        ("panic-reachability", "crates/bgp/src/chaos.rs"), // step -> tick_parity -> panic!
        ("panic-reachability", "crates/bgp/src/chaos.rs"), // Sessions::send -> pop_head -> unwrap
        ("panic-reachability", "crates/core/src/protocol.rs"), // nodes[i + 1] unguarded
        ("determinism", "crates/core/src/protocol.rs"), // HashMap + Instant::now
        ("determinism", "crates/core/src/pricing_node.rs"), // thread_rng
        ("stale-allow", "crates/bgp/src/node.rs"),     // allow above a clean const
    ];
    for (rule, file) in planted {
        assert!(
            fires_at(&violations, rule, file),
            "expected `{rule}` to fire in {file}; violations:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn panic_reachability_reports_the_call_chain() {
    let corpus = load("bad");
    let violations = all_violations(&corpus, &[]);
    let chained = violations
        .iter()
        .find(|v| v.rule == "panic-reachability" && v.message.contains("Engine::step"));
    let chained = chained.unwrap_or_else(|| {
        panic!(
            "expected the chaos panic to be reported with its call chain; got:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        )
    });
    assert!(
        chained.message.contains("tick_parity"),
        "chain must name the intermediate helper: {}",
        chained.message
    );
    // The transport's send is an entry point of its own.
    let planted = |needles: &[&str]| {
        violations.iter().any(|v| {
            v.rule == "panic-reachability"
                && v.file.ends_with("crates/bgp/src/chaos.rs")
                && needles.iter().all(|needle| v.message.contains(needle))
        })
    };
    assert!(
        planted(&["Sessions::send", "pop_head"]),
        "expected Sessions::send -> pop_head -> unwrap; got:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The good corpus with `node.rs` re-lexed from `source` (or dropped, for
/// `None`), and every violation the full wall then reports.
fn with_node_source(source: Option<&str>) -> Vec<Violation> {
    let mut corpus = load("good");
    let node_idx = corpus
        .files
        .iter()
        .position(|f| f.rel_path.ends_with("bgp/src/node.rs"))
        .expect("good corpus has node.rs");
    match source {
        Some(source) => {
            corpus.files[node_idx].lexed = lexer::lex(source);
            corpus.raws[node_idx] = source.lines().map(str::to_string).collect();
            corpus.trees[node_idx] = parser::parse(&corpus.files[node_idx].lexed);
        }
        None => {
            corpus.files.remove(node_idx);
            corpus.raws.remove(node_idx);
            corpus.trees.remove(node_idx);
        }
    }
    all_violations(&corpus, &[])
}

fn assert_reported(violations: &[Violation], rule: &str, needle: &str) {
    assert!(
        violations
            .iter()
            .any(|v| v.rule == rule && v.message.contains(needle)),
        "expected a `{rule}` violation naming `{needle}`, got:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn missing_hot_path_file_is_reported_not_silently_vacuous() {
    // Delete the file that defines `Node::handle`: the reachability walk
    // must complain instead of quietly shrinking its coverage.
    let violations = with_node_source(None);
    assert_reported(
        &violations,
        "panic-reachability",
        "entry point `Node::handle`",
    );
}

#[test]
fn stale_hot_path_name_is_reported_not_silently_vacuous() {
    // Rename the relaxation and leave the entry list alone — exactly what a
    // refactor does: the stale name must fail the analysis, naming it.
    let untouched = fs::read_to_string(fixture_root("good").join("crates/bgp/src/node.rs"))
        .expect("fixture source");
    let violations = with_node_source(Some(&untouched.replace("relax(", "refresh(")));
    assert_reported(
        &violations,
        "panic-reachability",
        "entry point `Node::relax`",
    );
    // ...and it is the rename, not the re-lexing, that trips it.
    assert!(with_node_source(Some(&untouched)).is_empty());
}

#[test]
fn unenumerated_vendored_unsafe_is_flagged() {
    let corpus = load("good");
    let vendor = [rules::VendorCrate {
        name: "fake".into(),
        first_unsafe: Some((PathBuf::from("vendor/fake/src/lib.rs"), 3)),
    }];
    let violations = all_violations(&corpus, &vendor);
    assert!(
        violations.iter().any(|v| {
            v.rule == "unsafe-audit" && v.message.contains("VENDOR_UNSAFE_EXCEPTIONS")
        }),
        "vendored unsafe outside the exception list must be flagged"
    );
    // And an unsafe-free vendor inventory keeps the good corpus clean.
    let clean = all_violations(
        &corpus,
        &[rules::VendorCrate {
            name: "fake".into(),
            first_unsafe: None,
        }],
    );
    assert!(
        clean.is_empty(),
        "unsafe-free vendor crates are not findings"
    );
}
