//! The parser-backed analyses behind `cargo xtask analyze`:
//! panic-reachability over the workspace call graph, and the determinism
//! lints guarding the bit-identical-fixpoint contract.
//!
//! See `docs/STATIC_ANALYSIS.md` for the full catalogue and the policy on
//! `// lint:allow(reason)` annotations.

use crate::callgraph::CallGraph;
use crate::parser::ParsedFile;
use crate::rules::{SourceFile, Violation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The engine hot-path entry points the panic-reachability walk starts
/// from, with the file each is expected to live in. A missing entry point
/// (renamed, deleted) is itself a violation: the analysis must never
/// silently go vacuous.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    // The shared stage engine: the handle pass with its worker-pool shards
    // and the send path behind it. `T::send(…)` is a generic call and
    // resolves to no edge, so the two transports' sends are named
    // themselves.
    ("Engine::handle_pass", "crates/bgp/src/engine/kernel.rs"),
    ("sharded_handle", "crates/bgp/src/engine/kernel.rs"),
    ("LockStep::send", "crates/bgp/src/engine/sync.rs"),
    ("Sessions::send", "crates/bgp/src/chaos.rs"),
    // The one stage body around the handle pass, on either transport.
    ("Engine::run_stage", "crates/bgp/src/engine/kernel.rs"),
    // The session layer (faults, establishment, frames, acks, hold
    // timers): the stage body reaches it through `T::before_handle(…)` and
    // `T::after_handle(…)`, generic calls with no edge, so both hooks are
    // named themselves.
    ("Sessions::before_handle", "crates/bgp/src/chaos.rs"),
    ("Sessions::after_handle", "crates/bgp/src/chaos.rs"),
    // The chaos engine's public `step` and run; its `step` shares a name
    // with the lock-step one, so both are entries.
    ("Engine::step", "crates/bgp/src/chaos.rs"),
    ("Engine::run_to_stable", "crates/bgp/src/chaos.rs"),
    // The public parallel protocol runner.
    ("run_sync_parallel", "crates/core/src/protocol.rs"),
    // Node recomputation: the one node's step and its relaxation, shared
    // by every cost model. A generic `P::name(…)` call resolves to no
    // edge, so the one policy function that reads state is named itself.
    ("Node::handle", "crates/bgp/src/node.rs"),
    ("Node::relax", "crates/bgp/src/node.rs"),
    (
        "Margins::charged_by",
        "crates/core/src/neighbor_costs/node.rs",
    ),
];

/// Panic-family tokens that make a function a panic source, with the hint
/// shown on report. Two deliberate absences: `debug_assert*` compiles out
/// of release builds and carries the invariant hooks, and the
/// `assert!` family encodes *intentional* precondition contracts
/// (documented under `# Panics`) — this analysis hunts the unintentional
/// panic paths.
const PANIC_SITE_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "use a typed error instead of unwrap()"),
    (".expect(", "use a typed error instead of expect()"),
    ("panic!(", "hot paths must return errors, not panic"),
    (
        "unreachable!(",
        "encode the impossibility in the type system",
    ),
    ("todo!(", "no unfinished code on hot paths"),
    ("unimplemented!(", "no unfinished code on hot paths"),
];

/// One potential panic site inside a function body.
#[derive(Debug)]
struct PanicSite {
    /// 0-based line index.
    line: usize,
    /// What was matched (token or indexing expression).
    what: String,
    /// The hint shown in the report.
    hint: &'static str,
}

/// Marks a token occurrence that is NOT preceded by an identifier char —
/// so `assert!(` does not match inside `debug_assert!(`. Tokens that start
/// with a non-identifier char (`.unwrap()`) are their own boundary: the
/// receiver before the `.` is expected.
fn token_at_boundary(line: &str, token: &str) -> bool {
    let ident_start = token
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    if !ident_start {
        return line.contains(token);
    }
    let mut from = 0usize;
    while let Some(pos) = line[from..].find(token) {
        let at = from + pos;
        let boundary = at == 0
            || !line.as_bytes()[at - 1].is_ascii_alphanumeric() && line.as_bytes()[at - 1] != b'_';
        if boundary {
            return true;
        }
        from = at + token.len();
    }
    false
}

/// Collects the potential panic sites on one code-only line.
fn line_panic_sites(line: &str, idx: usize, out: &mut Vec<PanicSite>) {
    for (token, hint) in PANIC_SITE_TOKENS {
        if token_at_boundary(line, token) {
            out.push(PanicSite {
                line: idx,
                what: format!("`{}`", token.trim_end_matches('(')),
                hint,
            });
        }
    }
    for expr in unguarded_indexing(line) {
        out.push(PanicSite {
            line: idx,
            what: format!("indexing `{expr}`"),
            hint: "out-of-range indexing panics — guard with get()/len() or annotate the bounds argument",
        });
    }
}

/// Extracts unguarded indexing expressions `recv[index]` from one code-only
/// line: a `[` directly preceded by an identifier char, `]`, or `)` opens
/// an index whose content is not recognized as guarded. Type positions
/// (`[u8; 4]`), array literals (`= [`), and macros (`vec![`) never match
/// because their `[` follows a non-identifier character.
///
/// Guarded contents:
/// - a bare integer literal (`buf[0]`);
/// - anything containing `..` — slice ranges are derived from `len()` in
///   this codebase (`path[1..path.len() - 1]`), as are `gen_range(0..len)`
///   draws;
/// - anything ending in `.index()` — the typed `AsId → usize` projection,
///   whose bound is the graph-size construction invariant (checked by
///   `debug_assert` in debug builds).
fn unguarded_indexing(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'[' || i == 0 {
            i += 1;
            continue;
        }
        let prev = bytes[i - 1];
        let indexes = prev.is_ascii_alphanumeric() || prev == b'_' || prev == b']' || prev == b')';
        if !indexes {
            i += 1;
            continue;
        }
        // Find the matching `]` (same line; a multi-line index is treated
        // as unguarded because its content cannot be inspected here).
        let mut depth = 0i32;
        let mut close = None;
        for (j, &b) in bytes.iter().enumerate().skip(i) {
            match b {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let (content, next) = match close {
            Some(j) => (&line[i + 1..j], j + 1),
            None => (&line[i + 1..], bytes.len()),
        };
        let t = content.trim();
        let literal = !t.is_empty() && t.chars().all(|c| c.is_ascii_digit() || c == '_');
        let ranged = t.contains("..");
        let typed_projection = t.ends_with(".index()");
        if !literal && !ranged && !typed_projection {
            // Reconstruct a short receiver hint for the report.
            let recv_start = line[..i]
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
                .map(|p| p + 1)
                .unwrap_or(0);
            let recv = &line[recv_start..i];
            out.push(format!("{recv}[{t}]"));
        }
        i = next;
    }
    out
}

/// The panic-reachability analysis: walk the call graph from
/// [`ENTRY_POINTS`] and report every unallowlisted potential panic site in
/// any reached function, with the call chain that reaches it.
pub fn check_panic_reachability(files: &[SourceFile], graph: &CallGraph, out: &mut Vec<Violation>) {
    let mut entries = Vec::new();
    for (spec, expected_file) in ENTRY_POINTS {
        let nodes = graph.entry_nodes(spec);
        if nodes.is_empty() {
            out.push(Violation {
                rule: "panic-reachability",
                file: PathBuf::from(expected_file),
                line: 1,
                message: format!(
                    "entry point `{spec}` not found — the analysis would go vacuous; update \
                     analysis::ENTRY_POINTS if the hot path moved"
                ),
            });
        }
        entries.extend(nodes);
    }
    let reached = graph.reach(&entries);
    for &node_idx in reached.keys() {
        let node = &graph.nodes[node_idx];
        let file = &files[node.file];
        let mut sites = Vec::new();
        for line_idx in node.item.body_start..=node.item.body_end {
            let Some(line) = file.lexed.code_lines.get(line_idx) else {
                continue;
            };
            if file
                .lexed
                .test_lines
                .get(line_idx)
                .copied()
                .unwrap_or(false)
            {
                continue;
            }
            line_panic_sites(line, line_idx, &mut sites);
        }
        for site in sites {
            if crate::rules::allowed(&file.lexed.allows, site.line) {
                continue;
            }
            out.push(Violation {
                rule: "panic-reachability",
                file: node.rel_path.clone(),
                line: site.line + 1,
                message: format!(
                    "{} reachable from engine hot path via {}: {}",
                    site.what,
                    graph.chain(&reached, node_idx),
                    site.hint
                ),
            });
        }
    }
}

/// The one file allowed to read wall clocks: the injectable-clock seam.
pub const CLOCK_SEAM: &str = "crates/telemetry/src/clock.rs";

/// Tokens that smuggle nondeterministic input into a run, with hints.
const NONDET_TOKENS: &[(&str, &str)] = &[
    (
        "Instant::now",
        "wall-clock reads are nondeterministic — route them through the telemetry Clock seam",
    ),
    (
        "SystemTime",
        "wall-clock reads are nondeterministic — route them through the telemetry Clock seam",
    ),
    (
        "thread_rng",
        "ambient RNG breaks replay — thread a seeded StdRng through instead",
    ),
];

/// Hash-order tokens: iteration order of std's hashed collections is
/// randomized per process, so any use risks leaking nondeterministic order
/// into emissions, prices, traces, or merge order.
const HASH_TOKENS: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order is nondeterministic — use BTreeMap or sort before iterating",
    ),
    (
        "HashSet",
        "iteration order is nondeterministic — use BTreeSet or sort before iterating",
    ),
];

/// True for files the determinism lints scan: first-party library/binary
/// sources (not integration tests, benches, or examples, which may
/// measure wall time or exercise nondeterminism on purpose).
fn determinism_scanned(file: &SourceFile) -> bool {
    let under_src = file.rel_path.starts_with("crates") || file.rel_path.starts_with("src");
    let excluded = file.rel_path.components().any(|c| {
        c.as_os_str() == "tests" || c.as_os_str() == "benches" || c.as_os_str() == "examples"
    });
    under_src && !excluded
}

/// The determinism lints: ban hashed-collection order leaks and ambient
/// wall-clock / RNG reads outside the clock seam.
pub fn check_determinism(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        if !determinism_scanned(file) {
            continue;
        }
        let is_clock_seam = file.rel_path == Path::new(CLOCK_SEAM);
        for (idx, line) in file.lexed.code_lines.iter().enumerate() {
            if file.lexed.test_lines[idx] {
                continue;
            }
            for (token, hint) in HASH_TOKENS {
                if token_at_boundary(line, token) && !crate::rules::allowed(&file.lexed.allows, idx)
                {
                    out.push(Violation {
                        rule: "determinism",
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!("`{token}`: {hint}"),
                    });
                }
            }
            if is_clock_seam {
                continue;
            }
            for (token, hint) in NONDET_TOKENS {
                if line.contains(token) && !crate::rules::allowed(&file.lexed.allows, idx) {
                    out.push(Violation {
                        rule: "determinism",
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!("`{token}`: {hint}"),
                    });
                }
            }
        }
    }
}

/// Runs both analyses. `trees[i]` is the parse of `files[i]`; the call
/// graph is built and resolved here.
pub fn run_all(files: &[SourceFile], trees: &[ParsedFile]) -> Vec<Violation> {
    let graph = build_graph(files, trees);
    let mut out = Vec::new();
    check_panic_reachability(files, &graph, &mut out);
    check_determinism(files, &mut out);
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Crates excluded from the call graph: they depend *on* the engine
/// crates, so the engine can never execute their code — but the
/// over-approximating method resolution would fabricate reverse edges
/// through common method names (`build`, `record`, …).
const DOWNSTREAM_CRATES: &[&str] = &["crates/bench", "crates/xtask"];

/// Builds and resolves the workspace call graph from lexed + parsed files.
/// Test/bench/example files and `DOWNSTREAM_CRATES` contribute no nodes.
pub fn build_graph(files: &[SourceFile], trees: &[ParsedFile]) -> CallGraph {
    let paths: Vec<PathBuf> = files.iter().map(|f| f.rel_path.clone()).collect();
    let is_test_file: Vec<bool> = files
        .iter()
        .map(|f| {
            f.rel_path.components().any(|c| {
                c.as_os_str() == "tests"
                    || c.as_os_str() == "benches"
                    || c.as_os_str() == "examples"
            }) || DOWNSTREAM_CRATES
                .iter()
                .any(|d| f.rel_path.starts_with(Path::new(d)))
        })
        .collect();
    let mut graph = CallGraph::build(&paths, trees, &is_test_file);
    let code: Vec<&[String]> = files
        .iter()
        .map(|f| f.lexed.code_lines.as_slice())
        .collect();
    graph.resolve(&code);
    graph
}

/// Per-entry-point reachability statistics for the `analyze` report.
pub fn reachability_stats(graph: &CallGraph) -> Vec<(String, usize)> {
    let mut stats = Vec::new();
    for (spec, _) in ENTRY_POINTS {
        let entries = graph.entry_nodes(spec);
        let reached = graph.reach(&entries);
        stats.push((spec.to_string(), reached.len()));
    }
    let all: Vec<usize> = ENTRY_POINTS
        .iter()
        .flat_map(|(spec, _)| graph.entry_nodes(spec))
        .collect();
    stats.push(("(union)".to_string(), graph.reach(&all).len()));
    stats
}

/// A map `qualified name → (file, sig line)` of every graph node — used by
/// the self-test fixtures to assert the parser sees what it should.
pub fn fn_index(graph: &CallGraph) -> BTreeMap<String, (PathBuf, usize)> {
    graph
        .nodes
        .iter()
        .map(|n| {
            (
                n.item.qualified(),
                (n.rel_path.clone(), n.item.sig_line + 1),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn source(path: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: PathBuf::from(path),
            lexed: lex(src),
        }
    }

    fn analyze(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| source(p, s)).collect();
        let trees: Vec<ParsedFile> = files.iter().map(|f| parse(&f.lexed)).collect();
        run_all(&files, &trees)
    }

    /// A minimal workspace where every entry point exists and is clean, so
    /// tests can add one dirty file without entry-point noise.
    fn entry_stubs() -> Vec<(&'static str, String)> {
        ENTRY_POINTS
            .iter()
            .map(|(spec, file)| {
                let src = match spec.rsplit_once("::") {
                    Some((owner, name)) => {
                        format!("impl {owner} {{\n    fn {name}(&mut self) {{ let _ = 1; }}\n}}")
                    }
                    None => format!("fn {spec}() {{ let _ = 1; }}"),
                };
                (*file, src)
            })
            .collect()
    }

    fn with_stubs(extra: &[(&str, &str)]) -> Vec<Violation> {
        let stubs = entry_stubs();
        let mut merged: BTreeMap<&str, String> = BTreeMap::new();
        for (path, src) in &stubs {
            merged
                .entry(path)
                .and_modify(|s| {
                    s.push('\n');
                    s.push_str(src);
                })
                .or_insert_with(|| src.clone());
        }
        for (path, src) in extra {
            merged
                .entry(path)
                .and_modify(|s| {
                    s.push('\n');
                    s.push_str(src);
                })
                .or_insert_with(|| (*src).to_string());
        }
        let srcs: Vec<(&str, &str)> = merged.iter().map(|(p, s)| (*p, s.as_str())).collect();
        analyze(&srcs)
    }

    #[test]
    fn clean_stub_workspace_has_no_findings() {
        let out = with_stubs(&[]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_entry_point_is_a_violation() {
        let out = analyze(&[("crates/bgp/src/engine/sync.rs", "fn nothing() {}")]);
        assert!(
            out.iter()
                .any(|v| v.rule == "panic-reachability" && v.message.contains("entry point")),
            "{out:?}"
        );
    }

    #[test]
    fn unwrap_reachable_through_a_helper_chain_is_reported_with_path() {
        let out = with_stubs(&[(
            "crates/bgp/src/engine/kernel.rs",
            "impl Engine {\n    fn run_stage(&mut self) { helper(); }\n}\nfn helper() { deep(); }\nfn deep() { x.unwrap(); }",
        )]);
        let hit = out
            .iter()
            .find(|v| v.message.contains("`.unwrap()`"))
            .expect("unwrap must be reported");
        assert!(
            hit.message.contains("Engine::run_stage → helper → deep"),
            "{}",
            hit.message
        );
    }

    #[test]
    fn unreachable_panics_are_not_reported() {
        let out = with_stubs(&[(
            "crates/bgp/src/engine/sync.rs",
            "fn never_called() { x.unwrap(); }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allowlisted_sites_are_suppressed() {
        let out = with_stubs(&[(
            "crates/bgp/src/engine/kernel.rs",
            "impl Engine {\n    fn run_stage(&mut self) { x.unwrap(); } // lint:allow(test of the allowlist)\n}",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unguarded_indexing_is_reported_but_guarded_forms_are_not() {
        let out = with_stubs(&[(
            "crates/bgp/src/engine/kernel.rs",
            "impl Engine {\n    fn run_stage(&mut self, i: usize) { let _ = self.inboxes[i]; \
             let _ = FIRST[0]; let _ = self.nodes[id.index()]; let _ = path[1..path.len() - 1]; }\n}",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("indexing `self.inboxes[i]`"));
    }

    #[test]
    fn asserts_are_precondition_guards_not_panic_sites() {
        let out = with_stubs(&[(
            "crates/bgp/src/engine/kernel.rs",
            "impl Engine {\n    fn run_stage(&mut self) { debug_assert!(ok); assert!(ok); assert_eq!(a, b); }\n}",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn downstream_crates_contribute_no_graph_nodes() {
        // A bench fn sharing a method name with an engine call must not
        // pull bench code into reachability.
        let out = with_stubs(&[
            (
                "crates/bgp/src/engine/kernel.rs",
                "impl Engine {\n    fn run_stage(&mut self) { self.b.build(); }\n}",
            ),
            (
                "crates/bench/src/families.rs",
                "impl Family {\n    fn build(&self) { x.unwrap(); }\n}",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hashmap_and_wall_clock_are_determinism_violations() {
        let out = with_stubs(&[(
            "crates/core/src/extra.rs",
            "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }",
        )]);
        let rules: Vec<&str> = out.iter().map(|v| v.rule).collect();
        assert_eq!(rules, ["determinism", "determinism"], "{out:?}");
    }

    #[test]
    fn clock_seam_and_test_dirs_are_exempt() {
        let out = with_stubs(&[
            (
                "crates/telemetry/src/clock.rs",
                "fn now() { let t = Instant::now(); }",
            ),
            (
                "crates/bgp/tests/some_test.rs",
                "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }
}
