//! A small item-tree parser layered on the lexer.
//!
//! The PR-1 lint rules matched tokens line by line; the call-graph analyses
//! (panic-reachability, determinism) need to know *which function* a token
//! sits in and *which functions that function calls*. This module parses
//! the lexer's code-only lines into a per-file item tree: functions with
//! their impl/trait owner and body span, and enums with their variants.
//!
//! It is deliberately not a full Rust grammar. Strings/comments are already
//! blanked by the lexer, so brace/paren counting is exact; items are
//! recognized by their introducing keyword after visibility/qualifier
//! prefixes. Constructs the workspace does not use (macros defining items,
//! nested functions outside `#[cfg(test)]`, `impl Trait for &T`) degrade to
//! attributing lines to the enclosing item — safe for the analyses, which
//! only ever *over*-approximate reachability.

use crate::lexer::LexedFile;

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The bare function name (`run_stage`).
    pub name: String,
    /// The impl/trait self-type context, if any (`SyncEngine`), giving the
    /// qualified name `SyncEngine::run_stage`.
    pub owner: Option<String>,
    /// Inline-module path within the file (e.g. `["tests"]`).
    pub modules: Vec<String>,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based line range covering the body (first line = the one with the
    /// opening brace, last = the one with the closing brace).
    pub body_start: usize,
    /// Inclusive 0-based last body line.
    pub body_end: usize,
    /// True when the item is inside `#[cfg(test)]` (per the lexer's marks).
    pub is_test: bool,
}

impl FnItem {
    /// `Owner::name` when the fn has an owner, else just `name`.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed enum with its variant names.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// The enum's name.
    pub name: String,
    /// Whether it is `pub` (rules only care about public vocabularies).
    pub is_pub: bool,
    /// `(variant name, 0-based line)` pairs, top-level variants only.
    pub variants: Vec<(String, usize)>,
    /// True when the enum is inside `#[cfg(test)]`.
    pub is_test: bool,
}

/// The item tree of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every function item, in source order.
    pub fns: Vec<FnItem>,
    /// Every enum item, in source order.
    pub enums: Vec<EnumItem>,
    /// True when the file carries an inner `#![forbid(unsafe_code)]`.
    pub forbids_unsafe: bool,
}

/// What kind of item a pending (not-yet-braced) introduction opens.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PendingKind {
    Fn,
    ImplOrTrait,
    Enum,
    Mod,
    /// struct/union: consumes its braces without opening a named scope.
    Opaque,
}

/// An item introduction whose opening brace has not been seen yet
/// (signatures and impl headers may span lines).
#[derive(Debug)]
struct Pending {
    kind: PendingKind,
    /// Accumulated header text (intro line onward, code-only).
    text: String,
    sig_line: usize,
    /// Paren/bracket/angle nesting inside the header; the `{` that opens
    /// the item body is the first one seen at nesting level 0.
    paren_depth: i32,
}

/// One open scope on the stack.
#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    /// Brace depth *before* the scope's opening brace; the scope closes
    /// when depth returns to this value.
    entry_depth: i32,
}

#[derive(Debug)]
enum ScopeKind {
    Mod(String),
    ImplOrTrait(String),
    /// Index into `ParsedFile::fns` to backfill `body_end`.
    Fn(usize),
    /// Index into `ParsedFile::enums` to collect variants into.
    Enum(usize),
    Opaque,
}

/// Parses one lexed file into its item tree.
pub fn parse(lexed: &LexedFile) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut depth = 0i32;

    for (idx, line) in lexed.code_lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#![forbid(unsafe_code)]") {
            out.forbids_unsafe = true;
        }
        let in_fn = matches!(
            scopes.last(),
            Some(Scope {
                kind: ScopeKind::Fn(_),
                ..
            })
        );
        if pending.is_none() && !in_fn && !trimmed.starts_with('#') {
            if let Some(kind) = intro_kind(trimmed) {
                pending = Some(Pending {
                    kind,
                    text: String::new(),
                    sig_line: idx,
                    paren_depth: 0,
                });
            }
        }
        if let Some(p) = pending.as_mut() {
            if !p.text.is_empty() {
                p.text.push(' ');
            }
            p.text.push_str(trimmed.trim_end());
        }

        // Character scan: header nesting, brace depth, scope transitions.
        let depth_at_line_start = depth;
        for ch in line.chars() {
            match ch {
                '(' | '[' => {
                    if let Some(p) = pending.as_mut() {
                        p.paren_depth += 1;
                    }
                }
                ')' | ']' => {
                    if let Some(p) = pending.as_mut() {
                        p.paren_depth -= 1;
                    }
                }
                // Header ended without a body: trait fn declaration,
                // `mod x;`, tuple struct, etc.
                ';' if pending.as_ref().is_some_and(|p| p.paren_depth <= 0) => {
                    pending = None;
                }
                '{' => {
                    if let Some(p) = pending.take_if(|p| p.paren_depth <= 0) {
                        let kind = open_scope(&p, idx, &scopes, lexed, &mut out);
                        scopes.push(Scope {
                            kind,
                            entry_depth: depth,
                        });
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    while scopes.last().is_some_and(|s| s.entry_depth == depth) {
                        let closed = scopes.pop();
                        if let Some(Scope {
                            kind: ScopeKind::Fn(fn_idx),
                            ..
                        }) = closed
                        {
                            out.fns[fn_idx].body_end = idx;
                        }
                    }
                }
                _ => {}
            }
        }

        // Enum variants: leading uppercase identifier at variant level. The
        // depth *at line start* is what matters — a braced payload opening
        // on the variant's own line (`Reachable {`) has already bumped
        // `depth` by the time the scan above finishes.
        if let Some(Scope {
            kind: ScopeKind::Enum(enum_idx),
            entry_depth,
        }) = scopes.last()
        {
            if depth_at_line_start == entry_depth + 1 && !trimmed.starts_with('#') {
                let ident: String = trimmed
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !ident.is_empty()
                    && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    && !trimmed.starts_with("pub ")
                {
                    out.enums[*enum_idx].variants.push((ident, idx));
                }
            }
        }
    }
    // Unclosed fn at EOF (truncated file): close at the last line.
    for f in &mut out.fns {
        if f.body_end < f.body_start {
            f.body_end = lexed.code_lines.len().saturating_sub(1);
        }
    }
    out
}

/// Converts a finalized pending header into a scope, registering the item.
fn open_scope(
    p: &Pending,
    brace_line: usize,
    scopes: &[Scope],
    lexed: &LexedFile,
    out: &mut ParsedFile,
) -> ScopeKind {
    let stripped = strip_qualifiers(&p.text);
    match p.kind {
        PendingKind::Fn => {
            let name = ident_after(stripped, "fn ");
            let owner = scopes.iter().rev().find_map(|s| match &s.kind {
                ScopeKind::ImplOrTrait(t) => Some(t.clone()),
                _ => None,
            });
            let modules: Vec<String> = scopes
                .iter()
                .filter_map(|s| match &s.kind {
                    ScopeKind::Mod(m) => Some(m.clone()),
                    _ => None,
                })
                .collect();
            let is_test = lexed.test_lines.get(p.sig_line).copied().unwrap_or(false)
                || modules.iter().any(|m| m == "tests");
            out.fns.push(FnItem {
                name,
                owner,
                modules,
                sig_line: p.sig_line,
                body_start: brace_line,
                body_end: 0,
                is_test,
            });
            ScopeKind::Fn(out.fns.len() - 1)
        }
        PendingKind::ImplOrTrait => {
            let name = if stripped.starts_with("trait ") {
                ident_after(stripped, "trait ")
            } else {
                impl_target(stripped)
            };
            ScopeKind::ImplOrTrait(name)
        }
        PendingKind::Enum => {
            let name = ident_after(stripped, "enum ");
            let is_test = lexed.test_lines.get(p.sig_line).copied().unwrap_or(false);
            out.enums.push(EnumItem {
                name,
                is_pub: p.text.trim_start().starts_with("pub"),
                variants: Vec::new(),
                is_test,
            });
            ScopeKind::Enum(out.enums.len() - 1)
        }
        PendingKind::Mod => ScopeKind::Mod(ident_after(stripped, "mod ")),
        PendingKind::Opaque => ScopeKind::Opaque,
    }
}

/// Strips visibility and fn-qualifier prefixes (`pub`, `pub(crate)`,
/// `const`, `async`, `unsafe`, `extern "C"`, `default`) from an item header.
fn strip_qualifiers(text: &str) -> &str {
    let mut rest = text.trim_start();
    loop {
        if let Some(after) = rest.strip_prefix("pub") {
            let after = after.trim_start();
            if let Some(inner) = after.strip_prefix('(') {
                let close = inner.find(')').map_or(inner.len(), |at| at + 1);
                rest = inner[close..].trim_start();
            } else {
                rest = after;
            }
            continue;
        }
        let mut advanced = false;
        for q in ["const ", "async ", "unsafe ", "default ", "extern "] {
            if let Some(after) = rest.strip_prefix(q) {
                rest = after.trim_start();
                advanced = true;
            }
        }
        if !advanced {
            return rest;
        }
    }
}

/// The identifier following `prefix` in `text` (empty if absent).
fn ident_after(text: &str, prefix: &str) -> String {
    text.strip_prefix(prefix)
        .map(|rest| {
            rest.trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect()
        })
        .unwrap_or_default()
}

/// Extracts the self-type name from an `impl` header: the last path segment
/// of the type after `for` (trait impls) or directly after the generics
/// (inherent impls). `impl<N: ProtocolNode> SyncEngine<N>` → `SyncEngine`;
/// `impl fmt::Display for RunReport` → `RunReport`.
fn impl_target(text: &str) -> String {
    let rest = text.strip_prefix("impl").unwrap_or(text);
    // Skip the generic parameter list, tracking angle-bracket nesting.
    let mut chars = rest.char_indices().peekable();
    let mut angle = 0i32;
    let mut start = 0usize;
    for (i, ch) in chars.by_ref() {
        match ch {
            '<' => angle += 1,
            '>' => angle -= 1,
            _ if angle == 0 => {
                start = i;
                break;
            }
            _ => {}
        }
    }
    let mut tail = rest[start..].trim();
    // Trait impl: the self type follows ` for ` at angle level 0.
    let mut angle = 0i32;
    let bytes = tail.as_bytes();
    for i in 0..bytes.len() {
        match bytes[i] {
            b'<' => angle += 1,
            b'>' => angle -= 1,
            b'f' if angle == 0
                && tail[i..].starts_with("for ")
                && i > 0
                && bytes[i - 1] == b' ' =>
            {
                tail = tail[i + 4..].trim_start();
                break;
            }
            _ => {}
        }
    }
    // Cut the type expression at its generics / where clause / brace.
    let mut end = tail.len();
    for (i, ch) in tail.char_indices() {
        if ch == '<' || ch == '{' {
            end = i;
            break;
        }
        if tail[i..].starts_with(" where") || tail[i..].starts_with(" {") {
            end = i;
            break;
        }
    }
    let ty = tail[..end].trim().trim_start_matches('&');
    ty.rsplit("::")
        .next()
        .unwrap_or(ty)
        .trim()
        .trim_start_matches("dyn ")
        .chars()
        .filter(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Classifies an item-introduction line, if it is one.
fn intro_kind(trimmed: &str) -> Option<PendingKind> {
    let stripped = strip_qualifiers(trimmed);
    if stripped.starts_with("fn ") {
        Some(PendingKind::Fn)
    } else if stripped.starts_with("impl ")
        || stripped.starts_with("impl<")
        || stripped.starts_with("trait ")
    {
        Some(PendingKind::ImplOrTrait)
    } else if stripped.starts_with("enum ") {
        Some(PendingKind::Enum)
    } else if stripped.starts_with("mod ") {
        Some(PendingKind::Mod)
    } else if stripped.starts_with("struct ") || stripped.starts_with("union ") {
        Some(PendingKind::Opaque)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_and_method_fns_are_parsed_with_owners() {
        let src = "\
pub fn free(x: u32) -> u32 { x }
impl<N: ProtocolNode> SyncEngine<N> {
    fn run_stage(
        &mut self,
        stage: usize,
    ) -> usize {
        stage
    }
}
impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Ok(())
    }
}";
        let tree = parse_src(src);
        let names: Vec<String> = tree.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(
            names,
            ["free", "SyncEngine::run_stage", "RunReport::fmt"],
            "{tree:?}"
        );
        let run_stage = &tree.fns[1];
        assert_eq!(run_stage.sig_line, 2);
        assert_eq!(run_stage.body_start, 5);
        assert_eq!(run_stage.body_end, 7);
    }

    #[test]
    fn restricted_visibility_fns_are_parsed() {
        let src = "\
impl Instruments {
    pub(crate) fn enter(&mut self) {}
    pub(in crate::engine) const fn exit(&self) {}
}
pub(super) fn free() {}";
        let names: Vec<String> = parse_src(src).fns.iter().map(FnItem::qualified).collect();
        assert_eq!(names, ["Instruments::enter", "Instruments::exit", "free"]);
    }

    #[test]
    fn trait_decls_without_bodies_are_skipped_but_defaults_parse() {
        let src = "\
pub trait ProtocolNode {
    fn id(&self) -> AsId;
    fn start(&mut self) -> Option<Update> {
        None
    }
}";
        let tree = parse_src(src);
        let names: Vec<String> = tree.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(names, ["ProtocolNode::start"], "{tree:?}");
    }

    #[test]
    fn cfg_test_and_mod_tests_fns_are_marked() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}";
        let tree = parse_src(src);
        assert!(!tree.fns[0].is_test);
        assert!(tree.fns[1].is_test);
        assert_eq!(tree.fns[1].modules, ["tests"]);
    }

    #[test]
    fn enums_collect_variants_not_fields() {
        let src = "\
pub enum RouteInfo {
    Reachable {
        path: Vec<AsId>,
        path_cost: Cost,
    },
    Withdrawn,
}";
        let tree = parse_src(src);
        assert_eq!(tree.enums.len(), 1);
        let vars: Vec<&str> = tree.enums[0]
            .variants
            .iter()
            .map(|(v, _)| v.as_str())
            .collect();
        assert_eq!(vars, ["Reachable", "Withdrawn"]);
        assert!(tree.enums[0].is_pub);
    }

    #[test]
    fn forbid_unsafe_is_detected() {
        assert!(parse_src("#![forbid(unsafe_code)]\nfn f() {}").forbids_unsafe);
        assert!(!parse_src("fn f() {}").forbids_unsafe);
    }

    #[test]
    fn one_line_fns_close_on_their_own_line() {
        let src =
            "impl AsId {\n    pub fn index(self) -> usize { self.0 as usize }\n}\nfn after() {}";
        let tree = parse_src(src);
        assert_eq!(tree.fns[0].qualified(), "AsId::index");
        assert_eq!(tree.fns[0].body_end, 1);
        assert_eq!(tree.fns[1].qualified(), "after");
    }

    #[test]
    fn impl_headers_with_where_clauses_resolve_the_self_type() {
        let src = "impl<T> Clock for ManualClock\nwhere\n    T: Send,\n{\n    fn now_nanos(&self) -> u64 { 0 }\n}";
        let tree = parse_src(src);
        assert_eq!(tree.fns[0].qualified(), "ManualClock::now_nanos");
    }
}
