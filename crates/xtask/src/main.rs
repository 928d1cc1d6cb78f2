//! Workspace static-analysis driver (`cargo xtask …`).
//!
//! Std-only by design: the build environment has no registry access, so the
//! lint engine carries its own minimal lexer instead of depending on `syn`.
//!
//! Subcommands:
//! - `lint`  — run the six protocol lint rules (see `xtask::rules`);
//!   exit 1 on any violation outside the `// lint:allow(reason)` allowlist.
//! - `analyze` — the parser-backed analyses (see `xtask::analysis`): build
//!   the workspace call graph, walk panic-reachability from the engine
//!   hot-path entry points, and run the determinism lints; prints
//!   per-entry-point reachability statistics.
//! - `audit` — lint allowlist hygiene (stale / reason-less annotations)
//!   and the invariant-hook wiring. The hooks are `debug_assert!`s, so
//!   every debug test run executes them.
//! - `obs`   — the observability pipeline: run the `obs_smoke` fixture
//!   into the bundle `target/obs/smoke/` and the traced E3 sweep into
//!   `target/obs/e3/` (`--obs-out`), decode every trace line as a
//!   `TraceEvent`, check that the smoke trace carries exactly the two
//!   seeded health verdicts and that the smoke bundle's metrics and
//!   profile files parse (counters non-zero, schema tag present, collapsed
//!   stacks non-empty), print the per-stage convergence summary, and
//!   validate the causal provenance DAG of every E3 run segment. See
//!   `docs/OBSERVABILITY.md`.
//! - `bench` / `chaos` — the two determinism gates: run E14 (serial vs
//!   parallel, asserted bit-identical) or E19 (every run asserted to
//!   self-stabilize to the fault-free fixpoint) and validate the emitted
//!   JSON against the checked-in schema. `--smoke` runs small sizes into
//!   `target/bench/` and also validates the committed `BENCH_scale.json` /
//!   `BENCH_chaos.json`; `--compare` regenerates the full trajectory into
//!   `target/bench/` and requires it to equal the committed baseline line
//!   for line. See `docs/PERFORMANCE.md` and `docs/ROBUSTNESS.md`.
//! - `ci`    — the full offline-tolerant pipeline: fmt check, lint,
//!   analyze, audit, clippy wall, rustdoc with `-D warnings`, workspace
//!   tests, `perf/`'s tests
//!   (`--locked`), obs, bench and chaos `--smoke --compare`, the e20
//!   adversary smoke and the microbench smokes. Steps
//!   whose external tool is unavailable (no rustfmt/clippy component) are
//!   reported and skipped, not failed, so `ci` works in minimal containers.

use bgpvcg_bench::obs;
use bgpvcg_telemetry::causal::CausalDag;
use bgpvcg_telemetry::json::{self, JsonValue};
use bgpvcg_telemetry::{health, TraceEvent};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use xtask::rules::{self, SourceFile};
use xtask::{analysis, lexer};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&root),
        Some("analyze") => cmd_analyze(&root),
        Some("audit") => cmd_audit(&root),
        Some("obs") => cmd_obs(&root),
        Some(name @ ("bench" | "chaos")) => cmd_gate(
            &root,
            if name == "bench" { &SCALE } else { &CHAOS },
            args.iter().any(|a| a == "--smoke"),
            args.iter().any(|a| a == "--compare"),
        ),
        Some("ci") => cmd_ci(&root),
        Some("help") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "cargo xtask <subcommand>\n\n\
         \tlint                run the protocol lint rules (no-panic, pub-docs,\n\
         \t                    wire-golden, engine-hygiene, stage-alloc,\n\
         \t                    unsafe-audit)\n\
         \tanalyze             parser-backed analyses: panic-reachability over\n\
         \t                    the workspace call graph from the engine entry\n\
         \t                    points, plus the determinism lints (hashed-order\n\
         \t                    leaks, wall-clock/RNG outside the clock seam)\n\
         \taudit               check allowlist hygiene + invariant-hook wiring\n\
         \tobs                 run obs_smoke and the traced E3 sweep into the\n\
         \t                    bundles target/obs/smoke/ and target/obs/e3/,\n\
         \t                    decode every trace line as a TraceEvent, check\n\
         \t                    the two seeded health verdicts and that metrics/\n\
         \t                    profile parse, print the per-stage summary and\n\
         \t                    validate every E3 causal DAG\n\
         \tbench [--smoke] [--compare]\n\
         \t                    run E14 (serial vs parallel) and validate\n\
         \t                    BENCH_scale.json against its schema; --smoke runs\n\
         \t                    small sizes into target/bench/ and validates the\n\
         \t                    committed file; --compare requires a fresh full\n\
         \t                    run to equal it line for line\n\
         \tchaos [--smoke] [--compare]\n\
         \t                    the same gate over E19 (seeded faults,\n\
         \t                    self-stabilization asserted) and BENCH_chaos.json\n\
         \tci                  fmt check, lint, analyze, audit, clippy, docs,\n\
         \t                    tests, perf/ tests, obs, bench and chaos --smoke\n\
         \t                    --compare, e20_adversary --smoke, microbench\n\
         \t                    smokes\n\
         \thelp                this message"
    );
}

/// Locates the workspace root: the nearest ancestor of the current directory
/// containing a `Cargo.toml` with a `[workspace]` table.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Collects every tracked `.rs` file the rules care about: crate sources,
/// crate tests, and the root `src/`. Vendored stand-ins and `target/` are
/// excluded — they are not protocol code — and so is the
/// `crates/xtask/tests/fixtures/` corpus, whose bad files violate the
/// rules on purpose (the self-tests lint them in isolation).
fn collect_sources(root: &Path) -> (Vec<SourceFile>, Vec<Vec<String>>) {
    let mut files = Vec::new();
    let mut raw_lines = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("src")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        let mut entries: Vec<_> = entries.flatten().collect();
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                if name != "target" && name != ".git" && name != "fixtures" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let Ok(source) = std::fs::read_to_string(&path) else {
                    continue;
                };
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                raw_lines.push(source.lines().map(String::from).collect());
                files.push(SourceFile {
                    rel_path: rel,
                    lexed: lexer::lex(&source),
                });
            }
        }
    }
    (files, raw_lines)
}

/// Parses every collected file into its item tree (`trees[i]` matches
/// `files[i]`), feeding the parser-backed rules and analyses.
fn parse_trees(files: &[SourceFile]) -> Vec<xtask::parser::ParsedFile> {
    files
        .iter()
        .map(|f| xtask::parser::parse(&f.lexed))
        .collect()
}

/// Inventories `unsafe` usage in every vendored stand-in under `vendor/`
/// for the unsafe-audit rule. Scans all lines (tests included): a vendored
/// crate is third-party surface, so its unsafe count is all-or-nothing.
fn collect_vendor(root: &Path) -> Vec<rules::VendorCrate> {
    let mut out = Vec::new();
    let vendor_dir = root.join("vendor");
    let Ok(entries) = std::fs::read_dir(&vendor_dir) else {
        return out;
    };
    let mut crates: Vec<_> = entries.flatten().filter(|e| e.path().is_dir()).collect();
    crates.sort_by_key(|e| e.path());
    for krate in crates {
        let name = krate.file_name().to_string_lossy().into_owned();
        let mut first_unsafe = None;
        let mut stack = vec![krate.path()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            let mut entries: Vec<_> = entries.flatten().collect();
            entries.sort_by_key(|e| e.path());
            for entry in entries {
                let path = entry.path();
                if path.is_dir() {
                    if entry.file_name() != "target" {
                        stack.push(path);
                    }
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let Ok(source) = std::fs::read_to_string(&path) else {
                        continue;
                    };
                    let lexed = lexer::lex(&source);
                    for (idx, line) in lexed.code_lines.iter().enumerate() {
                        let hit = line
                            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                            .any(|w| w == "unsafe");
                        if hit && first_unsafe.is_none() {
                            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                            first_unsafe = Some((rel, idx + 1));
                        }
                    }
                }
            }
        }
        out.push(rules::VendorCrate { name, first_unsafe });
    }
    out
}

fn cmd_lint(root: &Path) -> ExitCode {
    let (files, raw_lines) = collect_sources(root);
    let trees = parse_trees(&files);
    let vendor = collect_vendor(root);
    let violations = rules::run_all(&files, &raw_lines, &trees, &vendor);
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!(
            "xtask lint: clean ({} files, 6 rules, 0 violations)",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The parser-backed analyses: panic-reachability over the workspace call
/// graph plus the determinism lints, with a per-entry-point reachability
/// report. See `docs/STATIC_ANALYSIS.md`.
fn cmd_analyze(root: &Path) -> ExitCode {
    let (files, _raw_lines) = collect_sources(root);
    let trees = parse_trees(&files);
    let graph = analysis::build_graph(&files, &trees);
    let violations = analysis::run_all(&files, &trees);
    for v in &violations {
        println!("{v}");
    }
    println!("\npanic-reachability: functions reached per entry point");
    for (spec, reached) in analysis::reachability_stats(&graph) {
        println!("  {reached:>4}  {spec}");
    }
    if violations.is_empty() {
        println!(
            "\nxtask analyze: clean ({} files, {} call-graph nodes, 0 findings)",
            files.len(),
            graph.nodes.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("\nxtask analyze: {} finding(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Files that must carry invariant-hook call sites for the debug-build
/// audits to mean anything. Checked textually so a refactor cannot
/// silently drop the audit wiring.
const INVARIANT_HOOK_SITES: &[(&str, &str)] = &[
    ("crates/core/src/invariants.rs", "converged_prices"),
    ("crates/core/src/protocol.rs", "invariants::"),
    ("crates/bgp/src/engine/invariants.rs", "relaxation_step"),
    ("crates/bgp/src/node.rs", "invariants::relaxation_step"),
    ("crates/bgp/src/engine/invariants.rs", "convergence"),
    ("crates/bgp/src/engine/kernel.rs", "invariants::"),
];

fn cmd_audit(root: &Path) -> ExitCode {
    let (files, raw_lines) = collect_sources(root);
    // Run the rules AND the analyses first so every live annotation is
    // marked used; what remains unused is stale.
    let trees = parse_trees(&files);
    let vendor = collect_vendor(root);
    let mut violations = rules::run_all(&files, &raw_lines, &trees, &vendor);
    violations.extend(analysis::run_all(&files, &trees));
    let mut problems = rules::stale_allows(&files);

    for (rel, needle) in INVARIANT_HOOK_SITES {
        let hooked = files
            .iter()
            .find(|f| f.rel_path == Path::new(rel))
            .map(|f| f.lexed.code_lines.join("\n").contains(needle));
        if hooked != Some(true) {
            problems.push(rules::Violation {
                rule: "invariant-hooks",
                file: PathBuf::from(rel),
                line: 1,
                message: format!("expected invariant hook `{needle}` is missing"),
            });
        }
    }

    for p in &problems {
        println!("{p}");
    }
    let allow_count: usize = files.iter().map(|f| f.lexed.allows.len()).sum();
    println!(
        "xtask audit: {} allowlist annotation(s), {} live violation(s) suppressed elsewhere, {} problem(s)",
        allow_count,
        violations.len(),
        problems.len()
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one pipeline step. When `optional` and the tool itself is absent
/// (missing binary or missing cargo component), the step is skipped with a
/// notice instead of failing — this keeps `ci` usable offline and in
/// minimal containers.
fn run_step(root: &Path, label: &str, program: &str, args: &[&str], optional: bool) -> bool {
    run_step_with(root, label, &[], program, args, optional)
}

/// [`run_step`] with `env` set for the step's process.
fn run_step_with(
    root: &Path,
    label: &str,
    env: &[(&str, &str)],
    program: &str,
    args: &[&str],
    optional: bool,
) -> bool {
    let vars: Vec<String> = env.iter().map(|(k, v)| format!("{k}=\"{v}\" ")).collect();
    println!("==> {label}: {}{program} {}", vars.concat(), args.join(" "));
    let output = Command::new(program)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(root)
        .output();
    match output {
        Ok(out) if out.status.success() => true,
        Ok(out) => {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tool_missing = stderr.contains("no such command")
                || stderr.contains("not installed")
                || stderr.contains("no such subcommand");
            if optional && tool_missing {
                println!("==> {label}: tool unavailable, skipped");
                true
            } else {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{stderr}");
                println!("==> {label}: FAILED");
                false
            }
        }
        Err(err) => {
            if optional {
                println!("==> {label}: cannot launch `{program}` ({err}), skipped");
                true
            } else {
                println!("==> {label}: cannot launch `{program}` ({err})");
                false
            }
        }
    }
}

/// The observability pipeline: run `obs_smoke` into `target/obs/smoke/`
/// and the traced E3 sweep into `target/obs/e3/` (each with `--obs-out`),
/// then check what the written bundles can show, each once: every trace
/// line decodes as a [`TraceEvent`]; the smoke trace's `HealthVerdict`s
/// are exactly the two the fixture seeds (an oscillation, then a stall);
/// the smoke bundle's metrics parse with their two non-zero counters, its
/// profile report parses with its schema tag, and its collapsed stacks are
/// non-empty; every causal DAG of the E3 trace validates. What the fixture
/// asserts in-process — every event kind, profile coverage, a
/// finding-free honest run — is not checked again here. See
/// `docs/OBSERVABILITY.md`.
fn cmd_obs(root: &Path) -> ExitCode {
    let smoke = root.join("target/obs/smoke");
    let e3 = root.join("target/obs/e3");
    for (bin, dir) in [("obs_smoke", &smoke), ("e3_bgp_convergence", &e3)] {
        let dir_arg = dir.display().to_string();
        let args = [
            "run",
            "--release",
            "-q",
            "-p",
            "bgpvcg-bench",
            "--bin",
            bin,
            "--",
            "--obs-out",
            &dir_arg,
        ];
        if !run_step(root, &format!("{bin} run"), "cargo", &args, false) {
            return ExitCode::FAILURE;
        }
    }

    let mut problems = match read_trace(&smoke.join(obs::TRACE)) {
        Ok(events) => {
            print_stage_summary(&events);
            check_verdicts(&events)
        }
        Err(bad) => bad,
    };
    problems += read_json(&smoke.join(obs::METRICS)).map_or(1, |metrics| {
        let mut bad = 0;
        for counter in ["bgp_updates_sent_total", "bgp_price_relaxations_total"] {
            let count = metrics.get("counters").and_then(|c| c.get(counter));
            if count.and_then(JsonValue::as_u64).unwrap_or(0) == 0 {
                println!("==> {}: counter `{counter}` missing or zero", obs::METRICS);
                bad += 1;
            }
        }
        bad
    });
    problems += read_json(&smoke.join(obs::PROFILE)).map_or(1, |report| {
        let schema = "bgpvcg-profile-v1";
        let tagged = report.get("schema").and_then(JsonValue::as_str) == Some(schema);
        if !tagged {
            println!("==> {}: schema is not `{schema}`", obs::PROFILE);
        }
        usize::from(!tagged)
    });
    problems += read_text(&smoke.join(obs::FOLDED)).map_or(1, |folded| {
        let empty = folded.trim().is_empty();
        if empty {
            println!("==> {}: no collapsed stacks", obs::FOLDED);
        }
        usize::from(empty)
    });
    problems +=
        read_trace(&e3.join(obs::TRACE)).map_or_else(|bad| bad, |events| check_causal(&events));

    if problems == 0 {
        println!(
            "\nxtask obs: bundles ok (traces decode, exactly the seeded verdicts, metrics/profile parse, causal DAGs valid)"
        );
        ExitCode::SUCCESS
    } else {
        println!("\nxtask obs: FAILED ({problems} problem(s))");
        ExitCode::FAILURE
    }
}

/// Reads a file, printing the error (and counting it as one problem).
fn read_text(path: &Path) -> Result<String, usize> {
    std::fs::read_to_string(path).map_err(|err| {
        println!("==> cannot read {}: {err}", path.display());
        1
    })
}

/// Reads and parses a JSON file, printing any error.
fn read_json(path: &Path) -> Result<JsonValue, usize> {
    parse_json(&read_text(path)?, &path.display().to_string())
}

/// Parses JSON text, printing the error (and counting it as one problem).
fn parse_json(text: &str, label: &str) -> Result<JsonValue, usize> {
    json::parse(text).map_err(|err| {
        println!("==> {label}: does not parse: {err}");
        1
    })
}

/// Decodes every line of a JSONL trace (decoding is validation: the enum
/// is the schema). `Err` carries the number of problems, all printed.
fn read_trace(path: &Path) -> Result<Vec<TraceEvent>, usize> {
    let text = read_text(path)?;
    let mut events = Vec::new();
    let mut bad = 0usize;
    for (idx, line) in text.lines().enumerate() {
        match TraceEvent::from_json(line) {
            Ok(event) => events.push(event),
            Err(err) => {
                println!("{}:{}: {err}", path.display(), idx + 1);
                bad += 1;
            }
        }
    }
    println!(
        "==> {}: {} line(s), {bad} invalid",
        path.display(),
        events.len() + bad
    );
    if bad == 0 {
        Ok(events)
    } else {
        Err(bad)
    }
}

/// Prints how many routes were selected, prices relaxed and routes
/// withdrawn per stage (stage 0 = origin/reaction broadcasts).
fn print_stage_summary(events: &[TraceEvent]) {
    let mut per_stage: std::collections::BTreeMap<u64, [u64; 3]> = Default::default();
    for event in events {
        let slot = match event {
            TraceEvent::RouteSelected { .. } => 0,
            TraceEvent::PriceRelaxed { .. } => 1,
            TraceEvent::Withdrawn { .. } => 2,
            _ => continue,
        };
        per_stage.entry(event.stage()).or_insert([0; 3])[slot] += 1;
    }
    println!("\nper-stage convergence summary (stage 0 = origin/reaction broadcasts):");
    println!("  stage | routes selected | prices relaxed | withdrawals");
    for (stage, [selected, relaxed, withdrawn]) in &per_stage {
        println!("  {stage:>5} | {selected:>15} | {relaxed:>14} | {withdrawn:>11}");
    }
}

/// The health detectors `obs_smoke` seeds, in firing order: the cost
/// flap's oscillation, then the flapped link's stall.
const SEEDED_VERDICTS: [u32; 2] = [health::DETECTOR_OSCILLATION, health::DETECTOR_STALL];

/// Checks that the smoke trace's `HealthVerdict` events are exactly the
/// seeded findings — no more, no fewer, in order. Returns the number of
/// problems found (all printed).
fn check_verdicts(events: &[TraceEvent]) -> usize {
    let detectors: Vec<u32> = events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::HealthVerdict { detector, .. } => Some(*detector),
            _ => None,
        })
        .collect();
    let named = |codes: &[u32]| -> Vec<&str> {
        codes
            .iter()
            .map(|&code| health::detector_name(code))
            .collect()
    };
    if detectors == SEEDED_VERDICTS {
        println!("==> health verdicts: {:?}, as seeded", named(&detectors));
        0
    } else {
        println!(
            "==> health verdicts: {:?}, but the fixture seeds exactly {:?}",
            named(&detectors),
            named(&SEEDED_VERDICTS)
        );
        1
    }
}

/// Rebuilds one provenance DAG per run segment of a traced sweep and
/// validates each (acyclic by monotone ids, roots are stage-0 origin
/// advertisements, critical path bounded by the reported stage count).
/// Returns the number of problems found (all printed).
fn check_causal(events: &[TraceEvent]) -> usize {
    let dags = CausalDag::from_events(events);
    let mut problems = 0usize;
    if dags.is_empty() {
        println!("==> causal: trace produced no run segments");
        problems += 1;
    }
    println!("\ncausal provenance ({} run segment(s)):", dags.len());
    println!("  segment | updates | links | roots | depth | stages");
    let mut deepest: Vec<u64> = Vec::new();
    for (idx, dag) in dags.iter().enumerate() {
        for result in [dag.validate(), dag.validate_origin_roots()] {
            if let Err(err) = result {
                println!("==> causal: segment {idx}: {err}");
                problems += 1;
            }
        }
        let path = dag.critical_path();
        let stages = dag
            .reported_stages()
            .map_or("-".to_string(), |v| v.to_string());
        println!(
            "  {idx:>7} | {:>7} | {:>5} | {:>5} | {:>5} | {stages:>6}",
            dag.update_count(),
            dag.edge_count(),
            dag.roots().len(),
            path.len().saturating_sub(1)
        );
        if path.len() > deepest.len() {
            deepest = path;
        }
    }
    if !deepest.is_empty() {
        println!(
            "  deepest causal chain: {} hop(s) through updates {deepest:?}",
            deepest.len() - 1
        );
    }
    problems
}

/// One determinism gate: an experiment binary that writes a JSON
/// trajectory with `--out PATH` (small sizes with `--smoke`), the
/// committed repo-root baseline it must reproduce, and the checked-in
/// schema both obey.
struct Gate {
    /// The `cargo xtask` subcommand.
    name: &'static str,
    /// The experiment binary.
    bin: &'static str,
    /// The committed baseline, relative to the workspace root.
    baseline: &'static str,
    /// The schema, relative to the workspace root.
    schema: &'static str,
}

/// `cargo xtask bench`: E14, serial vs parallel (the binary asserts the
/// two bit-identical). See `docs/PERFORMANCE.md`.
const SCALE: Gate = Gate {
    name: "bench",
    bin: "e14_scale",
    baseline: "BENCH_scale.json",
    schema: "crates/bench/bench-scale-schema.json",
};

/// `cargo xtask chaos`: E19, every run asserted to self-stabilize to the
/// bit-identical fault-free fixpoint. See `docs/ROBUSTNESS.md`.
const CHAOS: Gate = Gate {
    name: "chaos",
    bin: "e19_chaos",
    baseline: "BENCH_chaos.json",
    schema: "crates/bench/bench-chaos-schema.json",
};

/// Checks one parsed JSON value against a schema type tag (see a
/// schema's `description` for the vocabulary).
fn bench_type_ok(value: &JsonValue, ty: &str) -> bool {
    match ty {
        "uint" => matches!(value, JsonValue::UInt(_)),
        "number" => matches!(value, JsonValue::UInt(_) | JsonValue::Float(_)),
        "string" => matches!(value, JsonValue::String(_)),
        "bool" => matches!(value, JsonValue::Bool(_)),
        "array" => matches!(value, JsonValue::Array(_)),
        _ => false,
    }
}

/// Validates one trajectory document against its schema: every `top` key
/// present with its declared type, `rows` non-empty, and every row
/// carrying every `row` key with its declared type. Returns the number of
/// problems found (all printed).
fn validate_bench_json(label: &str, text: &str, schema: &JsonValue) -> usize {
    let doc = match parse_json(text, label) {
        Ok(doc) => doc,
        Err(bad) => return bad,
    };
    let check_keys = |spec: Option<&JsonValue>, target: &JsonValue, what: &str| {
        let Some(JsonValue::Object(spec)) = spec else {
            println!("==> {label}: schema has no `{what}` object");
            return 1usize;
        };
        let mut bad = 0usize;
        for (key, ty) in spec {
            let ty = ty.as_str().unwrap_or("");
            match target.get(key) {
                Some(value) if bench_type_ok(value, ty) => {}
                Some(_) => {
                    println!("==> {label}: {what} key `{key}` is not a {ty}");
                    bad += 1;
                }
                None => {
                    println!("==> {label}: {what} key `{key}` is missing");
                    bad += 1;
                }
            }
        }
        bad
    };
    let mut problems = check_keys(schema.get("top"), &doc, "top");
    match doc.get("rows") {
        Some(JsonValue::Array(rows)) if !rows.is_empty() => {
            for row in rows {
                problems += check_keys(schema.get("row"), row, "row");
            }
        }
        Some(JsonValue::Array(_)) => {
            println!("==> {label}: `rows` is empty");
            problems += 1;
        }
        _ => {} // already reported by the `top` check
    }
    problems
}

/// Runs a gate's binary with `--out out` (plus `--smoke`) and returns what
/// it wrote.
fn run_gate_binary(root: &Path, gate: &Gate, out: &Path, smoke: bool) -> Result<String, usize> {
    let out_arg = out.display().to_string();
    let mut args = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "bgpvcg-bench",
        "--bin",
        gate.bin,
        "--",
        "--out",
        &out_arg,
    ];
    if smoke {
        args.push("--smoke");
    }
    let label = format!("{} {} run", gate.bin, if smoke { "smoke" } else { "full" });
    if !run_step(root, &label, "cargo", &args, false) {
        return Err(1);
    }
    read_text(out)
}

/// A determinism gate ([`SCALE`], [`CHAOS`]). Without flags, a full run
/// regenerates the committed baseline and validates it against the
/// schema. With `smoke`, small sizes run into `target/bench/` and both
/// that output and the committed baseline are validated, so CI catches a
/// broken emitter and a hand-mangled baseline alike. With `compare`, a
/// fresh full run into `target/bench/` must equal the committed baseline
/// line for line — every field is a deterministic count, so a protocol
/// change that shifts a stage, message or byte count fails until the
/// baseline is regenerated on purpose.
fn cmd_gate(root: &Path, gate: &Gate, smoke: bool, compare: bool) -> ExitCode {
    let schema = match read_json(&root.join(gate.schema)) {
        Ok(schema) => schema,
        Err(_) => return ExitCode::FAILURE,
    };
    let bench_dir = root.join("target/bench");
    if let Err(err) = std::fs::create_dir_all(&bench_dir) {
        eprintln!(
            "xtask {}: cannot create {}: {err}",
            gate.name,
            bench_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let baseline = root.join(gate.baseline);
    let in_bench_dir = |suffix: &str| bench_dir.join(gate.baseline.replace(".json", suffix));

    let mut problems = 0;
    if smoke || !compare {
        let out = if smoke {
            in_bench_dir(".smoke.json")
        } else {
            baseline.clone()
        };
        problems += run_gate_binary(root, gate, &out, smoke).map_or_else(
            |bad| bad,
            |text| validate_bench_json(&out.display().to_string(), &text, &schema),
        );
    }
    if smoke {
        problems += read_text(&baseline).map_or_else(
            |bad| bad,
            |text| validate_bench_json(gate.baseline, &text, &schema),
        );
    }
    if compare {
        let fresh = in_bench_dir(".fresh.json");
        problems += match (
            run_gate_binary(root, gate, &fresh, false),
            read_text(&baseline),
        ) {
            (Ok(fresh), Ok(baseline)) => diff_lines(gate.baseline, &fresh, &baseline),
            (fresh, baseline) => fresh.err().unwrap_or(0) + baseline.err().unwrap_or(0),
        };
    }

    if problems == 0 {
        println!(
            "\nxtask {}: {} schema-valid{}",
            gate.name,
            gate.baseline,
            if compare { ", reproduced exactly" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        println!("\nxtask {}: FAILED ({problems} problem(s))", gate.name);
        ExitCode::FAILURE
    }
}

/// Compares a fresh trajectory with the committed baseline line by line
/// (one row per line); returns the number of differences (all printed).
fn diff_lines(label: &str, fresh: &str, baseline: &str) -> usize {
    let (fresh, baseline): (Vec<&str>, Vec<&str>) =
        (fresh.lines().collect(), baseline.lines().collect());
    let mut problems = 0usize;
    if fresh.len() != baseline.len() {
        println!(
            "==> {label} compare: fresh run has {} line(s), baseline {}",
            fresh.len(),
            baseline.len()
        );
        problems += 1;
    }
    for (idx, (f, b)) in fresh.iter().zip(&baseline).enumerate() {
        if f != b {
            println!(
                "==> {label} compare: line {} differs\n    fresh:    {f}\n    baseline: {b}",
                idx + 1
            );
            problems += 1;
        }
    }
    problems
}

fn cmd_ci(root: &Path) -> ExitCode {
    let mut ok = true;
    ok &= run_step(root, "format check", "cargo", &["fmt", "--check"], true);
    ok &= cmd_lint(root) == ExitCode::SUCCESS;
    ok &= cmd_analyze(root) == ExitCode::SUCCESS;
    ok &= cmd_audit(root) == ExitCode::SUCCESS;
    ok &= run_step(
        root,
        "clippy wall",
        "cargo",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
        true,
    );
    // Every intra-doc link resolves and no public doc names a private item.
    ok &= run_step_with(
        root,
        "docs",
        &[("RUSTDOCFLAGS", "-D warnings")],
        "cargo",
        &["doc", "--workspace", "--no-deps"],
        false,
    );
    ok &= run_step(
        root,
        "workspace tests",
        "cargo",
        &["test", "-q", "--workspace"],
        false,
    );
    // The benchmark harness is its own workspace, built on its pinned lock.
    ok &= run_step(
        root,
        "benchmark harness tests",
        "cargo",
        &[
            "test",
            "--offline",
            "--locked",
            "--manifest-path",
            "perf/Cargo.toml",
            "--target-dir",
            "target/perf",
        ],
        false,
    );
    ok &= cmd_obs(root) == ExitCode::SUCCESS;
    ok &= cmd_gate(root, &SCALE, true, true) == ExitCode::SUCCESS;
    ok &= cmd_gate(root, &CHAOS, true, true) == ExitCode::SUCCESS;
    ok &= run_step(
        root,
        "adversary smoke",
        "cargo",
        &[
            "run",
            "-q",
            "-p",
            "bgpvcg-bench",
            "--bin",
            "e20_adversary",
            "--",
            "--smoke",
        ],
        false,
    );
    for bench in ["codec", "selector", "pricing", "tracer", "routing"] {
        ok &= run_step(
            root,
            &format!("{bench} microbench smoke"),
            "cargo",
            &[
                "bench",
                "-q",
                "-p",
                "bgpvcg-bench",
                "--bench",
                bench,
                "--",
                "--test",
            ],
            false,
        );
    }
    if ok {
        println!("xtask ci: all steps passed");
        ExitCode::SUCCESS
    } else {
        println!("xtask ci: FAILED");
        ExitCode::FAILURE
    }
}
