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
//! - `audit` — lint allowlist hygiene (stale / reason-less annotations),
//!   verify the invariant-hook wiring is present, then run the test suite
//!   with `--features invariant-checks` so the debug assertions execute.
//!   `--static-only` skips the test run.
//! - `obs`   — the observability pipeline: run the `obs_smoke` fixture with
//!   `--trace-out`/`--metrics-out`, decode every trace line as a
//!   `TraceEvent`, require full event-kind coverage, check both metric
//!   expositions, and print the per-stage convergence summary. `--causal`
//!   additionally runs the traced E3 sweep, rebuilds the causal provenance
//!   DAG of every run segment (acyclicity, origin-root, and
//!   critical-path-vs-stages validation), and writes a schema-validated
//!   causal summary to `target/obs/causal.json`. `--health` additionally
//!   collects and validates the SLO health report (`bgpvcg-health-v1`:
//!   zero findings on the honest phase, exactly the seeded
//!   `HealthVerdict` events in the trace); `--profile` collects and
//!   validates the span profile (`bgpvcg-profile-v1`: ≥ 6 engine phases
//!   observed, inclusive ≥ exclusive nanos, no truncated exits, non-empty
//!   collapsed stacks). See `docs/OBSERVABILITY.md`.
//! - `bench` — the perf-record pipeline: run the E14 scale benchmark
//!   (serial vs parallel, asserted bit-identical) and validate the emitted
//!   `BENCH_scale.json` against the checked-in schema. `--smoke` runs small
//!   sizes for CI and also re-validates the checked-in `BENCH_chaos.json`.
//!   `--compare` regenerates the full trajectory into `target/bench/` and
//!   diffs it field-by-field against the committed baseline (timing fields
//!   exempt, per the schema's `timing` list). See `docs/PERFORMANCE.md`.
//! - `chaos` — the robustness pipeline: run the E19 chaos benchmark (every
//!   run asserted bit-identical to the fault-free fixpoint) and validate
//!   the emitted `BENCH_chaos.json` against the checked-in schema.
//!   `--smoke` runs small sizes for CI; `--compare` diffs a fresh full
//!   trajectory against the committed baseline. See `docs/ROBUSTNESS.md`.
//! - `ci`    — the full offline-tolerant pipeline: fmt check, lint, clippy
//!   wall, workspace tests, invariant-checked tests, obs --causal --health --profile,
//!   bench --smoke --compare, chaos --smoke --compare. Steps whose
//!   external tool is unavailable (no rustfmt/clippy component) are
//!   reported and skipped rather than failed, so `ci` works in minimal
//!   containers.

use bgpvcg_telemetry::TraceEvent;
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
        Some("audit") => cmd_audit(&root, args.iter().any(|a| a == "--static-only")),
        Some("obs") => cmd_obs(
            &root,
            args.iter().any(|a| a == "--causal"),
            args.iter().any(|a| a == "--health"),
            args.iter().any(|a| a == "--profile"),
        ),
        Some("bench") => cmd_bench(
            &root,
            args.iter().any(|a| a == "--smoke"),
            args.iter().any(|a| a == "--compare"),
        ),
        Some("chaos") => cmd_chaos(
            &root,
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
         \taudit [--static-only]\n\
         \t                    check allowlist hygiene + invariant-hook wiring,\n\
         \t                    then run tests with --features invariant-checks\n\
         \tobs [--causal] [--health] [--profile]\n\
         \t                    run the traced smoke topology, decode every JSONL\n\
         \t                    trace line as a TraceEvent, check metric\n\
         \t                    expositions, print the convergence summary;\n\
         \t                    --causal also runs the traced E3 sweep, validates\n\
         \t                    every run's causal provenance DAG (acyclic,\n\
         \t                    stage-0 roots, critical path <= stages) and\n\
         \t                    writes target/obs/causal.json; --health validates\n\
         \t                    the SLO health report (zero findings honest,\n\
         \t                    exactly the seeded HealthVerdicts in the trace)\n\
         \t                    at target/obs/health.json; --profile validates\n\
         \t                    the span profile (>= 6 phases, no truncation)\n\
         \t                    at target/obs/profile.json + .folded\n\
         \tbench [--smoke] [--compare]\n\
         \t                    run the E14 scale benchmark (serial vs parallel)\n\
         \t                    and validate BENCH_scale.json against\n\
         \t                    crates/bench/bench-scale-schema.json; --smoke\n\
         \t                    runs small sizes into target/bench/ and also\n\
         \t                    validates the checked-in trajectory files\n\
         \t                    (scale and chaos); --compare regenerates the\n\
         \t                    full trajectory and diffs it against the\n\
         \t                    committed baseline (timing fields exempt)\n\
         \tchaos [--smoke] [--compare]\n\
         \t                    run the E19 chaos benchmark (seeded faults,\n\
         \t                    self-stabilization asserted) and validate\n\
         \t                    BENCH_chaos.json against\n\
         \t                    crates/bench/bench-chaos-schema.json; --smoke\n\
         \t                    runs small sizes into target/bench/; --compare\n\
         \t                    diffs a fresh full trajectory against the\n\
         \t                    committed baseline\n\
         \tci                  fmt check, lint, analyze, clippy, tests,\n\
         \t                    invariant tests, obs --causal --health --profile,\n\
         \t                    bench --smoke --compare, chaos --smoke --compare,\n\
         \t                    e20_adversary --smoke\n\
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

/// Files that must carry invariant-hook call sites for the
/// `invariant-checks` feature to mean anything. Checked textually so a
/// refactor cannot silently drop the audit wiring.
const INVARIANT_HOOK_SITES: &[(&str, &str)] = &[
    ("crates/core/src/invariants.rs", "converged_prices"),
    ("crates/core/src/protocol.rs", "invariants::"),
    ("crates/bgp/src/engine/invariants.rs", "relaxation_step"),
    ("crates/bgp/src/node.rs", "invariants::relaxation_step"),
    ("crates/bgp/src/engine/invariants.rs", "convergence"),
    ("crates/bgp/src/engine/sync.rs", "invariants::"),
];

fn cmd_audit(root: &Path, static_only: bool) -> ExitCode {
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
    if !problems.is_empty() {
        return ExitCode::FAILURE;
    }
    if static_only {
        return ExitCode::SUCCESS;
    }
    println!("xtask audit: running tests with --features invariant-checks");
    let ok = run_step(
        root,
        "invariant tests",
        "cargo",
        &["test", "-q", "--features", "invariant-checks"],
        false,
    ) && run_step(
        root,
        "invariant tests (protocol crates)",
        "cargo",
        &[
            "test",
            "-q",
            "-p",
            "bgpvcg-core",
            "-p",
            "bgpvcg-bgp",
            "--features",
            "bgpvcg-core/invariant-checks,bgpvcg-bgp/invariant-checks",
        ],
        false,
    );
    if ok {
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
    println!("==> {label}: {program} {}", args.join(" "));
    let output = Command::new(program).args(args).current_dir(root).output();
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

/// The observability pipeline: run the traced smoke topology, decode
/// every JSONL line as a [`TraceEvent`], require full event-kind
/// coverage, sanity-check both metric expositions, and print a per-stage
/// convergence summary table. With `causal`, additionally run the traced
/// E3 sweep and validate + summarize its causal provenance DAGs (see
/// [`run_causal`]). See `docs/OBSERVABILITY.md`.
fn cmd_obs(root: &Path, causal: bool, health: bool, profile: bool) -> ExitCode {
    use bgpvcg_telemetry::json;
    use std::collections::BTreeMap;

    let out_dir = root.join("target").join("obs");
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xtask obs: cannot create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let trace_path = out_dir.join("trace.jsonl");
    let metrics_path = out_dir.join("metrics.json");
    let health_path = out_dir.join("health.json");
    let profile_path = out_dir.join("profile.json");
    let mut run_args: Vec<String> = [
        "run",
        "--release",
        "-q",
        "-p",
        "bgpvcg-bench",
        "--bin",
        "obs_smoke",
        "--",
        "--trace-out",
    ]
    .map(str::to_string)
    .to_vec();
    run_args.push(trace_path.display().to_string());
    run_args.push("--metrics-out".to_string());
    run_args.push(metrics_path.display().to_string());
    if health {
        run_args.push("--health-out".to_string());
        run_args.push(health_path.display().to_string());
    }
    if profile {
        run_args.push("--profile-out".to_string());
        run_args.push(profile_path.display().to_string());
    }
    let run_args: Vec<&str> = run_args.iter().map(String::as_str).collect();
    let ran = run_step(root, "obs smoke run", "cargo", &run_args, false);
    if !ran {
        return ExitCode::FAILURE;
    }

    // Decode every trace line (decoding is validation: the enum is the
    // schema), and fold the stream into kind counts and a per-stage summary.
    let trace = match std::fs::read_to_string(&trace_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("xtask obs: cannot read {}: {err}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut kind_counts: BTreeMap<&str, u64> = BTreeMap::new();
    // stage -> [selected, relaxed, withdrawn]
    let mut per_stage: BTreeMap<u64, [u64; 3]> = BTreeMap::new();
    let mut bad_lines = 0usize;
    let mut lines = 0usize;
    for (idx, line) in trace.lines().enumerate() {
        lines += 1;
        let event = match TraceEvent::from_json(line) {
            Ok(event) => event,
            Err(err) => {
                println!("{}:{}: {err}", trace_path.display(), idx + 1);
                bad_lines += 1;
                continue;
            }
        };
        let slot = match event {
            TraceEvent::RouteSelected { .. } => Some(0),
            TraceEvent::PriceRelaxed { .. } => Some(1),
            TraceEvent::Withdrawn { .. } => Some(2),
            _ => None,
        };
        if let Some(slot) = slot {
            per_stage.entry(event.stage()).or_insert([0; 3])[slot] += 1;
        }
        *kind_counts.entry(event.kind()).or_insert(0) += 1;
    }
    println!(
        "==> trace validation: {} line(s), {} invalid",
        lines, bad_lines
    );
    let mut missing_kinds = 0usize;
    for kind in TraceEvent::KINDS {
        if kind_counts.get(kind).copied().unwrap_or(0) == 0 {
            println!("==> event kind `{kind}` never appeared in the smoke trace");
            missing_kinds += 1;
        }
    }

    println!("\nper-stage convergence summary (stage 0 = origin/reaction broadcasts):");
    println!("  stage | routes selected | prices relaxed | withdrawals");
    for (stage, [selected, relaxed, withdrawn]) in &per_stage {
        println!("  {stage:>5} | {selected:>15} | {relaxed:>14} | {withdrawn:>11}");
    }

    // Both expositions must exist and parse/scan plausibly.
    let mut expo_problems = 0usize;
    match std::fs::read_to_string(&metrics_path) {
        Ok(text) => match json::parse(&text) {
            Ok(value) => {
                for counter in ["bgp_updates_sent_total", "bgp_price_relaxations_total"] {
                    let present = value
                        .get("counters")
                        .and_then(|c| c.get(counter))
                        .and_then(json::JsonValue::as_u64)
                        .is_some_and(|v| v > 0);
                    if !present {
                        println!("==> metrics JSON: counter `{counter}` missing or zero");
                        expo_problems += 1;
                    }
                }
            }
            Err(err) => {
                println!("==> metrics JSON does not parse: {err}");
                expo_problems += 1;
            }
        },
        Err(err) => {
            println!("==> cannot read {}: {err}", metrics_path.display());
            expo_problems += 1;
        }
    }
    let prom_path = metrics_path.with_extension("prom");
    match std::fs::read_to_string(&prom_path) {
        Ok(text) => {
            for needle in [
                "# TYPE bgp_messages_total counter",
                "# TYPE bgp_stages_to_quiescence gauge",
                "# TYPE bgp_stage_wall_nanos histogram",
            ] {
                if !text.contains(needle) {
                    println!("==> Prometheus exposition is missing `{needle}`");
                    expo_problems += 1;
                }
            }
        }
        Err(err) => {
            println!("==> cannot read {}: {err}", prom_path.display());
            expo_problems += 1;
        }
    }

    // The smoke fixture seeds exactly two SLO verdicts (one oscillation,
    // one stall) — the trace must carry exactly those, no more, no fewer.
    let mut health_problems = 0usize;
    if health {
        let verdicts = kind_counts.get("HealthVerdict").copied().unwrap_or(0);
        if verdicts != 2 {
            println!("==> expected exactly 2 HealthVerdict events in the trace, saw {verdicts}");
            health_problems += 1;
        }
        health_problems += validate_health_artifact(&health_path);
    }
    let profile_problems = if profile {
        validate_profile_artifact(&profile_path)
    } else {
        0
    };

    let causal_problems = if causal { run_causal(root) } else { 0 };

    if bad_lines == 0
        && missing_kinds == 0
        && expo_problems == 0
        && causal_problems == 0
        && health_problems == 0
        && profile_problems == 0
    {
        println!(
            "\nxtask obs: trace decodes, all {} event kinds covered, expositions ok{}{}{}",
            TraceEvent::KINDS.len(),
            if causal { ", causal DAGs valid" } else { "" },
            if health { ", health report ok" } else { "" },
            if profile { ", span profile ok" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "\nxtask obs: FAILED ({bad_lines} invalid line(s), {missing_kinds} uncovered kind(s), {expo_problems} exposition problem(s), {causal_problems} causal problem(s), {health_problems} health problem(s), {profile_problems} profile problem(s))"
        );
        ExitCode::FAILURE
    }
}

/// Validates the `bgpvcg-health-v1` artifact the smoke fixture wrote for
/// its *honest* phase: schema-pinned, zero findings, and a non-empty
/// per-destination latency section. Returns the number of problems
/// (all printed).
fn validate_health_artifact(path: &Path) -> usize {
    use bgpvcg_telemetry::json::{self, JsonValue};

    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            println!("==> cannot read {}: {err}", path.display());
            return 1;
        }
    };
    let value = match json::parse(&text) {
        Ok(value) => value,
        Err(err) => {
            println!("==> health report does not parse: {err}");
            return 1;
        }
    };
    let mut problems = 0usize;
    if value.get("schema").and_then(JsonValue::as_str) != Some("bgpvcg-health-v1") {
        println!("==> health report schema is not `bgpvcg-health-v1`");
        problems += 1;
    }
    match value.get("findings") {
        Some(JsonValue::Array(findings)) if findings.is_empty() => {}
        Some(JsonValue::Array(findings)) => {
            println!(
                "==> honest health report carries {} finding(s); expected zero",
                findings.len()
            );
            problems += 1;
        }
        _ => {
            println!("==> health report has no `findings` array");
            problems += 1;
        }
    }
    match value.get("destinations") {
        Some(JsonValue::Array(dests)) if !dests.is_empty() => {
            for dest in dests {
                let count = dest
                    .get("latency")
                    .and_then(|l| l.get("count"))
                    .and_then(JsonValue::as_u64);
                if count.is_none_or(|c| c == 0) {
                    println!("==> health report destination with an empty latency sketch");
                    problems += 1;
                    break;
                }
            }
        }
        _ => {
            println!("==> health report has no per-destination latency quantiles");
            problems += 1;
        }
    }
    problems
}

/// Validates the `bgpvcg-profile-v1` artifact plus its `.folded` sibling:
/// schema-pinned, no truncated exits, at least six engine phases actually
/// observed (count > 0) with inclusive >= exclusive nanos, and a
/// non-empty collapsed-stack rendering. Returns the number of problems
/// (all printed).
fn validate_profile_artifact(path: &Path) -> usize {
    use bgpvcg_telemetry::json::{self, JsonValue};

    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            println!("==> cannot read {}: {err}", path.display());
            return 1;
        }
    };
    let value = match json::parse(&text) {
        Ok(value) => value,
        Err(err) => {
            println!("==> span profile does not parse: {err}");
            return 1;
        }
    };
    let mut problems = 0usize;
    if value.get("schema").and_then(JsonValue::as_str) != Some("bgpvcg-profile-v1") {
        println!("==> span profile schema is not `bgpvcg-profile-v1`");
        problems += 1;
    }
    if value.get("truncated").and_then(JsonValue::as_u64) != Some(0) {
        println!("==> span profile reports truncated span exits");
        problems += 1;
    }
    match value.get("spans") {
        Some(JsonValue::Array(spans)) => {
            let mut covered = 0usize;
            for span in spans {
                let count = span.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
                if count == 0 {
                    continue;
                }
                covered += 1;
                let total = span.get("total_nanos").and_then(JsonValue::as_u64);
                let self_nanos = span.get("self_nanos").and_then(JsonValue::as_u64);
                match (total, self_nanos) {
                    (Some(total), Some(self_nanos)) if total >= self_nanos => {}
                    _ => {
                        println!(
                            "==> span `{}`: inclusive nanos must dominate exclusive nanos",
                            span.get("name").and_then(JsonValue::as_str).unwrap_or("?")
                        );
                        problems += 1;
                    }
                }
            }
            if covered < 6 {
                println!(
                    "==> span profile covers {covered} engine phase(s); the smoke fixture must light up at least 6"
                );
                problems += 1;
            }
        }
        _ => {
            println!("==> span profile has no `spans` array");
            problems += 1;
        }
    }
    let folded_path = path.with_extension("folded");
    match std::fs::read_to_string(&folded_path) {
        Ok(folded) if folded.lines().any(|l| !l.trim().is_empty()) => {}
        Ok(_) => {
            println!(
                "==> collapsed-stack file {} is empty",
                folded_path.display()
            );
            problems += 1;
        }
        Err(err) => {
            println!("==> cannot read {}: {err}", folded_path.display());
            problems += 1;
        }
    }
    problems
}

/// The causal half of the observability pipeline: run the full traced E3
/// convergence sweep, rebuild one provenance DAG per run segment, validate
/// each (acyclic by monotone ids, roots are stage-0 origin advertisements,
/// critical path bounded by the reported stage count), and write the
/// schema-validated summary document to `target/obs/causal.json`. Returns
/// the number of problems found (all printed).
fn run_causal(root: &Path) -> usize {
    use bgpvcg_telemetry::causal::{self, CausalDag};

    let out_dir = root.join("target").join("obs");
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        println!("==> causal: cannot create {}: {err}", out_dir.display());
        return 1;
    }
    let trace_path = out_dir.join("causal-trace.jsonl");
    let trace_arg = trace_path.display().to_string();
    if !run_step(
        root,
        "causal e3 run",
        "cargo",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "bgpvcg-bench",
            "--bin",
            "e3_bgp_convergence",
            "--",
            "--trace-out",
            &trace_arg,
        ],
        false,
    ) {
        return 1;
    }
    let trace = match std::fs::read_to_string(&trace_path) {
        Ok(text) => text,
        Err(err) => {
            println!("==> causal: cannot read {}: {err}", trace_path.display());
            return 1;
        }
    };
    let mut events = Vec::new();
    for (idx, line) in trace.lines().enumerate() {
        match TraceEvent::from_json(line) {
            Ok(event) => events.push(event),
            Err(err) => {
                println!("==> causal: {}:{}: {err}", trace_path.display(), idx + 1);
                return 1;
            }
        }
    }
    let dags = CausalDag::from_events(&events);
    let mut problems = 0usize;
    if dags.is_empty() {
        println!("==> causal: trace produced no run segments");
        problems += 1;
    }
    let mut summaries = Vec::with_capacity(dags.len());
    for (idx, dag) in dags.iter().enumerate() {
        if let Err(err) = dag.validate() {
            println!("==> causal: segment {idx}: {err}");
            problems += 1;
        }
        if let Err(err) = dag.validate_origin_roots() {
            println!("==> causal: segment {idx}: {err}");
            problems += 1;
        }
        summaries.push(dag.summary());
    }
    let doc = causal::summaries_to_json(&summaries);
    if let Err(err) = causal::validate_summary_json(&doc) {
        println!("==> causal: summary document invalid: {err}");
        problems += 1;
    }
    let summary_path = out_dir.join("causal.json");
    if let Err(err) = std::fs::write(&summary_path, &doc) {
        println!("==> causal: cannot write {}: {err}", summary_path.display());
        problems += 1;
    }

    println!("\ncausal provenance ({} run segment(s)):", summaries.len());
    println!("  segment | updates | links | roots | depth | stages | heaviest AS");
    for (idx, s) in summaries.iter().enumerate() {
        let stages = s.reported_stages.map_or("-".to_string(), |v| v.to_string());
        let heaviest = s
            .top_amplifiers
            .first()
            .map_or("-".to_string(), |(node, caused)| {
                format!("{node} ({caused} caused)")
            });
        println!(
            "  {idx:>7} | {:>7} | {:>5} | {:>5} | {:>5} | {stages:>6} | {heaviest}",
            s.updates, s.links, s.roots, s.max_depth
        );
    }
    if let Some(deepest) = summaries.iter().max_by_key(|s| s.max_depth) {
        println!(
            "  deepest causal chain: {} hop(s) through updates {:?}",
            deepest.max_depth, deepest.critical_path
        );
    }
    println!("  summary written to {}", summary_path.display());
    problems
}

/// Path of the checked-in schema BENCH_scale.json must conform to.
const BENCH_SCHEMA: &str = "crates/bench/bench-scale-schema.json";

/// Path of the checked-in schema BENCH_chaos.json must conform to.
const CHAOS_SCHEMA: &str = "crates/bench/bench-chaos-schema.json";

/// Checks one parsed JSON value against a schema type tag (see
/// [`BENCH_SCHEMA`]'s `description` for the vocabulary).
fn bench_type_ok(value: &bgpvcg_telemetry::json::JsonValue, ty: &str) -> bool {
    use bgpvcg_telemetry::json::JsonValue;
    match ty {
        "uint" => matches!(value, JsonValue::UInt(_)),
        "number" => matches!(value, JsonValue::UInt(_) | JsonValue::Float(_)),
        "string" => matches!(value, JsonValue::String(_)),
        "bool" => matches!(value, JsonValue::Bool(_)),
        "array" => matches!(value, JsonValue::Array(_)),
        "object" => matches!(value, JsonValue::Object(_)),
        _ => false,
    }
}

/// Validates one BENCH_scale.json document against the checked-in schema:
/// every `top` key present with its declared type, `rows` non-empty, and
/// every row carrying every `row` key with its declared type. Keys listed
/// under `row_optional` are type-checked only when a row carries them
/// (older committed baselines without them stay valid). Returns the
/// number of problems found (all printed).
fn validate_bench_json(
    label: &str,
    text: &str,
    schema: &bgpvcg_telemetry::json::JsonValue,
) -> usize {
    use bgpvcg_telemetry::json::{parse, JsonValue};
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(err) => {
            println!("==> {label}: does not parse: {err}");
            return 1;
        }
    };
    let mut problems = 0usize;
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
    // Optional row keys: validated when present, absent rows stay valid.
    let check_optional_keys = |row: &JsonValue| {
        let Some(JsonValue::Object(spec)) = schema.get("row_optional") else {
            return 0usize;
        };
        let mut bad = 0usize;
        for (key, ty) in spec {
            let ty = ty.as_str().unwrap_or("");
            if let Some(value) = row.get(key) {
                if !bench_type_ok(value, ty) {
                    println!("==> {label}: optional row key `{key}` is not a {ty}");
                    bad += 1;
                }
            }
        }
        bad
    };
    problems += check_keys(schema.get("top"), &doc, "top");
    match doc.get("rows") {
        Some(JsonValue::Array(rows)) if !rows.is_empty() => {
            for row in rows {
                problems += check_keys(schema.get("row"), row, "row");
                problems += check_optional_keys(row);
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

/// Diffs a freshly generated trajectory against the committed baseline.
/// Every schema-declared field — top-level keys and each row's — must match
/// the baseline exactly, except the row fields the schema lists under
/// `timing` (environment-dependent nanosecond measurements and their
/// ratios). Exactness flags (`exact`) and count fields are thus pinned: a
/// protocol change that shifts stage/message/byte counts fails the diff
/// until the baseline is regenerated deliberately. Returns the number of
/// mismatches (all printed).
fn compare_bench_json(
    label: &str,
    fresh_text: &str,
    baseline_text: &str,
    schema: &bgpvcg_telemetry::json::JsonValue,
) -> usize {
    use bgpvcg_telemetry::json::{parse, JsonValue};
    let (fresh, baseline) = match (parse(fresh_text), parse(baseline_text)) {
        (Ok(f), Ok(b)) => (f, b),
        (Err(err), _) => {
            println!("==> {label}: fresh output does not parse: {err}");
            return 1;
        }
        (_, Err(err)) => {
            println!("==> {label}: baseline does not parse: {err}");
            return 1;
        }
    };
    let timing: Vec<&str> = match schema.get("timing") {
        Some(JsonValue::Array(entries)) => entries.iter().filter_map(JsonValue::as_str).collect(),
        _ => {
            println!("==> {label}: schema has no `timing` exemption list");
            return 1;
        }
    };
    let mut problems = 0usize;
    let render = |v: Option<&JsonValue>| v.map(JsonValue::render);
    if let Some(JsonValue::Object(top)) = schema.get("top") {
        for key in top.keys().filter(|k| k.as_str() != "rows") {
            let (f, b) = (render(fresh.get(key)), render(baseline.get(key)));
            if f != b {
                println!(
                    "==> {label}: top key `{key}` differs: fresh {} vs baseline {}",
                    f.unwrap_or_else(|| "<missing>".into()),
                    b.unwrap_or_else(|| "<missing>".into())
                );
                problems += 1;
            }
        }
    }
    let (Some(JsonValue::Array(fresh_rows)), Some(JsonValue::Array(baseline_rows))) =
        (fresh.get("rows"), baseline.get("rows"))
    else {
        println!("==> {label}: both documents need a `rows` array");
        return problems + 1;
    };
    if fresh_rows.len() != baseline_rows.len() {
        println!(
            "==> {label}: row count differs: fresh {} vs baseline {}",
            fresh_rows.len(),
            baseline_rows.len()
        );
        return problems + 1;
    }
    let Some(JsonValue::Object(row_spec)) = schema.get("row") else {
        println!("==> {label}: schema has no `row` object");
        return problems + 1;
    };
    for (idx, (f_row, b_row)) in fresh_rows.iter().zip(baseline_rows).enumerate() {
        for key in row_spec.keys() {
            if timing.contains(&key.as_str()) {
                continue;
            }
            let (f, b) = (render(f_row.get(key)), render(b_row.get(key)));
            if f != b {
                println!(
                    "==> {label}: row {idx} key `{key}` differs: fresh {} vs baseline {}",
                    f.unwrap_or_else(|| "<missing>".into()),
                    b.unwrap_or_else(|| "<missing>".into())
                );
                problems += 1;
            }
        }
    }
    problems
}

/// Runs one benchmark binary in full (non-smoke) mode into
/// `target/bench/<name>.fresh.json` and diffs the result against the
/// committed repo-root baseline via [`compare_bench_json`]. Returns the
/// number of problems (all printed).
fn compare_against_baseline(
    root: &Path,
    bin: &str,
    baseline_name: &str,
    schema: &bgpvcg_telemetry::json::JsonValue,
) -> usize {
    let out_dir = root.join("target").join("bench");
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        println!("==> compare: cannot create {}: {err}", out_dir.display());
        return 1;
    }
    let fresh_path = out_dir.join(format!("{baseline_name}.fresh.json"));
    let fresh_arg = fresh_path.display().to_string();
    if !run_step(
        root,
        &format!("{bin} full run (compare)"),
        "cargo",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "bgpvcg-bench",
            "--bin",
            bin,
            "--",
            "--out",
            &fresh_arg,
        ],
        false,
    ) {
        return 1;
    }
    let label = format!("{baseline_name}.json compare");
    let fresh_text = match std::fs::read_to_string(&fresh_path) {
        Ok(text) => text,
        Err(err) => {
            println!("==> {label}: cannot read {}: {err}", fresh_path.display());
            return 1;
        }
    };
    let baseline_path = root.join(format!("{baseline_name}.json"));
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(err) => {
            println!(
                "==> {label}: cannot read {}: {err}",
                baseline_path.display()
            );
            return 1;
        }
    };
    let problems = compare_bench_json(&label, &fresh_text, &baseline_text, schema);
    if problems == 0 {
        println!("==> {label}: fresh run matches the committed baseline (timing exempt)");
    }
    problems
}

/// The perf-record pipeline: run E14 (serial vs parallel — the binary
/// itself asserts the two are bit-identical) and validate the emitted
/// JSON against [`BENCH_SCHEMA`]. With `--smoke`, small sizes run into
/// `target/bench/` and the checked-in repo-root `BENCH_scale.json` is
/// validated as well, so CI catches both a broken emitter and a stale or
/// hand-mangled trajectory file. With `--compare`, a fresh full trajectory
/// is diffed field-by-field against the committed baseline (timing exempt).
fn cmd_bench(root: &Path, smoke: bool, compare: bool) -> ExitCode {
    use bgpvcg_telemetry::json;

    let schema_text = match std::fs::read_to_string(root.join(BENCH_SCHEMA)) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("xtask bench: cannot read {BENCH_SCHEMA}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let schema = match json::parse(&schema_text) {
        Ok(schema) => schema,
        Err(err) => {
            eprintln!("xtask bench: {BENCH_SCHEMA} does not parse: {err}");
            return ExitCode::FAILURE;
        }
    };

    let out_path = if smoke {
        let out_dir = root.join("target").join("bench");
        if let Err(err) = std::fs::create_dir_all(&out_dir) {
            eprintln!("xtask bench: cannot create {}: {err}", out_dir.display());
            return ExitCode::FAILURE;
        }
        out_dir.join("BENCH_scale.smoke.json")
    } else {
        root.join("BENCH_scale.json")
    };
    let out_arg = out_path.display().to_string();
    let mut cargo_args = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "bgpvcg-bench",
        "--bin",
        "e14_scale",
        "--",
        "--out",
        &out_arg,
    ];
    if smoke {
        cargo_args.push("--smoke");
    }
    if !run_step(root, "e14 scale run", "cargo", &cargo_args, false) {
        return ExitCode::FAILURE;
    }

    let mut problems = 0usize;
    match std::fs::read_to_string(&out_path) {
        Ok(text) => problems += validate_bench_json("bench output", &text, &schema),
        Err(err) => {
            println!("==> cannot read {}: {err}", out_path.display());
            problems += 1;
        }
    }
    if smoke {
        // The checked-in trajectories must stay schema-valid too.
        let tracked = root.join("BENCH_scale.json");
        match std::fs::read_to_string(&tracked) {
            Ok(text) => problems += validate_bench_json("BENCH_scale.json", &text, &schema),
            Err(err) => {
                println!("==> cannot read {}: {err}", tracked.display());
                problems += 1;
            }
        }
        problems += validate_tracked_chaos(root);
    }
    if compare {
        problems += compare_against_baseline(root, "e14_scale", "BENCH_scale", &schema);
    }

    if problems == 0 {
        println!("\nxtask bench: BENCH_scale.json schema-valid");
        ExitCode::SUCCESS
    } else {
        println!("\nxtask bench: FAILED ({problems} problem(s))");
        ExitCode::FAILURE
    }
}

/// Validates the checked-in repo-root `BENCH_chaos.json` against
/// [`CHAOS_SCHEMA`]; returns the number of problems (all printed).
fn validate_tracked_chaos(root: &Path) -> usize {
    use bgpvcg_telemetry::json;

    let schema_text = match std::fs::read_to_string(root.join(CHAOS_SCHEMA)) {
        Ok(text) => text,
        Err(err) => {
            println!("==> cannot read {CHAOS_SCHEMA}: {err}");
            return 1;
        }
    };
    let schema = match json::parse(&schema_text) {
        Ok(schema) => schema,
        Err(err) => {
            println!("==> {CHAOS_SCHEMA} does not parse: {err}");
            return 1;
        }
    };
    let tracked = root.join("BENCH_chaos.json");
    match std::fs::read_to_string(&tracked) {
        Ok(text) => validate_bench_json("BENCH_chaos.json", &text, &schema),
        Err(err) => {
            println!("==> cannot read {}: {err}", tracked.display());
            1
        }
    }
}

/// The robustness pipeline: run E19 (every run asserts chaos self-stabilizes
/// to the bit-identical fault-free fixpoint before reporting) and validate
/// the emitted JSON against [`CHAOS_SCHEMA`]. With `--smoke`, small sizes
/// run into `target/bench/` and the checked-in repo-root `BENCH_chaos.json`
/// is validated as well. With `--compare`, a fresh full trajectory is
/// diffed field-by-field against the committed baseline (every chaos field
/// is a deterministic count, so nothing is exempt).
fn cmd_chaos(root: &Path, smoke: bool, compare: bool) -> ExitCode {
    use bgpvcg_telemetry::json;

    let schema_text = match std::fs::read_to_string(root.join(CHAOS_SCHEMA)) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("xtask chaos: cannot read {CHAOS_SCHEMA}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let schema = match json::parse(&schema_text) {
        Ok(schema) => schema,
        Err(err) => {
            eprintln!("xtask chaos: {CHAOS_SCHEMA} does not parse: {err}");
            return ExitCode::FAILURE;
        }
    };

    let out_path = if smoke {
        let out_dir = root.join("target").join("bench");
        if let Err(err) = std::fs::create_dir_all(&out_dir) {
            eprintln!("xtask chaos: cannot create {}: {err}", out_dir.display());
            return ExitCode::FAILURE;
        }
        out_dir.join("BENCH_chaos.smoke.json")
    } else {
        root.join("BENCH_chaos.json")
    };
    let out_arg = out_path.display().to_string();
    let mut cargo_args = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "bgpvcg-bench",
        "--bin",
        "e19_chaos",
        "--",
        "--out",
        &out_arg,
    ];
    if smoke {
        cargo_args.push("--smoke");
    }
    if !run_step(root, "e19 chaos run", "cargo", &cargo_args, false) {
        return ExitCode::FAILURE;
    }

    let mut problems = 0usize;
    match std::fs::read_to_string(&out_path) {
        Ok(text) => problems += validate_bench_json("chaos output", &text, &schema),
        Err(err) => {
            println!("==> cannot read {}: {err}", out_path.display());
            problems += 1;
        }
    }
    if smoke {
        problems += validate_tracked_chaos(root);
    }
    if compare {
        problems += compare_against_baseline(root, "e19_chaos", "BENCH_chaos", &schema);
    }

    if problems == 0 {
        println!("\nxtask chaos: BENCH_chaos.json schema-valid");
        ExitCode::SUCCESS
    } else {
        println!("\nxtask chaos: FAILED ({problems} problem(s))");
        ExitCode::FAILURE
    }
}

fn cmd_ci(root: &Path) -> ExitCode {
    let mut ok = true;
    ok &= run_step(root, "format check", "cargo", &["fmt", "--check"], true);
    ok &= cmd_lint(root) == ExitCode::SUCCESS;
    ok &= cmd_analyze(root) == ExitCode::SUCCESS;
    ok &= cmd_audit(root, true) == ExitCode::SUCCESS;
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
    ok &= run_step(
        root,
        "workspace tests",
        "cargo",
        &["test", "-q", "--workspace"],
        false,
    );
    ok &= run_step(
        root,
        "invariant tests",
        "cargo",
        &["test", "-q", "--features", "invariant-checks"],
        false,
    );
    ok &= cmd_obs(root, true, true, true) == ExitCode::SUCCESS;
    ok &= cmd_bench(root, true, true) == ExitCode::SUCCESS;
    ok &= cmd_chaos(root, true, true) == ExitCode::SUCCESS;
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
    ok &= run_step(
        root,
        "codec microbench smoke",
        "cargo",
        &[
            "bench",
            "-q",
            "-p",
            "bgpvcg-bench",
            "--bench",
            "codec",
            "--",
            "--test",
        ],
        false,
    );
    for bench in ["selector", "pricing", "tracer"] {
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
