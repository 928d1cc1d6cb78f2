//! E19 (chaos) — seeded fault injection over the full pricing protocol,
//! with a machine-readable recovery trajectory.
//!
//! Every benchmark topology family runs under two fault scenarios:
//!
//! * **lossy** — stochastic drop/duplicate/delay on every inter-node
//!   channel until the fault horizon;
//! * **crash** — the same lossy channels plus one node crash (total state
//!   loss) and later restart (rejoin from scratch);
//! * **flap** — the same lossy channels plus one link that silently eats
//!   every frame for longer than the hold timer, so both endpoints declare
//!   the neighbor dead (implicit withdrawal) and must re-establish when
//!   the window closes.
//!
//! Each run is driven by the chaos harness's sequenced session layer
//! (ack/retransmit, hold timers, epoch resets — see `docs/ROBUSTNESS.md`)
//! and is compared bit-for-bit against the fault-free synchronous fixpoint:
//! the `exact` column is the self-stabilization claim, asserted before the
//! row is even reported. Every fault schedule derives from a single `u64`
//! seed, so any row reproduces exactly with `--seed S`.
//!
//! Besides the human table, the run writes the machine-readable
//! `BENCH_chaos.json` at the repository root, validated in CI by
//! `cargo xtask chaos --smoke` against `crates/bench/bench-chaos-schema.json`.
//!
//! Every field of the JSON is a deterministic count, so `cargo xtask chaos
//! --compare` is exact on every field.
//!
//! Every run also carries the streaming health monitor and the span
//! profiler: the table reports how many SLO findings the fault schedule
//! provoked, and the sweep-merged profile and the last health report land
//! in the `--obs-out` bundle.
//!
//! Flags:
//!
//! * `--smoke` — small sizes and fewer seeds for CI; same schema.
//! * `--seed S` — replay mode: run only fault seed `S` (all families and
//!   scenarios), printing each full `ChaosReport`.
//! * `--out PATH` — where to write the JSON (default: repo-root
//!   `BENCH_chaos.json`).
//! * `--obs-out DIR` — the shared observability bundle
//!   (`bgpvcg_bench::obs`). It also attaches a divergence flight recorder
//!   to every run: if a run ever exhausts the stage budget instead of
//!   stabilizing, the last trace events and per-node session state are
//!   dumped to the bundle's `flight.json` as a schema-valid post-mortem
//!   (see `docs/OBSERVABILITY.md`). Converged runs leave no dump.
//!
//! Regenerate with: `cargo run --release -p bgpvcg-bench --bin e19_chaos`

use bgpvcg_bench::families::Family;
use bgpvcg_bench::obs::{ObsConfig, FLIGHT};
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::chaos::FaultPlan;
use bgpvcg_core::protocol;
use bgpvcg_netgraph::AsId;
use bgpvcg_telemetry::{HealthConfig, SpanProfiler};
use std::path::PathBuf;
use std::process::exit;

/// Stage budget per run; self-stabilization lands far below this.
const MAX_STAGES: u64 = 5_000;

/// Stochastic faults cease after this stage (crash/restart are scheduled
/// inside the window).
const HORIZON: u64 = 16;

/// One family × size × seed × scenario measurement.
struct Row {
    family: &'static str,
    n: usize,
    seed: u64,
    scenario: &'static str,
    stages: u64,
    recovery_stages: u64,
    messages: u64,
    bytes_v2: u64,
    frames_dropped: u64,
    frames_duplicated: u64,
    frames_delayed: u64,
    retransmits: u64,
    session_resets: u64,
    holds_fired: u64,
    crashes: u64,
    restarts: u64,
    exact: bool,
}

struct Config {
    smoke: bool,
    seed: Option<u64>,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!("usage: e19_chaos [--smoke] [--seed S] [--out PATH] [--obs-out DIR]");
    exit(2);
}

fn parse_args() -> (Config, ObsConfig) {
    let mut config = Config {
        smoke: false,
        seed: None,
        out: PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_chaos.json"
        )),
    };
    let (obs, rest) = ObsConfig::extract(std::env::args().skip(1));
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => config.smoke = true,
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => config.seed = Some(seed),
                None => {
                    eprintln!("`--seed` requires a u64 argument");
                    usage();
                }
            },
            "--out" => match args.next() {
                Some(path) => config.out = PathBuf::from(path),
                None => {
                    eprintln!("`--out` requires a PATH argument");
                    usage();
                }
            },
            _ => {
                eprintln!("unknown argument `{arg}`");
                usage();
            }
        }
    }
    (config, obs)
}

/// Builds the fault plan for one (seed, scenario) cell. The crash victim
/// and flapped link are seed-derived so replaying a seed replays the whole
/// schedule.
fn plan_for(scenario: &str, seed: u64, n: usize, link: (AsId, AsId)) -> FaultPlan {
    let lossy = FaultPlan::lossy(seed, HORIZON);
    match scenario {
        "lossy" => lossy,
        "crash" => lossy.with_crash(4, AsId::new((seed % n as u64) as u32), 11),
        // The window exceeds the hold timer, so both endpoints time the
        // link out before it heals.
        "flap" => lossy.with_flap(2, HORIZON + 10, link.0, link.1),
        other => unreachable!("unknown scenario {other}"),
    }
}

/// Hand-written JSON emission (the workspace has no serde implementation);
/// the shape is pinned by `crates/bench/bench-chaos-schema.json` and
/// validated by `cargo xtask chaos`.
fn render_json(config: &Config, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if config.smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"horizon\": {HORIZON},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"seed\": {}, \"scenario\": \"{}\", \
             \"stages\": {}, \"recovery_stages\": {}, \"messages\": {}, \
             \"bytes_v2\": {}, \
             \"frames_dropped\": {}, \"frames_duplicated\": {}, \"frames_delayed\": {}, \
             \"retransmits\": {}, \"session_resets\": {}, \"holds_fired\": {}, \
             \"crashes\": {}, \"restarts\": {}, \"exact\": {}}}{}\n",
            row.family,
            row.n,
            row.seed,
            row.scenario,
            row.stages,
            row.recovery_stages,
            row.messages,
            row.bytes_v2,
            row.frames_dropped,
            row.frames_duplicated,
            row.frames_delayed,
            row.retransmits,
            row.session_resets,
            row.holds_fired,
            row.crashes,
            row.restarts,
            row.exact,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let (config, obs) = parse_args();
    println!("E19 — seeded chaos: self-stabilization of the pricing protocol\n");
    let mut sweep_profile = SpanProfiler::engine();
    let mut last_health = None;
    let mut total_findings = 0usize;
    let sizes: &[usize] = if config.smoke { &[8] } else { &[16, 32] };
    let seeds: Vec<u64> = match config.seed {
        Some(seed) => vec![seed],
        None if config.smoke => vec![1, 2],
        None => vec![1, 2, 3, 4],
    };
    let mut rows = Vec::new();
    let mut table = Table::new([
        "family",
        "n",
        "seed",
        "scenario",
        "stages",
        "recovery",
        "dropped",
        "retransmits",
        "resets",
        "holds",
        "health findings",
        "exact",
    ]);
    for family in Family::ALL {
        for &n in sizes {
            let g = family.build(n, 0xE19 ^ n as u64);
            let reference = protocol::run_sync(&g).expect("valid graph").outcome;
            for &seed in &seeds {
                for scenario in ["lossy", "crash", "flap"] {
                    let link = g.links()[seed as usize % g.link_count()];
                    let plan = plan_for(scenario, seed, n, (link.a(), link.b()));
                    let mut engine = protocol::build_chaos_engine(&g, plan).expect("valid graph");
                    engine.attach_telemetry(obs.telemetry());
                    if obs.dir().is_some() {
                        // With a flight recorder attached, a stage-budget
                        // overrun leaves a post-mortem dump before the
                        // assert below aborts the sweep.
                        engine.attach_flight_recorder(&obs.flight_path(FLIGHT), 256);
                    }
                    engine.attach_health(HealthConfig::default());
                    engine.attach_profiler();
                    let report = engine.run_to_stable(MAX_STAGES);
                    assert!(
                        report.converged,
                        "{} n={n} seed={seed} {scenario}: did not quiesce: {report}",
                        family.name()
                    );
                    // Fault schedules may legitimately provoke SLO findings
                    // (that is the monitor doing its job); report, don't
                    // assert — but a *stall* verdict on a run that
                    // stabilized would be a detector bug.
                    let health = engine.health_sink().expect("health attached").snapshot();
                    assert!(
                        !health.stalled(),
                        "{} n={n} seed={seed} {scenario}: stabilized run flagged as stalled",
                        family.name()
                    );
                    let findings = health.findings().len();
                    total_findings += findings;
                    last_health = Some(health);
                    sweep_profile.merge(&engine.take_profiler().expect("profiler attached"));
                    let nodes = engine.into_nodes();
                    let outcome = protocol::outcome_from_nodes(&nodes)
                        .expect("converged nodes have priced routes");
                    let exact = outcome == reference;
                    assert!(
                        exact,
                        "{} n={n} seed={seed} {scenario}: fixpoint differs from fault-free run",
                        family.name()
                    );
                    if config.seed.is_some() {
                        println!("{} n={n} {scenario}: {report}", family.name());
                    }
                    table.row([
                        family.name().to_string(),
                        n.to_string(),
                        seed.to_string(),
                        scenario.to_string(),
                        report.stages.to_string(),
                        report.recovery_stages.to_string(),
                        report.frames_dropped.to_string(),
                        report.retransmits.to_string(),
                        report.session_resets.to_string(),
                        report.holds_fired.to_string(),
                        findings.to_string(),
                        exact.to_string(),
                    ]);
                    rows.push(Row {
                        family: family.name(),
                        n,
                        seed,
                        scenario,
                        stages: report.stages,
                        recovery_stages: report.recovery_stages,
                        messages: report.messages,
                        bytes_v2: report.bytes_v2,
                        frames_dropped: report.frames_dropped,
                        frames_duplicated: report.frames_duplicated,
                        frames_delayed: report.frames_delayed,
                        retransmits: report.retransmits,
                        session_resets: report.session_resets,
                        holds_fired: report.holds_fired,
                        crashes: report.crashes,
                        restarts: report.restarts,
                        exact,
                    });
                }
            }
        }
    }
    println!("{table}");
    let json = render_json(&config, &rows);
    std::fs::write(&config.out, json)
        .unwrap_or_else(|err| panic!("cannot write {}: {err}", config.out.display()));
    println!("\nwrote {}", config.out.display());
    if let Some(health) = &last_health {
        obs.write_health(health);
    }
    obs.write_profile(&sweep_profile);
    obs.finish();
    println!("health: {total_findings} SLO finding(s) across the fault sweep, 0 stall verdicts");
    println!(
        "\nVERDICT: under every seeded fault schedule (loss, duplication, reordering \
         delays, node crash/restart) the protocol self-stabilizes to the bit-identical \
         fault-free (routes, prices) fixpoint; recovery costs a bounded number of \
         retransmit/hold rounds past the fault horizon (see docs/ROBUSTNESS.md)"
    );
}
