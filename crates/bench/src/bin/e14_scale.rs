//! E14 (scale) — laptop-scale end-to-end runs of the full pricing protocol,
//! serial vs parallel, with a machine-readable bench trajectory.
//!
//! Not a paper claim per se, but the reproduction's calibration note rates
//! the system "laptop-scale, fully working"; this experiment substantiates
//! that with wall-clock and footprint numbers for the complete pipeline
//! (generation → distributed pricing → verification against the
//! centralized reference) up to 256 ASs on Internet-like topologies.
//!
//! Each configuration runs twice — once on the serial reference engine and
//! once on the deterministic worker pool (`--workers`, default 4) — and the
//! binary asserts the two runs are bit-for-bit identical before timing is
//! even reported (see `docs/PERFORMANCE.md` for the determinism argument).
//! Besides the human table, the run appends to the perf record: a
//! machine-readable `BENCH_scale.json` at the repository root, validated in
//! CI by `cargo xtask bench --smoke` against
//! `crates/bench/bench-scale-schema.json`. The JSON holds only
//! deterministic counts, so `cargo xtask bench --compare` is exact on
//! every field; the wall-clock figures are printed in the table alone.
//!
//! Each serial run additionally carries the streaming health monitor
//! (honest scale runs must raise zero SLO findings) and the zero-alloc
//! span profiler; the sweep-merged profile lands in the `--obs-out`
//! bundle.
//!
//! Flags:
//!
//! * `--smoke` — small sizes (n ∈ {32, 64}) for CI; same schema.
//! * `--out PATH` — where to write the JSON (default: repo-root
//!   `BENCH_scale.json`).
//! * `--workers K` — parallel worker count (default 4).
//! * `--obs-out DIR` — the shared observability bundle (see
//!   `bgpvcg_bench::obs`).
//!
//! Regenerate with: `cargo run --release -p bgpvcg-bench --bin e14_scale`

use bgpvcg_bench::families::Family;
use bgpvcg_bench::obs::ObsConfig;
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::{wire, ProtocolNode};
use bgpvcg_core::{protocol, vcg};
use bgpvcg_telemetry::{HealthConfig, SpanProfiler};
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// One family × size measurement: the deterministic counts of one
/// `BENCH_scale.json` row.
struct Row {
    family: &'static str,
    n: usize,
    links: usize,
    stages: usize,
    messages: usize,
    bytes_v2: usize,
    exact: bool,
}

struct Config {
    smoke: bool,
    out: PathBuf,
    workers: usize,
}

fn usage() -> ! {
    eprintln!("usage: e14_scale [--smoke] [--out PATH] [--workers K] [--obs-out DIR]");
    exit(2);
}

fn parse_args() -> (Config, ObsConfig) {
    // Default output is the repo root regardless of the invoking cwd.
    let mut config = Config {
        smoke: false,
        out: PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_scale.json"
        )),
        workers: 4,
    };
    let (obs, rest) = ObsConfig::extract(std::env::args().skip(1));
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => config.smoke = true,
            "--out" => match args.next() {
                Some(path) => config.out = PathBuf::from(path),
                None => {
                    eprintln!("`--out` requires a PATH argument");
                    usage();
                }
            },
            "--workers" => match args.next().and_then(|k| k.parse().ok()) {
                Some(k) if k >= 1 => config.workers = k,
                _ => {
                    eprintln!("`--workers` requires a positive integer");
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

/// Hand-written JSON emission (the workspace has no serde implementation);
/// the shape is pinned by `crates/bench/bench-scale-schema.json` and
/// validated by `cargo xtask bench`.
fn render_json(config: &Config, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if config.smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"workers\": {},\n", config.workers));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"links\": {}, \"stages\": {}, \
             \"messages\": {}, \"bytes_v2\": {}, \"exact\": {}}}{}\n",
            row.family,
            row.n,
            row.links,
            row.stages,
            row.messages,
            row.bytes_v2,
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
    println!("E14 — end-to-end scale on Internet-like topologies\n");
    let mut sweep_profile = SpanProfiler::engine();
    let sizes: &[usize] = if config.smoke {
        &[32, 64]
    } else {
        &[64, 128, 192, 256]
    };
    let mut rows = Vec::new();
    let mut table = Table::new([
        "family",
        "n",
        "links",
        "stages",
        "messages",
        "MiB v2",
        "serial (s)",
        "parallel (s)",
        "speedup",
        "encode v2 (ms)",
        "verify vs centralized (s)",
        "exact",
    ]);
    for family in [Family::BarabasiAlbert, Family::Hierarchy] {
        for &n in sizes {
            let g = family.build(n, 61);

            // lint:allow(bench wall-clock timing is the measurement itself, not protocol state)
            let t0 = Instant::now();
            let mut engine = protocol::build_sync_engine(&g).expect("valid graph");
            engine.attach_telemetry(obs.telemetry());
            engine.attach_health(HealthConfig::default());
            engine.attach_profiler();
            let serial_report = engine.run_to_convergence();
            // Honest scale runs are the SLO baseline: zero findings.
            let findings = engine.health_sink().expect("health attached").findings();
            assert!(
                findings.is_empty(),
                "{} n={n}: honest run raised health findings: {findings:?}",
                family.name()
            );
            sweep_profile.merge(&engine.take_profiler().expect("profiler attached"));
            let serial_nodes = engine.into_nodes();
            let serial_outcome = protocol::outcome_from_nodes(&serial_nodes).expect("converged");
            let serial_time = t0.elapsed();
            assert!(serial_report.converged);

            // Encode-cost microfigure: v2-encode every node's full
            // converged table through one reused scratch buffer — the
            // hot-path encoder the engines run on every broadcast.
            let mut scratch = Vec::new();
            let mut encoded = 0usize;
            // lint:allow(bench wall-clock timing is the measurement itself, not protocol state)
            let t0 = Instant::now();
            for node in &serial_nodes {
                if let Some(tbl) = node.full_table() {
                    encoded += wire::update_size_v2_with(&mut scratch, &tbl);
                }
            }
            let encode_time = t0.elapsed();
            assert!(encoded > 0);

            // lint:allow(bench wall-clock timing is the measurement itself, not protocol state)
            let t0 = Instant::now();
            let parallel = protocol::run_sync_parallel(&g, config.workers).expect("valid graph");
            let parallel_time = t0.elapsed();

            // Determinism gate: the worker pool must be bit-for-bit
            // identical to the serial reference before timing counts.
            assert_eq!(serial_report, parallel.report, "{} n={n}", family.name());
            assert_eq!(serial_outcome, parallel.outcome, "{} n={n}", family.name());

            // lint:allow(bench wall-clock timing is the measurement itself, not protocol state)
            let t0 = Instant::now();
            let reference = vcg::compute(&g).unwrap();
            let exact = serial_outcome == reference;
            let verify_time = t0.elapsed();

            let row = Row {
                family: family.name(),
                n,
                links: g.link_count(),
                stages: serial_report.stages,
                messages: serial_report.messages,
                bytes_v2: serial_report.bytes_v2,
                exact,
            };
            table.row([
                row.family.to_string(),
                n.to_string(),
                row.links.to_string(),
                row.stages.to_string(),
                row.messages.to_string(),
                format!("{:.1}", row.bytes_v2 as f64 / (1024.0 * 1024.0)),
                format!("{:.2}", serial_time.as_secs_f64()),
                format!("{:.2}", parallel_time.as_secs_f64()),
                format!(
                    "{:.2}x",
                    serial_time.as_secs_f64() / parallel_time.as_secs_f64()
                ),
                format!("{:.2}", encode_time.as_secs_f64() * 1000.0),
                format!("{:.2}", verify_time.as_secs_f64()),
                exact.to_string(),
            ]);
            assert!(exact, "{} n={n}", family.name());
            rows.push(row);
        }
    }
    println!("{table}");
    let json = render_json(&config, &rows);
    std::fs::write(&config.out, json)
        .unwrap_or_else(|err| panic!("cannot write {}: {err}", config.out.display()));
    println!("\nwrote {}", config.out.display());
    obs.write_profile(&sweep_profile);
    obs.finish();
    println!(
        "\nVERDICT: the full pipeline (distributed pricing + centralized verification) runs \
         to exact agreement at n = 256 in seconds on commodity hardware; parallel runs are \
         asserted bit-identical to serial (speedup is hardware-dependent — see \
         docs/PERFORMANCE.md)"
    );
}
