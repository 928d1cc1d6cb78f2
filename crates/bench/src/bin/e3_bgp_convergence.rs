//! E3 — Sect. 5: plain BGP converges within `d` stages.
//!
//! Runs the price-free path-vector protocol on every family across a size
//! sweep and compares the measured synchronous stage count against the LCP
//! hop diameter `d`, the paper's bound. Also reports the per-stage per-link
//! message load the paper bounds by `O(nd)` entries.
//!
//! All table figures are sourced from the shared telemetry registry
//! (`bgp_messages_total` deltas, the `bgp_stages_to_quiescence` gauge —
//! see `docs/OBSERVABILITY.md`), cross-checked against the engine report.
//! Each run's event stream is additionally rebuilt into its causal
//! provenance DAG (`bgpvcg_telemetry::causal`): it must be a single valid
//! segment rooted at exactly `n` origin advertisements whose critical
//! path is bounded by the engine's own stage count; the table reports the
//! measured causal depth next to the stage count.
//!
//! Every run also carries the convergence health monitor (honest sweeps
//! must raise zero SLO findings) and the span profiler; the merged profile
//! and the final run's health report land in the `--obs-out` bundle.
//!
//! Regenerate with: `cargo run -p bgpvcg-bench --bin e3_bgp_convergence`
//! Optional: `--obs-out DIR` (trace, metrics, health, profile; see
//! `bgpvcg_bench::obs`).

use bgpvcg_bench::families::Family;
use bgpvcg_bench::obs::ObsConfig;
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::engine::SyncEngine;
use bgpvcg_bgp::telemetry::metric;
use bgpvcg_bgp::PlainBgpNode;
use bgpvcg_lcp::{diameter, AllPairsLcp};
use bgpvcg_telemetry::{CausalDag, HealthConfig, RingBufferSink, SpanProfiler, TraceSink};
use std::sync::Arc;

fn main() {
    let obs = ObsConfig::from_args();
    let telemetry = obs.telemetry();
    println!("E3 — Sect. 5: plain BGP computes all LCPs within d synchronous stages\n");
    let sizes = [16usize, 32, 64, 128];
    let mut table = Table::new([
        "family",
        "n",
        "links",
        "d (LCP diameter)",
        "stages",
        "stages <= d",
        "causal depth",
        "total msgs",
        "total entries",
    ]);
    let messages = telemetry.counter(metric::MESSAGES);
    let entries = telemetry.counter(metric::ENTRIES);
    let stages_gauge = telemetry.gauge(metric::STAGES_TO_QUIESCENCE);
    let mut all_within = true;
    let mut sweep_profile = SpanProfiler::engine();
    let mut last_health = None;
    for family in Family::ALL {
        for &n in &sizes {
            let g = family.build(n, 11);
            let lcp = AllPairsLcp::compute(&g);
            let d = diameter::lcp_hop_diameter(&lcp);
            let mut engine = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
            // Tee this run's events into a private ring (the shared
            // registry and any bundle trace still see everything) so
            // the causal DAG can be rebuilt and checked per run.
            let ring = Arc::new(RingBufferSink::new(1 << 16));
            let traced = telemetry.tee(Arc::clone(&ring) as Arc<dyn TraceSink>);
            engine.attach_telemetry(&traced);
            engine.attach_health(HealthConfig::default());
            engine.attach_profiler();
            let (messages_before, entries_before) = (messages.get(), entries.get());
            let report = engine.run_to_convergence();
            assert!(report.converged, "{} n={n}", family.name());
            // Honest convergence is the SLO baseline: zero findings.
            let health = engine.health_sink().expect("health attached").snapshot();
            assert!(
                health.findings().is_empty(),
                "{} n={n}: honest run raised health findings: {:?}",
                family.name(),
                health.findings()
            );
            last_health = Some(health);
            sweep_profile.merge(&engine.take_profiler().expect("profiler attached"));
            // The registry is the source of truth for the table; the engine
            // report must agree (observation is non-perturbing).
            let run_messages = messages.get() - messages_before;
            let run_entries = entries.get() - entries_before;
            let stages = stages_gauge.get() as usize;
            assert_eq!(run_messages, report.messages as u64);
            assert_eq!(run_entries, report.entries as u64);
            assert_eq!(stages, report.stages);
            let within = stages <= d;
            all_within &= within;
            // The causal provenance DAG of the run must be a single valid
            // segment: acyclic, rooted at exactly the n stage-0 origin
            // advertisements, with no causal chain outrunning the stage
            // count the engine itself reported.
            let dags = CausalDag::from_events(&ring.events());
            assert_eq!(
                dags.len(),
                1,
                "{} n={n}: one run, one segment",
                family.name()
            );
            let dag = &dags[0];
            dag.validate()
                .unwrap_or_else(|err| panic!("{} n={n}: {err}", family.name()));
            dag.validate_origin_roots()
                .unwrap_or_else(|err| panic!("{} n={n}: {err}", family.name()));
            assert_eq!(
                dag.roots().len(),
                n,
                "{} n={n}: one origin root per AS",
                family.name()
            );
            let depth = dag.critical_path().len().saturating_sub(1);
            assert!(
                depth <= stages,
                "{} n={n}: causal depth {depth} exceeds {stages} stages",
                family.name()
            );
            // Spot-check the routes themselves.
            for i in g.nodes().take(4) {
                for j in g.nodes().take(4) {
                    assert_eq!(
                        engine.node(i).selector().route(j).as_ref(),
                        lcp.route(i, j),
                        "{} n={n}: {i}->{j}",
                        family.name()
                    );
                }
            }
            table.row([
                family.name().to_string(),
                n.to_string(),
                g.link_count().to_string(),
                d.to_string(),
                stages.to_string(),
                within.to_string(),
                depth.to_string(),
                run_messages.to_string(),
                run_entries.to_string(),
            ]);
        }
    }
    println!("{table}");
    if let Some(health) = &last_health {
        obs.write_health(health);
    }
    obs.write_profile(&sweep_profile);
    println!("Paper claim: \"BGP converges within d stages of computation\".");
    println!(
        "\nVERDICT: {}",
        if all_within {
            "every run converged within d stages"
        } else {
            "BOUND VIOLATED"
        }
    );
    obs.finish();
    assert!(all_within);
}
