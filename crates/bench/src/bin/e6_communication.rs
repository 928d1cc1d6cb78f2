//! E6 — Sect. 5/6: communication overhead of the price extension.
//!
//! Measures total messages, carried table entries, and encoded wire bytes
//! to convergence for plain BGP vs the pricing extension on identical
//! topologies. The paper claims a "corresponding constant-factor increase
//! in the communication requirements of BGP" (costs and prices ride inside
//! the existing routing message exchanges; no new messages).
//!
//! All traffic figures are per-run deltas of the shared registry's
//! `bgp_messages_total` / `bgp_bytes_total` counters (see
//! `docs/OBSERVABILITY.md`), cross-checked against the engine reports.
//!
//! Regenerate with: `cargo run -p bgpvcg-bench --bin e6_communication`
//! Optional: `--obs-out DIR` (trace and metrics; see `bgpvcg_bench::obs`).

use bgpvcg_bench::families::Family;
use bgpvcg_bench::obs::ObsConfig;
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::engine::{RunReport, SyncEngine};
use bgpvcg_bgp::telemetry::metric;
use bgpvcg_bgp::PlainBgpNode;
use bgpvcg_bgp::ProtocolNode;
use bgpvcg_core::PricingBgpNode;
use bgpvcg_netgraph::AsGraph;

/// Runs `nodes` to convergence with telemetry attached and returns the
/// `(messages, bytes)` the run added to the shared registry.
fn measured_run<N: ProtocolNode>(
    g: &AsGraph,
    nodes: Vec<N>,
    obs: &ObsConfig,
) -> (u64, u64, RunReport) {
    let telemetry = obs.telemetry();
    let (messages, bytes) = (
        telemetry.counter(metric::MESSAGES),
        telemetry.counter(metric::BYTES),
    );
    let (m0, b0) = (messages.get(), bytes.get());
    let mut engine = SyncEngine::new(g, nodes);
    engine.attach_telemetry(telemetry);
    let report = engine.run_to_convergence();
    let (m, b) = (messages.get() - m0, bytes.get() - b0);
    assert_eq!(m, report.messages as u64);
    assert_eq!(b, report.bytes_v2 as u64);
    (m, b, report)
}

fn main() {
    let obs = ObsConfig::from_args();
    println!("E6 — communication to convergence: pricing vs plain BGP\n");
    let sizes = [16usize, 32, 64, 128];
    let mut table = Table::new([
        "family",
        "n",
        "plain msgs",
        "priced msgs",
        "msg factor",
        "plain KiB",
        "priced KiB",
        "byte factor",
    ]);
    let mut worst_byte_factor = 0.0f64;
    for family in Family::ALL {
        for &n in &sizes {
            let g = family.build(n, 19);
            let (plain_msgs, plain_bytes, plain_report) =
                measured_run(&g, PlainBgpNode::from_graph(&g), &obs);
            let (priced_msgs, priced_bytes, priced_report) =
                measured_run(&g, PricingBgpNode::from_graph(&g), &obs);
            assert!(plain_report.converged && priced_report.converged);

            let msg_factor = priced_msgs as f64 / plain_msgs as f64;
            let byte_factor = priced_bytes as f64 / plain_bytes as f64;
            worst_byte_factor = worst_byte_factor.max(byte_factor);
            table.row([
                family.name().to_string(),
                n.to_string(),
                plain_msgs.to_string(),
                priced_msgs.to_string(),
                format!("{msg_factor:.2}"),
                (plain_bytes / 1024).to_string(),
                (priced_bytes / 1024).to_string(),
                format!("{byte_factor:.2}"),
            ]);
        }
    }
    println!("{table}");
    println!("Paper claim: constant-factor communication increase (no new message types).");
    println!(
        "\nVERDICT: worst byte factor {worst_byte_factor:.2}x — {}",
        if worst_byte_factor < 8.0 {
            "bounded constant factor, as claimed (price relaxation adds extra rounds of the same messages)"
        } else {
            "factor grows suspiciously"
        }
    );
    obs.finish();
    assert!(worst_byte_factor < 8.0);
}
