//! E4 — Lemma 2 / Corollary 1 / Theorem 2: the pricing protocol converges
//! within `max(d, d′)` stages to exactly the VCG prices.
//!
//! For every family and size, runs the full pricing protocol, verifies the
//! distributed outcome equals the centralized Theorem-1 computation
//! bit-for-bit, and compares the stage count against the paper's
//! `max(d, d′)` bound.
//!
//! Stage counts are sourced from the telemetry registry's
//! `bgp_stages_to_quiescence` gauge, set by the engine at quiescence
//! (see `docs/OBSERVABILITY.md`), and cross-checked against the report.
//!
//! Regenerate with: `cargo run -p bgpvcg-bench --bin e4_price_convergence`
//! Optional: `--obs-out DIR` (trace and metrics; see `bgpvcg_bench::obs`).

use bgpvcg_bench::families::Family;
use bgpvcg_bench::obs::ObsConfig;
use bgpvcg_bench::table::Table;
use bgpvcg_bgp::telemetry::metric;
use bgpvcg_core::{protocol, vcg};
use bgpvcg_lcp::avoiding::AvoidanceTable;
use bgpvcg_lcp::{diameter, AllPairsLcp};

fn main() {
    let obs = ObsConfig::from_args();
    let telemetry = obs.telemetry();
    println!("E4 — Theorem 2: VCG prices computed exactly, within max(d, d') stages\n");
    let sizes = [16usize, 32, 64];
    let mut table = Table::new([
        "family",
        "n",
        "d",
        "d'",
        "max(d,d')",
        "stages",
        "within bound",
        "prices exact",
    ]);
    let mut all_ok = true;
    for family in Family::ALL {
        for &n in &sizes {
            let g = family.build(n, 13);
            let lcp = AllPairsLcp::compute(&g);
            let avoidance = AvoidanceTable::compute_fast(&g, &lcp);
            let d = diameter::lcp_hop_diameter(&lcp);
            let dprime = diameter::avoiding_hop_diameter(&avoidance);
            let bound = d.max(dprime);

            let mut engine =
                protocol::build_sync_engine(&g).expect("family graphs are biconnected");
            engine.attach_telemetry(telemetry);
            let report = engine.run_to_convergence();
            let outcome = protocol::outcome_from_nodes(&engine.into_nodes())
                .expect("a converged run has every price");
            let reference =
                vcg::from_parts(&g, &lcp, &avoidance).expect("family graphs are biconnected");
            let exact = outcome == reference;
            let stages = telemetry.gauge(metric::STAGES_TO_QUIESCENCE).get() as usize;
            assert_eq!(stages, report.stages, "gauge mirrors the report");
            let within = stages <= bound;
            all_ok &= exact && within && report.converged;

            table.row([
                family.name().to_string(),
                n.to_string(),
                d.to_string(),
                dprime.to_string(),
                bound.to_string(),
                stages.to_string(),
                within.to_string(),
                exact.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!("Paper claim: \"computes the VCG prices correctly ... and converges in at most max(d, d') stages\".");
    println!(
        "\nVERDICT: {}",
        if all_ok {
            "distributed prices exact and within the stage bound on every run"
        } else {
            "CLAIM VIOLATED"
        }
    );
    obs.finish();
    assert!(all_ok);
}
