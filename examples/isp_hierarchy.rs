//! An Internet-like two-tier ISP hierarchy with gravity-model traffic.
//!
//! Generates a transit core + multi-homed stub topology, runs the pricing
//! protocol, settles a gravity-model traffic matrix into per-AS payments
//! (Sect. 6.4 of the paper), and reports who earns what and how much the
//! VCG premium (Sect. 7 overcharging) costs the network.
//!
//! Run with: `cargo run --example isp_hierarchy`

use bgp_vcg::core::accounting::PaymentLedger;
use bgp_vcg::core::overcharge::OverchargeReport;
use bgp_vcg::netgraph::generators::{hierarchy, HierarchyConfig};
use bgp_vcg::{protocol, AsId, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut rng = StdRng::seed_from_u64(2002); // the year of the paper
    let config = HierarchyConfig {
        core_size: 5,
        stub_count: 25,
        core_cost: (1, 3),
        stub_cost: (4, 10),
    };
    let graph = hierarchy(config, &mut rng);
    println!(
        "Two-tier ISP topology: {} core ASs (full mesh), {} stubs (dual-homed), {} links.",
        config.core_size,
        config.stub_count,
        graph.link_count()
    );

    let run = protocol::run_sync(&graph)?;
    println!(
        "Pricing protocol converged in {} stages, {} messages, {} KiB.\n",
        run.report.stages,
        run.report.messages,
        run.report.bytes_v2 / 1024
    );

    // Gravity-model interdomain traffic (real matrices are proprietary).
    let traffic = TrafficMatrix::gravity(graph.node_count(), 20, &mut rng);
    let ledger = PaymentLedger::settle(&run.outcome, &traffic)?;

    println!("Top transit earners (payment vs. incurred cost):");
    let mut rows: Vec<(AsId, u128, u128)> = graph
        .nodes()
        .map(|k| (k, ledger.payment(k), ledger.incurred_cost(k, graph.cost(k))))
        .collect();
    rows.sort_by_key(|&(_, p, _)| std::cmp::Reverse(p));
    println!(
        "  {:<6} {:>12} {:>12} {:>10}",
        "AS", "paid", "cost", "profit"
    );
    for (k, paid, cost) in rows.iter().take(8) {
        let role = if k.index() < config.core_size {
            "core"
        } else {
            "stub"
        };
        println!(
            "  {:<6} {:>12} {:>12} {:>10}   ({role})",
            k.to_string(),
            paid,
            cost,
            *paid as i128 - *cost as i128
        );
    }

    // Every stub that carries no transit traffic must be paid nothing —
    // the normalization that makes the mechanism unique (Theorem 1).
    let unpaid_nontransit = graph
        .nodes()
        .filter(|&k| ledger.packets_carried(k) == 0 && ledger.payment(k) == 0)
        .count();
    println!("\n{unpaid_nontransit} ASs carried no transit traffic and were paid exactly 0.");

    let report = OverchargeReport::analyze(&run.outcome);
    let (payments, costs) = report.totals();
    println!(
        "Overcharging: per-packet payments total {payments} against true path costs {costs} \
         (max pair ratio {:.2}).",
        report.max_ratio().unwrap_or(f64::NAN)
    );
    Ok(())
}
