//! Quickstart: the paper's Fig. 1 network, end to end.
//!
//! Builds the six-AS example graph from Sect. 4 of the paper, runs the
//! BGP-based pricing protocol to convergence, verifies it against the
//! centralized Theorem-1 computation, and prints the routes and per-packet
//! prices — including the two worked examples (X→Z and the overcharged
//! Y→Z).
//!
//! Run with: `cargo run --example quickstart`

use bgp_vcg::netgraph::generators::structured::{fig1, Fig1};
use bgp_vcg::{protocol, vcg};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let graph = fig1();
    println!("The paper's Fig. 1 AS graph:");
    println!("{graph}");

    // Distributed computation: every AS is a BGP speaker; prices ride in
    // the routing updates.
    let run = protocol::run_sync(&graph)?;
    println!(
        "Pricing protocol converged in {} stages ({} messages, {} bytes).",
        run.report.stages, run.report.messages, run.report.bytes_v2
    );

    // Cross-check against the centralized Theorem-1 reference.
    let reference = vcg::compute(&graph)?;
    assert_eq!(
        run.outcome, reference,
        "Theorem 2: the protocol computes VCG prices"
    );
    println!("Distributed prices match the centralized VCG computation exactly.\n");

    let names = ["X", "A", "Z", "D", "B", "Y"];
    println!("All routes and per-packet transit prices:");
    for (i, j, pair) in run.outcome.pairs() {
        let path: Vec<&str> = pair
            .route()
            .nodes()
            .iter()
            .map(|k| names[k.index()])
            .collect();
        let prices: Vec<String> = pair
            .prices()
            .map(|(k, p)| format!("{}={p}", names[k.index()]))
            .collect();
        println!(
            "  {} -> {}: {:<14} cost {:<3} prices [{}]",
            names[i.index()],
            names[j.index()],
            path.join(" "),
            pair.transit_cost().to_string(),
            prices.join(", ")
        );
    }

    println!("\nThe paper's worked examples:");
    let d_price = run.outcome.price(Fig1::X, Fig1::Z, Fig1::D).unwrap();
    let b_price = run.outcome.price(Fig1::X, Fig1::Z, Fig1::B).unwrap();
    let y_price = run.outcome.price(Fig1::Y, Fig1::Z, Fig1::D).unwrap();
    println!("  X->Z: D is paid {d_price} (paper: 3), B is paid {b_price} (paper: 4)");
    println!("  Y->Z: D is paid {y_price} (paper: 9) for a path that costs only 1 — overcharging");
    Ok(())
}
