//! Topology dynamics: link failures, recoveries, and cost re-declarations.
//!
//! The paper notes (Sect. 6) that "the process of converging begins again
//! each time a route is changed". This example converges the pricing
//! protocol on the Fig. 1 network, then fails the B–D link, watches routes
//! and prices reconverge, brings the link back, and finally has D triple
//! its declared cost — verifying after every event that the distributed
//! prices again match a fresh centralized VCG computation on the changed
//! network.
//!
//! Run with: `cargo run --example dynamic_network`

use bgp_vcg::bgp::TopologyEvent;
use bgp_vcg::netgraph::generators::structured::{fig1, Fig1};
use bgp_vcg::{protocol, vcg, AsGraph, Cost};
use std::error::Error;

fn show_x_to_z(outcome: &bgp_vcg::RoutingOutcome) {
    let names = ["X", "A", "Z", "D", "B", "Y"];
    let pair = outcome.pair(Fig1::X, Fig1::Z).expect("X reaches Z");
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
        "  X->Z now routes {} (cost {}), prices [{}]",
        path.join(" "),
        pair.transit_cost(),
        prices.join(", ")
    );
}

fn main() -> Result<(), Box<dyn Error>> {
    let graph = fig1();
    let mut engine = protocol::build_sync_engine(&graph)?;
    let report = engine.run_to_convergence();
    println!("Initial convergence: {} stages.", report.stages);
    let outcome = protocol::outcome_from_nodes(&clone_nodes(&engine))?;
    show_x_to_z(&outcome);

    // 1. The B–D link fails: X must fall back to the expensive X A Z path.
    println!("\n*** Link B–D fails ***");
    let report = engine.apply_event(TopologyEvent::LinkDown(Fig1::B, Fig1::D));
    println!(
        "Reconverged in {} stages, {} messages.",
        report.stages, report.messages
    );
    let failed_graph = graph.without_link(Fig1::B, Fig1::D)?;
    verify(&engine, &failed_graph)?;

    // 2. The link comes back: the original routes and prices return.
    println!("\n*** Link B–D restored ***");
    let report = engine.apply_event(TopologyEvent::LinkUp(Fig1::B, Fig1::D));
    println!(
        "Reconverged in {} stages, {} messages.",
        report.stages, report.messages
    );
    verify(&engine, &graph)?;

    // 3. D re-declares a triple cost: traffic routes around it, its prices
    //    change everywhere.
    println!("\n*** D re-declares cost 3 ***");
    let report = engine.apply_event(TopologyEvent::CostChange(Fig1::D, Cost::new(3)));
    println!(
        "Reconverged in {} stages, {} messages.",
        report.stages, report.messages
    );
    let repriced_graph = graph.with_cost(Fig1::D, Cost::new(3));
    verify(&engine, &repriced_graph)?;
    Ok(())
}

fn clone_nodes(
    engine: &bgp_vcg::bgp::engine::SyncEngine<bgp_vcg::PricingBgpNode>,
) -> Vec<bgp_vcg::PricingBgpNode> {
    engine.nodes().cloned().collect()
}

fn verify(
    engine: &bgp_vcg::bgp::engine::SyncEngine<bgp_vcg::PricingBgpNode>,
    expected_graph: &AsGraph,
) -> Result<(), Box<dyn Error>> {
    let outcome = protocol::outcome_from_nodes(&clone_nodes(engine))?;
    let reference = vcg::compute(expected_graph)?;
    assert_eq!(
        outcome, reference,
        "after the event, distributed state must equal centralized VCG on the new network"
    );
    println!("Distributed prices again match the centralized computation.");
    show_x_to_z(&outcome);
    Ok(())
}
