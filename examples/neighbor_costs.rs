//! The paper's Sect. 3 extension: per-neighbor (edge) transit costs.
//!
//! Demonstrates the generalized cost model where each AS declares one cost
//! per adjacent link (its cost of receiving transit traffic over that
//! link): routing becomes direction- and link-sensitive, the VCG mechanism
//! stays strategyproof with the *cost vector* as the agent's type, and the
//! distributed margin-relaxation protocol still computes the exact prices.
//!
//! Run with: `cargo run --example neighbor_costs`

use bgp_vcg::core::neighbor_costs::{self, NeighborCostGraph};
use bgp_vcg::netgraph::generators::structured::{fig1, Fig1};
use bgp_vcg::{vcg, Cost, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;

const NAMES: [&str; 6] = ["X", "A", "Z", "D", "B", "Y"];

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Lifting the base model: uniform per-link costs reduce exactly.
    let base = fig1();
    let uniform = NeighborCostGraph::uniform(&base);
    assert_eq!(neighbor_costs::compute(&uniform)?, vcg::compute(&base)?);
    println!("Uniform per-link costs reproduce the base mechanism exactly.\n");

    // 2. Congest one link: D's interface toward B becomes expensive.
    let congested = uniform.with_recv_cost(Fig1::D, Fig1::B, Cost::new(4))?;
    println!("Raise D's cost of receiving from B to 4 (its Y side stays at 1):");
    let outcome = neighbor_costs::compute(&congested)?;

    // The distributed protocol agrees bit-for-bit.
    let (distributed, report) = neighbor_costs::run_nc_sync(&congested)?;
    assert_eq!(distributed, outcome);
    println!(
        "Distributed margin protocol converged in {} stages and matches the centralized \
         computation.\n",
        report.stages
    );

    for (src, dst) in [(Fig1::X, Fig1::Z), (Fig1::Y, Fig1::Z)] {
        let pair = outcome.pair(src, dst).unwrap();
        let path: Vec<&str> = pair
            .route()
            .nodes()
            .iter()
            .map(|k| NAMES[k.index()])
            .collect();
        let prices: Vec<String> = pair
            .prices()
            .map(|(k, p)| format!("{}={p}", NAMES[k.index()]))
            .collect();
        println!(
            "  {}->{}: {} (cost {}), prices [{}]",
            NAMES[src.index()],
            NAMES[dst.index()],
            path.join(" "),
            pair.transit_cost(),
            prices.join(", ")
        );
    }
    println!(
        "\nThe X->Z flow routes around D's congested interface while Y->Z still uses D \
         through its cheap side — routing is now link-sensitive."
    );

    // 3. Strategyproofness survives: random cost-vector lies never profit.
    let traffic = TrafficMatrix::uniform(base.node_count(), 1);
    let mut rng = StdRng::seed_from_u64(3);
    let mut tested = 0;
    for k in congested.nodes() {
        for _ in 0..10 {
            let dev = neighbor_costs::deviate(&congested, k, 12, &traffic, &mut rng)?;
            assert!(!dev.profitable(), "vector lie must not profit: {dev:?}");
            tested += 1;
        }
    }
    println!("\n{tested} random cost-vector lies tested: none profitable (Theorem 1 generalizes).");
    Ok(())
}
