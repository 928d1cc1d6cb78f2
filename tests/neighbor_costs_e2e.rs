//! Root-level integration tests for the Sect. 3 per-neighbor-cost
//! extension, exercised purely through the public facade.

use bgp_vcg::bgp::{ChaosEngine, FaultPlan};
use bgp_vcg::core::neighbor_costs::{self, NcPricingNode, NeighborCostGraph};
use bgp_vcg::netgraph::generators::structured::{fig1, Fig1};
use bgp_vcg::netgraph::generators::{barabasi_albert, random_costs};
use bgp_vcg::{protocol, vcg, Cost, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn randomized_nc(n: usize, seed: u64) -> NeighborCostGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = barabasi_albert(random_costs(n, 1, 9, &mut rng), 2, &mut rng);
    let mut g = NeighborCostGraph::uniform(&base);
    for k in base.nodes() {
        for &a in base.neighbors(k) {
            g = g
                .with_recv_cost(k, a, Cost::new(rng.gen_range(0..12)))
                .unwrap();
        }
    }
    g
}

/// The three computations of the generalized mechanism agree: centralized,
/// synchronous distributed, asynchronous distributed.
#[test]
fn nc_three_way_agreement() {
    for seed in 0..4 {
        let g = randomized_nc(14, seed);
        let reference = neighbor_costs::compute(&g).unwrap();
        let (sync_outcome, sync_report) = neighbor_costs::run_nc_sync(&g).unwrap();
        assert!(sync_report.converged, "seed {seed}");
        assert_eq!(sync_outcome, reference, "seed {seed}: sync");
        let plan = FaultPlan::asynchronous(seed);
        let mut engine = ChaosEngine::new(g.topology(), NcPricingNode::from_graph(&g), plan);
        let report = engine.run_to_stable(1_000);
        assert!(report.converged, "seed {seed}: {report}");
        assert_eq!(report.holds_fired, 0, "seed {seed}: {report}");
        assert_eq!(report.session_resets, 2 * g.topology().link_count() as u64);
        let async_outcome = protocol::outcome_from_nodes(&engine.into_nodes()).unwrap();
        assert_eq!(async_outcome, reference, "seed {seed}: async");
    }
}

/// Lifting Fig. 1 and re-pricing one link reproduces the base mechanism on
/// an equivalent node-cost graph when the change is cost-neutral per node.
#[test]
fn nc_uniform_round_trip_through_facade() {
    let base = fig1();
    let lifted = NeighborCostGraph::uniform(&base);
    let nc_outcome = neighbor_costs::compute(&lifted).unwrap();
    let base_outcome = vcg::compute(&base).unwrap();
    assert_eq!(nc_outcome, base_outcome);
    // Worked-example payments survive the lift.
    assert_eq!(
        nc_outcome.price(Fig1::Y, Fig1::Z, Fig1::D),
        Some(Cost::new(9))
    );
}

/// Generalized strategyproofness through the facade: random vector lies on
/// a randomized instance never profit.
#[test]
fn nc_vector_lies_never_profit() {
    let g = randomized_nc(10, 99);
    let traffic = TrafficMatrix::uniform(10, 1);
    let mut rng = StdRng::seed_from_u64(5);
    for k in g.nodes() {
        for _ in 0..5 {
            let dev = neighbor_costs::deviate(&g, k, 15, &traffic, &mut rng).unwrap();
            assert!(!dev.profitable(), "{dev:?}");
        }
    }
}

/// Direction sensitivity end to end: pricing one incoming link off the LCP
/// re-routes only the flows that used it.
#[test]
fn nc_asymmetry_is_flow_specific() {
    let g = NeighborCostGraph::uniform(&fig1())
        .with_recv_cost(Fig1::D, Fig1::B, Cost::new(50))
        .unwrap();
    let outcome = neighbor_costs::compute(&g).unwrap();
    // X->Z rerouted off D...
    assert_eq!(
        outcome.pair(Fig1::X, Fig1::Z).unwrap().nodes(),
        &[Fig1::X, Fig1::A, Fig1::Z]
    );
    // ...while Y->Z still uses D through its untouched Y-facing link.
    assert_eq!(
        outcome.pair(Fig1::Y, Fig1::Z).unwrap().nodes(),
        &[Fig1::Y, Fig1::D, Fig1::Z]
    );
    // And the distributed protocol agrees on the asymmetric instance.
    let (distributed, _) = neighbor_costs::run_nc_sync(&g).unwrap();
    assert_eq!(distributed, outcome);
}
