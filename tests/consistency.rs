//! The grand differential-consistency test: every independent
//! implementation path in the workspace, run on the same random instance,
//! must agree exactly.
//!
//! Routing has three implementations (Dijkstra, Bellman–Ford fixpoint,
//! path-vector protocol), the avoidance table has two (punctured Dijkstra,
//! subtree relaxation), price computation has two (Theorem-1 closed form,
//! distributed relaxation), the distributed run has three schedules
//! (synchronous, asynchronous, lossy), and settlement has
//! two (closed-form, source-side over the forwarding plane). Any
//! disagreement anywhere is a bug in at least one of them; agreement across
//! all on random instances is the strongest single check the workspace has.

use bgp_vcg::bgp::engine::SyncEngine;
use bgp_vcg::bgp::{forwarding, FaultPlan, PlainBgpNode, RouteSelector};
use bgp_vcg::core::accounting::PaymentLedger;
use bgp_vcg::lcp::avoiding::AvoidanceTable;
use bgp_vcg::lcp::{bellman, shortest_tree, AllPairsLcp};
use bgp_vcg::netgraph::generators::{barabasi_albert, erdos_renyi, random_costs};
use bgp_vcg::{protocol, vcg, AsGraph, PricingBgpNode, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stage budget of the session-layer runs, far beyond what they need.
const MAX_STAGES: u64 = 2_000;

fn instance(seed: u64) -> AsGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = random_costs(16, 0, 9, &mut rng);
    if seed.is_multiple_of(2) {
        erdos_renyi(costs, 0.3, &mut rng)
    } else {
        barabasi_albert(costs, 2, &mut rng)
    }
}

#[test]
fn all_implementation_paths_agree() {
    for seed in 0..6 {
        let g = instance(seed);

        // --- Routing: three implementations. ---
        let lcp = AllPairsLcp::compute(&g);
        for j in g.nodes() {
            assert_eq!(
                shortest_tree(&g, j),
                bellman::fixpoint(&g, j).tree,
                "seed {seed}: dijkstra vs bellman, dest {j}"
            );
        }
        let mut plain = SyncEngine::new(&g, PlainBgpNode::from_graph(&g));
        assert!(plain.run_to_convergence().converged);
        for i in g.nodes() {
            for j in g.nodes() {
                assert_eq!(
                    plain.node(i).selector().route(j),
                    lcp.route(i, j),
                    "seed {seed}: protocol vs dijkstra, {i}->{j}"
                );
            }
        }

        // --- Avoidance table: two implementations. ---
        let slow = AvoidanceTable::compute(&g, &lcp);
        let fast = AvoidanceTable::compute_fast(&g, &lcp);
        assert_eq!(slow, fast, "seed {seed}: avoidance tables");

        // --- Prices: closed form vs three distributed schedules. ---
        let reference = vcg::compute(&g).unwrap();
        let sync_run = protocol::run_sync(&g).unwrap();
        assert_eq!(sync_run.outcome, reference, "seed {seed}: sync protocol");
        let mut engine = protocol::build_chaos_engine(&g, FaultPlan::asynchronous(seed)).unwrap();
        let report = engine.run_to_stable(MAX_STAGES);
        let opens = 2 * g.link_count() as u64;
        assert!(report.converged, "seed {seed}: {report}");
        assert!(
            report.holds_fired == 0 && report.session_resets == opens,
            "{report}"
        );
        let async_nodes = engine.into_nodes();
        assert_eq!(
            protocol::outcome_from_nodes(&async_nodes).unwrap(),
            reference,
            "seed {seed}: async protocol"
        );
        let (lossy, report) =
            protocol::run_chaos(&g, FaultPlan::lossy(!seed, 16), MAX_STAGES).unwrap();
        assert!(report.converged, "{report}");
        assert_eq!(
            lossy, reference,
            "seed {seed}: dropped, duplicated and reordered frames"
        );

        // --- Forwarding plane composes with the control plane. ---
        let selectors: Vec<&RouteSelector> =
            async_nodes.iter().map(PricingBgpNode::selector).collect();
        forwarding::verify_consistency(&selectors).unwrap();

        // --- Settlement: closed form vs distributed source-side tallies. ---
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let traffic = TrafficMatrix::random(g.node_count(), 0, 4, &mut rng);
        let closed = PaymentLedger::settle(&reference, &traffic).unwrap();
        let distributed = PaymentLedger::settle_from_nodes(&async_nodes, &traffic).unwrap();
        assert_eq!(closed, distributed, "seed {seed}: settlement");
    }
}
