//! Cross-crate integration tests: the full pipeline from topology
//! generation through distributed price computation, checked against the
//! centralized Theorem-1 reference.

use bgp_vcg::bgp::{FaultPlan, TopologyEvent};
use bgp_vcg::core::accounting::PaymentLedger;
use bgp_vcg::core::overcharge::OverchargeReport;
use bgp_vcg::netgraph::generators::structured::{fig1, petersen, ring, torus, wheel, Fig1};
use bgp_vcg::netgraph::generators::{
    barabasi_albert, erdos_renyi, hierarchy, random_costs, waxman, HierarchyConfig, WaxmanConfig,
};
use bgp_vcg::{protocol, vcg, AsGraph, AsId, Cost, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The headline reproduction: on every topology family, the distributed
/// BGP-based protocol computes *bit-for-bit* the centralized VCG prices.
#[test]
fn distributed_equals_centralized_across_families() {
    let mut rng = StdRng::seed_from_u64(20020721); // PODC 2002
    let graphs: Vec<AsGraph> = vec![
        fig1(),
        ring(12, Cost::new(3)),
        torus(3, 5, Cost::new(2)),
        wheel(9, Cost::new(1), Cost::new(7)),
        petersen(Cost::new(4)),
        erdos_renyi(random_costs(20, 0, 9, &mut rng), 0.25, &mut rng),
        barabasi_albert(random_costs(25, 1, 10, &mut rng), 2, &mut rng),
        waxman(
            random_costs(20, 1, 8, &mut rng),
            WaxmanConfig::default(),
            &mut rng,
        ),
        hierarchy(HierarchyConfig::default(), &mut rng),
    ];
    for (idx, g) in graphs.iter().enumerate() {
        let run = protocol::run_sync(g).expect("valid graph");
        assert!(run.report.converged, "graph #{idx}");
        let reference = vcg::compute(g).expect("valid graph");
        assert_eq!(run.outcome, reference, "graph #{idx}");
    }
}

/// Asynchronous runs (per-link FIFO, seed-drawn interleaving) reach the same
/// unique fixpoint as the synchronous engine.
#[test]
fn async_equals_sync_equals_centralized() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = barabasi_albert(random_costs(20, 1, 9, &mut rng), 2, &mut rng);
    let reference = vcg::compute(&g).unwrap();
    let sync_run = protocol::run_sync(&g).unwrap();
    assert_eq!(sync_run.outcome, reference);
    for seed in 0..3 {
        let plan = FaultPlan::asynchronous(seed);
        let (async_outcome, report) = protocol::run_chaos(&g, plan, 1_000).unwrap();
        assert!(report.converged, "seed {seed}: {report}");
        assert_eq!(report.holds_fired, 0, "seed {seed}: {report}");
        assert_eq!(report.session_resets, 2 * g.link_count() as u64);
        assert_eq!(async_outcome, reference);
    }
}

/// Fig. 1 end-to-end with payments: one uniform packet between every pair,
/// settled through the Sect. 6.4 counters.
#[test]
fn fig1_payments_under_uniform_traffic() {
    let g = fig1();
    let run = protocol::run_sync(&g).unwrap();
    let traffic = TrafficMatrix::uniform(g.node_count(), 1);
    let ledger = PaymentLedger::settle(&run.outcome, &traffic).unwrap();
    // Every node's payment covers its incurred cost (individual
    // rationality under truth-telling).
    for k in g.nodes() {
        assert!(ledger.welfare(k, g.cost(k)) >= 0, "{k}");
    }
    // A is on the X<->Z avoiding path but no LCP except its own pairs:
    // it must carry nothing and be paid nothing.
    assert_eq!(ledger.packets_carried(Fig1::A), 0);
    assert_eq!(ledger.payment(Fig1::A), 0);
}

/// A sequence of topology events, each followed by verification against a
/// fresh centralized computation on the evolved graph.
#[test]
fn event_sequence_stays_exact() {
    let g = fig1();
    let mut engine = protocol::build_sync_engine(&g).unwrap();
    engine.run_to_convergence();

    let mut current = g;
    let events = [
        TopologyEvent::CostChange(Fig1::B, Cost::new(6)),
        TopologyEvent::LinkDown(Fig1::B, Fig1::D),
        TopologyEvent::CostChange(Fig1::A, Cost::new(1)),
        TopologyEvent::LinkUp(Fig1::B, Fig1::D),
        TopologyEvent::NodeDown(Fig1::Y),
        TopologyEvent::NodeUp(Fig1::Y),
        TopologyEvent::CostChange(Fig1::B, Cost::new(2)),
    ];
    for event in events {
        let report = engine.apply_event(event);
        assert!(report.converged);
        current = match event {
            TopologyEvent::LinkDown(a, b) => current.without_link(a, b).unwrap(),
            TopologyEvent::LinkUp(a, b) => current.with_link(a, b).unwrap(),
            TopologyEvent::CostChange(k, c) => current.with_cost(k, c),
            // While an AS is down some pairs are unroutable and the
            // mechanism's outcome is not comparable against a fixed-size
            // reference; verification resumes at `NodeUp`, which must
            // restore the exact fixpoint of the never-crashed graph
            // (self-stabilization).
            TopologyEvent::NodeDown(_) => continue,
            TopologyEvent::NodeUp(_) => current,
        };
        let nodes: Vec<_> = engine.nodes().cloned().collect();
        let outcome = protocol::outcome_from_nodes(&nodes).unwrap();
        assert_eq!(outcome, vcg::compute(&current).unwrap(), "after {event:?}");
    }
}

/// Overcharging (Sect. 7) composes with the distributed outcome, not just
/// the centralized one.
#[test]
fn overcharge_report_from_distributed_outcome() {
    let g = fig1();
    let run = protocol::run_sync(&g).unwrap();
    let report = OverchargeReport::analyze(&run.outcome);
    assert!(report.payments_dominate_costs());
    assert_eq!(report.max_ratio(), Some(9.0), "the Y→Z pair");
}

/// The mechanism refuses graphs where prices would be undefined, at every
/// entry point.
#[test]
fn non_biconnected_rejected_everywhere() {
    let mut b = AsGraph::builder();
    let ids = b.add_nodes(vec![Cost::new(1); 4]);
    b.add_link(ids[0], ids[1]).unwrap();
    b.add_link(ids[1], ids[2]).unwrap();
    b.add_link(ids[2], ids[3]).unwrap();
    let path = b.build();
    assert!(vcg::compute(&path).is_err());
    assert!(protocol::run_sync(&path).is_err());
    assert!(protocol::run_chaos(&path, FaultPlan::asynchronous(0), 100).is_err());
    assert!(protocol::build_sync_engine(&path).is_err());
}

/// Zero-cost nodes are legal and the protocol still agrees with the
/// reference (exercises tie-breaking hard).
#[test]
fn all_zero_costs_still_exact() {
    let g = torus(3, 4, Cost::ZERO);
    let run = protocol::run_sync(&g).unwrap();
    assert_eq!(run.outcome, vcg::compute(&g).unwrap());
    // With zero costs every price is zero: the avoiding margin is the only
    // term and all paths cost 0.
    for (_, _, pair) in run.outcome.pairs() {
        for (_, p) in pair.prices() {
            assert_eq!(p, Cost::ZERO);
        }
    }
}

/// Heterogeneous extreme costs (0 next to huge) stay exact — exercises the
/// saturating arithmetic paths.
#[test]
fn extreme_cost_spread_stays_exact() {
    let mut b = AsGraph::builder();
    let big = 1_000_000_000_000u64;
    let costs: Vec<Cost> = [0, big, 3, 0, big, 7, 1, big]
        .iter()
        .map(|&c| Cost::new(c))
        .collect();
    let ids = b.add_nodes(costs);
    for i in 0..ids.len() {
        b.add_link(ids[i], ids[(i + 1) % ids.len()]).unwrap();
        b.add_link(ids[i], ids[(i + 3) % ids.len()]).ok();
    }
    let g = b.build();
    assert!(g.is_biconnected());
    let run = protocol::run_sync(&g).unwrap();
    assert_eq!(run.outcome, vcg::compute(&g).unwrap());
}

/// AsId sanity: outcome indices round-trip through the public API.
#[test]
fn outcome_indexing_round_trip() {
    let g = fig1();
    let run = protocol::run_sync(&g).unwrap();
    for (i, j, pair) in run.outcome.pairs() {
        assert_eq!(pair.route().source(), i);
        assert_eq!(pair.route().destination(), j);
        assert_eq!(run.outcome.pair(i, j), Some(pair));
        for (k, p) in pair.prices() {
            assert_eq!(run.outcome.price(i, j, k), Some(p));
            assert!(k != i && k != j);
        }
    }
    let total: usize = run.outcome.pairs().count();
    assert_eq!(total, 6 * 5);
}

/// AS identifiers in routes always name nodes of the graph.
#[test]
fn routes_stay_within_graph() {
    let mut rng = StdRng::seed_from_u64(77);
    let g = erdos_renyi(random_costs(15, 1, 9, &mut rng), 0.3, &mut rng);
    let run = protocol::run_sync(&g).unwrap();
    for (_, _, pair) in run.outcome.pairs() {
        for &node in pair.nodes() {
            assert!(g.contains_node(node));
        }
        for w in pair.nodes().windows(2) {
            assert!(g.has_link(w[0], w[1]), "route uses a non-existent link");
        }
    }
}

/// The public facade re-exports compose: build everything through the
/// `bgp_vcg::` paths only (this test failing to compile would mean the
/// facade is broken).
#[test]
fn facade_reexports_compose() {
    let g: AsGraph = fig1();
    let _: AsId = Fig1::D;
    let outcome: bgp_vcg::RoutingOutcome = vcg::compute(&g).unwrap();
    let _: Option<bgp_vcg::PairOutcome<'_>> = outcome.pair(Fig1::X, Fig1::Z);
    let _ = bgp_vcg::PricingBgpNode::from_graph(&g);
}
