//! Warm events against cold rebuilds, under both transports.
//!
//! A route's last path entry is its destination, which is never transit,
//! so it carries no cost: a node's re-declaration changes only the routes
//! it extends, never the routes *to* it. A stub that is transit for nobody
//! therefore re-declares to its neighbours and no further. Every event of
//! a mixed script must still land where a cold run on the post-event graph
//! lands: the same full table and the same state at every node.

use bgp_vcg::bgp::chaos::{ChaosEngine, FaultPlan};
use bgp_vcg::bgp::engine::SyncEngine;
use bgp_vcg::bgp::{ProtocolNode, TopologyEvent};
use bgp_vcg::netgraph::generators::{barabasi_albert, hierarchy, random_costs, HierarchyConfig};
use bgp_vcg::{protocol, vcg, AsGraph, AsId, Cost, PricingBgpNode};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_STAGES: u64 = 5_000;

fn hier(core_size: usize, stub_count: usize, seed: u64) -> AsGraph {
    let config = HierarchyConfig {
        core_size,
        stub_count,
        ..HierarchyConfig::default()
    };
    hierarchy(config, &mut StdRng::seed_from_u64(seed))
}

fn ba32() -> AsGraph {
    let mut rng = StdRng::seed_from_u64(32);
    barabasi_albert(random_costs(32, 1, 10, &mut rng), 2, &mut rng)
}

fn lock_step(g: &AsGraph) -> SyncEngine<PricingBgpNode> {
    let mut engine = protocol::build_sync_engine(g).expect("a valid graph");
    assert!(engine.run_to_convergence().converged);
    engine
}

fn sessions(g: &AsGraph) -> ChaosEngine<PricingBgpNode> {
    let mut engine = protocol::build_chaos_engine(g, FaultPlan::quiet()).expect("a valid graph");
    assert!(engine.run_to_stable(MAX_STAGES).converged);
    engine
}

/// Every node's full table and state, in AS order.
fn tables<'a>(nodes: impl Iterator<Item = &'a PricingBgpNode>) -> Vec<String> {
    nodes
        .map(|node| format!("{:?}\n{:?}", node.full_table(), node.state()))
        .collect()
}

#[test]
fn a_stub_cost_change_reaches_only_its_neighbours() {
    let g = hier(12, 116, 61);
    let stub = AsId::new(12);
    let degree = g.neighbors(stub).len();
    let mut engine = lock_step(&g);
    let mut after = g.clone();
    for cost in [g.cost(stub) + Cost::new(5), Cost::new(1)] {
        let report = engine.apply_event(TopologyEvent::CostChange(stub, cost));
        after = after.with_cost(stub, cost);
        assert!(report.converged, "{report}");
        assert_eq!((report.stages, report.messages), (0, degree), "{cost}");
        let nodes: Vec<PricingBgpNode> = engine.nodes().cloned().collect();
        let outcome = protocol::outcome_from_nodes(&nodes).expect("converged prices");
        assert_eq!(
            outcome,
            vcg::compute(&after).expect("a valid graph"),
            "{cost}"
        );
    }
}

/// Raise and lower a hub's and a stub's cost, take a link down, bring it
/// back: the graph after each event.
fn script(g: &AsGraph) -> Vec<(TopologyEvent, AsGraph)> {
    let degree = |x: &AsId| g.neighbors(*x).len();
    let hub = g.nodes().max_by_key(degree).expect("nodes");
    let stub = g.nodes().min_by_key(degree).expect("nodes");
    let link = g
        .links()
        .iter()
        .find(|l| {
            g.without_link(l.a(), l.b())
                .is_ok_and(|rest| rest.is_biconnected())
        })
        .expect("a removable link");
    let (a, b) = (link.a(), link.b());
    let mut events = Vec::new();
    let mut now = g.clone();
    for (node, cost) in [
        (hub, g.cost(hub) + Cost::new(6)),
        (hub, Cost::new(1)),
        (stub, g.cost(stub) + Cost::new(6)),
        (stub, Cost::new(1)),
    ] {
        now = now.with_cost(node, cost);
        events.push((TopologyEvent::CostChange(node, cost), now.clone()));
    }
    let without = now.without_link(a, b).expect("a link");
    events.push((TopologyEvent::LinkDown(a, b), without));
    events.push((TopologyEvent::LinkUp(a, b), now));
    events
}

#[test]
fn every_event_of_a_mixed_script_lands_on_the_cold_rebuild() {
    for (name, g) in [("BA n=32", ba32()), ("hier32", hier(4, 28, 32))] {
        let mut sync = lock_step(&g);
        let mut chaos = sessions(&g);
        for (event, after) in script(&g) {
            let what = format!("{name}: {event:?}");
            assert!(sync.apply_event(event).converged, "{what}");
            assert!(chaos.apply_event(event).converged, "{what}");
            let cold = tables(lock_step(&after).nodes());
            assert_eq!(tables(sync.nodes()), cold, "{what}: lock-step");
            assert_eq!(tables(chaos.nodes()), cold, "{what}: sessions");
        }
    }
}
