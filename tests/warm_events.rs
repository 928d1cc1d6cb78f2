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
use bgp_vcg::bgp::{Accusation, LocalEvent, ProtocolNode, TopologyEvent, Update, WireAuditor};
use bgp_vcg::netgraph::generators::{
    barabasi_albert, from_edges, hierarchy, random_costs, HierarchyConfig,
};
use bgp_vcg::{protocol, vcg, AsGraph, AsId, Cost, PricingBgpNode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

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

/// Every broadcast a run sends, with its sender. A full table shipped to
/// establish a session is a unicast that states the origin by design; it
/// carries no update id, and is left out.
#[derive(Clone, Default)]
struct Broadcasts(Arc<Mutex<Vec<Sent>>>);

/// One broadcast copy and its sender.
type Sent = (AsId, Arc<Update>);

impl Broadcasts {
    fn sent(&self) -> std::sync::MutexGuard<'_, Vec<Sent>> {
        self.0.lock().expect("no holder of the broadcasts panics")
    }

    /// The senders of broadcasts that name the sender as a destination.
    fn origin_senders(&self) -> Vec<AsId> {
        let names_itself = |(from, update): &&Sent| {
            let mut ads = update.advertisements.iter();
            ads.any(|ad| ad.destination == *from)
        };
        self.sent()
            .iter()
            .filter(names_itself)
            .map(|&(from, _)| from)
            .collect()
    }
}

impl WireAuditor for Broadcasts {
    fn on_wire(&mut self, from: AsId, _to: AsId, update: &Arc<Update>) {
        if update.id != 0 {
            self.sent().push((from, Arc::clone(update)));
        }
    }
    fn on_topology(&mut self, _event: &TopologyEvent) {}
    fn on_local_event(&mut self, _node: AsId, _event: &LocalEvent) {}
    fn end_stage(&mut self, _stage: u64) -> Vec<Accusation> {
        Vec::new()
    }
}

#[test]
fn a_lost_link_never_re_advertises_an_origin() {
    // An origin route never changes, so once announced it is never
    // broadcast again — not when a link drops, and not when a neighbour's
    // crash and restart bounces the sessions with it.
    let g = ba32();
    let (down, _) = script(&g).remove(4);
    assert!(matches!(down, TopologyEvent::LinkDown(..)), "{down:?}");

    let heard = Broadcasts::default();
    let mut sync = lock_step(&g);
    sync.attach_auditor(Box::new(heard.clone()));
    assert!(sync.apply_event(down).converged);
    let heard_sync = heard.sent().len();
    assert!(heard_sync > 0, "the lost link re-routes someone");
    assert_eq!(heard.origin_senders(), [], "lock-step, {down:?}");

    let heard = Broadcasts::default();
    let mut chaos = sessions(&g);
    chaos.attach_auditor(Box::new(heard.clone()));
    assert!(chaos.apply_event(down).converged);
    assert_eq!(heard.sent().len(), heard_sync, "the same broadcasts");
    assert_eq!(heard.origin_senders(), [], "sessions, {down:?}");

    // The hub's crash: every neighbour's session with it drops.
    let hub = g
        .nodes()
        .max_by_key(|&x| g.neighbors(x).len())
        .expect("nodes");
    let plan = FaultPlan::quiet().with_crash(40, hub, 44);
    let heard = Broadcasts::default();
    let mut chaos = protocol::build_chaos_engine(&g, plan).expect("a valid graph");
    chaos.attach_auditor(Box::new(heard.clone()));
    let report = chaos.run_to_stable(MAX_STAGES);
    assert!(report.converged, "{report}");
    assert_eq!((report.crashes, report.restarts), (1, 1), "{report}");
    assert_eq!(heard.origin_senders(), [], "sessions, {hub} crashed");
    assert_eq!(tables(chaos.nodes()), tables(lock_step(&g).nodes()));
}

/// The price-raising cases of ROADMAP item 1: j = AS0 (cost 0), k = AS1
/// (cost 1), a = AS2 and b = AS3 (cost `c` each), x = AS4 (cost 5), linked
/// 0–1, 1–2, 1–3, 2–3, 2–4, 3–4 and 4–0; with `detour`, also y = AS5
/// (cost 40), linked 4–5 and 5–0.
fn raised(c: u64, detour: bool) -> AsGraph {
    let mut costs = [0, 1, c, c, 5].map(Cost::new).to_vec();
    let mut edges = vec![(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 0)];
    if detour {
        costs.push(Cost::new(40));
        edges.extend([(4, 5), (5, 0)]);
    }
    from_edges(costs, &edges)
}

/// Applies `event` to converged lock-step and quiet-session engines on `g`
/// and asserts each converges on the prices a cold run on `after` computes.
fn reprices_as_cold(g: &AsGraph, event: TopologyEvent, after: &AsGraph, what: &str) {
    let cold = vcg::compute(after).expect("a biconnected graph");
    let mut sync = lock_step(g);
    let report = sync.apply_event(event);
    assert!(report.converged, "{what}, lock-step: {report}");
    let nodes: Vec<PricingBgpNode> = sync.nodes().cloned().collect();
    assert_eq!(
        protocol::outcome_from_nodes(&nodes),
        Ok(cold.clone()),
        "{what}, lock-step"
    );
    let mut chaos = sessions(g);
    let report = chaos.apply_event(event);
    assert!(report.converged, "{what}, sessions: {report}");
    let nodes: Vec<PricingBgpNode> = chaos.nodes().cloned().collect();
    assert_eq!(
        protocol::outcome_from_nodes(&nodes),
        Ok(cold),
        "{what}, sessions"
    );
}

#[test]
#[ignore = "ROADMAP item 1: warm prices after a price-raising event"]
fn a_cost_rise_reprices_as_a_cold_run_does() {
    let x = AsId::new(4);
    for c in [0, 1, 3] {
        let g = raised(c, false);
        let event = TopologyEvent::CostChange(x, Cost::new(50));
        let after = g.with_cost(x, Cost::new(50));
        reprices_as_cold(&g, event, &after, &format!("c = {c}, {event:?}"));
    }
}

#[test]
#[ignore = "ROADMAP item 1: warm prices after a price-raising event"]
fn a_lost_link_reprices_as_a_cold_run_does() {
    let (x, j) = (AsId::new(4), AsId::new(0));
    for c in [0, 1, 3] {
        let g = raised(c, true);
        let event = TopologyEvent::LinkDown(x, j);
        let after = g.without_link(x, j).expect("the link x–j");
        reprices_as_cold(&g, event, &after, &format!("c = {c}, {event:?}"));
    }
}
